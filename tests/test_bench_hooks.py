"""The benchmark's tracing hooks all find their targets in the package.

``bench/tracing.py`` times the package by rebinding the functions listed in
its ``HOOKS``.  A hook whose target is gone is skipped, and every per-layer
metric that depends only on it silently drops out of the traced result, so
the result line is valid JSON yet incomplete.  Removing or renaming a hooked
function (``solve_banded``, ``matching_row_residual``, ``build_potential``,
...; ROADMAP item 1) therefore needs a benchmark change that updates
``HOOKS`` first.  The module is executed from its source, so nothing is
written under ``bench/``.
"""

import types
from pathlib import Path

import qhscatter  # noqa: F401  (loads the modules the hooks look up)
import qhscatter.cli  # noqa: F401

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    module = types.ModuleType("qhscatter_bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_hook_site_exists():
    tracing = _load_tracing()
    restore, absent = tracing.install(tracing.Tracer())
    try:
        assert absent == []
        assert len(restore) == sum(len(sites) for sites, _, _ in tracing.HOOKS.values())
    finally:
        tracing.uninstall(restore)
