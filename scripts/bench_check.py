#!/usr/bin/env python3
"""Smoke-check the benchmark: every run must end in a complete result.

Runs ``bench/run.py`` for each workload at ``--trace 0`` and ``--trace 1``
with a short ``--seconds`` and parses its last two lines as strict JSON
(``NaN`` and ``Infinity`` are rejected).  A run passes when

* the result names every ``end_to_end`` metric (trace 0) or every
  ``per_layer`` metric (trace 1) of ``BENCHMARK.json``;
* ``correct`` is true;
* the metadata line lists no absent tracing hooks.

    python3 scripts/bench_check.py [--seconds 2] [--seed 1] [--workload W ...]

Prints one line per run and exits 1 if any run fails.  Nothing under
``bench/`` is changed; the runs write their tables to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify", "sweep-dense", "sweep-long", "edge")


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(line: str) -> dict:
    return json.loads(line, parse_constant=_reject_constant)


def check_run(
    workload: str, trace: int, seed: int, seconds: float, expected: list[str]
) -> tuple[int, list[str]]:
    """(expected metrics found, problems) of one bench/run.py run; no problems is a pass."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return 0, [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    try:
        meta, result = strict_json(lines[-2])["meta"], strict_json(lines[-1])
    except (ValueError, KeyError, TypeError) as exc:
        return 0, [f"last lines are not a strict-JSON result: {exc}"]
    problems = []
    missing = [name for name in expected if name not in result.get("metrics", {})]
    if missing:
        problems.append(f"missing metrics {missing}")
    if result.get("correct") is not True:
        problems.append(f"correct={result.get('correct')!r}; problems {meta.get('problems')}")
    if meta.get("absent_hooks"):
        problems.append(f"absent hooks {meta['absent_hooks']}")
    return len(expected) - len(missing), problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    failures = 0
    for workload in args.workload or WORKLOADS:
        for trace in (0, 1):
            found, problems = check_run(workload, trace, args.seed, args.seconds, names[trace])
            status = "FAIL" if problems else "ok"
            print(f"{workload:<12} trace={trace} metrics={found}/{len(names[trace])} {status}"
                  + "".join(f"\n    {p}" for p in problems), flush=True)
            failures += bool(problems)
    print(f"{failures} of {2 * len(args.workload or WORKLOADS)} runs failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
