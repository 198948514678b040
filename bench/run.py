"""qhscatter benchmark: end-to-end metrics, or a traced per-layer breakdown.

    python3 bench/run.py --workload {verify,sweep-dense,sweep-long,edge}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its ``src``.
Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``verify``: ``qhscatter verify`` with the default suites and grid
  (3,200 points);
* ``sweep-dense``: 2 g x 4 N x 1000 angles, ``--method both``, CSV;
* ``sweep-long``: 2 g x N in {500, 2000, 8000} x 40 angles, ``--method both``;
* ``edge``: 9,994 seeded points near phi = 0, phi = pi and the resonance
  guards through ``evaluate_point(..., "both")`` one at a time, plus eight
  ``continuum_probe`` runs over h = 0.2 / 2^i, i = 0..20 (168 points).

The load is a closed loop with one client: one workload process at a time,
with ``THREADS`` unset and BLAS threads pinned to 1.

End-to-end metrics (``--trace 0``):

* ``setup_s``: fresh interpreter to ``import qhscatter`` done, median of
  several interpreters after one unmeasured warm-up start;
* ``wall_s``: median wall time of one pass of the workload after import,
  including rendering and file writes.

  Both times are scaled to the machine's typical speed by a short fixed
  kernel timed before and after each interval (see ``calibration.py``);
  the raw seconds are in the metadata line;
* ``points_per_s``: distinct (scatterer, phi) points of one pass / ``wall_s``;
* ``failed_frac``: (failed points + 1) / (points + 1).  A point fails when it
  raises a ``QhScatterError``, breaks tolerance (defect > 1e-11 or
  discrepancy > 1e-10) or belongs to a CLI run or probe whose check failed.
  The add-one keeps the value above 0, so a relative bound applies also to
  workloads where nothing fails: one new failure among the 3,200 ``verify``
  points doubles it;
* ``peak_rss_mb``: ``ru_maxrss`` of the workload process.

``--trace 1`` instead spends half the time on untraced and half on traced
passes and reports the per-layer metrics of ``tracing.PER_LAYER`` (per pass),
the ``python -X importtime`` split of the import, and the tracing overhead
(median traced minus median untraced scaled pass).  Layer times are raw
seconds per pass.  Each entry of ``PER_LAYER`` names the end-to-end metric
and workload it is expected to move.

The last line of standard output is the result object; the line before it
holds run metadata.  Sweep tables and the spans of the first traced pass are
written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("verify", "sweep-dense", "sweep-long", "edge")
SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
READY = "import qhscatter, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _finish(proc: subprocess.Popen, timeout: float) -> tuple[str, str]:
    try:
        return proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{proc.args[1:3]} exceeded {timeout:.0f} s") from None


def setup_time(env: dict) -> tuple[float, float]:
    """Seconds from starting an interpreter to `import qhscatter` done: (raw, scaled)."""
    before = calibration.speed_sample()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", READY], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = _finish(proc, 60)
    if line != "ready\n" or proc.returncode != 0:
        raise BenchError(f"import qhscatter failed: {err.strip()[-500:]}")
    return elapsed, calibration.scaled(elapsed, before, calibration.speed_sample())


def import_split(env: dict) -> dict[str, float]:
    """Cumulative import seconds of numpy, scipy and qhscatter's own part."""
    proc = subprocess.Popen([sys.executable, "-X", "importtime", "-c", "import qhscatter"],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    _, err = _finish(proc, 60)
    if proc.returncode != 0:
        raise BenchError(f"import qhscatter failed: {err.strip()[-500:]}")
    return parse_importtime(err)


# numpy modules first imported by scipy count as scipy's import time
THIRD_PARTY = {"numpy": {"scipy"}, "scipy": {"numpy"}, "qhscatter": set()}
_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)$")


def parse_importtime(text: str) -> dict[str, float]:
    """Sum the cumulative time of each package's outermost imports.

    ``-X importtime`` lists modules children first, indented two spaces
    per level; walking the list backwards visits every parent before its
    children.  qhscatter's share excludes the numpy and scipy imports made
    under it.
    """
    entries = []
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2)) * 1e-6))
    totals = {"numpy": 0.0, "scipy": 0.0, "qhscatter": 0.0}
    stack: list[str] = []
    for depth, name, cumulative in reversed(entries):
        del stack[depth:]
        package = name.split(".")[0]
        outer = {p.split(".")[0] for p in stack}
        if package in totals and not outer & ({package} | THIRD_PARTY[package]):
            totals[package] += cumulative
        stack.append(name)
    totals["qhscatter"] -= totals["numpy"] + totals["scipy"]
    return totals


def run_worker(args, env: dict) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", str(OUT_DIR)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    out, err = _finish(proc, 2 * args.seconds + 60)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-1500:]}")
    result = json.loads(lines[-1])
    src = Path(result["qhscatter_file"]).resolve()
    if SRC.resolve() not in src.parents:
        raise BenchError(f"imported qhscatter from {src}, not from {SRC}")
    return result


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def runtime_dependencies() -> list[str] | None:
    try:
        import tomllib
    except ImportError:
        return None
    try:
        with open(ROOT / "pyproject.toml", "rb") as fh:
            return tomllib.load(fh).get("project", {}).get("dependencies")
    except (OSError, tomllib.TOMLDecodeError):
        return None


def metadata(args, result: dict, setups: list[tuple[float, float]]) -> dict:
    src_lines = sum(
        len(p.read_bytes().splitlines()) for p in sorted((SRC / "qhscatter").rglob("*.py"))
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **result["versions"],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_sha": git_sha(),
        "src_lines": src_lines,
        "runtime_dependencies": runtime_dependencies(),
        "raw_setup_s": [raw for raw, _ in setups],
        "raw_pass_wall_s": result["raw_wall_s"],
        "pass_wall_s": result["wall_s"],
        "traced_pass_wall_s": result["traced_wall_s"],
        "stats": result["stats"],
        "absent_hooks": result["absent_hooks"],
        "problems": result["problems"],
        "n_problems": result["n_problems"],
    }


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> dict:
    wall = statistics.median(result["wall_s"])
    return {
        "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
        "wall_s": (wall, "s"),
        "points_per_s": (result["points"] / wall, "1/s"),
        "failed_frac": ((result["failed"] + 1) / (result["points"] + 1), "fraction"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
    }


def per_layer(result: dict, imports: list[dict]) -> dict:
    """Per-pass values of tracing.PER_LAYER; metrics of absent hooks are left out."""
    live = tracing.hooked_spans(result["absent_hooks"])
    passes = len(result["traced_wall_s"])
    metrics = {}
    for name, unit, _, (kind, key), _ in tracing.PER_LAYER:
        if kind == "import":
            value = statistics.median(s[key] for s in imports)
        elif kind == "accuracy":
            value = result["stats"].get(key, 0.0)
        elif kind == "overhead":
            value = statistics.median(result["traced_wall_s"]) - statistics.median(result["wall_s"])
        elif kind == "counter":
            if tracing.COUNTER_SPAN[key] not in live:
                continue
            value = result["counters"].get(key, 0) / passes
        else:
            if key not in live:
                continue
            calls, total, own = result["span_totals"].get(key, (0, 0.0, 0.0))
            value = {
                "calls": calls,
                "per_point": calls / result["points"],
                "s": total,
                "self_s": own,
            }[kind] / passes
        metrics[name] = (value, unit)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="qhscatter benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qhscatter" / "__init__.py").is_file():
        print(f"bench: no qhscatter sources under {SRC}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    env = child_env()
    try:
        setup_time(env)  # warm-up: byte-compiles the package once
        if args.trace:
            setups: list[tuple[float, float]] = []
            imports = [import_split(env) for _ in range(IMPORTTIME_SAMPLES)]
        else:
            setups = [setup_time(env) for _ in range(SETUP_SAMPLES)]
            imports = []
        result = run_worker(args, env)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    metrics = per_layer(result, imports) if args.trace else end_to_end(result, setups)
    print(json.dumps({"meta": metadata(args, result, setups)}))
    print(json.dumps({
        "correct": result["n_problems"] == 0,
        "attempted": result["points"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
