"""One benchmark workload in a fresh interpreter: run, time, check, report.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Repeats the workload until ``--seconds`` have passed, times each
pass with tracing off, checks every pass's output, and prints one JSON
object as its last line.  With ``--trace 1`` it splits the time between
untraced and traced passes and adds the traced per-layer aggregates.

The package is driven only through its public entry points
(``cli.main``, ``sweeps.evaluate_point`` and ``scattering.continuum_probe``),
each looked up on its module at call time so that tracing can rebind it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import random
import re
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import qhscatter
import qhscatter.cli as cli
import qhscatter.scattering as scattering
import qhscatter.sweeps as sweeps
from qhscatter import QhScatterError, TwoCenterSpec

import calibration
import tracing

# acceptance tolerances (ROADMAP north star); a point beyond either one fails
DEFECT_TOL = 1e-11
DISCREPANCY_TOL = 1e-10

COLUMNS = [
    "g", "N", "phi", "re_R", "im_R", "re_T", "im_T",
    "abs_R2", "abs_T2", "defect", "method", "resonance_flag", "discrepancy",
]

# `qhscatter verify` defaults: 10 g x 8 N x 40 phi
VERIFY_POINTS = 3200
VERIFY_LINES = {
    ("metric", "two-center"),
    ("metric", "chain"),
    ("unitarity", "numeric"),
    ("unitarity", "closed"),
    ("closed-vs-numeric", "N=-1"),
    ("closed-vs-numeric", "N=0"),
    ("closed-vs-numeric", "N>=1"),
}
VERIFY_RE = re.compile(
    r"^suite=(\S+) check=(\S+) max=(\S+) tolerance=(\S+) worst=\[.*\] (PASS|FAIL)$"
)

SWEEPS = {
    "sweep-dense": ((0.3, -0.5), (-1, 0, 10, 50), 1000, ["--format", "csv"]),
    "sweep-long": ((0.3, -0.7), (500, 2000, 8000), 40, []),
}

EDGE_N = (-1, 0, 1, 3, 10, 50, 200)
EDGE_PER_STRATUM = 526  # 19 (N, region) strata -> 9,994 points
EDGE_PROBES = 8
PROBE_HS = [0.2 / 2**i for i in range(21)]
PROBE_KAPPA = 1.0


class Workload:
    """Inputs and checks of one workload; run() is the timed part."""

    points: int

    def run(self):
        raise NotImplementedError

    def check(self, output) -> tuple[int, dict, list[str], str]:
        """(failed points, stats, problems, digest of the output).

        stats holds max_defect and max_discrepancy over the answered points,
        and on edge the counts of refused and out-of-tolerance points.
        """
        raise NotImplementedError


def _run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class Verify(Workload):
    points = VERIFY_POINTS

    def run(self):
        return _run_cli(["verify"])

    def check(self, output):
        rc, out, err = output
        problems = [] if rc == 0 else [f"verify exited {rc}: {err.strip()[:200]}"]
        seen, defect, discrepancy = set(), 0.0, 0.0
        for line in out.splitlines():
            m = VERIFY_RE.match(line)
            if m is None:
                problems.append(f"unparsed verify line: {line[:120]}")
                continue
            suite, label, value, tol, status = m.groups()
            seen.add((suite, label))
            if status != "PASS" or float(value) > float(tol):
                problems.append(f"verify line failed: {line[:160]}")
            if suite == "unitarity":
                defect = max(defect, float(value))
            elif suite == "closed-vs-numeric":
                discrepancy = max(discrepancy, float(value))
        if seen != VERIFY_LINES:
            problems.append(f"verify lines {sorted(seen)} != expected {sorted(VERIFY_LINES)}")
        failed = self.points if problems else 0
        stats = {"max_defect": defect, "max_discrepancy": discrepancy}
        return failed, stats, problems, hashlib.sha256(out.encode()).hexdigest()


class Sweep(Workload):
    def __init__(self, name: str, out_dir: Path) -> None:
        self.gs, self.ns, self.count, extra = SWEEPS[name]
        self.path = out_dir / f"{name}.csv"
        self.argv = [
            "sweep", "--g", ",".join(map(str, self.gs)), "--N", ",".join(map(str, self.ns)),
            "--phi-grid", str(self.count), "--method", "both", *extra, "--out", str(self.path),
        ]
        self.grid = [
            (g, n, float(phi))
            for g in self.gs for n in self.ns
            for phi in np.linspace(1e-3, math.pi - 1e-3, self.count)
        ]
        self.points = len(self.grid)

    def run(self):
        return _run_cli(self.argv)

    def check(self, output):
        rc, _, err = output
        if rc != 0:
            return self.points, {}, [f"sweep exited {rc}: {err.strip()[:200]}"], ""
        digest = hashlib.sha256()
        with open(self.path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        failed, problems = 0, []
        defect = discrepancy = 0.0
        with open(self.path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)  # streamed, so the check adds little to peak RSS
            header = next(reader, None)
            if header != COLUMNS:
                return self.points, {}, [f"header {header} != {COLUMNS}"], digest.hexdigest()
            row = next(reader, None)
            for g, n, phi in self.grid:
                group = []
                while row is not None and len(group) < 2 and _row_key(row) == (g, n, phi):
                    group.append(dict(zip(COLUMNS, row)))
                    row = next(reader, None)
                bad, d, q = _check_point(group)
                if bad:
                    problems.append(f"point g={g} N={n} phi={phi!r}: {bad}")
                    failed += 1
                defect, discrepancy = max(defect, d), max(discrepancy, q)
            if row is not None:
                problems.append(f"row outside the grid order: {row[:3]}")
                failed = self.points
        stats = {"max_defect": defect, "max_discrepancy": discrepancy}
        return failed, stats, problems, digest.hexdigest()


def _row_key(row: list[str]):
    if len(row) != len(COLUMNS):
        return None
    try:
        return float(row[0]), int(row[1]), float(row[2])
    except ValueError:
        return None


def _check_point(group: list[dict]) -> tuple[str, float, float]:
    """(reason the point fails or '', defect, discrepancy) for one point's rows.

    A point gives a closed and a numeric row with one shared discrepancy,
    or a single numeric row flagged as a resonance fallback.
    """
    try:
        return _check_rows(group)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed row: {exc!r}", 0.0, 0.0


def _check_rows(group: list[dict]) -> tuple[str, float, float]:
    methods = [r["method"] for r in group]
    flags = [int(r["resonance_flag"]) for r in group]
    if not ((methods == ["closed", "numeric"] and flags == [0, 0]) or (methods == ["numeric"] and flags == [1])):
        return f"rows {list(zip(methods, flags))}", 0.0, 0.0
    values = [float(r[c]) for r in group for c in COLUMNS[3:10]]
    if not all(math.isfinite(v) for v in values):
        return "non-finite amplitude", 0.0, 0.0
    gaps = {r["discrepancy"] for r in group}
    if len(group) == 2 and (len(gaps) != 1 or "" in gaps):
        return f"discrepancy fields {sorted(map(str, gaps))}", 0.0, 0.0
    # tolerances apply to the reported and to the recomputed values alike
    amps = [
        (complex(float(r["re_R"]), float(r["im_R"])), complex(float(r["re_T"]), float(r["im_T"])))
        for r in group
    ]
    defect = max(
        max(float(r["defect"]), abs(abs(R) ** 2 + abs(T) ** 2 - 1.0))
        for r, (R, T) in zip(group, amps)
    )
    discrepancy = 0.0
    if len(group) == 2:
        (rc, tc), (rn, tn) = amps
        discrepancy = max(float(group[0]["discrepancy"]), abs(rc - rn), abs(tc - tn))
    if defect > DEFECT_TOL or discrepancy > DISCREPANCY_TOL:
        return f"tolerance: defect {defect:.2e}, discrepancy {discrepancy:.2e}", defect, discrepancy
    return "", defect, discrepancy


def _guards(n: int) -> list[float]:
    """Angles in (0, pi) where sin or cos of N phi or (N+1) phi vanishes."""
    return [j * math.pi / (2 * m) for m in (n, n + 1) for j in range(1, 2 * m)]


def _strata(rng: random.Random, count: int) -> list[float]:
    """`count` values in [0, 1), one in each of `count` equal bins, shuffled."""
    values = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(values)
    return values


def edge_inputs(seed: int):
    """Seeded points near phi = 0, phi = pi and the resonance guards, plus probes.

    Equal counts per (N, region) stratum keep the mix of costs and of
    failure-prone regions the same for every seed.  Within a stratum,
    1 - |g| runs log-evenly from 1 down to 1e-9 and the distance to the edge
    or guard log-evenly from 1e-4 down to 1e-12, each drawn once per equal
    bin (Latin hypercube), so the failure share varies little between seeds.
    """
    rng = random.Random(seed)
    points = []
    for n in EDGE_N:
        regions = ("zero", "pi", "guard") if n >= 1 else ("zero", "pi")
        guards = _guards(n) if n >= 1 else []
        for region in regions:
            g_bins = _strata(rng, EDGE_PER_STRATUM)
            d_bins = _strata(rng, EDGE_PER_STRATUM)
            for u, v in zip(g_bins, d_bins):
                g = rng.choice((-1.0, 1.0)) * (1.0 - 10.0 ** (-9.0 * u))
                d = 10.0 ** (-4.0 - 8.0 * v)
                if region == "zero":
                    phi = d
                elif region == "pi":
                    phi = math.pi - d
                else:
                    phi = rng.choice(guards) + rng.choice((-1.0, 1.0)) * d
                points.append((g, n, phi))
    rng.shuffle(points)
    probes = [rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.95) for _ in range(EDGE_PROBES)]
    return points, probes


class Edge(Workload):
    def __init__(self, seed: int) -> None:
        self.inputs, self.probes = edge_inputs(seed)
        self.points = len(self.inputs) + len(self.probes) * len(PROBE_HS)

    def run(self):
        answers = []
        for g, n, phi in self.inputs:
            try:
                answers.append(sweeps.evaluate_point(TwoCenterSpec(g, n), phi, "both"))
            except QhScatterError as exc:  # a documented refusal; the point fails
                answers.append(("refused", repr(exc)))
            except Exception as exc:  # anything else is an incorrect output
                answers.append(("unexpected", repr(exc)))
        probes = []
        for g in self.probes:
            try:
                probes.append(scattering.continuum_probe(g, PROBE_KAPPA, PROBE_HS))
            except Exception as exc:
                probes.append(("error", repr(exc)))
        return answers, probes

    def check(self, output):
        answers, probes = output
        failed, problems = 0, []
        defect = discrepancy = 0.0
        refused = out_of_tolerance = 0
        for (g, n, phi), answer in zip(self.inputs, answers):
            if isinstance(answer, tuple):
                failed += 1
                if answer[0] == "refused":
                    refused += 1
                else:
                    problems.append(f"g={g!r} N={n} phi={phi!r}: {answer[1]}")
                continue
            rows = [{c: ("" if r[c] is None else r[c]) for c in COLUMNS} for r in answer]
            bad, d, q = _check_point(rows)
            defect, discrepancy = max(defect, d), max(discrepancy, q)
            if bad:
                failed += 1
                if bad.startswith("tolerance"):
                    out_of_tolerance += 1
                else:
                    problems.append(f"g={g!r} N={n} phi={phi!r}: {bad}")
        for g, probe in zip(self.probes, probes):
            reason = _probe_problem(probe)
            if reason:
                failed += len(PROBE_HS)
                problems.append(f"probe g={g!r}: {reason}")
        digest = hashlib.sha256()
        for item in (*answers, *probes):
            digest.update(repr(item).encode())
        stats = {
            "max_defect": defect,
            "max_discrepancy": discrepancy,
            "refused": refused,
            "out_of_tolerance": out_of_tolerance,
        }
        return failed, stats, problems, digest.hexdigest()


def _probe_problem(probe) -> str:
    if isinstance(probe, tuple):
        return probe[1]
    if len(probe.rows) != len(PROBE_HS):
        return f"{len(probe.rows)} rows"
    for label, value in (("t_exponent", probe.t_exponent), ("psi0_exponent", probe.psi0_exponent)):
        if not 0.9 <= value <= 1.1:
            return f"{label} {value!r} outside [0.9, 1.1]"
    if not probe.max_closed_numeric_gap <= DISCREPANCY_TOL:
        return f"closed-numeric gap {probe.max_closed_numeric_gap!r}"
    return ""


def make_workload(name: str, seed: int, out_dir: Path) -> Workload:
    if name == "verify":
        return Verify()
    if name in SWEEPS:
        return Sweep(name, out_dir)
    return Edge(seed)


def timed_passes(workload: Workload, seconds: float) -> list[tuple[float, float, float, tuple]]:
    """Run passes until `seconds` have elapsed (at least one); check each one.

    Returns (start, wall, scaled wall, check result) per pass; only run()
    is timed, between two machine-speed samples.
    """
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        before = calibration.speed_sample()
        t0 = perf_counter()
        output = workload.run()
        wall = perf_counter() - t0
        after = calibration.speed_sample()
        passes.append((t0, wall, calibration.scaled(wall, before, after), workload.check(output)))
        del output  # keep one pass's results alive at a time
    return passes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", *SWEEPS, "edge"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()

    workload = make_workload(args.workload, args.seed, args.out_dir)
    tracer, traced_wall, absent, spans = tracing.Tracer(), [], [], []
    if args.trace:
        untraced = timed_passes(workload, args.seconds / 2)
        restore, absent = tracing.install(tracer)
        try:
            traced = timed_passes(workload, args.seconds / 2)
        finally:
            tracing.uninstall(restore)
        traced_wall = [w for _, _, w, _ in traced]
        first_end = traced[0][0] + traced[0][1]
        spans = [s for s in tracer.spans if s[1] < first_end]
        passes = untraced + traced
    else:
        passes = timed_passes(workload, args.seconds)
        untraced = passes

    failed, stats, problems, digest = passes[0][3]
    problems = list(problems)
    for *_, (f, _, p, d) in passes[1:]:
        failed = max(failed, f)
        problems += [x for x in p if x not in problems]
        if d != digest and "output differs between passes" not in problems:
            problems.append("output differs between passes")
    result = {
        "points": workload.points,
        "failed": failed,
        "problems": problems[:50],
        "n_problems": len(problems),
        "stats": stats,
        "raw_wall_s": [w for _, w, _, _ in untraced],
        "wall_s": [w for _, _, w, _ in untraced],
        "traced_wall_s": traced_wall,
        "span_totals": tracer.totals,
        "counters": tracer.counters,
        "absent_hooks": absent,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "qhscatter_file": qhscatter.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": sys.modules["scipy"].__version__ if "scipy" in sys.modules else None,
        },
    }
    if spans:
        (args.out_dir / f"spans-{args.workload}.json").write_text(
            json.dumps(spans, separators=(",", ":"))
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
