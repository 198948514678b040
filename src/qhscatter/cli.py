"""Command-line front end.

Subcommands: amplitudes (one evaluation), sweep (grid to CSV/JSON),
verify (built-in residual/unitarity/agreement suites), probe-continuum
(opaque-wall trend table).  Exit codes: 0 success, 1 verification failure,
2 usage or validation error, 3 the numeric route's ResonanceError (a
singular matching system or a failed self-check; the closed form answers
every angle), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import QhScatterError, ResonanceError
from .scattering import continuum_probe
from .sweeps import (
    DEFAULT_PHI_COUNT,
    closed_vs_numeric_suite,
    evaluate_point,
    metric_suite,
    phi_grid,
    scatterer_specs,
    suite_scores,
    sweep_records,
    unitarity_suite,
    write_table,
    _fmt,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESONANT = 3
EXIT_IO = 4

def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))

def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))

def _chain_grid(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(_floats(group) for group in text.split(";"))


def _phi_grid_spec(text: str) -> tuple[int, float | None, float | None]:
    parts = text.split(":")
    if len(parts) == 1:
        return int(parts[0]), None, None
    if len(parts) == 3:
        return int(parts[0]), float(parts[1]), float(parts[2])
    raise ValueError("--phi-grid expects COUNT or COUNT:MIN:MAX")


# the grid flags each model reads; --couplings holds chain vectors, --g block couplings
_MODEL_FLAGS = {"two-center": ("g", "N"), "chain": ("couplings",), "multi-center": ("g", "centers")}


def _grid(args) -> dict:
    """The scatterer grid that --model, --g/--couplings, --N and --centers describe.

    A grid flag the model does not read is a usage error, not dropped.
    """
    unread = [f"--{flag}" for flag in ("g", "couplings", "N", "centers")
              if flag not in _MODEL_FLAGS[args.model] and getattr(args, flag) is not None]
    if unread:
        raise QhScatterError(f"--model {args.model} does not read {', '.join(unread)}")
    return dict(
        model=args.model,
        couplings=(args.couplings if args.model == "chain" else args.g) or (),
        n_values=args.N or (),
        centers=args.centers or (),
    )


def _one_spec(grid: dict):
    """The only scatterer of the grid; more than one is a usage error."""
    specs = scatterer_specs(**grid)
    if len(specs) != 1:
        raise QhScatterError(f"this command takes one scatterer, the flags give {len(specs)}")
    return specs[0]


def _method(args) -> str:
    """--method; by default both for the two-center model, else numeric."""
    if args.method is not None:
        return args.method
    return "both" if args.model == "two-center" else "numeric"


def cmd_amplitudes(args) -> int:
    spec = _one_spec(_grid(args))
    records = evaluate_point(spec, args.phi, _method(args))
    for row in records:
        bits = [f"{key}={_fmt(row[key])}" for key in
                ("method", "re_R", "im_R", "re_T", "im_T", "abs_R2", "abs_T2", "defect")]
        print(" ".join(bits))
    if len(records) == 2 and records[0]["discrepancy"] is not None:
        print(f"max_discrepancy={_fmt(records[0]['discrepancy'])}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.out is None:
        raise QhScatterError("--out required for sweep")
    grid = _grid(args)
    phis = phi_grid(*(args.phi_grid or (DEFAULT_PHI_COUNT,)))
    table = sweep_records(scatterer_specs(**grid), phis, _method(args))
    write_table(table, args.format, args.out)
    print(f"wrote {len(table['phi'])} rows to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    def tol(default: float) -> float:
        return args.tolerance if args.tolerance is not None else default

    if args.tolerance is not None and not args.tolerance >= 0.0:
        raise QhScatterError(f"--tolerance {args.tolerance!r} must be a number >= 0")
    if args.couplings and args.model == "two-center":
        raise QhScatterError("--couplings sets the metric suite's chains; --model two-center has none")
    if (args.couplings or args.model == "chain") and args.suite in ("unitarity", "closed-vs-numeric"):
        raise QhScatterError(f"--suite {args.suite} checks the two-center grid; chains enter the metric suite")
    checks = []
    run_all = args.suite == "all"
    if args.suite == "metric" or run_all:
        kwargs = dict(tolerance_two_center=tol(1e-14), tolerance_chain=tol(1e-13))
        if args.model == "chain":
            kwargs.update(g_grid=(), n_grid=())
        elif args.model == "two-center":
            kwargs.update(chain_specs=())
        if args.couplings:
            kwargs.update(chain_specs=args.couplings)
        checks += metric_suite(**kwargs)
    if args.suite in ("unitarity", "closed-vs-numeric") or run_all:
        scores = suite_scores()  # each point evaluated once for both amplitude suites
    if args.suite == "unitarity" or run_all:
        checks += unitarity_suite(scores, tol(1e-11))
    if args.suite == "closed-vs-numeric" or run_all:
        checks += closed_vs_numeric_suite(scores, tol(1e-10))
    ok = True
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(
            f"suite={c.suite} check={c.label} max={c.max_value:.3e} "
            f"tolerance={c.tolerance:.1e} worst=[{c.worst_point}] {status}"
        )
        ok = ok and c.passed
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_probe_continuum(args) -> int:
    g = _one_spec(dict(model="two-center", couplings=args.g, n_values=(-1,))).g
    if g == 0.0:
        raise QhScatterError("free model has no wall limit (g must be nonzero)")
    if args.h_list:
        hs = list(args.h_list)
    else:
        if not 0.0 < args.h_start < math.inf:  # NaN included
            raise QhScatterError(f"--h-start {args.h_start!r} must be positive and finite")
        # ldexp(h, -i) has the bits of h / 2**i wherever 2**i is a double, and never overflows
        if not (args.halvings >= 1 and math.ldexp(args.h_start, -args.halvings) > 0.0):
            raise QhScatterError(
                f"--halvings {args.halvings} must be at least 1 and keep h_start / 2**halvings a positive double"
            )
        # the last angle, kappa * h, must be a normal double; a bad kappa is continuum_probe's to name
        phi = args.kappa * math.ldexp(args.h_start, -args.halvings)
        if args.kappa > 0.0 and phi < sys.float_info.min:
            raise QhScatterError(
                f"--halvings {args.halvings} with --h-start {args.h_start!r} takes kappa*h to {phi!r},"
                f" below the smallest normal double {sys.float_info.min!r}"
            )
        hs = [math.ldexp(args.h_start, -i) for i in range(args.halvings + 1)]
    result = continuum_probe(g, args.kappa, hs)
    lines = ["h,phi,abs_T,abs_R,abs_psi0"]
    for row in result.rows:
        lines.append(
            ",".join(_fmt(v) for v in (row.h, row.phi, row.abs_T, row.abs_R, row.abs_psi0))
        )
    lines.append(f"# t_exponent={_fmt(result.t_exponent)}")
    lines.append(f"# psi0_exponent={_fmt(result.psi0_exponent)}")
    lines.append(f"# max_closed_numeric_gap={_fmt(result.max_closed_numeric_gap)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote probe table to {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhscatter",
        description="Lattice scattering amplitudes for quasi-Hermitian point interactions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--model", choices=("two-center", "chain", "multi-center"),
                       default="two-center")
        p.add_argument("--g", type=_floats, help="coupling (comma list for sweep grids)")
        p.add_argument("--couplings", type=_chain_grid,
                       help="chain couplings a,b,c (';'-separated vectors for sweep grids)")
        p.add_argument("--N", type=_ints, help="block separation (comma list for sweep grids)")
        p.add_argument("--centers", type=_ints, help="multi-center block centers c1,c2,...")
        p.add_argument("--method", choices=("closed", "numeric", "both"), default=None)

    p_amp = sub.add_parser("amplitudes", help="evaluate R, T at one angle")
    add_common(p_amp)
    p_amp.add_argument("--phi", type=float, required=True)
    p_amp.set_defaults(func=cmd_amplitudes)

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter grid into a table file")
    add_common(p_sweep)
    p_sweep.add_argument("--phi-grid", type=_phi_grid_spec, metavar="COUNT[:MIN:MAX]")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", type=str)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the built-in verification suites")
    p_verify.add_argument("--suite", choices=("metric", "unitarity", "closed-vs-numeric", "all"),
                          default="all")
    p_verify.add_argument("--tolerance", type=float, default=None)
    p_verify.add_argument("--model", choices=("two-center", "chain"), default=None)
    p_verify.add_argument("--couplings", type=_chain_grid, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_probe = sub.add_parser("probe-continuum", help="opaque-wall trend table at N=-1")
    p_probe.add_argument("--g", type=_floats, required=True)
    p_probe.add_argument("--kappa", type=float, default=1.0)
    p_probe.add_argument("--h-start", type=float, default=0.2)
    p_probe.add_argument("--halvings", type=int, default=6)
    p_probe.add_argument("--h-list", type=_floats, default=None,
                         help="explicit decreasing h sequence (overrides start/halvings)")
    p_probe.add_argument("--out", type=str, default=None)
    p_probe.set_defaults(func=cmd_probe_continuum)
    return parser


_VALUE_FLAGS = {"--g", "--N", "--centers", "--couplings", "--phi", "--h-list", "--kappa"}


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join flag/value pairs whose value starts with a minus sign.

    argparse mistakes '-1,0,2' for an option string; '--N=-1,0,2' is
    unambiguous, so rewrite to that form.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except ResonanceError as exc:
        print(f"resonance: {exc}", file=sys.stderr)
        return EXIT_RESONANT
    except QhScatterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a grid too large to hold
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
