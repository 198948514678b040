"""Command-line front end.

Subcommands: amplitudes (one evaluation), sweep (grid to CSV/JSON),
verify (built-in residual/unitarity/agreement suites), probe-continuum
(opaque-wall trend table).  Exit codes: 0 success, 1 verification failure,
2 usage or validation error, 3 resonant angle with method=closed, 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import sys

from .errors import QhScatterError, ResonanceError, ResonantAngleError
from .potentials import ChainSpec, MultiCenterSpec, TwoCenterSpec
from .scattering import continuum_probe
from .sweeps import (
    DEFAULT_PHI_COUNT,
    SweepConfig,
    closed_vs_numeric_suite,
    evaluate_point,
    metric_suite,
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

# glibc mallopt(3) parameters and the values set by _keep_freed_heap
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 2 << 20
_TRIM_THRESHOLD_BYTES = 8 << 20


@functools.cache
def _keep_freed_heap() -> None:
    """Let glibc keep freed heap memory instead of returning it to the kernel.

    A numeric point at N = 8000 allocates and frees about 1.5 MB of arrays.
    With glibc's default thresholds the freed memory goes back to the
    kernel after every point and the next point faults it in again: a
    240-point sweep at N up to 8000 took 37,000 to 65,000 page faults per
    run, a quarter of its wall time in the kernel, and that share varied
    with the load on the machine.  Blocks under 2 MB (every array of a
    point up to N of about 20,000) now come from the heap, which keeps up
    to 8 MB free; larger blocks, such as a rendered table, still go back
    to the kernel when freed, so peak memory stays where it was.  Does
    nothing where the C library has no mallopt.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok != "")

def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok != "")

def _chain_grid(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(_floats(group) for group in text.split(";") if group != "")


def _phi_grid_spec(text: str) -> tuple[int, float | None, float | None]:
    parts = text.split(":")
    if len(parts) == 1:
        return int(parts[0]), None, None
    if len(parts) == 3:
        return int(parts[0]), float(parts[1]), float(parts[2])
    raise ValueError("--phi-grid expects COUNT or COUNT:MIN:MAX")


def _build_spec(args):
    if args.model == "two-center":
        if args.g is None or args.N is None:
            raise QhScatterError("two-center model needs --g and --N")
        return TwoCenterSpec(args.g[0], args.N[0])
    if args.model == "chain":
        if not args.couplings:
            raise QhScatterError("chain model needs --couplings a,b,...")
        return ChainSpec(args.couplings[0])
    if args.model == "multi-center":
        if not args.centers or args.g is None:
            raise QhScatterError("multi-center model needs --centers and --g")
        return MultiCenterSpec(args.centers, (args.g[0],) * len(args.centers))
    raise QhScatterError(f"unknown model {args.model!r}")


def cmd_amplitudes(args) -> int:
    spec = _build_spec(args)
    method = args.method
    if method is None:
        method = "both" if isinstance(spec, TwoCenterSpec) else "numeric"
    records = evaluate_point(spec, args.phi, method, resonance_fallback=False)
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
    count, lo, hi = args.phi_grid if args.phi_grid else (DEFAULT_PHI_COUNT, None, None)
    if args.model == "chain":
        couplings: tuple = args.couplings if args.couplings else ()
    else:
        couplings = args.g if args.g is not None else ()
    method = args.method
    if method is None:
        method = "both" if args.model == "two-center" else "numeric"
    config = SweepConfig(
        model=args.model,
        couplings=couplings,
        n_values=args.N if args.N is not None else (),
        phi_count=count,
        phi_min=lo,
        phi_max=hi,
        method=method,
        fmt=args.format,
        centers=args.centers if args.centers else (),
    )
    records = sweep_records(config)
    write_table(records, args.format, args.out)
    print(f"wrote {len(records)} rows to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    def tol(default: float) -> float:
        return args.tolerance if args.tolerance is not None else default

    checks = []
    run_all = args.suite == "all"
    if args.suite == "metric" or run_all:
        kwargs = dict(tolerance_two_center=tol(1e-14), tolerance_chain=tol(1e-13))
        if args.model == "chain":
            kwargs.update(g_grid=(), n_grid=())
            if args.couplings:
                kwargs.update(chain_specs=args.couplings)
        elif args.model == "two-center":
            kwargs.update(chain_specs=())
        checks += metric_suite(**kwargs)
    if args.suite == "unitarity" or run_all:
        checks += unitarity_suite(tolerance=tol(1e-11))
    if args.suite == "closed-vs-numeric" or run_all:
        checks += closed_vs_numeric_suite(tolerance=tol(1e-10))
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
    if args.g is None:
        raise QhScatterError("--g required")
    g = args.g[0]
    if g == 0.0:
        raise QhScatterError("free model has no wall limit (g must be nonzero)")
    if args.h_list:
        hs = list(args.h_list)
    else:
        hs = [args.h_start / 2**i for i in range(args.halvings + 1)]
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
    _keep_freed_heap()
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except ResonantAngleError as exc:
        print(f"resonant angle: {exc}; use --method numeric", file=sys.stderr)
        return EXIT_RESONANT
    except ResonanceError as exc:
        print(f"resonance: {exc}", file=sys.stderr)
        return EXIT_RESONANT
    except QhScatterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
