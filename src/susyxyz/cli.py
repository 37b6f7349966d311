"""Command-line entry point dispatching to every verification pipeline.

The command only parses arguments and serializes reports: every verdict
and default belongs to the pipeline that computes it, so an omitted option
takes the pipeline's own default, and every pass/fail bound is a constant
of the module that owns the check, never an option.

Exit codes: 0 all embedded assertions passed, 1 at least one verification
failed (the JSON report carries the details), 2 usage error.  Output is
JSON (or CSV for plot data), deterministic for fixed arguments and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

__all__ = ["main"]

def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _nonneg_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return n


def _odd_length(text: str) -> int:
    # imported here: importing cli must not pull in numpy and scipy
    from .edoracle import L_MAX

    L = int(text)
    if L % 2 == 0 or not 3 <= L <= L_MAX:
        raise argparse.ArgumentTypeError(f"L must be odd with 3 <= L <= {L_MAX}, got {L}")
    return L


def _tau_imag(text: str) -> complex:
    im = float(text)
    if im <= 0:
        raise argparse.ArgumentTypeError("tau imaginary part must be positive")
    return complex(0.0, im)


def _items(item, text: str) -> list:
    """The comma-separated values of a list option, each read by ``item``;
    an empty list is a usage error, as it would run nothing."""
    values = [item(x) for x in text.split(",") if x]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _nonneg_int_list(text: str) -> list[int]:
    return _items(_nonneg_int, text)


def _length_list(text: str) -> list[int]:
    return _items(_odd_length, text)


def _fraction_list(text: str) -> list[Fraction]:
    return _items(_fraction, text)


def _zeta_range(text: str) -> tuple[float, float, int]:
    try:
        a, b, steps = text.split(":")
        a, b, steps = float(a), float(b), int(steps)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected a:b:steps") from exc
    if steps < 1:
        raise argparse.ArgumentTypeError(f"steps must be >= 1, got {steps}")
    return a, b, steps


def _resolve_output(path: str) -> str:
    import os

    base = os.environ.get("SUSYXYZ_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(payload, args):
    text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable)
    if args.output:
        with open(_resolve_output(args.output), "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _verdict(report: dict, args) -> int:
    _emit(report, args)
    return 0 if report["ok"] else 1


def _given(args, *names) -> dict:
    """The named options that were given, as keyword arguments: an omitted
    one is left to the pipeline's default."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _jsonable(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


# -- subcommand handlers -------------------------------------------------

def _cmd_tau(args) -> int:
    from .taurec import default_table

    if args.n_min > args.n_max:
        raise argparse.ArgumentTypeError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    if args.check and args.n_max < 0:
        raise argparse.ArgumentTypeError(f"--check needs --n-max >= 0, got {args.n_max}")
    table = default_table()
    if args.check:
        return _verdict(table.check(args.n_max), args)
    _emit({"entries": table.dump(args.n_min, args.n_max)}, args)
    return 0


def _cmd_fn(args) -> int:
    from .corrfn import f_in_Z, f_zeta
    from .exactcore import ratfunc_to_json

    f = f_in_Z(args.n) if args.variable == "Z" else f_zeta(args.n)
    _emit(ratfunc_to_json(f), args)
    return 0


def _cmd_corr(args) -> int:
    from .corrfn import correlation_report

    report, ok = correlation_report(args.n, args.zeta)
    _emit(report, args)
    return 0 if ok else 1


def _cmd_ed_verify(args) -> int:
    from .edoracle import ed_verify

    return _verdict(ed_verify(transfer=args.transfer, **_given(args, "Ls", "zetas")), args)


def _cmd_pvi_verify(args) -> int:
    from .pvi import pvi_verify

    return _verdict(pvi_verify(**_given(args, "n_max")), args)


def _cmd_theta_suite(args) -> int:
    from .thetanum import identity_report

    return _verdict(identity_report(args.tau, **_given(args, "seed")), args)


def _cmd_finf(args) -> int:
    from .thetanum import baxter_f_infinity

    return _verdict(baxter_f_infinity(args.tau), args)


def _cmd_qsolve(args) -> int:
    from .qsolver import qsolve_report

    return _verdict(qsolve_report(args.n, args.tau), args)


def _cmd_plot_data(args) -> int:
    from .corrfn import figure_rows

    zmin, zmax, steps = args.zeta_range
    rows = figure_rows(args.n, zmin, zmax, steps)
    header = "zeta," + ",".join(f"f_{n}" for n in args.n) + ",f_inf"
    lines = [header] + [",".join(repr(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(_resolve_output(args.output), "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify_all(args) -> int:
    from .corrfn import fn_table_matches
    from .edoracle import ed_verify
    from .pvi import pvi_verify
    from .qsolver import qsolve_report
    from .taurec import default_table
    from .thetanum import baxter_f_infinity, identity_report

    quick = args.quick
    summary = {
        "tau": default_table().check(5 if quick else 9)["ok"],
        "fn_table": fn_table_matches(),
        "ed_verify": ed_verify(Ls=[3, 5, 7] if quick else [3, 5, 7, 9, 11],
                               transfer=True)["ok"],
        "pvi_verify": pvi_verify(3 if quick else 5)["ok"],
        "theta_suite": all(identity_report(tau, **_given(args, "seed"))["ok"]
                           for tau in ([1j] if quick else [0.5j, 1j, 2j])),
        "f_infinity": all(baxter_f_infinity(tau)["ok"]
                          for tau in ([1j] if quick else [0.6j, 1j, 1.5j, 2.5j])),
        "qsolve": all(qsolve_report(n, 1j)["ok"] for n in range(3 if quick else 4)),
    }
    summary["ok"] = all(summary.values())
    return _verdict(summary, args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="susyxyz",
        description="Verification pipelines for supersymmetric XYZ chain correlations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        # a handler rejects a combination of values by ArgumentTypeError,
        # which main reports as this subcommand's usage error
        p.set_defaults(handler=handler, usage_error=p.error)
        p.add_argument("--output", help="write the report to this file instead of stdout")
        return p

    p = add("tau", _cmd_tau, help="dump or check the tau polynomial table")
    p.add_argument("--n-min", type=int, default=-9)
    p.add_argument("--n-max", type=int, default=9)
    p.add_argument("--check", action="store_true",
                   help="run recursion, XXZ and zero-structure checks")

    p = add("fn", _cmd_fn, help="emit f_n as exact JSON")
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.add_argument("--variable", choices=["zeta", "Z"], default="zeta")

    p = add("corr", _cmd_corr, help="exact correlation triple at rational zeta")
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.add_argument("--zeta", type=_fraction, required=True)

    p = add("ed-verify", _cmd_ed_verify, help="diagonalization cross-check")
    p.add_argument("--L", dest="Ls", type=_length_list)
    p.add_argument("--zeta-grid", dest="zetas", type=_fraction_list)
    p.add_argument("--transfer", action="store_true")

    p = add("pvi-verify", _cmd_pvi_verify, help="symbolic Painleve VI certificates")
    p.add_argument("--n-max", type=_nonneg_int)

    p = add("theta-suite", _cmd_theta_suite, help="theta identity regression suite")
    p.add_argument("--tau", type=_tau_imag, default=1j)
    p.add_argument("--seed", type=int)

    p = add("finf", _cmd_finf, help="series vs closed-form infinite-lattice limit")
    p.add_argument("--tau", type=_tau_imag, required=True)

    p = add("qsolve", _cmd_qsolve, help="solve the Q-eigenvalue and verify")
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.add_argument("--tau", type=_tau_imag, default=1j)

    p = add("plot-data", _cmd_plot_data, help="CSV of f_n curves and the limit")
    p.add_argument("--n", type=_nonneg_int_list, default=[1, 2, 3, 4, 5])
    p.add_argument("--zeta-range", type=_zeta_range, default=(-6.0, 6.0, 600))

    p = add("verify-all", _cmd_verify_all, help="run every pipeline")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except argparse.ArgumentTypeError as exc:
        args.usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
