"""Command-line entry point dispatching to every verification pipeline.

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

# reference table for the Z-variable form of f_n, ascending coefficients
REFERENCE_FN_Z = {
    0: ([], ["1"]),
    1: (["1"], ["1"]),
    2: (["27", "1"], ["25", "1"]),
    3: (["648", "51", "1"], ["588", "49", "1"]),
    4: (["14520", "1807", "74", "1"], ["13068", "1701", "72", "1"]),
    5: (
        ["8281845", "1748643", "145744", "6012", "123", "1"],
        ["7422987", "1615471", "137940", "5808", "121", "1"],
    ),
}


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


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _length_list(text: str) -> list[int]:
    return [_odd_length(x) for x in text.split(",") if x]


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(x) for x in text.split(",") if x]


_QSOLVE_CHECKS = ("ddt", "qfc", "wronskian", "fn")


def _check_list(text: str) -> list[str]:
    names = [x for x in text.split(",") if x]
    unknown = [x for x in names if x not in _QSOLVE_CHECKS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown check {','.join(unknown)!r}; choose from {','.join(_QSOLVE_CHECKS)}"
        )
    return names


def _zeta_range(text: str) -> tuple[float, float, int]:
    try:
        a, b, steps = text.split(":")
        return float(a), float(b), int(steps)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected a:b:steps") from exc


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


def _jsonable(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


# -- subcommand handlers -------------------------------------------------

def _cmd_tau(args) -> int:
    from .taurec import TauTable

    table = TauTable()
    payload: dict = {}
    ok = True
    if args.check:
        table.ensure(-args.n_max - 1)
        table.ensure(args.n_max + 1)
        residuals_ok = all(
            table.recursion_residual(n, barred).is_zero()
            for n in range(-args.n_max, args.n_max + 1)
            for barred in (False, True)
        )
        xxz = table.xxz_check(args.n_max)
        zeros = table.zero_structure_check(args.n_max)
        ok = residuals_ok and xxz["ok"] and zeros["ok"]
        payload = {
            "recursion_residuals_zero": residuals_ok,
            "xxz_specialization": xxz,
            "zero_structure": zeros,
            "ok": ok,
        }
    else:
        payload = {"entries": table.dump(args.n_min, args.n_max)}
    _emit(payload, args)
    return 0 if ok else 1


def _cmd_fn(args) -> int:
    from .corrfn import f_in_Z, f_zeta
    from .exactcore import ratfunc_to_json

    f = f_in_Z(args.n) if args.variable == "Z" else f_zeta(args.n)
    _emit(ratfunc_to_json(f), args)
    return 0


def _cmd_corr(args) -> int:
    from .corrfn import correlations, sum_rule_residual

    tri = correlations(args.n, args.zeta)
    res = sum_rule_residual(tri, args.zeta)
    payload = {
        "n": args.n,
        "zeta": str(args.zeta),
        "cx": str(tri.cx),
        "cy": str(tri.cy),
        "cz": str(tri.cz),
        "sum_rule_residual": str(res),
    }
    _emit(payload, args)
    return 0 if res == 0 else 1


def _cmd_ed_verify(args) -> int:
    from .edoracle import ed_verify

    report = ed_verify(
        Ls=args.L,
        zetas=args.zeta_grid,
        transfer=args.transfer,
        f_tol=args.f_tol,
        energy_tol=args.energy_tol,
        spread_tol=args.spread_tol,
    )
    _emit(report, args)
    return 0 if report["ok"] else 1


def _cmd_pvi_verify(args) -> int:
    from .pvi import pvi_verify

    report = pvi_verify(args.n_max)
    _emit(report, args)
    return 0 if report["ok"] else 1


def _cmd_theta_suite(args) -> int:
    from .thetanum import LEMMA_RESIDUALS, identity_suite

    res = identity_suite(args.tau, seed=args.seed)
    bounds = {name: (1e-10 if name in LEMMA_RESIDUALS else args.tolerance) for name in res}
    ok = all(res[name] < bounds[name] for name in res)
    payload = {
        "tau_im": args.tau.imag,
        "seed": args.seed,
        "residuals": dict(sorted(res.items())),
        "ok": ok,
    }
    _emit(payload, args)
    return 0 if ok else 1


def _cmd_finf(args) -> int:
    from .thetanum import baxter_f_infinity

    rep = baxter_f_infinity(args.tau)
    rep["ok"] = rep["diff"] < args.tolerance
    _emit(rep, args)
    return 0 if rep["ok"] else 1


def _cmd_qsolve(args) -> int:
    import numpy as np

    from .corrfn import f_zeta
    from .qsolver import (
        ddt_check,
        f_from_q,
        functional_equation_residual,
        qfc_check,
        solve_q,
        wronskian_checks,
    )
    from .thetanum import PI, modular_values

    checks = args.check or _QSOLVE_CHECKS
    qc = solve_q(args.n, args.tau)
    payload: dict = {
        "n": args.n,
        "tau_im": args.tau.imag,
        "nullspace_gap": qc.nullspace_gap,
        "fresh_point_residual": functional_equation_residual(
            qc, np.linspace(0.17, PI - 0.13, 50)
        ),
    }
    ok = qc.nullspace_gap >= 1e6 and payload["fresh_point_residual"] < 1e-10
    if "wronskian" in checks:
        w = wronskian_checks(qc)
        payload["wronskian"] = {
            "max_relation_residual": w["max_relation_residual"],
            "third_point_instance_residual": w["third_point_instance_residual"],
        }
        ok = ok and w["ok"]
    if "ddt" in checks:
        d = ddt_check(qc)
        payload["ddt"] = {
            "alpha": d["alpha"],
            "beta": d["beta"],
            "residual": d["residual"],
            "beta_closed_residual": d["beta_closed_residual"],
        }
        ok = ok and d["ok"] and d["beta_closed_residual"] < 1e-7
    if "qfc" in checks:
        qf = qfc_check(qc)
        payload["qfc_residual"] = qf["residual"]
        ok = ok and qf["ok"]
    if "fn" in checks:
        fq = f_from_q(qc)
        fe = float(f_zeta(args.n).evaluate(modular_values(args.tau).zeta.real))
        payload["f_from_q"] = fq
        payload["f_exact"] = fe
        payload["f_bridge_residual"] = abs(fq - fe)
        ok = ok and payload["f_bridge_residual"] < 1e-6
    payload["ok"] = ok
    _emit(payload, args)
    return 0 if ok else 1


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
    from .corrfn import f_in_Z
    from .exactcore import ratfunc_to_json

    quick = args.quick
    summary = {}
    ok = True

    ns = argparse.Namespace(output=None, check=True,
                            n_max=5 if quick else 9, n_min=0)
    code = _run_silently(_cmd_tau, ns)
    summary["tau"] = code == 0
    ok = ok and code == 0

    table_ok = True
    for n, (num, den) in REFERENCE_FN_Z.items():
        got = ratfunc_to_json(f_in_Z(n))
        table_ok = table_ok and got["num"] == num and got["den"] == den
    summary["fn_table"] = table_ok
    ok = ok and table_ok

    ns = argparse.Namespace(
        output=None, L=[3, 5, 7] if quick else [3, 5, 7, 9, 11],
        zeta_grid=None, transfer=True, f_tol=1e-7, energy_tol=1e-10,
        spread_tol=1e-9,
    )
    from .edoracle import DEFAULT_ZETA_GRID

    ns.zeta_grid = DEFAULT_ZETA_GRID
    code = _run_silently(_cmd_ed_verify, ns)
    summary["ed_verify"] = code == 0
    ok = ok and code == 0

    ns = argparse.Namespace(output=None, n_max=3 if quick else 5)
    code = _run_silently(_cmd_pvi_verify, ns)
    summary["pvi_verify"] = code == 0
    ok = ok and code == 0

    taus = [1j] if quick else [0.5j, 1j, 2j]
    suite_ok = True
    for tau in taus:
        ns = argparse.Namespace(output=None, tau=tau, seed=args.seed, tolerance=1e-11)
        suite_ok = suite_ok and _run_silently(_cmd_theta_suite, ns) == 0
    summary["theta_suite"] = suite_ok
    ok = ok and suite_ok

    finf_ok = True
    for tau in ([1j] if quick else [0.6j, 1j, 1.5j, 2.5j]):
        ns = argparse.Namespace(output=None, tau=tau, tolerance=1e-9)
        finf_ok = finf_ok and _run_silently(_cmd_finf, ns) == 0
    summary["f_infinity"] = finf_ok
    ok = ok and finf_ok

    q_ok = True
    for n in range(3 if quick else 4):
        ns = argparse.Namespace(output=None, n=n, tau=1j, check=None)
        q_ok = q_ok and _run_silently(_cmd_qsolve, ns) == 0
    summary["qsolve"] = q_ok
    ok = ok and q_ok

    summary["ok"] = ok
    _emit(summary, args)
    return 0 if ok else 1


def _run_silently(handler, ns) -> int:
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()):
        return handler(ns)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="susyxyz",
        description="Verification pipelines for supersymmetric XYZ chain correlations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
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
    p.add_argument("--L", type=_length_list, default=[3, 5, 7, 9, 11])
    p.add_argument("--zeta-grid", type=_fraction_list, default=None)
    p.add_argument("--transfer", action="store_true")
    p.add_argument("--f-tol", type=float, default=1e-7)
    p.add_argument("--energy-tol", type=float, default=1e-10)
    p.add_argument("--spread-tol", type=float, default=1e-9)

    p = add("pvi-verify", _cmd_pvi_verify, help="symbolic Painleve VI certificates")
    p.add_argument("--n-max", type=_nonneg_int, default=5)

    p = add("theta-suite", _cmd_theta_suite, help="theta identity regression suite")
    p.add_argument("--tau", type=_tau_imag, default=1j)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-11)

    p = add("finf", _cmd_finf, help="series vs closed-form infinite-lattice limit")
    p.add_argument("--tau", type=_tau_imag, required=True)
    p.add_argument("--tolerance", type=float, default=1e-9)

    p = add("qsolve", _cmd_qsolve, help="solve the Q-eigenvalue and verify")
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.add_argument("--tau", type=_tau_imag, default=1j)
    p.add_argument("--check", type=_check_list, default=None,
                   help="comma list from ddt,qfc,wronskian,fn (default all)")

    p = add("plot-data", _cmd_plot_data, help="CSV of f_n curves and the limit")
    p.add_argument("--n", type=_int_list, default=[1, 2, 3, 4, 5])
    p.add_argument("--zeta-range", type=_zeta_range, default=(-6.0, 6.0, 600))

    p = add("verify-all", _cmd_verify_all, help="run every pipeline")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "ed-verify" and args.zeta_grid is None:
        from .edoracle import DEFAULT_ZETA_GRID

        args.zeta_grid = DEFAULT_ZETA_GRID
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
