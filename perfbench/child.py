"""One cold run of one workload, in its own process.

    PYTHONPATH=src python3 perfbench/child.py --workload exact-certify --seed 0

Imports the workload's modules, then runs the timed section from "ready"
to "all checks evaluated" and prints one JSON line: the ready time
(``time.monotonic``, comparable with the parent's clock), the wall time,
the check counts, the result digests and the peak RSS.  With ``--trace 1``
the line also carries the spans and the per-layer sizes, and layer probes
run after the timed section.  With ``--setup-only`` the process stops once
the imports are done.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time

from checks import Checks, digest
from inputs import WORKLOADS, inputs_for
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

IMPORTS = {
    "exact-certify": ["susyxyz.exactcore", "susyxyz.taurec", "susyxyz.corrfn", "susyxyz.pvi"],
    "ed-oracle": ["susyxyz.exactcore", "susyxyz.taurec", "susyxyz.corrfn", "susyxyz.edoracle"],
    "q-sweep": ["susyxyz.exactcore", "susyxyz.taurec", "susyxyz.corrfn", "susyxyz.thetanum",
                "susyxyz.qsolver"],
    "verify-all": ["susyxyz.cli"],
}

# float-check bounds, the same values the CLI and the acceptance tests use
ED_ENERGY_TOL, ED_F_TOL, ED_SPREAD_TOL = 1e-10, 1e-7, 1e-9
TRANSFER_EIG_TOL, TRANSFER_COMM_TOL = 1e-8, 1e-9
Q_GAP_MIN, Q_FE_TOL, Q_CHECK_TOL, Q_BRIDGE_TOL = 1e6, 1e-10, 1e-7, 1e-6
Q_WRONSKIAN_TOL = 1e-8
SUITE_TOL, SUITE_LEMMA_TOL = 1e-11, 1e-10
SUITE_LEMMAS = {"coupling_combination_product", "eta_derivative_determinant",
                "taylor_combination", "prefactor_chain"}
BAXTER_TOL = 1e-9

#: q-sweep checks that exceed their bounds today at n >= 5, worst at small
#: Im(tau): the Q pipeline loses precision as n grows (ROADMAP item 5).  They
#: are counted as failed; only a failure outside this set makes a run
#: incorrect.
Q_KNOWN_FAILING = ("fe_residual", "wronskian", "ddt", "ddt_beta", "qfc")
Q_KNOWN_N_MIN = 5


def _q_known(name: str) -> bool:
    # names look like "q[t=0.5123,n=7].qfc"
    head, _, kind = name.partition("].")
    if kind not in Q_KNOWN_FAILING or ",n=" not in head:
        return False
    return int(head.rsplit("n=", 1)[1]) >= Q_KNOWN_N_MIN


def _load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def check_digests(ck: Checks, got: dict, want: dict):
    """A result whose digest differs from the recorded one is a failed check."""
    for name, digest_ in sorted(want.items()):
        ck.exact(f"digest.{name}", got.get(name) == digest_)


def _digits(p) -> int:
    return max((max(len(str(abs(c.numerator))), len(str(c.denominator))) for c in p.coeffs),
               default=0)


# -- workloads ------------------------------------------------------------

def exact_certify(inp, tr, ck, out, expected):
    from susyxyz import corrfn, pvi, taurec
    from susyxyz.exactcore import ratfunc_to_json

    N = inp["tau_n_max"]
    table = taurec.default_table()
    with ck.guard("tau"):
        with tr.span("taurec.ensure"):
            table.ensure(-N - 1)
            table.ensure(N + 1)
        for n in range(-N, N + 1):
            for barred in (False, True):
                with tr.span("taurec.residual"):
                    zero = table.recursion_residual(n, barred).is_zero()
                ck.exact(f"tau.residual[n={n},barred={barred}]", zero)
        with tr.span("taurec.checks"):
            xxz = table.xxz_check(N)
            zeros = table.zero_structure_check(N)
        ck.exact("tau.xxz", xxz["ok"])
        ck.exact("tau.zero_structure", zeros["ok"])
        with tr.span("taurec.dump"):
            entries = table.dump(-N, N)
        out["digests"]["tau_table"] = digest(entries)
        out["sizes"]["taurec.max_degree"] = max(
            max(table.s(n).degree, table.sbar(n).degree) for n in range(-N, N + 1))
        out["sizes"]["taurec.max_digits"] = max(
            max(_digits(table.s(n)), _digits(table.sbar(n))) for n in range(-N, N + 1))

    nmax = inp["fn_n_max"]
    with ck.guard("fn"):
        for n in range(nmax + 1):
            with tr.span("corrfn.f_zeta", n=n):
                corrfn.f_zeta(n)
        fz_json = []
        for n in range(nmax + 1):
            with tr.span("corrfn.f_in_Z", n=n):
                fZ = corrfn.f_in_Z(n)
            fz_json.append(ratfunc_to_json(fZ))
        out["sizes"]["corrfn.f_in_Z_solves"] = max(fZ.num.degree, fZ.den.degree) + 1
        for n in range(nmax + 1):
            with ck.guard(f"fn.certificate[n={n}]"):
                with tr.span("corrfn.certificate", n=n):
                    corrfn.fn_pair(n)
                ck.exact(f"fn.certificate[n={n}]", True)
        for n, (num, den) in enumerate(expected["reference_f_in_Z"]):
            ck.exact(f"fn.reference[n={n}]",
                     fz_json[n]["num"] == num and fz_json[n]["den"] == den)
        out["digests"]["f_in_Z"] = digest(fz_json)

    for n in inp["corr_ns"]:
        for zeta in inp["corr_zetas"]:
            with ck.guard(f"corr[n={n},zeta={zeta}]"):
                with tr.span("corrfn.correlations", n=n):
                    res = corrfn.sum_rule_residual(corrfn.correlations(n, zeta), zeta)
                ck.exact(f"corr[n={n},zeta={zeta}].sum_rule", res == 0)

    residual_strings = []
    with ck.guard("pvi"):
        for n in range(inp["pvi_n_max"] + 1):
            with tr.span("pvi.orbit", n=n):
                point = pvi.iterate_T(n)
            with tr.span("pvi.hamilton", n=n):
                r1, r2 = pvi.hamilton_residuals(point)
            with tr.span("pvi.bridge", n=n):
                fr = pvi.fpqp_residual(n)
            row = [r1, r2, fr]
            if n <= inp["ode_n_max"]:
                with tr.span("pvi.ode", n=n):
                    row.append(pvi.pvi_ode_residual(point))
            for k, r in enumerate(row):
                ck.exact(f"pvi[n={n}].residual{k}", r.is_zero())
            residual_strings.append([f"{r.num}/{r.den}" for r in row])
        with tr.span("pvi.factorization"):
            fact = pvi.factorization_check(range(inp["pvi_n_max"] + 1))
        ck.exact("pvi.factorization", fact["ok"])
        out["digests"]["pvi_residuals"] = digest(residual_strings)

    ck.exact("numpy_not_imported", "numpy" not in sys.modules)


def ed_oracle(inp, tr, ck, out, expected):
    from susyxyz import corrfn, edoracle, taurec

    all_Ls = [*inp["dense_Ls"], inp["sparse_L"]]
    n_max = (max(all_Ls) - 1) // 2
    with tr.span("taurec.ensure"):
        taurec.default_table().ensure(-n_max - 1)
        taurec.default_table().ensure(n_max)
    samples = [(L, z) for L in inp["dense_Ls"] for z in inp["dense_zetas"]]
    samples += [(inp["sparse_L"], z) for z in inp["sparse_zetas"]]
    f_exact = {}
    for L in all_Ls:
        n = (L - 1) // 2
        with tr.span("corrfn.f_zeta", n=n):
            fz = corrfn.f_zeta(n)
        with tr.span("corrfn.evaluate", n=n):
            for L2, zq in samples:
                if L2 == L:
                    f_exact[L, zq] = float(fz.evaluate(zq))

    gaps, dims = [], []
    for L, zq in samples:
        tag = f"ed[L={L},zeta={zq}]"
        with ck.guard(tag):
            z = float(zq)
            kind = "sparse" if L == inp["sparse_L"] else "dense"
            with tr.span(f"edoracle.ground_state_{kind}", L=L):
                state = edoracle.ground_state_even_sector(L, z)
            with tr.span("edoracle.correlations", L=L):
                (cx, cy, cz), _, spread = edoracle.measure_correlations(state)
            gaps.append(state.gap)
            dims.append(len(state.vector))
            s = z * z + 3.0
            fx = (1.0 - cx) * s / (1.0 - z) ** 2
            fy = (1.0 - cy) * s / (1.0 + z) ** 2
            fzv = (1.0 - cz) * s / 4.0
            e_exact = -L * s / 4.0
            ck.below(f"{tag}.energy", abs(state.energy - e_exact) / abs(e_exact), ED_ENERGY_TOL)
            agreement = max(abs(fx - fy), abs(fx - fzv), abs(fy - fzv),
                            abs(fzv - f_exact[L, zq]))
            ck.below(f"{tag}.f", agreement, ED_F_TOL)
            ck.below(f"{tag}.per_bond_spread", spread, ED_SPREAD_TOL)

    for tau in inp["transfer_taus"]:
        for L in inp["transfer_Ls"]:
            tag = f"transfer[L={L},tau_im={tau.imag}]"
            with ck.guard(tag):
                with tr.span("edoracle.transfer", L=L):
                    tc = edoracle.transfer_checks(L, tau)
                ck.below(f"{tag}.eigenvalue", tc["max_eigenvalue_residual"], TRANSFER_EIG_TOL)
                ck.below(f"{tag}.commutator", tc["commutator_residual"], TRANSFER_COMM_TOL)
    if gaps:
        out["sizes"]["edoracle.min_gap"] = min(gaps)
        out["sizes"]["edoracle.sector_dim"] = max(dims)


def q_sweep(inp, tr, ck, out, expected):
    import numpy as np

    from susyxyz import corrfn, qsolver, taurec, thetanum

    n_max = inp["n_max"]
    with tr.span("taurec.ensure"):
        taurec.default_table().ensure(-n_max - 1)
        taurec.default_table().ensure(n_max)
    fz = []
    for n in range(n_max + 1):
        with tr.span("corrfn.f_zeta", n=n):
            fz.append(corrfn.f_zeta(n))
    fresh = np.linspace(0.17, thetanum.PI - 0.13, 50)
    gaps, qfc = [], []
    for tau in inp["taus"]:
        tname = f"t={tau.imag:.4f}"
        with ck.guard(f"q[{tname}]"):
            with tr.span("thetanum.modular_values"):
                zeta = thetanum.modular_values(tau).zeta.real
            with tr.span("corrfn.evaluate"):
                f_exact = [float(f.evaluate(zeta)) for f in fz]
        for n in range(n_max + 1):
            tag = f"q[{tname},n={n}]"
            with ck.guard(tag):
                with tr.span("qsolver.solve", n=n):
                    qc = qsolver.solve_q(n, tau)
                gaps.append(qc.nullspace_gap)
                ck.at_least(f"{tag}.gap", qc.nullspace_gap, Q_GAP_MIN)
                with tr.span("qsolver.fe_residual", n=n):
                    fe = qsolver.functional_equation_residual(qc, fresh)
                ck.below(f"{tag}.fe_residual", fe, Q_FE_TOL)
                with tr.span("qsolver.wronskian", n=n):
                    w = qsolver.wronskian_checks(qc)
                ck.below(f"{tag}.wronskian",
                         max(w["max_relation_residual"], w["third_point_instance_residual"]),
                         Q_WRONSKIAN_TOL)
                with tr.span("qsolver.ddt", n=n):
                    d = qsolver.ddt_check(qc)
                ck.below(f"{tag}.ddt", d["residual"], Q_CHECK_TOL)
                ck.below(f"{tag}.ddt_beta", d["beta_closed_residual"], Q_CHECK_TOL)
                with tr.span("qsolver.qfc", n=n):
                    r = qsolver.qfc_check(qc)["residual"]
                qfc.append(r)
                ck.below(f"{tag}.qfc", r, Q_CHECK_TOL)
                with tr.span("qsolver.f_from_q", n=n):
                    fq = qsolver.f_from_q(qc)
                ck.below(f"{tag}.f_bridge", abs(fq - f_exact[n]), Q_BRIDGE_TOL)
        with ck.guard(f"suite[{tname}]"):
            with tr.span("thetanum.identity_suite"):
                res = thetanum.identity_suite(tau, seed=inp["suite_seed"])
            for name in sorted(res):
                bound = SUITE_LEMMA_TOL if name in SUITE_LEMMAS else SUITE_TOL
                ck.below(f"suite[{tname}].{name}", res[name], bound)
        with ck.guard(f"baxter[{tname}]"):
            with tr.span("thetanum.baxter"):
                b = thetanum.baxter_f_infinity(tau)
            ck.below(f"baxter[{tname}]", b["diff"], BAXTER_TOL)
    out["sizes"]["qsolver.checks_failed"] = sum(1 for f in ck.failed if f["name"].startswith("q["))
    if gaps:
        out["sizes"]["qsolver.min_nullspace_gap"] = min(gaps)
    if qfc:
        out["sizes"]["qsolver.max_qfc_residual"] = max(qfc)


def verify_all(inp, tr, ck, out, expected):
    from susyxyz import cli

    buf = io.StringIO()
    with ck.guard("cli"):
        with tr.span("cli.verify_all"), contextlib.redirect_stdout(buf):
            try:
                code = cli.main(inp["argv"])
            except SystemExit as exc:
                code = exc.code
        text = buf.getvalue()
        out["sizes"]["cli.report_bytes"] = len(text.encode())
        out["sizes"]["cli.exit_code"] = code
        ck.exact("cli.exit_code", code == 0)
        report = json.loads(text)
        for key in sorted(report):
            ck.exact(f"cli.summary.{key}", report[key] is True)
        out["digests"]["report"] = digest(text)


BODIES = {
    "exact-certify": exact_certify,
    "ed-oracle": ed_oracle,
    "q-sweep": q_sweep,
    "verify-all": verify_all,
}


# -- layer probes (traced runs only, after the timed section) --------------

def _median_ms(fn, reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def probe_layers(seed: int) -> dict:
    """Exact-core operations on s_{-15} and sbar_{-14} of the default tau
    table, and a seeded batch of direct theta calls."""
    from susyxyz import exactcore, taurec, thetanum

    table = taurec.default_table()
    a, b = table.s(-15), table.sbar(-14)
    prod = a * b
    got = {
        "exactcore.mul_ms": _median_ms(lambda: a * b),
        "exactcore.exact_div_ms": _median_ms(lambda: exactcore.poly_exact_div(prod, b)),
        "exactcore.gcd_ms": _median_ms(lambda: exactcore.poly_gcd(a, b)),
        "exactcore.simplify_ms": _median_ms(lambda: exactcore.ratfunc_simplify(a, b)),
        "exactcore.operand_degree": max(a.degree, b.degree),
        "exactcore.operand_digits": max(_digits(a), _digits(b)),
    }
    rng = random.Random(f"theta:{seed}")
    ctx = thetanum.ThetaContext(1j)
    calls = [(rng.randint(1, 4), complex(rng.uniform(-3, 3), rng.uniform(-0.4, 0.4)),
              rng.randint(0, 2)) for _ in range(2000)]
    t0 = time.perf_counter()
    for j, u, order in calls:
        thetanum.theta(j, u, ctx, order)
    got["thetanum.theta_us"] = (time.perf_counter() - t0) / len(calls) * 1e6
    return got


def probe_nnz(inp) -> int:
    from susyxyz import edoracle

    op = edoracle.build_hamiltonian(inp["sparse_L"], float(inp["sparse_zetas"][0]))
    return int(op.sector_matrix(sparse=True).nnz)


# -- entry point ------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-id", default="0")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    for mod in IMPORTS[args.workload]:
        importlib.import_module(mod)
    ready = time.monotonic()
    result = {"ready": ready}
    if not args.setup_only:
        result.update(run_workload(args))
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


def run_workload(args) -> dict:
    expected = _load_expected()
    inp = inputs_for(args.workload, args.seed)
    tr = Tracer(bool(args.trace), args.workload, args.run_id)
    ck = Checks(known=_q_known if args.workload == "q-sweep" else (lambda name: False))
    out = {"digests": {}, "sizes": {}}

    t0 = time.perf_counter()
    with ck.guard(args.workload):
        BODIES[args.workload](inp, tr, ck, out, expected)
    check_digests(ck, out["digests"], expected["digests"].get(args.workload, {}))
    wall = time.perf_counter() - t0

    result = {"wall_s": wall, **ck.summary(), "digests": out["digests"]}
    if args.trace:
        sizes = out["sizes"]
        sizes.update(probe_layers(args.seed))
        if args.workload == "ed-oracle":
            sizes["edoracle.nnz"] = probe_nnz(inp)
        result["sizes"] = sizes
        result["spans"] = tr.spans
    return result


if __name__ == "__main__":
    sys.exit(main())
