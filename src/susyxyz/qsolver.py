"""Numerical construction of the supersymmetric Q-eigenvalue q(u) from its
three-term functional equation, and the downstream verifications.

q is an even entire function, 2 pi periodic, with the quasi-periodicity
q(u + pi tau) = exp(-iL(u + pi tau/2)) q(u) at L = 2n+1.  In Fourier form
the coefficients form a ladder c_{k+L} = p^{k+L/2} c_k over a base block of
L coefficients, which evenness cuts down to n+1 free ones.  The functional
equation sampled on a real grid then yields a homogeneous linear system
whose null space is one-dimensional; the solution is the smallest singular
vector, and the singular-value gap quantifies that one-dimensionality.
Each (tau, n) cell is solved in double; a cell whose cancellation factor
puts the functional-equation check within two decades of its bound is
redone in extended precision (the kernel at the end of this module), and
``QCoefficients.route`` and ``cancellation`` record which.

All verification quantities built here (Wronskian relation, the
differential-difference relation between q(u) and q(u + pi), its Taylor
corollary, and the correlation bridge) are invariant under rescaling the
solution vector, so no normalization is ever imposed.  The checks return
measurements only; ``qsolve_report`` holds each against its bound below and
forms the one verdict.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .corrfn import f_zeta
from .thetanum import (
    PI,
    expansion_E,
    modular_values,
    theta,
    theta_context,
    weierstrass_p,
)

__all__ = [
    "NullspaceDegenerate",
    "QCoefficients",
    "solve_q",
    "q_eval",
    "functional_equation_residual",
    "alternant",
    "wronskian_checks",
    "ddt_check",
    "qfc_check",
    "f_from_q",
    "qsolve_report",
]

#: ladder weights below this magnitude are dropped from the basis
MULTIPLIER_CUT = 1e-30
#: solve_q samples max(4 L, SOLVE_ROWS_MIN) rows; the Wronskian and ddt grid sizes
SOLVE_ROWS_MIN = 48
WRONSKIAN_SAMPLES = 20
DDT_POINTS = 24
#: the bounds qsolve_report holds each check to: on the singular-value gap
#: from below, on each residual (qfc's on either route) from above; solve_q
#: also refuses a gap below GAP_THRESHOLD and routes by FE_BOUND
GAP_THRESHOLD = 1e6
FE_BOUND = 1e-10
WRONSKIAN_BOUND = 1e-8
DDT_BOUND = 1e-7
DDT_BETA_BOUND = 1e-7
QFC_BOUND = 1e-7
BRIDGE_BOUND = 1e-6
#: the fresh points of qsolve_report's functional-equation check
FRESH_POINTS = np.linspace(0.17, PI - 0.13, 50)
UNIT_ROUNDOFF = 2.0**-53
_SHIFTS = (0.0, 2 * PI / 3, -2 * PI / 3)
#: cos(j pi/3) = _C6[j % 6] / 2 and sin(j pi/3) = _S6[j % 6] sqrt(3) / 2
_C6 = (2, 1, -1, -2, -1, 1)
_S6 = (0, 1, 1, 0, -1, -1)


class NullspaceDegenerate(ArithmeticError):
    """Constraint matrix does not isolate a one-dimensional null space."""

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = gap


def _ladder_bank(n: int, tau: complex):
    """Per free index k: arrays (j >= 0, weight, 2e) so that the basis
    function is g_k(u) = sum_j weight_j cos(j u), with the quasi-periodicity
    ladder and evenness folded in: j = k + mL or mL - k carries the weight
    p^e, p = exp(i pi tau), at the ladder exponent e = (L m^2 +- 2mk) / 2,
    doubled by evenness at j > 0."""
    L = 2 * n + 1
    bank = []
    for k in range(n + 1):
        rungs: dict[int, int] = {}          # j -> 2e
        m = 0
        while True:
            up, dn = 2 * m * k + L * m * m, -2 * m * k + L * m * m
            if m > 2 and min(up, dn) / 2 * PI * complex(tau).imag > 80.0:
                break
            rungs[k + m * L] = up
            if m:
                rungs[m * L - k] = dn
            m += 1
        rows = []
        for j, two_e in sorted(rungs.items()):
            weight = cmath.exp(1j * PI * tau * (two_e / 2))
            if abs(weight) >= MULTIPLIER_CUT:
                rows.append((j, weight * (1.0 if j == 0 else 2.0), two_e))
        js, ws, two_es = zip(*rows)
        bank.append((np.array(js), np.array(ws), np.array(two_es)))
    return bank


@dataclass
class QCoefficients:
    """Solved Fourier data for q(u) at fixed n and tau."""

    n: int
    tau: complex
    free: np.ndarray            # c_0 .. c_n
    nullspace_gap: float
    singular_values: np.ndarray
    bank: list
    #: "double", or "extended" when the cell was redone in extended precision
    route: str
    #: the cancellation factor of q on the functional-equation check's grid
    cancellation: float
    extended: _ExtendedQ | None = field(default=None, repr=False)

    @property
    def L(self) -> int:
        return 2 * self.n + 1


def q_eval(qc: QCoefficients, u, order: int = 0):
    """q^(order)(u) by term-wise differentiation of the cosine series.

    ``u`` is a scalar or an array of arguments, real or complex.  A scalar
    gives a Python complex; an array gives a complex array of its shape, each
    element bit-identical to the scalar call at that argument.  On the
    extended route the series is summed exactly from the extended
    coefficients and rounded once per value.
    """
    if order not in (0, 1, 2):
        raise ValueError("orders 0..2 supported")
    if qc.extended is not None:
        return qc.extended.q_eval(u, order)
    x = np.asarray(u)
    total = 0j
    for ck, g in zip(qc.free, _basis(qc.bank, x, order)):
        total = total + ck * g
    return complex(total) if x.ndim == 0 else total


def _theta1_rows(ctx, args: np.ndarray) -> np.ndarray:
    """theta1 at every point of ``args``, one series over all of them, kept
    per nome and grid: the solve grids and the fresh points are the same
    for every n."""
    return _theta1_cached(ctx, args.shape, args.tobytes())


# working set 2 (q-sweep child: the solve grid and the fresh points)
@functools.lru_cache(maxsize=8)
def _theta1_cached(ctx, shape: tuple, raw: bytes) -> np.ndarray:
    args = np.frombuffer(raw).reshape(shape)
    return np.array(theta(1, args.ravel().tolist(), ctx)).reshape(shape)


def _basis(bank, args, order: int = 0) -> list:
    """The order-th derivative of g_k = sum_j w_j cos(j u) at every argument,
    one array per k: the one cosine-bank sum of the module."""
    columns = []
    for js, ws, _ in bank:
        arg = np.multiply.outer(args, js)
        if order == 0:
            basis = np.cos(arg)
        elif order == 1:
            basis = -js * np.sin(arg)
        else:
            basis = -(js**2) * np.cos(arg)
        columns.append(np.add.reduce(ws * basis, axis=-1))
    return columns


def solve_q(n: int, tau: complex) -> QCoefficients:
    """Solve the three-term functional equation for the Fourier ladder.

    Rows sample the relation at real points away from the zeros of
    phi(u) = theta1(u|tau)^L and are normalized to unit magnitude; the
    smallest right singular vector is the solution.  The gap between the
    two smallest singular values certifies numerical one-dimensionality
    (for the single-column n = 0 case the gap is 1/sigma against the unit
    row scale).

    The cell then measures the cancellation factor of q on the
    functional-equation check's grid (``_cancellation``).  When
    UNIT_ROUNDOFF times that factor, the estimated error of the check,
    comes within two decades of FE_BOUND and tau is pure imaginary, the
    solution is refined and every later value of q computed in extended
    precision (``route`` "extended"); otherwise it stays in double.  The
    functional equation's factor stands in for every check: the qfc and
    ddt_beta residuals of double cells do not follow q's cancellation
    (their largest, 1.8e-9 against the 1e-7 bound over sixteen q-sweep
    seeds, is about 60 times what qfc's own left-side cancellation
    predicts), so no factor of theirs is measured.
    """
    L = 2 * n + 1
    ctx = theta_context(tau)
    bank = _ladder_bank(n, tau)
    M = max(4 * L, SOLVE_ROWS_MIN)
    args = np.add.outer(np.linspace(0.1, PI - 0.1, M), _SHIFTS)
    phi = np.array([x**L for x in _theta1_rows(ctx, args).ravel().tolist()]).reshape(args.shape)
    terms = phi[..., None] * np.stack(_basis(bank, args), axis=-1)
    # normalize by the term scale, not the assembled row: rows in the
    # null direction are near zero by construction
    scale = np.abs(terms).max(axis=(1, 2))
    A = (terms[:, 0] + terms[:, 1] + terms[:, 2]) / np.maximum(scale, 1e-300)[:, None]
    _, sing, vh = np.linalg.svd(A, full_matrices=False)
    if n == 0:
        gap = 1.0 / sing[-1] if sing[-1] > 0 else math.inf
    else:
        gap = sing[-2] / sing[-1] if sing[-1] > 0 else math.inf
    if gap < GAP_THRESHOLD:
        raise NullspaceDegenerate(
            f"singular-value gap {gap:.2e} below {GAP_THRESHOLD:.0e} for n={n}, tau={tau}",
            float(gap),
        )
    free = np.conj(vh[-1])
    qc = QCoefficients(n=n, tau=tau, free=free, nullspace_gap=float(gap),
                       singular_values=sing, bank=bank, route="double",
                       cancellation=_cancellation(free, bank))
    if UNIT_ROUNDOFF * qc.cancellation >= 1e-2 * FE_BOUND and complex(tau).real == 0:
        return _extend(qc)
    return qc


def _cancellation(free, bank) -> float:
    """The cancellation factor of q on the functional-equation check's grid
    (FRESH_POINTS and its shifts by +-2 pi/3): the largest ratio of
    sum_k |c_k g_k(u)| to |q(u)|, by which round-off in the cosine sum is
    magnified in q."""
    terms = free * np.stack(_basis(bank, np.add.outer(FRESH_POINTS, _SHIFTS)), axis=-1)
    q = np.maximum(np.abs(terms.sum(axis=-1)), 1e-300)
    return float((np.abs(terms).sum(axis=-1) / q).max())


def _phi_jet(th, th1, th2, L: int) -> tuple:
    """phi = theta1^L and its first two derivatives, from theta1's."""
    return (th**L, L * th ** (L - 1) * th1,
            L * (L - 1) * th ** (L - 2) * th1**2 + L * th ** (L - 1) * th2)


def _half_period_q(qc: QCoefficients) -> tuple:
    """q'(pi + pi tau/2) and q(pi tau/2), whose ratio enters the closed form
    of ddt's beta, qfc's right side and the bridge."""
    return q_eval(qc, PI + PI * qc.tau / 2, 1), q_eval(qc, PI * qc.tau / 2)


def functional_equation_residual(qc: QCoefficients, us) -> float:
    """Max relative residual of the three-term relation at fresh points."""
    ctx = theta_context(qc.tau)
    L = qc.L
    args = np.add.outer(np.asarray(us, dtype=float), _SHIFTS)
    worst = 0.0
    for th, qs in zip(_theta1_rows(ctx, args).tolist(), q_eval(qc, args).tolist()):
        terms = [x**L * q for x, q in zip(th, qs)]
        scale = max(abs(t) for t in terms)
        if scale > 0:
            worst = max(worst, abs(sum(terms)) / scale)
    return worst


def alternant(qc: QCoefficients, u: complex, v: complex) -> complex:
    """Phi(u, v): the antisymmetric combination of q at shifted arguments."""
    c32 = theta_context(qc.tau).scaled(1.5)
    qu, qv_pi, qu_pi, qv = q_eval(qc, np.array([u, v + PI, u + PI, v])).tolist()
    return (
        theta(3, 3 * u / 2, c32) * theta(4, 3 * v / 2, c32) * qu * qv_pi
        - theta(4, 3 * u / 2, c32) * theta(3, 3 * v / 2, c32) * qu_pi * qv
    )


def _wronskian_constant(qc: QCoefficients) -> complex:
    ctx = theta_context(qc.tau)
    c32 = ctx.scaled(1.5)
    phi_third = theta(1, PI / 3, ctx) ** qc.L
    return -theta(2, 0.0, c32) * alternant(qc, PI, PI / 3) / (
        theta(1, 0.0, c32, 1) * phi_third
    )


def wronskian_checks(qc: QCoefficients) -> dict:
    """The quadratic Wronskian relation at sample points, all scale-free;
    qsolve_report holds both residuals to WRONSKIAN_BOUND."""
    ctx = theta_context(qc.tau)
    c32 = ctx.scaled(1.5)
    L = qc.L
    W = _wronskian_constant(qc)
    us = np.linspace(0.07, PI - 0.07, WRONSKIAN_SAMPLES)
    a, b = us - PI / 3, us - 2 * PI / 3
    qs = q_eval(qc, np.stack([a, b, a + PI, b + PI], axis=1)).tolist()
    worst = 0.0
    for u, (qa, qb, qa_pi, qb_pi) in zip(us, qs):
        lhs = W * theta(1, u, ctx) ** L
        t1 = qa * qb
        t2 = qa_pi * qb_pi
        rhs = t1 - t2
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(t1), abs(t2)))
    # the instance giving back the Wronskian constant itself
    lhs = alternant(qc, PI / 3, PI)
    rhs = theta(3, PI / 2, c32) * theta(4, PI / 2, c32) * theta(1, 2 * PI / 3, ctx) ** L * W
    instance = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    anti = abs(alternant(qc, 0.9, 0.9))
    return {
        "W": W,
        "max_relation_residual": worst,
        "third_point_instance_residual": instance,
        "antisymmetry_at_equal_args": anti,
    }


# working set 1 (q-sweep child: one nome at a time)
@functools.lru_cache(maxsize=4)
def _ddt_grid(tau: complex) -> tuple:
    """ddt_check's grid, clear of the singular set, and the n-independent
    values on it, once per nome: theta1 and two derivatives at u, theta1
    and two derivatives at 3u and nome 3 tau, theta3 and two derivatives
    and theta4 at 3u/2 and nome 3 tau / 2, and the two Weierstrass P terms
    of the potential."""
    singular = (0.0, PI / 3, 2 * PI / 3, PI)
    grid = [
        u for u in np.linspace(0.12, PI - 0.12, DDT_POINTS).tolist()
        if min(abs(u - s) for s in singular) > 0.1
    ]
    ctx = theta_context(tau)
    c3, c32 = ctx.scaled(3), ctx.scaled(1.5)
    u3 = [3 * u for u in grid]
    u32 = [3 * u / 2 for u in grid]
    values = {
        "th": theta(1, grid, ctx), "th1": theta(1, grid, ctx, 1), "th2": theta(1, grid, ctx, 2),
        "T1": theta(1, u3, c3), "T1p": theta(1, u3, c3, 1), "T1pp": theta(1, u3, c3, 2),
        "T3": theta(3, u32, c32), "T3p": theta(3, u32, c32, 1), "T3pp": theta(3, u32, c32, 2),
        "T4": theta(4, u32, c32),
        "P1": weierstrass_p(grid, PI / 3, PI * tau),
        "P2": weierstrass_p([u + PI + PI * tau / 2 for u in grid], 2 * PI / 3, PI * tau),
    }
    return np.array(grid), {k: np.array(v) for k, v in values.items()}


def ddt_check(qc: QCoefficients) -> dict:
    """Fit (alpha, beta) in the relation (d^2/du^2 - V - alpha) F = beta G
    from two grid points and report the residual on the rest, plus the
    closed form of beta.

    F = theta1^L q / (theta1(3u|3tau)^n theta3(3u/2|3tau/2)) with F''
    analytic (no numerical differentiation), and
    G = theta4(3u/2|3tau/2) theta1^L q(u + pi) / (theta1(3u|3tau)^n
    theta3(3u/2|3tau/2)^2), all on the whole grid at once.  qsolve_report
    holds the residual to DDT_BOUND and the closed form's to DDT_BETA_BOUND."""
    n, tau, L = qc.n, qc.tau, qc.L
    us, v = _ddt_grid(tau)
    q0, q1, q2 = (q_eval(qc, us, order) for order in (0, 1, 2))
    q_pi = q_eval(qc, us + PI)
    phi, phi1, phi2 = _phi_jet(v["th"], v["th1"], v["th2"], L)
    N = phi * q0
    N1 = phi1 * q0 + phi * q1
    N2 = phi2 * q0 + 2 * phi1 * q1 + phi * q2
    T1, T1p, T1pp = v["T1"], 3 * v["T1p"], 9 * v["T1pp"]
    T3, T3p, T3pp = v["T3"], 1.5 * v["T3p"], 2.25 * v["T3pp"]
    D = T1**n * T3
    D1 = n * T1 ** (n - 1) * T1p * T3 + T1**n * T3p
    D2 = (
        n * (n - 1) * T1 ** (n - 2) * T1p**2 * T3
        + n * T1 ** (n - 1) * T1pp * T3
        + 2 * n * T1 ** (n - 1) * T1p * T3p
        + T1**n * T3pp
    )
    F = N / D
    F1 = (N1 - F * D1) / D
    F2 = (N2 - 2 * F1 * D1 - F * D2) / D
    G = v["T4"] * phi * q_pi / (T1**n * T3**2)
    V = n * (n + 1) * v["P1"] + 2 * v["P2"]
    rows = list(zip(F.tolist(), G.tolist(), (F2 - V * F).tolist(),
                    (np.abs(F2) + np.abs(V * F)).tolist()))

    def fit(i, j):
        (F1, G1, L1, _), (F2_, G2, L2, _) = rows[i], rows[j]
        det = F1 * G2 - G1 * F2_
        alpha = (L1 * G2 - G1 * L2) / det
        beta = (F1 * L2 - L1 * F2_) / det
        return alpha, beta

    alpha, beta = fit(0, len(rows) // 2)
    worst = 0.0
    for F, G, Lhs, scale in rows:
        r = abs(Lhs - alpha * F - beta * G) / max(
            scale, abs(alpha * F), abs(beta * G)
        )
        worst = max(worst, r)
    alpha2, beta2 = fit(1, len(rows) - 1)
    fit_variation = max(
        abs(alpha - alpha2) / max(abs(alpha), 1e-300),
        abs(beta - beta2) / max(abs(beta), 1e-300),
    )
    c32 = theta_context(tau).scaled(1.5)
    qp, qh = _half_period_q(qc)
    beta_closed = -3j * theta(3, 0.0, c32) * theta(4, 0.0, c32) * qp / qh
    return {
        "alpha": alpha,
        "beta": beta,
        "residual": worst,
        "fit_variation": fit_variation,
        "beta_closed_residual": abs(beta - beta_closed) / abs(beta_closed),
    }


def qfc_check(qc: QCoefficients) -> dict:
    """Taylor corollary of the differential-difference relation; both sides
    quadratic in q, hence scale-free.  On the extended route both sides are
    evaluated wholly in extended precision: the left side is a small
    remainder of its terms, so in double its residual measures round-off.
    qsolve_report holds the residual to QFC_BOUND on either route."""
    if qc.extended is not None:
        return qc.extended.qfc()
    n, tau = qc.n, qc.tau
    ctx = theta_context(tau)
    E = expansion_E(n, ctx)
    phi, phi1, phi2 = _phi_jet(*(theta(1, PI / 3, ctx, r) for r in range(3)), qc.L)
    q_third = q_eval(qc, PI / 3)
    qphi2 = q_eval(qc, PI / 3, 2) * phi + 2 * q_eval(qc, PI / 3, 1) * phi1 + q_third * phi2
    lhs = (
        (2 * n + 3) * q_eval(qc, 0.0, 2) * q_third
        + (2 * n - 1) * q_eval(qc, 0.0) * qphi2 / phi
        + 2 * (2 * n + 1) * E * q_eval(qc, 0.0) * q_third
    )
    qp, qh = _half_period_q(qc)
    rhs = 3j * qp / qh * alternant(qc, 0.0, PI / 3)
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    return {"lhs": lhs, "rhs": rhs, "residual": residual}


def f_from_q(qc: QCoefficients) -> complex:
    """The correlation quantity assembled from the solved q alone; the
    bridge between the numeric Q-pipeline and the exact tau pipeline."""
    n, tau = qc.n, qc.tau
    mv = modular_values(tau)
    g = mv.gamma
    c32 = theta_context(tau).scaled(1.5)
    ratio_theta = theta(1, 0.0, c32, 1) / theta(2, 0.0, c32)
    ratio_phi = alternant(qc, 0.0, PI / 3) / alternant(qc, PI, PI / 3)
    qp, qh = _half_period_q(qc)
    ratio_q = qp / qh
    first = (g**2 - 3) * (g**2 + 3) / (g**2 - 1) ** 2
    second = (
        3j * (g**2 + 3) / ((2 * n + 1) * mv.chi * (g - 1) ** 2)
        * ratio_theta * ratio_phi * ratio_q
    )
    return first - second


def qsolve_report(n: int, tau: complex) -> dict:
    """Solve q at (n, tau) and run every check: the singular-value gap, the
    functional equation at FRESH_POINTS, the Wronskian, ddt and qfc checks,
    the ddt beta closed form and the bridge to the exact f_n, each against
    its bound above: this is the one place the Q pipeline's verdict is
    formed.  A null space the solve cannot isolate gives a report with
    ``ok`` false and the gap next to GAP_THRESHOLD."""
    try:
        qc = solve_q(n, tau)
    except NullspaceDegenerate as exc:
        return {"n": n, "tau_im": tau.imag, "nullspace_gap": exc.gap,
                "gap_threshold": GAP_THRESHOLD, "ok": False}
    fe_residual = functional_equation_residual(qc, FRESH_POINTS)
    w, d, qf, fq = wronskian_checks(qc), ddt_check(qc), qfc_check(qc), f_from_q(qc)
    fe = float(f_zeta(n).evaluate(modular_values(tau).zeta.real))
    return {
        "n": n,
        "tau_im": tau.imag,
        "nullspace_gap": qc.nullspace_gap,
        "route": qc.route,
        "cancellation": qc.cancellation,
        "fresh_point_residual": fe_residual,
        "wronskian": {k: w[k] for k in ("max_relation_residual", "third_point_instance_residual")},
        "ddt": {k: d[k] for k in ("alpha", "beta", "residual", "beta_closed_residual")},
        "qfc_residual": qf["residual"],
        "f_from_q": fq,
        "f_exact": fe,
        "f_bridge_residual": abs(fq - fe),
        "ok": (qc.nullspace_gap >= GAP_THRESHOLD and fe_residual < FE_BOUND
               and w["max_relation_residual"] < WRONSKIAN_BOUND
               and w["third_point_instance_residual"] < WRONSKIAN_BOUND
               and d["residual"] < DDT_BOUND and d["beta_closed_residual"] < DDT_BETA_BOUND
               and qf["residual"] < QFC_BOUND and abs(fq - fe) < BRIDGE_BOUND),
    }


# -- the extended-precision kernel ------------------------------------------
#
# solve_q routes a cell here (its ``extended`` is an _ExtendedQ) when its
# cancellation factor puts the double checks at risk.  A routed cell has
# tau = i t, so the nome p = exp(-pi t) is real and so is every weight of
# the ladder bank: the solution is a real vector times one phase.  The
# kernel works in fixed point, an int X standing for X 2^-b at a stated
# number b of fractional bits.  The n-independent pieces (theta values and
# powers of the nome per nome, cos/sin tables per grid of points) are built
# once per precision, and each cell uses those at its own; the sums
# over frequencies run exactly, in Python ints for small point sets and as
# slice products for large ones: both operands split into 16-bit limbs, so
# every float64 partial sum of limb products is an exact integer (Ozaki,
# Ogita, Oishi and Rump, error-free transformation of matrix
# multiplication, 2012) and the limbs are carried back into one int.
# Values of q leave the kernel rounded once to double; qfc's two sides are
# formed wholly in fixed point.

_LIMB = 16
#: samples of [0.1, pi - 0.1] the extended null vector is refined on, each
#: shifted by 0 and +-2 pi/3 exactly
_REFINE_ROWS = 24


def _fixed(x: float, bits: int) -> int:
    """The double x at ``bits`` fractional bits, exactly when it has no more."""
    num, den = float(x).as_integer_ratio()
    return (num << bits) // den


# working set 2 (q-sweep child: the tables' and the nomes' precision)
@functools.lru_cache(maxsize=4)
def _pi_fixed(bits: int) -> int:
    """pi by Machin's formula, pi = 16 acot 5 - 4 acot 239."""
    g = bits + 16

    def acot(x):
        term = total = (1 << g) // x
        k = 1
        while term:
            term //= x * x
            total += (-1) ** k * (term // (2 * k + 1))
            k += 1
        return total

    return (16 * acot(5) - 4 * acot(239)) >> 16


def _exp_fixed(a: int, bits: int) -> int:
    """e^x for x = a 2^-bits >= 0: 2^-s x by its Taylor series, squared s times."""
    s = max(0, a.bit_length() - bits + 8)
    g = bits + s + 16
    r = a << 16                      # x 2^-s at g bits
    total = term = 1 << g
    k = 1
    while term:
        term = (term * r >> g) // k
        total += term
        k += 1
    for _ in range(s):
        total = total * total >> g
    return total >> (s + 16)


def _cos_sin_fixed(a: int, bits: int) -> tuple[int, int]:
    """cos x and sin x for x = a 2^-bits, by halving and double angles."""
    s = max(0, abs(a).bit_length() - bits + 8)
    g = bits + s + 16
    r = abs(a) << 16                 # |x| 2^-s at g bits
    r2 = r * r >> g
    c = sn = 0
    ct, st, k, sign = 1 << g, r, 0, 1
    while ct or st:
        c += sign * ct
        sn += sign * st
        ct = (ct * r2 >> g) // ((2 * k + 1) * (2 * k + 2))
        st = (st * r2 >> g) // ((2 * k + 2) * (2 * k + 3))
        k += 1
        sign = -sign
    for _ in range(s):
        c, sn = (c * c - sn * sn) >> g, (2 * c * sn) >> g
    return c >> (s + 16), (sn if a >= 0 else -sn) >> (s + 16)


def _trig_point(a: int, b: int, bits: int, F: int) -> tuple:
    """For x = (a + i b) 2^-(bits+32) and f < F, at ``bits`` bits:
    cos(f Re x) cosh(f Im x), sin(f Re x) sinh(f Im x), sin(f Re x) cosh(f Im x)
    and cos(f Re x) sinh(f Im x), so that cos(f x) = A - iB and
    sin(f x) = C + iD.  The last two lists are None for a real x."""
    g = bits + 32
    c1, s1 = _cos_sin_fixed(a, g)
    cs, ss = [1 << g], [0]
    for _ in range(1, F):
        c, s = cs[-1], ss[-1]
        cs.append((c * c1 - s * s1) >> g)
        ss.append((s * c1 + c * s1) >> g)
    if b == 0:
        return [c >> 32 for c in cs], None, [s >> 32 for s in ss], None
    e1 = _exp_fixed(abs(b), g)
    em1 = (1 << 2 * g) // e1
    up, dn = [1 << g], [1 << g]
    for _ in range(1, F):
        up.append(up[-1] * e1 >> g)
        dn.append(dn[-1] * em1 >> g)
    ch = [(u + d) >> 1 for u, d in zip(up, dn)]
    sh = [(u - d) >> 1 if b > 0 else (d - u) >> 1 for u, d in zip(up, dn)]
    sh_g = 2 * g - bits
    return ([c * h >> sh_g for c, h in zip(cs, ch)], [s * h >> sh_g for s, h in zip(ss, sh)],
            [s * h >> sh_g for s, h in zip(ss, ch)], [c * h >> sh_g for c, h in zip(cs, sh)])


def _operand(ys: list) -> np.ndarray:
    """Signed ints y_f as the (F, T) float64 limb matrix of _exact_dots:
    16-bit limbs, least significant first, the top one signed."""
    T = (max(abs(y) for y in ys).bit_length() + _LIMB + 1) // _LIMB
    bias = 1 << (_LIMB * T - 1)
    buf = b"".join((y + bias).to_bytes(2 * T, "little") for y in ys)
    limbs = np.frombuffer(buf, dtype="<u2").reshape(len(ys), T).astype(np.float64)
    limbs[:, -1] -= 2.0 ** (_LIMB - 1)
    return limbs


def _exact_dots(table: np.ndarray, operand: np.ndarray) -> list:
    """sum_f X[p, f] Y[f] exactly, for every point p of the (points, F,
    limbs) table X and the (F, limbs) operand Y, limbs least significant
    first with a signed top limb: each product of limbs is below 2^32 and
    each column sum of them below 2^53, so the float64 products are exact
    (Ozaki et al., 2012); the limb columns are then carried back into one
    int per point."""
    npts, _, S = table.shape
    F, T = operand.shape
    ncol = S + T - 1
    Di = np.zeros((ncol, npts), dtype=np.int64)
    for s in range(S):
        X = table[:, :F, s].astype(np.float64)
        if s == S - 1:
            X -= 2.0 ** (_LIMB - 1)
        Di[s:s + T] += (X @ operand).T.astype(np.int64)
    for d in range(ncol - 1):
        Di[d + 1] += Di[d] >> _LIMB
        Di[d] &= (1 << _LIMB) - 1
    width = 2 * (ncol - 1)
    low = np.ascontiguousarray(Di[:-1].T).astype("<u2").tobytes()
    shift = _LIMB * (ncol - 1)
    return [(top << shift) + int.from_bytes(low[i * width:(i + 1) * width], "little")
            for i, top in enumerate(Di[-1].tolist())]


class _TrigTable:
    """The four _trig_point lists at a set of points (``A``, ``B``, ``C``,
    ``D``; ``B`` and ``D`` vanish at real points), each built on first use.

    A sum over the table is exact either way; which way is faster depends on
    its size.  Summed in Python ints it costs about 0.2 us per product of a
    point and a frequency; as 16-bit limb tables through _exact_dots it
    costs about 170 us per call and 1 us per point.  Timed at 128 bits
    (2-vCPU Xeon, best of 7) on the point sets the Q checks use, the ints
    win at 1, 4 and 20 points and the limbs at 72, 80 and 150, with the
    break-even at 24 to 64 points for 48 to 16 frequencies: near 1024
    products, the bound below."""

    #: tables of at most this many point-frequency products are summed in
    #: Python ints, larger ones as limb tables
    INT_PRODUCTS = 1024

    def __init__(self, points: list, bits: int):
        self.points, self.bits, self.F = points, bits, 0
        self.real = all(b == 0 for _, b in points)
        self.small, self.rows, self.kinds = True, None, {}

    def reserve(self, F: int):
        """Hold at least F frequencies, dropping the kinds built shorter.
        The values at f < F do not depend on the table's length, and both
        sums stop at the operand's length, so every sum stays the same."""
        if F > self.F:
            self.F = F
            self.small = len(self.points) * F <= self.INT_PRODUCTS
            self.rows, self.kinds = None, {}

    def _build(self, kind: str):
        i = "ABCD".index(kind)
        bits, F = self.bits, self.F
        if self.small:
            if self.rows is None:
                self.rows = [_trig_point(a, b, bits, F) for a, b in self.points]
            return [row[i] for row in self.rows]
        # |cos|, |sin| <= 1 and |cosh|, |sinh| <= e^(F |Im x|) bound the limb
        # count in advance, so each point's ints go straight into limb bytes
        growth = max(abs(b) for _, b in self.points) * F * 1.4427 / (1 << (bits + 32))
        S = (bits + math.ceil(growth) + _LIMB + 1) // _LIMB
        bias = 1 << (_LIMB * S - 1)
        buf = bytearray()
        for a, b in self.points:
            buf += b"".join((x + bias).to_bytes(2 * S, "little")
                            for x in _trig_point(a, b, bits, F)[i])
        return np.frombuffer(buf, dtype="<u2").reshape(len(self.points), F, S)

    def dots(self, kind: str, operand: tuple) -> list:
        """sum_f table[p, f] y[f] exactly for every point p; ``operand`` is
        (the ints y, their limb matrix)."""
        if kind not in self.kinds:
            self.kinds[kind] = self._build(kind)
        ys, limbs = operand
        if self.small:
            return [sum(map(operator.mul, row, ys)) for row in self.kinds[kind]]
        return _exact_dots(self.kinds[kind], limbs)


# working set 24 (q-sweep child: the fixed real grids, kept across nomes,
# and about ten point sets per nome; at seed 0 a child builds 146 table
# kinds with 24 entries and 175 with 12)
@functools.lru_cache(maxsize=24)
def _trig_table(key, bits: int) -> _TrigTable:
    """The _TrigTable of a point set at ``bits`` bits, shared by every
    frequency count: ``key`` is "refine" for the refinement grid, else the
    dtype and bytes of a flat array of doubles, real or complex.  The fixed
    real grids (the solve, functional-equation, Wronskian and ddt points)
    are the same for every nome, so their tables are built once per
    process, and grown when a longer cell needs them."""
    if key == "refine":
        g = bits + 32
        third = 2 * _pi_fixed(g) // 3
        points = [(_fixed(u, g) + shift, 0)
                  for u in np.linspace(0.1, PI - 0.1, _REFINE_ROWS).tolist()
                  for shift in (0, third, -third)]
    else:
        x = np.frombuffer(key[1], dtype=key[0]).astype(complex)
        points = [(_fixed(z.real, bits + 32), _fixed(z.imag, bits + 32)) for z in x.tolist()]
    return _TrigTable(points, bits)


def _table(key, bits: int, F: int) -> _TrigTable:
    """_trig_table grown to at least F frequencies, rounded up to a multiple
    of 16, so that the cells of every length share one table."""
    table = _trig_table(key, bits)
    table.reserve(-(-F // 16) * 16)
    return table


class _Nome:
    """The n-independent extended values at tau = i t, at ``w`` bits: powers
    of h = p^(1/2), theta1 on the refinement grid (at ``bits`` bits), and
    the theta values of qfc (theta1 and two derivatives at pi/3; the six
    values of E; theta3 and theta4 at 0 at nome p^(3/2))."""

    def __init__(self, t: float, bits: int, w: int):
        self.t, self.bits, self.w = t, bits, w
        num, den = t.as_integer_ratio()
        self.pi_t = _pi_fixed(w + 8) * num // den >> 8          # pi t at w bits
        self.h_up = (1 << 2 * w) // _exp_fixed(self.pi_t >> 1, w)  # h = e^(-pi t / 2)
        self.powers = [1 << w]
        # theta1 = 2 sum_k (-1)^k p^((k+1/2)^2) sin((2k+1) u) at nomes p and p^3
        self.odd1 = self._series(lambda k: (2 * k + 1) ** 2, 4)
        self.odd3 = self._series(lambda k: 3 * (2 * k + 1) ** 2, 4)
        # theta3/theta4 at nome p^c: 1 + 2 sum_k (+-1)^k p^(c k^2), k >= 1
        self.even3 = self._series(lambda k: 3 * (k + 1) ** 2, 1)
        self.even32 = self._series(lambda k: 3 * (k + 1) ** 2, 2)
        w2 = 1 << w
        m = [2 * k + 1 for k in range(len(self.odd1))]
        sgn = [(-1) ** k for k in range(len(self.odd1))]
        root3 = math.isqrt(3 << 2 * w)
        # theta1, theta1', theta1'' at pi/3
        th = root3 * sum(g * a * _S6[mm % 6] for g, a, mm in zip(sgn, self.odd1, m)) >> w
        th1 = sum(g * a * mm * _C6[mm % 6] for g, a, mm in zip(sgn, self.odd1, m))
        th2 = -root3 * sum(g * a * mm * mm * _S6[mm % 6] for g, a, mm in zip(sgn, self.odd1, m)) >> w
        self.a1 = (th1 << w) // th                     # theta1'/theta1 at pi/3
        self.a2 = (th2 << w) // th                     # theta1''/theta1 at pi/3
        self.root3 = root3
        d1 = sum(g * a * mm for g, a, mm in zip(sgn, self.odd1, m))
        d3 = -sum(g * a * mm**3 for g, a, mm in zip(sgn, self.odd1, m))
        m3 = [2 * k + 1 for k in range(len(self.odd3))]
        e1 = sum((-1) ** k * a * mm for k, (a, mm) in enumerate(zip(self.odd3, m3)))
        e3 = -sum((-1) ** k * a * mm**3 for k, (a, mm) in enumerate(zip(self.odd3, m3)))
        t4 = w2 + 2 * sum((-1) ** (k + 1) * b for k, b in enumerate(self.even3))
        t4pp = -2 * sum((-1) ** (k + 1) * (2 * k + 2) ** 2 * b for k, b in enumerate(self.even3))
        # E = (2n+3) r1 / 6 - 3 n r3 - 4.5 r4 with the three ratios below
        self.r1 = (d3 << w) // d1
        self.r3 = (e3 << w) // e1
        self.r4 = (t4pp << w) // t4
        self.T3 = w2 + 2 * sum(self.even32)
        self.T4 = w2 + 2 * sum((-1) ** (k + 1) * b for k, b in enumerate(self.even32))
        # theta1 on the refinement grid, at ``bits`` bits
        coef = [0] * (2 * len(self.odd1))
        for k, a in enumerate(self.odd1):
            coef[2 * k + 1] = 2 * (-1) ** k * a
        table = _table("refine", bits, len(coef))
        self.refine_theta = [v >> w for v in table.dots("C", (coef, _operand(coef)))]

    def _series(self, exponent, den: int) -> list:
        """exp(-pi t exponent(k) / den) at w bits for k = 0, 1, ... while
        above 2^-w."""
        out = []
        k = 0
        while True:
            y = self.pi_t * exponent(k) // den
            if y >> self.w > self.w:      # e^-y < 2^-w
                return out
            out.append((1 << 2 * self.w) // _exp_fixed(y, self.w))
            k += 1

    def h_power(self, N: int) -> int:
        """h^N = exp(-pi t N / 2) at w bits, for any integer N."""
        if N < 0:
            return _exp_fixed(self.pi_t * -N >> 1, self.w)
        while len(self.powers) <= N:
            self.powers.append(self.powers[-1] * self.h_up >> self.w)
        return self.powers[N]


# working set 1 (q-sweep child: its n loop runs inside the nome loop)
_nome = functools.lru_cache(maxsize=4)(_Nome)


def _precision_bits(qc: QCoefficients) -> int:
    """Fractional bits of a routed cell, in whole 64-bit words: the 53 a
    correctly rounded q needs, plus those its cancellation factor takes,
    plus those the condition of the reduced null-space system takes.  The
    cell's tables and nome values are built at exactly these bits, so a
    cell gives the same bits whatever ran before it in the process; the
    80 to 112 bits q-sweep's cells need all come to 128."""
    sing = qc.singular_values
    cond = sing[0] / sing[-2] if len(sing) > 1 else 1.0
    need = 53 + math.log2(max(qc.cancellation, 1.0)) + math.log2(cond)
    return 64 * math.ceil(need / 64)


class _ExtendedQ:
    """The extended kernel of one routed cell: the refined real coefficient
    vector at ``bits`` bits and one double phase, q's values from it, and
    qfc's two sides."""

    def __init__(self, qc: QCoefficients, bits: int):
        self.n, self.L, self.bits = qc.n, qc.L, bits
        # guard bits below the cell's precision keep the smallest weight of
        # the bank to ``bits`` bits relative
        cut = min(abs(w) for _, ws, _ in qc.bank for w in ws)
        self.nome = _nome(float(complex(qc.tau).imag), bits,
                          bits + max(128, math.ceil(-math.log2(cut)) + 16))
        self.w = self.nome.w
        # the bank's frequencies with their k, exponent 2e of h and factor
        self.freqs = [(f, k, two_e, 1 if f == 0 else 2)
                      for k, (js, _, two_es) in enumerate(qc.bank)
                      for f, two_e in zip(js.tolist(), two_es.tolist())]
        self.F = max(f for f, *_ in self.freqs) + 1
        pivot = int(np.argmax(np.abs(qc.free)))
        self.phase = complex(qc.free[pivot])
        v0 = (qc.free / self.phase).real
        self.V = [_fixed(v, bits) for v in v0.tolist()]
        self.V[pivot] = 1 << bits
        self._refine(qc, pivot)
        self._operands: dict = {}

    def coefficients(self) -> np.ndarray:
        """The refined coefficients c_0 .. c_n, rounded to double."""
        return self.phase * np.array([v / (1 << self.bits) for v in self.V])

    def _y(self) -> list:
        """Per frequency f < F, c_k(f) times its weight, at w bits."""
        y = [0] * self.F
        for f, k, two_e, fac in self.freqs:
            y[f] = fac * self.V[k] * self.nome.h_power(two_e) >> self.bits
        return y

    def _refine(self, qc: QCoefficients, pivot: int):
        """Iterative refinement of the null vector: the residual of the
        functional equation on the refinement grid is summed exactly from
        the extended values, the correction solved in double, until the
        correction reaches the floor the precision and the condition of the
        solve allow or stops shrinking."""
        n, L, bits = self.n, self.L, self.bits
        if n == 0:
            return
        th = self.nome.refine_theta
        phi = []
        for x in th:
            acc, base, e = 1 << bits, x, L
            while e:
                if e & 1:
                    acc = acc * base >> bits
                base = base * base >> bits
                e >>= 1
            phi.append(acc)
        scale = 1 << bits
        phi_d = np.array([x / scale for x in phi]).reshape(_REFINE_ROWS, 3)
        table = _table("refine", bits, self.F)
        args = np.add.outer(np.linspace(0.1, PI - 0.1, _REFINE_ROWS), _SHIFTS)
        G = np.stack(_basis([(js, ws.real, two_es) for js, ws, two_es in qc.bank], args), axis=-1)
        A = (phi_d[:, :, None] * G).sum(axis=1)
        weight = 1.0 / np.abs(A).max(axis=1)
        others = [k for k in range(n + 1) if k != pivot]
        # the least-squares solve through the complex SVD solve_q already uses
        u, sv, vh = np.linalg.svd((A[:, others] * weight[:, None]).astype(complex),
                                  full_matrices=False)
        solve = ((vh.conj().T / sv) @ u.conj().T).real
        floor = 2.0 ** (math.log2(qc.singular_values[0] / qc.singular_values[-2]) + 8 - bits)
        to_float = 1 << 3 * bits
        size = math.inf
        for _ in range(12):
            y = [v >> (self.w - bits) for v in self._y()]
            q = table.dots("A", (y, _operand(y)))
            rows = [sum(phi[3 * i + s] * q[3 * i + s] for s in range(3)) / to_float
                    for i in range(_REFINE_ROWS)]
            delta = -solve @ (np.array(rows) * weight)
            for k, d in zip(others, delta.tolist()):
                self.V[k] += int(math.ldexp(d, bits))
            last, size = size, float(np.abs(delta).max())
            if size <= floor or size >= last:
                break

    def _operand_for(self, order: int, real: bool) -> tuple:
        """(operand, its fractional bits) of q^(order): at ``bits`` bits for
        real points, and at ``w`` for complex ones, where cosh and sinh
        magnify the smallest weights."""
        if (order, real) not in self._operands:
            y = self._y()
            if order:
                y = [-(f**order) * v for f, v in enumerate(y)]
            if real:
                y = [v >> (self.w - self.bits) for v in y]
            self._operands[order, real] = (y, _operand(y)), self.bits if real else self.w
        return self._operands[order, real]

    def q_eval(self, u, order: int):
        """q_eval on this route: each value the exact sum over the table of
        its point, rounded once."""
        x = np.asarray(u)
        flat = x.ravel()
        table = _table((flat.dtype.str, flat.tobytes()), self.bits, self.F)
        op, op_bits = self._operand_for(order, table.real)
        scale = 1 << (self.bits + op_bits)
        re_kind, im_kind, im_sign = {0: ("A", "B", -1), 1: ("C", "D", 1), 2: ("A", "B", -1)}[order]
        re = [v / scale for v in table.dots(re_kind, op)]
        if table.real:
            vals = self.phase * np.array(re, dtype=complex)
        else:
            im = [im_sign * v / scale for v in table.dots(im_kind, op)]
            vals = self.phase * (np.array(re) + 1j * np.array(im))
        return complex(vals[0]) if x.ndim == 0 else vals.reshape(x.shape)

    def qfc(self) -> dict:
        """qfc_check wholly in extended precision, from the exact values of
        cos and sin at multiples of pi/3 and of cosh and sinh at pi tau/2."""
        nm, n, L, w = self.nome, self.n, self.L, self.w
        y = self._y()

        def q(j, order):
            # q^(order)(j pi / 3) at w bits
            if order == 1:
                total = -sum(f * v * _S6[f * j % 6] for f, v in enumerate(y))
                return total * nm.root3 >> (w + 1)
            return sum((-f * f if order else 1) * v * _C6[f * j % 6] for f, v in enumerate(y)) >> 1

        def mul(*xs):
            out = 1 << w
            for x in xs:
                out = out * x >> w
            return out

        q0, q0pp, q3, q3p, q3pp = q(0, 0), q(0, 2), q(1, 0), q(1, 1), q(1, 2)
        a1, a2 = nm.a1, nm.a2
        E = (2 * n + 3) * nm.r1 // 6 - 3 * n * nm.r3 - 9 * nm.r4 // 2
        qphi2 = q3pp + 2 * L * mul(a1, q3p) + mul(L * (L - 1) * mul(a1, a1) + L * a2, q3)
        lhs = ((2 * n + 3) * mul(q0pp, q3) + (2 * n - 1) * mul(q0, qphi2)
               + 2 * (2 * n + 1) * mul(E, q0, q3))
        # 3i q'(pi + pi tau/2) / q(pi tau/2) = 3 S / C, in powers of h
        S = C = 0
        for f, k, two_e, fac in self.freqs:
            lo, hi = nm.h_power(two_e - f), nm.h_power(two_e + f)
            C += fac * self.V[k] * (lo + hi)
            S += (-1) ** f * f * fac * self.V[k] * (lo - hi)
        alt = mul(nm.T3, nm.T3, q0, q(4, 0)) - mul(nm.T4, nm.T4, q(3, 0), q3)
        rhs = 3 * mul((S << w) // C, alt)
        residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
        phase2 = self.phase**2
        return {"lhs": phase2 * (lhs / (1 << w)), "rhs": phase2 * (rhs / (1 << w)),
                "residual": residual}


def _extend(qc: QCoefficients) -> QCoefficients:
    """Redo a cell on the extended route."""
    ext = _ExtendedQ(qc, _precision_bits(qc))
    return replace(qc, free=ext.coefficients(), route="extended", extended=ext)
