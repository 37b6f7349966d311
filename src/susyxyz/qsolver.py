"""Numerical construction of the supersymmetric Q-eigenvalue q(u) from its
three-term functional equation, and the downstream verifications.

q is an even entire function, 2 pi periodic, with the quasi-periodicity
q(u + pi tau) = exp(-iL(u + pi tau/2)) q(u) at L = 2n+1.  In Fourier form
the coefficients form a ladder c_{k+L} = p^{k+L/2} c_k over a base block of
L coefficients, which evenness cuts down to n+1 free ones.  The functional
equation sampled on a real grid then yields a homogeneous linear system
whose null space is one-dimensional; the solution is the smallest singular
vector, and the singular-value gap quantifies that one-dimensionality.

All verification quantities built here (Wronskian relation, the
differential-difference relation between q(u) and q(u + pi), its Taylor
corollary, and the correlation bridge) are invariant under rescaling the
solution vector, so no normalization is ever imposed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .thetanum import (
    PI,
    ThetaContext,
    expansion_E,
    expansion_radius,
    modular_values,
    theta,
    weierstrass_p,
)

__all__ = [
    "NullspaceDegenerate",
    "GridDegenerate",
    "QCoefficients",
    "solve_q",
    "q_eval",
    "functional_equation_residual",
    "alternant",
    "wronskian_checks",
    "ddt_check",
    "qfc_check",
    "f_from_q",
]

MULTIPLIER_CUT = 1e-30
GAP_THRESHOLD = 1e6


class NullspaceDegenerate(ArithmeticError):
    """Constraint matrix does not isolate a one-dimensional null space."""


class GridDegenerate(ArithmeticError):
    """Too few usable grid points away from the singular set."""


def _ladder_bank(n: int, tau: complex, cut: float = MULTIPLIER_CUT):
    """Per free index k: arrays (j >= 0, weight) so that the basis function
    is g_k(u) = sum_j weight_j cos(j u), with the quasi-periodicity ladder
    and evenness folded in."""
    L = 2 * n + 1

    def power(e):
        return cmath.exp(1j * PI * tau * e)

    bank = []
    for k in range(n + 1):
        freqs: dict[int, complex] = {}

        def put(j, mult):
            if j >= 0 and abs(mult) >= cut:
                freqs[j] = mult * (1.0 if j == 0 else 2.0)

        m = 0
        while True:
            e_up = m * k + L * m * m / 2.0        # j = k + mL
            e_dn = -m * k + L * m * m / 2.0       # j = -k + mL
            if m > 2 and min(e_up, e_dn) * PI * complex(tau).imag > 80.0:
                break
            put(k + m * L, power(e_up))
            put(-(k + m * L), power(e_up))        # mirror, same weight
            if k != 0:
                put(-k + m * L, power(e_dn))
                put(k - m * L, power(e_dn))
            m += 1
        items = sorted(freqs.items())
        bank.append(
            (np.array([j for j, _ in items]), np.array([w for _, w in items]))
        )
    return bank


@dataclass
class QCoefficients:
    """Solved Fourier data for q(u) at fixed n and tau."""

    n: int
    tau: complex
    free: np.ndarray            # c_0 .. c_n
    base: np.ndarray            # c_0 .. c_{L-1} via the evenness relation
    nullspace_gap: float
    singular_values: np.ndarray
    bank: list

    @property
    def L(self) -> int:
        return 2 * self.n + 1


def q_eval(qc: QCoefficients, u, order: int = 0):
    """q^(order)(u) by term-wise differentiation of the cosine series.

    ``u`` is a scalar or an array of arguments, real or complex.  A scalar
    gives a Python complex; an array gives a complex array of its shape, each
    element bit-identical to the scalar call at that argument.
    """
    x = np.asarray(u)
    total = 0j
    for ck, (js, ws) in zip(qc.free, qc.bank):
        arg = np.multiply.outer(x, js)
        if order == 0:
            basis = np.cos(arg)
        elif order == 1:
            basis = -js * np.sin(arg)
        elif order == 2:
            basis = -(js**2) * np.cos(arg)
        else:
            raise ValueError("orders 0..2 supported")
        total = total + ck * np.add.reduce(ws * basis, axis=-1)
    return complex(total) if x.ndim == 0 else total


def solve_q(n: int, tau: complex, n_samples: int | None = None,
            multiplier_cut: float = MULTIPLIER_CUT) -> QCoefficients:
    """Solve the three-term functional equation for the Fourier ladder.

    Rows sample the relation at real points away from the zeros of
    phi(u) = theta1(u|tau)^L and are normalized to unit magnitude; the
    smallest right singular vector is the solution.  The gap between the
    two smallest singular values certifies numerical one-dimensionality
    (for the single-column n = 0 case the gap is 1/sigma against the unit
    row scale).
    """
    L = 2 * n + 1
    ctx = ThetaContext(tau)
    bank = _ladder_bank(n, tau, cut=multiplier_cut)
    M = n_samples or max(4 * L, 48)
    args = np.add.outer(np.linspace(0.1, PI - 0.1, M), (0.0, 2 * PI / 3, -2 * PI / 3))
    phi = np.array([[theta(1, x, ctx) ** L for x in row] for row in args])
    A = np.zeros((M, n + 1), dtype=complex)
    scale = np.zeros(M)
    for k, (js, ws) in enumerate(bank):
        terms = phi * np.add.reduce(ws * np.cos(np.multiply.outer(args, js)), axis=-1)
        for i in range(3):
            A[:, k] += terms[:, i]
        scale = np.maximum(scale, np.abs(terms).max(axis=1))
    # normalize by the term scale, not the assembled row: rows in the
    # null direction are near zero by construction
    A /= np.maximum(scale, 1e-300)[:, None]
    _, sing, vh = np.linalg.svd(A, full_matrices=False)
    if n == 0:
        gap = 1.0 / sing[-1] if sing[-1] > 0 else math.inf
    else:
        gap = sing[-2] / sing[-1] if sing[-1] > 0 else math.inf
    if gap < GAP_THRESHOLD:
        raise NullspaceDegenerate(
            f"singular-value gap {gap:.2e} below {GAP_THRESHOLD:.0e} for n={n}, tau={tau}"
        )
    free = np.conj(vh[-1])
    p = cmath.exp(1j * PI * tau)
    base = np.zeros(L, dtype=complex)
    base[: n + 1] = free
    for k in range(1, n + 1):
        base[L - k] = p ** (L / 2 - k) * free[k]
    return QCoefficients(n=n, tau=tau, free=free, base=base,
                         nullspace_gap=float(gap), singular_values=sing, bank=bank)


def functional_equation_residual(qc: QCoefficients, us) -> float:
    """Max relative residual of the three-term relation at fresh points."""
    ctx = ThetaContext(qc.tau)
    L = qc.L
    args = np.add.outer(np.asarray(us), (0.0, 2 * PI / 3, -2 * PI / 3))
    worst = 0.0
    for row, qs in zip(args, q_eval(qc, args).tolist()):
        terms = [theta(1, x, ctx) ** L * q for x, q in zip(row, qs)]
        scale = max(abs(t) for t in terms)
        if scale > 0:
            worst = max(worst, abs(sum(terms)) / scale)
    return worst


def alternant(qc: QCoefficients, u: complex, v: complex) -> complex:
    """Phi(u, v): the antisymmetric combination of q at shifted arguments."""
    c32 = ThetaContext(qc.tau).scaled(1.5)
    return (
        theta(3, 3 * u / 2, c32) * theta(4, 3 * v / 2, c32)
        * q_eval(qc, u) * q_eval(qc, v + PI)
        - theta(4, 3 * u / 2, c32) * theta(3, 3 * v / 2, c32)
        * q_eval(qc, u + PI) * q_eval(qc, v)
    )


def _wronskian_constant(qc: QCoefficients) -> complex:
    ctx = ThetaContext(qc.tau)
    c32 = ctx.scaled(1.5)
    phi_third = theta(1, PI / 3, ctx) ** qc.L
    return -theta(2, 0.0, c32) * alternant(qc, PI, PI / 3) / (
        theta(1, 0.0, c32, 1) * phi_third
    )


def wronskian_checks(qc: QCoefficients, n_samples: int = 20) -> dict:
    """The quadratic Wronskian relation at sample points, all scale-free."""
    ctx = ThetaContext(qc.tau)
    c32 = ctx.scaled(1.5)
    L = qc.L
    W = _wronskian_constant(qc)
    us = np.linspace(0.07, PI - 0.07, n_samples)
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
        "ok": worst < 1e-8 and instance < 1e-8,
    }


def _weight_functions(qc: QCoefficients, u: complex, q0: complex, q1: complex,
                      q2: complex, q_pi: complex):
    """F, F'' and the companion G entering the differential-difference
    relation, with all derivatives analytic (no numerical differentiation),
    from q, q', q'' at u and q at u + pi."""
    n, tau, L = qc.n, qc.tau, qc.L
    ctx = ThetaContext(tau)
    c3 = ctx.scaled(3)
    c32 = ctx.scaled(1.5)
    th = theta(1, u, ctx)
    th1 = theta(1, u, ctx, 1)
    th2 = theta(1, u, ctx, 2)
    phi = th**L
    phi1 = L * th ** (L - 1) * th1
    phi2 = L * (L - 1) * th ** (L - 2) * th1**2 + L * th ** (L - 1) * th2
    N = phi * q0
    N1 = phi1 * q0 + phi * q1
    N2 = phi2 * q0 + 2 * phi1 * q1 + phi * q2
    T1 = theta(1, 3 * u, c3)
    T1p = 3 * theta(1, 3 * u, c3, 1)
    T1pp = 9 * theta(1, 3 * u, c3, 2)
    T3 = theta(3, 3 * u / 2, c32)
    T3p = 1.5 * theta(3, 3 * u / 2, c32, 1)
    T3pp = 2.25 * theta(3, 3 * u / 2, c32, 2)
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
    G = theta(4, 3 * u / 2, c32) * phi * q_pi / (T1**n * T3**2)
    return F, F2, G


def _potential(n: int, tau: complex, u: complex) -> complex:
    return n * (n + 1) * weierstrass_p(u, PI / 3, PI * tau) + 2 * weierstrass_p(
        u + PI + PI * tau / 2, 2 * PI / 3, PI * tau
    )


def ddt_check(qc: QCoefficients, n_points: int = 24) -> dict:
    """Fit (alpha, beta) in the relation (d^2/du^2 - V - alpha) F = beta G
    from two grid points and report the residual on the rest, plus the
    closed form of beta."""
    n, tau = qc.n, qc.tau
    singular = (0.0, PI / 3, 2 * PI / 3, PI)
    grid = [
        u for u in np.linspace(0.12, PI - 0.12, n_points)
        if min(abs(u - s) for s in singular) > 0.1
    ]
    if len(grid) < 4:
        raise GridDegenerate("not enough grid points clear of the singular set")
    us = np.array(grid)
    qs = zip(*(q_eval(qc, us, order).tolist() for order in (0, 1, 2)),
             q_eval(qc, us + PI).tolist())
    rows = []
    for u, q in zip(grid, qs):
        F, F2, G = _weight_functions(qc, u, *q)
        V = _potential(n, tau, u)
        rows.append((F, G, F2 - V * F, abs(F2) + abs(V * F)))

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
    c32 = ThetaContext(tau).scaled(1.5)
    beta_closed = (
        -3j * theta(3, 0.0, c32) * theta(4, 0.0, c32)
        * q_eval(qc, PI + PI * tau / 2, 1) / q_eval(qc, PI * tau / 2)
    )
    return {
        "alpha": alpha,
        "beta": beta,
        "residual": worst,
        "fit_variation": fit_variation,
        "beta_closed_residual": abs(beta - beta_closed) / abs(beta_closed),
        "ok": worst < 1e-7,
    }


def qfc_check(qc: QCoefficients) -> dict:
    """Taylor corollary of the differential-difference relation; both sides
    quadratic in q, hence scale-free."""
    n, tau = qc.n, qc.tau
    ctx = ThetaContext(tau)
    E = expansion_E(n, ctx, expansion_radius(tau))
    th = theta(1, PI / 3, ctx)
    th1 = theta(1, PI / 3, ctx, 1)
    th2 = theta(1, PI / 3, ctx, 2)
    L = qc.L
    phi = th**L
    phi1 = L * th ** (L - 1) * th1
    phi2 = L * (L - 1) * th ** (L - 2) * th1**2 + L * th ** (L - 1) * th2
    q_third = q_eval(qc, PI / 3)
    qphi2 = q_eval(qc, PI / 3, 2) * phi + 2 * q_eval(qc, PI / 3, 1) * phi1 + q_third * phi2
    lhs = (
        (2 * n + 3) * q_eval(qc, 0.0, 2) * q_third
        + (2 * n - 1) * q_eval(qc, 0.0) * qphi2 / phi
        + 2 * (2 * n + 1) * E * q_eval(qc, 0.0) * q_third
    )
    rhs = 3j * q_eval(qc, PI + PI * tau / 2, 1) / q_eval(qc, PI * tau / 2) * alternant(
        qc, 0.0, PI / 3
    )
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    return {"lhs": lhs, "rhs": rhs, "residual": residual, "ok": residual < 1e-7}


def f_from_q(qc: QCoefficients) -> complex:
    """The correlation quantity assembled from the solved q alone; the
    bridge between the numeric Q-pipeline and the exact tau pipeline."""
    n, tau = qc.n, qc.tau
    mv = modular_values(tau)
    g = mv.gamma
    c32 = ThetaContext(tau).scaled(1.5)
    ratio_theta = theta(1, 0.0, c32, 1) / theta(2, 0.0, c32)
    ratio_phi = alternant(qc, 0.0, PI / 3) / alternant(qc, PI, PI / 3)
    ratio_q = q_eval(qc, PI + PI * tau / 2, 1) / q_eval(qc, PI * tau / 2)
    first = (g**2 - 3) * (g**2 + 3) / (g**2 - 1) ** 2
    second = (
        3j * (g**2 + 3) / ((2 * n + 1) * mv.chi * (g - 1) ** 2)
        * ratio_theta * ratio_phi * ratio_q
    )
    return first - second
