"""Painleve VI over the rational-function field in the uniformizing variable
s: Hamiltonian, parameter-shifting transformation, the algebraic seed orbit,
and the identities tying the sixth Painleve Hamiltonian to f_n.

Points carry (q, p) as exact rational functions of s together with the
shared time curve t = s(s+2)^3/(2s+1)^3.  Applying the transformation shifts
the parameter vector by (-1, 0, +1, -1, 0); the new momentum is
reconstructed from the defining relation between p, q and dq/dt at the
shifted parameters.  The Hamilton residuals certify that reconstruction
symbolically at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

from .corrfn import f_in_Z
from .exactcore import (
    DivisionByZeroPoly,
    Poly,
    RatFunc,
    ratfunc_compose,
    ratfunc_simplify,
    variable,
)

__all__ = [
    "SingularTransform",
    "PVIParams",
    "PVIPoint",
    "seed",
    "hamiltonian",
    "apply_T",
    "iterate_T",
    "hamilton_residuals",
    "fpqp_residual",
    "factorization_check",
    "pvi_ode_residual",
    "Z_OF_S",
    "f_in_s",
    "pvi_verify",
]


class SingularTransform(ArithmeticError):
    """The transformation hit an identically vanishing denominator."""


_S = variable("s")

#: time curve shared by every point of the orbit
T_OF_S = ratfunc_simplify(_S * (_S + 2) ** 3, (2 * _S + 1) ** 3)

#: the symmetric invariant Z expressed through s
Z_OF_S = ratfunc_simplify(
    (_S - 1) ** 4 * (_S + 2) * (2 * _S + 1), _S * (_S + 1) ** 4
)

#: dt/ds, the chain-rule factor of every t-derivative along the orbit
DT_DS = T_OF_S.derivative()

#: the n-independent parts of `fpqp_residual`'s Hamiltonian expression for
#: f_n: the leading term, and the prefactor of H before its 1/(2n+1)^2
_FPQP_FIRST = ratfunc_simplify((_S * _S + _S + 1) * (_S * _S + 4 * _S + 1), (_S + 1) ** 4)
_FPQP_PREF = ratfunc_simplify(4 * (2 * _S + 1) ** 3 * (_S * _S + 4 * _S + 1), _S * (_S + 1) ** 4)


@dataclass(frozen=True)
class PVIParams:
    """Parameter vector (a0..a4) subject to a0 + a1 + 2 a2 + a3 + a4 = 1."""

    a0: Fraction
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction

    def __post_init__(self):
        for f in "a0 a1 a2 a3 a4".split():
            object.__setattr__(self, f, Fraction(getattr(self, f)))
        total = self.a0 + self.a1 + 2 * self.a2 + self.a3 + self.a4
        if total != 1:
            raise ValueError(f"parameter constraint violated: sum={total}")

    def shifted(self) -> "PVIParams":
        return PVIParams(self.a0 - 1, self.a1, self.a2 + 1, self.a3 - 1, self.a4)


@dataclass(frozen=True)
class PVIPoint:
    q: RatFunc
    p: RatFunc
    t: RatFunc
    params: PVIParams


def seed() -> PVIPoint:
    """The algebraic solution with a2 = 1/2 and all other parameters zero."""
    q0 = ratfunc_simplify(_S * (_S + 2), 2 * _S + 1)
    p0 = ratfunc_simplify(
        -(2 * _S + 1), 2 * (_S - 1) * (_S + 2)
    )
    return PVIPoint(q=q0, p=p0, t=T_OF_S, params=PVIParams(0, 0, Fraction(1, 2), 0, 0))


def _H(q, p, t, prm: PVIParams):
    """The Painleve VI Hamiltonian polynomial; generic over RatFunc, Fraction
    or int, with parameters from any object carrying a0..a4."""
    return (
        q * (q - 1) * (q - t) * p * p
        - ((prm.a0 - 1) * q * (q - 1) + prm.a3 * q * (q - t) + prm.a4 * (q - 1) * (q - t)) * p
        + prm.a2 * (prm.a1 + prm.a2) * (q - t)
    )


def _dH_dp(q, p, t, prm: PVIParams):
    # hand-expanded from _H once; certified by the Hamilton residuals
    return (
        2 * q * (q - 1) * (q - t) * p
        - ((prm.a0 - 1) * q * (q - 1) + prm.a3 * q * (q - t) + prm.a4 * (q - 1) * (q - t))
    )


def _dH_dq(q, p, t, prm: PVIParams):
    return (
        p * p * (3 * q * q - 2 * (1 + t) * q + t)
        - p * ((prm.a0 - 1) * (2 * q - 1) + prm.a3 * (2 * q - t) + prm.a4 * (2 * q - 1 - t))
        + prm.a2 * (prm.a1 + prm.a2)
    )


def hamiltonian(point: PVIPoint, params: PVIParams | None = None) -> RatFunc:
    """H(q, p, t) at the point, optionally with replaced parameters."""
    return _H(point.q, point.p, point.t, params or point.params)


def _reconstruct_p(q: RatFunc, t: RatFunc, prm: PVIParams) -> RatFunc:
    """Momentum from q, dq/dt and the parameters."""
    dq_dt = q.derivative() / DT_DS
    try:
        return (
            prm.a4 / q
            + prm.a3 / (q - 1)
            + (prm.a0 - 1) / (q - t)
            + t * (t - 1) / (q * (q - 1) * (q - t)) * dq_dt
        ) * Fraction(1, 2)
    except DivisionByZeroPoly as exc:
        raise SingularTransform(str(exc)) from exc


def apply_T(point: PVIPoint) -> PVIPoint:
    """One parameter-shifting step: new q by the birational rule, new p
    reconstructed from the shifted parameters."""
    q, p, t, prm = point.q, point.p, point.t, point.params
    pq = p * q
    den = (pq + prm.a2) * (pq + prm.a1 + prm.a2)
    if den.is_zero():
        raise SingularTransform("transformation denominator vanishes identically")
    q_new = t * p * (pq - prm.a4) / den
    prm_new = prm.shifted()
    p_new = _reconstruct_p(q_new, t, prm_new)
    return PVIPoint(q=q_new, p=p_new, t=t, params=prm_new)


_orbit: list[PVIPoint] = []


def iterate_T(n: int) -> PVIPoint:
    """T^n applied to the seed (memoized)."""
    if n < 0:
        raise ValueError("orbit index must be >= 0")
    if not _orbit:
        _orbit.append(seed())
    while len(_orbit) <= n:
        _orbit.append(apply_T(_orbit[-1]))
    return _orbit[n]


def hamilton_residuals(point: PVIPoint) -> tuple[RatFunc, RatFunc]:
    """t(t-1) dq/dt - dH/dp and t(t-1) dp/dt + dH/dq; both must vanish."""
    q, p, t, prm = point.q, point.p, point.t, point.params
    tt1 = t * (t - 1)
    r1 = tt1 * (q.derivative() / DT_DS) - _dH_dp(q, p, t, prm)
    r2 = tt1 * (p.derivative() / DT_DS) + _dH_dq(q, p, t, prm)
    return r1, r2


def f_in_s(n: int) -> RatFunc:
    """f_n transported to the uniformizing variable s."""
    return ratfunc_compose(f_in_Z(n), Z_OF_S)


def _shifted_hamiltonian_params(n: int) -> PVIParams:
    return PVIParams(
        Fraction(1, 2) - n, 0, Fraction(1, 2) + n, -Fraction(1, 2) - n, 0
    )


def fpqp_residual(n: int) -> RatFunc:
    """Difference between the Hamiltonian expression for f_n and the
    tau-function expression, as a rational function of s; contract: zero."""
    point = iterate_T(n)
    L2 = (2 * n + 1) ** 2
    Hp = _H(point.q, point.p, point.t, _shifted_hamiltonian_params(n))
    pref = _FPQP_PREF * Fraction(1, L2)
    rhs = _FPQP_FIRST - pref * (Hp + Fraction(L2, 4) * point.t)
    return rhs - f_in_s(n)


def factorization_check(ns=range(6)) -> dict:
    """Exact grid test of the factorized form of the shifted Hamiltonian,

        H(q, p, t) + (2n+1)^2 t / 4 = (p(q-1) + n + 1/2)(p(q-t) + n + 1/2) q.

    Both sides are polynomials in free (q, p, t) of per-variable degree at
    most 4, so agreement on a 5x5x5 integer grid decides the identity.  Both
    sides are scaled by 4 so that the grid runs in integers:
    4 H(q, p, t; a) = H(q, 2p, t; a') with a' = (2 a0 - 1, 2 a1, 2 a2, 2 a3,
    2 a4), integral at the shifted parameters.  An empty ns raises
    ValueError: a verdict over no n would check nothing.
    """
    ns = list(ns)
    if not ns:
        raise ValueError("factorization_check needs at least one n")
    results = {}
    for n in ns:
        prm = _shifted_hamiltonian_params(n)
        scaled = (2 * prm.a0 - 1, 2 * prm.a1, 2 * prm.a2, 2 * prm.a3, 2 * prm.a4)
        if any(x.denominator != 1 for x in scaled):
            raise ValueError(f"shifted parameters at n={n} are not half-integers")
        a = SimpleNamespace(**dict(zip(("a0", "a1", "a2", "a3", "a4"), map(int, scaled))))
        m = 2 * n + 1  # 2 (n + 1/2)
        results[n] = all(
            _H(q, 2 * p, t, a) + m * m * t == (2 * p * (q - 1) + m) * (2 * p * (q - t) + m) * q
            for q, p, t in product(range(5), repeat=3)
        )
    return {"ok": all(results.values()), "per_n": results}


def pvi_ode_residual(point: PVIPoint) -> RatFunc:
    """Residual of the second-order algebraic Painleve VI equation for q(t),
    via the chain rule through s; zero for genuine solutions."""
    q, t, prm = point.q, point.t, point.params
    q_t = q.derivative() / DT_DS
    q_tt = q_t.derivative() / DT_DS
    al = prm.a1**2 / 2
    be = -(prm.a4**2) / 2
    ga = prm.a3**2 / 2
    de = (1 - prm.a0**2) / 2
    rhs = (
        Fraction(1, 2) * (1 / q + 1 / (q - 1) + 1 / (q - t)) * q_t * q_t
        - (1 / t + 1 / (t - 1) + 1 / (q - t)) * q_t
        + q * (q - 1) * (q - t) / (t * t * (t - 1) ** 2)
        * (al + be * t / (q * q) + ga * (t - 1) / (q - 1) ** 2
           + de * t * (t - 1) / (q - t) ** 2)
    )
    return q_tt - rhs


def _serialize(r: RatFunc) -> str:
    return f"{r.num}/{r.den}"


#: pvi_verify runs the Painleve VI equation residual, the costliest
#: certificate, only up to this n
ODE_N_MAX = 2


def pvi_verify(n_max: int = 5) -> dict:
    """All symbolic certificates up to n_max, serialized for the CLI; the
    ODE residual only up to ODE_N_MAX.

    Residual rational functions serialize as "num/den"; every residual in a
    passing report is the literal string "0/1".  n_max < 0 raises
    ValueError, as the report would check nothing.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    report = {"ok": True, "orbit": []}
    for n in range(n_max + 1):
        point = iterate_T(n)
        r1, r2 = hamilton_residuals(point)
        fr = fpqp_residual(n)
        entry = {
            "n": n,
            "params": [str(getattr(point.params, f)) for f in ("a0", "a1", "a2", "a3", "a4")],
            "hamilton_residuals": [_serialize(r1), _serialize(r2)],
            "hamiltonian_bridge_residual": _serialize(fr),
            "ok": r1.is_zero() and r2.is_zero() and fr.is_zero(),
        }
        if n <= ODE_N_MAX:
            ode = pvi_ode_residual(point)
            entry["ode_residual"] = _serialize(ode)
            entry["ok"] = entry["ok"] and ode.is_zero()
        report["ok"] = report["ok"] and entry["ok"]
        report["orbit"].append(entry)
    fact = factorization_check(range(n_max + 1))
    report["factorization"] = fact
    report["ok"] = report["ok"] and fact["ok"]
    return report
