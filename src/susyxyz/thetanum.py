"""Numerical Jacobi theta functions with derivatives, Weierstrass P, modular
parameter maps, the theta-identity regression suite, and the Baxter-series
route to the infinite-lattice limit.

All evaluations are double precision with explicit truncation control.  The
Fourier and product expansions of the theta functions serve as mutual
oracles, and every identity used elsewhere in the package is exercised here
at randomized arguments.

``theta`` is memoised in a bounded LRU cache of 256 entries keyed by
(j, u, ctx, order).  The Q pipeline evaluates its n-independent grids
(solve, fresh-point and differential-difference sample points, the last
with its Weierstrass P terms) once per nome through the list forms of
``theta`` and ``weierstrass_p`` and keeps the values itself, and the
identity suite evaluates each theta_j over all its samples by one list
call, so the memo serves the scattered scalar calls.  Over the benchmark's
q-sweep at seed 0 (30 820 calls), 256 entries serve 92.7 % of the calls
from the cache, as do 128, 512 and 4096; 64 entries serve 92.1 % and 32
entries 54.8 %.  The 2 252 misses left are the first call at each key
(4096 entries end with 2 252 of them filled), and seeds 1 and 3 read the
same.
A hit returns the value the series computed, so results are bit-identical
with or without the memo; arguments that compare equal but differ in type
(float and numpy float64) or in the sign of a zero also get the same bits
from the series.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import random
from dataclasses import dataclass, field

__all__ = [
    "TruncationFailure",
    "LatticePoint",
    "CrossCheckFailure",
    "SeriesDivergence",
    "ThetaContext",
    "theta_context",
    "theta",
    "theta_product",
    "qpochhammer",
    "weierstrass_p",
    "ModularValues",
    "modular_values",
    "zeta_of_eta",
    "gamma_of_eta",
    "eta_derivative",
    "identity_suite",
    "identity_report",
    "LEMMA_RESIDUALS",
    "LEMMA_TOLERANCE",
    "IDENTITY_TOLERANCE",
    "expansion_E",
    "baxter_f_infinity",
]

PI = math.pi

#: the relative bound of modular_values' cross-checks; identity_report's
#: bounds (see LEMMA_RESIDUALS) and the number of seeded argument tuples of
#: identity_suite; the bound on baxter_f_infinity's series against the
#: closed form
MODULAR_TOLERANCE = 1e-12
LEMMA_TOLERANCE = 1e-10
IDENTITY_TOLERANCE = 1e-11
IDENTITY_SAMPLES = 20
BAXTER_TOLERANCE = 1e-9


class TruncationFailure(ArithmeticError):
    """Theta series failed to converge within max_terms."""


class LatticePoint(ArithmeticError):
    """Weierstrass P requested on (or too near) a lattice point."""


class CrossCheckFailure(ArithmeticError):
    """Redundant modular-value formulas disagree beyond tolerance."""


class SeriesDivergence(ArithmeticError):
    """Baxter series parameters outside the convergence region."""


@dataclass(frozen=True)
class ThetaContext:
    """Nome data and truncation policy for theta evaluations."""

    tau: complex
    eps: float = 1e-15
    max_terms: int = 64
    #: q = exp(i pi tau)
    nome: complex = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if complex(self.tau).imag <= 0:
            raise ValueError("tau must lie in the upper half-plane")
        # theta's memo hashes its context on every call: both values are
        # fixed here
        object.__setattr__(self, "nome", cmath.exp(1j * PI * self.tau))
        object.__setattr__(self, "_hash", hash((self.tau, self.eps, self.max_terms)))

    def __hash__(self) -> int:
        return self._hash

    def scaled(self, factor) -> "ThetaContext":
        return theta_context(self.tau * factor, self.eps, self.max_terms)


def theta_context(tau: complex, eps: float = 1e-15, max_terms: int = 64) -> ThetaContext:
    """The one shared ThetaContext per (tau, eps, max_terms).

    theta's memo compares its key with the stored one on every hit; with
    the same context object that comparison is an identity check, while an
    equal but distinct context runs the dataclass ``__eq__``.  Every
    context the package builds comes from here (``scaled`` too)."""
    return _interned_context(complex(tau), eps, max_terms)


# the cache sizes here and in qsolver are at least their working sets: the
# smallest LRU size that keeps every hit of a q-sweep benchmark child
# (seeds 0, 1, 3) is 7 contexts and 44 term lists
@functools.lru_cache(maxsize=32)
def _interned_context(tau: complex, eps: float, max_terms: int) -> ThetaContext:
    return ThetaContext(tau, eps, max_terms)


@functools.lru_cache(maxsize=64)
def _theta_terms(j: int, ctx: ThetaContext, order: int) -> list:
    """The u-independent factors of the terms of theta_j^(order) at ctx, as
    (m, coefficient, magnitude at Im u = 0): filled in by _theta_series as
    far as any argument has needed them."""
    return []


def _theta_series(j: int, us, ctx: ThetaContext, order: int) -> list[complex]:
    """theta_j^(order) at each argument of the sequence ``us``: the one
    Fourier series behind ``theta``.  Each argument stops at the term where
    its own convergence test is met, so an element has the bits of a call
    with that argument alone."""
    if j not in (1, 2, 3, 4):
        raise ValueError("theta index must be 1..4")
    if not 0 <= order <= 4:
        raise ValueError("derivative order must be 0..4")
    p = ctx.nome
    ap = abs(p)
    eps = ctx.eps
    wave = cmath.sin if j == 1 else cmath.cos
    off = order * PI / 2
    start, scale0 = (1.0 + 0j, 1.0) if j in (3, 4) and order == 0 else (0j, 0.0)
    terms = _theta_terms(j, ctx, order)
    out = []
    for u in us:
        im = abs(complex(u).imag)
        acc, scale, good = start, scale0, 0
        k = 0
        while True:
            if k == len(terms):
                if k == ctx.max_terms:
                    raise TruncationFailure(
                        f"theta_{j} series did not converge (tau={ctx.tau}, u={u}, order={order})"
                    )
                if j in (1, 2):
                    m = 2 * k + 1
                    e = (k + 0.5) ** 2
                    sign = (-1) ** k if j == 1 else 1
                    terms.append((m, 2.0 * sign * p ** e * m**order, 2.0 * ap ** e * m**order))
                else:
                    kk = k + 1
                    m = 2 * kk
                    sign = (-1) ** kk if j == 4 else 1
                    terms.append((m, 2.0 * sign * p ** (kk**2) * m**order,
                                  2.0 * ap ** (kk**2) * m**order))
            m, coef, mag0 = terms[k]
            k += 1
            acc += coef * wave(m * u + off)
            # exp(0) is 1.0 exactly, so a real argument skips it
            mag = mag0 * math.exp(m * im) if im else mag0
            a = abs(acc)
            if a > scale:
                scale = a
            if mag > scale:
                scale = mag
            if mag <= eps * (scale if scale > 1e-300 else 1e-300):
                good += 1
                if good == 2:
                    break
            else:
                good = 0
        out.append(acc)
    return out


# 256 entries serve as many calls as 4096 (see the module docstring)
@functools.lru_cache(maxsize=256)
def _theta_memo(j: int, u: complex, ctx: ThetaContext, order: int) -> complex:
    return _theta_series(j, (u,), ctx, order)[0]


def theta(j: int, u, ctx: ThetaContext, order: int = 0):
    """theta_j^(order)(u | tau), by term-wise differentiated Fourier series.

    Supported orders 0..4.  Raises TruncationFailure when the bound on the
    next term has not dropped below eps * (scale of the sum) within
    max_terms terms.  A number ``u`` gives a complex, memoised per
    (j, u, ctx, order); an exception is not, so a failing call raises every
    time.  A list of arguments gives a list, unmemoised, each element
    bit-identical to the call with that argument alone.
    """
    if isinstance(u, list):
        return _theta_series(j, u, ctx, order)
    return _theta_memo(j, u, ctx, order)


theta.cache_info = _theta_memo.cache_info
theta.cache_clear = _theta_memo.cache_clear
theta.__wrapped__ = _theta_memo.__wrapped__


def qpochhammer(a: complex, q: complex, eps: float = 1e-16, max_terms: int = 512) -> complex:
    """(a; q)_infinity = prod_{k>=0} (1 - a q^k), |q| < 1."""
    if abs(q) >= 1:
        raise ValueError("q-Pochhammer needs |q| < 1")
    out = 1.0 + 0j
    term = complex(a)
    for _ in range(max_terms):
        out *= 1.0 - term
        term *= q
        if abs(term) < eps:
            return out * (1.0 - term / (1.0 - q))  # first-order tail estimate
    raise TruncationFailure("q-Pochhammer did not converge")


def theta_product(j: int, u: complex, ctx: ThetaContext) -> complex:
    """theta_j by the infinite product expansion (independent oracle)."""
    p = ctx.nome
    p2 = p * p
    e = cmath.exp(2j * u)
    if j == 1:
        pref = 1j * cmath.exp(1j * PI * ctx.tau / 4 - 1j * u)
        return pref * qpochhammer(p2, p2) * qpochhammer(e, p2) * qpochhammer(p2 / e, p2)
    if j == 2:
        pref = cmath.exp(1j * PI * ctx.tau / 4 - 1j * u)
        return pref * qpochhammer(p2, p2) * qpochhammer(-e, p2) * qpochhammer(-p2 / e, p2)
    if j == 3:
        return qpochhammer(p2, p2) * qpochhammer(-p * e, p2) * qpochhammer(-p / e, p2)
    if j == 4:
        return qpochhammer(p2, p2) * qpochhammer(p * e, p2) * qpochhammer(p / e, p2)
    raise ValueError("theta index must be 1..4")


# -- Weierstrass P ------------------------------------------------------

def weierstrass_p(u, w1: complex, w2: complex):
    """Weierstrass P for the lattice Z*w1 + Z*w2, normalized so the
    expansion at 0 is 1/u^2 + O(u^2) (no constant term).

    Built from the second logarithmic derivative of theta_1; the additive
    constant is theta_1'''(0)/(3 theta_1'(0)) scaled to the lattice, which
    is exactly the coefficient the no-constant-term normalization fixes.
    A list of arguments gives a list, with theta_1 and its two derivatives
    at all of them by one list call each, element by element the bits of
    the call with that argument alone; an element on the lattice raises
    LatticePoint as that call would.
    """
    ratio = w2 / w1
    if ratio.imag == 0:
        raise ValueError("degenerate period lattice")
    if ratio.imag < 0:
        w1, w2 = w2, w1
        ratio = w2 / w1
    ctx = theta_context(ratio)
    v = [PI * x / w1 for x in u] if isinstance(u, list) else PI * u / w1
    c = theta(1, 0.0, ctx, 3) / (3.0 * theta(1, 0.0, ctx, 1))

    def value(x, t1, t1p, t1pp):
        if abs(t1) < 1e-12 * max(abs(t1p), 1.0):
            raise LatticePoint(f"{x} is on (or too near) the period lattice")
        return (PI / w1) ** 2 * ((t1p / t1) ** 2 - t1pp / t1 + c)

    return _each(value, u, *(theta(1, v, ctx, order) for order in (0, 1, 2)))


# -- modular parameter maps ---------------------------------------------

def _on_doubled(j: int, eta, tau: complex):
    """theta_j(2 eta | 2 tau): a number for a number, a list for a list."""
    two = [2 * e for e in eta] if isinstance(eta, list) else 2 * eta
    return theta(j, two, theta_context(2 * tau))


def _each(f, *values):
    """f of the values, or f element by element when they are lists."""
    if isinstance(values[0], list):
        return [f(*row) for row in zip(*values)]
    return f(*values)


def zeta_of_eta(eta, tau: complex):
    """Transfer-matrix invariant zeta as a function of the crossing parameter.
    A list of crossing parameters gives a list, element by element the bits
    of the call with that parameter alone."""
    return _each(lambda t1, t4: (t1 / t4) ** 2, _on_doubled(1, eta, tau), _on_doubled(4, eta, tau))


def gamma_of_eta(eta, tau: complex):
    """Transfer-matrix invariant Gamma as a function of the crossing
    parameter; a list gives a list, as for zeta_of_eta."""
    c2 = theta_context(2 * tau)
    z2, z3, z4 = (theta(j, 0.0, c2) for j in (2, 3, 4))
    return _each(lambda t2, t3, t4: t2 * t3 * z4 ** 2 / (z2 * z3 * t4 ** 2),
                 *(_on_doubled(j, eta, tau) for j in (2, 3, 4)))


def eta_derivative(fn, eta0: float, h: float = 1e-5):
    """Central difference with one Richardson level."""
    d1 = (fn(eta0 + h) - fn(eta0 - h)) / (2 * h)
    d2 = (fn(eta0 + h / 2) - fn(eta0 - h / 2)) / h
    return (4 * d2 - d1) / 3


@dataclass(frozen=True)
class ModularValues:
    """The parameter bundle at crossing parameter pi/3 for a given tau."""

    zeta: complex
    Gamma: complex
    z: complex
    gamma_sq: complex
    chi: complex
    #: (name, relative residual) of each redundant pair of formulas
    residuals: tuple

    @property
    def gamma(self) -> complex:
        return (self.zeta + 3) / (self.zeta - 1)


def modular_values(tau: complex) -> ModularValues:
    """All modular quantities at eta = pi/3, with redundant formulas
    cross-checked against each other to MODULAR_TOLERANCE; each pair's
    relative residual is kept in ``residuals``."""
    ctx = theta_context(tau)
    ch = ctx.scaled(0.5)
    zeta = zeta_of_eta(PI / 3, tau)
    Gamma = gamma_of_eta(PI / 3, tau)
    t = [None] + [theta(j, PI / 3, ctx) for j in range(1, 5)]
    t0 = [None] + [theta(j, 0.0, ctx) for j in range(1, 5)]
    z = -theta(2, 0.0, ch) * theta(3, PI / 3, ch) / (theta(3, 0.0, ch) * theta(2, PI / 3, ch))
    chi = (theta(1, 0.0, ctx, 1) * t[2] / (t[1] * t0[2])) ** 2
    gamma = (zeta + 3) / (zeta - 1)
    checks = {
        "zeta_two_representations": (zeta, (t[1] * t[2] / (t[3] * t[4])) ** 2),
        "one_plus_zeta": (1 + zeta, 2 * t[2] * t0[3] / (t0[2] * t[3])),
        "one_minus_zeta": (1 - zeta, 2 * t[2] * t0[4] / (t0[2] * t[4])),
        "three_plus_zeta": (3 + zeta, 2 * t[1] ** 2 * t0[4] * t[4] / (t0[2] * t[2] * t[3] ** 2)),
        "three_minus_zeta": (3 - zeta, 2 * t[1] ** 2 * t0[3] * t[3] / (t0[2] * t[2] * t[4] ** 2)),
        "gamma_sq_from_z": (gamma**2, (1 - z) * (1 + 2 * z) / (1 + z)),
        "susy_Gamma": (Gamma, (zeta**2 - 1) / 2),
    }
    for name, (a, b) in checks.items():
        if abs(a - b) > MODULAR_TOLERANCE * max(abs(a), abs(b), 1.0):
            raise CrossCheckFailure(f"{name}: {a} vs {b}")
    return ModularValues(zeta=zeta, Gamma=Gamma, z=z, gamma_sq=gamma**2, chi=chi,
                         residuals=tuple((name, _rel(a, b)) for name, (a, b) in checks.items()))


# -- identity regression suite ------------------------------------------

def _rel(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)


def _rand_u(rng: random.Random, tau: complex) -> complex:
    return rng.uniform(-3.0, 3.0) + 1j * rng.uniform(-0.4, 0.4) * abs(tau)


#: identity_suite entries built from chains of theta evaluations
#: (finite-difference eta derivatives, Taylor-coefficient ratios, removable
#: 0/0 limits raised to powers, couplings at generic eta), whose round-off
#: exceeds that of one identity: they are held to LEMMA_TOLERANCE, the rest
#: to IDENTITY_TOLERANCE.
LEMMA_RESIDUALS = frozenset({
    "coupling_combination_product",
    "eta_derivative_determinant",
    "taylor_combination",
    "prefactor_chain",
})


def identity_suite(tau: complex, seed: int = 0) -> dict:
    """Max relative residual of every theta identity the package relies on,
    at IDENTITY_SAMPLES seeded pseudo-random argument tuples.

    The tuples are drawn first, (u, x, y, v, w, eta) per sample, and each
    theta value the samples need is evaluated for all of them by one list
    call; the residuals are then tallied sample by sample, so each one, and
    the order of the keys, is what one scalar call per value would give."""
    rng = random.Random(seed)
    ctx = theta_context(tau)
    c2 = ctx.scaled(2)
    ch = ctx.scaled(0.5)
    c3 = ctx.scaled(3)
    p = ctx.nome
    res: dict[str, float] = {}

    def tally(name, value):
        res[name] = max(res.get(name, 0.0), value)

    # argument-free identities
    tally("theta1_prime_triple_product",
          _rel(theta(1, 0.0, ctx, 1), theta(2, 0.0, ctx) * theta(3, 0.0, ctx) * theta(4, 0.0, ctx)))
    num = theta(2, PI / 3, ctx) * theta(3, PI / 3, ctx) * theta(4, PI / 3, ctx)
    den = theta(2, 0.0, ctx) * theta(3, 0.0, ctx) * theta(4, 0.0, ctx)
    tally("third_point_ratio_half", _rel(num / den, 0.5))

    mv = modular_values(tau)
    # the modular_values cross-checks of the theta forms, as reportable residuals
    for name, r in mv.residuals:
        if name != "susy_Gamma":
            tally(name, r)

    tripl_pref = qpochhammer(p**6, p**6) / qpochhammer(p**2, p**2) ** 3

    draws = []
    for _ in range(IDENTITY_SAMPLES):
        u = _rand_u(rng, tau)
        x, y, v, _w = (_rand_u(rng, tau) for _ in range(4))
        draws.append((u, x, y, v, rng.uniform(0.2, 1.3)))
    us, xs, ys, vs, etas = (list(col) for col in zip(*draws))

    def th(j, args, c=ctx, order=0):
        return theta(j, args, c, order)

    def at(op, a, b):
        return [op(s, t) for s, t in zip(a, b)]

    def scaled(k, a):
        return [k * s for s in a]

    # every theta value the samples need, one list call per (j, argument)
    tu = [None] + [th(j, us) for j in range(1, 5)]
    tu_c2 = [None] + [th(j, us, c2) for j in range(1, 5)]
    mod4 = th(4, [s / tau for s in us], theta_context(-1 / tau))
    u2 = scaled(2, us)
    t1_2u_c2, t4_2u_c2, t1_2u = th(1, u2, c2), th(4, u2, c2), th(1, u2)
    trip = [None] + [(th(j, scaled(3, us), c3), th(j, [PI / 3 + s for s in us]),
                      th(j, [PI / 3 - s for s in us])) for j in range(1, 5)]

    def minus_plus(j, a, b):
        return th(j, at(operator.sub, a, b)), th(j, at(operator.add, a, b))

    xy1, uv1, xu1 = minus_plus(1, xs, ys), minus_plus(1, us, vs), minus_plus(1, xs, us)
    yv1, xv1, yu1 = minus_plus(1, ys, vs), minus_plus(1, xs, vs), minus_plus(1, ys, us)
    xy4 = minus_plus(4, xs, ys)
    t2_xmy = th(2, at(operator.sub, xs, ys))
    tx = [None] + [th(j, xs) for j in range(1, 5)]
    ty = [None] + [th(j, ys) for j in range(1, 5)]
    x2, y2 = scaled(2, xs), scaled(2, ys)
    t1_2x, t4_2y, t4_2x, t1_2y = th(1, x2, c2), th(4, y2, c2), th(4, x2, c2), th(1, y2, c2)
    d3u, d2u = th(3, us, ctx, 1), th(2, us, ctx, 1)
    zetas, gammas = zeta_of_eta(etas, tau), gamma_of_eta(etas, tau)
    t1_3e, t1_e, t3_e, t4_e = th(1, scaled(3, etas)), th(1, etas), th(3, etas), th(4, etas)

    for i, u in enumerate(us):
        for j in range(1, 5):
            tally(f"series_vs_product_theta{j}", _rel(tu[j][i], theta_product(j, u, ctx)))

        # modular transformation of theta_4
        rhs = cmath.sqrt(tau / 1j) * cmath.exp(1j * u * u / (PI * tau)) * tu[2][i]
        tally("modular_theta4_to_theta2", _rel(mod4[i], rhs))

        tally("double_nome_theta1",
              _rel(theta(4, 0.0, c2) * t1_2u_c2[i], tu[1][i] * tu[2][i]))
        tally("double_nome_theta4",
              _rel(theta(4, 0.0, c2) * t4_2u_c2[i], tu[3][i] * tu[4][i]))
        tally("half_nome_theta1",
              _rel(theta(2, 0.0, ctx) * tu[1][i], 2 * tu_c2[1][i] * tu_c2[4][i]))
        tally("half_nome_theta2",
              _rel(theta(2, 0.0, ctx) * tu[2][i], 2 * tu_c2[2][i] * tu_c2[3][i]))
        tally("duplication_theta1",
              _rel(t1_2u[i],
                   2 * tu[1][i] * tu[2][i] * tu[3][i] * tu[4][i]
                   / (theta(2, 0.0, ctx) * theta(3, 0.0, ctx) * theta(4, 0.0, ctx))))

        for j in range(1, 5):
            at3u, plus, minus = trip[j]
            tally(f"triplication_theta{j}",
                  _rel(at3u[i], tripl_pref * tu[j][i] * plus[i] * minus[i]))

        # three-term product identity; residual relative to the largest term
        t1 = xy1[0][i] * xy1[1][i] * uv1[0][i] * uv1[1][i]
        t2 = xu1[0][i] * xu1[1][i] * yv1[0][i] * yv1[1][i]
        t3 = xv1[0][i] * xv1[1][i] * yu1[0][i] * yu1[1][i]
        tally("weierstrass_three_term",
              abs(t1 - t2 + t3) / max(abs(t1), abs(t2), abs(t3), 1e-30))

        tally("sum_diff_theta4",
              _rel(theta(4, 0.0, ctx) ** 2 * xy4[1][i] * xy4[0][i],
                   tx[4][i] ** 2 * ty[4][i] ** 2 - tx[1][i] ** 2 * ty[1][i] ** 2))
        tally("sum_diff_theta3",
              _rel(theta(4, 0.0, ctx) ** 2 * xy4[1][i] * xy4[0][i],
                   tx[3][i] ** 2 * ty[3][i] ** 2 - tx[2][i] ** 2 * ty[2][i] ** 2))
        tally("mixed_double_nome",
              _rel(xy1[1][i] * t2_xmy[i], t1_2x[i] * t4_2y[i] + t4_2x[i] * t1_2y[i]))

        # derivative of theta3/theta2
        lhs = (d3u[i] * tu[2][i] - tu[3][i] * d2u[i]) / tu[2][i] ** 2
        rhs = theta(4, 0.0, ctx) ** 2 * tu[1][i] * tu[4][i] / tu[2][i] ** 2
        tally("ratio32_derivative", _rel(lhs, rhs))

        # coupling combination at generic eta
        lhs = 1 - zetas[i] ** 2 + 2 * gammas[i]
        rhs = (t1_3e[i] * theta(3, 0.0, ctx) ** 4 * theta(4, 0.0, ctx) ** 4
               / (t1_e[i] * t3_e[i] ** 4 * t4_e[i] ** 4))
        tally("coupling_combination_product", _rel(lhs, rhs))

    # determinant of the linear system for the correlators (eta-derivative form)
    zz = eta_derivative(lambda e: zeta_of_eta(e, tau), PI / 3)
    gg = eta_derivative(lambda e: gamma_of_eta(e, tau), PI / 3)
    lhs = mv.zeta * zz - gg
    a_over_bu = (theta(4, 0.0, c2) * theta(1, 2 * PI / 3, c2)
                 / (theta(1, 0.0, c2, 1) * theta(4, 2 * PI / 3, c2)))
    tally("eta_derivative_determinant", _rel(lhs, 6 * mv.chi * a_over_bu))

    # Taylor-coefficient combination entering the Q-pipeline, n = 0..4
    logd = theta(1, PI / 3, ctx, 2) / theta(1, PI / 3, ctx) \
        - (theta(1, PI / 3, ctx, 1) / theta(1, PI / 3, ctx)) ** 2
    gamma = mv.gamma
    for n in range(5):
        E = expansion_E(n, ctx)
        lhs = 2 * n * (2 * n + 1) * logd + (2 * n + 1) * E
        rhs = -(2 * n + 1) * mv.chi * (gamma**2 - 3) / (gamma + 1) ** 2
        tally("taylor_combination", _rel(lhs, rhs))

    # prefactor chain identity, n = 0..4
    for n in range(5):
        tally("prefactor_chain", _prefactor_chain_residual(n, tau, mv))
    return res


def identity_report(tau: complex, seed: int = 0) -> dict:
    """The identity suite at one nome, each residual held to its bound:
    LEMMA_TOLERANCE for the LEMMA_RESIDUALS entries, IDENTITY_TOLERANCE for
    the others."""
    res = identity_suite(tau, seed=seed)
    return {
        "tau_im": complex(tau).imag,
        "seed": seed,
        "residuals": dict(sorted(res.items())),
        "ok": all(
            value < (LEMMA_TOLERANCE if name in LEMMA_RESIDUALS else IDENTITY_TOLERANCE)
            for name, value in res.items()
        ),
    }


def expansion_E(n: int, ctx: ThetaContext) -> complex:
    """E, the 5th-over-3rd Taylor coefficient ratio at u = 0 of
    theta1(u)^(2n+3) / (theta1(3u|3tau)^(2n) theta4(3u|3tau)).

    With theta1(u) = u A(u^2), theta1(3u|3tau) = 3u B(u^2) and
    theta4(3u|3tau) = C(u^2) the function is u^3 A^(2n+3) / (9^n B^(2n) C)
    of u^2, so the ratio is the logarithmic derivative of that quotient at
    0: six theta values at u = 0, at tau and at 3 tau."""
    c3 = ctx.scaled(3)
    return (
        (2 * n + 3) * theta(1, 0.0, ctx, 3) / (6 * theta(1, 0.0, ctx, 1))
        - 3 * n * theta(1, 0.0, c3, 3) / theta(1, 0.0, c3, 1)
        - 4.5 * theta(4, 0.0, c3, 2) / theta(4, 0.0, c3)
    )


def _prefactor_chain_residual(n: int, tau: complex, mv: ModularValues) -> float:
    ctx = theta_context(tau)
    ch = ctx.scaled(0.5)
    c32 = ctx.scaled(1.5)

    def h_prime(u):
        # valid where theta3(u/2 | tau/2) vanishes (it does at u = pi + pi tau/2)
        R = theta(4, 3 * u / 2, c32) / theta(4, u / 2, ch)
        return 0.5 * theta(3, u / 2, ch, 1) * R**n

    u2 = PI + PI * tau / 2
    u1 = PI * tau / 2
    # at u1 both theta4 factors vanish linearly: the ratio is one of derivatives
    R1 = 3 * theta(4, 3 * u1 / 2, c32, 1) / theta(4, u1 / 2, ch, 1)
    h_at_u1 = theta(3, u1 / 2, ch) * R1**n
    k0 = (theta(2, 0.0, c32) ** 2 * theta(3, 0.0, c32)
          / (theta(2, 0.0, ch) ** 2 * theta(3, 0.0, ch))
          * (theta(4, 0.0, c32) / theta(4, 0.0, ch)) ** (n - 1))
    # k(pi) is again a removable 0/0: theta2(3u/2) and theta2(u/2) both
    # vanish linearly at u = pi, so the squared ratio is one of derivatives
    kpi = (9 * theta(2, 3 * PI / 2, c32, 1) ** 2 * theta(3, 3 * PI / 2, c32)
           / (theta(2, PI / 2, ch, 1) ** 2 * theta(3, PI / 2, ch))
           * (theta(4, 3 * PI / 2, c32) / theta(4, PI / 2, ch)) ** (n - 1))
    lhs = (1 / mv.chi) * (theta(1, 0.0, c32, 1) / theta(2, 0.0, c32)) \
        * (h_prime(u2) / h_at_u1) * (k0 / kpi)
    gamma, z = mv.gamma, mv.z
    rhs = ((-1) ** (n + 1) * 2j * (z + 1)
           / (3 * (gamma + 1) ** 2 * (z - 1) * (2 * z + 1) ** (n - 1)))
    return _rel(lhs, rhs)


# -- infinite-lattice limit from the energy series ----------------------

def _energy_series_terms(eta: complex, tau: complex, max_terms: int = 400,
                         eps: float = 1e-16) -> tuple[complex, complex]:
    """The series part of the ground-state energy per site and its exact
    term-wise eta-derivative, at generic eta.

    With x = exp(i(2 eta - pi)/tau) and half-nome Q_m = q^(m/2), each term
    is N(w)/((1-q^m)(1+w^2)) for w = x^m, where
    N(w) = -w^4 + Q w^3 + w^2 - Q^2 - Q/w + Q^2/w^2.
    """
    q_half = cmath.exp(-1j * PI / tau)
    q = q_half * q_half
    x = cmath.exp(1j * (2 * eta - PI) / tau)
    if abs(x) >= 1 or abs(q) >= 1:
        raise SeriesDivergence(f"series parameters outside unit disc: |x|={abs(x)}, |q|={abs(q)}")
    total = 0j
    total_d = 0j
    w = 1.0 + 0j
    Qm = 1.0 + 0j
    qm = 1.0 + 0j
    for m in range(1, max_terms + 1):
        w *= x
        Qm *= q_half
        qm *= q
        N = -(w**4) + Qm * w**3 + w**2 - Qm**2 - Qm / w + Qm**2 / w**2
        Np = -4 * w**3 + 3 * Qm * w**2 + 2 * w + Qm / w**2 - 2 * Qm**2 / w**3
        den = (1 - qm) * (1 + w * w)
        term = N / den
        # d/d eta = (2i m / tau) w d/dw acting on N/(1+w^2)
        term_d = (2j * m / tau) * w * (Np * (1 + w * w) - 2 * w * N) / ((1 - qm) * (1 + w * w) ** 2)
        total += term
        total_d += term_d
        if max(abs(term), abs(term_d)) < eps * max(1.0, abs(total_d)):
            return total, total_d
    raise SeriesDivergence("energy series did not converge")


def baxter_f_infinity(tau: complex) -> dict:
    """Infinite-lattice limit of f_n from the energy series, compared with
    the closed form in zeta.

    Returns {"series": ..., "closed": ..., "diff": ..., "ok": diff <
    BAXTER_TOLERANCE}; the two routes are fully independent apart from the
    shared theta evaluations.
    """
    tau = complex(tau)
    if abs(tau.real) > 1e-12 or tau.imag <= 0:
        raise ValueError("tau must be pure imaginary with positive imaginary part")
    eta0 = PI / 3
    ctx = theta_context(tau)
    c2 = ctx.scaled(2)

    def prefactor(eta):
        return 4j * theta(1, 2 * eta, c2) / (
            tau * theta(2, 0.0, ctx) ** 2 * theta(4, 2 * eta, c2)
        )

    def prefactor_prime(eta):
        return 4j * 2 * (
            theta(1, 2 * eta, c2, 1) * theta(4, 2 * eta, c2)
            - theta(1, 2 * eta, c2) * theta(4, 2 * eta, c2, 1)
        ) / (tau * theta(2, 0.0, ctx) ** 2 * theta(4, 2 * eta, c2) ** 2)

    S, S_eta = _energy_series_terms(eta0, tau)
    Gamma0 = gamma_of_eta(eta0, tau)
    zeta0 = zeta_of_eta(eta0, tau)
    eps_val = -(2 + Gamma0) / 2 - prefactor(eta0) * S
    # 2 eps_eta + Gamma_eta: the Gamma parts cancel against the first term
    two_eps_plus_gamma = -2 * (prefactor_prime(eta0) * S + prefactor(eta0) * S_eta)
    zeta_eta = eta_derivative(lambda e: zeta_of_eta(e, tau), eta0)
    Gamma_eta = eta_derivative(lambda e: gamma_of_eta(e, tau), eta0)
    f_series = eps_val * two_eps_plus_gamma / (zeta0 * zeta_eta - Gamma_eta)
    zr = zeta0.real
    closed = -(zr**2 + 3) * (zr**2 - 6 * zr - 3) / (8 * (zr + 1) ** 2)
    diff = abs(f_series - closed)
    return {
        "series": f_series.real,
        "closed": closed,
        "diff": diff,
        "zeta": zr,
        "ok": diff < BAXTER_TOLERANCE,
    }
