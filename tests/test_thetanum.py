"""Theta numerics: two-oracle agreement, Weierstrass P, the closed-form
Taylor ratio against contour extraction, modular maps, the identity suite,
and the series route to the limit curve."""

import cmath
import math
import struct

import numpy as np
import pytest

from susyxyz import thetanum
from susyxyz.thetanum import (
    LEMMA_RESIDUALS,
    PI,
    CrossCheckFailure,
    LatticePoint,
    ThetaContext,
    TruncationFailure,
    theta_context,
    baxter_f_infinity,
    identity_suite,
    modular_values,
    expansion_E,
    gamma_of_eta,
    qpochhammer,
    theta,
    theta_product,
    weierstrass_p,
    zeta_of_eta,
)

CTX_I = ThetaContext(1j)


def test_theta1_odd():
    for tau in (0.5j, 1j, 2j, 0.3 + 1.1j):
        assert theta(1, 0.0, ThetaContext(tau)) == 0
        u = 0.7 + 0.1j
        ctx = ThetaContext(tau)
        assert abs(theta(1, -u, ctx) + theta(1, u, ctx)) < 1e-14


def test_series_vs_product_random():
    import random

    rng = random.Random(1)
    for tau in (0.5j, 1j, 2j):
        ctx = ThetaContext(tau)
        for _ in range(10):
            u = rng.uniform(-3, 3) + 1j * rng.uniform(-0.4, 0.4) * abs(tau)
            for j in range(1, 5):
                a, b = theta(j, u, ctx), theta_product(j, u, ctx)
                assert abs(a - b) <= 1e-13 * max(abs(a), abs(b), 1.0)


def test_modular_transformation():
    import random

    rng = random.Random(2)
    for _ in range(8):
        u = rng.uniform(-1.5, 1.5) + 0.1j * rng.uniform(-1, 1)
        tau = 1j
        lhs = theta(4, u / tau, ThetaContext(-1 / tau))
        rhs = cmath.sqrt(tau / 1j) * cmath.exp(1j * u * u / (PI * tau)) * theta(2, u, ThetaContext(tau))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_theta_derivative_against_finite_difference():
    ctx = CTX_I
    h = 1e-5
    for j in range(1, 5):
        for u in (0.3, 1.1 + 0.2j):
            fd = (theta(j, u + h, ctx) - theta(j, u - h, ctx)) / (2 * h)
            assert abs(theta(j, u, ctx, 1) - fd) < 1e-9
            fd2 = (theta(j, u + h, ctx) - 2 * theta(j, u, ctx) + theta(j, u - h, ctx)) / h**2
            assert abs(theta(j, u, ctx, 2) - fd2) < 1e-4


def test_qpochhammer_euler():
    # (q; q)_inf via Euler's pentagonal number series
    q = 0.3
    series = sum(
        (-1) ** k * (q ** (k * (3 * k - 1) // 2) + q ** (k * (3 * k + 1) // 2))
        for k in range(1, 12)
    )
    assert abs(qpochhammer(q, q) - (1 + series)) < 1e-14


def test_weierstrass_normalization_no_constant_term():
    w1, w2 = 2 * PI / 3, PI * 1j
    for k in (1, 2, 3):
        u = 10.0 ** (-k)
        diff = weierstrass_p(u, w1, w2) - 1.0 / u**2
        # no u^0 term: difference is O(u^2)
        assert abs(diff) < 10.0 * u**2


def test_weierstrass_periodicity_and_evenness():
    w1, w2 = 2 * PI / 3, PI * 1j
    for u in (0.4 + 0.3j, 0.9, 0.2 + 0.8j):
        p0 = weierstrass_p(u, w1, w2)
        assert abs(weierstrass_p(u + w1, w1, w2) - p0) < 1e-12 * max(1, abs(p0))
        assert abs(weierstrass_p(u + w2, w1, w2) - p0) < 1e-12 * max(1, abs(p0))
        assert abs(weierstrass_p(-u, w1, w2) - p0) < 1e-12 * max(1, abs(p0))


def test_weierstrass_lattice_point_raises():
    with pytest.raises(LatticePoint):
        weierstrass_p(0.0, 1.0, 1j)
    with pytest.raises(LatticePoint):
        weierstrass_p(1.0 + 1j, 1.0, 1j)
    # the list form raises for the element on the lattice, as its call would
    with pytest.raises(LatticePoint):
        weierstrass_p([0.4, 1.0 + 1j, 0.7], 1.0, 1j)


def weierstrass_p_lattice_sum(u: complex, w1: complex, w2: complex, cutoff: int = 40) -> complex:
    """Direct truncated lattice sum; slowly convergent, used as an oracle."""
    out = 1.0 / (u * u)
    for m in range(-cutoff, cutoff + 1):
        for n in range(-cutoff, cutoff + 1):
            if m == 0 and n == 0:
                continue
            w = m * w1 + n * w2
            out += 1.0 / ((u - w) * (u - w)) - 1.0 / (w * w)
    return out


def test_weierstrass_against_lattice_sum():
    # small |u| keeps the truncated-sum tail below the comparison tolerance
    w1, w2 = 2 * PI / 3, PI * 1j
    for u in (0.03, 0.05 + 0.02j, 0.04 - 0.03j, 0.02, 0.045):
        a = weierstrass_p(u, w1, w2)
        b = weierstrass_p_lattice_sum(u, w1, w2, cutoff=40)
        assert abs(a - b) <= 1e-8 * abs(a)


def _contour_coeffs(fn, u0, k, radius, samples):
    vals = [fn(u0 + radius * cmath.exp(2j * PI * m / samples)) for m in range(samples)]
    fmax = max(abs(v) for v in vals)
    out = [
        sum(v * cmath.exp(-2j * PI * m * j / samples) for m, v in enumerate(vals))
        / (samples * radius**j)
        for j in range(k)
    ]
    return out, fmax


def series_taylor(fn, u0, k, radius=0.5, samples=128, rtol=1e-9):
    """First k Taylor coefficients of fn at u0 by uniform circle sampling,
    the radius validated against half the radius (the independent oracle
    for the closed-form Taylor ratio expansion_E)."""
    r = radius
    for _ in range(3):
        a, fa = _contour_coeffs(fn, u0, k, r, samples)
        b, fb = _contour_coeffs(fn, u0, k, r / 2, samples)
        if all(
            abs(x - y) <= rtol * max(abs(x), abs(y)) + 2e-13 * (fa / r**j + fb / (r / 2) ** j)
            for j, (x, y) in enumerate(zip(a, b))
        ):
            return a
        r /= 2
    raise ArithmeticError(f"no stable contour radius near {u0} (started {radius})")


def test_series_taylor_exponential():
    coeffs = series_taylor(cmath.exp, 0.0, 3, radius=0.5)
    assert abs(coeffs[0] - 1) < 1e-12
    assert abs(coeffs[1] - 1) < 1e-12
    assert abs(coeffs[2] - 0.5) < 1e-12


def test_series_taylor_theta_ratio():
    # theta1(u|i)/u extended at 0 has leading coefficient theta1'(0|i)
    def fn(u):
        if abs(u) < 1e-12:
            return theta(1, 0.0, CTX_I, 1)
        return theta(1, u, CTX_I) / u

    coeffs = series_taylor(fn, 0.0, 2, radius=0.4)
    assert abs(coeffs[0] - theta(1, 0.0, CTX_I, 1)) < 1e-11


def test_expansion_combination_matches_pole_coefficients():
    # (2n+1)E = (2n+3)A + (2n-1)B - C + D relates the contour-extracted
    # coefficients to Weierstrass values at the shifted half-periods
    tau = 1j
    ctx = ThetaContext(tau)
    c3 = ctx.scaled(3)
    c32 = ctx.scaled(1.5)
    r = 0.4 * min(PI / 3, PI / 3)
    for n in (0, 1, 2, 3):
        L = 2 * n + 1

        def fa(u):
            return theta(1, u, ctx) ** L / (
                theta(1, 3 * u, c3) ** n * theta(3, 3 * u / 2, c32)
            ) if abs(u) > 0 else 0j

        ca = series_taylor(fa, 0.0, n + 4, radius=r)
        A = ca[n + 3] / ca[n + 1]

        def fb(u):
            if abs(u) < 1e-12:
                u = 1e-12
            return u**n / (theta(1, 3 * u, c3) ** n * theta(4, 3 * u / 2, c32))

        cb = series_taylor(fb, 0.0, 4, radius=r)
        B = cb[2] / cb[0]
        C = weierstrass_p(PI / 3 + PI * tau / 2, 2 * PI / 3, PI * tau)
        D = weierstrass_p(PI * tau / 2, 2 * PI / 3, PI * tau)
        E = expansion_E(n, ctx)
        lhs = (2 * n + 1) * E
        rhs = (2 * n + 3) * A + (2 * n - 1) * B - C + D
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 2.5])
def test_closed_form_E_matches_contour_ratio(t):
    # the 5th-over-3rd Taylor ratio of theta1^(2n+3)/(theta1(3u|3tau)^(2n)
    # theta4(3u|3tau)), extracted on a circle clear of the poles at pi/3
    # and pi tau/2
    ctx = ThetaContext(1j * t)
    c3 = ctx.scaled(3)
    r = 0.4 * min(PI / 3, PI * t / 3)
    for n in range(13):
        def fn(u):
            return theta(1, u, ctx) ** (2 * n + 3) / (
                theta(1, 3 * u, c3) ** (2 * n) * theta(4, 3 * u, c3)
            )

        coeffs = series_taylor(fn, 0.0, 6, radius=r)
        contour = coeffs[5] / coeffs[3]
        assert abs(expansion_E(n, ctx) - contour) <= 1e-12 * abs(contour)


def test_modular_values_cross_checked():
    for tau in (0.5j, 1j, 2j):
        mv = modular_values(tau)
        assert 0 < mv.zeta.real < 1 and abs(mv.zeta.imag) < 1e-13
        assert abs(mv.Gamma - (mv.zeta**2 - 1) / 2) < 1e-12
        assert abs(mv.gamma_sq - (1 - mv.z) * (1 + 2 * mv.z) / (1 + mv.z)) < 1e-12


def test_boltzmann_sum_normalization():
    # with rho = 2/(theta2(0|tau) theta4(0|2tau)):
    #   a + b = theta1(2 eta|tau)/theta1(eta|tau) * theta1(u|tau)
    import random

    rng = random.Random(3)
    for tau in (0.5j, 1j):
        ctx = ThetaContext(tau)
        c2 = ctx.scaled(2)
        rho = 2 / (theta(2, 0.0, ctx) * theta(4, 0.0, c2))
        for _ in range(6):
            u = rng.uniform(0.1, 3.0)
            eta = rng.uniform(0.2, 1.4)
            a = rho * theta(4, 2 * eta, c2) * theta(4, u - eta, c2) * theta(1, u + eta, c2)
            b = rho * theta(4, 2 * eta, c2) * theta(1, u - eta, c2) * theta(4, u + eta, c2)
            rhs = theta(1, 2 * eta, ctx) / theta(1, eta, ctx) * theta(1, u, ctx)
            assert abs((a + b) - rhs) < 1e-12 * max(abs(a + b), abs(rhs))


@pytest.mark.parametrize("tau", [0.5j, 1j, 2j])
def test_identity_suite_residuals(tau):
    res = identity_suite(tau, seed=20)
    assert LEMMA_RESIDUALS <= res.keys()
    for name, value in res.items():
        bound = 1e-10 if name in LEMMA_RESIDUALS else 1e-11
        assert value < bound, f"{name}: {value}"


def _scalar_sample_residuals(tau, seed):
    # the reference: identity_suite's per-sample identities as one scalar
    # theta call per value, drawing and tallying sample by sample; only the
    # entries this loop writes, in the order it first writes them
    rng = thetanum.random.Random(seed)
    ctx = theta_context(tau)
    c2, c3 = ctx.scaled(2), ctx.scaled(3)
    p = ctx.nome
    rel = thetanum._rel
    tripl_pref = qpochhammer(p**6, p**6) / qpochhammer(p**2, p**2) ** 3
    res = {}

    def tally(name, value):
        res[name] = max(res.get(name, 0.0), value)

    for _ in range(thetanum.IDENTITY_SAMPLES):
        u = thetanum._rand_u(rng, tau)
        x, y, v, w = (thetanum._rand_u(rng, tau) for _ in range(4))
        for j in range(1, 5):
            tally(f"series_vs_product_theta{j}", rel(theta(j, u, ctx), theta_product(j, u, ctx)))
        lhs = theta(4, u / tau, theta_context(-1 / tau))
        rhs = cmath.sqrt(tau / 1j) * cmath.exp(1j * u * u / (PI * tau)) * theta(2, u, ctx)
        tally("modular_theta4_to_theta2", rel(lhs, rhs))
        tally("double_nome_theta1",
              rel(theta(4, 0.0, c2) * theta(1, 2 * u, c2), theta(1, u, ctx) * theta(2, u, ctx)))
        tally("double_nome_theta4",
              rel(theta(4, 0.0, c2) * theta(4, 2 * u, c2), theta(3, u, ctx) * theta(4, u, ctx)))
        tally("half_nome_theta1",
              rel(theta(2, 0.0, ctx) * theta(1, u, ctx), 2 * theta(1, u, c2) * theta(4, u, c2)))
        tally("half_nome_theta2",
              rel(theta(2, 0.0, ctx) * theta(2, u, ctx), 2 * theta(2, u, c2) * theta(3, u, c2)))
        tally("duplication_theta1",
              rel(theta(1, 2 * u, ctx),
                  2 * theta(1, u, ctx) * theta(2, u, ctx) * theta(3, u, ctx) * theta(4, u, ctx)
                  / (theta(2, 0.0, ctx) * theta(3, 0.0, ctx) * theta(4, 0.0, ctx))))
        for j in range(1, 5):
            tally(f"triplication_theta{j}",
                  rel(theta(j, 3 * u, c3),
                      tripl_pref * theta(j, u, ctx)
                      * theta(j, PI / 3 + u, ctx) * theta(j, PI / 3 - u, ctx)))
        t1 = (theta(1, x - y, ctx) * theta(1, x + y, ctx)
              * theta(1, u - v, ctx) * theta(1, u + v, ctx))
        t2 = (theta(1, x - u, ctx) * theta(1, x + u, ctx)
              * theta(1, y - v, ctx) * theta(1, y + v, ctx))
        t3 = (theta(1, x - v, ctx) * theta(1, x + v, ctx)
              * theta(1, y - u, ctx) * theta(1, y + u, ctx))
        tally("weierstrass_three_term",
              abs(t1 - t2 + t3) / max(abs(t1), abs(t2), abs(t3), 1e-30))
        tally("sum_diff_theta4",
              rel(theta(4, 0.0, ctx) ** 2 * theta(4, x + y, ctx) * theta(4, x - y, ctx),
                  theta(4, x, ctx) ** 2 * theta(4, y, ctx) ** 2
                  - theta(1, x, ctx) ** 2 * theta(1, y, ctx) ** 2))
        tally("sum_diff_theta3",
              rel(theta(4, 0.0, ctx) ** 2 * theta(4, x + y, ctx) * theta(4, x - y, ctx),
                  theta(3, x, ctx) ** 2 * theta(3, y, ctx) ** 2
                  - theta(2, x, ctx) ** 2 * theta(2, y, ctx) ** 2))
        tally("mixed_double_nome",
              rel(theta(1, x + y, ctx) * theta(2, x - y, ctx),
                  theta(1, 2 * x, c2) * theta(4, 2 * y, c2)
                  + theta(4, 2 * x, c2) * theta(1, 2 * y, c2)))
        lhs = (theta(3, u, ctx, 1) * theta(2, u, ctx) - theta(3, u, ctx) * theta(2, u, ctx, 1)) \
            / theta(2, u, ctx) ** 2
        rhs = theta(4, 0.0, ctx) ** 2 * theta(1, u, ctx) * theta(4, u, ctx) / theta(2, u, ctx) ** 2
        tally("ratio32_derivative", rel(lhs, rhs))
        eta = rng.uniform(0.2, 1.3)
        lhs = 1 - zeta_of_eta(eta, tau) ** 2 + 2 * gamma_of_eta(eta, tau)
        rhs = (theta(1, 3 * eta, ctx) * theta(3, 0.0, ctx) ** 4 * theta(4, 0.0, ctx) ** 4
               / (theta(1, eta, ctx) * theta(3, eta, ctx) ** 4 * theta(4, eta, ctx) ** 4))
        tally("coupling_combination_product", rel(lhs, rhs))
    return res


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("tau", [0.5j, 1.3j, complex(0.2, 0.9)])
def test_batched_identity_suite_matches_scalar_loop_bitwise(tau, seed):
    ref = _scalar_sample_residuals(tau, seed)
    got = identity_suite(tau, seed=seed)
    assert [name for name in got if name in ref] == list(ref)
    assert {name: _bits(got[name]) for name in ref} == {name: _bits(v) for name, v in ref.items()}


def test_invariants_on_a_list_are_bit_identical_to_scalar_calls():
    etas = [0.2, 0.731, PI / 3, 1.3]
    for tau in (0.5j, 1j, complex(0.2, 0.9)):
        for fn in (zeta_of_eta, gamma_of_eta):
            assert [_bits(z) for z in fn(etas, tau)] == [_bits(fn(e, tau)) for e in etas]


def test_half_way_ratio_is_exactly_half():
    ctx = CTX_I
    num = theta(2, PI / 3, ctx) * theta(3, PI / 3, ctx) * theta(4, PI / 3, ctx)
    den = theta(2, 0.0, ctx) * theta(3, 0.0, ctx) * theta(4, 0.0, ctx)
    assert abs(num / den - 0.5) < 1e-13


@pytest.mark.parametrize("tau", [0.6j, 1j, 1.5j, 2.5j])
def test_baxter_limit_matches_closed_form(tau):
    rep = baxter_f_infinity(tau)
    assert rep["diff"] < 1e-9


def test_baxter_limit_consistent_with_piecewise_curve():
    from susyxyz.corrfn import f_infinity

    for tau in (0.8j, 1.2j):
        rep = baxter_f_infinity(tau)
        # 0 < zeta < 1 lands in the middle regime of the piecewise form
        assert abs(rep["closed"] - f_infinity(rep["zeta"])) < 1e-12


@pytest.mark.parametrize("bound, report", [
    ("IDENTITY_TOLERANCE", "identity_report"),
    ("LEMMA_TOLERANCE", "identity_report"),
    ("BAXTER_TOLERANCE", "baxter_f_infinity"),
])
def test_reports_read_each_bound(monkeypatch, bound, report):
    check = getattr(thetanum, report)
    assert check(1j)["ok"] is True
    # no residual is below 0, so the verdict turns if and only if it reads the bound
    monkeypatch.setattr(thetanum, bound, 0.0)
    assert check(1j)["ok"] is False


def test_modular_values_reads_its_bound(monkeypatch):
    modular_values(1j)
    monkeypatch.setattr(thetanum, "MODULAR_TOLERANCE", 0.0)
    with pytest.raises(CrossCheckFailure):
        modular_values(1j)


def test_zeta_of_eta_monotone_entry():
    # spot check against the eta = pi/3 bundle
    for tau in (0.5j, 1j):
        assert abs(zeta_of_eta(PI / 3, tau) - modular_values(tau).zeta) < 1e-14


def _bits(z):
    # the exact IEEE bits of both parts, so that 0.0 and -0.0 differ
    z = complex(z)
    return struct.pack("<dd", z.real, z.imag)


def test_theta_memo_is_bit_identical_to_the_series():
    series = theta.__wrapped__
    theta.cache_clear()
    ctx = ThetaContext(0.8j)
    # each pair compares equal and hashes alike, so the second argument is
    # served the memo entry the first one created
    pairs = [
        (0.0, -0.0),
        (complex(0.7, 0.0), complex(0.7, -0.0)),
        (complex(-1.3, 0.0), complex(-1.3, -0.0)),
        (complex(0.0, 0.2), complex(-0.0, 0.2)),
        (np.float64(1.1), 1.1),
        (np.float64(-2.4), -2.4),
    ]
    for first, second in pairs:
        for j in range(1, 5):
            for order in range(5):
                for u in (first, second, first):
                    got = theta(j, u, ctx, order)
                    assert type(got) is complex
                    assert _bits(got) == _bits(series(j, u, ctx, order))
    assert theta.cache_info().hits > 0


def test_theta_memo_does_not_cache_truncation_failure():
    ctx = ThetaContext(1j, max_terms=1)
    for _ in range(2):
        with pytest.raises(TruncationFailure):
            theta(1, 0.4, ctx)



@pytest.mark.parametrize("tau", [0.55j, 1j, 2.3j, complex(-0.31, 0.55)])
def test_theta_on_a_list_is_bit_identical_to_scalar_calls(tau):
    ctx = theta_context(tau)
    us = list(np.linspace(-3.0, 3.0, 37)) + [0.0, -0.0, 0.4 + 0.2j, -1.1 - 0.3j]
    for j in range(1, 5):
        for order in range(5):
            got = theta(j, [complex(u) if isinstance(u, complex) else float(u) for u in us],
                        ctx, order)
            assert [_bits(g) for g in got] == [_bits(theta.__wrapped__(j, u, ctx, order))
                                               for u in us]


def test_contexts_are_shared_per_nome():
    ctx = theta_context(0.7j)
    assert ctx is theta_context(0.7j) is theta_context(complex(0.0, 0.7))
    assert ctx.scaled(3) is theta_context(0.7j * 3)
    assert ctx == ThetaContext(0.7j) and ctx is not ThetaContext(0.7j)


def test_equal_contexts_share_hash_nome_and_memo():
    for tau in (1j, 0.5j, 0.2 + 0.7j, complex(-0.31, 0.55)):
        ctx = ThetaContext(tau)
        assert _bits(ctx.nome) == _bits(cmath.exp(1j * PI * tau))
        assert hash(ctx) == hash((ctx.tau, ctx.eps, ctx.max_terms))
    a = ThetaContext(complex(0.125, 0.6125))
    b = ThetaContext(complex("0.125+0.6125j"))
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a) == "ThetaContext(tau=(0.125+0.6125j), eps=1e-15, max_terms=64)"
    u = 0.3137 + 0.0411j
    va = theta(2, u, a, 1)
    hits = theta.cache_info().hits
    vb = theta(2, u, b, 1)
    assert theta.cache_info().hits == hits + 1
    assert _bits(va) == _bits(vb)
    assert a.scaled(3) == ThetaContext(a.tau * 3)
