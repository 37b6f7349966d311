"""Exact polynomial and rational-function arithmetic."""

import random
from fractions import Fraction

import pytest

from susyxyz.exactcore import (
    DivisionByZeroPoly,
    IdenticallySingular,
    NonzeroRemainder,
    Poly,
    RatFunc,
    poly_exact_div,
    poly_expression,
    poly_from_json,
    poly_gcd,
    poly_to_json,
    ratfunc_compose,
    ratfunc_from_json,
    ratfunc_simplify,
    ratfunc_to_json,
    variable,
)

Z = variable("z")


def P(*coeffs, var="z"):
    return Poly(tuple(Fraction(c) for c in coeffs), var)


def rand_poly(rng, max_deg=6, var="z"):
    deg = rng.randrange(0, max_deg + 1)
    coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(deg + 1)]
    return Poly(tuple(coeffs), var)


def test_normalization_strips_trailing_zeros():
    p = P(1, 2, 0, 0)
    assert p.degree == 1
    assert P(0).is_zero() and P().is_zero()


def test_exact_div_factorization():
    # (z^2 - 1)/(z - 1) = z + 1
    assert poly_exact_div(P(-1, 0, 1), P(-1, 1)) == P(1, 1)


def test_exact_div_identity_case():
    rng = random.Random(7)
    for _ in range(20):
        a = rand_poly(rng)
        if a.is_zero():
            continue
        assert poly_exact_div(a, a) == P(1)


def test_exact_div_scalar_recursion_step():
    # hand-evaluated first forward step of the tau recursion: (72z+72)/72 = z+1
    assert poly_exact_div(P(72, 72), P(72)) == P(1, 1)


def test_exact_div_errors():
    with pytest.raises(NonzeroRemainder):
        poly_exact_div(P(1, 0, 1), P(-1, 1))
    with pytest.raises(DivisionByZeroPoly):
        poly_exact_div(P(1, 1), P())


def test_exact_div_round_trip():
    rng = random.Random(11)
    for _ in range(40):
        a, b = rand_poly(rng), rand_poly(rng)
        if a.is_zero() or b.is_zero():
            continue
        assert poly_exact_div(a * b, b) == a


def test_gcd_basic():
    a = P(-1, 0, 1)          # (z-1)(z+1)
    b = P(-1, 1) * P(3, 1)   # (z-1)(z+3)
    assert poly_gcd(a, b) == P(-1, 1)
    assert poly_gcd(P(), b) == b.monic()


def test_simplify_cancels_and_normalizes():
    f = ratfunc_simplify(P(-1, 0, 1), P(-2, 2))  # (z^2-1)/(2z-2) = (z+1)/2
    assert f.num == P(Fraction(1, 2), Fraction(1, 2))
    assert f.den == P(1)


def test_simplify_zero_case():
    f = ratfunc_simplify(P(), P(0, 1))
    assert f.num == P() and f.den == P(1)


def test_simplify_already_coprime():
    # f_2 in the Z variable stays untouched
    f = ratfunc_simplify(P(27, 1, var="Z"), P(25, 1, var="Z"))
    assert f.num == P(27, 1, var="Z") and f.den == P(25, 1, var="Z")


def test_field_laws_randomized():
    rng = random.Random(5)
    for _ in range(25):
        fn, fd = rand_poly(rng, 4), rand_poly(rng, 4)
        gn, gd = rand_poly(rng, 4), rand_poly(rng, 4)
        if fd.is_zero() or gd.is_zero() or gn.is_zero():
            continue
        f = ratfunc_simplify(fn, fd)
        g = ratfunc_simplify(gn, gd)
        assert (f + g) - g == f
        assert (f * g) / g == f


def test_compose_square_of_inverse():
    x, y = variable("x"), variable("y")
    f = RatFunc.from_poly(x * x)
    g = ratfunc_simplify(Poly.constant(1, "y"), y)
    h = ratfunc_compose(f, g)
    assert h == ratfunc_simplify(Poly.constant(1, "y"), y * y)


def test_compose_identity():
    rng = random.Random(3)
    x = variable("x")
    ident = RatFunc.from_poly(x)
    for _ in range(10):
        gn, gd = rand_poly(rng, 4, "y"), rand_poly(rng, 4, "y")
        if gd.is_zero():
            continue
        g = ratfunc_simplify(gn, gd)
        assert ratfunc_compose(ident, g) == g


def test_compose_f2_against_pointwise_evaluation():
    # f = (x+27)/(x+25) composed with Z(zeta) = zeta^2(zeta^2-9)^2/(zeta^2-1)^2,
    # checked against direct evaluation at 5 rational points
    f = ratfunc_simplify(P(27, 1, var="x"), P(25, 1, var="x"))
    zeta = variable("zeta")
    g = ratfunc_simplify(
        (zeta ** 2) * (zeta ** 2 - 9) ** 2, (zeta ** 2 - 1) ** 2
    )
    h = ratfunc_compose(f, g)
    for v in [Fraction(2, 7), Fraction(1, 3), Fraction(2, 5), Fraction(5, 2), Fraction(7, 3)]:
        assert h.evaluate(v) == f.evaluate(g.evaluate(v))


def test_compose_evaluation_homomorphism():
    rng = random.Random(17)
    for _ in range(15):
        fn, fd = rand_poly(rng, 3, "x"), rand_poly(rng, 3, "x")
        gn, gd = rand_poly(rng, 3, "y"), rand_poly(rng, 3, "y")
        if fd.is_zero() or gd.is_zero():
            continue
        f = ratfunc_simplify(fn, fd)
        g = ratfunc_simplify(gn, gd)
        try:
            h = ratfunc_compose(f, g)
        except IdenticallySingular:
            continue
        for v in [Fraction(1, 2), Fraction(5, 3), Fraction(-7, 4)]:
            try:
                expected = f.evaluate(g.evaluate(v))
            except ZeroDivisionError:
                continue
            assert h.evaluate(v) == expected


def test_compose_identically_singular():
    # f has denominator x - 1; g is the constant 1
    f = ratfunc_simplify(P(1, var="x"), P(-1, 1, var="x"))
    g = RatFunc.constant(1, "y")
    with pytest.raises(IdenticallySingular):
        ratfunc_compose(f, g)


def test_derivative_quotient_rule():
    rng = random.Random(23)
    for _ in range(10):
        fn, fd = rand_poly(rng, 4), rand_poly(rng, 4)
        if fd.is_zero():
            continue
        f = ratfunc_simplify(fn, fd)
        g = f * f
        # (f^2)' = 2 f f'
        assert g.derivative() == 2 * f * f.derivative()


def test_pow_and_scalar_ops():
    f = ratfunc_simplify(P(0, 1), P(1, 1))
    assert f ** 0 == RatFunc.constant(1, "z")
    assert f ** 3 == f * f * f
    assert f ** -2 == 1 / (f * f)
    assert 2 * f - f == f


def test_json_round_trip():
    rng = random.Random(31)
    for _ in range(10):
        p = rand_poly(rng)
        assert poly_from_json(poly_to_json(p)) == p
        d = rand_poly(rng)
        if d.is_zero():
            continue
        f = ratfunc_simplify(p, d)
        assert ratfunc_from_json(ratfunc_to_json(f)) == f


def test_json_coefficient_strings():
    f = ratfunc_simplify(P(-1, 0, 1), P(-2, 2))
    obj = ratfunc_to_json(f)
    assert obj == {"variable": "z", "num": ["1/2", "1/2"], "den": ["1"]}


# -- integer kernels against a schoolbook Fraction reference -------------

def ref_mul(a, b):
    if a.is_zero() or b.is_zero():
        return Poly((), a.var)
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Poly(tuple(out), a.var)


def ref_divmod(a, b):
    rem = list(a.coeffs)
    q = [Fraction(0)] * max(len(rem) - len(b.coeffs) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + b.degree] / b.leading
        q[k] = c
        for i, y in enumerate(b.coeffs):
            rem[i + k] -= c * y
    return Poly(tuple(q), a.var), Poly(tuple(rem[: b.degree]), a.var)


def ref_monic(p):
    return Poly(tuple(c / p.leading for c in p.coeffs), p.var)


def ref_gcd(a, b):
    while not b.is_zero():
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a) if not a.is_zero() else a


def ref_simplify(num, den):
    if num.is_zero():
        return RatFunc(num, P(1, var=num.var))
    g = ref_gcd(num, den)
    num, den = ref_divmod(num, g)[0], ref_divmod(den, g)[0]
    lc = den.leading
    return RatFunc(Poly(tuple(c / lc for c in num.coeffs), num.var), ref_monic(den))


def kernel_operands(rng):
    """Zero, constants, negative and mixed-denominator coefficients of
    unequal lengths, and tau-table entries with up to 43-digit coefficients."""
    from susyxyz.taurec import default_table

    table = default_table()
    ops = [P(), P(1), P(-3), P(Fraction(-7, 4)), P(0, 1), P(0, 0, 0, 1), P(0, 0, 5, -2),
           P(Fraction(1, 3), 0, -2)]
    ops += [table.s(-15), table.sbar(-15), table.s(-14), table.sbar(9), table.s(12)]
    for _ in range(40):
        deg = rng.randrange(0, 12)
        ops.append(Poly(tuple(Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 50))
                              for _ in range(deg + 1)), "z"))
    return ops


def test_mul_and_exact_div_match_reference():
    rng = random.Random(41)
    ops = kernel_operands(rng)
    for _ in range(300):
        a, b = rng.choice(ops), rng.choice(ops)
        prod = a * b
        assert prod == ref_mul(a, b)
        assert b * a == prod
        if not b.is_zero():
            assert poly_exact_div(prod, b) == a


def test_gcd_and_simplify_match_reference():
    rng = random.Random(43)
    ops = kernel_operands(rng)
    small = [p for p in ops if p.degree <= 12]
    for _ in range(120):
        g = rng.choice(small)
        a, b = rng.choice(ops) * g, rng.choice(small) * g
        if a.is_zero() and b.is_zero():
            continue
        assert poly_gcd(a, b) == ref_gcd(a, b)
        if not b.is_zero():
            assert ratfunc_simplify(a, b) == ref_simplify(a, b)


def test_gcd_with_power_of_variable_needs_no_fallback(monkeypatch):
    # the reversed tau entries have highly composite constant terms, which
    # share prime powers with z^k at every evaluation point of the
    # heuristic unless the power of z is split off first
    from susyxyz import exactcore
    from susyxyz.taurec import default_table

    def no_fallback(a, b):
        raise AssertionError("PRS fallback used")

    monkeypatch.setattr(exactcore, "_prs_gcd", no_fallback)
    table = default_table()
    rev = lambda p: Poly(tuple(reversed(p.coeffs)), "z")
    a = rev(table.sbar(14)) * rev(table.sbar(-15))
    assert poly_gcd(a * Z**3, Z**100) == Z**3
    f = ratfunc_simplify(a * Z**3, Z**100)
    assert f.num == a and f.den == Z**97


def test_exact_div_lead_coefficient_mismatch():
    # lead 3 is not a multiple of lead 2 of the primitive divisor 2z + 1
    with pytest.raises(NonzeroRemainder):
        poly_exact_div(P(1, 1, 3), P(1, 2))


def test_exact_div_low_only_remainder():
    # z^3 + 1 = (z^2 - 1) z + (z + 1): every quotient step is exact in Z
    with pytest.raises(NonzeroRemainder):
        poly_exact_div(P(1, 0, 0, 1), P(-1, 0, 1))
    with pytest.raises(NonzeroRemainder):
        poly_exact_div(P(2), P(-1, 1))


def test_prs_fallback_reproduces_results(monkeypatch, request):
    from susyxyz import corrfn, exactcore, pvi
    from susyxyz.corrfn import REFERENCE_F_IN_Z

    fallbacks = []
    prs_gcd = exactcore._prs_gcd

    def counting_prs_gcd(a, b):
        fallbacks.append(1)
        return prs_gcd(a, b)

    monkeypatch.setattr(exactcore, "_heuristic_gcd", lambda a, b: None)
    monkeypatch.setattr(exactcore, "_prs_gcd", counting_prs_gcd)
    # f_n is computed afresh on the fallback and not kept for later tests
    for memo in (corrfn.f_zeta, corrfn.f_in_Z):
        memo.cache_clear()
        request.addfinalizer(memo.cache_clear)
    monkeypatch.setattr(pvi, "_orbit", [])
    for n, (num, den) in REFERENCE_F_IN_Z.items():
        got = ratfunc_to_json(corrfn.f_in_Z(n))
        assert (got["num"], got["den"]) == (num, den)
    for n in range(4):
        r1, r2 = pvi.hamilton_residuals(pvi.iterate_T(n))
        assert r1.is_zero() and r2.is_zero() and pvi.fpqp_residual(n).is_zero()
    assert fallbacks


# -- rational arithmetic by Henrici's rules, against the Fraction reference ----

def ref_pow(p, k):
    out = P(1, var=p.var)
    for _ in range(k):
        out = ref_mul(out, p)
    return out


def parts(x):
    """(num, den) of a RatFunc, Poly, int or Fraction operand."""
    if isinstance(x, RatFunc):
        return x.num, x.den
    return (x if isinstance(x, Poly) else P(x)), P(1)


def ref_add(x, y, sign=1):
    (n1, d1), (n2, d2) = parts(x), parts(y)
    return ref_simplify(ref_mul(n1, d2) + sign * ref_mul(n2, d1), ref_mul(d1, d2))


def ref_mul_rf(x, y):
    (n1, d1), (n2, d2) = parts(x), parts(y)
    return ref_simplify(ref_mul(n1, n2), ref_mul(d1, d2))


def ref_div(x, y):
    (n1, d1), (n2, d2) = parts(x), parts(y)
    return ref_simplify(ref_mul(n1, d2), ref_mul(d1, n2))


def henrici_operands(rng):
    """RatFuncs whose denominators are equal, overlapping or coprime, with
    zero, constant and negative-leading parts, then Polys, ints and
    Fractions."""
    small = [p for p in kernel_operands(rng) if p.degree <= 3]
    nonzero = [p for p in small if not p.is_zero()]
    rats = [RatFunc.constant(0, "z"), ratfunc_simplify(P(-3, 0, -1), P(5, -2))]
    for _ in range(30):
        g, u, v = rng.choice(nonzero), rng.choice(nonzero), rng.choice(nonzero)
        rats.append(ratfunc_simplify(rng.choice(small), g * u))
        rats.append(ratfunc_simplify(-rng.choice(small), g * v))  # shares g
        rats.append(ratfunc_simplify(rng.choice(small), g * u))   # same den as two back
    others = rats + small[:12] + [0, 1, -5, Fraction(-7, 3)]
    return rats, others


def test_ratfunc_arithmetic_matches_reference():
    rng = random.Random(47)
    rats, others = henrici_operands(rng)
    for _ in range(150):
        r, x = rng.choice(rats), rng.choice(others)
        assert r + x == ref_add(r, x) and x + r == ref_add(r, x)
        assert r - x == ref_add(r, x, -1) and x - r == ref_add(x, r, -1)
        assert r * x == ref_mul_rf(r, x) and x * r == ref_mul_rf(r, x)
        if parts(x)[0]:
            assert r / x == ref_div(r, x)
        if r.num:
            assert x / r == ref_div(x, r)
    for r in rats[:20]:
        for k in range(4):
            assert r ** k == ref_simplify(ref_pow(r.num, k), ref_pow(r.den, k))
            if r.num:
                assert r ** -k == ref_simplify(ref_pow(r.den, k), ref_pow(r.num, k))


def test_ratfunc_zero_results_are_canonical():
    rng = random.Random(53)
    rats, _ = henrici_operands(rng)
    zero = RatFunc.constant(0, "z")
    for r in rats:
        for z in (r - r, r + (-r), 0 * r, r * 0, r * zero, zero / (r if r.num else 1)):
            assert z == zero and z.den == P(1)
    p = P(2, -1, 3)
    assert RatFunc.from_poly(p) - p == zero and Fraction(3) - RatFunc.constant(3, "z") == zero


def test_sum_cancels_the_factor_left_in_the_shared_denominator():
    # g = gcd(x(x-1), x(x+1)) = x and t = (x+1) + (x-1) = 2x: the factor x
    # of t survives in g and only h = gcd(t, g) cancels it
    x = variable("x")
    f = ratfunc_simplify(P(1, var="x"), x * (x - 1)) + ratfunc_simplify(P(1, var="x"), x * (x + 1))
    assert (f.num, f.den) == (P(2, var="x"), P(-1, 0, 1, var="x"))
    # r1 = n/(g u) and r2 = s - r1 for s = m/(g v): the sum leaves u only in g
    rng = random.Random(61)
    small = [p for p in kernel_operands(rng) if 1 <= p.degree <= 3]
    for _ in range(20):
        g, u, v, m, n = (rng.choice(small) for _ in range(5))
        r1, s = ratfunc_simplify(n, g * u), ratfunc_simplify(m, g * v)
        r2 = ref_add(s, r1, -1)
        assert r1 + r2 == s == ref_add(r1, r2)


def test_ratfunc_typed_errors_on_every_path():
    f = ratfunc_simplify(P(1, 2), P(-3, 1))
    g_s = ratfunc_simplify(P(1, 2, var="s"), P(-3, 1, var="s"))
    for other in (g_s, P(1, 1, var="s"), RatFunc.from_poly(P(1, 1, var="s")),
                  RatFunc.constant(2, "s")):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
                   lambda a, b: a / b):
            with pytest.raises(ValueError, match="variable mismatch"):
                op(f, other)
            with pytest.raises(ValueError, match="variable mismatch"):
                op(other, f)
    zero = RatFunc.constant(0, "z")
    for divisor in (zero, 0, Fraction(0), P()):
        with pytest.raises(DivisionByZeroPoly):
            f / divisor
    with pytest.raises(DivisionByZeroPoly):
        1 / zero
    with pytest.raises(DivisionByZeroPoly):
        P(1, 1) / zero
    with pytest.raises(DivisionByZeroPoly):
        zero ** -2
    with pytest.raises(DivisionByZeroPoly):
        ratfunc_simplify(P(1), P())


# -- packed evaluation --------------------------------------------------------

def test_expression_bound_is_attained():
    # (1 + x + ... + x^k)^2 has 1-norm (k+1)^2: the bound is exact on
    # non-negative operands, and - is read as +
    from susyxyz.exactcore import _expression_bound

    for k in range(6):
        a = P(*[1] * (k + 1))
        assert _expression_bound(lambda u: u * u, [a]) == (k + 1) ** 2 == sum((a * a).ints)
        assert _expression_bound(lambda u, v: u * u - 3 * v, [a, a]) == (k + 1) ** 2 + 3 * (k + 1)
        assert poly_expression(lambda u: u * u - u * u, a).is_zero()


def test_packed_evaluation_at_the_width_boundary():
    # single products c1 x^i * c2 x^j whose coefficient equals its bound,
    # on both sides of 2**7 and 2**15, the half-digit values of widths 1 and 2
    for target in (2**7, 2**15):
        for c in (target - 1, target, target + 1):
            for f in (2, 2**4):
                c1, c2 = f, -(-c // f)
                for a, b in ((P(0, c1), P(0, 0, c2)), (P(0, c1), P(0, 0, -c2))):
                    assert poly_expression(lambda u, v: u * v, a, b) == a * b
                    assert poly_expression(lambda u, v: u * v + u * v, a, b) == 2 * a * b
                assert poly_expression(lambda u: u, P(c, -c)) == P(c, -c)


def test_packed_evaluation_matches_poly_arithmetic():
    rng = random.Random(59)
    ops = kernel_operands(rng)
    for _ in range(100):
        a, b, c = rng.choice(ops), rng.choice(ops), rng.choice(ops)
        a, b, c = (Poly.from_ints(p.ints) for p in (a, b, c))
        expected = a * (b - 3 * c) - c * c + 7
        assert poly_expression(lambda u, v, w: u * (v - 3 * w) - w * w + 7, a, b, c) == expected
        got = poly_expression(lambda u, v: 5 * u * v, a, b, den=10)
        assert got == a * b * Fraction(1, 2)
    with pytest.raises(ValueError, match="variable mismatch"):
        poly_expression(lambda u, v: u * v, P(1, 1), P(1, 1, var="s"))
