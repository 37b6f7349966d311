"""The canonical integer form of Poly, its evaluation, and the packed GCDHEU."""

import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from susyxyz import exactcore
from susyxyz.exactcore import (
    Poly,
    poly_exact_div,
    poly_from_json,
    poly_gcd,
    poly_to_json,
    ratfunc_compose,
    ratfunc_simplify,
)


def P(*coeffs, var="z"):
    return Poly(tuple(Fraction(c) for c in coeffs), var)


def assert_canonical(p: Poly):
    assert isinstance(p.ints, tuple) and all(type(c) is int for c in p.ints)
    assert type(p.den) is int and p.den >= 1
    assert math.gcd(p.den, *p.ints) == 1
    assert not p.ints or p.ints[-1] != 0
    if not p.ints:
        assert p.den == 1
    q = Poly(p.coeffs, p.var)
    assert q == p and hash(q) == hash(p)
    assert all(isinstance(c, Fraction) for c in p.coeffs)
    assert p.coeffs == tuple(Fraction(c, p.den) for c in p.ints)


def operands(rng):
    """Zero, constants, negative and mixed-denominator coefficients, and
    entries of 40 digits."""
    big = 10**40
    ops = [P(), P(1), P(-3), P(Fraction(-7, 4)), P(0, 1), P(0, 0, 0, 1),
           P(Fraction(1, 3), 0, Fraction(-2, 9)), P(Fraction(5, 6), Fraction(-5, 4)),
           Poly((Fraction(big + 7, 3), -big, 1, Fraction(-1, big)), "z")]
    for _ in range(30):
        deg = rng.randrange(0, 9)
        scale = rng.choice([10, 10**6, big])
        ops.append(Poly(tuple(Fraction(rng.randrange(-scale, scale), rng.randrange(1, 60))
                              for _ in range(deg + 1)), "z"))
    return ops


def test_constructor_accepts_fraction_int_and_str():
    p = Poly((Fraction(1, 2), 3, "-5/4", 0, "0"), "z")
    assert p.ints == (2, 12, -5) and p.den == 4
    assert p.coeffs == (Fraction(1, 2), Fraction(3), Fraction(-5, 4))
    assert_canonical(p)
    assert Poly((0, "0/3", Fraction(0)), "z").ints == ()
    assert_canonical(Poly((), "z"))
    with pytest.raises(TypeError):
        Poly((1.5,), "z")


def test_every_operation_keeps_the_canonical_form():
    rng = random.Random(61)
    ops = operands(rng)
    for p in ops:
        assert_canonical(p)
    for _ in range(250):
        a, b = rng.choice(ops), rng.choice(ops)
        c = Fraction(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**6))
        results = [a + b, a - b, -a, a * b, c * a, a * c, 3 * a, a + c, c - a, a * 0,
                   a.derivative(), poly_from_json(poly_to_json(a))]
        if not a.is_zero():
            results.append(a.monic())
        if not b.is_zero():
            results.append(poly_exact_div(a * b, b))
            f = ratfunc_simplify(a, b)
            results += [f.num, f.den]
        if not (a.is_zero() and b.is_zero()):
            results.append(poly_gcd(a, b))
        for r in results:
            assert_canonical(r)


def test_operations_match_fraction_reference():
    rng = random.Random(67)
    ops = operands(rng)
    for _ in range(250):
        a, b = rng.choice(ops), rng.choice(ops)
        c = Fraction(rng.randrange(-10**9, 10**9), rng.randrange(1, 999))
        n = max(len(a.coeffs), len(b.coeffs))
        ac = list(a.coeffs) + [Fraction(0)] * (n - len(a.coeffs))
        bc = list(b.coeffs) + [Fraction(0)] * (n - len(b.coeffs))
        assert a + b == Poly([x + y for x, y in zip(ac, bc)], "z")
        assert a - b == Poly([x - y for x, y in zip(ac, bc)], "z")
        assert c * a == Poly([c * x for x in a.coeffs], "z")
        assert a.derivative() == Poly([k * x for k, x in enumerate(a.coeffs)][1:], "z")
        if not a.is_zero():
            assert a.monic() == Poly([x / a.coeffs[-1] for x in a.coeffs], "z")


def test_compose_results_are_canonical():
    rng = random.Random(71)
    ops = [Poly(p.coeffs[:4], "x") for p in operands(rng)]
    y = exactcore.variable("y")
    g = ratfunc_simplify(Fraction(3, 7) * y * y - 2, 5 * y + Fraction(1, 2))
    for _ in range(40):
        fn, fd = rng.choice(ops), rng.choice(ops)
        if fd.is_zero():
            continue
        h = ratfunc_compose(ratfunc_simplify(fn, fd), g)
        assert_canonical(h.num)
        assert_canonical(h.den)
        v = Fraction(2, 3)
        try:
            expected = ratfunc_simplify(fn, fd).evaluate(g.evaluate(v))
        except ZeroDivisionError:
            continue
        assert h.evaluate(v) == expected


def test_float_operands_raise_type_error():
    import operator

    f = ratfunc_simplify(P(1, 1), P(2, 1))
    for op in (operator.truediv, operator.add, operator.mul, operator.sub):
        with pytest.raises(TypeError):
            op(1.5, f)
        with pytest.raises(TypeError):
            op(f, 1.5)


# -- evaluation ----------------------------------------------------------

def ref_evaluate(p: Poly, x):
    """Horner over the Fraction coefficients."""
    acc = None
    for c in reversed(p.coeffs):
        acc = c if acc is None else acc * x + c
    if acc is None:
        return Fraction(0) if isinstance(x, (int, Fraction)) else 0 * x
    return acc


def float_bits(v) -> tuple:
    v = complex(v)
    return struct.pack("<dd", v.real, v.imag)


def test_evaluate_matches_fraction_horner():
    rng = random.Random(73)
    ops = operands(rng)
    points = [0.0, -0.0, 0.37, -2.5, 1e-3, 3.0 + 0.0j, 0.5 - 1.25j, -0.0j,
              np.float64(0.71), np.float64(-1.9)]
    exact = [0, 1, -3, 10**20, Fraction(2, 7), Fraction(-13, 5), Fraction(1, 10**15)]
    for p in ops:
        for x in points:
            got, want = p.evaluate(x), ref_evaluate(p, x)
            assert type(got) is type(want)
            assert float_bits(got) == float_bits(want)
        for x in exact:
            got = p.evaluate(x)
            assert type(got) is Fraction and got == ref_evaluate(p, x)


# -- GCDHEU by byte packing against the pseudo-remainder sequence ----------

def prs_cofactors(a, b):
    g = exactcore._int_primitive(exactcore._prs_gcd(a, b))
    return g, exactcore._int_exact_quotient(a, g), exactcore._int_exact_quotient(b, g)


def counting_packs(monkeypatch):
    calls = []
    pack = exactcore._pack

    def counted(ints, width):
        calls.append(width)
        return pack(ints, width)

    monkeypatch.setattr(exactcore, "_pack", counted)
    return calls


def test_heuristic_gcd_unequal_norms(monkeypatch):
    # a small-norm gcd and cofactor against a cofactor with 40-digit
    # entries: the packing width must follow the larger norm
    mul = exactcore._kronecker_mul
    g = [3, -1, 2]
    small = mul(g, [1, 1])
    big = mul(g, [10**40 + 1, -7 * 10**39, 3, 10**40 - 3])
    calls = counting_packs(monkeypatch)
    for a, b in ((small, big), (big, small)):
        found = exactcore._heuristic_gcd(a, b)
        assert found is not None
        assert found == prs_cofactors(a, b)
        assert found[0] == g
    assert len(calls) == 4  # one evaluation point each


def test_heuristic_gcd_retry(monkeypatch):
    # Both cofactors take the value 65537 = xi + 1 at -1, so at the first
    # point xi = 2**16 the values share that factor and the candidate picks
    # up z + 1, which divides neither input; the second point succeeds.
    mul = exactcore._kronecker_mul
    g = [1, 1, 1]
    a = mul([11000, -11000, 11000, -11000, 11000, -10537], g)
    b = mul([16000, -16000, 16000, -17537], g)
    calls = counting_packs(monkeypatch)
    found = exactcore._heuristic_gcd(a, b)
    assert calls[:2] == [2, 2] and len(calls) == 4 and calls[2] > 2
    assert found == prs_cofactors(a, b)
    assert found[0] == g
