import math
import operator
import random
import warnings
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from paramvariety.algebra import (
    DiffVar,
    MonomialOrder,
    ParamPoly,
    ParamRat,
    Poly,
    _canonical,
    _integer_primitive,
    batch_evaluator,
    dict_mul,
    exact_divide,
    field_guard,
    mono_min,
    pack,
    poly_divide,
    term_list,
    term_list_partials,
)
from paramvariety.errors import (
    DivisionByZero,
    RingMismatch,
    UnknownVariable,
    ZeroPolynomial,
)
from paramvariety.ioeq import derive_io_basis
from paramvariety.model import load_model

from .conftest import MODELS
from .helpers import (
    agens,
    poly_value,
    pp,
    random_parampoly,
    random_paramrat,
    random_poly,
    xy_ring,
)


# ---------------------------------------------------------------------------
# ParamRat field arithmetic
# ---------------------------------------------------------------------------

def test_rat_add_simple():
    # a4 + a7 (the first-derivative coefficient of the viral IO equation)
    a4, a5, a6, a7 = agens(4)
    s = a4 + a7
    assert s == pp(4, {(1, 0, 0, 0): 1, (0, 0, 0, 1): 1})
    assert s.den.is_constant and s.den.constant_value() == 1


def test_rat_mul_triple_product():
    # a4*a5 times a7 gives the zeroth-order coefficient a4*a5*a7
    a4, a5, a6, a7 = agens(4)
    prod = (a4 * a5) * a7
    assert prod == pp(4, {(1, 1, 0, 1): 1})


def test_rat_inv():
    a5, a6 = ParamRat.gen(2, 0), ParamRat.gen(2, 1)
    u = a5 * a6 - a6
    inv = u.inv()
    assert inv.num.is_constant and inv.num.constant_value() == 1
    assert inv.den == u.num
    assert (u * inv).is_one


def test_inv_zero_raises():
    with pytest.raises(DivisionByZero):
        ParamRat.zero(2).inv()
    with pytest.raises(DivisionByZero):
        ParamRat(pp(2, {(1, 0): 1}), pp(2, {}))


def test_field_axioms_randomized(rng):
    n = 3
    for _ in range(60):
        a = random_paramrat(rng, n, allow_zero=True)
        b = random_paramrat(rng, n, allow_zero=True)
        c = random_paramrat(rng, n, allow_zero=True)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero:
            assert (a * a.inv()).is_one
            assert a.inv().inv() == a


def test_canonical_form_invariants(rng):
    from math import gcd
    n = 3
    for _ in range(80):
        r = random_paramrat(rng, n)
        # denominator leading coefficient positive
        assert r.den.packed[max(r.den.packed)] > 0
        # no common integer content across the pair
        g = 0
        for c in list(r.num.terms.values()) + list(r.den.terms.values()):
            assert isinstance(c, int)
            g = gcd(g, c)
        assert g == 1
        # no common monomial factor
        lows = None
        for terms in (r.num.terms, r.den.terms):
            for exps in terms:
                lows = exps if lows is None else tuple(map(min, lows, exps))
        assert not any(lows)


def test_canonicalization_idempotent(rng):
    for _ in range(40):
        r = random_paramrat(rng, 3)
        again = ParamRat(r.num, r.den)
        assert again.num.terms == r.num.terms
        assert again.den.terms == r.den.terms


def _content(terms):
    g = 0
    for c in terms.values():
        g = gcd(g, c)
    return g


def test_scalar_product_matches_full_normalization():
    # a product with a parameter-free factor only rescales; it must give the
    # terms, and their dict order, that the full normalization gives
    rng = random.Random(11)
    n = 3
    checked = param_den = 0
    for _ in range(120):
        r = random_paramrat(rng, n)
        param_den += not r.den.is_constant
        if rng.random() < 0.5:
            # integer content on both sides, for constants to cancel against
            r = ParamRat(r.num * rng.choice([2, 6, 10]), r.den * rng.choice([3, 9, 35]))
        cn, cd = _content(r.num.terms), _content(r.den.terms)
        scalars = [1, -1, rng.randint(2, 40), -rng.randint(2, 40),
                   Fraction(-rng.randint(1, 30), rng.randint(2, 30)),
                   Fraction(cd, cn), Fraction(-cd * rng.randint(1, 5), cn),
                   Fraction(rng.randint(1, 5) * cd, 7 * cn)]
        for s in scalars:
            c = ParamRat.from_const(n, s)
            expected = repr(ParamRat(r.num * c.num, r.den * c.den))
            for product in (r * c, c * r, r * s, s * r):
                assert repr(product) == expected
            checked += 1
    assert checked == 960 and param_den > 60


def test_inv_and_from_const_match_full_normalization():
    # inv swaps the canonical pair and from_const builds it directly; both
    # must give the terms, and their dict order, of the full normalization
    rats = []
    for name in ("decay", "viral", "lotka_volterra", "virus_full"):
        for g in derive_io_basis(load_model(MODELS / f"{name}.model")).gb:
            rats += g.terms.values()
    assert len(rats) > 100 and any(not r.den.is_constant for r in rats)
    rng = random.Random(12)
    for _ in range(200):
        r = random_paramrat(rng, 3)
        rats += [r, -r, r * rng.choice([2, -6, Fraction(5, 3)])]
    for r in rats:
        assert repr(r.inv()) == repr(ParamRat(r.den, r.num))
    values = [0, 1, -1, Fraction(0), Fraction(7), "2.5", "-1/3"]
    values += [rng.randint(-10**6, 10**6) for _ in range(50)]
    values += [Fraction(rng.randint(-999, 999), rng.randint(1, 999))
               for _ in range(100)]
    for v in values:
        f = Fraction(v)
        expected = ParamRat(ParamPoly.const(2, f.numerator),
                            ParamPoly.const(2, f.denominator))
        assert repr(ParamRat.from_const(2, v)) == repr(expected)
    assert repr(ParamRat.from_const(2, 4)) == repr(ParamRat(ParamPoly.const(2, 4)))


def test_trial_division_reduces():
    # (a^2 - a) / (a - 1) -> a
    n = 1
    num = pp(n, {(2,): 1, (1,): -1})
    den = pp(n, {(1,): 1, (0,): -1})
    r = ParamRat(num, den)
    assert r == ParamRat.gen(n, 0)
    assert r.den.constant_value() == 1
    # and the reciprocal side: (a - 1) / (a^2 - a) -> 1/a
    r2 = ParamRat(den, num)
    assert r2.num.constant_value() == 1
    assert r2.den == pp(n, {(1,): 1})


def test_constant_denominator_kept_exact():
    r = ParamRat(pp(1, {(1,): 3}), pp(1, {(0,): 5}))
    assert r.num == pp(1, {(1,): 3})
    assert r.den.constant_value() == 5
    assert r.evaluate([10.0]) == pytest.approx(6.0)


def test_parameter_free_ratio_evaluates_exactly():
    # numerator and denominator evaluate to the ints 3 and 2; their true
    # division would give the float 1.5
    r = ParamRat.from_const(2, Fraction(3, 2))
    value = r.evaluate([Fraction(1, 3), Fraction(7)])
    assert isinstance(value, Fraction) and value == Fraction(3, 2)


def test_fraction_coefficients_cleared():
    r = ParamRat(pp(2, {(1, 0): Fraction(1, 2)}), pp(2, {(0, 1): Fraction(3, 4)}))
    assert all(isinstance(c, int) for c in r.num.terms.values())
    assert all(isinstance(c, int) for c in r.den.terms.values())
    assert r == ParamRat(pp(2, {(1, 0): 2}), pp(2, {(0, 1): 3}))


def test_negative_denominator_sign_flip():
    r = ParamRat(pp(1, {(1,): 1}), pp(1, {(0,): -2}))
    assert r.den.packed[max(r.den.packed)] > 0
    assert r == ParamRat(pp(1, {(1,): -1}), pp(1, {(0,): 2}))


def test_exact_divide():
    # (a1^2 - a2^2) / (a1 - a2) = a1 + a2
    num = pp(2, {(2, 0): 1, (0, 2): -1})
    den = pp(2, {(1, 0): 1, (0, 1): -1})
    q = exact_divide(num, den)
    assert q == pp(2, {(1, 0): 1, (0, 1): 1})
    assert exact_divide(den, num) is None


def _ref_exact_divide(num, den):
    """The former exact_divide over exponent tuples: every quotient
    coefficient a Fraction."""
    den_terms = den.terms
    lm_d = max(den_terms)
    lc_d = den_terms[lm_d]
    rem, quot = num.terms, {}
    while rem:
        lm_r = max(rem)
        if any(x > y for x, y in zip(lm_d, lm_r)):
            return None
        c = Fraction(rem[lm_r]) / lc_d
        delta = tuple(x - y for x, y in zip(lm_r, lm_d))
        quot[delta] = c
        for m, b in den_terms.items():
            k = tuple(x + y for x, y in zip(m, delta))
            s = rem.get(k, 0) - c * b
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return ParamPoly(num.n, quot)


def test_exact_divide_matches_fraction_reference():
    # (2*a1) / (4*a1) = 1/2 stays a Fraction
    assert exact_divide(pp(1, {(1,): 2}), pp(1, {(1,): 4})).terms == {(0,): Fraction(1, 2)}
    rng = random.Random(5)
    seen = set()
    for _ in range(600):
        n = rng.randint(1, 3)
        kinds = ["int", "fraction", "whole", "mixed"]
        den = _clearing_input(rng, n, rng.choice(kinds))
        if rng.random() < 0.7:
            num = _clearing_input(rng, n, rng.choice(kinds)) * den
        else:
            num = _clearing_input(rng, n, rng.choice(kinds))
        got, want = exact_divide(num, den), _ref_exact_divide(num, den)
        if want is None:
            assert got is None
            seen.add("none")
            continue
        assert got == want
        assert (repr(list(_integer_primitive(got.terms)))
                == repr(list(_integer_primitive(want.terms))))
        if all(isinstance(c, int) for c in (*num.terms.values(), *den.terms.values())):
            if all(isinstance(c, int) for c in got.terms.values()):
                seen.add("int quotient")
            else:
                seen.add("fraction quotient of ints")
    assert seen == {"none", "int quotient", "fraction quotient of ints"}


def _same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _terms(p):
    return term_list(p.packed, range(p.n), range(p.n))


def test_batch_evaluator_matches_evaluate():
    # every entry is float(ParamPoly.evaluate) at the point, bit for bit,
    # for several polynomials and several points per call
    rng = random.Random(17)
    coeffs = [lambda: rng.randint(-9, 9) or 1,
              lambda: rng.choice([-1, 1]) * rng.randint(10 ** 20, 10 ** 40),
              lambda: Fraction(rng.randint(-50, 50) or 1, rng.randint(2, 10 ** 12)),
              lambda: Fraction(rng.randint(1, 10 ** 30), 3)]
    values = [lambda: rng.uniform(-3.0, 3.0), lambda: 0.0, lambda: -0.0,
              lambda: np.float64(rng.uniform(-3.0, 3.0)), lambda: float(rng.randint(-2, 2))]
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 4)
        polys = []
        for _ in range(rng.randint(1, 4)):
            terms = {}
            for _ in range(rng.choice([0, 1, 2, 3, 5])):
                # the LV constraints reach degree 8
                exps = tuple(rng.choice([0, 0, 1, 2, 3, rng.randint(4, 8)]) for _ in range(n))
                terms[exps] = rng.choice(coeffs)()
            p = ParamPoly(n, terms)
            seen.add("zero" if p.is_zero else "constant" if p.is_constant else "general")
            seen.update(f"e={e}" for exps in p.terms for e in exps if e)
            polys.append(p)
        f = batch_evaluator([_terms(p) for p in polys])
        points = [[rng.choice(values)() for _ in range(n)] for _ in range(rng.randint(1, 5))]
        got = f(np.array(points))
        assert got.shape == (len(points), len(polys)) and got.flags.c_contiguous
        for row, x in zip(got.tolist(), points):
            for value, p in zip(row, polys):
                want = float(p.evaluate(x))
                assert _same_float(value, want), (p, x, value, want)
    assert {"zero", "constant", "general"} <= seen
    assert {f"e={e}" for e in range(1, 9)} <= seen


def test_batch_evaluator_overflows_as_python_floats_do():
    # products and sums that overflow give inf or nan as Python floats do,
    # with no RuntimeWarning; a power that overflows raises OverflowError
    rng = random.Random(29)
    values = [1e300, -1e300, 1e200, 1e160, -1e160, 1.5, -0.0]
    seen = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(300):
            n = rng.randint(1, 3)
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.choice([0, 1, 1, 2]) for _ in range(n))
                terms[exps] = rng.choice([-1, 1]) * rng.randint(10 ** 20, 10 ** 40)
            p = ParamPoly(n, terms)
            f = batch_evaluator([_terms(p)])
            points = [[rng.choice(values) for _ in range(n)] for _ in range(3)]
            for x in points:
                try:
                    want = float(p.evaluate(x))
                except OverflowError:
                    with pytest.raises(OverflowError):
                        f([x])
                    seen.add("power overflow")
                    continue
                got = f([x])[0, 0]
                seen.add(repr(want) if not math.isfinite(want) else "finite")
                assert _same_float(got, want) or math.isnan(got) and math.isnan(want)
    assert seen == {"inf", "-inf", "nan", "finite", "power overflow"}


def test_term_list_partials_match_exponent_tuples():
    # the partial of a term list is the term list of the partial computed on
    # exponent tuples, terms and coefficients alike
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 4)
        p = random_parampoly(rng, n, max_terms=6, max_deg=4, coeff=10 ** 6)
        positions = rng.sample(range(n), rng.randint(0, n))
        for pos, got in zip(positions, term_list_partials(_terms(p), positions)):
            want = {k[:pos] + (k[pos] - 1,) + k[pos + 1:]: c * k[pos]
                    for k, c in p.terms.items() if k[pos]}
            assert got == _terms(ParamPoly(n, want))


# ---------------------------------------------------------------------------
# lexicographic order
# ---------------------------------------------------------------------------

def test_lex_compare_paper_ordering():
    # x3'' > x2'' > x3' > x2' > x3 > x2 (the viral jet ordering)
    vars = [DiffVar("x3", 2), DiffVar("x2", 2), DiffVar("x3", 1),
            DiffVar("x2", 1), DiffVar("x3", 0), DiffVar("x2", 0)]
    order = MonomialOrder(vars)
    m_x3dd = order.exps({DiffVar("x3", 2): 1})
    m_x2dd = order.exps({DiffVar("x2", 2): 1})
    assert m_x3dd > m_x2dd
    assert not m_x2dd > m_x3dd
    assert order.pack(m_x3dd) > order.pack(m_x2dd)
    assert m_x3dd == order.exps({DiffVar("x3", 2): 1})
    p = Poly(order, {m_x2dd: 1, m_x3dd: 1}, n=1)
    assert p.leading_term()[0] == order.pack(m_x3dd)


def test_lex_ignores_total_degree():
    y1, y0 = DiffVar("y", 1), DiffVar("y", 0)
    order = MonomialOrder([y1, y0])
    p = Poly(order, {order.exps({y0: 2}): 1, order.exps({y1: 1}): 1}, n=1)
    assert p.leading_term()[0] == order.pack({y1: 1})


def test_lex_unknown_variable():
    order = MonomialOrder([DiffVar("y", 0)])
    with pytest.raises(UnknownVariable):
        order.exps({DiffVar("z", 0): 1})


def test_lex_antisymmetric_transitive(rng):
    ring, _, _ = xy_ring()

    def lead(*ms):
        return ring.unpack(Poly(ring, {m: 1 for m in ms}, n=1).leading_term()[0])

    for _ in range(100):
        a, b, c = (ring.exps(tuple(rng.randint(0, 3) for _ in ring.vars))
                   for _ in range(3))
        assert lead(a, b) == lead(b, a) in (a, b)
        if lead(a, b) == a and lead(b, c) == b:
            assert lead(a, c) == a


# ---------------------------------------------------------------------------
# leading terms and division
# ---------------------------------------------------------------------------

def test_leading_term_viral_io(viral_io):
    key, coeff = viral_io.full.leading_term()
    exps = viral_io.full.ring.unpack(key)
    # leading monomial is y'' with coefficient 1
    assert viral_io.ring.vars[exps.index(1)] == DiffVar("y", 2)
    assert sum(exps) == 1
    assert coeff.is_one


def test_leading_term_constant():
    ring, x, y = xy_ring()
    p = Poly.const(ring, ParamRat.from_const(1, 5))
    key, coeff = p.leading_term()
    assert key == 0 and ring.unpack(key) == (0, 0)
    assert coeff == 5


def test_leading_term_xy():
    ring, x, y = xy_ring()
    n = 1
    p = Poly(ring, {(1, 1): 1, (0, 2): 1}, n=n)
    key, coeff = p.leading_term()
    assert ring.unpack(key) == (1, 1)
    assert coeff.is_one


def test_leading_term_zero_raises():
    ring, _, _ = xy_ring()
    with pytest.raises(ZeroPolynomial):
        Poly.zero(ring, 1).leading_term()


def test_divide_generator_by_own_set():
    ring, x, y = xy_ring()
    n = 1
    g1 = Poly(ring, {(1, 0): 1, (0, 1): -1}, n=n)        # x - y
    g2 = Poly(ring, {(0, 2): 1, (0, 0): 3}, n=n)          # y^2 + 3
    for g in (g1, g2):
        quots, rem = poly_divide(g, [g1, g2])
        assert rem.is_zero


def test_divide_zero():
    ring, x, y = xy_ring()
    z = Poly.zero(ring, 1)
    divisor = Poly(ring, {(1, 0): 1}, n=1)
    quots, rem = poly_divide(z, [divisor])
    assert rem.is_zero and all(q.is_zero for q in quots)


def test_divide_x2_plus_y_by_x_minus_y():
    # frozen by hand: substituting x -> y turns x^2 + y into y^2 + y
    ring, x, y = xy_ring()
    n = 1
    f = Poly(ring, {(2, 0): 1, (0, 1): 1}, n=n)
    g = Poly(ring, {(1, 0): 1, (0, 1): -1}, n=n)
    quots, rem = poly_divide(f, [g])
    assert rem == Poly(ring, {(0, 2): 1, (0, 1): 1}, n=n)
    assert quots[0] == Poly(ring, {(1, 0): 1, (0, 1): 1}, n=n)


def test_divide_reassembles(rng):
    ring, _, _ = xy_ring()
    n = 2
    for _ in range(40):
        f = random_poly(rng, ring, n, rational=True)
        divisors = [random_poly(rng, ring, n) for _ in range(rng.randint(1, 3))]
        divisors = [d for d in divisors if not d.is_zero]
        if not divisors:
            continue
        quots, rem = poly_divide(f, divisors)
        total = rem
        for q, d in zip(quots, divisors):
            total = total + q * d
        assert total == f
        # no remainder monomial is divisible by a divisor leading monomial
        for exps in rem.terms:
            for d in divisors:
                lm = ring.unpack(d.leading_term()[0])
                assert not all(a <= b for a, b in zip(lm, exps))


def test_poly_power_matches_repeated_product():
    rng = random.Random(21)
    ring, _, _ = xy_ring()
    n = 2
    a1, a2 = agens(n)
    coeffs = [lambda: ParamRat.from_const(n, Fraction(rng.randint(-9, 9),
                                                      rng.randint(1, 9))),
              lambda: rng.choice([a1, a2, a1 + a2, a1 / a2]) * rng.randint(-3, 3)]
    for coeff in coeffs:
        for _ in range(6):
            terms = {(rng.randint(0, 2), rng.randint(0, 2)): coeff()
                     for _ in range(rng.randint(1, 3))}
            p = Poly(ring, terms, n=n)
            product = Poly.const(ring, ParamRat.one(n))
            for k in range(10):
                assert p ** k == product
                product = product * p
    with pytest.raises(ValueError):
        p ** -1


def test_divide_ring_mismatch():
    ring, _, _ = xy_ring()
    other = MonomialOrder([DiffVar("x", 0)])
    f = Poly(ring, {(1, 0): 1}, n=1)
    g = Poly(other, {(1,): 1}, n=1)
    with pytest.raises(RingMismatch):
        poly_divide(f, [g])


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
def test_paramrat_parampoly_mix(op):
    """A ParamPoly operand of another parameter count is refused in either
    order; of the same count it is read as a ParamRat in either order."""
    r = ParamRat.gen(2, 0)
    with pytest.raises(RingMismatch):
        op(r, ParamPoly.gen(3, 0))
    with pytest.raises(RingMismatch):
        op(ParamPoly.gen(3, 0), r)
    p = ParamPoly.gen(2, 1)
    assert op(r, p) == op(r, ParamRat(p))
    assert op(p, r) == op(ParamRat(p), r)


def test_poly_rendering_roundtrip_shape():
    ring, x, y = xy_ring()
    n = 2
    c = ParamRat(pp(n, {(1, 0): 1, (0, 1): 1}))
    p = Poly(ring, {(1, 0): c, (0, 0): ParamRat.from_const(n, -3)}, n=n)
    assert p.render(("a1", "a2")) == "(a1 + a2)*x - 3"


def test_poly_evaluate_reads_only_used_variables():
    # (a1 + a2)*x - 3 needs no value for y
    ring, x, y = xy_ring()
    n = 2
    c = ParamRat(pp(n, {(1, 0): 1, (0, 1): 1}))
    p = Poly(ring, {(1, 0): c, (0, 0): ParamRat.from_const(n, -3)}, n=n)
    assert poly_value(p, {x: 2.0}, [1.5, 0.25]) == 0.5


# ---------------------------------------------------------------------------
# term-dict kernels
# ---------------------------------------------------------------------------

def _rand_dict(rng, nvars, nterms):
    out = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, 4) for _ in range(nvars))
        c = rng.randint(-50, 50)
        if c:
            out[exps] = c
    return out


def test_dict_mul_against_naive():
    rng = random.Random(3)
    for _ in range(30):
        a = _rand_dict(rng, 3, 5)
        b = _rand_dict(rng, 3, 5)
        naive = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                naive[k] = naive.get(k, 0) + va * vb
        naive = {pack(k): v for k, v in naive.items() if v}
        assert dict_mul({pack(k): v for k, v in a.items()},
                        {pack(k): v for k, v in b.items()}) == naive


# ---------------------------------------------------------------------------
# integer clearing against the routines that _integer_primitive replaced
# ---------------------------------------------------------------------------

def _ref_clear_to_int(p):
    """The former algebra._clear_to_int: (poly, scale), p = poly / scale."""
    denoms = [c.denominator for c in p.terms.values() if isinstance(c, Fraction)]
    if not denoms:
        return p, Fraction(1)
    m = lcm(*denoms)
    terms = {k: int(c * m) for k, c in p.terms.items()}
    return ParamPoly(p.n, terms), Fraction(m)


def _ref_content(terms):
    g = 0
    for v in terms.values():
        g = gcd(g, v)
    return g


def _ref_div(p, g):
    return ParamPoly(p.n, {k: v // g for k, v in p.terms.items()})


def _ref_rescale_pair(num, den):
    """The former algebra._rescale_pair: clear num and den apart, bring them
    to one scale and clear again, then divide out the joint content and the
    common monomial factor."""
    num, s_num = _ref_clear_to_int(num)
    den, s_den = _ref_clear_to_int(den)
    if s_num != s_den:
        ratio = s_den / s_num
        num, _ = _ref_clear_to_int(num * ratio.numerator)
        den, _ = _ref_clear_to_int(den * ratio.denominator)
    g = gcd(_ref_content(num.terms), _ref_content(den.terms))
    if g > 1:
        num, den = _ref_div(num, g), _ref_div(den, g)
    shift = tuple(map(min, zip(*num.terms, *den.terms)))
    if any(shift):
        num, den = (ParamPoly(p.n, {tuple(x - y for x, y in zip(k, shift)): c
                                    for k, c in p.terms.items()}) for p in (num, den))
    return num, den


def _ref_primitive(p):
    """The former ParamPoly.primitive, without the scale it also returned."""
    num, _ = _ref_clear_to_int(p)
    g = _ref_content(num.terms)
    if g > 1:
        num = _ref_div(num, g)
    return -num if num.packed[max(num.packed)] < 0 else num


def _clearing_input(rng, n, kind):
    """A nonzero ParamPoly whose coefficients are ints with a common content
    of 1 to 6 ('int'), Fractions over multiples of one drawn scale
    ('fraction'), whole Fractions k/1 ('whole'), or a mix of the three."""
    content = rng.randint(1, 6)
    scale = rng.choice([2, 3, 4, 6, 9, 10, 12])
    terms = {}
    for _ in range(rng.randint(1, 4)):
        k = rng.choice([-1, 1]) * rng.randint(1, 9)
        c = {"int": k * content, "fraction": Fraction(k, scale * rng.randint(1, 3)),
             "whole": Fraction(k)}[rng.choice(["int", "fraction", "whole"])
                                   if kind == "mixed" else kind]
        terms[tuple(rng.randint(0, 2) for _ in range(n))] = c
    return ParamPoly(n, terms)


def test_integer_clearing_matches_reference():
    rng = random.Random(11)
    seen = set()
    for _ in range(600):
        n = rng.randint(1, 3)
        num, den = (_clearing_input(rng, n, rng.choice(["int", "fraction", "whole",
                                                         "mixed"]))
                    for _ in range(2))
        r = _canonical(num.packed, den.packed, n)
        got, want = (r.num, r.den), _former_normalize(num, den, _ref_rescale_pair)
        assert [repr(p.terms) for p in got] == [repr(p.terms) for p in want]
        for p in (num, den):
            assert repr(p.primitive().terms) == repr(_ref_primitive(p).terms)
            coeffs = list(p.terms.values())
            if any(isinstance(c, Fraction) and c.denominator == 1 for c in coeffs):
                seen.add("whole")
            if all(isinstance(c, int) for c in coeffs) and _ref_content(p.terms) > 1:
                seen.add("int content > 1")
            if p.packed[max(p.packed)] < 0:
                seen.add("negative lead")
        scales = {_ref_clear_to_int(p)[1] for p in (num, den)}
        if len(scales) == 2 and Fraction(1) not in scales:
            seen.add("different scales")
    assert seen == {"whole", "int content > 1", "negative lead", "different scales"}
    # the common case: an int-only dict of content 1 comes back uncopied
    terms = {(1, 0): 3, (0, 1): -2}
    assert _integer_primitive(terms)[0] is terms


# ---------------------------------------------------------------------------
# the ParamRat kernel against the ParamPoly-level normalization it replaced
# ---------------------------------------------------------------------------

def _former_common_monomial(a, b, n):
    """The former algebra._common_monomial."""
    if 0 in a or 0 in b:
        return 0
    guard = field_guard(n)
    m = None
    for terms in (a, b):
        for key in terms:
            m = key if m is None else mono_min(m, key, guard)
            if not m:
                return 0
    return m


def _former_rescale_pair(num, den):
    """The former algebra._rescale_pair: the joint integer primitive, then
    the common monomial factor divided out."""
    a, b = _integer_primitive(num.packed, den.packed)
    shift = _former_common_monomial(a, b, num.n)
    if shift:
        a = {key - shift: c for key, c in a.items()}
        b = {key - shift: c for key, c in b.items()}
    return ParamPoly(num.n, a, _checked=True), ParamPoly(num.n, b, _checked=True)


def _former_normalize(num, den, rescale=_former_rescale_pair, seen=None):
    """The former algebra._normalize over ParamPolys, with the rescaling
    step as a parameter; seen collects the branches taken."""
    seen = set() if seen is None else seen
    if num.is_zero:
        return ParamPoly.zero(num.n), ParamPoly.const(num.n, 1)
    if _former_common_monomial(*_integer_primitive(num.packed, den.packed), num.n):
        seen.add("common monomial")
    num, den = rescale(num, den)
    for _ in range(8):  # each trial division strictly lowers a degree
        if den.is_constant:
            break
        q = exact_divide(num, den)
        if q is not None:
            seen.add("num by den")
            num, den = rescale(q, ParamPoly.const(num.n, 1))
            continue
        if not num.is_constant:
            q = exact_divide(den, num)
            if q is not None:
                seen.add("den by num")
                num, den = rescale(ParamPoly.const(num.n, 1), q)
                continue
        break
    if den.packed[max(den.packed)] < 0:
        seen.add("sign")
        num, den = -num, -den
    return num, den


def _former_ops(x, y, seen):
    """{operation: (num, den)} of x*y, x+y, x-y, -x, x/y and inv(x) for
    canonical (num, den) pairs x and y, as the former ParamRat methods
    computed them."""
    n = x[0].n

    def normalize(num, den):
        return _former_normalize(num, den, seen=seen)

    def neg(a):
        return -a[0], a[1]

    def inv(a):
        num, den = a[1], a[0]
        return (-num, -den) if den.packed[max(den.packed)] < 0 else (num, den)

    def scaled(a, c):
        seen.add("scaled")
        p, q = c[0].packed[max(c[0].packed)], c[1].packed[max(c[1].packed)]
        if p == q:
            return a
        num, den = _integer_primitive({k: v * p for k, v in a[0].packed.items()},
                                      {k: v * q for k, v in a[1].packed.items()})
        return ParamPoly(n, num, _checked=True), ParamPoly(n, den, _checked=True)

    def mul(a, b):
        if a[0].is_zero or b[0].is_zero:
            return ParamPoly.zero(n), ParamPoly.const(n, 1)
        if b[0].is_constant and b[1].is_constant:
            return scaled(a, b)
        if a[0].is_constant and a[1].is_constant:
            return scaled(b, a)
        return normalize(a[0] * b[0], a[1] * b[1])

    def add(a, b):
        if a[0].is_zero:
            return b
        if b[0].is_zero:
            return a
        if a[1].packed == b[1].packed:
            return normalize(a[0] + b[0], a[1])
        return normalize(a[0] * b[1] + b[0] * a[1], a[1] * b[1])

    out = {"mul": mul(x, y), "add": add(x, y), "sub": add(x, neg(y)), "neg": neg(x)}
    if not y[0].is_zero:
        out["div"] = mul(x, inv(y))
    if not x[0].is_zero:
        out["inv"] = inv(x)
    return out


def _kernel_operands(rng, n):
    """Canonical operands: zero, parameter-free, with a monomial factor on
    either side, and pairs whose product or sum cancels a factor, such as
    ((a+b) c / d) * (d / (a+b))."""
    def poly():
        return random_parampoly(rng, n, max_terms=3)

    def nonzero():
        p = poly()
        while p.is_zero:
            p = poly()
        return p

    def monomial():
        return ParamPoly.gen(n, rng.randrange(n), rng.randint(1, 2))

    f, c, d = nonzero(), nonzero(), nonzero()
    g, h = nonzero(), nonzero()
    return [
        ParamRat.zero(n),
        ParamRat.from_const(n, Fraction(rng.choice([-1, 1]) * rng.randint(1, 12),
                                        rng.randint(1, 12))),
        ParamRat(nonzero() * monomial(), nonzero()),
        ParamRat(nonzero(), nonzero() * monomial()),
        ParamRat(f * c, d), ParamRat(d, f),           # product cancels to c
        ParamRat(d, f * c), ParamRat(f, d),           # product cancels to 1/c
        ParamRat(g * h, d), ParamRat(g * (c - h), d),  # sum has the factor g
        random_paramrat(rng, n),
        -random_paramrat(rng, n),
    ]


def _terms_repr(pair):
    return repr(pair[0].terms), repr(pair[1].terms)


def test_paramrat_kernel_matches_former_normalization():
    rng = random.Random(14)
    seen = set()
    compared = 0
    for _ in range(30):
        n = rng.randint(1, 3)
        operands = _kernel_operands(rng, n)
        pairs = [(x, y) for x in operands for y in operands]
        pairs += [(x, y) for x in operands[4:10] for y in operands[4:10]]
        for x, y in rng.sample(pairs, 40) + list(zip(operands, operands[1:])):
            want = _former_ops((x.num, x.den), (y.num, y.den), seen)
            got = {"mul": x * y, "add": x + y, "sub": x - y, "neg": -x}
            if not y.is_zero:
                got["div"] = x / y
            if not x.is_zero:
                got["inv"] = x.inv()
            assert got.keys() == want.keys()
            for op, r in got.items():
                assert _terms_repr((r.num, r.den)) == _terms_repr(want[op]), (op, x, y)
                # canonical pairs are int-only
                assert all(type(c) is int for c in (*r.num.packed.values(),
                                                    *r.den.packed.values()))
                compared += 1
    assert compared > 8000
    assert seen == {"common monomial", "num by den", "den by num", "sign", "scaled"}
