"""Packed monomials: the kernels against their exponent-tuple definitions,
the overflow and width limits, and the exponent-tuple ``terms`` views."""

import random

import pytest

from paramvariety.algebra import (
    FIELD,
    MAX_EXP,
    MAX_VARS,
    DiffVar,
    MonomialOrder,
    ParamPoly,
    ParamRat,
    Poly,
    divides,
    exponents,
    field_guard,
    mono_lcm,
    mono_min,
    pack,
    support,
    unpack,
)
from paramvariety.cli import main
from paramvariety.errors import ResourceExhausted
from paramvariety.variety import variety_constraints

from .helpers import random_parampoly, random_poly, xy_ring


def _exps(rng, n):
    """An exponent vector whose entries are often 0 or MAX_EXP."""
    return tuple(rng.choice([0, 0, 1, 2, MAX_EXP, MAX_EXP - 1, rng.randint(0, MAX_EXP)])
                 for _ in range(n))


def test_kernels_match_tuple_definitions():
    rng = random.Random(13)
    for _ in range(3000):
        n = rng.choice([1, 2, 3, 5, 8, 40])
        a, b = _exps(rng, n), _exps(rng, n)
        pa, pb = pack(a), pack(b)
        guard = field_guard(n)
        assert unpack(pa, n) == a
        assert exponents(pa, n) == [(i, e) for i, e in enumerate(a) if e]
        assert (pa < pb) == (a < b) and (pa == pb) == (a == b)
        assert divides(pa, pb) == all(x <= y for x, y in zip(a, b))
        assert mono_lcm(pa, pb, guard) == pack(tuple(map(max, a, b)))
        assert mono_min(pa, pb, guard) == pack(tuple(map(min, a, b)))
        # the nonzero fields of the OR are the variables of either monomial
        assert [i for i, _ in exponents(support([pa, pb]), n)] == [
            i for i in range(n) if a[i] or b[i]]
        # + and - where the result fits
        c = tuple(rng.randint(0, MAX_EXP - x) for x in a)
        assert pa + pack(c) == pack(tuple(x + y for x, y in zip(a, c)))
        m = tuple(map(min, a, b))
        assert pa - pack(m) == pack(tuple(x - y for x, y in zip(a, m)))


def test_guard_covers_each_field():
    for n in (0, 1, 7, MAX_VARS):
        guard = field_guard(n)
        assert guard.bit_length() == FIELD * n
        assert guard == sum((MAX_EXP + 1) << (FIELD * i) for i in range(n))
    with pytest.raises(ResourceExhausted):
        field_guard(MAX_VARS + 1)
    with pytest.raises(ResourceExhausted):
        MonomialOrder([DiffVar("x", k) for k in range(MAX_VARS + 1)])
    with pytest.raises(ResourceExhausted):
        ParamPoly.gen(MAX_VARS + 1, 0)


def test_product_reaching_the_guard_raises():
    ring, x, y = xy_ring()
    big = Poly.var(ring, x, 1, power=2 ** 14)
    assert (big * Poly.var(ring, x, 1, power=2 ** 14 - 1)).terms == {(MAX_EXP, 0): 1}
    with pytest.raises(ResourceExhausted):
        big * Poly.var(ring, x, 1, power=2 ** 14)
    with pytest.raises(ResourceExhausted):
        big.mul_term(ParamRat.one(1), big.leading_term()[0])
    a = ParamPoly.gen(2, 1, power=2 ** 14)
    with pytest.raises(ResourceExhausted):
        a * a
    with pytest.raises(ResourceExhausted):
        Poly(ring, {(MAX_EXP + 1, 0): 1}, n=1)


OVERFLOW_MODEL = """states: x
output: y
params: a
horizon: 0 1
dx/dt = a*(x^200)^100
y = (x^200)^100
"""


def test_cli_exits_4_on_exponent_overflow(tmp_path, capsys):
    # the first S-polynomial multiplies x^19999 by x^20000
    model = tmp_path / "overflow.model"
    model.write_text(OVERFLOW_MODEL)
    assert main(["ioeq", "--model", str(model), "--out", str(tmp_path)]) == 4
    assert "exponent overflow" in capsys.readouterr().err


@pytest.mark.parametrize("exps", [(-1, 2), (1.5, 0), (0, "1")])
def test_bad_exponent_tuples_rejected(exps):
    ring, x, y = xy_ring()
    with pytest.raises(ValueError):
        Poly(ring, {exps: ParamRat.one(1)}, n=1)
    with pytest.raises(ValueError):
        ParamPoly(2, {exps: 1})


def test_bad_exponent_in_mapping_rejected():
    ring, x, y = xy_ring()
    with pytest.raises(ValueError):
        ring.pack({x: -1, y: 2})
    with pytest.raises(ValueError):
        Poly.var(ring, y, 1, power=-1)


def test_terms_views_keep_exponent_tuples(rng):
    ring, _, _ = xy_ring()
    for _ in range(50):
        p = random_poly(rng, ring, 2, rational=True)
        assert list(p.terms) == [ring.unpack(k) for k in p.packed]
        assert all(type(k) is tuple and len(k) == len(ring) for k in p.terms)
        assert sorted(p.terms) == [ring.unpack(k) for k in sorted(p.packed)]
        assert Poly(ring, p.terms, n=2) == p
        q = random_parampoly(rng, 3)
        assert list(q.terms) == [unpack(k, 3) for k in q.packed]
        assert all(type(k) is tuple and len(k) == 3 for k in q.terms)
        assert ParamPoly(3, q.terms) == q
        assert repr(ParamPoly(3, q.terms)) == repr(q)


def test_lv_constraint_terms_are_tuple_keyed(lv_io, lv_model):
    cons = variety_constraints(lv_io, [1.5, -2.0, 0.25, 3.0, 1.0, 0.5],
                               assumptions=lv_model.assume_nonzero)
    assert cons.equations
    n = lv_model.nparams
    for eq in cons.equations:
        items = tuple(eq.terms.items())
        assert items
        assert all(type(k) is tuple and len(k) == n and all(type(e) is int for e in k)
                   for k, _ in items)
        assert ParamPoly(n, dict(items)) == eq
