import itertools
import random

import pytest

from paramvariety.algebra import (
    DiffVar,
    MonomialOrder,
    ParamRat,
    Poly,
    poly_divide,
)
from paramvariety.errors import (
    InvalidBlock,
    ResourceExhausted,
    RingMismatch,
    UsageError,
    ZeroPolynomial,
)
from paramvariety.ioeq import derive_io_basis
from paramvariety.model import parse_model, prolong
from paramvariety.groebner import (
    GBLimits,
    buchberger,
    elimination_subset,
    reduce_basis,
    s_polynomial,
)

from .helpers import chain_text, derive_inputs, random_poly


def _xyz_ring():
    x, y, z = DiffVar("x", 0), DiffVar("y", 0), DiffVar("z", 0)
    return MonomialOrder([x, y, z]), x, y, z


def _p(ring, n, terms):
    return Poly(ring, terms, n=n)


# ---------------------------------------------------------------------------
# s-polynomials
# ---------------------------------------------------------------------------

def test_s_polynomial_self_is_zero():
    ring, x, y, z = _xyz_ring()
    f = _p(ring, 1, {(1, 0, 0): 1, (0, 1, 0): -1})
    assert s_polynomial(f, f).is_zero


def test_s_polynomial_hand_expansion():
    # S(x - y, x - z) with x > y > z: lcm = x, S = (x - y) - (x - z) = z - y
    ring, x, y, z = _xyz_ring()
    f = _p(ring, 1, {(1, 0, 0): 1, (0, 1, 0): -1})
    g = _p(ring, 1, {(1, 0, 0): 1, (0, 0, 1): -1})
    s = s_polynomial(f, g)
    assert s == _p(ring, 1, {(0, 0, 1): 1, (0, 1, 0): -1})


def test_s_polynomial_monomials_reduce_to_zero():
    ring, x, y, z = _xyz_ring()
    f = _p(ring, 1, {(2, 0, 0): 1})
    g = _p(ring, 1, {(1, 1, 0): 1})
    s = s_polynomial(f, g)
    assert poly_divide(s, [f, g])[1].is_zero


# ---------------------------------------------------------------------------
# buchberger
# ---------------------------------------------------------------------------

def test_single_polynomial_is_its_own_basis():
    ring, x, y, z = _xyz_ring()
    f = _p(ring, 1, {(1, 2, 0): 3, (0, 0, 1): 1})
    basis = buchberger([f])
    assert len(basis) == 1
    assert basis[0] == f.monic()


def test_zero_generator_rejected():
    ring, _, _, _ = _xyz_ring()
    with pytest.raises(ZeroPolynomial):
        buchberger([Poly.zero(ring, 1)])


def test_empty_generator_list_rejected():
    with pytest.raises(ValueError):
        buchberger([])


def test_viral_basis_contains_io_element(viral_model, viral_rgb):
    from paramvariety.algebra import DiffVar
    yvars = {DiffVar("y", k) for k in range(3)}
    iofree = [g for g in viral_rgb if g.uses_only(yvars)]
    assert len(iofree) == 1
    # y'' + (a4 + a7) y' + a4 a5 a7 y, built independently
    n = 4
    ring = viral_rgb[0].ring
    a4, a5, a7 = ParamRat.gen(n, 0), ParamRat.gen(n, 1), ParamRat.gen(n, 3)
    expected = (Poly.var(ring, DiffVar("y", 2), n)
                + Poly.var(ring, DiffVar("y", 1), n).scale(a4 + a7)
                + Poly.var(ring, DiffVar("y", 0), n).scale(a4 * a5 * a7))
    assert iofree[0] == expected


def test_lv_basis_contains_y_only_element(lv_rgb):
    yvars = {DiffVar("y", k) for k in range(3)}
    iofree = [g for g in lv_rgb if g.uses_only(yvars)]
    assert len(iofree) == 1
    assert len(lv_rgb) == 8


def test_resource_cap():
    ring, x, y, z = _xyz_ring()
    rng = random.Random(0)
    gens = [random_poly(rng, ring, 1, max_terms=4, max_deg=3) for _ in range(4)]
    gens = [g for g in gens if not g.is_zero]
    with pytest.raises(ResourceExhausted):
        buchberger(gens, limits=GBLimits(max_pairs=1, max_basis=400))


@pytest.mark.parametrize("name", ["PARAMVARIETY_GB_MAX_PAIRS",
                                  "PARAMVARIETY_GB_MAX_BASIS"])
def test_limits_from_env(monkeypatch, name):
    field = {"PARAMVARIETY_GB_MAX_PAIRS": "max_pairs",
             "PARAMVARIETY_GB_MAX_BASIS": "max_basis"}[name]
    monkeypatch.delenv(name, raising=False)
    assert getattr(GBLimits.from_env(), field) == getattr(GBLimits(), field)
    monkeypatch.setenv(name, "7")
    assert getattr(GBLimits.from_env(), field) == 7
    for text in ("abc", "", "2.5", "0", "-5"):
        monkeypatch.setenv(name, text)
        with pytest.raises(UsageError, match=name):
            GBLimits.from_env()
    ring, x, y, z = _xyz_ring()
    with pytest.raises(UsageError, match=name):
        buchberger([_p(ring, 1, {(1, 0, 0): 1})])


# ---------------------------------------------------------------------------
# the pair queue against a min-scan reference
# ---------------------------------------------------------------------------

def _min_scan_buchberger(gens, limits):
    """Buchberger with the pending pairs in a dict, each step taking the
    least (lcm, i, j) by a scan over all of them: the selection the heap
    replaced, kept as the reference for its pop order. Leading monomials
    are exponent tuples here. Returns the basis and the number of pairs
    popped."""
    basis = []
    for g in gens:
        g = g.monic()
        if not any(g == h for h in basis):
            basis.append(g)

    def lead(g):
        return g.ring.unpack(g.leading_term()[0])

    lms = [lead(g) for g in basis]
    pairs = {}
    done = set()

    def add_pairs(j):
        for i in range(j):
            pairs[(i, j)] = tuple(map(max, lms[i], lms[j]))

    for j in range(len(basis)):
        add_pairs(j)
    processed = 0
    while pairs:
        processed += 1
        if processed > limits.max_pairs:
            raise ResourceExhausted(
                f"S-pair cap exceeded ({limits.max_pairs}); basis size "
                f"{len(basis)}, {len(pairs)} pairs pending")
        (i, j) = min(pairs, key=lambda ij: (pairs[ij], ij))
        lcm = pairs.pop((i, j))
        done.add((i, j))
        if lcm == tuple(x + y for x, y in zip(lms[i], lms[j])):
            continue
        if any(k not in (i, j) and (min(i, k), max(i, k)) in done
               and (min(j, k), max(j, k)) in done
               and all(x <= y for x, y in zip(lms[k], lcm))
               for k in range(len(basis))):
            continue
        r = poly_divide(s_polynomial(basis[i], basis[j]), basis)[1]
        if r.is_zero:
            continue
        basis.append(r.monic())
        lms.append(lead(r))
        if len(basis) > limits.max_basis:
            raise ResourceExhausted(
                f"basis size cap exceeded ({limits.max_basis}); "
                f"{len(pairs)} pairs pending")
        add_pairs(len(basis) - 1)
    return basis, processed


def _dump(basis):
    return [(repr(g), repr(g.terms)) for g in basis]


def test_pair_queue_matches_min_scan():
    unlimited = GBLimits()
    inputs = derive_inputs()
    checked = 0
    for label, text in inputs.items():
        model = parse_model(text)
        for i in range(1, derive_io_basis(model).L + 1):
            psys = prolong(model, i)
            ref, _ = _min_scan_buchberger(psys.gens, unlimited)
            gb = buchberger(psys.gens, limits=unlimited)
            assert _dump(gb) == _dump(ref), (label, i)
            assert (_dump(reduce_basis(gb))
                    == _dump(reduce_basis(ref))), (label, i)
            checked += 1
    assert checked == 39
    # the pair cap counts popped pairs: both raise at the same pop, with the
    # same basis size and pending count in the message
    for label, order in (("viral", 2), ("lotka_volterra", 2), ("chain3", 3),
                         ("virus_full-x2-x3-x1", 2)):
        psys = prolong(parse_model(inputs[label]), order)
        _, popped = _min_scan_buchberger(psys.gens, GBLimits())
        assert popped > 3
        for cap in (1, popped // 2, popped - 1):
            limits = GBLimits(max_pairs=cap)
            with pytest.raises(ResourceExhausted) as ref:
                _min_scan_buchberger(psys.gens, limits)
            with pytest.raises(ResourceExhausted) as got:
                buchberger(psys.gens, limits=limits)
            assert str(got.value) == str(ref.value)
        buchberger(psys.gens, limits=GBLimits(max_pairs=popped))


# ---------------------------------------------------------------------------
# reduced basis
# ---------------------------------------------------------------------------

def test_redundant_generator_removed():
    ring, x, y, z = _xyz_ring()
    f = _p(ring, 1, {(1, 0, 0): 1, (0, 1, 0): -1})       # x - y
    g = _p(ring, 1, {(1, 0, 0): 2, (0, 1, 0): -2})       # 2x - 2y
    rgb = reduce_basis(buchberger([f, g]))
    assert len(rgb) == 1
    assert rgb[0] == f


@pytest.fixture(scope="module")
def reduced_bases(viral_rgb, lv_rgb):
    """Reduced bases of the viral and LV prolongations, of linear chains of
    2 to 4 states, and of random ideals (whose Buchberger output is neither
    minimal nor reduced)."""
    bases = [viral_rgb, lv_rgb]
    bases += [derive_io_basis(parse_model(chain_text(n))).gb for n in (2, 3, 4)]
    bases += [reduce_basis(buchberger(gens))
              for ring, gens in _random_ideals(seed=5, count=15)]
    return bases


def test_reduce_idempotent(reduced_bases):
    for rgb in reduced_bases:
        again = reduce_basis(list(rgb))
        assert list(again) == list(rgb)


def test_reduced_invariants(reduced_bases):
    for rgb in reduced_bases:
        lms = [g.leading_term()[0] for g in rgb]
        assert lms == sorted(lms)
        lms = [rgb[0].ring.unpack(lm) for lm in lms]
        assert lms == sorted(lms)
        for i, g in enumerate(rgb):
            assert g.leading_term()[1].is_one
            for j, lm in enumerate(lms):
                if i == j:
                    continue
                for exps in g.terms:
                    assert not all(a <= b for a, b in zip(lm, exps))


def test_viral_reduced_basis_shape(viral_model, viral_rgb):
    # seven elements; the eliminated-variable elements are linear with the
    # unidentifiability factor a5*a6 - a6 clearing their denominators
    assert len(viral_rgb) == 7
    from paramvariety.algebra import clear_denominators
    n = 4
    factor = {(0, 1, 1, 0): 1, (0, 0, 1, 0): -1}  # a5*a6 - a6
    state_elems = [g for g in viral_rgb
                   if any(v.base in ("x2",) for v in g.support_vars())]
    assert len(state_elems) == 3
    for g in state_elems:
        cleared = clear_denominators(g)
        lead = cleared[max(cleared)]
        assert lead.terms == factor


# ---------------------------------------------------------------------------
# elimination subsets
# ---------------------------------------------------------------------------

def test_elimination_keep_all(viral_rgb):
    assert elimination_subset(viral_rgb, viral_rgb[0].ring.vars) == list(viral_rgb)


def test_elimination_keep_none(viral_rgb):
    assert elimination_subset(viral_rgb, []) == []


def test_elimination_requires_suffix(viral_rgb):
    with pytest.raises(InvalidBlock):
        elimination_subset(viral_rgb, [viral_rgb[0].ring.vars[0]])


def test_elimination_viral_io(viral_rgb):
    keep = [DiffVar("y", 2), DiffVar("y", 1), DiffVar("y", 0)]
    subset = elimination_subset(viral_rgb, keep)
    assert len(subset) == 1
    assert subset[0].uses_only(set(keep))


# ---------------------------------------------------------------------------
# randomized engine properties (acceptance criterion for the engine)
# ---------------------------------------------------------------------------

def _random_ideals(seed, count, nvars=3):
    rng = random.Random(seed)
    vars = [DiffVar(b, 0) for b in "xyz"[:nvars]]
    ring = MonomialOrder(vars)
    for _ in range(count):
        gens = []
        for _ in range(rng.randint(2, 3)):
            p = random_poly(rng, ring, 2, max_terms=3, max_deg=2)
            if not p.is_zero:
                gens.append(p)
        if gens:
            yield ring, gens


def test_engine_oracle_properties():
    checked = 0
    for ring, gens in _random_ideals(seed=42, count=25):
        basis = buchberger(gens)
        # every input generator reduces to zero
        for g in gens:
            _, rem = poly_divide(g, basis)
            assert rem.is_zero
        # every S-polynomial reduces to zero
        for f, g in itertools.combinations(basis, 2):
            assert poly_divide(s_polynomial(f, g), basis)[1].is_zero
        checked += 1
    assert checked == 25


def test_reduced_basis_permutation_invariance():
    for ring, gens in _random_ideals(seed=7, count=10):
        ref = reduce_basis(buchberger(gens))
        rng = random.Random(1)
        for _ in range(3):
            shuffled = list(gens)
            rng.shuffle(shuffled)
            other = reduce_basis(buchberger(shuffled))
            assert len(other) == len(ref)
            for a, b in zip(ref, other):
                assert a == b


def test_seed_extends_a_groebner_basis():
    # a Groebner basis of some generators, extended by the rest, spans the
    # ideal of all of them: the same reduced basis as one run over all
    checked = 0
    for ring, gens in _random_ideals(seed=5, count=15):
        if len(gens) < 2:
            continue
        ref = reduce_basis(buchberger(gens))
        seed = buchberger(gens[:-1])
        grown = buchberger(gens[-1:], seed=seed)
        assert grown[:len(seed)] == seed
        assert [repr(g) for g in reduce_basis(grown)] == [repr(g) for g in ref]
        checked += 1
    assert checked == 14
    other = MonomialOrder([DiffVar("w", 0)])
    with pytest.raises(RingMismatch):
        buchberger(gens, seed=[Poly.var(other, DiffVar("w", 0), 2)])


def test_elimination_members_in_ideal():
    # elimination-subset elements belong to the original ideal: they reduce
    # to zero against the full basis
    for ring, gens in _random_ideals(seed=13, count=15):
        rgb = reduce_basis(buchberger(gens))
        for k in range(len(ring.vars) + 1):
            keep = ring.vars[k:]
            for g in elimination_subset(rgb, keep):
                assert g.uses_only(set(keep))
                _, rem = poly_divide(g, list(rgb))
                assert rem.is_zero


def test_coprime_criterion_preserves_basis():
    # skipping coprime-leading-monomial pairs must not change the reduced
    # basis: compare against a run with the criterion disabled
    import paramvariety.groebner as G

    def buchberger_no_criteria(gens):
        basis = [g.monic() for g in gens]
        pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
        while pairs:
            i, j = pairs.pop(0)
            r = poly_divide(s_polynomial(basis[i], basis[j]), basis)[1]
            if not r.is_zero:
                basis.append(r.monic())
                pairs += [(k, len(basis) - 1) for k in range(len(basis) - 1)]
        return basis

    for ring, gens in _random_ideals(seed=21, count=8):
        fast = reduce_basis(buchberger(gens))
        slow = reduce_basis(buchberger_no_criteria(gens))
        assert len(fast) == len(slow)
        for a, b in zip(fast, slow):
            assert a == b

