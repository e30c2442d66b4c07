import random

import pytest

import paramvariety.ioeq as ioeq
from paramvariety.algebra import DiffVar, MonomialOrder, ParamRat, Poly, poly_divide
from paramvariety.errors import NoParameterDependence
from paramvariety.groebner import buchberger, elimination_subset, reduce_basis
from paramvariety.ioeq import derive_io_basis, normalize_io
from paramvariety.model import parse_model, prolong

from .helpers import derive_inputs, input_model_texts, poly_value, pp


def test_decay_io_equation(decay_io):
    # one-step hand elimination: y' = x1' = a1 x1 = a1 y
    b = decay_io
    assert b.L == 1
    assert b.n_coeffs == 1
    n = 1
    ring = b.ring
    y = Poly.var(ring, DiffVar("y", 0), n)
    y1 = Poly.var(ring, DiffVar("y", 1), n)
    a1 = ParamRat.gen(n, 0)
    assert b.full == y1 - y.scale(a1)
    assert b.coeffs[0] == -a1
    assert b.monos[0] == ring.exps({DiffVar("y", 0): 1})
    assert b.rhs == -y1


def test_viral_io_equation(viral_io):
    b = viral_io
    assert b.L == 2
    n = 4
    a4, a5, a7 = ParamRat.gen(n, 0), ParamRat.gen(n, 1), ParamRat.gen(n, 3)
    ring = b.ring
    y = Poly.var(ring, DiffVar("y", 0), n)
    y1 = Poly.var(ring, DiffVar("y", 1), n)
    y2 = Poly.var(ring, DiffVar("y", 2), n)
    assert b.full == y2 + y1.scale(a4 + a7) + y.scale(a4 * a5 * a7)
    assert list(b.coeffs) == [a4 * a5 * a7, a4 + a7]
    assert b.rhs == -y2


# the six rational-function coefficients of the competition model's IO
# equation over the common denominator a1*a2*a3*a5, keyed by monomial
# (ring vars are y'' > y' > y)
_LV_DEN = {(1, 1, 1, 0, 1, 0): 1}
_LV_COEFFS = {
    (0, 2, 0): {(1, 1, 1, 0, 1, 0): -1, (0, 2, 0, 1, 0, 0): -1},
    (0, 1, 2): {(2, 0, 1, 0, 1, 0): 1, (1, 1, 1, 1, 0, 1): 1,
                (1, 1, 0, 1, 0, 0): -2},
    (0, 1, 1): {(1, 2, 0, 1, 0, 0): 2, (1, 1, 1, 1, 1, 0): -1},
    (0, 0, 4): {(2, 0, 1, 1, 0, 1): 1, (2, 0, 0, 1, 0, 0): -1},
    (0, 0, 3): {(2, 1, 1, 1, 0, 1): -1, (2, 1, 0, 1, 0, 0): 2,
                (2, 0, 1, 1, 1, 0): -1},
    (0, 0, 2): {(2, 2, 0, 1, 0, 0): -1, (2, 1, 1, 1, 1, 0): 1},
}


def test_lv_io_equation_exact(lv_io):
    b = lv_io
    assert b.L == 2
    assert b.n_coeffs == 6
    n = 6
    den = pp(n, _LV_DEN)
    got = dict(zip(b.monos, b.coeffs))
    assert set(got) == set(_LV_COEFFS)
    for mono, num_terms in _LV_COEFFS.items():
        expected = ParamRat(pp(n, num_terms), den)
        assert got[mono] == expected, f"coefficient on {mono} differs"
    # parameter-free side is -y''*y
    assert b.rhs == Poly(b.ring, {(1, 0, 1): -1}, n=n)


def test_lv_monos_ascending(lv_io):
    assert list(lv_io.monos) == sorted(lv_io.monos)


def test_membership_in_prolonged_ideal(viral_model, viral_io, viral_rgb):
    # the equation reduces to zero against the reduced basis of the
    # prolonged system
    full = viral_io.full.rering(viral_rgb[0].ring)
    _, rem = poly_divide(full, list(viral_rgb))
    assert rem.is_zero


def test_minimality_below_L(viral_model, lv_model):
    from paramvariety.groebner import elimination_subset
    for model in (viral_model, lv_model):
        psys = prolong(model, 1)
        rgb = reduce_basis(buchberger(psys.gens))
        keep = [v for v in psys.ring.vars if v.base == model.output]
        assert elimination_subset(rgb, keep) == []


def test_permutation_invariance(viral_model):
    rng = random.Random(4)
    psys = prolong(viral_model, 2)
    keep = [v for v in psys.ring.vars if v.base == viral_model.output]
    reference = None
    for _ in range(3):
        gens = list(psys.gens)
        rng.shuffle(gens)
        rgb = reduce_basis(buchberger(gens))
        from paramvariety.groebner import elimination_subset
        subset = elimination_subset(rgb, keep)
        assert len(subset) == 1
        basis = normalize_io(subset[0], param_names=viral_model.params)
        if reference is None:
            reference = basis
        else:
            assert basis.monos == reference.monos
            assert all(a == b for a, b in zip(basis.coeffs, reference.coeffs))
            assert basis.rhs == reference.rhs


def test_trajectory_annihilation(viral_model, viral_io, rng):
    # the equation vanishes on exact jets of a simulated trajectory
    from paramvariety.datalab import integrate_model, jet_at

    params = dict(a4=0.25, a5=0.85, a6=1.2, a7=4.5)
    y0 = 3.0e5
    x0 = [params["a7"] / params["a6"] * y0, y0]
    times = sorted(0.05 + 10.0 * rng.random() for _ in range(10))
    grid = [0.0] + times
    traj = integrate_model(viral_model, params, x0, grid)
    pvec = [params[p] for p in viral_model.params]
    for k in range(1, len(times) + 1):
        jet = jet_at(viral_model, params, traj.states[k], order=2).y_jet
        values = {DiffVar("y", j): v for j, v in enumerate(jet)}
        resid = poly_value(viral_io.full, values, pvec)
        scale = max(1.0, max(abs(v) for v in values.values()))
        assert abs(resid) < 1e-6 * scale


# ---------------------------------------------------------------------------
# normalize_io
# ---------------------------------------------------------------------------

def _y_ring():
    return MonomialOrder([DiffVar("y", 1), DiffVar("y", 0)])


def test_normalize_scaling_invariance():
    # 2y' + 2a y -> monic y' + a y, rhs -y', coefficient a on y
    ring = _y_ring()
    n = 1
    a = ParamRat.gen(n, 0)
    p = Poly(ring, {(1, 0): ParamRat.from_const(n, 2), (0, 1): a * 2}, n=n)
    b = normalize_io(p, ("a",))
    assert b.L == 1
    assert list(b.coeffs) == [a]
    assert b.monos == (ring.exps({DiffVar("y", 0): 1}),)
    assert b.rhs == -Poly.var(ring, DiffVar("y", 1), n)
    assert b.full == Poly.var(ring, DiffVar("y", 1), n) + Poly.var(
        ring, DiffVar("y", 0), n).scale(a)


def test_normalize_already_monic_unchanged(viral_io):
    again = normalize_io(viral_io.full, param_names=viral_io.param_names)
    assert again.monos == viral_io.monos
    assert all(a == b for a, b in zip(again.coeffs, viral_io.coeffs))
    assert again.rhs == viral_io.rhs


def test_normalize_no_parameter_dependence():
    ring = _y_ring()
    n = 1
    p = Poly(ring, {(1, 0): 1, (0, 2): -3}, n=n)
    with pytest.raises(NoParameterDependence):
        normalize_io(p, ("a",))


def test_render_golden(viral_io, decay_io):
    assert viral_io.render() == "(a4*a5*a7) * y + (a4 + a7) * y' = -y''"
    assert decay_io.render() == "(-a1) * y = -y'"
    assert viral_io.summary().startswith("L = 2\n")


def _from_scratch(model):
    """The prolongation loop with every order's basis computed and reduced
    by itself: the minimal order and its reduced basis."""
    for i in range(1, model.nstates + 1):
        psys = prolong(model, i)
        rgb = reduce_basis(buchberger(psys.gens))
        keep = [v for v in psys.ring.vars
                if v.base == model.output or v.base in model.inputs]
        if elimination_subset(rgb, keep):
            return i, rgb
    raise AssertionError("no state-free element")


def test_seeded_basis_matches_from_scratch():
    texts = {**derive_inputs(), **input_model_texts()}
    assert len(texts) == 16
    for label, text in texts.items():
        model = parse_model(text)
        got = derive_io_basis(model)
        L, ref = _from_scratch(model)
        assert got.L == L, label
        assert got.gb[0].ring == ref[0].ring, label
        assert ([(repr(g), repr(g.terms)) for g in got.gb]
                == [(repr(g), repr(g.terms)) for g in ref]), label


def test_one_reduce_basis_per_derivation(monkeypatch):
    calls = []

    def counted(name):
        fn = getattr(ioeq, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("buchberger", "reduce_basis"):
        monkeypatch.setattr(ioeq, name, counted(name))
    texts = {**derive_inputs(), **input_model_texts()}
    for label in ("decay", "viral", "virus_full", "chain5", "output-reads-input"):
        calls.clear()
        basis = ioeq.derive_io_basis(parse_model(texts[label]))
        assert calls.count("buchberger") == basis.L, label
        assert calls.count("reduce_basis") == 1, label
        assert calls[-1] == "reduce_basis", label
