import pytest

from paramvariety.algebra import DiffVar, ParamRat, Poly
from paramvariety.errors import (
    ModelSyntaxError,
    NonPolynomialModel,
    UndeclaredSymbol,
)
from paramvariety.model import _raise_orders, jet_ring, parse_model, prolong

from .helpers import input_model_texts, poly_value, random_poly, state_jet


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_viral(viral_model):
    m = viral_model
    assert m.states == ("x2", "x3")
    assert m.params == ("a4", "a5", "a6", "a7")
    assert m.output == "y"
    assert m.nstates == 2 and not m.inputs
    # dx2/dt = (a4 a7 / a6) x3 - a4 x2, built independently
    ring = m.ring0()
    n = 4
    a4, a5, a6, a7 = (ParamRat.gen(n, i) for i in range(4))
    x2 = Poly.var(ring, DiffVar("x2", 0), n)
    x3 = Poly.var(ring, DiffVar("x3", 0), n)
    assert m.f[0] == x3.scale(a4 * a7 * a6.inv()) - x2.scale(a4)
    assert m.f[1] == x2.scale((1 - a5) * a6) - x3.scale(a7)
    assert m.g == x3
    assert [a.render(m.params) for a in m.assume_nonzero] == ["a6", "a5 - 1"]


def test_parse_lv(lv_model):
    m = lv_model
    assert m.states == ("x1", "x2")
    assert m.params == ("a1", "a2", "a3", "a4", "a5", "a6")
    assert m.horizon == (0.0, 10.0)


def test_empty_file_is_syntax_error():
    with pytest.raises(ModelSyntaxError):
        parse_model("")
    with pytest.raises(ModelSyntaxError):
        parse_model("# nothing but comments\n")


def test_undeclared_symbol():
    src = """
states: x1
output: y
params: a1
horizon: 0 1
dx1/dt = a1*x1 + b2
y = x1
"""
    with pytest.raises(UndeclaredSymbol):
        parse_model(src)


def test_division_by_state_rejected():
    src = """
states: x1
output: y
params: a1
horizon: 0 1
dx1/dt = a1/x1
y = x1
"""
    with pytest.raises(NonPolynomialModel):
        parse_model(src)


def test_output_in_rhs_rejected():
    src = """
states: x1
output: y
params: a1
horizon: 0 1
dx1/dt = a1*y
y = x1
"""
    with pytest.raises(UndeclaredSymbol):
        parse_model(src)


def test_syntax_error_carries_line():
    src = "states: x1\noutput: y\nparams: a1\nhorizon: 0 1\ndx1/dt = a1*)\ny = x1\n"
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(src)
    assert err.value.line == 5


_COLUMN_BASE = "states: x1\noutput: y\nparams: a1\n{a}horizon: 0 5\n{eq}\ny = x1\n"


@pytest.mark.parametrize("assume, eq, line, column", [
    ("", "dx1/dt = a1*x1 + q", 5, 18),
    ("assume_nonzero: a1, x1\n", "dx1/dt = a1*x1", 4, 21),
    ("", "dx1/dt = a1*x1 +", 5, 17),
    ("", "  dx1/dt = a1*x1 $ 2", 5, 18),
    ("assume_nonzero:   a1 ,  (a1 +\n", "dx1/dt = a1*x1", 4, 30),
], ids=["symbol-in-equation", "symbol-in-assumption", "end-of-equation",
        "indented-equation", "end-of-assumption"])
def test_syntax_error_column_counts_from_line_start(assume, eq, line, column):
    # an end-of-input error points one past the expression's last character
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(_COLUMN_BASE.format(a=assume, eq=eq))
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value).startswith(f"line {line}, column {column}: ")


def test_decimal_literals_exact():
    src = """
states: x1
output: y
params: a1
horizon: 0 1
dx1/dt = 0.1*a1*x1
y = x1
"""
    m = parse_model(src)
    coeff = next(iter(m.f[0].terms.values()))
    from fractions import Fraction
    # 0.1 enters exactly as 1/10, not as the binary float
    assert coeff == ParamRat.gen(1, 0) * ParamRat.from_const(1, Fraction(1, 10))


def test_large_power_parses_to_one_term():
    # x1^20000 is one term; the power squares and multiplies, so this parse
    # costs about as much as (x1^200)^100
    src = """
states: x1
output: y
params: a
horizon: 0 1
dx1/dt = a*x1^20000
y = x1
"""
    m = parse_model(src)
    x1 = DiffVar("x1", 0)
    assert m.f[0].terms == {(20000,): ParamRat.gen(1, 0)}
    assert m.f[0].degree_in(x1) == 20000


def test_missing_equation():
    src = """
states: x1 x2
output: y
params: a1
horizon: 0 1
dx1/dt = a1*x1
y = x1
"""
    with pytest.raises(ModelSyntaxError):
        parse_model(src)


def test_bad_horizon():
    src = """
states: x1
output: y
params: a1
horizon: 2 1
dx1/dt = a1*x1
y = x1
"""
    with pytest.raises(ModelSyntaxError):
        parse_model(src)


@pytest.mark.parametrize("horizon", ["0 inf", "-inf 0", "nan 1", "0 x"])
def test_horizon_not_a_finite_number(horizon):
    src = f"states: x1\noutput: y\nparams: a1\nhorizon: {horizon}\ndx1/dt = a1*x1\ny = x1\n"
    with pytest.raises(ModelSyntaxError,
                       match="line 4: horizon values must be finite numbers"):
        parse_model(src)


# ---------------------------------------------------------------------------
# total derivative
# ---------------------------------------------------------------------------

def total_derivative(p, model):
    """The formal total derivative of a Poly over the order-1 jet ring: its
    derivative, over the order-2 ring, along the vector field v -> v' that
    prolong differentiates along."""
    ring = jet_ring(model, 2)
    return p.rering(ring).derivative(_raise_orders(ring, p.n))


def test_derivative_of_output_equation(lv_model):
    # d/dt (y - x1) = y' - x1'
    n = lv_model.nparams
    ring = jet_ring(lv_model, 1)
    p = Poly.var(ring, DiffVar("y", 0), n) - Poly.var(ring, DiffVar("x1", 0), n)
    d = total_derivative(p, lv_model)
    expected = (Poly.var(d.ring, DiffVar("y", 1), n)
                - Poly.var(d.ring, DiffVar("x1", 1), n))
    assert d == expected


def test_derivative_of_constant(lv_model):
    ring = jet_ring(lv_model, 1)
    c = Poly.const(ring, ParamRat.gen(lv_model.nparams, 2))
    assert total_derivative(c, lv_model).is_zero


def test_leibniz_product(lv_model):
    # d/dt (x1 * x2) = x1' x2 + x1 x2'
    n = lv_model.nparams
    ring = jet_ring(lv_model, 1)
    x1 = Poly.var(ring, DiffVar("x1", 0), n)
    x2 = Poly.var(ring, DiffVar("x2", 0), n)
    d = total_derivative(x1 * x2, lv_model)
    r = d.ring
    expected = (Poly.var(r, DiffVar("x1", 1), n) * Poly.var(r, DiffVar("x2", 0), n)
                + Poly.var(r, DiffVar("x1", 0), n) * Poly.var(r, DiffVar("x2", 1), n))
    assert d == expected


def test_derivation_axioms_randomized(lv_model, rng):
    n = lv_model.nparams
    ring = jet_ring(lv_model, 1)
    big = jet_ring(lv_model, 2)
    for _ in range(25):
        p = random_poly(rng, ring, n, max_terms=3, max_deg=2)
        q = random_poly(rng, ring, n, max_terms=3, max_deg=2)
        dp = total_derivative(p, lv_model).rering(big)
        dq = total_derivative(q, lv_model).rering(big)
        dsum = total_derivative(p + q, lv_model).rering(big)
        assert dsum == dp + dq
        dprod = total_derivative(p * q, lv_model).rering(big)
        assert dprod == dp * q.rering(big) + p.rering(big) * dq


# ---------------------------------------------------------------------------
# prolongation
# ---------------------------------------------------------------------------

def test_prolong_counts(viral_model, lv_model):
    for model in (viral_model, lv_model):
        for i in (1, 2, 3):
            psys = prolong(model, i)
            assert len(psys.gens) == model.nstates * i + (i + 1)


def test_prolong_ring_matches_jet_ordering(viral_model):
    psys = prolong(viral_model, 2)
    assert [str(v) for v in psys.ring.vars] == [
        "x3''", "x2''", "x3'", "x2'", "x3", "x2", "y''", "y'", "y"]


def test_prolong_viral_generators(viral_model):
    # the seven order-2 generators, assembled by hand from the model
    psys = prolong(viral_model, 2)
    ring = psys.ring
    n = 4
    a4, a5, a6, a7 = (ParamRat.gen(n, i) for i in range(4))

    def var(base, order):
        return Poly.var(ring, DiffVar(base, order), n)

    f0 = var("x3", 0).scale(a4 * a7 / a6) - var("x2", 0).scale(a4)
    f1 = var("x2", 0).scale((1 - a5) * a6) - var("x3", 0).scale(a7)
    df0 = var("x3", 1).scale(a4 * a7 / a6) - var("x2", 1).scale(a4)
    df1 = var("x2", 1).scale((1 - a5) * a6) - var("x3", 1).scale(a7)
    expected = [
        var("x2", 1) - f0,
        var("x3", 1) - f1,
        var("x2", 2) - df0,
        var("x3", 2) - df1,
        var("y", 0) - var("x3", 0),
        var("y", 1) - var("x3", 1),
        var("y", 2) - var("x3", 2),
    ]
    assert list(psys.gens) == expected


def test_prolong_one_contains_output_equation(decay_model, viral_model):
    for model in (decay_model, viral_model):
        psys = prolong(model, 1)
        ring = psys.ring
        n = model.nparams
        y0 = Poly.var(ring, DiffVar(model.output, 0), n)
        g = model.g.rering(ring)
        assert any(gen == y0 - g for gen in psys.gens)


def _nesting_models(models):
    return list(models) + [parse_model(t) for t in input_model_texts().values()]


def test_jet_ring_keeps_relative_order_across_orders(
        viral_model, lv_model, decay_model, virus_full_model):
    # the prolongation loop carries an order-i basis into the order-(i+1)
    # ring, which is sound only if the variables keep their relative order
    models = _nesting_models((viral_model, lv_model, decay_model, virus_full_model))
    assert [m.output_uses_inputs() for m in models[-2:]] == [False, True]
    for model in models:
        for i in range(1, model.nstates + 2):
            small = jet_ring(model, i).vars
            big = jet_ring(model, i + 1).vars
            assert [v for v in big if v in small] == list(small), (model.states, i)


def test_prolong_nested(viral_model, lv_model, decay_model, virus_full_model):
    # the order-i generators, carried over, are the order-(i+1) generators
    # other than the ones it marks new
    models = _nesting_models((viral_model, lv_model, decay_model, virus_full_model))
    for model in models:
        assert prolong(model, 1).new == prolong(model, 1).gens
        for i in range(1, model.nstates + 1):
            small, big = prolong(model, i), prolong(model, i + 1)
            assert len(big.new) == model.nstates + 1
            assert all(any(g is h for h in big.gens) for g in big.new)
            old = [g for g in big.gens if not any(g is h for h in big.new)]
            assert old == [g.rering(big.ring) for g in small.gens]


def test_generators_vanish_on_trajectory(viral_model):
    # evaluate every order-2 generator on the exact derivative jet of a
    # simulated trajectory
    from paramvariety.datalab import integrate_model, jet_at

    params = dict(a4=0.3, a5=0.9, a6=1.4, a7=5.0)
    x0 = [params["a7"] / params["a6"] * 2.0e5, 2.0e5]
    grid = [0.0, 0.7, 1.9]
    traj = integrate_model(viral_model, params, x0, grid)
    psys = prolong(viral_model, 2)
    pvec = [params[p] for p in viral_model.params]
    for state in traj.states:
        jets = state_jet(viral_model, params, state, order=2)
        ys = jet_at(viral_model, params, state, order=2)
        values = dict(jets)
        for j, yv in enumerate(ys.y_jet):
            values[DiffVar("y", j)] = yv
        scale = max(1.0, max(abs(v) for v in values.values()))
        for gen in psys.gens:
            assert abs(poly_value(gen, values, pvec)) < 1e-8 * scale
