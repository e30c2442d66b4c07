import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from paramvariety import extension
from paramvariety.algebra import (
    DiffVar,
    MonomialOrder,
    ParamPoly,
    ParamRat,
    Poly,
    clear_denominators,
    exact_divide,
)
from paramvariety.errors import MissingLeading
from paramvariety.extension import (
    CERTIFIED,
    INCONCLUSIVE,
    VERDICT_ASSUMED,
    VERDICT_CONST,
    VERDICT_UNKNOWN,
    check_extension,
    extension_sets,
    is_unit_under,
    run_extension_check,
)
from paramvariety.groebner import buchberger, reduce_basis
from paramvariety.ioeq import derive_io_basis
from paramvariety.model import load_model, parse_model, prolong

from .conftest import MODELS
from .helpers import (
    derive_inputs,
    poly_value,
    pp,
    random_poly,
    reconstruct_state_jet,
    xy_ring,
)


def _reduced(model, order):
    psys = prolong(model, order)
    return psys, reduce_basis(buchberger(psys.gens))


# ---------------------------------------------------------------------------
# the viral case
# ---------------------------------------------------------------------------

def test_viral_extension_sets(viral_model, viral_rgb):
    sets = extension_sets(viral_model, viral_rgb)
    assert [str(z) for z, _ in sets] == ["x3''", "x2''", "x3'", "x2'", "x3", "x2"]
    n = 4
    one = ParamPoly.const(n, 1)
    factor = pp(n, {(0, 1, 1, 0): 1, (0, 0, 1, 0): -1})  # a5*a6 - a6
    expected = [one, factor, one, factor, one, factor]
    for (z, leading), want in zip(sets, expected):
        assert len(leading) == 1
        assert leading[0] == want


def test_viral_certified_under_assumptions(viral_model, viral_rgb):
    report = run_extension_check(viral_model, viral_rgb)
    assert report.overall == CERTIFIED
    verdicts = [e.verdict for e in report.entries]
    assert verdicts == [VERDICT_CONST, VERDICT_ASSUMED] * 3
    text = report.render()
    assert "a5*a6 - a6" in text and "Certified" in text


def test_viral_inconclusive_without_assumptions(viral_model, viral_rgb):
    sets = extension_sets(viral_model, viral_rgb)
    report = check_extension(sets, ())
    assert report.overall == INCONCLUSIVE
    assert any(e.verdict == VERDICT_UNKNOWN for e in report.entries)


def test_monotone_in_assumptions(viral_model, viral_rgb):
    sets = extension_sets(viral_model, viral_rgb)
    n = 4
    a6 = pp(n, {(0, 0, 1, 0): 1})
    a5m1 = pp(n, {(0, 1, 0, 0): 1, (0, 0, 0, 0): -1})
    spurious = pp(n, {(1, 0, 0, 0): 1})  # a4, irrelevant
    base = check_extension(sets, (a6, a5m1))
    more = check_extension(sets, (a6, a5m1, spurious))
    assert base.overall == CERTIFIED
    assert more.overall == CERTIFIED


def test_unit_detection():
    n = 4
    factor = pp(n, {(0, 1, 1, 0): 1, (0, 0, 1, 0): -1})  # a5*a6 - a6
    a6 = pp(n, {(0, 0, 1, 0): 1})
    a5m1 = pp(n, {(0, 1, 0, 0): 1, (0, 0, 0, 0): -1})
    assert is_unit_under(factor, (a6, a5m1))
    assert not is_unit_under(factor, (a6,))
    assert not is_unit_under(factor, ())
    assert is_unit_under(pp(n, {(0, 0, 0, 0): 7}), ())


def test_all_constant_leading_certified(decay_model):
    _, rgb = _reduced(decay_model, 1)
    report = run_extension_check(decay_model, rgb)
    assert report.overall == CERTIFIED
    assert all(e.verdict == VERDICT_CONST for e in report.entries)
    for e in report.entries:
        assert len(e.leading) == 1
        assert e.leading[0] == ParamPoly.const(1, 1)


# ---------------------------------------------------------------------------
# derived single-state cases
# ---------------------------------------------------------------------------

_QUAD_OBS_X = """
states: x1
output: y
params: a1
horizon: 0 1
dx1/dt = a1*x1^2
y = x1
"""

_QUAD_OBS_X2 = """
states: x1
output: y
params: a1
horizon: 0 1
dx1/dt = a1*x1^2
y = x1^2
"""


def test_quadratic_state_linear_observation():
    # reduced basis is {y' - a1 y^2, x1 - y, x1' - a1 y^2}: the observation
    # y = x1 pins the state linearly, so every leading coefficient is 1
    model = parse_model(_QUAD_OBS_X)
    psys, rgb = _reduced(model, 1)
    n = 1
    ring = psys.ring
    a1 = ParamRat.gen(n, 0)
    y = Poly.var(ring, DiffVar("y", 0), n)
    y1 = Poly.var(ring, DiffVar("y", 1), n)
    x1 = Poly.var(ring, DiffVar("x1", 0), n)
    x1d = Poly.var(ring, DiffVar("x1", 1), n)
    assert list(rgb) == [
        y1 - (y * y).scale(a1),
        x1 - y,
        x1d - (y * y).scale(a1),
    ]
    sets = extension_sets(model, rgb)
    for _, leading in sets:
        assert list(leading) == [ParamPoly.const(n, 1)]
    assert check_extension(sets, ()).overall == CERTIFIED


def test_quadratic_observation_has_parameter_dependent_leading():
    # y = x1^2 leaves x1 determined only up to sign: the x1-leading
    # coefficients include 2 a1 y (state-free but parameter- and
    # data-dependent) next to the constant from x1^2 - y
    model = parse_model(_QUAD_OBS_X2)
    psys, rgb = _reduced(model, 1)
    sets = extension_sets(model, rgb)
    by_var = {str(z): leading for z, leading in sets}
    x1_leads = by_var["x1"]
    assert any(isinstance(p, ParamPoly) and p.is_constant for p in x1_leads)
    assert any(isinstance(p, Poly) or (isinstance(p, ParamPoly)
                                       and not p.is_constant)
               for p in x1_leads)
    # extension still certifies: x1^2 - y always has a root over C
    assert check_extension(sets, ()).overall == CERTIFIED


_UNOBSERVED_FACTOR = """
states: x1 x2
output: y
params: a1
horizon: 0 1
dx1/dt = a1*x1*x2
dx2/dt = 0
y = x1
"""


def test_undetermined_when_leading_needs_data():
    # x2 enters only through a1 x1 x2; its leading coefficient a1 y vanishes
    # wherever y does, so the sufficient condition cannot decide
    model = parse_model(_UNOBSERVED_FACTOR)
    _, rgb = _reduced(model, 1)
    sets = extension_sets(model, rgb)
    report = check_extension(sets, model.assume_nonzero)
    by_var = {str(e.var): e.verdict for e in report.entries}
    assert by_var["x2"] == VERDICT_UNKNOWN
    assert report.overall == INCONCLUSIVE


_INVISIBLE_STATE = """
states: x1 x2
output: y
params: a1 a2
horizon: 0 1
dx1/dt = a1*x1
dx2/dt = a2*x2
y = x1
"""


def test_missing_leading_for_invisible_state():
    model = parse_model(_INVISIBLE_STATE)
    _, rgb = _reduced(model, 1)
    with pytest.raises(MissingLeading):
        extension_sets(model, rgb)


# ---------------------------------------------------------------------------
# soundness spot-check: certified points extend numerically
# ---------------------------------------------------------------------------

def test_certified_points_extend(viral_model, viral_io, viral_rgb):
    from paramvariety.datalab import exact_viral_solution
    from paramvariety.variety import sample_variety, variety_constraints

    cons = variety_constraints(viral_io, [0.8512, 5.76],
                               assumptions=viral_model.assume_nonzero)
    samples = sample_variety(
        cons, ["a4"],
        {"a4": (0.0, 5.76), "a5": (0.0, 1.0), "a7": (0.0, 8.0)}, 8)
    assert samples.points
    # data jets from the generating trajectory (subject 2-D)
    t = 1.8594
    y, y1, y2 = exact_viral_solution(0.16, 0.95, 5.6, 7 / 24, 1.0e6, t)
    jets = {DiffVar("y", 0): y, DiffVar("y", 1): y1, DiffVar("y", 2): y2}
    psys = prolong(viral_model, 2)
    scale = max(abs(v) for v in jets.values())
    for pt in samples.points:
        params = dict(pt)
        params["a6"] = 1.3  # unconstrained by the data; any nonzero value
        states = reconstruct_state_jet(viral_model, viral_rgb, jets, params)
        values = {**jets, **states}
        pvec = [params[p] for p in viral_model.params]
        full_scale = max(scale, max(abs(v) for v in states.values()))
        for gen in psys.gens:
            assert abs(poly_value(gen, values, pvec)) <= 1e-6 * full_scale


# ---------------------------------------------------------------------------
# the bundled models, pinned (exact arithmetic only, so platform-independent)
# ---------------------------------------------------------------------------

BUNDLED_RENDERS = {
    "decay": (
        "(-a1) * y = -y'",
        [
            'extension check (leading coefficients per eliminated variable)',
            "  P_1  z = x1'  {1}  -> EmptyByConstant",
            '  P_2  z = x1   {1}  -> EmptyByConstant',
            'overall: Certified',
        ]),
    "viral": (
        "(a4*a5*a7) * y + (a4 + a7) * y' = -y''",
        [
            'extension check (leading coefficients per eliminated variable)',
            "  P_1  z = x3''  {1}  -> EmptyByConstant",
            "  P_2  z = x2''  {a5*a6 - a6}  -> EmptyByAssumption",
            "  P_3  z = x3'   {1}  -> EmptyByConstant",
            "  P_4  z = x2'   {a5*a6 - a6}  -> EmptyByAssumption",
            '  P_5  z = x3    {1}  -> EmptyByConstant',
            '  P_6  z = x2    {a5*a6 - a6}  -> EmptyByAssumption',
            'overall: Certified',
        ]),
    "lotka_volterra": (
        ('((-a1^2*a2*a3*a4*a5 + a1^2*a3^2*a4*a5^2 - a1*a2^2*a4^2 + '
         'a1*a2*a3*a4^2*a5)/(a1*a3^2*a5^2 + a2*a3*a4*a5)) * y^2 + '
         '((-a1^2*a2*a3^2*a4*a5*a6 + 2*a1^2*a2*a3*a4*a5 - '
         'a1^2*a3^2*a4*a5^2 - a1*a2^2*a3*a4^2*a6 + 2*a1*a2^2*a4^2 - '
         'a1*a2*a3*a4^2*a5)/(a1*a2*a3^2*a5^2 + a2^2*a3*a4*a5)) * y^3 + '
         '((a1^2*a3^2*a4*a5*a6 - a1^2*a3*a4*a5 + a1*a2*a3*a4^2*a6 - '
         'a1*a2*a4^2)/(a1*a2*a3^2*a5^2 + a2^2*a3*a4*a5)) * y^4 + '
         '((2*a1*a2*a3*a4*a5 - a1*a3^2*a4*a5^2 + 2*a2^2*a4^2 - '
         "a2*a3*a4^2*a5)/(a1*a3^2*a5^2 + a2*a3*a4*a5)) * y'*y + "
         '((a1^2*a3^2*a5^2 + a1*a2*a3^2*a4*a5*a6 - a1*a2*a3*a4*a5 + '
         'a2^2*a3*a4^2*a6 - 2*a2^2*a4^2)/(a1*a2*a3^2*a5^2 + '
         "a2^2*a3*a4*a5)) * y'*y^2 + ((-a1*a3*a5 - a2*a4)/(a1*a3*a5)) * "
         "y'^2 = -y''*y"),
        [
            'extension check (leading coefficients per eliminated variable)',
            ("  P_1  z = x2''  {a1^2*a3^2*a5^4 + a1*a2*a3*a4*a5^3}  -> "
             'Undetermined'),
            "  P_2  z = x1''  {1}  -> EmptyByConstant",
            "  P_3  z = x2'   {a1*a3*a5}  -> EmptyByAssumption",
            "  P_4  z = x1'   {1}  -> EmptyByConstant",
            ("  P_5  z = x2    {a1*a3*y, (a1*a3^2*a5 + a2*a3*a4)*y'}  -> "
             'Undetermined'),
            '  P_6  z = x1    {1}  -> EmptyByConstant',
            'overall: Inconclusive',
        ]),
    "virus_full": (
        ('(a1*a3*a5*a6 - a1*a3*a6 + a2*a4*a7) * y^2 + (a3*a4*a7) * y^3 + '
         "(a2*a4 + a2*a7) * y'*y + (a3*a4 + a3*a7) * y'*y^2 + (-a4 - a7) "
         "* y'^2 + (a2 + a4 + a7) * y''*y + (a3) * y''*y^2 = -y'''*y + "
         "y''*y'"),
        [
            'extension check (leading coefficients per eliminated variable)',
            "  P_1  z = x3'''  {1}  -> EmptyByConstant",
            "  P_2  z = x2'''  {a5*a6 - a6}  -> Undetermined",
            "  P_3  z = x1'''  {a5*a6 - a6}  -> Undetermined",
            "  P_4  z = x3''   {1}  -> EmptyByConstant",
            "  P_5  z = x2''   {a5*a6 - a6}  -> Undetermined",
            "  P_6  z = x1''   {a5*a6 - a6}  -> Undetermined",
            "  P_7  z = x3'    {1}  -> EmptyByConstant",
            "  P_8  z = x2'    {a5*a6 - a6}  -> Undetermined",
            "  P_9  z = x1'    {a5*a6 - a6}  -> Undetermined",
            '  P_10  z = x3     {1}  -> EmptyByConstant',
            '  P_11  z = x2     {a5*a6 - a6}  -> Undetermined',
            ('  P_12  z = x1     {(a3*a5*a6 - a3*a6)*y, (a3*a5*a6 - '
             "a3*a6)*y'}  -> Undetermined"),
            'overall: Inconclusive',
        ]),
}


@pytest.mark.parametrize("name", sorted(BUNDLED_RENDERS))
def test_bundled_io_equation_and_extension_report(name):
    model = load_model(MODELS / f"{name}.model")
    basis = derive_io_basis(model)
    io, report = BUNDLED_RENDERS[name]
    assert basis.render() == io
    assert run_extension_check(model, basis.gb).render() == "\n".join(report)


def test_clear_denominators_ignores_term_order():
    # {x': 1/a, x: 1/(a*b)} clears to (b, 1) in both insertion orders
    ring = MonomialOrder([DiffVar("x", 1), DiffVar("x", 0)])
    a, b = ParamRat.gen(2, 0), ParamRat.gen(2, 1)
    xd, x = (1, 0), (0, 1)
    first = Poly(ring, {xd: a.inv(), x: (a * b).inv()}, n=2)
    second = Poly(ring, {x: (a * b).inv(), xd: a.inv()}, n=2)
    assert first == second
    want = {ring.pack(xd): pp(2, {(0, 1): 1}), ring.pack(x): pp(2, {(0, 0): 1})}
    assert clear_denominators(first) == want
    assert clear_denominators(second) == want


def _ref_clear_denominators(poly):
    """clear_denominators with the integer tail it had before it moved into
    algebra: one lcm of the Fraction denominators, an int cast of every
    coefficient, then the joint content and the sign."""
    common = ParamPoly.const(poly.n, 1)
    for _, c in poly.terms_sorted():
        if c.den.is_constant or exact_divide(common, c.den) is not None:
            continue
        if exact_divide(c.den, common) is not None:
            common = c.den
        else:
            common = common * c.den
    cleared = {m: exact_divide(c.num * common, c.den) for m, c in poly.packed.items()}
    scale = lcm(*(c.denominator for p in cleared.values()
                  for c in p.terms.values() if isinstance(c, Fraction)))
    if scale > 1:
        cleared = {m: p * scale for m, p in cleared.items()}
    cleared = {m: ParamPoly(p.n, {e: int(c) for e, c in p.terms.items()})
               for m, p in cleared.items()}
    content = 0
    for p in cleared.values():
        for c in p.terms.values():
            content = gcd(content, c)
    if content > 1:
        cleared = {m: ParamPoly(p.n, {e: c // content for e, c in p.terms.items()})
                   for m, p in cleared.items()}
    lead = cleared[max(cleared)].packed
    if lead[max(lead)] < 0:
        cleared = {m: -p for m, p in cleared.items()}
    return cleared


def test_clear_denominators_matches_reference(monkeypatch):
    rng = random.Random(17)
    ring, _, _ = xy_ring()
    for _ in range(200):
        p = random_poly(rng, ring, 2, rational=True)
        if not p.is_zero:
            assert repr(clear_denominators(p)) == repr(_ref_clear_denominators(p))
    # every P_j of the derive inputs, and the clearing of every basis element
    for label, text in derive_inputs().items():
        model = parse_model(text)
        gb = derive_io_basis(model).gb
        for g in gb:
            assert (repr(clear_denominators(g))
                    == repr(_ref_clear_denominators(g))), label
        got = repr(extension_sets(model, gb))
        with monkeypatch.context() as m:
            m.setattr(extension, "clear_denominators", _ref_clear_denominators)
            assert repr(extension_sets(model, gb)) == got, label
