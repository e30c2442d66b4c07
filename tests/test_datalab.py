import math
import re
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from paramvariety.algebra import DiffVar
from paramvariety.datalab import (
    DataSet,
    central_difference,
    check_assumptions,
    exact_viral_solution,
    integrate_model,
    is_viral_template,
    jet_at,
    make_dataset,
    read_dataset,
    write_dataset,
    _rk4_kernel,
)
from paramvariety.errors import (
    BlowUp,
    DatasetFormatError,
    DegenerateEigenvalues,
    InsufficientData,
    JetOrderMismatch,
    UsageError,
)
from paramvariety.model import load_model, parse_model

from .conftest import MODELS
from .helpers import input_model_texts, state_jet, symbolic_jet

SUBJECTS = {
    "1-H": dict(a4=0.0, a5=0.75, a7=6.9, t0=10 / 24, x3=4.1e6),
    "2-D": dict(a4=0.16, a5=0.95, a7=5.6, t0=7 / 24, x3=1.0e6),
    "3-D": dict(a4=0.4, a5=0.99, a7=6.0, t0=5 / 24, x3=0.4e6),
}


# ---------------------------------------------------------------------------
# closed-form solution
# ---------------------------------------------------------------------------

def test_exact_solution_at_t0():
    s = SUBJECTS["2-D"]
    y, _, _ = exact_viral_solution(s["a4"], s["a5"], s["a7"], s["t0"],
                                   s["x3"], s["t0"])
    assert y == pytest.approx(s["x3"], rel=1e-14)


def test_exact_solution_3d_second_point():
    s = SUBJECTS["3-D"]
    y, y1, y2 = exact_viral_solution(s["a4"], s["a5"], s["a7"], s["t0"],
                                     s["x3"], 6.1602)
    assert round(y, 4) == 434.9356
    assert round(y1, 4) == -172.1117
    assert round(y2, 4) == 68.1076


def test_exact_solution_1h_first_point():
    s = SUBJECTS["1-H"]
    y, y1, y2 = exact_viral_solution(s["a4"], s["a5"], s["a7"], s["t0"],
                                     s["x3"], 1.8594)
    assert round(y / 1e6, 4) == 1.0251
    assert round(y1 / 1e6, 4) == -0.0010
    assert round(y2 / 1e6, 4) == 0.0070


def test_exact_solution_degenerate_discriminant():
    # a4 = a7 and a5 = 1 collapse the two eigenvalues
    with pytest.raises(DegenerateEigenvalues):
        exact_viral_solution(2.0, 1.0, 2.0, 0.0, 1.0, 1.0)


def test_exact_solution_satisfies_io_equation(rng):
    # |y'' + (a4+a7) y' + a4 a5 a7 y| <= 1e-8 |y| at random times
    for s in SUBJECTS.values():
        if s["a4"] == 0.0:
            v1, v2 = 0.0, s["a7"]
        else:
            v1 = s["a4"] * s["a5"] * s["a7"]
            v2 = s["a4"] + s["a7"]
        for _ in range(20):
            t = s["t0"] + (14.0 - s["t0"]) * rng.random()
            y, y1, y2 = exact_viral_solution(s["a4"], s["a5"], s["a7"],
                                             s["t0"], s["x3"], t)
            assert abs(y2 + v2 * y1 + v1 * y) <= 1e-8 * abs(y)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_rk4_matches_exact_solution(viral_model):
    s = SUBJECTS["2-D"]
    params = dict(a4=s["a4"], a5=s["a5"], a6=1.3, a7=s["a7"])
    x0 = [params["a7"] / params["a6"] * s["x3"], s["x3"]]
    grid = [s["t0"], 1.8594, 3.0, 6.1602]
    traj = integrate_model(viral_model, params, x0, grid)
    for k, t in enumerate(grid):
        y_ref, _, _ = exact_viral_solution(s["a4"], s["a5"], s["a7"],
                                           s["t0"], s["x3"], t)
        assert traj.outputs[k] == pytest.approx(y_ref, rel=1e-6)


def test_rk4_convergence_order(viral_model):
    # fixed-step errors against the closed form shrink at fourth order
    s = SUBJECTS["2-D"]
    params = dict(a4=s["a4"], a5=s["a5"], a6=1.0, a7=s["a7"])
    kernel = _rk4_kernel(viral_model, params)
    x0 = [params["a7"] * s["x3"], s["x3"]]
    t1 = s["t0"] + 1.0
    y_ref, _, _ = exact_viral_solution(s["a4"], s["a5"], s["a7"], s["t0"],
                                       s["x3"], t1)
    errors = []
    for nsteps in (8, 16, 32):
        x = kernel(x0, s["t0"], t1, nsteps)
        errors.append(abs(x[1] - y_ref))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for order in orders:
        assert 3.5 <= order <= 4.5


def test_constant_rhs(decay_model):
    traj = integrate_model(decay_model, {"a1": 0.0}, [2.5], [0.0, 1.0, 2.0])
    assert np.allclose(traj.outputs, 2.5)


def test_lv_trajectory_settles(lv_model):
    params = dict(a1=1.0, a2=0.5, a3=5.0, a4=1.0, a5=0.2, a6=2.4)
    grid = np.linspace(0.0, 10.0, 41)
    traj = integrate_model(lv_model, params, [1.0, 2.0], grid)
    assert np.all(np.isfinite(traj.states))
    # late-time output is settled near an equilibrium and moves monotonically
    late = traj.outputs[20:]
    diffs = np.diff(late)
    assert np.all(diffs <= 1e-9) or np.all(diffs >= -1e-9)
    assert abs(traj.outputs[-1] - traj.outputs[-2]) < 1e-3 * max(
        1.0, abs(traj.outputs[-1]))


def _reference_blow_up(*args):
    """(message, time) of the BlowUp that the Python-float reference loop
    raises."""
    with pytest.raises(BlowUp) as err:
        _float_rk4_reference(*args)
    return str(err.value), err.value.time


def test_blowup_reported():
    # x1 = 5/(1 - 5t) blows up at t = 0.2; x1**2 raises OverflowError
    src = """
states: x1
output: y
params: a1
horizon: 0 5
dx1/dt = a1*x1^2
y = x1
"""
    args = (parse_model(src), {"a1": 1.0}, [5.0], [0.0, 1.0])
    with pytest.raises(BlowUp, match="state overflowed") as err:
        integrate_model(*args)
    assert 0.0 < err.value.time <= 1.0
    assert (str(err.value), err.value.time) == _reference_blow_up(*args)


def test_blowup_non_finite():
    # every exponent is 1, so the products overflow to inf without raising;
    # x2 - x1 stays 1 and x1' = x1 (x1 + 1) blows up at t = ln 2
    src = """
states: x1 x2
output: y
params: a1
horizon: 0 5
dx1/dt = x1*x2
dx2/dt = x1*x2
y = x1
"""
    args = (parse_model(src), {"a1": 1.0}, [1.0, 2.0], [0.0, 1.0])
    with pytest.raises(BlowUp, match="state became non-finite") as err:
        integrate_model(*args)
    assert 0.0 < err.value.time <= 1.0
    assert (str(err.value), err.value.time) == _reference_blow_up(*args)


def test_blowup_from_zero_coefficient_term():
    # (a1 - 1) evaluates to 0.0 at a1 = 1, but its term stays in the float
    # right-hand side: x1 ** 200 raises OverflowError once x1 passes about
    # 34.8, well before x1^2 alone overflows; x1 = 1/(1 - t)
    src = """
states: x1
output: y
params: a1
horizon: 0 5
dx1/dt = x1^2 + (a1 - 1)*x1^200
y = x1
"""
    args = (parse_model(src), {"a1": 1.0}, [1.0], [0.0, 1.5])
    with pytest.raises(BlowUp, match="state overflowed") as err:
        integrate_model(*args)
    assert err.value.time == 0.984375
    assert (str(err.value), err.value.time) == _reference_blow_up(*args)


# nominal parameters and initial states of the bundled models
NOMINAL = {
    "decay": ({"a1": -0.4}, lambda p: [2.0]),
    "viral": ({"a4": 0.16, "a5": 0.95, "a6": 1.0, "a7": 5.6},
              lambda p: [p["a7"] / p["a6"] * 1.0e6, 1.0e6]),
    "lotka_volterra": ({"a1": 1.0, "a2": 0.5, "a3": 5.0, "a4": 1.0,
                        "a5": 0.2, "a6": 2.4}, lambda p: [1.0, 2.0]),
    "virus_full": ({"a1": 1.525e6, "a2": 0.01, "a3": 3e-7, "a4": 0.3,
                    "a5": 0.9, "a6": 2.0, "a7": 5.0},
                   lambda p: [p["a4"] * p["a7"] / (p["a3"] * p["a6"]),
                              p["a7"] / p["a6"] * 2.0e6, 2.0e6]),
}

# parsed models, their parameters and initial states: exponents 2 and 3, a
# constant and a parameter-free term, states named like the kernel's own
# locals and namespace entries, a sum whose sign of zero depends on the
# 0.0 the evaluation starts from (a1*x1 at x1 = -0.0 is -0.0, and
# 0.0 + -0.0 is 0.0), and coefficients that evaluate to 0.0 at their
# parameters (a1 - 1 at a1 = 1), whose terms the float path keeps: 0.0 times
# a negative state is -0.0
PARSED = {
    "powers": ("""
states: h half sixth
output: y
params: a1 a2 a3
horizon: 0 5
dh/dt = a1*half - h^2 + 3/2
dhalf/dt = a2*h*sixth^3 - half
dsixth/dt = a3 - sixth*h
y = h + half^2
""", {"a1": 0.7, "a2": 1.3, "a3": 0.4}, [0.3, -0.8, 1.1]),
    "names": ("""
states: k isfinite BlowUp
output: y
params: a1 a2
horizon: 0 5
dk/dt = -a1*k*isfinite^2 + 1
disfinite/dt = a2*k - isfinite^3
dBlowUp/dt = k*isfinite - BlowUp
y = BlowUp
""", {"a1": 0.9, "a2": 1.7}, [0.2, -0.6, 1.4]),
    "signed_zero": ("""
states: x1
output: y
params: a1
horizon: 0 5
dx1/dt = a1*x1
y = x1
""", {"a1": 0.5}, [-0.0]),
    "zero_coefficient": ("""
states: x1 x2
output: y
params: a1 a2
horizon: 0 5
dx1/dt = (a1 - 1)*x1*x2^2 - a2*x1
dx2/dt = (a1 - 1)*x1 + (a2 - 2)*x2^3 - x1^2
y = x1 + (a2 - 2)*x2^2
""", {"a1": 1.0, "a2": 2.0}, [-0.4, 0.9]),
}


def _rk4_case(name):
    """(model, params, x0) of a bundled or parsed test model."""
    if name in PARSED:
        src, params, x0 = PARSED[name]
        return parse_model(src), params, x0
    params, x0 = NOMINAL[name]
    return (load_model(Path(__file__).resolve().parent.parent / "models"
                       / f"{name}.model"), params, x0(params))


def _reference_polys(model, params):
    """Evaluators of the right-hand sides and of the output that walk every
    exponent of every term over the model ring, in ring order, taking the
    state as a sequence in state order."""
    values = [float(params[p]) for p in model.params]
    ring = model.ring0()
    state_idx = [ring.index[DiffVar(s, 0)] for s in model.states]

    def compiled(poly):
        terms = [(c.evaluate(values), exps) for exps, c in poly.terms.items()]

        def ev(x):
            vals = [0.0] * len(ring.vars)
            for i, j in enumerate(state_idx):
                vals[j] = x[i]
            total = 0.0
            for c, exps in terms:
                m = c
                for i, e in enumerate(exps):
                    if e:
                        m *= vals[i] ** e
                total += m
            return total

        return ev

    return [compiled(fi) for fi in model.f], compiled(model.g)


def _refined(segment, x0, grid):
    """integrate_model's halving loop over a reference segment function.
    Returns (states, halvings)."""
    times = np.asarray(grid, dtype=float).tolist()

    def run(mult):
        states = [x0]
        for a, b in zip(times, times[1:]):
            nsteps = max(4, math.ceil((b - a) * 64)) * mult
            states.append(segment(states[-1], a, b, nsteps))
        return np.array(states)

    states, mult, halvings = run(1), 1, 0
    for _ in range(3):
        finer = run(mult * 2)
        halvings += 1
        scale = np.maximum(1e-300, np.abs(finer))
        if np.max(np.abs(finer - states) / scale) < 1e-8:
            states = finer
            break
        states, mult = finer, mult * 2
    return states, halvings


def _numpy_rk4_reference(model, params, x0, grid):
    """The numpy RK4 that integrate_model's float loop replaced: a ring-
    aligned right-hand side over every exponent, numpy stage expressions
    and the same halving loop. Returns (states, outputs, halvings)."""
    fs, g = _reference_polys(model, params)

    def rhs(x):
        return np.array([f(x) for f in fs])

    def segment(x, t0, t1, nsteps):
        h = (t1 - t0) / nsteps
        for _ in range(nsteps):
            k1 = rhs(x)
            k2 = rhs(x + 0.5 * h * k1)
            k3 = rhs(x + 0.5 * h * k2)
            k4 = rhs(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return x

    states, halvings = _refined(segment, np.asarray(x0, dtype=float), grid)
    return states, np.array([g(x) for x in states]), halvings


def _float_rk4_reference(model, params, x0, grid):
    """The Python-float RK4 loop that the generated kernel replaced: list
    stages in the numpy operation order, BlowUp at the substep's end time
    for an OverflowError in the stages or a non-finite state after the
    substep, and the same halving loop. Returns (states, outputs,
    halvings)."""
    fs, g = _reference_polys(model, params)

    def rhs(x):
        return [f(x) for f in fs]

    def segment(x, t0, t1, nsteps):
        h = (t1 - t0) / nsteps
        half = 0.5 * h
        sixth = h / 6.0
        for k in range(nsteps):
            try:
                k1 = rhs(x)
                k2 = rhs([a + half * b for a, b in zip(x, k1)])
                k3 = rhs([a + half * b for a, b in zip(x, k2)])
                k4 = rhs([a + h * b for a, b in zip(x, k3)])
            except OverflowError:
                t_next = t0 + (k + 1) * h
                raise BlowUp(f"state overflowed near t = {t_next:.6g}",
                             time=t_next) from None
            x = [a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                 for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
            if not all(map(math.isfinite, x)):
                t_next = t0 + (k + 1) * h
                raise BlowUp(f"state became non-finite near t = {t_next:.6g}",
                             time=t_next)
        return x

    states, halvings = _refined(segment, [float(v) for v in x0], grid)
    return states, np.array([g(x) for x in states.tolist()]), halvings


def _bits(array):
    """The float64 bit patterns of an array, so that -0.0 differs from 0.0."""
    return [struct.pack("d", v) for v in np.asarray(array, dtype=float).ravel()]


@pytest.mark.parametrize("name, grid, halvings", [
    ("decay", [0.0, 1.0, 2.0, 3.0], 1),
    ("viral", [0.0, 2.0], 1),
    ("viral", [0.0, 0.3, 1.0], 3),
    ("lotka_volterra", [0.0, 1.0, 2.0, 3.0], 3),
    ("virus_full", [0.0, 2.0], 1),
    ("virus_full", [0.0, 1.0], 2),
    ("virus_full", [0.0, 0.3, 1.0], 3),
    ("powers", [0.0, 0.5, 1.0], 1),
    ("names", [0.0, 0.5, 1.0], 1),
    ("signed_zero", [0.0, 1.0], 1),
    ("zero_coefficient", [0.0, 0.5, 1.0], 2),
])
def test_rk4_bit_identical_to_numpy_reference(name, grid, halvings):
    model, params, x0 = _rk4_case(name)
    states, outputs, done = _numpy_rk4_reference(model, params, x0, grid)
    assert done == halvings
    traj = integrate_model(model, params, x0, grid)
    assert _bits(traj.states) == _bits(states)
    assert _bits(traj.outputs) == _bits(outputs)
    assert (_bits(traj.states), _bits(traj.outputs)) == tuple(
        map(_bits, _float_rk4_reference(model, params, x0, grid)[:2]))


def test_refinement_integrates_only_what_its_tests_read(monkeypatch):
    # LV over [0, 1, 2, 3] takes all 3 halvings. The level 1 vs 2 and level
    # 2 vs 4 tests each fail at the first grid point, so levels 1, 2 and 4
    # stop after the first segment, and level 8 is the result without a
    # test. A loop that integrated every level over the whole grid would
    # run 15 times the base substeps.
    import paramvariety.datalab as datalab

    model, params, x0 = _rk4_case("lotka_volterra")
    grid = [0.0, 1.0, 2.0, 3.0]
    substeps = []
    real = datalab._rk4_kernel

    def counting(model, params):
        kernel = real(model, params)

        def counted(x, t0, t1, nsteps):
            substeps.append(nsteps)
            return kernel(x, t0, t1, nsteps)

        return counted

    monkeypatch.setattr(datalab, "_rk4_kernel", counting)
    traj = integrate_model(model, params, x0, grid)
    base = [max(4, math.ceil((b - a) * 64)) for a, b in zip(grid, grid[1:])]
    assert sum(substeps) <= 8 * sum(base) + (1 + 2 + 4) * base[0]
    states, _, halvings = _numpy_rk4_reference(model, params, x0, grid)
    assert halvings == 3 and _bits(traj.states) == _bits(states)


def test_assumption_violation_rejected(viral_model):
    with pytest.raises(ValueError):
        integrate_model(viral_model, dict(a4=0.1, a5=1.0, a6=1.0, a7=5.0),
                        [1.0, 1.0], [0.0, 1.0])


@pytest.mark.parametrize("rhs, output, params, zero_at, side", [
    ("x1/a1 - a2*x1", "x1", {"a1": 0.0, "a2": 1.0}, (True, True), "dx1/dt"),
    # a2*a3 rounds to a1 in floats: only the float coefficient of the RK4
    # right-hand side divides by zero
    ("x1/(a1 - a2*a3)", "x1", {"a1": 0.30000000000000004, "a2": 0.1, "a3": 3.0},
     (True, False), "dx1/dt"),
    # the float sum rounds 1e16 + 1 + 1 to 1e16: only the exact coefficient
    # of the jets divides by zero
    ("x1/(a1 + a2 + a3 + a4)", "x1",
     {"a1": 1e16, "a2": 1.0, "a3": 1.0, "a4": -(1e16 + 2)}, (False, True), "dx1/dt"),
    ("-x1", "x1/a1", {"a1": 0.0}, (True, True), "y"),
], ids=["both", "float-only", "exact-only", "observation"])
def test_vanishing_model_denominator_rejected(rhs, output, params, zero_at, side):
    model = parse_model(f"states: x1\noutput: y\nparams: {' '.join(params)}\n"
                        f"horizon: 0 5\ndx1/dt = {rhs}\ny = {output}\n")
    (c,) = (model.f[0] if side == "dx1/dt" else model.g).packed.values()
    values = list(params.values())
    assert (c.den.evaluate(values) == 0,
            c.den.evaluate([Fraction(v) for v in values]) == 0) == zero_at
    message = f"the denominator {c.den.render(model.params)} of a coefficient of {side}"
    with pytest.raises(UsageError, match=re.escape(message)):
        check_assumptions(model, params)
    for method in ("symbolic", "finite-difference"):
        with pytest.raises(UsageError, match="vanishes at the parameter point"):
            make_dataset(model, params, [1.0], [1.0], order=1, method=method)


# ---------------------------------------------------------------------------
# symbolic jets
# ---------------------------------------------------------------------------

def test_jet_matches_exact_solution(viral_model):
    s = SUBJECTS["2-D"]
    a6 = 0.8
    params = dict(a4=s["a4"], a5=s["a5"], a6=a6, a7=s["a7"])
    x0 = [params["a7"] / a6 * s["x3"], s["x3"]]
    t = 1.8594
    traj = integrate_model(viral_model, params, x0, [s["t0"], t])
    jet = jet_at(viral_model, params, traj.states[1], order=2)
    ref = exact_viral_solution(s["a4"], s["a5"], s["a7"], s["t0"], s["x3"], t)
    for got, want in zip(jet.y_jet, ref):
        assert got == pytest.approx(want, rel=1e-6, abs=1e-6)


def test_jet_constant_observation():
    src = """
states: x1
output: y
params: a1
horizon: 0 1
dx1/dt = 0
y = x1
"""
    model = parse_model(src)
    jet = jet_at(model, {"a1": 3.0}, [7.0], order=3)
    assert jet.y_jet == (7.0, 0.0, 0.0, 0.0)


def test_jet_requires_input_jet():
    src = """
states: x1
inputs: u
output: y
params: a1
horizon: 0 1
dx1/dt = a1*x1 + u
y = x1
"""
    model = parse_model(src)
    with pytest.raises(JetOrderMismatch):
        jet_at(model, {"a1": 1.0}, [1.0], order=2, u_jet=((1.0,),))
    jet = jet_at(model, {"a1": 1.0}, [1.0], order=2, u_jet=((2.0, 0.5),))
    # y' = a1 x1 + u, y'' = a1 y' + u'
    assert jet.y_jet[1] == pytest.approx(3.0)
    assert jet.y_jet[2] == pytest.approx(3.5)


_JET_MODELS = {
    "viral": ({"a4": 0.16, "a5": 0.95, "a6": 1.0, "a7": 5.6}, (1e5, 1e6)),
    "lotka_volterra": ({"a1": 1.0, "a2": 0.5, "a3": 5.0, "a4": 1.0, "a5": 0.2,
                        "a6": 2.4}, (1.5, 2.5)),
    "virus_full": ({"a1": 1.525e6, "a2": 0.01, "a3": 3e-7, "a4": 0.3, "a5": 0.9,
                    "a6": 2.0, "a7": 5.0}, (1e7, 1e6, 1e6)),
}


@pytest.mark.parametrize("name", sorted(_JET_MODELS))
def test_jet_matches_symbolic_pushforward(name, rng):
    # parameters put in first, then differentiated over Q: the jets of the
    # push-forward over Q(a) evaluated afterwards, exactly
    model = load_model(MODELS / f"{name}.model")
    nominal, scales = _JET_MODELS[name]
    for _ in range(8):
        params = {p: a * rng.uniform(0.7, 1.3) for p, a in nominal.items()}
        state = [s * rng.uniform(0.1, 1.0) for s in scales]
        for order in (0, 1, 3):
            assert jet_at(model, params, state, order=order).y_jet == \
                symbolic_jet(model, params, state, order)


def test_jet_with_inputs_matches_symbolic_pushforward(rng):
    for text in input_model_texts().values():
        model = parse_model(text)
        params = {"a1": rng.uniform(0.5, 2.0), "a2": rng.uniform(0.5, 2.0)}
        u_jet = ((rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)),)
        state = [rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)]
        assert jet_at(model, params, state, order=3, u_jet=u_jet).y_jet == \
            symbolic_jet(model, params, state, 3, u_jet)


def test_jet_vanishing_denominator_raises(lv_model):
    # a1/a2 is a coefficient of the competition model's right-hand side; the
    # observation y = x1 alone has none, so order 0 still evaluates
    params = {"a1": 1.0, "a2": 0.0, "a3": 5.0, "a4": 1.0, "a5": 0.2, "a6": 2.4}
    with pytest.raises(ZeroDivisionError, match="denominator vanishes"):
        jet_at(lv_model, params, [1.0, 2.0], order=2)
    assert jet_at(lv_model, params, [1.0, 2.0], order=0).y_jet == (1,)


def test_state_jet_consistency(viral_model):
    params = dict(a4=0.3, a5=0.7, a6=1.1, a7=4.0)
    state = [1234.5, 678.9]
    jets = state_jet(viral_model, params, state, order=2)
    # first derivative agrees with the right-hand side directly
    f0 = (params["a4"] * params["a7"] / params["a6"]) * state[1] \
        - params["a4"] * state[0]
    assert jets[DiffVar("x2", 1)] == pytest.approx(f0)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_central_difference_sine():
    h = 1e-3
    times = np.arange(0.0, 1.0 + h / 2, h)
    table, sources = central_difference(times, np.sin(times), order=1)
    inner = slice(1, -1)
    assert np.max(np.abs(table[inner, 1] - np.cos(times[inner]))) < 1e-6
    assert sources[0] == "finite_difference_onesided"
    assert sources[5] == "finite_difference"


def test_central_difference_linear():
    times = np.linspace(0.0, 1.0, 51)
    table, _ = central_difference(times, 3.0 * times + 1.0, order=2)
    assert np.max(np.abs(table[:, 2])) < 1e-9


def test_central_difference_second_order_accuracy(viral_model):
    # halving h shrinks the jet error by about 4 (O(h^2) stencils)
    s = SUBJECTS["2-D"]
    errs = []
    for h in (2e-3, 1e-3):
        times = np.arange(s["t0"], s["t0"] + 2.0 + h / 2, h)
        ys = [exact_viral_solution(s["a4"], s["a5"], s["a7"], s["t0"],
                                   s["x3"], t)[0] for t in times]
        table, _ = central_difference(times, ys, order=2)
        mid = len(times) // 2
        ref = exact_viral_solution(s["a4"], s["a5"], s["a7"], s["t0"],
                                   s["x3"], times[mid])
        errs.append(abs(table[mid, 1] - ref[1]) + abs(table[mid, 2] - ref[2]))
    ratio = errs[0] / errs[1]
    assert 2.5 < ratio < 6.0


def test_central_difference_needs_points():
    with pytest.raises(InsufficientData):
        central_difference([0.0, 0.1, 0.2], [1.0, 2.0, 3.0], order=2)


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

def test_dataset_roundtrip(tmp_path, viral_model):
    params = dict(a4=0.16, a5=0.95, a6=1.0, a7=5.6)
    x0 = [5.6e6, 1.0e6]
    ds = make_dataset(viral_model, params, x0, [1.0, 2.0, 3.0], order=2,
                      t0=0.5, method="symbolic")
    path = tmp_path / "ds.csv"
    write_dataset(path, ds)
    back = read_dataset(path)
    assert back.times == pytest.approx(ds.times)
    for a, b in zip(back.y_jets, ds.y_jets):
        assert a == pytest.approx(b)
    assert back.sources == ds.sources


def test_dataset_roundtrip_input_jets(tmp_path):
    ds = DataSet(times=[1.0, 2.0], y_jets=[(1.0, 2.0), (3.0, 4.0)],
                 u_jets=[[(5.0,)], [(6.0,)]], sources=["a", "b"])
    path = tmp_path / "ds.csv"
    write_dataset(path, ds)
    back = read_dataset(path)
    assert back.u_jets == ds.u_jets
    assert back.y_jets == ds.y_jets
    assert back.sources == ["a", "b"]


def test_read_dataset_orders_y_columns(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("t,y2,y,y1\n1.0,30,10,20\n")
    assert read_dataset(path).y_jets == [(10.0, 20.0, 30.0)]


def test_read_dataset_source_at_any_position(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("source,t,y,y1\nlab,1.0,10,20\nfield,2.0,30,40\n")
    ds = read_dataset(path)
    assert ds.sources == ["lab", "field"]
    assert ds.times == [1.0, 2.0] and ds.y_jets == [(10.0, 20.0), (30.0, 40.0)]


@pytest.mark.parametrize("header", ["t,y,y1,t", "t,y,y1,y1", "t,y,source,source"])
def test_read_dataset_rejects_repeated_column(tmp_path, header):
    path = tmp_path / "ds.csv"
    path.write_text(f"# unit: days\n{header}\n1.0,2.0,3.0,4.0\n")
    repeated = header.rsplit(",", 1)[1]
    with pytest.raises(DatasetFormatError,
                       match=f"ds.csv, line 2: column '{repeated}' is repeated"):
        read_dataset(path)


def test_exact_viral_template_check(viral_model, lv_model):
    assert is_viral_template(viral_model)
    assert not is_viral_template(lv_model)
    with pytest.raises(ValueError):
        make_dataset(lv_model, {p: 1.0 for p in lv_model.params},
                     [1.0, 1.0], [1.0], order=2, method="exact-viral")


def test_finite_difference_dataset(viral_model):
    s = SUBJECTS["2-D"]
    params = dict(a4=s["a4"], a5=s["a5"], a6=1.0, a7=s["a7"])
    x0 = [params["a7"] * s["x3"], s["x3"]]
    ds = make_dataset(viral_model, params, x0, [1.0, 2.0], order=2,
                      t0=s["t0"], method="finite-difference")
    exact = make_dataset(viral_model, params, x0, ds.times, order=2,
                         t0=s["t0"], method="exact-viral")
    # plumbing check: the differentiated trajectory carries the integrator's
    # own error floor, so only percent-level agreement is guaranteed here
    # (stencil accuracy itself is pinned by the ratio test above)
    for got, want in zip(ds.y_jets, exact.y_jets):
        for a, b in zip(got, want):
            assert a == pytest.approx(b, rel=1e-2, abs=1e-6)
    assert all(s.startswith("finite_difference") for s in ds.sources)


@pytest.mark.parametrize("method", ["symbolic", "finite-difference"])
def test_times_before_t0_refused(viral_model, method):
    # x0 is the state at t0; finite differences used to start the grid at
    # the earliest time instead and so moved x0 there
    params = dict(a4=0.16, a5=0.95, a6=1.0, a7=5.6)
    with pytest.raises(UsageError, match="precede the initial time"):
        make_dataset(viral_model, params, [5.6e6, 1.0e6], [0.3, 1.0, 2.0],
                     order=2, t0=0.5, method=method)


def test_state_jet_uses_input_jet():
    # x1' = a1 x1 + u = 2 + 3 and x1'' = a1 x1' + u' = 5 + 5
    src = """
states: x1
inputs: u
output: y
params: a1
horizon: 0 1
dx1/dt = a1*x1 + u
y = x1
"""
    model = parse_model(src)
    jets = state_jet(model, {"a1": 1.0}, [2.0], order=2, u_jet=((3.0, 5.0),))
    assert jets[DiffVar("x1", 0)] == 2.0
    assert jets[DiffVar("x1", 1)] == 5.0
    assert jets[DiffVar("x1", 2)] == 10.0
    with pytest.raises(JetOrderMismatch):
        state_jet(model, {"a1": 1.0}, [2.0], order=2, u_jet=((3.0,),))


def test_steady_state_consistency(virus_full_model):
    # with no therapy (a5 = 0) the quasi-steady initial state is an
    # equilibrium of the full three-compartment model
    p = dict(a2=0.01, a3=3e-7, a4=0.3, a5=0.0, a6=2.0, a7=5.0)
    x3 = 2.0e6
    x1 = p["a4"] * p["a7"] / (p["a3"] * p["a6"])
    x2 = p["a7"] / p["a6"] * x3
    p["a1"] = p["a2"] * x1 + p["a3"] * x1 * x3
    jets = state_jet(virus_full_model, p, [x1, x2, x3], order=1)
    scale = max(abs(x1), abs(x2), abs(x3))
    for s in ("x1", "x2", "x3"):
        assert abs(jets[DiffVar(s, 1)]) < 1e-9 * scale
