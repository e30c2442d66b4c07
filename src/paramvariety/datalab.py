"""Pseudo-data generation and ingestion.

Provides fixed-step RK4 integration with step-halving refinement, exact
output-derivative jets by symbolic push-forward (total derivatives of the
observation along the model's vector field, with the parameter values put
in first: the observation and the right-hand sides become term dicts over
Q, differentiated by the chain rule of ``algebra.dict_derivative``,
compiled by ``algebra.term_list`` and evaluated in Fraction arithmetic by
``algebra.term_evaluator``), the closed-form solution of the
two-compartment viral decay model, a central finite-difference fallback for
externally measured series, and the CSV dataset format shared with the
variety estimator.

The RK4 runs in one straight-line Python function generated per
integration (``_rk4_kernel``). Its right-hand sides come from the compiled
term lists of ``algebra.compiled_terms`` through ``algebra.terms_source``,
so they do the float operations of ``algebra.term_evaluator`` in the same
order, and its stages keep the operation order of the numpy formulation:
the states are bit for bit the same as evaluating the model with
``term_evaluator`` under numpy-style stages.

The step-halving refinement runs on Python floats too (``_integrate``),
so symbolic pseudo-data never load numpy. numpy is imported only inside
the functions that hand out or take arrays (``integrate_model``, which
returns a numpy ``Trajectory``, ``central_difference`` and the
finite-difference branch of ``make_dataset``) on their first call.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    DiffVar,
    MonomialOrder,
    ParamRat,
    Poly,
    compiled_terms,
    dict_derivative,
    term_evaluator,
    term_list,
    terms_source,
)
from .errors import (
    BlowUp,
    DatasetFormatError,
    DegenerateEigenvalues,
    InsufficientData,
    JetOrderMismatch,
    UsageError,
)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray    # (len(times), N)
    outputs: np.ndarray   # (len(times),)


@dataclass(frozen=True)
class JetSample:
    y_jet: tuple


@dataclass
class DataSet:
    """Jet samples at measured time points, ready for the linear system.

    y_jets[i] holds (y, y', ..., y^(L)) at times[i]; u_jets[i][m] holds the
    m-th input's jet up to order L-1. sources records provenance per row.
    """

    times: list
    y_jets: list
    u_jets: list = field(default_factory=list)
    unit: str = "days"
    sources: list = field(default_factory=list)

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise UsageError("times must be strictly increasing")
        orders = {len(j) for j in self.y_jets}
        if len(orders) > 1:
            raise JetOrderMismatch("rows carry different jet orders")
        if not self.u_jets:
            self.u_jets = [[] for _ in self.times]
        if not self.sources:
            self.sources = ["measured"] * len(self.times)

    @property
    def order(self):
        return len(self.y_jets[0]) - 1

    def jet_value(self, i, var, output_name, input_names):
        if var.base == output_name:
            if var.order >= len(self.y_jets[i]):
                raise JetOrderMismatch(
                    f"row {i} has jets up to order {len(self.y_jets[i]) - 1}, "
                    f"needed {var.order}")
            return self.y_jets[i][var.order]
        m = input_names.index(var.base)
        jet = self.u_jets[i][m]
        if var.order >= len(jet):
            raise JetOrderMismatch(
                f"input jet of {var.base} too short at row {i}")
        return jet[var.order]


# ---------------------------------------------------------------------------
# numeric evaluation helpers
# ---------------------------------------------------------------------------

def _param_vector(model, params):
    try:
        return [float(params[p]) for p in model.params]
    except KeyError as exc:
        raise ValueError(f"missing value for parameter {exc.args[0]!r}") from None


def check_assumptions(model, params):
    """Raise UsageError when a declared-nonzero parameter combination
    vanishes, or a denominator of a coefficient of the model's right-hand
    sides or observation does. A denominator is evaluated at the float
    parameters, as the RK4 right-hand sides are, and at their exact values,
    as the jets are: rounding can make it vanish in one and not the
    other."""
    values = _param_vector(model, params)
    for poly in model.assume_nonzero:
        if poly.evaluate(values) == 0.0:
            raise UsageError(
                f"parameter point violates nonzero assumption "
                f"{poly.render(model.params)} != 0")
    exact = [Fraction(a) for a in values]
    sides = [f"d{s}/dt" for s in model.states] + [model.output]
    for side, p in zip(sides, (*model.f, model.g)):
        for c in p.packed.values():
            den = c.den
            if not den.is_constant and not (den.evaluate(values) and den.evaluate(exact)):
                raise UsageError(
                    f"the denominator {den.render(model.params)} of a coefficient "
                    f"of {side} vanishes at the parameter point")


def _state_index(model):
    return {DiffVar(s, 0): i for i, s in enumerate(model.states)}


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

_BASE_DENSITY = 64     # RK4 substeps per unit time before refinement
_REL_TOL = 1e-8
_MAX_HALVINGS = 3
_FD_STEP = 1e-3        # sample spacing of the finite-difference trajectory

_KERNEL_SOURCE = """\
def kernel(x, t0, t1, nsteps, isfinite=isfinite, {defaults}):
    {xs}, = x
    h = (t1 - t0) / nsteps
    half = 0.5 * h
    sixth = h / 6.0
    for k in range(nsteps):
        try:
            {stages}
        except OverflowError:
            t_next = t0 + (k + 1) * h
            raise BlowUp(f"state overflowed near t = {{t_next:.6g}}",
                         time=t_next) from None
        {update}
        if not ({finite}):
            t_next = t0 + (k + 1) * h
            raise BlowUp(f"state became non-finite near t = {{t_next:.6g}}",
                         time=t_next)
    return [{xs}]
"""


def _rk4_kernel(model, params):
    """The RK4 segment function of the model at these parameter values:
    kernel(x, t0, t1, nsteps) runs nsteps classical RK4 substeps from t0 to
    t1 on Python floats and returns the state as a list.

    It is one straight-line function generated per call. Its locals are
    positional (x0, ... the state, y0, ... the stage point, k1_0, ... the
    stages), so no model name enters the source; each right-hand side
    coefficient is one name of the exec namespace, bound as a default
    argument and shared by the four stages. Each right-hand side is
    algebra.terms_source of its compiled term list, so it runs the float
    operations of term_evaluator in the same order; the stages are
    x + half k and x + sixth (((k1 + 2 k2) + 2 k3) + k4)."""
    if model.inputs:
        raise UsageError(
            "integration of models with external inputs needs input "
            "trajectories; none of the bundled case studies use them")
    values = _param_vector(model, params)
    index = _state_index(model)
    namespace = {"BlowUp": BlowUp, "isfinite": math.isfinite}
    coefs = []
    rhs = []
    for fi in model.f:
        terms = compiled_terms(fi, index, values)
        names = [f"c{len(coefs) + k}" for k in range(len(terms))]
        coefs += names
        namespace.update(zip(names, (c for c, _ in terms)))
        rhs.append((terms, names))
    n = model.nstates
    xs = [f"x{i}" for i in range(n)]
    ys = [f"y{i}" for i in range(n)]

    def stage(s, point):
        return [f"k{s}_{i} = {terms_source(terms, point, names)}"
                for i, (terms, names) in enumerate(rhs)]

    def shift(step, s):
        return [f"y{i} = x{i} + {step} * k{s}_{i}" for i in range(n)]

    stages = (stage(1, xs) + shift("half", 1) + stage(2, ys)
              + shift("half", 2) + stage(3, ys) + shift("h", 3) + stage(4, ys))
    update = [f"x{i} = x{i} + sixth * (((k1_{i} + 2.0 * k2_{i}) + 2.0 * k3_{i})"
              f" + k4_{i})" for i in range(n)]
    source = _KERNEL_SOURCE.format(
        defaults=", ".join(f"{c}={c}" for c in coefs),
        xs=", ".join(xs), stages="\n            ".join(stages),
        update="\n        ".join(update),
        finite=" and ".join(f"isfinite({x})" for x in xs))
    exec(source, namespace)
    # popped, so that the function and its globals form no reference cycle
    # and are freed with the last reference rather than by the cyclic GC
    return namespace.pop("kernel")


def _integrate(model, params, x0, grid):
    """(times, states) of the RK4 refinement along the grid on Python
    floats: the times as a list, and the state at each as a list in state
    order.

    Level m runs m times each segment's base substeps. Levels 1 and 2, then
    2 and 4, are compared point by point (|fine - coarse| / max(1e-300,
    |fine|) < _REL_TOL in every entry). The first finer level that agrees
    at every point is the result; when both disagree, level 8
    (_MAX_HALVINGS halvings) is, with no test, as no test could change it.
    A level is integrated only as far as its test reads, so a coarse state
    past the first disagreement, and a BlowUp there, is never computed."""
    check_assumptions(model, params)
    times = _floats(grid)
    if not times:
        raise ValueError("grid must be a non-empty 1-D array of times")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise UsageError("grid times must be strictly increasing")
    t0, t1 = model.horizon
    if times[0] < t0 - 1e-12 or times[-1] > t1 + 1e-12:
        raise UsageError(f"grid leaves the model horizon [{t0}, {t1}]")
    kernel = _rk4_kernel(model, params)
    x0 = _floats(x0)
    if x0 is None or len(x0) != model.nstates:
        raise ValueError(f"x0 must have {model.nstates} entries")
    segments = [(a, b, max(4, math.ceil((b - a) * _BASE_DENSITY)))
                for a, b in zip(times, times[1:])]

    def level(mult):
        states = [x0]

        def at(i):
            while len(states) <= i:
                a, b, nsteps = segments[len(states) - 1]
                states.append(kernel(states[-1], a, b, nsteps * mult))
            return states[i]

        return states, at

    _, coarse = level(1)
    mult = 1
    for _ in range(_MAX_HALVINGS - 1):
        mult *= 2
        states, fine = level(mult)
        if all(_agree(coarse(i), fine(i)) for i in range(1, len(times))):
            return times, states
        coarse = fine
    states, fine = level(mult * 2)
    fine(len(times) - 1)
    return times, states


def _floats(values):
    """The floats of a flat sequence of real numbers; None for anything
    else."""
    try:
        if all(isinstance(v, numbers.Real) for v in values):
            return [float(v) for v in values]
    except TypeError:
        pass
    return None


def _agree(coarse, fine):
    return all(abs(b - a) / max(1e-300, abs(b)) < _REL_TOL
               for a, b in zip(coarse, fine))


def integrate_model(model, params, x0, grid):
    """Classical RK4 along the given time grid, refined by step halving
    (_integrate), as a numpy Trajectory.

    Every segment runs in one kernel generated for this call (_rk4_kernel):
    straight-line code on Python float locals whose right-hand sides
    evaluate in term_evaluator's operation order (sum seeded with 0.0, terms
    in dict order, factors in ring order) and whose stages are
    x + (h/2) k and x + (h/6) (((k1 + 2 k2) + 2 k3) + k4), so the states are
    bit for bit those of numpy float64 arithmetic in that order, signs of
    zero included. A state that overflows or becomes non-finite raises
    BlowUp.
    """
    import numpy as np

    times, states = _integrate(model, params, x0, grid)
    g = term_evaluator(compiled_terms(model.g, _state_index(model),
                                      _param_vector(model, params)))
    return Trajectory(times=np.array(times), states=np.array(states),
                      outputs=np.array([g(x) for x in states]))


# ---------------------------------------------------------------------------
# symbolic push-forward jets
# ---------------------------------------------------------------------------

def _lie_velocity(model, values, order):
    """The ring of the push-forward and the vector field of the total time
    derivative over it at the exact parameter values: one term dict over Q
    per ring variable, in ring order. x -> the model right-hand side,
    u^(k) -> u^(k+1) for k < order, and None for u^(order), which the field
    leaves constant. The ring lists the variables in the order of the value
    vector of ``_point_values`` (the state, then each input's jet u, ...,
    u^(order)), so ``ring.index`` gives their positions there. The
    right-hand sides are evaluated only for order > 0, the only case that
    differentiates."""
    ring = MonomialOrder([DiffVar(s, 0) for s in model.states]
                         + [DiffVar(u, k) for u in model.inputs
                            for k in range(order + 1)])
    velocity = [None] * len(ring)
    if order:
        for s, fi in zip(model.states, model.f):
            velocity[ring.index[DiffVar(s, 0)]] = _at(fi.rering(ring), values)
    for u in model.inputs:
        for k in range(order):
            velocity[ring.index[DiffVar(u, k)]] = {ring.pack({DiffVar(u, k + 1): 1}): 1}
    return ring, velocity


def _at(p, values):
    """The term dict over Q of a Poly with its coefficients evaluated
    exactly at the parameter values, without the terms that vanish there. A
    coefficient whose denominator vanishes raises ZeroDivisionError."""
    return {key: v for key, c in p.packed.items() if (v := c.evaluate(values))}


def _point_values(model, state, u_jet, order):
    """The value vector of one point as exact Fractions (a float converts
    without rounding): the state, then each input's jet u, ..., u^(order).
    u_jet must give each input up to u^(order-1); u^(order), when not
    given, reads 0."""
    vals = [Fraction(x) for x in state]
    for m, u in enumerate(model.inputs):
        jet = list(u_jet[m]) if m < len(u_jet) else []
        if len(jet) < order:
            raise JetOrderMismatch(
                f"input {u!r} needs a jet of order {order - 1}, got {len(jet) - 1}")
        jet = (jet + [0] * (order + 1))[:order + 1]
        vals += [Fraction(v) for v in jet]
    return vals


def _jet_evaluator(model, params, order):
    """Function (state, u_jet) -> exact output jet (y, ..., y^(order)).

    The parameters go in first, as the exact values of their floats; they
    are constants of the time derivative, so evaluation commutes with it.
    The jet polynomials are total derivatives over Q (``dict_derivative``),
    evaluated exactly at the exact values of the float state and input jet,
    so they satisfy the input-output equation exactly there. A model
    coefficient whose denominator vanishes at the parameters raises
    ZeroDivisionError."""
    values = [Fraction(a) for a in _param_vector(model, params)]
    ring, velocity = _lie_velocity(model, values, order)
    jets = [_at(model.g.rering(ring), values)]
    for _ in range(order):
        jets.append(dict_derivative(jets[-1], velocity))
    evs = [term_evaluator(term_list(jet, ring.vars, ring.index), Fraction(0))
           for jet in jets]

    def evaluate(state, u_jet=()):
        vals = _point_values(model, state, u_jet, order)
        return tuple(ev(vals) for ev in evs)

    return evaluate


def jet_at(model, params, state, u_jet=(), order=1):
    """Exact output jet (y, y', ..., y^(order)) at one state point, as
    Fractions.

    Computed by the exact push-forward of ``_jet_evaluator``; no finite
    differences are involved.
    """
    return JetSample(y_jet=_jet_evaluator(model, params, order)(state, u_jet))


# ---------------------------------------------------------------------------
# closed-form viral solution
# ---------------------------------------------------------------------------

def exact_viral_solution(a4, a5, a7, t0, x3_t0, t):
    """(y, y', y'') of the two-compartment viral decay model at time t,
    from the two-exponential closed form with the quasi-steady initial
    condition x2(T0) = (a7/a6) x3(T0).

    The discriminant 2*a4*a7 + a4^2 + a7^2 - 4*a4*a5*a7 must be positive:
    a repeated eigenvalue is not covered by the two-exponential form.
    """
    disc = 2.0 * a4 * a7 + a4 * a4 + a7 * a7 - 4.0 * a4 * a5 * a7
    if disc <= 0.0:
        raise DegenerateEigenvalues(
            f"eigenvalue discriminant {disc:.6g} is not positive")
    root = math.sqrt(disc)
    lam1 = -((a4 + a7) / 2.0) - root / 2.0
    lam2 = -((a4 + a7) / 2.0) + root / 2.0
    b = (a4 + a7 - 2.0 * a5 * a7 + root) / (2.0 * root)
    dt = t - t0
    e1 = math.exp(lam1 * dt) * (1.0 - b)
    e2 = math.exp(lam2 * dt) * b
    y = x3_t0 * (e1 + e2)
    y1 = x3_t0 * (lam1 * e1 + lam2 * e2)
    y2 = x3_t0 * (lam1 * lam1 * e1 + lam2 * lam2 * e2)
    return y, y1, y2


def is_viral_template(model):
    """True when the model is exactly the bundled two-compartment viral
    decay structure (state/parameter names included), so the closed form
    applies."""
    if model.states != ("x2", "x3") or model.params != ("a4", "a5", "a6", "a7"):
        return False
    if model.inputs or model.output != "y":
        return False
    ring = model.ring0()
    n = 4
    a4, a5, a6, a7 = (ParamRat.gen(n, i) for i in range(4))
    x2 = Poly.var(ring, DiffVar("x2", 0), n)
    x3 = Poly.var(ring, DiffVar("x3", 0), n)
    f0 = x3.scale(a4 * a7 / a6) - x2.scale(a4)
    f1 = x2.scale((1 - a5) * a6) - x3.scale(a7)
    return model.f[0] == f0 and model.f[1] == f1 and model.g == x3


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def central_difference(times, values, order):
    """Jets up to the given order from a uniformly sampled series.

    Second-order central stencils inside the grid; one-sided second-order
    stencils at the endpoints, flagged in the returned provenance list.
    """
    import numpy as np

    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) != len(values):
        raise ValueError("times and values must have the same length")
    if len(times) < max(4, order + 2):
        raise InsufficientData(
            f"need at least {max(4, order + 2)} samples for order-{order} stencils")
    h = np.diff(times)
    if np.max(np.abs(h - h[0])) > 1e-9 * max(1.0, abs(h[0])):
        raise ValueError("central differences need a uniform grid")
    h = h[0]

    jets = [values]
    for _ in range(order):
        prev = jets[-1]
        d = np.empty_like(prev)
        d[1:-1] = (prev[2:] - prev[:-2]) / (2.0 * h)
        d[0] = (-3.0 * prev[0] + 4.0 * prev[1] - prev[2]) / (2.0 * h)
        d[-1] = (3.0 * prev[-1] - 4.0 * prev[-2] + prev[-3]) / (2.0 * h)
        jets.append(d)
    table = np.column_stack(jets)
    sources = ["finite_difference"] * len(times)
    if order >= 1:
        sources[0] = sources[-1] = "finite_difference_onesided"
    return table, sources


# ---------------------------------------------------------------------------
# dataset construction and CSV
# ---------------------------------------------------------------------------

def make_dataset(model, params, x0, times, order, t0=None, method="symbolic"):
    """Generate a pseudo-data DataSet at the given measurement times.

    method 'symbolic' integrates the state with RK4 (in floating point) and
    evaluates the push-forward jets exactly at the integrated state: its
    jets are Fractions that satisfy the input-output equation exactly,
    whatever the integration error, and the coefficient solve on them is
    exact. 'exact-viral' uses the closed form (template models only) and
    'finite-difference' differentiates a densely sampled trajectory; both
    give float jets, which are solved in floating point like measured data.
    The symbolic method integrates on Python floats (_integrate), so only
    the finite-difference one loads numpy.
    """
    times = sorted(float(t) for t in times)
    if t0 is None:
        t0 = model.horizon[0]
    if method == "exact-viral":
        if not is_viral_template(model):
            raise UsageError("closed form applies only to the bundled viral "
                             "decay template model")
        if order != 2:
            raise ValueError("the viral closed form provides jets to order 2")
        a4, a5, a7 = (float(params[p]) for p in ("a4", "a5", "a7"))
        x3_t0 = float(x0[1])
        rows = [exact_viral_solution(a4, a5, a7, t0, x3_t0, t) for t in times]
        return DataSet(times=times, y_jets=[tuple(r) for r in rows],
                       sources=["exact_solution"] * len(times))
    if method not in ("symbolic", "finite-difference"):
        raise ValueError(f"unknown pseudo-data method {method!r}")
    # both methods integrate forward from x0, the state at t0
    if times[0] < t0 - 1e-12:
        raise UsageError("measurement times must not precede the initial time")
    if method == "symbolic":
        grid = [t0] + [t for t in times if t > t0 + 1e-15]
        _, states = _integrate(model, params, x0, grid)
        jet = _jet_evaluator(model, params, order)
        y_jets = []
        for t in times:
            i = grid.index(t) if t in grid else 0
            y_jets.append(jet(states[i]))
        return DataSet(times=times, y_jets=y_jets,
                       sources=["symbolic_pushforward"] * len(times))
    import numpy as np

    nsteps = max(int(round((times[-1] - t0) / _FD_STEP)), 8)
    grid = np.linspace(t0, times[-1], nsteps + 1)
    traj = integrate_model(model, params, x0, grid)
    table, sources = central_difference(traj.times, traj.outputs, order)
    idx = [int(np.argmin(np.abs(grid - t))) for t in times]
    return DataSet(times=[float(grid[i]) for i in idx],
                   y_jets=[tuple(table[i]) for i in idx],
                   sources=[sources[i] for i in idx])


def write_dataset(path, dataset, header_comments=()):
    """Write a dataset CSV that read_dataset reads back. DataSet does not
    name its inputs, so input jets get the columns u1_0, u1_1, ... in input
    order; every input jet must have the order of the first row's first."""
    inputs = dataset.u_jets[0]
    cols = ["t", "y"] + [f"y{k}" for k in range(1, dataset.order + 1)]
    for m in range(1, len(inputs) + 1):
        cols += [f"u{m}_{k}" for k in range(len(inputs[0]))]
    cols.append("source")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        fh.write(f"# unit: {dataset.unit}\n")
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i, t in enumerate(dataset.times):
            row = [f"{t:.17g}"] + [f"{float(v):.17g}" for v in dataset.y_jets[i]]
            for jet in dataset.u_jets[i]:
                row += [f"{float(v):.17g}" for v in jet]
            row.append(dataset.sources[i])
            if len(row) != len(cols):
                raise JetOrderMismatch(
                    f"row {i} has {len(row)} fields for the {len(cols)} "
                    "columns set by the first row's jets")
            writer.writerow(row)


def read_dataset(path):
    """Read a dataset CSV; the columns may come in any order. Columns
    other than t, y, y1, ..., yL (with no gap), input jets <name>_<k> and
    source, a repeated column, a row whose field count differs from the
    header's, a value that is not a finite number and times that do not
    increase raise DatasetFormatError, naming the file and the line; so
    does a file that is not UTF-8, naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None
    unit = "days"
    rows = []
    header = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line[1:].strip().startswith("unit:"):
                unit = line.split("unit:", 1)[1].strip()
            continue
        fields = [c.strip() for c in line.split(",")]
        if header is None:
            header, header_line = fields, lineno
            continue
        if len(fields) != len(header):
            raise DatasetFormatError(
                f"{path}, line {lineno}: {len(fields)} fields, the header "
                f"has {len(header)}")
        rows.append((lineno, dict(zip(header, fields))))
    if header is None or not rows:
        raise InsufficientData(f"no data rows in {path}")
    repeated = next((c for i, c in enumerate(header) if c in header[:i]), None)
    if repeated is not None:
        raise DatasetFormatError(
            f"{path}, line {header_line}: column {repeated!r} is repeated")

    def number(lineno, rec, col):
        try:
            value = float(rec[col])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise DatasetFormatError(
                f"{path}, line {lineno}: {col} = {rec[col]!r} is not a finite "
                "number")
        return value

    ycols = sorted((c for c in header
                    if c == "y" or (c.startswith("y") and c[1:].isdecimal())),
                   key=lambda c: int(c[1:] or 0))
    ucols = [c for c in header if c not in ycols and c not in ("t", "source")]
    if "t" not in header or ycols != ["y"] + [f"y{k}" for k in range(1, len(ycols))] \
            or not all(c.rpartition("_")[2].isdecimal() for c in ucols):
        raise DatasetFormatError(
            f"{path}, line {header_line}: expected the columns t, y, y1, ..., "
            f"input jets <name>_<k> and source, got {','.join(header)}")
    times, y_jets, u_jets, sources = [], [], [], []
    input_names = []
    for c in ucols:
        base = c.rsplit("_", 1)[0]
        if base not in input_names:
            input_names.append(base)
    for lineno, rec in rows:
        times.append(number(lineno, rec, "t"))
        y_jets.append(tuple(number(lineno, rec, c) for c in ycols))
        jets = []
        for u in input_names:
            ks = sorted(int(c.rsplit("_", 1)[1]) for c in ucols
                        if c.rsplit("_", 1)[0] == u)
            jets.append(tuple(number(lineno, rec, f"{u}_{k}") for k in ks))
        u_jets.append(jets)
        sources.append(rec.get("source", "measured"))
    try:
        return DataSet(times=times, y_jets=y_jets, u_jets=u_jets, unit=unit,
                       sources=sources)
    except ValueError as exc:  # times not strictly increasing
        raise DatasetFormatError(f"{path}: {exc}") from None
