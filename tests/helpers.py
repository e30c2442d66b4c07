"""Shared construction helpers for the test suite."""

import itertools
import math
from fractions import Fraction

import numpy as np

from paramvariety.algebra import (
    DiffVar,
    MonomialOrder,
    ParamPoly,
    ParamRat,
    Poly,
    compiled_terms,
    term_evaluator,
    term_list,
)
from paramvariety.datalab import _param_vector, _point_values
from paramvariety.errors import IllConditioned, MissingLeading
from paramvariety.extension import _by_leading, _state_jet_vars, _z_powers

from .conftest import MODELS


def pp(n, terms):
    """ParamPoly from {exponent tuple: coefficient}."""
    return ParamPoly(n, dict(terms))


def pr(n, num_terms, den_terms=None):
    num = pp(n, num_terms)
    den = pp(n, den_terms) if den_terms is not None else None
    return ParamRat(num, den)


def agens(n):
    """The parameter generators a1..an as ParamRats."""
    return [ParamRat.gen(n, i) for i in range(n)]


def xy_ring():
    x, y = DiffVar("x", 0), DiffVar("y", 0)
    return MonomialOrder([x, y]), x, y


def poly_of(ring, n, mapping):
    """Poly from {mono mapping or exps: coeff-int/Fraction/ParamRat}."""
    return Poly(ring, mapping, n=n)


def poly_value(p, var_values, param_values):
    """Float value of a Poly: var_values maps DiffVar -> float and needs
    only the variables the terms use, param_values is aligned with the
    parameter declaration order."""
    identity = {v: v for v in p.ring.vars}
    return term_evaluator(compiled_terms(p, identity, param_values))(var_values)


def random_parampoly(rng, n, max_terms=3, max_deg=2, coeff=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(n))
        c = rng.randint(-coeff, coeff)
        if c:
            terms[exps] = terms.get(exps, 0) + c
    return ParamPoly(n, terms)


def random_paramrat(rng, n, allow_zero=False):
    num = random_parampoly(rng, n)
    den = random_parampoly(rng, n)
    while den.is_zero:
        den = random_parampoly(rng, n)
    if not allow_zero:
        while num.is_zero:
            num = random_parampoly(rng, n)
    return ParamRat(num, den)


def random_poly(rng, ring, n, max_terms=4, max_deg=2, rational=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) if rng.random() < 0.6 else 0
                     for _ in ring.vars)
        if rational:
            c = random_paramrat(rng, n, allow_zero=True)
        else:
            c = ParamRat.from_const(n, Fraction(rng.randint(-5, 5)))
        if not c.is_zero:
            terms[exps] = c
    return Poly(ring, terms, n=n)


def chain_text(n):
    """Linear chain x1' = -k1 x1, xi' = k(i-1) x(i-1) - ki xi, y = xn."""
    lines = ["states: " + " ".join(f"x{i}" for i in range(1, n + 1)),
             "output: y",
             "params: " + " ".join(f"k{i}" for i in range(1, n + 1)),
             "assume_nonzero: " + ", ".join(f"k{i}" for i in range(1, n + 1)),
             "horizon: 0 10",
             "dx1/dt = -k1*x1"]
    lines += [f"dx{i}/dt = k{i - 1}*x{i - 1} - k{i}*x{i}" for i in range(2, n + 1)]
    lines.append(f"y = x{n}")
    return "\n".join(lines) + "\n"


def _permuted(text, order):
    return "".join("states: " + " ".join(order) + "\n"
                   if line.startswith("states:") else line
                   for line in text.splitlines(keepends=True))


def derive_inputs():
    """The bundled models, every other state order of lotka_volterra and
    virus_full, and linear chains of 2 to 5 states."""
    texts = {}
    for name in ("decay", "viral", "lotka_volterra", "virus_full"):
        text = (MODELS / f"{name}.model").read_text()
        texts[name] = text
        if name in ("lotka_volterra", "virus_full"):
            states = next(line for line in text.splitlines()
                          if line.startswith("states:")).split()[1:]
            for order in itertools.permutations(states):
                if list(order) != states:
                    texts[f"{name}-{'-'.join(order)}"] = _permuted(text, order)
    for n in (2, 3, 4, 5):
        texts[f"chain{n}"] = chain_text(n)
    return texts


_INPUT_TEXT = """states: x1 x2
inputs: u
output: y
params: a1 a2
horizon: 0 1
dx1/dt = -a1*x1 + u
dx2/dt = a1*x1 - a2*x2
y = x2
"""


def input_model_texts():
    """A two-state chain driven by an input u, and the same chain with an
    output that reads u too (its jet ring holds one more derivative of u)."""
    return {"input": _INPUT_TEXT,
            "output-reads-input": _INPUT_TEXT.replace("y = x2", "y = x2 + a2*u")}


def symbolic_velocity(model, order):
    """The push-forward ring of ``datalab`` (the current state, then each
    input's jet u, ..., u^(order), the order of its value vector) and the
    vector field of the total time derivative over it as Polys over Q(a):
    x -> the model right-hand side, u^(k) -> u^(k+1) for k < order."""
    ring = MonomialOrder([DiffVar(s, 0) for s in model.states]
                         + [DiffVar(u, k) for u in model.inputs
                            for k in range(order + 1)])
    velocity = {DiffVar(s, 0): fi.rering(ring) for s, fi in zip(model.states, model.f)}
    for u in model.inputs:
        for k in range(order):
            velocity[DiffVar(u, k)] = Poly.var(ring, DiffVar(u, k + 1), model.nparams)
    return ring, velocity


def symbolic_jet(model, params, state, order, u_jet=()):
    """Oracle: the output jet pushed forward over Q(a), the observation
    differentiated along ``symbolic_velocity`` with rational-function
    coefficients, then evaluated exactly at the exact values of the float
    parameters, state and input jet."""
    values = [Fraction(a) for a in _param_vector(model, params)]
    ring, velocity = symbolic_velocity(model, order)
    vals = _point_values(model, state, u_jet, order)

    def value(p):
        terms = {key: c.evaluate(values) for key, c in p.packed.items()}
        return term_evaluator(term_list(terms, ring.vars, ring.index), Fraction(0))(vals)

    cur = model.g.rering(ring)
    out = [value(cur)]
    for _ in range(order):
        cur = cur.derivative(velocity)
        out.append(value(cur))
    return tuple(out)


def state_jet(model, params, state, order, u_jet=()):
    """Oracle: values of every state derivative up to the given order along
    the vector field (x^(k) by iterated substitution of the dynamics), as
    floats. Each input needs its jet u, u', ..., u^(order-1) in u_jet."""
    values = _param_vector(model, params)
    ring, velocity = symbolic_velocity(model, order)
    vals = [float(v) for v in _point_values(model, state, u_jet, order)]

    def value(p):
        return term_evaluator(compiled_terms(p, ring.index, values))(vals)

    out = {}
    for s in model.states:
        cur = Poly.var(ring, DiffVar(s, 0), model.nparams)
        out[DiffVar(s, 0)] = value(cur)
        for k in range(1, order + 1):
            cur = cur.derivative(velocity)
            out[DiffVar(s, k)] = value(cur)
    return out


def reconstruct_state_jet(model, gb, jet_values, params, up_to_order=None):
    """Solve the basis' triangular elements numerically for the state jet,
    to spot-check that certified variety points extend to full solutions.

    jet_values maps output/input DiffVars to numbers at one time point;
    parameters are fixed. Works from the lowest eliminated variable upward,
    at each step solving the (univariate) element whose leading variable is
    the one being reconstructed; multiple real roots are disambiguated
    against the remaining candidates. Returns {DiffVar: value} for the state
    jet up to the requested order (default: everything in the ring).
    """
    ring, by_leading = _by_leading(gb)
    values = dict(jet_values)
    pvec = [float(params[p]) for p in model.params]
    state_names = set(model.states)
    zvars = _state_jet_vars(model, ring)[::-1]
    if up_to_order is not None:
        zvars = [v for v in zvars if v.order <= up_to_order]

    for z in zvars:
        cands = by_leading.get(z)
        if not cands:
            raise MissingLeading(f"no triangular element determines {z}")
        cands = sorted(cands, key=lambda g: g.degree_in(z))
        g = cands[0]
        roots = _univariate_roots(g, z, values, pvec)
        if not roots:
            raise ArithmeticError(f"no real root while reconstructing {z}")
        if len(roots) > 1 and len(cands) > 1:
            def residual(r):
                trial = dict(values)
                trial[z] = r
                return max(abs(poly_value(h, trial, pvec)) for h in cands[1:])
            roots.sort(key=residual)
        values[z] = roots[0]
    return {v: values[v] for v in values if v.base in state_names}


def _univariate_roots(g, z, values, pvec):
    """Real roots in z of g with every other variable set from values."""
    d = g.degree_in(z)
    coeffs = [poly_value(Poly(g.ring, t, n=g.n, _checked=True), values, pvec)
              for t in _z_powers(g.packed, g.ring, z, d)]
    if d == 1:
        if coeffs[0] == 0.0:
            return []
        return [-coeffs[1] / coeffs[0]]
    roots = np.roots(coeffs)
    scale = max(1.0, float(np.max(np.abs(roots))) if len(roots) else 1.0)
    return sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-9 * scale)


def reference_solve_exact(a, b):
    """Oracle: the exact coefficient solve in Fraction arithmetic. A square
    system is solved as it stands, an overdetermined one on its normal
    equations, formed in Fractions; both by Bareiss elimination of the
    integer-cleared rows. Returns (v as floats, residual), the residual the
    float of the exact squared norm of a v - b, square-rooted; a singular
    system raises IllConditioned."""
    if len(a) == len(a[0]):
        sq, sb = a, b
    else:
        cols = list(zip(*a))
        sq = [[sum(x * y for x, y in zip(ci, cj)) for cj in cols] for ci in cols]
        sb = [sum(x * y for x, y in zip(ci, b)) for ci in cols]
    n = len(sq)
    m = []
    for row, bi in zip(sq, sb):
        row = [Fraction(x) for x in row] + [Fraction(bi)]
        scale = math.lcm(*(x.denominator for x in row))
        m.append([x.numerator * (scale // x.denominator) for x in row])
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            raise IllConditioned("coefficient system is exactly rank deficient")
        m[k], m[piv] = m[piv], m[k]
        pk = m[k]
        for i in range(k + 1, n):
            mi = m[i]
            for j in range(k + 1, n + 1):
                mi[j] = (mi[j] * pk[k] - mi[k] * pk[j]) // prev
            mi[k] = 0
        prev = pk[k]
    v = [Fraction(0)] * n
    for i in reversed(range(n)):
        acc = m[i][n] - sum(m[i][j] * v[j] for j in range(i + 1, n))
        v[i] = Fraction(acc) / m[i][i]
    resid = [sum(x * y for x, y in zip(row, v)) - bi for row, bi in zip(a, b)]
    return [float(x) for x in v], math.sqrt(float(sum(r * r for r in resid)))
