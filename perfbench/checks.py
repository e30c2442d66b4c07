"""Checks of the program's outputs, computed apart from the program.

Every reference here is derived from the model text or the generating
parameters with sympy (symbolic algebra, exact rationals) and scipy (matrix
exponentials); neither is a dependency of `paramvariety`. No check compares
against a stored copy of the program's own output.
"""

import re
from fractions import Fraction

import numpy as np
import sympy as sp
from scipy.linalg import expm
from sympy.parsing.sympy_parser import parse_expr

# output jets as rendered by the program: y, y', y'', y^(4), ...
_JET = re.compile(r"(?<![A-Za-z0-9_])y(?:\^\((\d+)\)|('+))?(?![A-Za-z0-9_'])")
_STATE_EQ = re.compile(r"^d(\w+)/dt\s*=\s*(.+)$")
_OUT_EQ = re.compile(r"^(\w+)\s*=\s*(.+)$")


def jet_symbol(k):
    return sp.Symbol(f"y_{k}")


def _sympify(text):
    return parse_expr(text.replace("^", "**"), evaluate=True)


def io_expression(rendered):
    """The IO polynomial (left side minus right side) of a rendered
    equation such as "(a4 + a7) * y' + ... = -y''"."""
    def sub(m):
        if m.group(1):
            return f"y_{m.group(1)}"
        return f"y_{len(m.group(2) or '')}"
    lhs, rhs = _JET.sub(sub, rendered).split(" = ")
    return _sympify(lhs) - _sympify(rhs)


def parse_model_text(text):
    """(states, {state: f}, g) read from a model file with sympy."""
    states, f, g = None, {}, None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("states:"):
            states = line.split(":", 1)[1].split()
            continue
        if re.match(r"^\w+:", line):
            continue
        m = _STATE_EQ.match(line)
        if m:
            f[m.group(1)] = _sympify(m.group(2))
            continue
        m = _OUT_EQ.match(line)
        if m:
            g = _sympify(m.group(2))
    return states, f, g


def io_vanishes_on_model(model_text, rendered):
    """True when the IO polynomial vanishes identically after y^(k) is
    replaced by the k-th Lie derivative of the output along the model's
    vector field (denominators cleared)."""
    states, f, g = parse_model_text(model_text)
    expr = io_expression(rendered)
    order = max(int(s.name[2:]) for s in expr.free_symbols
                if s.name.startswith("y_"))
    xs = [sp.Symbol(s) for s in states]
    lie = [g]
    for _ in range(order):
        prev = lie[-1]
        lie.append(sp.together(sum(sp.diff(prev, x) * f[x.name] for x in xs)))
    value = expr.subs({jet_symbol(k): lie[k] for k in range(order + 1)},
                      simultaneous=True)
    num, _ = sp.fraction(sp.together(value))
    return sp.expand(num) == 0


def same_io(rendered_a, rendered_b):
    """True when two rendered IO equations are the same polynomial."""
    if rendered_a == rendered_b:
        return True
    return sp.cancel(io_expression(rendered_a) - io_expression(rendered_b)) == 0


def chain_io_expected(n):
    """y^(n) + e1 y^(n-1) + ... + en y for the linear chain of n
    compartments: the characteristic polynomial of its rate matrix, whose
    coefficients are the elementary symmetric polynomials of the rates."""
    k = sp.symbols(f"k1:{n + 1}")
    a = sp.zeros(n, n)
    for i in range(n):
        a[i, i] = -k[i]
        if i:
            a[i, i - 1] = k[i - 1]
    s = sp.Symbol("s")
    coeffs = a.charpoly(s).all_coeffs()      # [1, e1, ..., en]
    return sum(c * jet_symbol(n - j) for j, c in enumerate(coeffs))


def viral_io_expected():
    a4, a5, a7 = sp.symbols("a4 a5 a7")
    y0, y1, y2 = (jet_symbol(k) for k in range(3))
    return y2 + (a4 + a7) * y1 + a4 * a5 * a7 * y0


def matches(rendered, expected):
    return sp.expand(sp.cancel(io_expression(rendered) - expected)) == 0


# -- constraint equations evaluated exactly ----------------------------------

class Equation:
    """A constraint p(a) = 0 as exact terms over named parameters."""

    def __init__(self, names, poly):
        self.names = names
        self.terms = [(m, Fraction(int(c.p), int(c.q))) for m, c in poly.terms()]

    @classmethod
    def parse(cls, text):
        """From rendered text "p = 0", parsed with sympy."""
        lhs, rhs = text.split("=")
        if rhs.strip() != "0":
            raise ValueError(f"constraint {text!r} is not of the form p = 0")
        expr = sp.expand(_sympify(lhs))
        names = sorted(s.name for s in expr.free_symbols) or ["_"]
        return cls(names, sp.Poly(expr, *map(sp.Symbol, names)))

    @classmethod
    def from_terms(cls, names, terms):
        """From the program's exponent-tuple -> coefficient mapping, read
        into a sympy polynomial."""
        gens = [sp.Symbol(n) for n in names]
        return cls(list(names), sp.Poly.from_dict(
            {e: sp.Rational(str(c)) for e, c in terms}, *gens))

    def relative_residual(self, point):
        """|p(a)| over its largest term, in exact arithmetic at the float
        values of `point` (name -> float)."""
        vals = [Fraction(point.get(n, 0.0)) for n in self.names]
        terms = []
        for exps, c in self.terms:
            t = c
            for v, e in zip(vals, exps):
                if e:
                    t *= v ** e
            terms.append(t)
        scale = max(abs(t) for t in terms)
        if scale == 0:
            return 0.0
        return float(abs(sum(terms)) / scale)


def equations_hold(equations, point, tol=1e-7):
    """The constraints (Equation objects) that do not vanish at `point` to
    within tol of their largest term."""
    return [eq for eq in equations if eq.relative_residual(point) > tol]


# -- closed-form data ---------------------------------------------------------

def viral_jets(a4, a5, a7, t0, x3_t0, t):
    """(y, y', y'') of the two-compartment viral model from the matrix
    exponential of its linear vector field, with x2(t0) = (a7/a6) x3(t0).
    The output does not depend on a6, which is set to 1."""
    a6 = 1.0
    a = np.array([[-a4, a4 * a7 / a6], [(1.0 - a5) * a6, -a7]])
    x = expm(a * (t - t0)) @ np.array([a7 / a6 * x3_t0, x3_t0])
    return x[1], (a @ x)[1], (a @ a @ x)[1]


def decay_jets(a1, x0, t):
    x = expm(np.array([[a1]]) * t)[0, 0] * x0
    return x, a1 * x


def close(got, want, rel):
    return abs(got - want) <= rel * max(1.0, abs(want))
