"""Model definition files, the polynomial state-space IR, and prolongation.

Model file format (UTF-8 text, '#' comments, blank lines ignored)::

    states: x2 x3
    inputs:                  # optional section, may be empty
    output: y
    params: a4 a5 a6 a7
    assume_nonzero: a6, a5 - 1    # optional, comma-separated expressions
    horizon: 0 14                 # T0 T1 in model time units
    dx2/dt = (a4*a7/a6)*x3 - a4*x2
    dx3/dt = (1 - a5)*a6*x2 - a7*x3
    y = x3

Expression grammar::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('+'|'-') factor | atom ('^' INTEGER)?
    atom   := NUMBER | IDENT | '(' expr ')'

Numbers may be integers or decimals (decimals are parsed as exact
rationals). '/' is accepted only when the divisor is free of state/input
variables; division by a state variable is not polynomial and is rejected.
"""

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .algebra import DiffVar, MonomialOrder, ParamRat, Poly
from .errors import (
    ModelSyntaxError,
    NonPolynomialModel,
    UndeclaredSymbol,
)


@dataclass(frozen=True)
class ModelSpec:
    """A polynomial state-space model dx/dt = f(x,u;a), y = g(x,u;a)."""

    states: tuple
    inputs: tuple
    output: str
    params: tuple
    f: tuple          # one Poly per state, over the order-0 ring
    g: Poly
    horizon: tuple    # (T0, T1)
    assume_nonzero: tuple  # ParamPolys asserted nonzero

    @property
    def nparams(self):
        return len(self.params)

    @property
    def nstates(self):
        return len(self.states)

    def ring0(self):
        """Order-0 ring the right-hand sides live in."""
        return _ring0(self.states, self.inputs)

    def output_uses_inputs(self):
        return any(v.base in self.inputs for v in self.g.support_vars())


@dataclass(frozen=True)
class ProlongedSystem:
    """Generators of the order-i truncation of the model's differential
    ideal, over the lex jet ring.

    new holds the generators that order i adds to order i - 1, x^(i) -
    d^(i-1) f per state and y^(i) - d^i g (at order 1, all of them). The
    others are the order-(i - 1) generators, whose jet ring sits inside this
    one in the same relative variable order: an order-(i - 1) Groebner basis
    carried over is still a Groebner basis here."""

    gens: tuple
    ring: MonomialOrder
    new: tuple


def _ring0(states, inputs):
    vars = [DiffVar(s, 0) for s in reversed(states)]
    vars += [DiffVar(u, 0) for u in reversed(inputs)]
    return MonomialOrder(vars)


def jet_ring(model, i):
    """Lex jet ring at prolongation order i: state jet (level descending,
    later-declared state first within a level), then the output jet, then
    the input jet up to order i - 1 (i when the output reads an input, so
    its i-th derivative stays inside the ring)."""
    input_order = i if model.output_uses_inputs() else i - 1
    vars = []
    for k in range(i, -1, -1):
        for s in reversed(model.states):
            vars.append(DiffVar(s, k))
    for k in range(i, -1, -1):
        vars.append(DiffVar(model.output, k))
    if model.inputs:
        for k in range(input_order, -1, -1):
            for u in reversed(model.inputs):
                vars.append(DiffVar(u, k))
    return MonomialOrder(vars)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<ws>\s+)"
    r"|(?P<bad>.)")


class _Tokens:
    """The tokens of one expression that starts at column col of its line,
    each with its column on the line. Past the last token, peek gives the
    column one past the expression's last character."""

    def __init__(self, text, line, col=1):
        self.line = line
        self.toks = []
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "ws":
                continue
            if kind == "bad":
                raise ModelSyntaxError(f"unexpected character {m.group()!r}",
                                       line, col + m.start())
            self.toks.append((kind, m.group(), col + m.start()))
        self.end = col + len(text.rstrip())
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, self.end)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, col = self.next()
        if kind != "op" or val != op:
            raise ModelSyntaxError(f"expected {op!r}", self.line, col)


class _ExprParser:
    """Recursive-descent parser lowering expressions directly to Poly values
    over a fixed order-0 ring."""

    def __init__(self, tokens, symbols, ring, nparams, line):
        self.t = tokens
        self.symbols = symbols  # name -> Poly factory
        self.ring = ring
        self.n = nparams
        self.line = line

    def parse(self):
        value = self.expr()
        kind, val, col = self.t.peek()
        if kind is not None:
            raise ModelSyntaxError(f"unexpected trailing token {val!r}", self.line, col)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, val, _ = self.t.peek()
            if kind == "op" and val in "+-":
                self.t.next()
                rhs = self.term()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, val, col = self.t.peek()
            if kind == "op" and val in "*/":
                self.t.next()
                rhs = self.factor()
                if val == "*":
                    value = value * rhs
                else:
                    value = self._divide(value, rhs, col)
            else:
                return value

    def _divide(self, value, rhs, col):
        if rhs.is_zero:
            raise ModelSyntaxError("division by zero", self.line, col)
        if rhs.support_vars():
            raise NonPolynomialModel(
                "division by a state or input variable makes the model "
                "non-polynomial", self.line, col)
        const = rhs.packed[0]
        return value.scale(const.inv())

    def factor(self):
        kind, val, col = self.t.peek()
        if kind == "op" and val in "+-":
            self.t.next()
            inner = self.factor()
            return inner if val == "+" else -inner
        value = self.atom()
        kind, val, col = self.t.peek()
        if kind == "op" and val == "^":
            self.t.next()
            kind, val, col = self.t.next()
            if kind != "num" or not val.isdigit():
                raise ModelSyntaxError("exponent must be a non-negative integer",
                                       self.line, col)
            return value ** int(val)
        return value

    def atom(self):
        kind, val, col = self.t.next()
        if kind == "num":
            frac = Fraction(Decimal(val))
            return Poly.const(self.ring, ParamRat.from_const(self.n, frac))
        if kind == "ident":
            factory = self.symbols.get(val)
            if factory is None:
                raise UndeclaredSymbol(f"undeclared symbol {val!r}", self.line, col)
            return factory()
        if kind == "op" and val == "(":
            value = self.expr()
            self.t.expect_op(")")
            return value
        raise ModelSyntaxError("expected a number, symbol, or '('", self.line, col)


def parse_param_expr(text, params, line=1, col=1):
    """The ParamRat value of an expression in the parameters alone (an
    assume_nonzero entry, an initial value on the command line) that starts
    at column col of its line; any other symbol raises UndeclaredSymbol."""
    n = len(params)
    ring = MonomialOrder(())
    symbols = {p: (lambda i=i: Poly.const(ring, ParamRat.gen(n, i)))
               for i, p in enumerate(params)}
    value = _ExprParser(_Tokens(text, line, col), symbols, ring, n, line).parse()
    return value.packed.get(0, ParamRat.zero(n))


_SECTION = re.compile(r"^(states|inputs|output|params|assume_nonzero|horizon)\s*:\s*(.*)$")
_STATE_EQ = re.compile(r"^d([A-Za-z_]\w*)\s*/\s*dt\s*=\s*(.*)$")
_OUT_EQ = re.compile(r"^([A-Za-z_]\w*)\s*=\s*(.*)$")


def parse_model(text):
    """Parse a model definition document into a ModelSpec."""
    sections = {}
    equations = []
    any_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        any_content = True
        # the column on the raw line of the stripped line's first character
        lead = len(raw) - len(raw.lstrip()) + 1
        m = _SECTION.match(line)
        if m:
            name = m.group(1)
            if name in sections:
                raise ModelSyntaxError(f"duplicate section {name!r}", lineno)
            sections[name] = (m.group(2).strip(), lineno, lead + m.start(2))
            continue
        m = _STATE_EQ.match(line)
        if m:
            equations.append(("state", m.group(1), m.group(2), lineno,
                              lead + m.start(2)))
            continue
        m = _OUT_EQ.match(line)
        if m:
            equations.append(("output", m.group(1), m.group(2), lineno,
                              lead + m.start(2)))
            continue
        raise ModelSyntaxError("expected a section header or an equation", lineno)
    if not any_content:
        raise ModelSyntaxError("empty model definition", 1)

    def symbols_of(section, required=True):
        if section not in sections:
            if required:
                raise ModelSyntaxError(f"missing section {section!r}", 1)
            return ()
        body, lineno, _ = sections[section]
        names = tuple(s for s in re.split(r"[,\s]+", body) if s)
        for name in names:
            if not re.fullmatch(r"[A-Za-z_]\w*", name):
                raise ModelSyntaxError(f"invalid symbol {name!r}", lineno)
        return names

    states = symbols_of("states")
    inputs = symbols_of("inputs", required=False)
    outputs = symbols_of("output")
    params = symbols_of("params")
    if not states:
        raise ModelSyntaxError("at least one state variable is required", 1)
    if len(outputs) != 1:
        lineno = sections.get("output", ("", 1))[1]
        raise ModelSyntaxError("exactly one scalar output is required", lineno)
    output = outputs[0]
    declared = list(states) + list(inputs) + [output] + list(params)
    if len(set(declared)) != len(declared):
        raise ModelSyntaxError("a symbol is declared more than once", 1)

    if "horizon" not in sections:
        raise ModelSyntaxError("missing section 'horizon'", 1)
    body, lineno, _ = sections["horizon"]
    pieces = body.split()
    if len(pieces) != 2:
        raise ModelSyntaxError("horizon takes exactly two numbers: T0 T1", lineno)
    try:
        t0, t1 = float(pieces[0]), float(pieces[1])
    except ValueError:
        t0 = t1 = math.nan
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ModelSyntaxError("horizon values must be finite numbers", lineno)
    if not t0 < t1:
        raise ModelSyntaxError("horizon must satisfy T0 < T1", lineno)

    n = len(params)
    ring = _ring0(states, inputs)
    symbols = {}
    for i, p in enumerate(params):
        symbols[p] = (lambda i=i: Poly.const(ring, ParamRat.gen(n, i)))
    for s in list(states) + list(inputs):
        symbols[s] = (lambda s=s: Poly.var(ring, DiffVar(s, 0), n))

    def parse_expr(text_, lineno, col):
        return _ExprParser(_Tokens(text_, lineno, col), symbols, ring, n,
                           lineno).parse()

    f = {}
    g = None
    for kind, name, rhs, lineno, col in equations:
        if kind == "state":
            if name not in states:
                raise UndeclaredSymbol(f"d{name}/dt: {name!r} is not a declared state",
                                       lineno)
            if name in f:
                raise ModelSyntaxError(f"duplicate equation for state {name!r}", lineno)
            f[name] = parse_expr(rhs, lineno, col)
        else:
            if name != output:
                raise UndeclaredSymbol(
                    f"{name!r} is not the declared output (left-hand sides must be "
                    f"d<state>/dt or the output)", lineno)
            if g is not None:
                raise ModelSyntaxError("duplicate output equation", lineno)
            g = parse_expr(rhs, lineno, col)
    missing = [s for s in states if s not in f]
    if missing:
        raise ModelSyntaxError(f"missing d{missing[0]}/dt equation", 1)
    if g is None:
        raise ModelSyntaxError(f"missing output equation {output} = ...", 1)

    assumptions = []
    if "assume_nonzero" in sections:
        body, lineno, col = sections["assume_nonzero"]
        for piece in body.split(","):
            start = col + len(piece) - len(piece.lstrip())
            col += len(piece) + 1
            piece = piece.strip()
            if not piece:
                continue
            rat = parse_param_expr(piece, params, lineno, start)
            if rat.is_zero:
                raise ModelSyntaxError("assume_nonzero entry is identically zero",
                                       lineno)
            # c = num/den is nonzero exactly when its numerator is
            assumptions.append(rat.num.primitive())

    return ModelSpec(
        states=states,
        inputs=inputs,
        output=output,
        params=params,
        f=tuple(f[s] for s in states),
        g=g,
        horizon=(t0, t1),
        assume_nonzero=tuple(assumptions),
    )


def load_model(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ModelSyntaxError(f"{path}: {exc}") from None
    return parse_model(text)


# ---------------------------------------------------------------------------
# formal differentiation and prolongation
# ---------------------------------------------------------------------------

def _raise_orders(ring, n):
    """The vector field of the formal total derivative over ring: v^(k) ->
    v^(k+1) for every variable whose derivative the ring holds; parameters
    are constants."""
    return {v: Poly.var(ring, v.raised(), n) for v in ring.vars
            if v.raised() in ring}


def prolong(model, order):
    """Generators of the order-i truncated ideal: x^(k) - d^(k-1) f for
    k = 1..i and y^(k) - d^k g for k = 0..i, in the canonical jet ring."""
    if order < 1:
        raise ValueError("prolongation order must be >= 1")
    ring = jet_ring(model, order)
    n = model.nparams
    velocity = _raise_orders(ring, n)
    f_cur = [fi.rering(ring) for fi in model.f]
    gens = []
    for k in range(1, order + 1):
        if k > 1:
            f_cur = [fi.derivative(velocity) for fi in f_cur]
        for s, fi in zip(model.states, f_cur):
            gens.append(Poly.var(ring, DiffVar(s, k), n) - fi)
    new = gens[-model.nstates:]  # the order-i state block
    g_cur = model.g.rering(ring)
    gens.append(Poly.var(ring, DiffVar(model.output, 0), n) - g_cur)
    for k in range(1, order + 1):
        g_cur = g_cur.derivative(velocity)
        gens.append(Poly.var(ring, DiffVar(model.output, k), n) - g_cur)
    new = gens if order == 1 else new + gens[-1:]
    return ProlongedSystem(gens=tuple(gens), ring=ring, new=tuple(new))
