"""Exact sparse multivariate polynomial arithmetic over a rational-function
coefficient field.

Two layers:

* parameter layer: ``ParamPoly`` (exact integer/rational coefficients keyed
  by parameter exponent vectors) and ``ParamRat`` = ParamPoly / ParamPoly,
  the coefficient-field elements;
* differential layer: ``Poly``, sparse polynomials in derivative-tagged
  variables (``DiffVar``) under a pure lexicographic ``MonomialOrder``,
  with ParamRat coefficients.

Both layers store a polynomial as a term dict: exponent tuples mapped to
nonzero coefficients. This module owns that format and the kernels over it
(``expvec_*`` on exponent tuples, ``dict_*`` on term dicts). The arithmetic
kernels need only ``+``, ``-``, ``*`` and truth testing of the coefficients,
so ParamPoly (int/Fraction) and Poly (ParamRat) share them; the Groebner
engine and the extension check import them from here.

Floating point is forbidden in the arithmetic; every operation is exact.
This module is also the one place that differentiates and evaluates term
dicts. ``Poly.derivative`` is the chain rule, a derivative along a vector
field: the prolongation of ``model`` and the output push-forward of
``datalab`` are both such derivatives. ``dict_partial`` is the partial
derivative of a term dict. ``ParamPoly.evaluate`` and ``ParamRat.evaluate``
evaluate exactly at int/Fraction values and in floats at float values.
Repeated numeric evaluation compiles first: a compiled term list holds one
``(coef, ((pos, e), ...))`` per term, and one evaluation loop,
``_term_evaluator``, walks it. ``compile_poly`` (a Poly at fixed parameter
values, over ``compiled_terms``) and ``ParamPoly.compiled`` (a parameter
polynomial with float coefficients: the Newton sampler of ``variety``) both
return that loop, and ``terms_source`` (the expression source that the
generated RK4 kernel of ``datalab`` is built from) spells out its
operations, so the float evaluation order is defined in one place. All
values are immutable after construction, so they are safe to share between
threads.

One routine, ``_integer_primitive``, scales exact coefficients to integers:
it multiplies term dicts by the one positive rational that makes every
coefficient an int and their joint integer content 1. ParamRat's canonical
form, ``ParamPoly.primitive`` (the constraint equations of ``variety``) and
``clear_denominators`` (a Poly times a common denominator of its
coefficients: the P_j sets of ``extension``) are built on it.

Canonical form of a ParamRat: numerator and denominator are jointly cleared
to integers of content 1, share no common monomial factor, an exact
trial-division pass cancels one into the other when possible, and the
denominator's leading coefficient (lexicographic in parameter-declaration
order) is positive. A product with a parameter-free factor only rescales and
divides out integer content, which yields the same terms in the same order
as the full normalization.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import (
    DivisionByZero,
    InvalidBlock,
    RingMismatch,
    UnknownVariable,
    ZeroPolynomial,
)

class DiffVar(NamedTuple):
    """A base variable (state/input/output) tagged with a derivative order."""

    base: str
    order: int

    def raised(self, k=1):
        return DiffVar(self.base, self.order + k)

    def __str__(self):
        if self.order <= 3:
            return self.base + "'" * self.order
        return f"{self.base}^({self.order})"


# ---------------------------------------------------------------------------
# term-dict kernels
# ---------------------------------------------------------------------------
# Exponent vectors are tuples of non-negative ints; a term dict maps them to
# nonzero coefficients and never stores a zero.

def expvec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def expvec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def expvec_divides(a, b):
    """True when x^a divides x^b (componentwise a <= b)."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def expvec_lcm(a, b):
    return tuple(x if x >= y else y for x, y in zip(a, b))


def expvec_min(a, b):
    return tuple(x if x <= y else y for x, y in zip(a, b))


def dict_add(A, B):
    out = dict(A)
    for k, v in B.items():
        s = out.get(k)
        if s is None:
            out[k] = v
        else:
            s = s + v
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def dict_sub(A, B):
    out = dict(A)
    for k, v in B.items():
        s = out.get(k)
        if s is None:
            out[k] = -v
        else:
            s = s - v
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def dict_neg(A):
    return {k: -v for k, v in A.items()}


def dict_scale(A, c):
    if not c:
        return {}
    return {k: v * c for k, v in A.items()}


def dict_mul(A, B):
    if not A or not B:
        return {}
    if len(A) > len(B):
        A, B = B, A
    out = {}
    for ka, va in A.items():
        for kb, vb in B.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            s = out.get(k)
            if s is None:
                out[k] = va * vb
            else:
                s = s + va * vb
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


def dict_term_mul(A, c, m):
    """c * x^m * A with c nonzero."""
    return {tuple(x + y for x, y in zip(k, m)): v * c for k, v in A.items()}


def dict_axpy(P, c, m, B):
    """In-place P += c * x^m * B; returns P. c must be nonzero."""
    for k, v in B.items():
        key = tuple(x + y for x, y in zip(k, m))
        s = P.get(key)
        if s is None:
            P[key] = c * v
        else:
            s = s + c * v
            if s:
                P[key] = s
            else:
                del P[key]
    return P


def dict_partial(A, i):
    """Partial derivative in the i-th variable. Lowering one positive
    exponent maps distinct monomials to distinct ones, so no terms collide."""
    return {k[:i] + (k[i] - 1,) + k[i + 1:]: v * k[i] for k, v in A.items() if k[i]}


def _integer_primitive(*term_dicts):
    """The term dicts times the one positive rational that makes every
    coefficient an int and their joint integer content 1, each in its term
    order. Once any coefficient is a Fraction every coefficient is converted
    to an int; dicts that are already int-only with content 1 come back as
    they are, uncopied."""
    dens = [c.denominator for terms in term_dicts for c in terms.values()
            if isinstance(c, Fraction)]
    if dens:
        m = lcm(*dens)
        term_dicts = [{k: c.numerator * (m // c.denominator) for k, c in terms.items()}
                      for terms in term_dicts]
    g = 0
    for terms in term_dicts:
        g = gcd(g, *terms.values())
        if g == 1:
            return term_dicts
    if g > 1:
        term_dicts = [{k: c // g for k, c in terms.items()} for terms in term_dicts]
    return term_dicts


# ---------------------------------------------------------------------------
# parameter layer
# ---------------------------------------------------------------------------

class ParamPoly:
    """Sparse polynomial in the model parameters with exact coefficients.

    ``terms`` maps exponent tuples (length = number of parameters) to
    nonzero int/Fraction coefficients. Instances are treated as immutable.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None, _checked=False):
        self.n = n
        if terms is None:
            self.terms = {}
        elif _checked:
            self.terms = terms
        else:
            clean = {}
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != n or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent vector {exps!r} for {n} parameters")
                if c:
                    clean[exps] = clean.get(exps, 0) + c
                    if not clean[exps]:
                        del clean[exps]
            self.terms = clean

    # -- constructors

    @classmethod
    def zero(cls, n):
        return cls(n, {}, _checked=True)

    @classmethod
    def const(cls, n, value):
        value = _exact(value)
        if not value:
            return cls.zero(n)
        return cls(n, {(0,) * n: value}, _checked=True)

    @classmethod
    def gen(cls, n, i, power=1):
        exps = [0] * n
        exps[i] = power
        return cls(n, {tuple(exps): 1}, _checked=True)

    # -- predicates

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and not any(next(iter(self.terms))))

    def constant_value(self):
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return Fraction(next(iter(self.terms.values())))

    # -- structure

    def lead(self):
        """(exponent vector, coefficient) of the lexicographically largest
        monomial in parameter-declaration order."""
        if not self.terms:
            raise ZeroPolynomial("zero parameter polynomial has no leading term")
        m = max(self.terms)
        return m, self.terms[m]

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, ParamPoly):
            if other.n != self.n:
                raise RingMismatch("parameter counts differ")
            return other
        return ParamPoly.const(self.n, other)

    def __add__(self, other):
        other = self._coerce(other)
        return ParamPoly(self.n, dict_add(self.terms, other.terms), _checked=True)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return ParamPoly(self.n, dict_sub(self.terms, other.terms), _checked=True)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return ParamPoly(self.n, dict_neg(self.terms), _checked=True)

    def __mul__(self, other):
        if isinstance(other, ParamPoly):
            if other.n != self.n:
                raise RingMismatch("parameter counts differ")
            return ParamPoly(self.n, dict_mul(self.terms, other.terms), _checked=True)
        return ParamPoly(self.n, dict_scale(self.terms, _exact(other)), _checked=True)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a parameter polynomial")
        out = ParamPoly.const(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, ParamPoly):
            return self.n == other.n and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == ParamPoly.const(self.n, other)
        return NotImplemented

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    # -- evaluation / rendering

    def evaluate(self, values):
        """Value at a parameter vector (aligned with the declaration order)
        in the arithmetic of the values: exact at ints and Fractions; a
        float value turns the coefficient it meets into a float, so float
        values give the terms and the sum of a float evaluation."""
        total = 0
        for exps, c in self.terms.items():
            m = c
            for i, e in enumerate(exps):
                if e:
                    m *= values[i] ** e
            total += m
        return total

    def compiled(self):
        """Float evaluator of this polynomial: ``_term_evaluator`` over its
        compiled term list, ``(float(c), ((i, e), ...))`` per term in dict
        order with the nonzero exponents in parameter order, built once.
        At a float parameter vector it returns float(self.evaluate(values))
        bit for bit: a float times an int or Fraction rounds the coefficient
        as ``float(c)`` does, and a sum seeded with 0.0 instead of 0 has the
        same value and sign of zero."""
        return _term_evaluator(
            [(float(c), tuple((i, e) for i, e in enumerate(exps) if e))
             for exps, c in self.terms.items()])

    def primitive(self):
        """The positive rational multiple with integer coefficients of
        content 1, negated if its leading coefficient is negative."""
        if self.is_zero:
            return self
        terms, = _integer_primitive(self.terms)
        if terms[max(terms)] < 0:
            terms = dict_neg(terms)
        return ParamPoly(self.n, terms, _checked=True)

    def render(self, names):
        return _render_terms(self.terms, names)

    def __repr__(self):
        return f"ParamPoly({self.terms!r})"


def _exact(value):
    """Accept int/Fraction/str/Decimal; reject floats (exact layer only)."""
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, float):
        raise TypeError("floating point is not allowed in exact arithmetic; "
                        "pass a Fraction or a decimal string")
    return Fraction(value)


def exact_divide(num, den):
    """Exact multivariate quotient num/den in the parameter ring, or None
    when den does not divide num. A quotient coefficient is an int when the
    leading coefficients divide in the integers, else a Fraction."""
    if den.is_zero:
        raise DivisionByZero("division of parameter polynomials by zero")
    if num.is_zero:
        return ParamPoly.zero(num.n)
    lm_d, lc_d = den.lead()
    int_lc = isinstance(lc_d, int)
    rem = dict(num.terms)
    quot = {}
    while rem:
        lm_r = max(rem)
        if not expvec_divides(lm_d, lm_r):
            return None
        r = rem[lm_r]
        if int_lc and isinstance(r, int) and not r % lc_d:
            c = r // lc_d
        else:
            c = Fraction(r) / lc_d
        delta = expvec_sub(lm_r, lm_d)
        quot[delta] = c
        dict_axpy(rem, -c, delta, den.terms)
    return ParamPoly(num.n, quot, _checked=True)


class ParamRat:
    """Element of the coefficient field: a ratio of ParamPolys in canonical
    form (see module docstring). Construction normalizes."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _canonical=False):
        if den is None:
            den = ParamPoly.const(num.n, 1)
        if _canonical:
            self.num = num
            self.den = den
            return
        if den.is_zero:
            raise DivisionByZero("zero denominator")
        self.num, self.den = _normalize(num, den)

    @classmethod
    def from_const(cls, n, value):
        """The constant value, built canonical: a Fraction p/q is already in
        lowest terms with q > 0, and an int v is v/1."""
        value = _exact(value)
        if not value:
            return cls.zero(n)
        if isinstance(value, Fraction):
            num, den = value.numerator, value.denominator
        else:
            num, den = value, 1
        return cls(ParamPoly.const(n, num), ParamPoly.const(n, den),
                   _canonical=True)

    @classmethod
    def zero(cls, n):
        return cls(ParamPoly.zero(n), ParamPoly.const(n, 1), _canonical=True)

    @classmethod
    def one(cls, n):
        return cls(ParamPoly.const(n, 1), ParamPoly.const(n, 1), _canonical=True)

    @classmethod
    def gen(cls, n, i):
        return cls(ParamPoly.gen(n, i), _canonical=False)

    # -- predicates

    @property
    def n(self):
        return self.num.n

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_one(self):
        return self.num == self.den

    @property
    def is_param_free(self):
        return self.num.is_constant and self.den.is_constant

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, ParamRat):
            if other.n != self.n:
                raise RingMismatch("parameter counts differ")
            return other
        if isinstance(other, ParamPoly):
            return ParamRat(other)
        return ParamRat.from_const(self.n, other)

    def __add__(self, other):
        other = self._coerce(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.den.terms == other.den.terms:
            return ParamRat(self.num + other.num, self.den)
        return ParamRat(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return ParamRat(-self.num, self.den, _canonical=True)

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return ParamRat.zero(self.n)
        if other.is_param_free:
            return self._scaled(other)
        if self.is_param_free:
            return other._scaled(self)
        return ParamRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def _scaled(self, c):
        """self * c for a nonzero parameter-free c, both canonical.

        With c = p/q (q > 0), num*p / den*q needs only its common integer
        content divided out: a constant factor changes neither the common
        monomial factor nor exact divisibility, and keeps the sign of den's
        leading coefficient, so _normalize would reach the same terms in
        the same order."""
        p, q = c.num.lead()[1], c.den.lead()[1]
        if p == q:
            return self
        num, den = _integer_primitive({k: v * p for k, v in self.num.terms.items()},
                                      {k: v * q for k, v in self.den.terms.items()})
        return ParamRat(ParamPoly(self.n, num, _checked=True),
                        ParamPoly(self.n, den, _checked=True), _canonical=True)

    def inv(self):
        """den/num without renormalizing. In canonical form at most one
        trial division of _normalize succeeded, and one side is constant
        after it; otherwise both failed. So the swapped pair, with the sign
        moved onto the new denominator's leading coefficient, is the
        canonical form _normalize would build, term for term."""
        if self.is_zero:
            raise DivisionByZero("inversion of the zero rational function")
        num, den = self.den, self.num
        if den.lead()[1] < 0:
            num, den = -num, -den
        return ParamRat(num, den, _canonical=True)

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inv()

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        return ParamRat(self.num ** k, self.den ** k)

    def __eq__(self, other):
        if isinstance(other, (ParamRat, ParamPoly, int, Fraction)):
            other = self._coerce(other)
            return self.num * other.den == other.num * self.den
        return NotImplemented

    __hash__ = None

    def __bool__(self):
        return not self.is_zero

    # -- evaluation / rendering

    def evaluate(self, values):
        """Value at a parameter vector, in the arithmetic of ParamPoly.evaluate:
        a Fraction when numerator and denominator evaluate exactly (a
        parameter-free coefficient always does), else a float."""
        num, den = self.num.evaluate(values), self.den.evaluate(values)
        if not den:
            raise ZeroDivisionError("denominator vanishes at this parameter point")
        if isinstance(num, (int, Fraction)) and isinstance(den, (int, Fraction)):
            return Fraction(num, den)
        return num / den

    def render(self, names):
        num = _render_terms(self.num.terms, names)
        if self.den.is_constant and self.den.constant_value() == 1:
            return num
        return f"({num})/({_render_terms(self.den.terms, names)})"

    def __repr__(self):
        return f"ParamRat({self.num.terms!r}, {self.den.terms!r})"


def _rescale_pair(num, den):
    """Scale num/den jointly (preserving the quotient) to integer
    coefficients of joint content 1 and divide out their common monomial
    factor."""
    a, b = _integer_primitive(num.terms, den.terms)
    shift = _common_monomial(a, b)
    if any(shift):
        a, b = _shift_down(a, shift), _shift_down(b, shift)
    return ParamPoly(num.n, a, _checked=True), ParamPoly(num.n, b, _checked=True)


def _normalize(num, den):
    """Canonicalize a num/den pair; see the module docstring for the form."""
    if num.is_zero:
        return ParamPoly.zero(num.n), ParamPoly.const(num.n, 1)
    num, den = _rescale_pair(num, den)
    for _ in range(8):  # each trial division strictly lowers a degree
        if den.is_constant:
            break
        q = exact_divide(num, den)
        if q is not None:
            num, den = _rescale_pair(q, ParamPoly.const(num.n, 1))
            continue
        if not num.is_constant:
            q = exact_divide(den, num)
            if q is not None:
                num, den = _rescale_pair(ParamPoly.const(num.n, 1), q)
                continue
        break
    if den.lead()[1] < 0:
        num, den = -num, -den
    return num, den


def _common_monomial(a, b):
    m = None
    for terms in (a, b):
        for exps in terms:
            m = exps if m is None else expvec_min(m, exps)
            if not any(m):
                return m
    return m


def _shift_down(terms, shift):
    return {expvec_sub(exps, shift): c for exps, c in terms.items()}


def render_monomial(exps, names):
    """The factors name^e of the nonzero exponents joined by '*' (name
    alone for e = 1); the empty string for the unit monomial."""
    return "*".join(names[i] if e == 1 else f"{names[i]}^{e}"
                    for i, e in enumerate(exps) if e)


def _render_terms(terms, names):
    if not terms:
        return "0"
    parts = []
    for exps in sorted(terms, reverse=True):
        c = terms[exps]
        mono = render_monomial(exps, names)
        c = Fraction(c)
        if not mono:
            body = str(c) if c > 0 else str(-c)
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# differential layer
# ---------------------------------------------------------------------------

class MonomialOrder:
    """Pure lexicographic order given by an ordered variable list (highest
    first), so monomials compare as their exponent tuples do. Also serves as
    the ambient ring description for Poly."""

    __slots__ = ("vars", "index")

    def __init__(self, vars):
        self.vars = tuple(vars)
        self.index = {v: i for i, v in enumerate(self.vars)}
        if len(self.index) != len(self.vars):
            raise ValueError("duplicate variable in monomial order")

    def __len__(self):
        return len(self.vars)

    def __contains__(self, var):
        return var in self.index

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.vars == other.vars

    def __hash__(self):
        return hash(self.vars)

    def exps(self, mono):
        """Exponent tuple for a monomial given as a DiffVar->exponent mapping
        or an already-aligned tuple."""
        if isinstance(mono, tuple):
            if len(mono) != len(self.vars):
                raise UnknownVariable("exponent tuple length does not match the ring")
            return mono
        exps = [0] * len(self.vars)
        for var, e in mono.items():
            i = self.index.get(var)
            if i is None:
                raise UnknownVariable(f"variable {var} not in the monomial order")
            exps[i] = e
        return tuple(exps)

    def suffix_start(self, keep):
        """Index k such that keep == vars[k:], else InvalidBlock."""
        keep = set(keep)
        k = len(self.vars) - len(keep)
        if k < 0 or set(self.vars[k:]) != keep:
            raise InvalidBlock("keep-set must be the lowest-ranked suffix of the order")
        return k

    def __repr__(self):
        return "MonomialOrder(" + " > ".join(str(v) for v in self.vars) + ")"


class Poly:
    """Sparse polynomial in DiffVars over ParamRat coefficients.

    terms maps ring-aligned exponent tuples to nonzero ParamRat values.
    """

    __slots__ = ("ring", "n", "terms")

    def __init__(self, ring, terms=None, n=None, _checked=False):
        self.ring = ring
        if n is not None:
            self.n = n
        else:
            rats = [c for c in (terms or {}).values() if isinstance(c, ParamRat)]
            if not rats:
                raise ValueError("parameter count required when no ParamRat "
                                 "coefficient is present")
            self.n = rats[0].n
        if _checked:
            self.terms = terms or {}
            return
        clean = {}
        for mono, c in (terms or {}).items():
            exps = ring.exps(mono)
            if not isinstance(c, ParamRat):
                c = ParamRat.from_const(self.n, c)
            if not c.is_zero:
                prev = clean.get(exps)
                c = c if prev is None else prev + c
                if c.is_zero:
                    del clean[exps]
                else:
                    clean[exps] = c
        self.terms = clean

    # -- constructors

    @classmethod
    def zero(cls, ring, n):
        return cls(ring, {}, n=n, _checked=True)

    @classmethod
    def const(cls, ring, coeff):
        if not isinstance(coeff, ParamRat):
            raise TypeError("constant coefficient must be a ParamRat")
        if coeff.is_zero:
            return cls.zero(ring, coeff.n)
        unit = (0,) * len(ring.vars)
        return cls(ring, {unit: coeff}, n=coeff.n, _checked=True)

    @classmethod
    def var(cls, ring, v, n, power=1):
        i = ring.index.get(v)
        if i is None:
            raise UnknownVariable(f"variable {v} not in the monomial order")
        exps = [0] * len(ring.vars)
        exps[i] = power
        return cls(ring, {tuple(exps): ParamRat.one(n)}, n=n, _checked=True)

    # -- predicates / structure

    @property
    def is_zero(self):
        return not self.terms

    def leading_term(self):
        """(leading monomial exponent tuple, coefficient) under the ring's
        lex order."""
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        m = max(self.terms)
        return m, self.terms[m]

    def support_vars(self):
        used = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(self.ring.vars[i])
        return used

    def uses_only(self, allowed):
        allowed = set(allowed)
        return all(v in allowed for v in self.support_vars())

    def degree_in(self, var):
        i = self.ring.index[var]
        return max((exps[i] for exps in self.terms), default=0)

    def terms_sorted(self):
        """(exponents, coefficient) pairs, leading monomial first."""
        return [(m, self.terms[m]) for m in sorted(self.terms, reverse=True)]

    # -- arithmetic

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch("polynomials live in different rings")

    def __add__(self, other):
        if isinstance(other, (ParamRat, int, Fraction)):
            other = Poly.const(self.ring, self._rat(other))
        self._check(other)
        return Poly(self.ring, dict_add(self.terms, other.terms), n=self.n,
                    _checked=True)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -self._rat(other))

    def __neg__(self):
        return Poly(self.ring, dict_neg(self.terms), n=self.n, _checked=True)

    def _rat(self, value):
        if isinstance(value, ParamRat):
            return value
        return ParamRat.from_const(self.n, value)

    def __mul__(self, other):
        if isinstance(other, (ParamRat, int, Fraction)):
            return self.scale(self._rat(other))
        self._check(other)
        return Poly(self.ring, dict_mul(self.terms, other.terms), n=self.n,
                    _checked=True)

    __rmul__ = __mul__

    def scale(self, c):
        return Poly(self.ring, dict_scale(self.terms, c), n=self.n, _checked=True)

    def mul_term(self, c, delta):
        """c * x^delta * self for a ParamRat c and exponent tuple delta."""
        if c.is_zero:
            return Poly.zero(self.ring, self.n)
        return Poly(self.ring, dict_term_mul(self.terms, c, delta), n=self.n,
                    _checked=True)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Poly.const(self.ring, ParamRat.one(self.n))
        for _ in range(k):
            out = out * self
        return out

    def monic(self):
        if self.is_zero:
            raise ZeroPolynomial("cannot scale the zero polynomial monic")
        _, lc = self.leading_term()
        if lc.is_one:
            return self
        return self.scale(lc.inv())

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.ring == other.ring and self.terms.keys() == other.terms.keys()
                and all(c == other.terms[m] for m, c in self.terms.items()))

    __hash__ = None

    # -- calculus / ring moves

    def derivative(self, velocity):
        """Derivative along a vector field (the chain rule): the sum over the
        ring variables v of dp/dv * velocity[v], where velocity maps a
        variable to a Poly over this ring and a variable it omits is
        constant. Terms are walked in dict order and, within a term, the
        variables in ring order, which fixes the term order of the result."""
        ring_vars = self.ring.vars
        out = {}
        for exps, c in self.terms.items():
            for i, e in enumerate(exps):
                if e and ring_vars[i] in velocity:
                    dict_axpy(out, c * e, exps[:i] + (e - 1,) + exps[i + 1:],
                              velocity[ring_vars[i]].terms)
        return Poly(self.ring, out, n=self.n, _checked=True)

    def rering(self, new_ring):
        """Rebuild over another variable order; raises UnknownVariable if a
        variable with nonzero exponent is missing from the target."""
        terms = {}
        for exps, c in self.terms.items():
            mono = {self.ring.vars[i]: e for i, e in enumerate(exps) if e}
            terms[new_ring.exps(mono)] = c
        return Poly(new_ring, terms, n=self.n, _checked=True)

    # -- evaluation / rendering

    def evaluate(self, var_values, param_values):
        """Numeric value; var_values maps DiffVar -> float and needs only
        the variables the terms use, param_values is aligned with parameter
        declaration order."""
        identity = {v: v for v in self.ring.vars}
        return compile_poly(self, identity, param_values)(var_values)

    def render(self, names):
        if not self.terms:
            return "0"
        var_names = [str(v) for v in self.ring.vars]
        parts = []
        for exps, c in self.terms_sorted():
            mono = render_monomial(exps, var_names)
            cs = c.render(names)
            negated = False
            if cs == "1" and mono:
                body = mono
            elif cs == "-1" and mono:
                body, negated = mono, True
            else:
                wrapped = f"({cs})" if ("+" in cs or " - " in cs or "/" in cs) else cs
                if wrapped.startswith("-") and "(" not in wrapped:
                    wrapped, negated = wrapped[1:], True
                body = f"{wrapped}*{mono}" if mono else wrapped
            if not parts:
                parts.append(f"-{body}" if negated else body)
            else:
                parts.append(f"- {body}" if negated else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        names = [f"a{i + 1}" for i in range(self.n)]
        return f"Poly[{self.render(names)}]"


def compiled_terms(p, index, values, exact=False):
    """The compiled term list of a Poly at fixed parameter values: one
    ``(coef, ((pos, e), ...))`` per term, in dict order, where each term
    keeps only its nonzero exponents, in ring order, and pos is the position
    that index gives the variable in the caller's value vector. The
    coefficients are Fractions with exact=True (values must then be ints or
    Fractions) and floats otherwise."""
    ring_vars = p.ring.vars
    conv = Fraction if exact else float
    return [(conv(c.evaluate(values)),
             tuple((index[ring_vars[i]], e) for i, e in enumerate(exps) if e))
            for exps, c in p.terms.items()]


def compile_poly(p, index, values, exact=False):
    """Compile a Poly at fixed parameter values into a function of the
    caller's value vector; index maps each variable of p's ring that p uses
    to its position in that vector.

    An evaluation walks the compiled term list (``compiled_terms``), so it
    does the same multiplications in the same order as a walk over the full
    exponent vector. With exact=True the coefficients are evaluated as
    Fractions, so Fraction inputs give the exact value."""
    return _term_evaluator(compiled_terms(p, index, values, exact),
                          Fraction(0) if exact else 0.0)


def _term_evaluator(terms, zero=0.0):
    """The function of a value vector that evaluates a compiled term list:
    the sum, seeded with zero, of the terms in list order, each its
    coefficient times its factors in list order (the value itself for
    exponent 1, the value ** e otherwise). It is the one numeric evaluation
    loop of both layers: ``compile_poly`` (a Poly) and
    ``ParamPoly.compiled`` (a ParamPoly) return it."""
    def ev(vals):
        total = zero
        for m, factors in terms:
            for pos, e in factors:
                if e == 1:
                    m *= vals[pos]
                else:
                    m *= vals[pos] ** e
            total += m
        return total

    return ev


def terms_source(terms, var_names, coef_names):
    """Python expression source of a compiled term list (``compiled_terms``)
    that evaluates in the float operations and order of ``compile_poly``:
    ``0.0 + t1 + t2 + ...`` with each term ``c * v * w ** e``, which Python
    groups left to right, so the sum is seeded with 0.0 (keeping its sign
    of zero), terms come in list order and factors in ring order.
    var_names[pos] names the value at pos and coef_names[k] the coefficient
    of the k-th term."""
    parts = ["0.0"]
    for name, (_, factors) in zip(coef_names, terms):
        parts.append(" * ".join(
            [name] + [var_names[pos] if e == 1 else f"{var_names[pos]} ** {e}"
                      for pos, e in factors]))
    return " + ".join(parts)


def poly_divide(f, divisors):
    """Multivariate division: f = sum(q_i * g_i) + r with no monomial of r
    divisible by any divisor's leading monomial. Deterministic: the first
    divisor in list order whose leading monomial divides is used."""
    ring = f.ring
    lead = []
    for g in divisors:
        if g.ring != ring:
            raise RingMismatch("divisor lives in a different ring")
        lead.append(g.leading_term())
    # the leading monomial of work strictly decreases, so each quotient
    # receives every delta at most once
    quots = [{} for _ in divisors]
    rem = {}
    work = dict(f.terms)
    while work:
        mono = max(work)
        coeff = work[mono]
        for i, (lm, lc) in enumerate(lead):
            if expvec_divides(lm, mono):
                q = coeff if lc.is_one else coeff / lc
                delta = expvec_sub(mono, lm)
                quots[i][delta] = q
                dict_axpy(work, -q, delta, divisors[i].terms)
                break
        else:
            rem[mono] = coeff
            del work[mono]
    return ([Poly(ring, q, n=f.n, _checked=True) for q in quots],
            Poly(ring, rem, n=f.n, _checked=True))


def clear_denominators(poly):
    """Multiply a Poly through by a common denominator of its coefficients
    and then by _integer_primitive's positive rational, so every coefficient
    becomes an integer ParamPoly, their joint content is 1, and the leading
    term's leading parameter coefficient is positive. Returns {monomial
    exponents: ParamPoly} in the Poly's term order.

    The denominators are taken leading term first, so equal polynomials
    clear alike whatever their term order. One that the common denominator
    already absorbs is skipped and one that it divides replaces it; any
    other multiplies it in, so the result is a common multiple but not
    always the least one."""
    common = ParamPoly.const(poly.n, 1)
    for _, c in poly.terms_sorted():
        if c.den.is_constant or exact_divide(common, c.den) is not None:
            continue
        if exact_divide(c.den, common) is not None:
            common = c.den
        else:
            common = common * c.den
    cleared = []
    for c in poly.terms.values():
        q = exact_divide(c.num * common, c.den)
        if q is None:  # cannot happen: den divides common by construction
            raise ArithmeticError("denominator failed to clear")
        cleared.append(q.terms)
    cleared = dict(zip(poly.terms, _integer_primitive(*cleared)))
    lead = cleared[max(cleared)]
    if lead[max(lead)] < 0:
        cleared = {m: dict_neg(t) for m, t in cleared.items()}
    return {m: ParamPoly(poly.n, t, _checked=True) for m, t in cleared.items()}
