"""Exact sparse multivariate polynomial arithmetic over a rational-function
coefficient field.

Two layers:

* parameter layer: ``ParamPoly`` (exact integer/rational coefficients keyed
  by packed parameter monomials) and ``ParamRat`` = ParamPoly / ParamPoly,
  the coefficient-field elements;
* differential layer: ``Poly``, sparse polynomials in derivative-tagged
  variables (``DiffVar``) under a pure lexicographic ``MonomialOrder``,
  with ParamRat coefficients.

Both layers store a polynomial as a term dict: packed monomials mapped to
nonzero coefficients. This module owns that format and the kernels over it
(``dict_*`` on term dicts, and the monomial operations below). The
arithmetic kernels need only ``+``, ``-``, ``*`` and truth testing of the
coefficients, so ParamPoly (int/Fraction) and Poly (ParamRat) share them;
the Groebner engine and the extension check import them from here.

Packed monomials (Monagan and Pearce, Polynomial division using dynamic
arrays, heaps, and packed exponent vectors, CASC 2007): a monomial is one
non-negative int with one 16-bit field (``FIELD``) per variable, a 15-bit
exponent under a guard bit. The highest-ranked variable has the top field:
``ring.vars[0]`` of a MonomialOrder, the first declared parameter of a
ParamPoly. So ints compare as the exponent tuples do under lex, and ``max``,
``sorted`` and a heap order monomials as tuples would. The unit monomial is
``0``; a product of monomials is ``a + b``, a quotient ``a - b``, and ``a``
divides ``b`` exactly when ``a <= b`` and ``(b - a)`` has no guard bit set
(a field that borrows sets its guard). lcm and min select fields through the
guards of ``(a | guard) - b``; the OR of a polynomial's keys has a nonzero
field exactly for the variables it uses. The guard mask ``_GUARD`` covers
``MAX_VARS`` fields, and a ring or parameter list wider than that is
refused when it is built. An exponent above ``MAX_EXP`` never wraps into
the next field: a sum of two fields stays below 2^FIELD, so a product that
reaches a guard bit is seen and raises ResourceExhausted (exit 4).

``ParamPoly.terms`` and ``Poly.terms`` are views built on access: the same
dict with each key unpacked to its exponent tuple, in term order. Inside
the package every layer works on the packed dict, ``.packed``.

Floating point is forbidden in the arithmetic; every operation is exact.
This module is also the one place that differentiates and evaluates term
dicts. ``dict_derivative`` is the chain rule, a derivative along a vector
field: ``Poly.derivative`` runs it for the prolongation of ``model``, and
the output push-forward of ``datalab`` runs it on term dicts over Q, the
model at fixed parameter values. Every numeric evaluation compiles a term
dict with ``term_list`` into a compiled term list, one ``(coef, ((pos,
e), ...))`` per term, and walks it with the one evaluation loop,
``term_evaluator``: ``ParamPoly.evaluate`` and ``ParamRat.evaluate`` (exact
at int/Fraction values, in floats at float values), ``compiled_terms`` (a
Poly at fixed float parameter values: the RK4 output of ``datalab``), and
the push-forward jets and the coefficient system, which compile their term
dicts directly. ``term_list_partials`` differentiates a compiled term list.
The loop defines the float evaluation order, and two float evaluators
do its operations in that order: ``terms_source``, the expression source
that the generated RK4 kernel of ``datalab`` is built from, and
``batch_evaluator``, which evaluates many term lists at many points in one
pass of numpy array operations (the Newton sampler of ``variety``: its
equations, their Jacobian and the assumptions).
All values are immutable after construction, so they are safe to share
between threads.

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
order) is positive. So a canonical pair holds int coefficients only. One
routine, ``_canonical``, builds that form on the raw term dicts, in that
order, and every ParamRat operation works on ``num.packed``/``den.packed``
and ends in it; the public constructor calls it too. A product with a
parameter-free factor only rescales and divides out integer content, which
yields the same terms in the same order as the full normalization.

The form is not unique: trial division finds a common factor only when one
side divides the other, so a coefficient can keep a common non-monomial
factor, and its terms depend on the operations that built it. Every
operation therefore does the same exact operations in the same order (no
lazy normalization, no fused multiply-add); a different order can change
the bases and artifacts that the package writes.
"""

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import index, or_
from typing import NamedTuple

from .errors import (
    DivisionByZero,
    InvalidBlock,
    ResourceExhausted,
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
# packed monomials
# ---------------------------------------------------------------------------

FIELD = 16                          # bits per variable: guard bit + exponent
MAX_EXP = (1 << (FIELD - 1)) - 1    # the largest exponent a field holds
MAX_VARS = 1024                     # the fields _GUARD covers
_MASK = (1 << FIELD) - 1
_GUARD = int.from_bytes(b"\x80\x00" * MAX_VARS, "big")


def _overflow():
    return ResourceExhausted(
        f"exponent overflow: a monomial exponent exceeds {MAX_EXP}, the "
        f"largest a {FIELD}-bit packed field holds")


def field_guard(n):
    """The guard bits of the n fields of an n-variable ring; a ring wider
    than MAX_VARS raises ResourceExhausted."""
    if n > MAX_VARS:
        raise ResourceExhausted(
            f"{n} variables: packed monomials hold at most {MAX_VARS}")
    return _GUARD >> (FIELD * (MAX_VARS - n))


def _field(e):
    """An exponent as a field value: ValueError unless it is a non-negative
    integer, ResourceExhausted above MAX_EXP."""
    try:
        value = index(e)
    except TypeError:
        value = -1
    if value < 0:
        raise ValueError(f"bad exponent {e!r}: exponents must be non-negative integers")
    if value > MAX_EXP:
        raise _overflow()
    return value


def pack(exps):
    """The packed monomial of an exponent sequence, first entry in the top
    field."""
    field_guard(len(exps))
    key = 0
    for e in exps:
        key = key << FIELD | _field(e)
    return key


def unpack(key, n):
    """The exponent tuple of a packed monomial over n variables."""
    return tuple((key >> s) & _MASK for s in range(FIELD * (n - 1), -1, -FIELD))


def exponents(key, n):
    """(i, e) for each nonzero exponent e of a packed monomial over n
    variables, i its variable's position, in variable order. Walks only the
    nonzero fields, from the top."""
    out = []
    while key:
        f = (key.bit_length() - 1) // FIELD
        e = key >> (FIELD * f)
        out.append((n - 1 - f, e))
        key -= e << (FIELD * f)
    return out


def support(keys):
    """The OR of packed monomials: nonzero in a field exactly when some
    monomial has that variable."""
    return reduce(or_, keys, 0)


def divides(a, b):
    """True when the monomial a divides b."""
    return a <= b and not (b - a) & _GUARD


def _greater_fields(a, b, guard):
    """The exponent bits of the fields where a's exponent is at least b's;
    guard covers every field of a and b."""
    s = ((a | guard) - b) & guard
    return s - (s >> (FIELD - 1))


def mono_lcm(a, b, guard):
    """The least common multiple of two monomials over the fields of guard."""
    return b ^ ((a ^ b) & _greater_fields(a, b, guard))


def mono_min(a, b, guard):
    """The greatest common divisor of two monomials over the fields of
    guard."""
    return a ^ ((a ^ b) & _greater_fields(a, b, guard))


# ---------------------------------------------------------------------------
# term-dict kernels
# ---------------------------------------------------------------------------
# A term dict maps packed monomials to nonzero coefficients and never stores
# a zero. The kernels that add monomials check each new key's guard bits.

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
            k = ka + kb
            if k & _GUARD:
                raise _overflow()
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
    out = {}
    for k, v in A.items():
        k += m
        if k & _GUARD:
            raise _overflow()
        out[k] = v * c
    return out


def dict_axpy(P, c, m, B):
    """In-place P += c * x^m * B; returns P. c must be nonzero."""
    for k, v in B.items():
        key = k + m
        if key & _GUARD:
            raise _overflow()
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


def dict_derivative(A, velocity):
    """Derivative of a term dict along a vector field, the chain rule: the
    sum over the variables i of dA/dx_i * velocity[i]. velocity lists one
    term dict per variable of the ring, in ring order, or None for a
    variable that is constant along the field. Terms are walked in dict
    order and, within a term, the variables in ring order, which fixes the
    term order of the result. It needs only the coefficient arithmetic, so
    it serves ParamRat coefficients (``Poly.derivative``) and exact
    rationals alike."""
    n = len(velocity)
    out = {}
    for key, c in A.items():
        for i, e in exponents(key, n):
            w = velocity[i]
            if w is not None:
                dict_axpy(out, c * e, key - (1 << FIELD * (n - 1 - i)), w)
    return out


def _integer_primitive(*term_dicts):
    """The term dicts times the one positive rational that makes every
    coefficient an int and their joint integer content 1, each in its term
    order. Once any coefficient is a Fraction every coefficient is converted
    to an int; dicts that are already int-only with content 1 come back as
    they are, uncopied."""
    dens = [c.denominator for terms in term_dicts for c in terms.values()
            if type(c) is not int]
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

    ``packed`` maps packed monomials (n fields, the first parameter on top)
    to nonzero int/Fraction coefficients; the constructor takes exponent
    tuples of length n, and ``terms`` is the exponent-tuple view. Instances
    are treated as immutable.
    """

    __slots__ = ("n", "packed")

    def __init__(self, n, terms=None, _checked=False):
        self.n = n
        if terms is None:
            self.packed = {}
        elif _checked:
            self.packed = terms
        else:
            clean = {}
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != n:
                    raise ValueError(f"bad exponent vector {exps!r} for {n} parameters")
                key = pack(exps)
                if c:
                    clean[key] = clean.get(key, 0) + c
                    if not clean[key]:
                        del clean[key]
            self.packed = clean

    @property
    def terms(self):
        """{exponent tuple: coefficient} in term order, built on access."""
        return {unpack(k, self.n): c for k, c in self.packed.items()}

    # -- constructors

    @classmethod
    def zero(cls, n):
        return cls(n, {}, _checked=True)

    @classmethod
    def const(cls, n, value):
        value = _exact(value)
        if not value:
            return cls.zero(n)
        return cls(n, {0: value}, _checked=True)

    @classmethod
    def gen(cls, n, i, power=1):
        exps = [0] * n
        exps[i] = power
        return cls(n, {pack(exps): 1}, _checked=True)

    # -- predicates

    @property
    def is_zero(self):
        return not self.packed

    @property
    def is_constant(self):
        t = self.packed
        return not t or (len(t) == 1 and 0 in t)

    def constant_value(self):
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return Fraction(next(iter(self.packed.values())))

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, ParamPoly):
            if other.n != self.n:
                raise RingMismatch("parameter counts differ")
            return other
        return ParamPoly.const(self.n, other)

    def __add__(self, other):
        if isinstance(other, ParamRat):
            return NotImplemented
        other = self._coerce(other)
        return ParamPoly(self.n, dict_add(self.packed, other.packed), _checked=True)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, ParamRat):
            return NotImplemented
        other = self._coerce(other)
        return ParamPoly(self.n, dict_sub(self.packed, other.packed), _checked=True)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return ParamPoly(self.n, dict_neg(self.packed), _checked=True)

    def __mul__(self, other):
        if isinstance(other, ParamRat):
            return NotImplemented
        if isinstance(other, ParamPoly):
            if other.n != self.n:
                raise RingMismatch("parameter counts differ")
            return ParamPoly(self.n, dict_mul(self.packed, other.packed), _checked=True)
        return ParamPoly(self.n, dict_scale(self.packed, _exact(other)), _checked=True)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a parameter polynomial")
        return _power(self, k, ParamPoly.const(self.n, 1))

    def __eq__(self, other):
        if isinstance(other, ParamPoly):
            return self.n == other.n and self.packed == other.packed
        if isinstance(other, (int, Fraction)):
            return self == ParamPoly.const(self.n, other)
        return NotImplemented

    __hash__ = None

    def __bool__(self):
        return bool(self.packed)

    # -- evaluation / rendering

    def evaluate(self, values):
        """Value at a parameter vector (aligned with the declaration order)
        in the arithmetic of the values: exact at ints and Fractions; a
        float value turns the coefficient it meets into a float, so float
        values give the terms and the sum of a float evaluation. The
        parameters are their own positions in the vector, so ``term_list``
        takes range(n) as both the variables and the index."""
        n = self.n
        return term_evaluator(term_list(self.packed, range(n), range(n)), 0)(values)

    def primitive(self):
        """The positive rational multiple with integer coefficients of
        content 1, negated if its leading coefficient is negative."""
        if self.is_zero:
            return self
        terms, = _integer_primitive(self.packed)
        if terms[max(terms)] < 0:
            terms = dict_neg(terms)
        return ParamPoly(self.n, terms, _checked=True)

    def render(self, names):
        return _render_terms(self.packed, self.n, names)

    def __repr__(self):
        return f"ParamPoly({self.terms!r})"


def _power(base, k, one):
    """base ** k for k >= 0 by square-and-multiply from one, the unit of
    base's ring: the multiplications of both layers' ``__pow__``, in one
    order."""
    out = one
    while k:
        if k & 1:
            out = out * base
        base = base * base if k > 1 else base
        k >>= 1
    return out


def _exact(value):
    """Accept int/Fraction/str/Decimal; reject floats (exact layer only)."""
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, float):
        raise TypeError("floating point is not allowed in exact arithmetic; "
                        "pass a Fraction or a decimal string")
    return Fraction(value)


def _quotient(A, B):
    """Exact quotient of the term dicts A / B (B nonzero) in the parameter
    ring, or None when B does not divide A. A quotient coefficient is an int
    when the leading coefficients divide in the integers, else a
    Fraction."""
    lm_d = max(B)
    lc_d = B[lm_d]
    int_lc = type(lc_d) is int
    rem = dict(A)
    quot = {}
    while rem:
        lm_r = max(rem)
        if lm_d > lm_r or (lm_r - lm_d) & _GUARD:
            return None
        r = rem[lm_r]
        if int_lc and type(r) is int and not r % lc_d:
            c = r // lc_d
        else:
            c = Fraction(r) / lc_d
        delta = lm_r - lm_d
        quot[delta] = c
        dict_axpy(rem, -c, delta, B)
    return quot


def exact_divide(num, den):
    """Exact multivariate quotient num/den of ParamPolys, or None when den
    does not divide num (see ``_quotient``)."""
    if den.is_zero:
        raise DivisionByZero("division of parameter polynomials by zero")
    q = _quotient(num.packed, den.packed)
    return None if q is None else _poly(num.n, q)


def _poly(n, terms):
    """A ParamPoly over n parameters on a valid term dict, unchecked."""
    p = object.__new__(ParamPoly)
    p.n = n
    p.packed = terms
    return p


def _rat(n, num, den):
    """A ParamRat on a canonical pair of term dicts, unchecked."""
    r = object.__new__(ParamRat)
    r.num = _poly(n, num)
    r.den = _poly(n, den)
    return r


def _canonical(num, den, n):
    """The ParamRat num/den of two term dicts over n parameters, den
    nonzero, in canonical form (see the module docstring). In order: the
    joint integer primitive, the common monomial factor divided out, one
    trial-division pass (num by den, else den by num; one that succeeds
    leaves a constant side, so a second pass could not divide again) and the
    sign of den's leading coefficient."""
    if not num:
        return _rat(n, {}, {0: 1})
    num, den = _integer_primitive(num, den)
    shift = _common_monomial(num, den, n)
    if shift:
        num = {k - shift: c for k, c in num.items()}
        den = {k - shift: c for k, c in den.items()}
    if not (len(den) == 1 and 0 in den):
        q = _quotient(num, den)
        if q is not None:
            num, den = _integer_primitive(q, {0: 1})
        elif not (len(num) == 1 and 0 in num):
            q = _quotient(den, num)
            if q is not None:
                num, den = _integer_primitive({0: 1}, q)
    if den[max(den)] < 0:
        num, den = dict_neg(num), dict_neg(den)
    return _rat(n, num, den)


def _common_monomial(a, b, n):
    """The greatest monomial dividing every key of the term dicts a and b
    over n parameters."""
    if 0 in a or 0 in b:
        return 0
    guard = _GUARD >> (FIELD * (MAX_VARS - n))
    m = None
    for terms in (a, b):
        for key in terms:
            m = key if m is None else mono_min(m, key, guard)
            if not m:
                return 0
    return m


class ParamRat:
    """Element of the coefficient field: a ratio of ParamPolys in canonical
    form (see module docstring). Construction normalizes; the arithmetic
    works on the term dicts of ``num.packed`` and ``den.packed``."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = ParamPoly.const(num.n, 1)
        if den.is_zero:
            raise DivisionByZero("zero denominator")
        r = _canonical(num.packed, den.packed, num.n)
        self.num, self.den = r.num, r.den

    @classmethod
    def from_const(cls, n, value):
        """The constant value, built canonical: a Fraction p/q is already in
        lowest terms with q > 0, and an int v is v/1."""
        value = _exact(value)
        if not value:
            return _rat(n, {}, {0: 1})
        if isinstance(value, Fraction):
            return _rat(n, {0: value.numerator}, {0: value.denominator})
        return _rat(n, {0: value}, {0: 1})

    @classmethod
    def zero(cls, n):
        return _rat(n, {}, {0: 1})

    @classmethod
    def one(cls, n):
        return _rat(n, {0: 1}, {0: 1})

    @classmethod
    def gen(cls, n, i):
        return cls(ParamPoly.gen(n, i))

    # -- predicates

    @property
    def n(self):
        return self.num.n

    @property
    def is_zero(self):
        return not self.num.packed

    @property
    def is_one(self):
        return self.num.packed == self.den.packed

    @property
    def is_param_free(self):
        return self.num.is_constant and self.den.is_constant

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, (ParamRat, ParamPoly)):
            if other.n != self.n:
                raise RingMismatch("parameter counts differ")
            return other if isinstance(other, ParamRat) else ParamRat(other)
        return ParamRat.from_const(self.n, other)

    def __add__(self, other):
        if type(other) is not ParamRat or other.num.n != self.num.n:
            other = self._coerce(other)
        a, b = self.num.packed, other.num.packed
        if not a:
            return other
        if not b:
            return self
        c, d = self.den.packed, other.den.packed
        if c == d:
            return _canonical(dict_add(a, b), c, self.num.n)
        return _canonical(dict_add(dict_mul(a, d), dict_mul(b, c)), dict_mul(c, d),
                          self.num.n)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not ParamRat:
            other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return _rat(self.num.n, dict_neg(self.num.packed), self.den.packed)

    def __mul__(self, other):
        if type(other) is not ParamRat or other.num.n != self.num.n:
            other = self._coerce(other)
        a, b = self.num.packed, other.num.packed
        if not a or not b:
            return _rat(self.num.n, {}, {0: 1})
        c, d = self.den.packed, other.den.packed
        if len(b) == 1 and 0 in b and len(d) == 1 and 0 in d:
            return self._scaled(b[0], d[0])
        if len(a) == 1 and 0 in a and len(c) == 1 and 0 in c:
            return other._scaled(a[0], c[0])
        return _canonical(dict_mul(a, b), dict_mul(c, d), self.num.n)

    __rmul__ = __mul__

    def _scaled(self, p, q):
        """self * p/q for the canonical constant p/q (q > 0, p nonzero).

        num*p / den*q needs only its common integer content divided out: a
        constant factor changes neither the common monomial factor nor exact
        divisibility, and keeps the sign of den's leading coefficient, so
        _canonical would reach the same terms in the same order."""
        if p == q:
            return self
        num, den = _integer_primitive({k: v * p for k, v in self.num.packed.items()},
                                      {k: v * q for k, v in self.den.packed.items()})
        return _rat(self.num.n, num, den)

    def inv(self):
        """den/num without renormalizing. In canonical form the trial
        division pass of _canonical either succeeded, leaving one side
        constant, or failed both ways. So the swapped pair, with the sign
        moved onto the new denominator's leading coefficient, is the
        canonical form _canonical would build, term for term."""
        num, den = self.den.packed, self.num.packed
        if not den:
            raise DivisionByZero("inversion of the zero rational function")
        if den[max(den)] < 0:
            num, den = dict_neg(num), dict_neg(den)
        return _rat(self.num.n, num, den)

    def __truediv__(self, other):
        if type(other) is not ParamRat:
            other = self._coerce(other)
        return self * other.inv()

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
        return bool(self.num.packed)

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
        n = self.n
        num = _render_terms(self.num.packed, n, names)
        if self.den.is_constant and self.den.constant_value() == 1:
            return num
        return f"({num})/({_render_terms(self.den.packed, n, names)})"

    def __repr__(self):
        return f"ParamRat({self.num.terms!r}, {self.den.terms!r})"


def render_monomial(key, n, names):
    """The factors name^e of the nonzero exponents of a packed monomial
    over n variables joined by '*' (name alone for e = 1); the empty string
    for the unit monomial."""
    return "*".join(names[i] if e == 1 else f"{names[i]}^{e}"
                    for i, e in exponents(key, n))


def _render_terms(terms, n, names):
    if not terms:
        return "0"
    parts = []
    for key in sorted(terms, reverse=True):
        c = terms[key]
        mono = render_monomial(key, n, names)
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
    first), so packed monomials compare as their exponent tuples do. Also
    serves as the ambient ring description for Poly: shifts[i] is the low
    bit of variable i's field and guard the guard bits of all its fields."""

    __slots__ = ("vars", "index", "shifts", "guard")

    def __init__(self, vars):
        self.vars = tuple(vars)
        self.index = {v: i for i, v in enumerate(self.vars)}
        if len(self.index) != len(self.vars):
            raise ValueError("duplicate variable in monomial order")
        n = len(self.vars)
        self.guard = field_guard(n)
        self.shifts = tuple(FIELD * (n - 1 - i) for i in range(n))

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

    def pack(self, mono):
        """The packed monomial of a DiffVar->exponent mapping or an aligned
        exponent tuple; a negative or non-integer exponent raises
        ValueError."""
        return pack(self.exps(mono))

    def unpack(self, key):
        return unpack(key, len(self.vars))

    def split(self, key, var):
        """(e, rest): the exponent of var in a packed monomial and the
        monomial with that exponent zeroed."""
        shift = self.shifts[self.index[var]]
        e = (key >> shift) & _MASK
        return e, key - (e << shift)

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

    packed maps the ring's packed monomials to nonzero ParamRat values; the
    constructor takes ring-aligned exponent tuples or DiffVar->exponent
    mappings, and ``terms`` is the exponent-tuple view.
    """

    __slots__ = ("ring", "n", "packed")

    def __init__(self, ring, terms=None, *, n, _checked=False):
        self.ring = ring
        self.n = n
        if _checked:
            self.packed = terms or {}
            return
        clean = {}
        for mono, c in (terms or {}).items():
            key = ring.pack(mono)
            if not isinstance(c, ParamRat):
                c = ParamRat.from_const(self.n, c)
            if not c.is_zero:
                prev = clean.get(key)
                c = c if prev is None else prev + c
                if c.is_zero:
                    del clean[key]
                else:
                    clean[key] = c
        self.packed = clean

    @property
    def terms(self):
        """{exponent tuple: coefficient} in term order, built on access."""
        return {self.ring.unpack(k): c for k, c in self.packed.items()}

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
        return cls(ring, {0: coeff}, n=coeff.n, _checked=True)

    @classmethod
    def var(cls, ring, v, n, power=1):
        i = ring.index.get(v)
        if i is None:
            raise UnknownVariable(f"variable {v} not in the monomial order")
        return cls(ring, {_field(power) << ring.shifts[i]: ParamRat.one(n)}, n=n,
                   _checked=True)

    # -- predicates / structure

    @property
    def is_zero(self):
        return not self.packed

    def leading_term(self):
        """(leading packed monomial, coefficient) under the ring's lex
        order."""
        if not self.packed:
            raise ZeroPolynomial("zero polynomial has no leading term")
        m = max(self.packed)
        return m, self.packed[m]

    def support_vars(self):
        ring_vars = self.ring.vars
        return {ring_vars[i] for i, _ in exponents(support(self.packed), len(ring_vars))}

    def uses_only(self, allowed):
        allowed = set(allowed)
        return all(v in allowed for v in self.support_vars())

    def degree_in(self, var):
        shift = self.ring.shifts[self.ring.index[var]]
        return max(((k >> shift) & _MASK for k in self.packed), default=0)

    def terms_sorted(self):
        """(packed monomial, coefficient) pairs, leading monomial first."""
        return [(m, self.packed[m]) for m in sorted(self.packed, reverse=True)]

    # -- arithmetic

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch("polynomials live in different rings")

    def __add__(self, other):
        if isinstance(other, (ParamRat, int, Fraction)):
            other = Poly.const(self.ring, self._rat(other))
        self._check(other)
        return Poly(self.ring, dict_add(self.packed, other.packed), n=self.n,
                    _checked=True)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -self._rat(other))

    def __neg__(self):
        return Poly(self.ring, dict_neg(self.packed), n=self.n, _checked=True)

    def _rat(self, value):
        if isinstance(value, ParamRat):
            return value
        return ParamRat.from_const(self.n, value)

    def __mul__(self, other):
        if isinstance(other, (ParamRat, int, Fraction)):
            return self.scale(self._rat(other))
        self._check(other)
        return Poly(self.ring, dict_mul(self.packed, other.packed), n=self.n,
                    _checked=True)

    __rmul__ = __mul__

    def scale(self, c):
        return Poly(self.ring, dict_scale(self.packed, c), n=self.n, _checked=True)

    def mul_term(self, c, delta):
        """c * x^delta * self for a ParamRat c and packed monomial delta."""
        if c.is_zero:
            return Poly.zero(self.ring, self.n)
        return Poly(self.ring, dict_term_mul(self.packed, c, delta), n=self.n,
                    _checked=True)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative polynomial power")
        return _power(self, k, Poly.const(self.ring, ParamRat.one(self.n)))

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
        return (self.ring == other.ring and self.packed.keys() == other.packed.keys()
                and all(c == other.packed[m] for m, c in self.packed.items()))

    __hash__ = None

    # -- calculus / ring moves

    def derivative(self, velocity):
        """Derivative along a vector field (the chain rule,
        ``dict_derivative``): velocity maps a variable to a Poly over this
        ring, and a variable it omits is constant."""
        field = [velocity[v].packed if v in velocity else None for v in self.ring.vars]
        return Poly(self.ring, dict_derivative(self.packed, field), n=self.n,
                    _checked=True)

    def rering(self, new_ring):
        """Rebuild over another variable order; raises UnknownVariable if a
        variable with nonzero exponent is missing from the target."""
        ring_vars = self.ring.vars
        n = len(ring_vars)
        shifts = [new_ring.shifts[new_ring.index[v]] if v in new_ring else None
                  for v in ring_vars]
        terms = {}
        for key, c in self.packed.items():
            new = 0
            for i, e in exponents(key, n):
                if shifts[i] is None:
                    raise UnknownVariable(
                        f"variable {ring_vars[i]} not in the monomial order")
                new |= e << shifts[i]
            terms[new] = c
        return Poly(new_ring, terms, n=self.n, _checked=True)

    # -- rendering

    def render(self, names):
        if not self.packed:
            return "0"
        var_names = [str(v) for v in self.ring.vars]
        n = len(var_names)
        parts = []
        for key, c in self.terms_sorted():
            mono = render_monomial(key, n, var_names)
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


def term_list(terms, ring_vars, index):
    """The compiled term list of a term dict over the variables ring_vars:
    one ``(coef, ((pos, e), ...))`` per term, in dict order, where each term
    keeps its coefficient as it is and only its nonzero exponents, in ring
    order, and pos is the position that index gives the variable in the
    caller's value vector. It drops no term, so a coefficient of 0.0 keeps
    its factors: a float evaluation then raises and rounds as a walk over
    the full exponent vector does."""
    n = len(ring_vars)
    return [(c, tuple((index[ring_vars[i]], e) for i, e in exponents(key, n)))
            for key, c in terms.items()]


def compiled_terms(p, index, values):
    """The term list (``term_list``) of a Poly at fixed float parameter
    values, each coefficient the float of its value there; index maps each
    variable of p's ring that p uses to its position in the value
    vector."""
    return term_list({key: float(c.evaluate(values)) for key, c in p.packed.items()},
                     p.ring.vars, index)


def term_evaluator(terms, zero=0.0):
    """The function of a value vector that evaluates a compiled term list
    (``term_list``): the sum, seeded with zero, of the terms in list order,
    each its coefficient times its factors in list order (the value itself
    for exponent 1, the value ** e otherwise). It is the one numeric
    evaluation loop of the package. A float evaluation seeds the sum with
    0.0, as ``terms_source`` does; an exact one with Fraction(0) or 0, so
    that a sum of exact terms stays exact."""
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


def batch_evaluator(term_lists):
    """The function of a float array of value vectors, one row per point,
    that evaluates every compiled term list (``term_list``) of term_lists at
    every point in the float operations of ``term_evaluator``: it returns a
    C-contiguous points x len(term_lists) float array whose entry [p, k]
    equals ``term_evaluator(term_lists[k])(values[p])`` bit for bit.

    The terms of all lists are evaluated together, as one terms x points
    array: float(coef) times its factors in list order, a term with fewer
    factors than the widest padded with factors of 1.0. The sums are one
    lists x points array: seeded with +0.0, then each list's terms added in
    list order, a list with fewer terms than the longest padded with terms
    of -0.0. x * 1.0 and x + (-0.0) are x, signed zeros, infinities and NaNs
    included, so the padding changes no value. A power is Python's ``**`` on
    each value, never numpy's, whose vectorized pow rounds differently. Like
    Python floats, a product or sum that overflows gives inf or nan with no
    RuntimeWarning; a power that overflows raises OverflowError, as
    ``term_evaluator`` does."""
    import numpy as np

    flat = [factors for terms in term_lists for _, factors in terms]
    # every term's coefficient, then the padding term -0.0 and the seed +0.0
    coefs = np.array([float(c) for terms in term_lists for c, _ in terms]
                     + [-0.0, 0.0])[:, None]
    pad, seed = len(flat), len(flat) + 1
    # the rows of a point's value table: 1.0, the powers, then the values
    keys = [f for factors in flat for f in factors]
    powers = [f for f in dict.fromkeys(keys) if f[1] != 1]
    first_value = 1 + len(powers)
    row = {f: 1 + k for k, f in enumerate(powers)}
    # factor_rows[j, t]: the table row of the j-th factor of term t, 1.0
    # after its last (and for every factor of the padding and the seed)
    width = max([1, *map(len, flat)])
    factor_rows = np.zeros((len(coefs), width), dtype=np.intp)
    factor_rows[np.arange(width) < np.array([*map(len, flat), 0, 0])[:, None]] = [
        first_value + pos if e == 1 else row[pos, e] for pos, e in keys]
    factor_rows = np.ascontiguousarray(factor_rows.T)
    # term_rows[j, k]: the j-th term of list k, the seed first and the
    # padding term after its last
    sizes = np.array([len(terms) for terms in term_lists], dtype=np.intp)
    length = int(sizes.max(initial=0))
    term_rows = np.full((len(term_lists), length + 1), pad, dtype=np.intp)
    term_rows[:, 0] = seed
    term_rows[:, 1:][np.arange(length) < sizes[:, None]] = np.arange(len(flat))
    term_rows = np.ascontiguousarray(term_rows.T)

    def ev(values):
        values = np.asarray(values, dtype=float)
        table = np.empty((first_value + values.shape[1], len(values)))
        table[0] = 1.0
        if powers:
            points = values.tolist()
            table[1:first_value] = [[x[pos] ** e for x in points] for pos, e in powers]
        table[first_value:] = values.T
        factors = np.take(table, factor_rows, axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = coefs * factors[0]
            for f in factors[1:]:
                terms *= f
            addends = np.take(terms, term_rows, axis=0)
            total = addends[0].copy()
            for a in addends[1:]:
                total += a
        return total.T.copy()

    return ev


def term_list_partials(terms, positions):
    """The compiled term lists of the partial derivatives of a compiled term
    list (``term_list``) in the values at each of positions: each keeps the
    terms that hold the value, in list order, with the coefficient times
    the exponent and the exponent lowered by one (the factor dropped at 1).
    Lowering one positive exponent maps distinct monomials to distinct ones,
    so no terms collide."""
    out = {pos: [] for pos in positions}
    for c, factors in terms:
        for k, (pos, e) in enumerate(factors):
            if pos in out:
                lowered = ((pos, e - 1),) if e > 1 else ()
                out[pos].append((c * e, factors[:k] + lowered + factors[k + 1:]))
    return [out[pos] for pos in positions]


def terms_source(terms, var_names, coef_names):
    """Python expression source of a compiled term list (``compiled_terms``)
    that evaluates in the float operations and order of ``term_evaluator``:
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
    work = dict(f.packed)
    while work:
        mono = max(work)
        coeff = work[mono]
        for i, (lm, lc) in enumerate(lead):
            if lm <= mono and not (mono - lm) & _GUARD:
                delta = mono - lm
                q = coeff if lc.is_one else coeff / lc
                quots[i][delta] = q
                dict_axpy(work, -q, delta, divisors[i].packed)
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
    term's leading parameter coefficient is positive. Returns {packed
    monomial: ParamPoly} in the Poly's term order.

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
    for c in poly.packed.values():
        q = exact_divide(c.num * common, c.den)
        if q is None:  # cannot happen: den divides common by construction
            raise ArithmeticError("denominator failed to clear")
        cleared.append(q.packed)
    cleared = dict(zip(poly.packed, _integer_primitive(*cleared)))
    lead = cleared[max(cleared)]
    if lead[max(lead)] < 0:
        cleared = {m: dict_neg(t) for m, t in cleared.items()}
    return {m: ParamPoly(poly.n, t, _checked=True) for m, t in cleared.items()}
