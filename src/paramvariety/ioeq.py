"""Derivation of the input-output equation basis.

Iterates the prolongation order over one growing Groebner basis: each
order's Buchberger run starts from the last order's basis and adds only the
generators that order brings. The first order whose basis has a state-free
element is reduced once, and the unique state-free element of the reduced
basis is then normalized into the canonical split

    sum_l c_l(a) * f_l(y-jet, u-jet)  =  rhs(y-jet, u-jet)

where every c_l genuinely depends on a parameter and rhs has parameter-free
coefficients. The theory bounds the required order by the state count, so
exceeding it signals a bug, not a property of the model.
"""

from dataclasses import dataclass, field, replace

from .algebra import MonomialOrder, Poly, render_monomial
from .errors import InternalError, MultipleIOEquations, NoParameterDependence
from .groebner import buchberger, elimination_subset, reduce_basis
from .model import prolong


@dataclass(frozen=True)
class IOEquationBasis:
    """The normalized input-output equation of a model.

    L is the minimal differentiation order. monos/coeffs list the
    parameter-dependent monomials (exponent tuples over `ring`) in ascending
    lex order with their rational-function coefficients; rhs collects the
    parameter-free part with its sign flipped, mirroring the
    'sum c_l f_l = rhs' layout. full is the monic state-free polynomial
    itself: full == sum(c_l * f_l) - rhs. gb is the reduced Groebner basis,
    a tuple, of the order-L prolongation it was eliminated from (None when
    the equation was normalized from a bare polynomial); the extension check
    runs on it.
    """

    L: int
    ring: MonomialOrder
    monos: tuple
    coeffs: tuple
    rhs: Poly
    full: Poly
    param_names: tuple
    output_name: str
    input_names: tuple = ()
    gb: tuple = field(default=None, compare=False, repr=False)

    @property
    def n_coeffs(self):
        return len(self.coeffs)

    def render(self):
        names = self.param_names
        var_names = [str(v) for v in self.ring.vars]
        n = len(var_names)
        parts = []
        for mono, coeff in zip(self.monos, self.coeffs):
            mono_s = render_monomial(self.ring.pack(mono), n, var_names) or "1"
            parts.append(f"({coeff.render(names)}) * {mono_s}")
        lhs = " + ".join(parts)
        rhs_s = self.rhs.render(names) if not self.rhs.is_zero else "0"
        return f"{lhs} = {rhs_s}"

    def summary(self):
        return (f"L = {self.L}\n"
                f"coefficients = {self.n_coeffs}\n"
                f"{self.render()}\n")


def derive_io_basis(model):
    """Run the prolongation loop and return the normalized IO equation.

    Loops i = 1, 2, ...: prolong, extend the order-(i - 1) Groebner basis,
    carried over to the order-i ring, by the generators order i adds, and
    look for a state-free element; stops at the first order L that has one.
    The elimination theorem holds for any Groebner basis, so only order L
    runs reduce_basis, and the reduced basis must hold exactly one
    state-free element. L is at most N (state count).
    """
    gb = []
    for i in range(1, model.nstates + 1):
        psys = prolong(model, i)
        gb = buchberger(psys.new, seed=[g.rering(psys.ring) for g in gb])
        keep = [v for v in psys.ring.vars
                if v.base == model.output or v.base in model.inputs]
        if elimination_subset(gb, keep):
            rgb = reduce_basis(gb)
            subset = elimination_subset(rgb, keep)
            if len(subset) > 1:
                raise MultipleIOEquations(
                    f"{len(subset)} state-free elements at order {i}; the "
                    "theory expects exactly one for a scalar output")
            # keep is a suffix of the lex order, so rering keeps its order
            h = subset[0].rering(MonomialOrder(keep))
            basis = normalize_io(h, param_names=model.params,
                                 input_names=model.inputs)
            return replace(basis, gb=rgb)
    raise InternalError(
        f"no state-free element up to order {model.nstates}; this contradicts "
        "the termination bound and signals a bug")


def normalize_io(p, param_names, input_names=()):
    """Normalize a state-free polynomial into an IOEquationBasis.

    p is scaled monic in its lex leading monomial; terms whose coefficients
    are parameter-free move to the right-hand side with flipped sign, the
    rest become (monos, coeffs) in ascending lex order. p's ring is the
    output jet, highest first, then the input jet: its first variable names
    the output and L is its top derivative order.
    """
    if p.is_zero:
        raise ValueError("cannot normalize the zero polynomial")
    p = p.monic()
    monos = []
    coeffs = []
    rhs_terms = {}
    for key in sorted(p.packed):
        c = p.packed[key]
        if c.is_param_free:
            rhs_terms[key] = -c
        else:
            monos.append(p.ring.unpack(key))
            coeffs.append(c)
    if not coeffs:
        raise NoParameterDependence(
            "every coefficient of the input-output equation is parameter-free; "
            "the data imposes no constraint on the parameters")
    rhs = Poly(p.ring, rhs_terms, n=p.n, _checked=True)
    return IOEquationBasis(
        L=max(v.order for v in p.ring.vars),
        ring=p.ring,
        monos=tuple(monos),
        coeffs=tuple(coeffs),
        rhs=rhs,
        full=p,
        param_names=tuple(param_names),
        output_name=p.ring.vars[0].base,
        input_names=tuple(input_names),
    )
