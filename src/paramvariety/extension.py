"""Certifying that the computed algebraic variety has no spurious points.

Walks the elimination-ideal chain of the prolonged system: each eliminated
state-jet variable z_j contributes the set P_j of denominator-cleared
leading coefficients of the basis elements whose leading variable is z_j
(cleared by ``algebra.clear_denominators``).
When every P_j contains a unit (a nonzero constant, or a product of
declared-nonzero factors), every partial solution extends, so the variety
equals the set of data-consistent parameters.

Only that sufficient condition is decided automatically; a genuinely empty
intersection in other situations needs radical membership and is reported
as Undetermined with the P_j listed verbatim for manual analysis.
"""

from dataclasses import dataclass

from .algebra import (
    DiffVar,
    ParamPoly,
    ParamRat,
    Poly,
    clear_denominators,
    exact_divide,
)
from .errors import MissingLeading

VERDICT_CONST = "EmptyByConstant"
VERDICT_ASSUMED = "EmptyByAssumption"
VERDICT_UNKNOWN = "Undetermined"

CERTIFIED = "Certified"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ExtensionEntry:
    index: int            # j, counting from the highest eliminated variable
    var: DiffVar          # z_j
    leading: tuple        # cleared leading coefficients (ParamPoly or Poly)
    verdict: str


@dataclass(frozen=True)
class ExtensionReport:
    entries: tuple
    overall: str
    param_names: tuple

    def render(self):
        lines = ["extension check (leading coefficients per eliminated variable)"]
        width = max(len(str(e.var)) for e in self.entries)
        for e in self.entries:
            rendered = ", ".join(p.render(self.param_names) for p in e.leading)
            lines.append(f"  P_{e.index}  z = {str(e.var):<{width}}  "
                         f"{{{rendered}}}  -> {e.verdict}")
        lines.append(f"overall: {self.overall}")
        return "\n".join(lines)


def _state_jet_vars(model, ring):
    """State-jet variables of the ring, highest first: z_1 ... z_{N(L+1)}."""
    state_names = set(model.states)
    return [v for v in ring.vars if v.base in state_names]


def extension_sets(model, gb):
    """(z_j, P_j) pairs for the Theorem-2 chain, j = 1 .. N*(L+1).

    gb must be the reduced basis of the prolonged system under its jet
    ordering (state jet highest, then output jet, then input jet). For each
    eliminated variable, P_j collects the cleared leading coefficients of
    the basis elements whose leading variable is z_j; an empty P_j is an
    error, since the sufficient condition cannot even be stated.
    """
    ring, by_leading = _by_leading(gb)
    sets = []
    for j, z in enumerate(_state_jet_vars(model, ring), start=1):
        entries = []
        for g in by_leading.get(z, ()):
            lead_terms = _z_powers(clear_denominators(g), ring, z,
                                   g.degree_in(z))[0]
            if len(lead_terms) == 1 and 0 in lead_terms:
                entry = lead_terms[0]
            else:
                entry = Poly(ring, {m: ParamRat(p) for m, p in lead_terms.items()},
                             n=g.n, _checked=True)
            if entry not in entries:
                entries.append(entry)
        if not entries:
            raise MissingLeading(
                f"no basis element has positive degree in {z}; the extension "
                "condition cannot be evaluated")
        sets.append((z, tuple(entries)))
    return sets


def _by_leading(gb):
    """The basis ring and the basis elements grouped by their leading
    (highest-ranked) variable."""
    ring = gb[0].ring
    by_leading = {}
    for g in gb:
        sup = g.support_vars()
        if sup:
            by_leading.setdefault(min(sup, key=ring.index.get), []).append(g)
    return ring, by_leading


def _z_powers(terms, ring, z, d):
    """The coefficients of z^d, ..., z^0 (d the degree in z) of a term dict
    over ring, as term dicts with z's exponent zeroed."""
    parts = [{} for _ in range(d + 1)]
    for key, c in terms.items():
        e, rest = ring.split(key, z)
        parts[d - e][rest] = c
    return parts


def is_unit_under(p, assumptions):
    """True when the parameter polynomial factors (by exact trial division)
    into declared-nonzero factors times a nonzero constant."""
    if p.is_zero:
        return False
    # one pass suffices: a factor that does not divide p divides no quotient
    # of p either, so no later division can make an earlier factor divide
    p = p.primitive()
    for a in assumptions:
        if a.is_constant:
            continue
        while (q := exact_divide(p, a)) is not None:
            p = q.primitive()
    return p.is_constant


def check_extension(sets, assumptions=(), param_names=()):
    """Apply the sufficient condition to the per-variable leading sets;
    param_names are the names the report renders the parameters with.

    Per variable: EmptyByConstant when some cleared coefficient is a nonzero
    constant, EmptyByAssumption when some coefficient is a unit under the
    declared nonzero assumptions, otherwise Undetermined. The overall
    verdict is Certified only when every variable is Empty*.
    """
    entries = []
    for j, (z, leading) in enumerate(sets, start=1):
        units = [p for p in leading
                 if isinstance(p, ParamPoly) and is_unit_under(p, assumptions)]
        verdict = (VERDICT_UNKNOWN if not units
                   else VERDICT_CONST if any(p.is_constant for p in units)
                   else VERDICT_ASSUMED)
        entries.append(ExtensionEntry(index=j, var=z, leading=leading,
                                      verdict=verdict))
    overall = CERTIFIED if all(e.verdict != VERDICT_UNKNOWN for e in entries) \
        else INCONCLUSIVE
    return ExtensionReport(entries=tuple(entries), overall=overall,
                           param_names=tuple(param_names))


def run_extension_check(model, gb):
    """extension_sets + check_extension with the model's own assumptions."""
    return check_extension(extension_sets(model, gb), model.assume_nonzero,
                           model.params)
