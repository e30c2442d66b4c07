"""Buchberger's algorithm, reduced Groebner bases, and elimination subsets.

The coefficient field is the rational functions in the model parameters
(ParamRat); parameters are never ring variables. A basis is a sequence of
Polys, and each function reads the ring, lex order included, off them.
Everything is deterministic: the same generators in any order produce the
same reduced basis.
"""

import os
from dataclasses import dataclass
from heapq import heappop, heappush

from .algebra import divides, mono_lcm, poly_divide
from .errors import RingMismatch, ResourceExhausted, UsageError, ZeroPolynomial


@dataclass(frozen=True)
class GBLimits:
    """Caps that turn runaway lex computations into a loud failure."""

    max_pairs: int = 20000
    max_basis: int = 400

    @classmethod
    def from_env(cls):
        """Caps from PARAMVARIETY_GB_MAX_PAIRS and PARAMVARIETY_GB_MAX_BASIS,
        each a positive integer; an unset variable keeps the default."""
        return cls(
            max_pairs=_env_cap("PARAMVARIETY_GB_MAX_PAIRS", cls.max_pairs),
            max_basis=_env_cap("PARAMVARIETY_GB_MAX_BASIS", cls.max_basis),
        )


def _env_cap(name, default):
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise UsageError(f"{name} must be a positive integer, got {text!r}")


def s_polynomial(f, g):
    """LCM combination of f and g whose leading terms cancel."""
    if f.ring != g.ring:
        raise RingMismatch("s-polynomial operands live in different rings")
    lm_f, lc_f = f.leading_term()
    lm_g, lc_g = g.leading_term()
    lcm = mono_lcm(lm_f, lm_g, f.ring.guard)
    left = f.mul_term(lc_f.inv(), lcm - lm_f)
    right = g.mul_term(lc_g.inv(), lcm - lm_g)
    return left - right


def buchberger(gens, limits=None, seed=()):
    """Groebner basis of the ideal generated by a list of polynomials and,
    when given, a seed, over the ring of the first generator.

    seed is a list of monic polynomials that already form a Groebner basis
    over the same ring: it opens the basis, every pair among its elements
    counts as processed, and only the pairs that involve a generator are
    queued. The prolongation loop of ioeq seeds each order with the last
    order's basis.

    Pending pairs wait in a heap of (lcm, i, j), so the pair popped next has
    the least lcm, ties broken by index (the normal selection strategy).
    Buchberger's coprimality and chain criteria drop pairs after they are
    popped; max_pairs counts popped pairs and max_basis counts the seed too.
    Raises ResourceExhausted with progress information if a configured cap
    is hit.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("empty generator list")
    ring = gens[0].ring
    limits = limits or GBLimits.from_env()
    basis = list(seed)
    n_seed = len(basis)
    if any(g.ring != ring for g in basis):
        raise RingMismatch("seed lives in a different ring")
    for g in gens:
        if g.ring != ring:
            raise RingMismatch("generator lives in a different ring")
        if g.is_zero:
            raise ZeroPolynomial("zero polynomial among the ideal generators")
        g = g.monic()
        if not any(g == h for h in basis):
            basis.append(g)

    lms = [g.leading_term()[0] for g in basis]
    pairs = []
    done = {(i, j) for j in range(n_seed) for i in range(j)}
    guard = ring.guard

    def add_pairs(j):
        for i in range(j):
            heappush(pairs, (mono_lcm(lms[i], lms[j], guard), i, j))

    for j in range(n_seed, len(basis)):
        add_pairs(j)

    processed = 0
    while pairs:
        processed += 1
        if processed > limits.max_pairs:
            raise ResourceExhausted(
                f"S-pair cap exceeded ({limits.max_pairs}); basis size "
                f"{len(basis)}, {len(pairs)} pairs pending")
        lcm, i, j = heappop(pairs)
        done.add((i, j))
        # coprimality criterion: disjoint leading monomials reduce to zero
        if lcm == lms[i] + lms[j]:
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done \
                    and divides(lms[k], lcm):
                skip = True
                break
        if skip:
            continue
        r = poly_divide(s_polynomial(basis[i], basis[j]), basis)[1]
        if r.is_zero:
            continue
        basis.append(r.monic())
        lms.append(r.leading_term()[0])
        if len(basis) > limits.max_basis:
            raise ResourceExhausted(
                f"basis size cap exceeded ({limits.max_basis}); "
                f"{len(pairs)} pairs pending")
        add_pairs(len(basis) - 1)
    return basis


def reduce_basis(gb):
    """The unique reduced Groebner basis of the ideal spanned by a Groebner
    basis, as a tuple over the basis' ring: monic, inter-reduced, sorted
    ascending by leading monomial."""
    if not gb:
        raise ValueError("empty basis")
    # minimalize: drop elements whose leading monomial another one divides
    polys = sorted((g.monic() for g in gb if not g.is_zero),
                   key=lambda g: g.leading_term()[0])
    minimal = []
    for g in polys:
        lm = g.leading_term()[0]
        if any(divides(h.leading_term()[0], lm) for h in minimal):
            continue
        minimal.append(g)
    # inter-reduce in one ascending pass: every tail term of minimal[i] lies
    # below its leading monomial, hence below every later (lex-larger)
    # leading monomial, none of which can divide it; so reducing against the
    # earlier elements alone gives the reduced basis (Cox, Little and
    # O'Shea, Ideals, Varieties, and Algorithms, 2.7). Leading monomials,
    # and with them the ascending order, do not change.
    for i, g in enumerate(minimal):
        minimal[i] = poly_divide(g, minimal[:i])[1].monic()
    return tuple(minimal)


def elimination_subset(gb, keep):
    """Elements of a nonempty Groebner basis, a sequence of Polys over one
    ring, supported on the keep variables only.

    keep must be a downward-closed suffix of the variable order of the
    basis' ring; by the elimination theorem the result is a Groebner basis
    of the elimination ideal."""
    gb[0].ring.suffix_start(keep)
    keep = set(keep)
    return [g for g in gb if g.uses_only(keep)]
