"""Assembling and solving the coefficient linear system, and turning the
solved values into the polynomial constraints that cut out the variety of
data-consistent parameters.

Exact data (Fraction jets, as symbolic push-forward pseudo-data carries)
give an exact linear system, solved on integers by one fraction-free
(Bareiss) elimination of all its rows; float data (measured, closed-form or
finite-difference jets) are solved in floating point behind a
condition-number gate. Data values entering the constraint polynomials are
rationalized exactly (0.8512 -> 8512/10000).

The sampler compiles its equations, their Jacobian and the assumptions
once per call, each into one ``algebra.batch_evaluator``, and runs damped
Gauss-Newton on the whole grid in lockstep rounds: one batched evaluation of
the residuals, one of the Jacobian and one stacked least-squares call per
round, then a line-search test per point, so every point does the float
operations it would do alone.

numpy is imported inside the solve and sampling functions on their first
call, not with this module, so importing the package does not load it.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .algebra import (
    batch_evaluator,
    exponents,
    support,
    term_evaluator,
    term_list,
    term_list_partials,
)
from .errors import IllConditioned, InsufficientData, JetOrderMismatch, UsageError

COND_THRESHOLD = 1e8
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 60
_NEWTON_MIN_DAMP = 0.5 ** 29    # the damping of a step's 30th and last trial
# grid points that run in lockstep at a time: the batched evaluations hold
# terms x points arrays, so a block bounds their memory for any grid size
_GRID_BLOCK = 1024


@dataclass(frozen=True)
class SolveResult:
    v: np.ndarray
    residual: float
    cond: float


@dataclass
class VarietyConstraints:
    """The set {a | c_l(a) = v_l} as denominator-cleared polynomial
    equations, with the nonzero assumptions the sampler checks."""

    equations: list           # ParamPoly, = 0 each
    param_names: tuple
    assumptions: tuple = ()

    def constraint_params(self):
        """Parameters that actually appear in the constraint equations, in
        declaration order."""
        used = support(key for eq in self.equations for key in eq.packed)
        return tuple(self.param_names[i]
                     for i, _ in exponents(used, len(self.param_names)))


def build_linear_system(basis, data):
    """Evaluate the IO-equation monomials on every data row.

    Returns (matrix, rhs) with matrix[i][l] = f_l at row i and
    rhs[i] = the parameter-free side at row i. When every jet value is an
    int or Fraction the arrays hold exact values (dtype object); otherwise
    they are float arrays. Each column compiles its monomial with
    coefficient 1, and the rhs its exact coefficients, as floats for float
    data; every sum is seeded with 0, which leaves a float sum as a 0.0 seed
    does and an exact one exact.
    """
    import numpy as np

    if data.order < basis.L:
        raise JetOrderMismatch(
            f"data carries jets to order {data.order}, the input-output "
            f"equation needs order {basis.L}")
    ring = basis.ring
    out_name = basis.output_name
    input_names = list(basis.input_names)
    rows = [[data.jet_value(i, var, out_name, input_names) for var in ring.vars]
            for i in range(len(data.times))]
    exact = all(_is_rational(x) for vals in rows for x in vals)
    cols = [term_evaluator(term_list({ring.pack(m): 1}, ring.vars, ring.index), 0)
            for m in basis.monos]
    rhs_terms = {key: c.evaluate(()) for key, c in basis.rhs.packed.items()}
    if not exact:
        rhs_terms = {key: float(c) for key, c in rhs_terms.items()}
    rhs = term_evaluator(term_list(rhs_terms, ring.vars, ring.index), 0)
    matrix = [[col(vals) for col in cols] for vals in rows]
    dtype = object if exact else float
    return (np.array(matrix, dtype=dtype).reshape(len(rows), basis.n_coeffs),
            np.array([rhs(vals) for vals in rows], dtype=dtype))


def _is_rational(x):
    return isinstance(x, (int, Fraction))


def solve_coefficients(matrix, rhs):
    """Solve for the coefficient values: exact solve when square, least
    squares when overdetermined. Reports the residual norm and the float
    condition number of the matrix.

    Exact systems (every entry an int or Fraction, as build_linear_system
    gives for push-forward pseudo-data) are solved exactly by one
    fraction-free elimination on integers (``_solve_exact``): v is the exact
    solution y/det, or the exact least-squares solution when the rows are
    inconsistent, rounded once per entry. They are refused only when
    exactly rank deficient, whatever their condition.
    Float systems (measured data) are solved in floating point and refused
    when rank deficient or when the condition exceeds COND_THRESHOLD.
    """
    import numpy as np

    matrix = np.asarray(matrix)
    rhs = np.asarray(rhs)
    k, l = matrix.shape
    if k < l:
        raise InsufficientData(
            f"data must be measured for at least {l} time points "
            f"(the number of parameter-dependent monomials); got {k}")
    fmatrix = matrix.astype(float)
    frhs = rhs.astype(float)
    cond = float(np.linalg.cond(fmatrix))
    if all(map(_is_rational, matrix.flat)) and all(map(_is_rational, rhs.flat)):
        return _solve_exact(matrix.tolist(), rhs.tolist(), cond)
    if not math.isfinite(cond) or cond > COND_THRESHOLD:
        raise IllConditioned(
            f"coefficient system condition estimate {cond:.3g} exceeds "
            f"{COND_THRESHOLD:.3g}; resample the measurement time points")
    if k == l:
        v = np.linalg.solve(fmatrix, frhs)
    else:
        v, *_ = np.linalg.lstsq(fmatrix, frhs, rcond=None)
    residual = float(np.linalg.norm(fmatrix @ v - frhs))
    return SolveResult(v=v, residual=residual, cond=cond)


def _solve_exact(a, b, cond):
    """Exact solve of the rational system a v = b, k >= n rows: one
    fraction-free elimination of all k augmented rows, each cleared to
    integers on its own.

    A consistent system of full column rank (every square one, and every
    one built from exact jets) has one exact solution, its least-squares
    solution too: v = y/det from the pivot rows, residual 0. Only an
    inconsistent system is solved again, on its normal equations formed in
    integers from one scale of the whole system (a scale per row would
    weight the rows and move the least-squares solution); its residual is
    the float of an exact rational, square-rooted."""
    import numpy as np

    n = len(a[0])
    solved = _bareiss_solve([_integers([*row, bi]) for row, bi in zip(a, b)], n)
    if solved is None:
        raise IllConditioned(
            "coefficient system is exactly rank deficient; resample the "
            "measurement time points")
    y, det, consistent = solved
    residual = 0.0
    if not consistent:
        scale = math.lcm(*(x.denominator for row in a for x in row),
                         *(x.denominator for x in b))
        ia = [_integers(row, scale) for row in a]
        ib = _integers(b, scale)
        cols = list(zip(*ia))
        normal = [[_dot(ci, cj) for cj in cols] + [_dot(ci, ib)] for ci in cols]
        y, det, _ = _bareiss_solve(normal, n)
        # a v - b = (ia y - det ib) / (scale det), row by row
        num = sum((_dot(row, y) - det * bi) ** 2 for row, bi in zip(ia, ib))
        residual = math.sqrt(num / (scale * det) ** 2)
    return SolveResult(v=np.array([float(Fraction(yi, det)) for yi in y]),
                       residual=residual, cond=cond)


def _integers(values, scale=None):
    """Ints and Fractions times scale, by default the lcm of their
    denominators, as ints."""
    if scale is None:
        scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values]


def _dot(xs, ys):
    return sum(x * y for x, y in zip(xs, ys))


def _bareiss_solve(m, n):
    """Fraction-free Gaussian elimination (Bareiss 1968) with row pivoting,
    in place, of k >= n integer augmented rows [A | b] of n + 1 entries.

    After step s each entry below the pivots is the minor of [A | b] on the
    s + 1 pivot rows and its own row, and the first s + 1 columns and its
    own, so every division by the last pivot is exact, in every row. None
    when A is rank deficient (a step finds no pivot); else (y, det,
    consistent): det > 0 is the absolute determinant of the pivot rows' A
    block, and x = y/det solves them, y integer by Cramer's rule and
    back-substituted in integers. consistent tells whether every other row
    holds at x: its augmented entry is the minor that vanishes exactly
    then."""
    k = len(m)
    prev = 1
    for s in range(n):
        piv = next((r for r in range(s, k) if m[r][s]), None)
        if piv is None:
            return None
        m[s], m[piv] = m[piv], m[s]
        ps = m[s]
        p = ps[s]
        tail = ps[s + 1:]
        for mi in m[s + 1:]:
            f = mi[s]
            mi[s + 1:] = [(x * p - f * t) // prev for x, t in zip(mi[s + 1:], tail)]
        prev = p
    det = prev
    y = [0] * n
    for i in reversed(range(n)):
        row = m[i]
        y[i] = (det * row[n] - _dot(row[i + 1:n], y[i + 1:])) // row[i]
    if det < 0:
        det, y = -det, [-yi for yi in y]
    return y, det, not any(row[n] for row in m[n:])


def rationalize(x):
    """Exact Fraction for a data value. Floats go through repr, so the
    shortest decimal that round-trips is embedded (0.8512 -> 8512/10000)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(Decimal(repr(float(x))))
    return Fraction(Decimal(str(x)))


def variety_constraints(basis, v, assumptions=()):
    """Denominator-cleared polynomial equations c_l(a) = v_l.

    Each equation is q*num_l - p*den_l with v_l = p/q rationalized exactly,
    normalized to integer content 1 and positive leading coefficient. Where
    den_l(a) != 0 it vanishes exactly when c_l(a) = v_l; clearing the
    denominator also makes it vanish at every common zero of num_l and
    den_l, so the equations can cut out components on which c_l is not
    defined. Neither the denominators nor the assumptions are imposed here.
    """
    if len(v) != basis.n_coeffs:
        raise ValueError(f"expected {basis.n_coeffs} coefficient values, got {len(v)}")
    equations = []
    for coeff, value in zip(basis.coeffs, v):
        val = rationalize(value)
        eq = coeff.num * val.denominator - coeff.den * val.numerator
        if not eq.is_zero:
            eq = eq.primitive()
        equations.append(eq)
    return VarietyConstraints(equations=equations, param_names=basis.param_names,
                              assumptions=tuple(assumptions))


@dataclass
class SampleResult:
    points: list          # dicts param name -> float
    skipped: int


def sample_variety(constraints, free_params, ranges, n):
    """Sample parameter points on the constraint variety.

    Grids the free parameters over their ranges and solves the remaining
    constraint parameters by damped (Gauss-)Newton from the midpoint of each
    solved parameter's range. The grid moves in lockstep rounds
    (``_gauss_newton``, on blocks of _GRID_BLOCK points): one batched
    evaluation of the residuals of every point in a line search, one of the
    Jacobian of every point that needs a new step and one stacked
    least-squares call for all those steps, then each point's own
    accept-or-halve test, so every point takes the steps it would take
    alone. Points that leave their range, violate a nonzero assumption, fail
    to converge or overflow (``_overflow_as_nan``) are skipped and counted.
    n, the number of grid points asked for, must be an integer of at least
    1, every range (lo, hi) must have finite lo <= hi and no free parameter
    may be given twice; anything else raises UsageError.
    """
    import numpy as np

    if not isinstance(n, numbers.Integral) or n < 1:
        raise UsageError(f"sample count must be an integer of at least 1, "
                         f"got {n!r}")
    cparams = constraints.constraint_params()
    free_params = tuple(free_params)
    for p in free_params:
        if p not in cparams:
            raise UsageError(f"free parameter {p!r} does not appear in the "
                             "constraint equations")
        if free_params.count(p) > 1:
            raise UsageError(f"free parameter {p!r} is given more than once")
    solved = tuple(p for p in cparams if p not in free_params)
    nontrivial = [eq for eq in constraints.equations if not eq.is_zero]
    for p in cparams:
        if p not in ranges:
            raise UsageError(f"no range given for constraint parameter {p!r}")
        lo, hi = ranges[p]
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise UsageError(f"range of {p!r} is not finite: {lo}:{hi}")
        if lo > hi:
            raise UsageError(f"range of {p!r} is reversed: {lo} > {hi}")

    names = constraints.param_names
    name_idx = {p: i for i, p in enumerate(names)}
    solved_idx = [name_idx[p] for p in solved]
    # row-normalize: rationalized data values can make the cleared integer
    # coefficients huge, and Newton convergence tests must stay in float range
    row_scale = np.array([max(abs(float(c)) for c in eq.packed.values())
                          for eq in nontrivial])
    # compiled once per call; a row is divided by its scale after evaluation
    eq_terms = [term_list(eq.packed, range(eq.n), range(eq.n)) for eq in nontrivial]
    eqs = _overflow_as_nan(eq_terms)
    partials = _overflow_as_nan([d for terms in eq_terms
                                 for d in term_list_partials(terms, solved_idx)])
    assumptions = _overflow_as_nan([term_list(a.packed, range(a.n), range(a.n))
                                    for a in constraints.assumptions])
    jac_scale = np.repeat(row_scale, len(solved))
    jac_shape = (len(nontrivial), len(solved))

    if free_params:
        per_axis = max(1, round(n ** (1.0 / len(free_params))))
        axes = []
        for p in free_params:
            lo, hi = ranges[p]
            width = hi - lo
            # keep off the exact endpoints, where constraints degenerate
            axes.append(np.linspace(lo + 0.5 * width / per_axis,
                                    hi - 0.5 * width / per_axis, per_axis))
        grids = np.meshgrid(*axes, indexing="ij")
        grid_points = np.column_stack([g.ravel() for g in grids])
    else:
        grid_points = np.zeros((1, 0))

    # parameters outside the constraints play no role; pin them at 1
    full = np.ones((len(grid_points), len(names)))
    full[:, [name_idx[p] for p in free_params]] = grid_points
    full[:, solved_idx] = [0.5 * (ranges[p][0] + ranges[p][1]) for p in solved]
    points = []
    for start in range(0, len(full), _GRID_BLOCK):
        block = full[start:start + _GRID_BLOCK]
        converged = _gauss_newton(
            block, solved_idx, lambda x: eqs(x) / row_scale,
            lambda x: (partials(x) / jac_scale).reshape(len(x), *jac_shape))
        kept = block[np.array(converged, dtype=bool)]
        for row, values in zip(kept.tolist(), assumptions(kept).tolist()):
            in_range = all(ranges[p][0] - 1e-9 <= row[name_idx[p]] <= ranges[p][1] + 1e-9
                           for p in cparams)
            if in_range and all(abs(a) > 1e-12 for a in values):
                points.append({p: row[name_idx[p]] for p in cparams})
    return SampleResult(points=points, skipped=len(full) - len(points))


def _overflow_as_nan(term_lists):
    """``batch_evaluator(term_lists)``, with a row whose evaluation overflows
    (a power past the float range raises OverflowError) read as nan: a block
    that raises is evaluated again row by row, so the other rows keep their
    bits, and a block that does not raise costs nothing more."""
    import numpy as np

    evaluate, width = batch_evaluator(term_lists), len(term_lists)

    def ev(values):
        try:
            return evaluate(values)
        except OverflowError:
            out = np.full((len(values), width), np.nan)
            for k, x in enumerate(values):
                with contextlib.suppress(OverflowError):
                    out[k] = evaluate(x[None])[0]
            return out

    return ev


def _gauss_newton(full, solved_idx, residuals, jacobian):
    """Damped Gauss-Newton on the solved columns of every row of full, in
    place, all rows in lockstep; returns whether each row converged.

    residuals and jacobian map an array of rows to the residual vector and
    the Jacobian (on the solved columns) of each. Every round evaluates the
    Jacobian of each row that starts a step and the residuals of each row's
    trial point in one call each, and solves for the steps of all rows that
    start one in one stacked least-squares call (``_lstsq_steps``, each step
    the bits of np.linalg.lstsq; a row without a step stops); each row then
    takes its own test, so it runs the steps that it would run alone: up to
    _NEWTON_MAX_ITER accepted steps, each halved down to _NEWTON_MIN_DAMP
    until the residual norm drops. The norm is sqrt(r . r) on the row's
    contiguous residual vector, the computation of np.linalg.norm on a 1-D
    float array. Overflow warnings are off from the first evaluation on."""
    import numpy as np

    done = [False] * len(full)
    taken = [0] * len(full)
    damp = [1.0] * len(full)
    step = np.empty((len(full), len(solved_idx)))
    starting, searching = range(len(full)), []
    with np.errstate(over="ignore", invalid="ignore"):
        res = residuals(full)
        norm = [math.sqrt(r.dot(r)) for r in res]
        if not solved_idx:
            return [x <= _NEWTON_TOL for x in norm]
        while True:
            fresh = []
            for i in starting:
                if norm[i] <= _NEWTON_TOL:
                    done[i] = True
                elif taken[i] < _NEWTON_MAX_ITER:
                    fresh.append(i)
            if fresh:
                ok, steps = _lstsq_steps(jacobian(full[fresh]), res[fresh])
                stepped = [i for i, good in zip(fresh, ok.tolist()) if good]
                step[stepped] = steps
                for i in stepped:
                    damp[i] = 1.0
                searching += stepped
            if not searching:
                return done
            trial = full[searching]
            damps = np.array([damp[i] for i in searching])
            trial[:, solved_idx] += damps[:, None] * step[searching]
            t_res = residuals(trial)
            accepted, starting, still = [], [], []
            for k, (i, r) in enumerate(zip(searching, t_res)):
                t_norm = math.sqrt(r.dot(r))
                if t_norm < norm[i] or t_norm <= _NEWTON_TOL:
                    norm[i] = t_norm
                    taken[i] += 1
                    accepted.append(k)
                    starting.append(i)
                elif damp[i] > _NEWTON_MIN_DAMP:
                    damp[i] *= 0.5
                    still.append(i)
            full[starting] = trial[accepted]
            res[starting] = t_res[accepted]
            searching = still


def _lstsq_steps(jac, res):
    """The Gauss-Newton step of each point of a stack, x[k] minimizing
    |jac[k] x + res[k]|, from one call of the least-squares gufunc that
    np.linalg.lstsq(jac[k], -res[k], rcond=None) calls on one matrix (LAPACK
    gelsd, rcond = eps * max(m, n)), so each step has its bits.

    Returns (ok, x): x holds the steps of the points with ok[k], in stack
    order. ok[k] is False where np.linalg.lstsq fails: on a Jacobian with a
    non-finite entry, kept from LAPACK (gelsd prints DLASCL errors on one,
    and on some 3x3 ones it never returns), and where the SVD does not
    converge (rank -1). A non-finite residual still gets its step, as it
    does from np.linalg.lstsq."""
    import numpy as np
    from numpy.linalg import _umath_linalg

    ok = np.isfinite(jac).all(axis=(1, 2))
    rcond = np.finfo(float).eps * max(jac.shape[1:])
    with np.errstate(all="ignore"):
        x, _, rank, _ = _umath_linalg.lstsq(jac[ok], -res[ok][:, :, None], rcond,
                                            signature="ddd->ddid")
    solved = rank >= 0
    ok[ok] = solved
    return ok, x[solved, :, 0]
