import gc
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from paramvariety.algebra import ParamPoly
from paramvariety.datalab import DataSet, exact_viral_solution, make_dataset
from paramvariety.errors import (
    IllConditioned,
    InsufficientData,
    JetOrderMismatch,
    UsageError,
)
from paramvariety import variety
from paramvariety.ioeq import derive_io_basis
from paramvariety.variety import (
    VarietyConstraints,
    build_linear_system,
    rationalize,
    sample_variety,
    solve_coefficients,
    variety_constraints,
)

from .helpers import pp, reference_solve_exact

T1, T2 = 1.8594, 6.1602

SUBJECTS = {
    "1-H": dict(a4=0.0, a5=0.75, a7=6.9, t0=10 / 24, x3=4.1e6),
    "2-D": dict(a4=0.16, a5=0.95, a7=5.6, t0=7 / 24, x3=1.0e6),
    "3-D": dict(a4=0.4, a5=0.99, a7=6.0, t0=5 / 24, x3=0.4e6),
}


def _subject_dataset(s, times=(T1, T2)):
    rows = [exact_viral_solution(s["a4"], s["a5"], s["a7"], s["t0"], s["x3"], t)
            for t in times]
    return DataSet(times=list(times), y_jets=[tuple(r) for r in rows])


# ---------------------------------------------------------------------------
# linear system assembly
# ---------------------------------------------------------------------------

def test_build_system_viral_layout(viral_io):
    s = SUBJECTS["2-D"]
    data = _subject_dataset(s)
    matrix, rhs = build_linear_system(viral_io, data)
    assert matrix.shape == (2, 2)
    for i in (0, 1):
        y, y1, y2 = data.y_jets[i]
        assert matrix[i, 0] == y
        assert matrix[i, 1] == y1
        assert rhs[i] == -y2


def test_build_system_zero_data_is_singular(viral_io):
    data = DataSet(times=[1.0, 2.0], y_jets=[(0.0, 0.0, 0.0), (0.0, 0.0, 0.0)])
    matrix, rhs = build_linear_system(viral_io, data)
    assert not matrix.any()
    with pytest.raises(IllConditioned):
        solve_coefficients(matrix, rhs)


def test_build_system_jet_mismatch(viral_io):
    data = DataSet(times=[1.0, 2.0], y_jets=[(1.0, 2.0), (3.0, 4.0)])
    with pytest.raises(JetOrderMismatch):
        build_linear_system(viral_io, data)


def test_overdetermined_consistent(viral_io):
    # a third exact-trajectory row leaves the least-squares solution equal
    # to the square solve
    s = SUBJECTS["2-D"]
    square = solve_coefficients(*build_linear_system(viral_io, _subject_dataset(s)))
    over = solve_coefficients(
        *build_linear_system(viral_io, _subject_dataset(s, (T1, 3.3, T2))))
    assert over.v == pytest.approx(square.v, rel=1e-9)
    assert over.residual < 1e-6


def test_solve_identity():
    res = solve_coefficients(np.eye(2), np.array([1.0, 0.0]))
    assert res.v == pytest.approx([1.0, 0.0])
    assert res.cond == pytest.approx(1.0)
    assert res.residual == pytest.approx(0.0)


def _exact(rows):
    return np.array([[Fraction(x) for x in r] for r in rows], dtype=object)


def test_solve_exact_system():
    # Fraction entries take the fraction-free path: exact least squares when
    # overdetermined, no condition gate, refusal only for exact rank deficiency
    res = solve_coefficients(_exact([[0, 1], [1, 1], [2, 1]]),
                             _exact([[1, 2, 4]])[0])
    assert list(res.v) == [1.5, 5 / 6]
    res = solve_coefficients(_exact([[0, 1], [1, 0]]), _exact([[3, 4]])[0])
    assert list(res.v) == [4.0, 3.0]
    eps = Fraction(1, 10**12)
    res = solve_coefficients(_exact([[1, 1], [1, 1 + eps]]),
                             _exact([[2, 2 + eps]])[0])
    assert list(res.v) == [1.0, 1.0]
    assert res.cond is None and res.residual == 0.0
    with pytest.raises(IllConditioned):
        solve_coefficients(_exact([[1, 2], [2, 4]]), _exact([[1, 2]])[0])


def _random_rational(rng):
    """An int, a small fraction or the exact value of a float: the mixed
    denominators of cleared data."""
    pick = rng.random()
    if pick < 0.2:
        return rng.randint(-9, 9)
    if pick < 0.6:
        return Fraction(rng.randint(-99, 99), rng.randint(1, 40))
    return Fraction(rng.uniform(-1e3, 1e3))


def _random_system(rng, kind):
    n = rng.randint(1, 6)
    k = n if kind == "square" else n + rng.randint(1, 3)
    if kind == "rank-deficient":
        n = max(n, 2)
        k = max(k, n)
    a = [[_random_rational(rng) for _ in range(n)] for _ in range(k)]
    if kind == "rank-deficient":
        # one column a rational combination of the others (or zero)
        j = rng.randrange(n)
        weights = [_random_rational(rng) if i != j and rng.random() < 0.7 else 0
                   for i in range(n)]
        for row in a:
            row[j] = sum(w * x for w, x in zip(weights, row))
    if kind == "consistent":
        x = [_random_rational(rng) for _ in range(n)]
        b = [sum(ai * xi for ai, xi in zip(row, x)) for row in a]
    else:
        b = [_random_rational(rng) for _ in range(k)]
    return a, b


@pytest.mark.parametrize("kind", ["square", "consistent", "inconsistent",
                                  "rank-deficient"])
def test_exact_solve_matches_fraction_reference(kind):
    # 50 seeded systems per kind: the integer elimination gives the bits of
    # the Fraction normal-equation solve, or raises what it raises
    rng = random.Random(f"exact-solve-{kind}")
    for _ in range(50):
        a, b = _random_system(rng, kind)
        try:
            want = reference_solve_exact(a, b)
        except IllConditioned:
            with pytest.raises(IllConditioned):
                solve_coefficients(np.array(a, dtype=object),
                                   np.array(b, dtype=object))
            assert kind in ("rank-deficient", "square")
            continue
        assert kind != "rank-deficient"
        got = solve_coefficients(np.array(a, dtype=object), np.array(b, dtype=object))
        assert [x.hex() for x in got.v] == [x.hex() for x in want[0]]
        assert got.residual.hex() == want[1].hex()
        assert (got.residual > 0) == (kind == "inconsistent")


def test_solve_needs_enough_rows(viral_io):
    with pytest.raises(InsufficientData):
        solve_coefficients(np.ones((1, 2)), np.ones(1))


def test_subject_coefficients(viral_io):
    for name, s in SUBJECTS.items():
        res = solve_coefficients(*build_linear_system(viral_io, _subject_dataset(s)))
        v1_ref = s["a4"] * s["a5"] * s["a7"]
        v2_ref = s["a4"] + s["a7"]
        assert abs(res.v[0] - v1_ref) <= 1e-9
        assert abs(res.v[1] - v2_ref) <= 1e-9


def test_solution_invariant_across_time_pairs(viral_io, rng):
    # any two regular pairs from the same trajectory give the same v
    s = SUBJECTS["3-D"]
    ref = None
    for _ in range(6):
        times = sorted(s["t0"] + (10 - s["t0"]) * rng.random() for _ in range(2))
        if times[1] - times[0] < 0.3:
            continue
        try:
            res = solve_coefficients(
                *build_linear_system(viral_io, _subject_dataset(s, times)))
        except IllConditioned:
            continue
        if ref is None:
            ref = res.v
        else:
            assert res.v == pytest.approx(ref, rel=1e-6, abs=1e-8)
    assert ref is not None


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------

def test_rationalize_decimal():
    assert rationalize(0.8512) == Fraction(8512, 10000)
    assert rationalize("5.76") == Fraction(576, 100)
    assert rationalize(Fraction(3, 7)) == Fraction(3, 7)
    assert rationalize(3) == 3


def test_viral_constraints_2d(viral_io, viral_model):
    cons = variety_constraints(viral_io, [0.8512, 5.76])
    n = 4
    assert cons.equations[0] == pp(n, {(1, 1, 0, 1): 625, (0, 0, 0, 0): -532})
    assert cons.equations[1] == pp(n, {(1, 0, 0, 0): 25, (0, 0, 0, 1): 25,
                                       (0, 0, 0, 0): -144})
    assert [f"{eq.render(cons.param_names)} = 0" for eq in cons.equations] == [
        "625*a4*a5*a7 - 532 = 0",
        "25*a4 + 25*a7 - 144 = 0",
    ]
    assert cons.constraint_params() == ("a4", "a5", "a7")


def test_viral_constraints_1h(viral_io):
    # v = (0, 6.9): a4 a5 a7 = 0 and a4 + a7 = 6.9
    cons = variety_constraints(viral_io, [0, 6.9])
    n = 4
    assert cons.equations[0] == pp(n, {(1, 1, 0, 1): 1})
    assert cons.equations[1] == pp(n, {(1, 0, 0, 0): 10, (0, 0, 0, 1): 10,
                                       (0, 0, 0, 0): -69})


def test_generating_point_satisfies_constraints(viral_io):
    s = SUBJECTS["2-D"]
    v = [Fraction(16, 100) * Fraction(95, 100) * Fraction(56, 10),
         Fraction(16, 100) + Fraction(56, 10)]
    cons = variety_constraints(viral_io, v)
    point = [Fraction(16, 100), Fraction(95, 100), Fraction(7, 5), Fraction(56, 10)]
    for eq in cons.equations:
        assert eq.evaluate(point) == 0


def test_wrong_value_count(viral_io):
    with pytest.raises(ValueError):
        variety_constraints(viral_io, [1.0])


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_viral_relations(viral_io):
    cons = variety_constraints(viral_io, [0.8512, 5.76])
    res = sample_variety(cons, ["a4"],
                         {"a4": (0.0, 5.76), "a5": (0.0, 1.0), "a7": (0.0, 8.0)},
                         24)
    assert res.points
    for pt in res.points:
        assert pt["a7"] == pytest.approx(5.76 - pt["a4"], abs=1e-8)
        assert pt["a5"] == pytest.approx(0.8512 / (pt["a4"] * pt["a7"]), rel=1e-8)
        assert 0.0 <= pt["a5"] <= 1.0
        # range deduction: 0 < a4, a7 < v2
        assert 0.0 < pt["a4"] < 5.76
        assert 0.0 < pt["a7"] < 5.76


def test_sample_square_system_single_point(decay_io):
    cons = variety_constraints(decay_io, [-0.7])
    res = sample_variety(cons, [], {"a1": (0.0, 2.0)}, 1)
    assert len(res.points) == 1
    assert res.points[0]["a1"] == pytest.approx(0.7, abs=1e-9)


def test_sample_range_excludes_solutions(decay_io):
    cons = variety_constraints(decay_io, [-0.7])
    res = sample_variety(cons, [], {"a1": (1.0, 2.0)}, 1)
    assert res.points == []
    assert res.skipped == 1


def test_sample_assumption_filter(viral_io, viral_model):
    # force a5 = 1 onto the variety and watch the a5 != 1 assumption drop it
    cons = variety_constraints(viral_io, [0.8512, 5.76],
                               assumptions=viral_model.assume_nonzero)
    res = sample_variety(cons, ["a4"],
                         {"a4": (0.0, 5.76), "a5": (0.0, 1.0), "a7": (0.0, 8.0)},
                         24)
    for pt in res.points:
        assert abs(pt["a5"] - 1.0) > 1e-9


def test_sample_partials_belong_to_their_call():
    # each call's Newton Jacobian comes from its own equations, also when an
    # earlier system has been freed and a new one may reuse its memory
    def single(slope, offset):
        eq = pp(1, {(1,): slope, (0,): offset})
        return VarietyConstraints(equations=[eq], param_names=("a1",))

    for _ in range(20):
        first = single(2, -1)
        out = sample_variety(first, [], {"a1": (0.0, 2.0)}, 1)
        assert out.points[0]["a1"] == pytest.approx(0.5, abs=1e-9)
        del first, out
        gc.collect()
        out = sample_variety(single(-4, 3), [], {"a1": (0.0, 2.0)}, 1)
        assert len(out.points) == 1
        assert out.points[0]["a1"] == pytest.approx(0.75, abs=1e-9)


def _partial(terms, i):
    """The partial derivative in the i-th parameter of {exponent tuple:
    coefficient}."""
    return {k[:i] + (k[i] - 1,) + k[i + 1:]: v * k[i] for k, v in terms.items() if k[i]}


def _ref_sample_variety(constraints, free_params, ranges, n):
    """The former sampler: every Newton step evaluates the equations and the
    Jacobian entries through ParamPoly.evaluate and takes np.linalg.norm."""
    cparams = constraints.constraint_params()
    solved = tuple(p for p in cparams if p not in free_params)
    nontrivial = [eq for eq in constraints.equations if not eq.is_zero]
    names = constraints.param_names
    name_idx = {p: i for i, p in enumerate(names)}
    row_scale = np.array([max(abs(float(c)) for c in eq.terms.values())
                          for eq in nontrivial]) if nontrivial else np.ones(0)

    def eval_eqs(full):
        return np.array([eq.evaluate(full) for eq in nontrivial]) / row_scale

    partials = [[ParamPoly(eq.n, _partial(eq.terms, name_idx[p])) for p in solved]
                for eq in nontrivial]

    def eval_jac(full):
        jac = np.zeros((len(nontrivial), len(solved)))
        for r, row in enumerate(partials):
            for cidx, d in enumerate(row):
                jac[r, cidx] = d.evaluate(full)
        return jac / row_scale[:, None]

    def newton(full):
        if not solved:
            return float(np.linalg.norm(eval_eqs(full))) <= 1e-10
        res = eval_eqs(full)
        norm = float(np.linalg.norm(res))
        for _ in range(60):
            if norm <= 1e-10:
                return True
            step, *_ = np.linalg.lstsq(eval_jac(full), -res, rcond=None)
            damp = 1.0
            for _ in range(30):
                trial = list(full)
                for p, s in zip(solved, step):
                    trial[name_idx[p]] = full[name_idx[p]] + damp * s
                t_res = eval_eqs(trial)
                t_norm = float(np.linalg.norm(t_res))
                if t_norm < norm or t_norm <= 1e-10:
                    for p in solved:
                        full[name_idx[p]] = trial[name_idx[p]]
                    res, norm = t_res, t_norm
                    break
                damp *= 0.5
            else:
                return False
        return norm <= 1e-10

    if free_params:
        per_axis = max(1, round(n ** (1.0 / len(free_params))))
        axes = []
        for p in free_params:
            lo, hi = ranges[p]
            width = hi - lo
            axes.append(np.linspace(lo + 0.5 * width / per_axis,
                                    hi - 0.5 * width / per_axis, per_axis))
        grids = np.meshgrid(*axes, indexing="ij")
        grid_points = np.column_stack([g.ravel() for g in grids])
    else:
        grid_points = np.zeros((1, 0))
    points, skipped = [], 0
    for gp in grid_points:
        full = [1.0] * len(names)
        for p, val in zip(free_params, gp):
            full[name_idx[p]] = float(val)
        for p in solved:
            full[name_idx[p]] = 0.5 * (ranges[p][0] + ranges[p][1])
        if not newton(full) or not all(
                ranges[p][0] - 1e-9 <= full[name_idx[p]] <= ranges[p][1] + 1e-9
                for p in cparams) or not all(
                abs(a.evaluate(full)) > 1e-12 for a in constraints.assumptions):
            skipped += 1
            continue
        points.append({p: float(full[name_idx[p]]) for p in cparams})
    return points, skipped


def _true_coefficients(basis, params):
    return [float(c.evaluate([Fraction(params[p]) for p in basis.param_names]))
            for c in basis.coeffs]


def _spread(params, lo=0.3, hi=3.0):
    return {p: tuple(sorted((lo * a, hi * a))) for p, a in params.items()}


VIRAL_RANGES = {"a4": (0.0, 5.76), "a5": (0.0, 1.0), "a7": (0.0, 8.0)}
LV_PARAMS = {"a1": "1", "a2": "0.5", "a3": "5", "a4": "1", "a5": "0.2", "a6": "2.4"}
VIRUS_FULL_PARAMS = {"a1": "1525000", "a2": "0.01", "a3": "3e-7", "a4": "0.3",
                     "a5": "0.9", "a6": "2", "a7": "5"}


def _ref_branches(cons, free, ranges, n, monkeypatch):
    """The branch the reference takes at each grid point, seen from outside:
    the reference runs on each point alone (its free values as one-point
    ranges, which start Newton where the grid does) while np.linalg.lstsq
    and np.linalg.norm are recorded. Each point gives (branch, trials), the
    number of norms tried after each of its steps. The branch is
    "converged" when the point is kept; "range" or "assumption" when it
    converged (last norm within the tolerance) and a check rejected it,
    "assumption" when the same run without assumptions keeps it; "halvings"
    when its last step found no smaller norm in 30 trials; "iterations" when
    its 60th step was accepted without converging."""
    per_axis = max(1, round(n ** (1.0 / len(free))))
    axes = [np.linspace(ranges[p][0] + 0.5 * (ranges[p][1] - ranges[p][0]) / per_axis,
                        ranges[p][1] - 0.5 * (ranges[p][1] - ranges[p][0]) / per_axis,
                        per_axis) for p in free]
    grid = np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    lstsq, norm = np.linalg.lstsq, np.linalg.norm
    free_of_assumptions = VarietyConstraints(equations=cons.equations,
                                             param_names=cons.param_names)
    out = []
    for gp in grid:
        one = dict(ranges, **{p: (float(x), float(x)) for p, x in zip(free, gp)})
        norms = [[]]       # the start's norm, then the trials of each step
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *a, **k: norms.append([]) or lstsq(*a, **k))
        monkeypatch.setattr(np.linalg, "norm",
                            lambda x: norms[-1].append(float(norm(x))) or norm(x))
        kept, _ = _ref_sample_variety(cons, free, one, 1)
        monkeypatch.undo()
        trials = [len(t) for t in norms[1:]]
        if kept:
            branch = "converged"
        elif norms[-1][-1] <= 1e-10:
            again, _ = _ref_sample_variety(free_of_assumptions, free, one, 1)
            branch = "assumption" if again else "range"
        elif norms[-1][-1] < norms[-2][-1]:
            assert len(trials) == 60
            branch = "iterations"
        else:
            assert trials[-1] == 30
            branch = "halvings"
        out.append((branch, trials))
    return out


# one equation in a1 (solved) and a2 (free): its terms, the a1 and a2 ranges
# (a1's midpoint starts Newton) and the grid size; each runs a point to a
# limit of Newton and keeps it
NEWTON_LIMITS = {
    # (a1 a2)^5 = 0: each step takes a1 to 4/5 of it, and one point
    # converges on the 60th step
    "newton-60-steps": ({(5, 5): 1}, (0.0, 2.0e3), (0.5, 8.0), 8),
    # a1^4 = a2 from a1 = 2^-10: one point's first step is accepted on its
    # 30th trial
    "newton-29-halvings": ({(4, 0): 1, (0, 1): -1}, (-4.0, 4.0 + 2.0 ** -9),
                           (0.0, 64.0), 16),
    # a1^6 = a2 from a1 = 2^-6: one point halves 30 times over its steps,
    # each step starting from a full one
    "newton-30-halvings-in-all": ({(6, 0): 1, (0, 1): -1}, (-1.0, 1.0 + 2.0 ** -5),
                                  (0.0, 4.0), 16),
}


@pytest.mark.parametrize("case", ["viral-a4", "viral-a4-a5", "viral-skips", "lv-a3",
                                  "virus_full-a1-a5", "decay", "viral-mixed-iterations",
                                  "viral-mixed-halvings", *NEWTON_LIMITS])
def test_sampler_matches_evaluate_reference(case, viral_model, viral_io, lv_model,
                                            lv_io, decay_model, decay_io,
                                            virus_full_model, monkeypatch):
    if case.startswith("viral"):
        model, basis, v = viral_model, viral_io, [0.8512, 5.76]
        free, ranges, n = ["a4"], VIRAL_RANGES, 12
        if case == "viral-a4-a5":
            free, n = ["a4", "a5"], 16
        elif case == "viral-skips":
            # a7 = 5.76 - a4 leaves its range below a4 = 0.76
            ranges = dict(VIRAL_RANGES, a7=(0.0, 5.0))
        elif case.startswith("viral-mixed"):
            # a4 over 0.25, 0.75, ..., 3.75 with a4 + a7 = 3.75: a4 = 3.75
            # puts a7 at 0, where a4 a5 a7 = v1 has no solution; a4 a7 = v1
            # puts a5 at 1 against the a5 - 1 assumption (a4 = 0.75 for
            # 2.25, a4 = 1.25 for 3.125); small a4 need a5 above 1
            v, n = [2.25, 3.75], 8
            ranges = {"a4": (0.0, 4.0), "a5": (0.0, 1.0), "a7": (0.0, 4.0)}
            if case == "viral-mixed-halvings":
                v = [3.125, 3.75]
                ranges = dict(ranges, a7=(0.0, 3.2))
    elif case == "lv-a3":
        model, basis = lv_model, lv_io
        v = _true_coefficients(basis, LV_PARAMS)
        free, ranges, n = ["a3"], _spread({p: float(a) for p, a in LV_PARAMS.items()}), 6
    elif case == "decay":
        model, basis, v = decay_model, decay_io, [0.4]
        free, ranges, n = [], {"a1": (-1.0, 1.0)}, 1
    elif case in NEWTON_LIMITS:
        terms, a1, a2, n = NEWTON_LIMITS[case]
        cons = VarietyConstraints(equations=[pp(2, terms)],
                                  param_names=("a1", "a2"))
        free, ranges = ["a2"], {"a1": a1, "a2": a2}
    else:
        model, basis = virus_full_model, derive_io_basis(virus_full_model)
        v = _true_coefficients(basis, VIRUS_FULL_PARAMS)
        free, n = ["a1", "a5"], 9
        ranges = dict(_spread({p: float(a) for p, a in VIRUS_FULL_PARAMS.items()}),
                      a5=(0.5, 0.99))
    if case not in NEWTON_LIMITS:
        cons = variety_constraints(basis, v, assumptions=model.assume_nonzero)
    got = sample_variety(cons, free, ranges, n)
    points, skipped = _ref_sample_variety(cons, free, ranges, n)
    assert repr(got.points) == repr(points)
    assert got.skipped == skipped
    # two free parameters over a curve: Newton cannot meet both equations
    assert bool(points) == (case != "viral-a4-a5")
    assert skipped or case not in ("viral-a4-a5", "viral-skips")
    if case.startswith("viral-mixed"):
        # one call mixes the outcomes of a point: kept, out of range, against
        # an assumption, and out of halvings or of steps
        branches = _ref_branches(cons, free, ranges, n, monkeypatch)
        failure = case.rpartition("-")[2]
        assert {"range", "assumption", failure} <= {b for b, _ in branches}
        if failure == "iterations":
            # kept points converge after different numbers of steps
            assert len({len(t) for b, t in branches if b == "converged"}) >= 2
    elif case in NEWTON_LIMITS:
        branches = _ref_branches(cons, free, ranges, n, monkeypatch)
        kept = [t for b, t in branches if b == "converged"]
        assert points and skipped
        if case == "newton-60-steps":
            assert any(len(t) == 60 for t in kept)
            assert "iterations" in {b for b, _ in branches}
        elif case == "newton-29-halvings":
            assert any(max(t) == 30 for t in kept)
            assert "halvings" in {b for b, _ in branches}
        else:
            assert any(sum(t) - len(t) >= 30 and max(t) < 30 for t in kept)


def test_sample_blocks_match_one_block(viral_io, viral_model, monkeypatch):
    # a grid run in several lockstep blocks gives the points of one block
    cons = variety_constraints(viral_io, [2.25, 3.75],
                               assumptions=viral_model.assume_nonzero)
    ranges = {"a4": (0.0, 4.0), "a5": (0.0, 1.0), "a7": (0.0, 4.0)}
    whole = sample_variety(cons, ["a4"], ranges, 40)
    monkeypatch.setattr(variety, "_GRID_BLOCK", 3)
    blocks = sample_variety(cons, ["a4"], ranges, 40)
    assert repr(blocks.points) == repr(whole.points)
    assert blocks.skipped == whole.skipped > 0


def test_sample_free_param_validation(viral_io):
    cons = variety_constraints(viral_io, [0.8512, 5.76])
    with pytest.raises(ValueError):
        sample_variety(cons, ["a6"], {"a6": (0, 1)}, 4)
    with pytest.raises(ValueError):
        sample_variety(cons, ["a4"], {"a4": (0, 1)}, 4)  # missing ranges
    with pytest.raises(UsageError, match="'a5'"):  # reversed range
        sample_variety(cons, ["a4"], {"a4": (0, 1), "a5": (1, 0), "a7": (0, 8)}, 4)
    with pytest.raises(UsageError, match="'a4' is given more than once"):
        sample_variety(cons, ["a4", "a4"], {"a4": (0, 5.76), "a5": (0, 1), "a7": (0, 8)}, 4)
    # a nan bound passed the lo > hi test, and every point was skipped
    for p in ("a4", "a5"):
        for bound in ((math.nan, 5.76), (0.0, math.inf), (-math.inf, 0.0)):
            with pytest.raises(UsageError, match=f"range of '{p}' is not finite"):
                sample_variety(cons, ["a4"], dict(VIRAL_RANGES, **{p: bound}), 4)



@pytest.mark.parametrize("n", [0, -3, 2.5, 4.0, "4"])
def test_sample_count_validation(viral_io, n):
    # with one free parameter n = -3 used to give one point, with two it
    # raised TypeError from round(complex)
    cons = variety_constraints(viral_io, [0.8512, 5.76])
    ranges = {"a4": (0.0, 5.76), "a5": (0.0, 1.0), "a7": (0.0, 8.0)}
    for free in (["a4"], ["a4", "a5"]):
        with pytest.raises(UsageError, match="sample count"):
            sample_variety(cons, free, ranges, n)


def _stack(rng, k, m, n, scale=1.0):
    return rng.normal(size=(k, m, n)) * scale, rng.normal(size=(k, m))


STEP_STACKS = {
    "1x1": lambda rng: _stack(rng, 6, 1, 1),
    "square-2x2": lambda rng: _stack(rng, 6, 2, 2),
    "tall-3x2": lambda rng: _stack(rng, 6, 3, 2),
    "wide-1x3": lambda rng: _stack(rng, 6, 1, 3),
    # the second column twice the first, at every scale of the entries
    "rank-deficient": lambda rng: (
        np.array([[[1.0, 2.0], [3.0, 6.0]], [[1e-9, 2e-9], [-4e-9, -8e-9]],
                  [[1e12, 2e12], [0.0, 0.0]]]), rng.normal(size=(3, 2))),
    "all-zero": lambda rng: (np.zeros((3, 2, 2)), rng.normal(size=(3, 2))),
}


@pytest.mark.parametrize("case", list(STEP_STACKS))
def test_stacked_steps_match_lstsq(case):
    # the sampler's one least-squares call per round gives every point the
    # bits of its own np.linalg.lstsq step
    jac, res = STEP_STACKS[case](np.random.default_rng(7))
    ok, steps = variety._lstsq_steps(jac, res)
    assert ok.tolist() == [True] * len(jac)
    assert steps.shape == (len(jac), jac.shape[2])
    for j, r, x in zip(jac, res, steps):
        assert np.array_equal(x, np.linalg.lstsq(j, -r, rcond=None)[0])


def test_stacked_steps_skip_non_finite_jacobians():
    # a Jacobian with a nan or an infinite entry makes np.linalg.lstsq raise;
    # its point gets no step and its neighbours are solved as alone. A
    # non-finite residual is solved, to the nan steps np.linalg.lstsq gives.
    jac, res = _stack(np.random.default_rng(8), 6, 2, 2)
    jac[1, 0, 1] = math.nan
    jac[3, 1, 0] = -math.inf
    res[4, 0] = math.inf
    ok, steps = variety._lstsq_steps(jac, res)
    assert ok.tolist() == [True, False, True, False, True, True]
    for k in (1, 3):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.lstsq(jac[k], -res[k], rcond=None)
    for k, x in zip([0, 2, 4, 5], steps):
        assert np.array_equal(x, np.linalg.lstsq(jac[k], -res[k], rcond=None)[0],
                              equal_nan=True)
    assert np.isnan(steps[2]).all()


_INFINITE_JACOBIAN_PROBE = """
from paramvariety.algebra import ParamPoly
from paramvariety.variety import VarietyConstraints, sample_variety
# a1 a4 a5 + a2 + a3 = 1, a1 + a2 + a3 = 2, a1 + 2 a2 + a3 = 3 over free
# a4, a5 near 1.5e200: the first row of the Jacobian in a1, a2, a3 is
# (inf, 1, 1)
eqs = [ParamPoly(5, {(1, 0, 0, 1, 1): 1, (0, 1, 0, 0, 0): 1, (0, 0, 1, 0, 0): 1,
                     (0, 0, 0, 0, 0): -1}),
       ParamPoly(5, {(1, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0): 1, (0, 0, 1, 0, 0): 1,
                     (0, 0, 0, 0, 0): -2}),
       ParamPoly(5, {(1, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0): 2, (0, 0, 1, 0, 0): 1,
                     (0, 0, 0, 0, 0): -3})]
cons = VarietyConstraints(equations=eqs, param_names=("a1", "a2", "a3", "a4", "a5"))
out = sample_variety(cons, ["a4", "a5"], {"a1": (0, 1), "a2": (0, 1), "a3": (0, 1),
                                          "a4": (1e200, 2e200), "a5": (1e200, 2e200)}, 4)
print(len(out.points), out.skipped)
"""


def test_sample_infinite_jacobian_skips_quietly():
    # LAPACK never returned on this Jacobian when the sampler passed it on,
    # and prints DLASCL errors to stdout on other non-finite ones
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", _INFINITE_JACOBIAN_PROBE],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == ("0 4\n", "")


def test_sample_overflowing_points_are_skipped():
    # a2 = a1^400 over a grid a1 = 1, 3, 5, 7: only 7^400 overflows, where a
    # Python power raises OverflowError; that point is skipped, 3^400 and
    # 5^400 leave the a2 range, and a1 = 1 keeps the bits it has alone
    cons = VarietyConstraints(equations=[pp(2, {(0, 1): 1, (400, 0): -1})],
                              param_names=("a1", "a2"))
    with pytest.raises(OverflowError):
        7.0 ** 400
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sample_variety(cons, ["a1"], {"a1": (0.0, 8.0), "a2": (0.0, 3.0)}, 4)
        alone = sample_variety(cons, ["a1"], {"a1": (1.0, 1.0), "a2": (0.0, 3.0)}, 1)
    assert (len(out.points), out.skipped) == (1, 3)
    assert repr(out.points) == repr(alone.points) == repr([{"a1": 1.0, "a2": 1.0}])


# ---------------------------------------------------------------------------
# round trip (small; the full randomized suite lives in the acceptance tests)
# ---------------------------------------------------------------------------

def test_round_trip_viral_smoke(viral_model, viral_io, rng):
    params = dict(a4=0.22, a5=0.88, a6=1.7, a7=5.1)
    y0 = 8.0e5
    x0 = [params["a7"] / params["a6"] * y0, y0]
    times = [0.9, 2.4]
    ds = make_dataset(viral_model, params, x0, times, order=2, t0=0.25)
    res = solve_coefficients(*build_linear_system(viral_io, ds))
    v1_ref = params["a4"] * params["a5"] * params["a7"]
    v2_ref = params["a4"] + params["a7"]
    assert abs(res.v[0] - v1_ref) <= 1e-6 * max(1.0, abs(v1_ref))
    assert abs(res.v[1] - v2_ref) <= 1e-6 * max(1.0, abs(v2_ref))
