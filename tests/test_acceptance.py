"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with -s to see them inline). Tolerances are fixed here,
not configurable.

Run just this module:

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import random
from contextlib import contextmanager

import numpy as np
import pytest

from paramvariety.algebra import DiffVar, ParamPoly, ParamRat, Poly, poly_divide
from paramvariety.datalab import (
    DataSet,
    exact_viral_solution,
    integrate_model,
    make_dataset,
)
from paramvariety.extension import (
    CERTIFIED,
    check_extension,
    extension_sets,
)
from paramvariety.groebner import buchberger, reduce_basis, s_polynomial
from paramvariety.groebner import elimination_subset
from paramvariety.model import prolong
from paramvariety.variety import (
    build_linear_system,
    sample_variety,
    solve_coefficients,
    variety_constraints,
)

from .helpers import pp, random_poly, reconstruct_state_jet
from .test_ioeq import _LV_COEFFS, _LV_DEN


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"\nACCEPTANCE {num}: PASS - {desc}")


# ---------------------------------------------------------------------------
# 1. viral input-output equation, exact
# ---------------------------------------------------------------------------

def test_criterion_1_viral_io_equation(viral_io):
    with criterion(1, "viral IO equation y'' + (a4+a7) y' + a4 a5 a7 y = 0, "
                      "L = 2, exact"):
        b = viral_io
        assert b.L == 2
        n = 4
        ring = b.ring
        a4, a5, a7 = ParamRat.gen(n, 0), ParamRat.gen(n, 1), ParamRat.gen(n, 3)
        y = Poly.var(ring, DiffVar("y", 0), n)
        y1 = Poly.var(ring, DiffVar("y", 1), n)
        y2 = Poly.var(ring, DiffVar("y", 2), n)
        assert b.full == y2 + y1.scale(a4 + a7) + y.scale(a4 * a5 * a7)
        assert list(b.coeffs) == [a4 * a5 * a7, a4 + a7]
        assert b.monos == (ring.exps({DiffVar("y", 0): 1}),
                           ring.exps({DiffVar("y", 1): 1}))
        assert b.rhs == -y2


# ---------------------------------------------------------------------------
# 2. competition-model input-output equation, exact
# ---------------------------------------------------------------------------

def test_criterion_2_lv_io_equation(lv_io):
    with criterion(2, "competition-model IO equation: all six rational "
                      "coefficients exact, L = 2"):
        b = lv_io
        assert b.L == 2
        assert b.n_coeffs == 6
        den = pp(6, _LV_DEN)
        got = dict(zip(b.monos, b.coeffs))
        assert set(got) == set(_LV_COEFFS)
        for mono, num_terms in _LV_COEFFS.items():
            assert got[mono] == ParamRat(pp(6, num_terms), den)
        assert b.rhs == Poly(b.ring, {(1, 0, 1): -1}, n=6)


# ---------------------------------------------------------------------------
# 3 & 4. subject studies: coefficient recovery and pseudo-data tables
# ---------------------------------------------------------------------------

SUBJECTS = {
    "1-H": dict(a4=0.0, a5=0.75, a7=6.9, t0=10 / 24, x3=4.1e6),
    "2-D": dict(a4=0.16, a5=0.95, a7=5.6, t0=7 / 24, x3=1.0e6),
    "3-D": dict(a4=0.4, a5=0.99, a7=6.0, t0=5 / 24, x3=0.4e6),
}
T1, T2 = 1.8594, 6.1602

V_EXPECTED = {
    "1-H": (0.0000, 6.9000),
    "2-D": (0.8512, 5.7600),
    "3-D": (2.3760, 6.4000),
}

# published pseudo-data: (scale, (y, y', y'') mantissas) at t1 and t2
TABLE2 = {
    "1-H": ((1e6, (1.0251, -0.0010, 0.0070)), (1e6, (1.0250, -0.0000, 0.0000))),
    "2-D": ((1e4, (4.1781, -0.7127, 0.5485)), (1e4, (2.1676, -0.3290, 0.0499))),
    "3-D": ((1e3, (2.4049, -1.0615, 1.0792)), (1.0, (434.9356, -172.1117, 68.1076))),
}


def _subject_jets(s):
    rows = [exact_viral_solution(s["a4"], s["a5"], s["a7"], s["t0"], s["x3"], t)
            for t in (T1, T2)]
    return DataSet(times=[T1, T2], y_jets=[tuple(r) for r in rows])


def test_criterion_3_coefficient_recovery(viral_io):
    with criterion(3, "coefficient values (v1, v2) for 1-H/2-D/3-D within "
                      "1e-3 relative of the published values and 1e-9 of "
                      "the analytic ones"):
        for name, s in SUBJECTS.items():
            res = solve_coefficients(
                *build_linear_system(viral_io, _subject_jets(s)))
            for got, want in zip(res.v, V_EXPECTED[name]):
                assert abs(got - want) <= 1e-3 * max(1.0, abs(want))
            v1_ref = s["a4"] * s["a5"] * s["a7"]
            v2_ref = s["a4"] + s["a7"]
            assert abs(res.v[0] - v1_ref) <= 1e-9
            assert abs(res.v[1] - v2_ref) <= 1e-9


def test_criterion_4_pseudo_data_table():
    with criterion(4, "all 18 published pseudo-data values reproduced to 4 "
                      "significant figures"):
        checked = 0
        for name, s in SUBJECTS.items():
            for t, (scale, mantissas) in zip((T1, T2), TABLE2[name]):
                got = exact_viral_solution(s["a4"], s["a5"], s["a7"],
                                           s["t0"], s["x3"], t)
                for value, mantissa in zip(got, mantissas):
                    assert round(value / scale, 4) == pytest.approx(
                        mantissa, abs=1e-12), (name, t, value / scale, mantissa)
                    checked += 1
        assert checked == 18


# ---------------------------------------------------------------------------
# 5. extension certification
# ---------------------------------------------------------------------------

def test_criterion_5_extension_certified(viral_model, viral_rgb):
    with criterion(5, "extension sets P6=P4=P2={a5 a6 - a6}, P5=P3=P1={1}; "
                      "Certified under a6 != 0, a5 != 1"):
        sets = extension_sets(viral_model, viral_rgb)
        n = 4
        one = ParamPoly.const(n, 1)
        factor = pp(n, {(0, 1, 1, 0): 1, (0, 0, 1, 0): -1})
        by_index = {j: leading for j, (z, leading) in enumerate(sets, start=1)}
        # z_1number counts down from the highest eliminated variable, so
        # P_6 belongs to x2, P_1 to x3''
        assert list(by_index[6]) == [factor]
        assert list(by_index[4]) == [factor]
        assert list(by_index[2]) == [factor]
        assert list(by_index[5]) == [one]
        assert list(by_index[3]) == [one]
        assert list(by_index[1]) == [one]
        report = check_extension(sets, viral_model.assume_nonzero)
        assert report.overall == CERTIFIED
        # and without the assumptions certification is impossible
        assert check_extension(sets, ()).overall != CERTIFIED


# ---------------------------------------------------------------------------
# 6. randomized round trips
# ---------------------------------------------------------------------------

TRIALS = 50


def _check_v(basis, params, model, v):
    pvec = [params[p] for p in model.params]
    for coeff, got in zip(basis.coeffs, v):
        want = coeff.evaluate(pvec)
        assert abs(want - got) <= 1e-6 * max(1.0, abs(got)), (want, got)


def test_criterion_6_round_trip_viral(viral_model, viral_io, viral_rgb):
    with criterion(6, "round trip, viral model: 50 random-parameter trials; "
                      "|c_l(a*) - v_l| <= 1e-6 max(1,|v_l|); every sampled "
                      "point re-integrates within 1e-4 and obeys "
                      "0 < a4, a7 < v2"):
        rng = random.Random(60001)
        total_samples = 0
        for _ in range(TRIALS):
            a4 = rng.uniform(0.05, 0.55)
            a5 = rng.uniform(0.55, 0.98)
            a7 = rng.uniform(4.0, 7.5)
            a6 = rng.uniform(0.6, 2.0)
            params = dict(a4=a4, a5=a5, a6=a6, a7=a7)
            t0 = rng.uniform(0.2, 0.5)
            x3 = rng.uniform(2e5, 4e6)
            t1 = t0 + rng.uniform(0.4, 2.0)
            t2 = t1 + rng.uniform(0.6, 4.0)
            rows = [exact_viral_solution(a4, a5, a7, t0, x3, t)
                    for t in (t1, t2)]
            data = DataSet(times=[t1, t2], y_jets=[tuple(r) for r in rows])
            res = solve_coefficients(*build_linear_system(viral_io, data))
            _check_v(viral_io, params, viral_model, res.v)

            v1, v2 = float(res.v[0]), float(res.v[1])
            cons = variety_constraints(viral_io, [v1, v2],
                                       assumptions=viral_model.assume_nonzero)
            samples = sample_variety(
                cons, ["a4"],
                {"a4": (0.0, v2), "a5": (0.0, 1.0), "a7": (0.0, v2 + 1.0)},
                4)
            jets0 = {DiffVar("y", j): val for j, val in enumerate(data.y_jets[0])}
            grid = np.linspace(t1, t1 + 2.5, 10)
            ref = np.array([exact_viral_solution(a4, a5, a7, t0, x3, t)[0]
                            for t in grid])
            sup = np.max(np.abs(ref))
            for pt in samples.points:
                # range deduction from the product and sum constraints
                assert 0.0 < pt["a4"] < v2
                assert 0.0 < pt["a7"] < v2
                full = dict(pt)
                full["a6"] = rng.uniform(0.5, 2.0)
                states = reconstruct_state_jet(viral_model, viral_rgb, jets0,
                                               full, up_to_order=0)
                x0p = [states[DiffVar(s, 0)] for s in viral_model.states]
                traj = integrate_model(viral_model, full, x0p, grid)
                err = np.max(np.abs(traj.outputs - ref)) / sup
                assert err <= 1e-4, err
                total_samples += 1
        assert total_samples >= TRIALS  # sampling must not be vacuous


def test_criterion_6_round_trip_lv(lv_model, lv_io, lv_rgb):
    with criterion(6, "round trip, competition model: 50 random-parameter "
                      "trials; v recovery 1e-6; sampled points re-integrate "
                      "within 1e-4"):
        rng = random.Random(60002)
        nominal = dict(a1=1.0, a2=0.5, a3=5.0, a4=1.0, a5=0.2, a6=2.4)
        x0 = [1.0, 2.0]
        total_samples = 0
        for _ in range(TRIALS):
            astar = {k: v * rng.uniform(0.7, 1.3) for k, v in nominal.items()}
            times = sorted(rng.uniform(0.3, 7.0) for _ in range(8))
            ds = make_dataset(lv_model, astar, x0, times, order=2, t0=0.0)
            res = solve_coefficients(*build_linear_system(lv_io, ds))
            _check_v(lv_io, astar, lv_model, res.v)

            cons = variety_constraints(lv_io, [float(v) for v in res.v],
                                       assumptions=lv_model.assume_nonzero)
            ranges = {p: (0.3 * astar[p], 3.0 * astar[p]) for p in lv_model.params}
            samples = sample_variety(cons, ["a3"], ranges, 2)
            t_first = ds.times[0]
            grid = np.linspace(t_first, 8.0, 12)
            ref = np.asarray(integrate_model(lv_model, astar, x0,
                                             [0.0] + list(grid)).outputs[1:])
            sup = np.max(np.abs(ref))
            jets0 = {DiffVar("y", j): val for j, val in enumerate(ds.y_jets[0])}
            for pt in samples.points:
                states = reconstruct_state_jet(lv_model, lv_rgb, jets0, pt,
                                               up_to_order=0)
                x0p = [states[DiffVar(s, 0)] for s in lv_model.states]
                traj = integrate_model(lv_model, pt, x0p, grid)
                err = np.max(np.abs(traj.outputs - ref)) / sup
                assert err <= 1e-4, err
                total_samples += 1
        assert total_samples >= TRIALS // 2


def test_criterion_6_round_trip_decay(decay_model, decay_io):
    with criterion(6, "round trip, one-state toy model: 50 trials, square "
                      "constraint system pins the parameter"):
        rng = random.Random(60003)
        for _ in range(TRIALS):
            a1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 0.9)
            x0 = [rng.uniform(0.5, 4.0)]
            times = sorted(rng.uniform(0.2, 4.5) for _ in range(2))
            if times[1] - times[0] < 0.2:
                continue
            ds = make_dataset(decay_model, {"a1": a1}, x0, times, order=1,
                              t0=0.0)
            res = solve_coefficients(*build_linear_system(decay_io, ds))
            assert abs(-a1 - res.v[0]) <= 1e-6 * max(1.0, abs(res.v[0]))
            cons = variety_constraints(decay_io, [float(res.v[0])])
            out = sample_variety(cons, [], {"a1": (-1.0, 1.0)}, 1)
            assert len(out.points) == 1
            assert out.points[0]["a1"] == pytest.approx(a1, rel=1e-6)


# ---------------------------------------------------------------------------
# 7. engine property suite
# ---------------------------------------------------------------------------

def _random_ideals(seed, count):
    from paramvariety.algebra import MonomialOrder
    rng = random.Random(seed)
    ring = MonomialOrder([DiffVar(b, 0) for b in "xyz"])
    made = 0
    # a draw of only zero polynomials spans no ideal; draw again until
    # count non-empty generator sets have been yielded
    while made < count:
        gens = []
        for _ in range(rng.randint(2, 3)):
            p = random_poly(rng, ring, 2, max_terms=3, max_deg=2)
            if not p.is_zero:
                gens.append(p)
        if gens:
            made += 1
            yield ring, gens


def test_criterion_7_engine_properties():
    with criterion(7, "engine properties on randomized <=3-variable ideals: "
                      "generators and S-polynomials reduce to zero, reduced "
                      "bases are permutation-invariant, elimination subsets "
                      "stay in the ideal"):
        rng = random.Random(70000)
        count = 0
        for ring, gens in _random_ideals(seed=700, count=20):
            basis = buchberger(gens)
            for g in gens:
                _, rem = poly_divide(g, basis)
                assert rem.is_zero
            for f, g in itertools.combinations(basis, 2):
                assert poly_divide(s_polynomial(f, g), basis)[1].is_zero
            rgb = reduce_basis(basis)
            shuffled = list(gens)
            rng.shuffle(shuffled)
            other = reduce_basis(buchberger(shuffled))
            assert len(other) == len(rgb)
            for a, b in zip(rgb, other):
                assert a == b
            for k in range(len(ring.vars) + 1):
                keep = ring.vars[k:]
                for g in elimination_subset(rgb, keep):
                    assert g.uses_only(set(keep))
                    _, rem = poly_divide(g, list(rgb))
                    assert rem.is_zero
            count += 1
        assert count == 20
