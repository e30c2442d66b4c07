"""Shows that the benchmark's checks can fail, and smoke-runs each workload.

Runs one operation per workload through its checks (which must pass), then
feeds the checks known-wrong outputs, which they must refuse:

- coefficient values scaled by 1 + 1e-4 (variety-cli, every bundled model;
  explore, viral and competition model);
- a chain IO equation with two coefficients swapped (derive);
- a sampled point moved off the variety (explore, viral and competition
  model).

Run from the repository root; exits 0 when every case behaves:

    python3 perfbench/selftest.py
"""

import contextlib
import dataclasses
import io
import os
import shutil
import sys
import tempfile

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from paramvariety import ioeq, model, variety  # noqa: E402


def run_ops(cls, workdir, ops=None):
    """Set the workload up (seed 1) and run `ops` (default: one round)."""
    w = cls(ROOT, workdir, 1)
    w.setup()
    probe = tracing.Probe(cls.capture, capture=cls.capture).install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            recs = []
            for op in ops(w) if ops else w.next_round():
                recs.append(w.collect(op, w.call(op), probe))
    finally:
        probe.uninstall()
    return w, recs


def scaled_equations(basis, v, names=None):
    """Constraints for v: rendered as the CLI writes them when names are
    given, else as exponent-tuple terms as the explore records keep them."""
    cons = variety.variety_constraints(basis, list(v))
    if names:
        return tuple(eq.render(names) + " = 0" for eq in cons.equations)
    return tuple(tuple(eq.terms.items()) for eq in cons.equations)


def main():
    results = []

    def expect(label, w, recs, ok):
        errors = w.check(recs, checks)
        good = (not errors) == ok
        results.append(good)
        verdict = "passes" if not errors else f"refused ({errors[0][:90]})"
        print(f"{'ok  ' if good else 'FAIL'} {label}: {verdict}")

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    base = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        # smoke: one operation per workload, checked
        for name, cls in W.WORKLOADS.items():
            w, recs = run_ops(cls, os.path.join(base, name),
                              lambda w: w.next_round()[:1])
            expect(f"smoke {name}, one operation", w, recs, True)

        # derive: a chain IO equation with two coefficients swapped
        w, recs = run_ops(W.Derive, os.path.join(base, "derive-chain"),
                          lambda w: [op for op in w.inputs if op["kind"] == "chain3"])
        expect("derive chain3, as derived", w, recs, True)
        b = ioeq.derive_io_basis(model.parse_model(W.chain_model(3)))
        swapped = dataclasses.replace(
            b, coeffs=(b.coeffs[1], b.coeffs[0]) + b.coeffs[2:]).render()
        expect("derive chain3, coefficients 1 and 2 swapped", w,
               [recs[0]._replace(io=swapped)], False)

        # variety-cli: one round (every bundled model), then v scaled
        w, recs = run_ops(W.VarietyCli, os.path.join(base, "variety-cli"))
        for rec in recs:
            expect(f"variety-cli {rec.kind}, as computed", w, [rec], True)
            m = model.load_model(w.paths[rec.kind])
            v = tuple(x * (1 + 1e-4) for x in rec.v)
            bad = rec._replace(v=v, equations=scaled_equations(
                ioeq.derive_io_basis(m), v, m.params))
            expect(f"variety-cli {rec.kind}, v scaled by 1 + 1e-4", w, [bad], False)

        # explore: v scaled, and a sampled point moved off the variety
        w, recs = run_ops(W.Explore, os.path.join(base, "explore"),
                          lambda w: [op for op in w.inputs
                                     if op["label"] in ("2-D", "lv-0")])
        for rec in recs:
            kind = "viral" if rec.label == "2-D" else "lotka_volterra"
            expect(f"explore {rec.label}, as computed", w, [rec], True)
            v = tuple(x * (1 + 1e-4) for x in rec.v)
            bad = rec._replace(v=v)
            if rec.equations:
                bad = bad._replace(equations=scaled_equations(w.bases[kind], v))
            expect(f"explore {rec.label}, v scaled by 1 + 1e-4", w, [bad], False)
            if not rec.points:
                results.append(False)
                print(f"FAIL explore {rec.label}: no sampled point to move")
                continue
            moved = (tuple(x * (1 + 1e-6) if i == 0 else x
                           for i, x in enumerate(rec.points[0])),) + rec.points[1:]
            expect(f"explore {rec.label}, {rec.names[0]} of a sampled point "
                   f"moved by 1e-6", w, [rec._replace(points=moved)], False)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{sum(results)} of {len(results)} cases behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
