"""The three workloads: their seeded inputs, one operation, and the checks
of every operation's output.

A workload is set up from the seed, then hands out rounds: each round is
the same multiset of operations, in a seeded order, so every run attempts
whole rounds of one fixed mix. `call` is the timed program call and raises
when the operation fails; `collect` reads what the call produced, untimed,
into a hashable record; `check` verifies the distinct records against
computations made apart from the program (`checks`) and returns the errors
it found. Equal records share one verdict, so every operation is checked
while repeated outputs are checked once.
"""

import itertools
import json
import math
import os
import random
from collections import namedtuple

from paramvariety import cli, datalab, ioeq, model, variety

# nominal parameters and initial states of the bundled models; initial
# entries may use the parameters (x2 starts quasi-steady in both virus models)
NOMINAL = {
    "decay": ({"a1": -0.4}, "x1=2.0"),
    "viral": ({"a4": 0.16, "a5": 0.95, "a6": 1.0, "a7": 5.6},
              "x2=(a7/a6)*1.0e6,x3=1.0e6"),
    "lotka_volterra": ({"a1": 1.0, "a2": 0.5, "a3": 5.0, "a4": 1.0,
                        "a5": 0.2, "a6": 2.4}, "x1=1.0,x2=2.0"),
    "virus_full": ({"a1": 1.525e6, "a2": 0.01, "a3": 3e-7, "a4": 0.3,
                    "a5": 0.9, "a6": 2.0, "a7": 5.0},
                   "x1=(a4*a7)/(a3*a6),x2=(a7/a6)*2.0e6,x3=2.0e6"),
}
BUNDLED = tuple(NOMINAL)
# variety-cli runs per round. The operations' latencies are multimodal
# (RK4 halvings: virus_full takes about 0.15, 0.35 or 0.75 s), so the mix
# puts the median inside the viral operations and the 90th percentile inside
# the large models' continuous range, not on a gap between two groups; the
# small models also give each run more operations.
VARIETY_ROUND = ("decay",) * 3 + ("viral",) * 3 + ("lotka_volterra", "virus_full")
CHAIN_SIZES = (2, 3, 4, 5)

# the paper's subjects 2-D and 3-D, and its two measurement times
PAPER_SUBJECTS = {
    "2-D": dict(a4=0.16, a5=0.95, a7=5.6, t0=7 / 24, x3=1.0e6, t=(1.8594, 6.1602)),
    "3-D": dict(a4=0.4, a5=0.99, a7=6.0, t0=5 / 24, x3=0.4e6, t=(1.8594, 6.1602)),
}
SEEDED_VIRAL = 6       # viral subjects drawn per seed
SEEDED_DECAY = 2       # decay datasets drawn per seed
SEEDED_LV = 6          # competition-model coefficient vectors drawn per seed
LV_ROWS = 8            # exact jet rows behind each LV coefficient vector
VIRAL_POINTS = 32      # grid points sampled per viral operation (over a4)
LV_POINTS = 4          # grid points sampled per LV operation (over a3)

V_TOL = 1e-9           # coefficient recovery, as in acceptance criterion 3
EQ_TOL = 1e-7          # constraint residual, relative to its largest term
POINT_TOL = 1e-8       # sampled viral point against a4 a5 a7 = v1, a4 + a7 = v2


def chain_model(n):
    """Linear chain x1' = -k1 x1, xi' = k(i-1) x(i-1) - ki xi, y = xn."""
    lines = ["# linear compartment chain of %d states" % n,
             "states: " + " ".join(f"x{i}" for i in range(1, n + 1)),
             "output: y",
             "params: " + " ".join(f"k{i}" for i in range(1, n + 1)),
             "assume_nonzero: " + ", ".join(f"k{i}" for i in range(1, n + 1)),
             "horizon: 0 10",
             "dx1/dt = -k1*x1"]
    lines += [f"dx{i}/dt = k{i - 1}*x{i - 1} - k{i}*x{i}" for i in range(2, n + 1)]
    lines.append(f"y = x{n}")
    return "\n".join(lines) + "\n"


def permuted(text, order):
    """The model text with its states declared in another order."""
    return "".join("states: " + " ".join(order) + "\n"
                   if line.startswith("states:") else line
                   for line in text.splitlines(keepends=True))


def _states_of(text):
    line = next(ln for ln in text.splitlines() if ln.startswith("states:"))
    return line.split(":", 1)[1].split()


def _fmt(params):
    return ",".join(f"{k}={v!r}" for k, v in params.items())


def _draw(rng, nominal):
    return {k: v * rng.uniform(0.7, 1.3) for k, v in nominal.items()}


class OperationFailed(Exception):
    pass


def _run_cli(argv):
    rc = cli.main(argv)
    if rc != 0:
        raise OperationFailed(f"paramvariety {argv[0]} exited {rc}: {' '.join(argv)}")


DeriveOut = namedtuple("DeriveOut", "label io overall")
VarietyOut = namedtuple("VarietyOut", "kind params v equations unconstrained")
ExploreOut = namedtuple("ExploreOut", "label v names points equations")


class Workload:
    name = ""
    capture = ()          # program functions whose results `collect` reads

    def __init__(self, root, workdir, seed):
        self.root = root
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.out = os.path.join(workdir, "out")
        os.makedirs(self.out, exist_ok=True)

    def bundled_text(self, name):
        with open(os.path.join(self.root, "models", name + ".model"),
                  encoding="utf-8") as fh:
            return fh.read()

    def write(self, filename, text):
        path = os.path.join(self.workdir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


# ---------------------------------------------------------------------------
# derive: the exact half alone
# ---------------------------------------------------------------------------

class Derive(Workload):
    """`paramvariety extend` on the four bundled models, every state order
    of the competition and full virus models (the bundled order included,
    so it runs twice a round), and linear chains."""

    name = "derive"
    capture = ("ioeq.derive_io_basis",)

    def setup(self):
        self.inputs = []
        for name in BUNDLED:
            self._add(name, name, self.bundled_text(name))
        for name in ("lotka_volterra", "virus_full"):
            text = self.bundled_text(name)
            for order in itertools.permutations(_states_of(text)):
                self._add(name, f"{name}-{'-'.join(order)}", permuted(text, order))
        for n in CHAIN_SIZES:
            self._add(f"chain{n}", f"chain{n}", chain_model(n))

    def _add(self, kind, label, text):
        path = self.write(label + ".model", text)
        self.inputs.append({"kind": kind, "label": label, "path": path,
                            "text": text})

    def warm_up_op(self):
        return next(op for op in self.inputs if op["kind"] == "viral")

    def next_round(self):
        return self.rng.sample(self.inputs, len(self.inputs))

    def call(self, op):
        _run_cli(["extend", "--model", op["path"], "--out", self.out])

    def collect(self, op, result, probe):
        bases = probe.take("ioeq.derive_io_basis")
        with open(os.path.join(self.out, "extension.txt"), encoding="utf-8") as fh:
            last = fh.read().strip().splitlines()[-1]
        overall = last[len("overall: "):] if last.startswith("overall: ") else None
        return DeriveOut(op["label"], bases[-1].render() if bases else None,
                         overall)

    def check(self, records, checks):
        inputs = {op["label"]: op for op in self.inputs}
        first_io = {}
        errors = []
        for rec in records:
            errors += self._check_one(inputs[rec.label], rec, checks, first_io)
        return errors

    def _check_one(self, op, rec, checks, first_io):
        label, io, kind = rec.label, rec.io, op["kind"]
        if io is None:
            return [f"{label}: no IO equation derived"]
        errors = []
        if not checks.io_vanishes_on_model(op["text"], io):
            errors.append(f"{label}: IO polynomial does not vanish on the "
                          f"Lie derivatives of the output: {io}")
        if kind.startswith("chain"):
            n = int(kind[len("chain"):])
            if not checks.matches(io, checks.chain_io_expected(n)):
                errors.append(f"{label}: IO coefficients are not the "
                              f"characteristic polynomial's: {io}")
        if kind == "viral" and not checks.matches(io, checks.viral_io_expected()):
            errors.append(f"viral: IO equation is not y'' + (a4 + a7) y' + "
                          f"a4 a5 a7 y = 0: {io}")
        ref = first_io.setdefault(kind, io)
        if not checks.same_io(ref, io):
            errors.append(f"{label}: IO equation differs from another state "
                          f"order's: {io} vs {ref}")
        if rec.overall is None:
            errors.append(f"{label}: no overall extension verdict")
        elif (kind == "viral" or kind.startswith("chain")) \
                and rec.overall != "Certified":
            errors.append(f"{label}: extension check gave {rec.overall}, "
                          "expected Certified")
        return errors


# ---------------------------------------------------------------------------
# variety-cli: `paramvariety variety` end to end
# ---------------------------------------------------------------------------

class VarietyCli(Workload):
    """`paramvariety variety --params --x0 --seed` on the four bundled
    models (`VARIETY_ROUND`), each parameter its nominal value times
    U(0.7, 1.3)."""

    name = "variety-cli"

    def setup(self):
        self.paths = {name: self.write(name + ".model", self.bundled_text(name))
                      for name in BUNDLED}

    def _op(self, name, params, seed):
        return {"kind": name, "params": params,
                "argv": ["variety", "--model", self.paths[name],
                         "--out", self.out, "--params", _fmt(params),
                         "--x0", NOMINAL[name][1], "--seed", str(seed)]}

    def warm_up_op(self):
        return self._op("viral", NOMINAL["viral"][0], 0)

    def next_round(self):
        return [self._op(name, _draw(self.rng, NOMINAL[name][0]),
                         self.rng.randrange(2 ** 31))
                for name in self.rng.sample(VARIETY_ROUND, len(VARIETY_ROUND))]

    def call(self, op):
        _run_cli(op["argv"])

    def collect(self, op, result, probe):
        with open(os.path.join(self.out, "variety.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        return VarietyOut(op["kind"], tuple(op["params"].items()),
                          tuple(doc["v"]), tuple(doc["equations"]),
                          tuple(doc["unconstrained"]))

    def check(self, records, checks):
        errors = []
        for rec in records:
            kind, p, v = rec.kind, dict(rec.params), rec.v
            eqs = [checks.Equation.parse(t) for t in rec.equations]
            bad = checks.equations_hold(eqs, p, EQ_TOL)
            if bad:
                errors.append(f"{kind} at {p}: {len(bad)} constraints do not "
                              f"vanish at the true parameters: {rec.equations}")
            if kind == "viral":
                want = (p["a4"] * p["a5"] * p["a7"], p["a4"] + p["a7"])
                if len(v) != 2 or not all(checks.close(g, w, V_TOL)
                                          for g, w in zip(v, want)):
                    errors.append(f"viral at {p}: v = {v}, expected {want}")
                if "a6" not in rec.unconstrained:
                    errors.append(f"viral at {p}: a6 not listed as unconstrained")
            if kind == "decay" and (len(v) != 1
                                    or not checks.close(v[0], -p["a1"], V_TOL)):
                errors.append(f"decay at {p}: v = {v}, expected {-p['a1']}")
        return errors


# ---------------------------------------------------------------------------
# explore: data to a variety to sampled points, no RK4 and no Buchberger
# ---------------------------------------------------------------------------

class Explore(Workload):
    """Viral and decay CSVs through the float coefficient solve into the
    sampler; competition-model coefficient vectors straight into the
    sampler."""

    name = "explore"

    def setup(self):
        self.models = {name: model.load_model(
            os.path.join(self.root, "models", name + ".model"))
            for name in ("decay", "viral", "lotka_volterra")}
        self.bases = {name: ioeq.derive_io_basis(m)
                      for name, m in self.models.items()}
        self.inputs = []
        rng = self.rng
        subjects = dict(PAPER_SUBJECTS)
        for i in range(SEEDED_VIRAL):
            # drawn as in acceptance criterion 6 (viral round trip)
            s = dict(a4=rng.uniform(0.05, 0.55), a5=rng.uniform(0.55, 0.98),
                     a7=rng.uniform(4.0, 7.5), t0=rng.uniform(0.2, 0.5),
                     x3=rng.uniform(2e5, 4e6))
            t1 = s["t0"] + rng.uniform(0.4, 2.0)
            s["t"] = (t1, t1 + rng.uniform(0.6, 4.0))
            subjects[f"viral-{i}"] = s
        for label, s in subjects.items():
            rows = [(t,) + datalab.exact_viral_solution(
                s["a4"], s["a5"], s["a7"], s["t0"], s["x3"], t) for t in s["t"]]
            self._add_csv("viral", label, s, rows)
        for i in range(SEEDED_DECAY):
            a1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 0.9)
            x0 = rng.uniform(0.5, 4.0)
            t1 = rng.uniform(0.2, 4.3)
            t2 = t1 + rng.uniform(0.2, 4.5 - t1)
            rows = [(t, x0 * math.exp(a1 * t), a1 * x0 * math.exp(a1 * t))
                    for t in (t1, t2)]
            self._add_csv("decay", f"decay-{i}", dict(a1=a1, x0=x0, t=(t1, t2)),
                          rows)
        lv, lv_basis = self.models["lotka_volterra"], self.bases["lotka_volterra"]
        for i in range(SEEDED_LV):
            astar = _draw(rng, NOMINAL["lotka_volterra"][0])
            states = [(rng.uniform(0.2, 1.5), rng.uniform(0.2, 2.5))
                      for _ in range(LV_ROWS)]
            # exact push-forward jets: the IO equation holds at every state
            jets = [datalab.jet_at(lv, astar, x, order=2).y_jet for x in states]
            data = datalab.DataSet(times=[float(k) for k in range(LV_ROWS)],
                                   y_jets=jets)
            res = variety.solve_coefficients(
                *variety.build_linear_system(lv_basis, data))
            self.inputs.append({"kind": "lotka_volterra", "label": f"lv-{i}",
                                "params": astar, "v": [float(x) for x in res.v],
                                "ranges": {p: (0.3 * a, 3.0 * a)
                                           for p, a in astar.items()}})

    def _add_csv(self, kind, label, subject, rows):
        cols = "t,y,y1" if kind == "decay" else "t,y,y1,y2"
        lines = ["# unit: days", cols + ",source"]
        lines += [",".join(f"{x:.17g}" for x in row) + ",closed_form"
                  for row in rows]
        path = self.write(label + ".csv", "\n".join(lines) + "\n")
        self.inputs.append({"kind": kind, "label": label, "path": path,
                            "subject": subject, "rows": rows})

    def warm_up_op(self):
        return next(op for op in self.inputs if op["label"] == "2-D")

    def next_round(self):
        return self.rng.sample(self.inputs, len(self.inputs))

    def call(self, op):
        kind = op["kind"]
        m, basis = self.models[kind], self.bases[kind]
        if kind == "lotka_volterra":
            v = op["v"]
        else:
            data = datalab.read_dataset(op["path"])
            res = variety.solve_coefficients(
                *variety.build_linear_system(basis, data))
            v = [float(x) for x in res.v]
        cons = variety.variety_constraints(basis, v, assumptions=m.assume_nonzero)
        if kind == "viral":
            v2 = v[1]
            ranges = {"a4": (0.0, v2), "a5": (0.0, 1.0), "a7": (0.0, v2 + 1.0)}
            sample = variety.sample_variety(cons, ["a4"], ranges, VIRAL_POINTS)
        elif kind == "decay":
            sample = variety.sample_variety(cons, [], {"a1": (-1.0, 1.0)}, 1)
        else:
            sample = variety.sample_variety(cons, ["a3"], op["ranges"], LV_POINTS)
        return v, cons, sample

    def collect(self, op, result, probe):
        v, cons, sample = result
        equations = None
        if op["kind"] == "lotka_volterra":
            equations = tuple(tuple(eq.terms.items()) for eq in cons.equations)
        return ExploreOut(op["label"], tuple(v), cons.constraint_params(),
                          tuple(tuple(p.values()) for p in sample.points),
                          equations)

    def check(self, records, checks):
        inputs = {op["label"]: op for op in self.inputs}
        errors = []
        for op in inputs.values():
            errors += self._check_input(op, checks)
        for rec in records:
            errors += self._check_output(inputs[rec.label], rec, checks)
        return errors

    def _check_input(self, op, checks):
        """The CSV rows are the model's outputs: matrix exponential of the
        linear vector field at each time."""
        s, errors = op.get("subject"), []
        for row in op.get("rows", ()):
            if op["kind"] == "viral":
                want = checks.viral_jets(s["a4"], s["a5"], s["a7"], s["t0"],
                                         s["x3"], row[0])
            else:
                want = checks.decay_jets(s["a1"], s["x0"], row[0])
            scale = max(abs(w) for w in want)
            if any(abs(g - w) > 1e-9 * scale for g, w in zip(row[1:], want)):
                errors.append(f"{op['label']}: data row {row} is not the "
                              f"model's output {want}")
        return errors

    def _check_output(self, op, rec, checks):
        label, v = rec.label, rec.v
        points = [dict(zip(rec.names, p)) for p in rec.points]
        errors = []
        if op["kind"] == "viral":
            s = op["subject"]
            want = (s["a4"] * s["a5"] * s["a7"], s["a4"] + s["a7"])
            if not all(abs(g - w) <= V_TOL for g, w in zip(v, want)):
                errors.append(f"{label}: v = {v}, closed form gives {want}")
            v1, v2 = v
            for pt in points:
                a4, a5, a7 = pt["a4"], pt["a5"], pt["a7"]
                if not (checks.close(a4 * a5 * a7, v1, POINT_TOL)
                        and checks.close(a4 + a7, v2, POINT_TOL)
                        and 0.0 < a4 < v2 and 0.0 < a7 < v2
                        and 0.0 <= a5 <= 1.0 and a7 <= v2 + 1.0):
                    errors.append(f"{label}: sampled point {pt} is off the "
                                  f"variety v = {v} or out of its ranges")
        elif op["kind"] == "decay":
            a1 = op["subject"]["a1"]
            if not checks.close(v[0], -a1, V_TOL):
                errors.append(f"{label}: v = {v}, closed form gives {-a1}")
            if len(points) != 1 or not checks.close(points[0]["a1"], a1, 1e-6):
                errors.append(f"{label}: sampled {points}, expected a1 = {a1}")
        else:
            names = self.models["lotka_volterra"].params
            eqs = [checks.Equation.from_terms(names, t) for t in rec.equations]
            bad = checks.equations_hold(eqs, op["params"], EQ_TOL)
            if bad:
                errors.append(f"{label}: {len(bad)} constraints do not vanish "
                              "at the true parameters")
            for pt in points:
                full = dict(op["params"], **pt)
                bad = checks.equations_hold(eqs, full, EQ_TOL)
                if bad or not all(lo <= pt[p] <= hi
                                  for p, (lo, hi) in op["ranges"].items()
                                  if p in pt):
                    errors.append(f"{label}: sampled point {pt} is off "
                                  f"{len(bad)} emitted equations or out of range")
        return errors


WORKLOADS = {w.name: w for w in (Derive, VarietyCli, Explore)}
