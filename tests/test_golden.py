"""Golden hashes of the exact outputs: reduced bases, IO equations, extension
reports and the ioeq.txt/extension.txt artifacts the CLI writes, and pins of
the data path: the coefficient values, the solve residual and the constraint
equations of ``paramvariety variety`` runs, the dataset CSVs that
``paramvariety pseudo`` writes (RK4 states, push-forward jets and finite
differences), the float coefficient systems that ``build_linear_system``
assembles from closed-form and finite-difference jets, and the samples.csv
and SVG projections that ``paramvariety sample`` and ``paramvariety variety
--samples`` write.

The data file holds sha256 digests only. A change to the algebra that is
meant to keep every output byte-identical must leave them all equal; a
change that alters an output on purpose re-records them with

    PYTHONPATH=src python3 -m tests.test_golden

and says so in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from paramvariety.cli import main
from paramvariety.datalab import make_dataset
from paramvariety.extension import run_extension_check
from paramvariety.ioeq import derive_io_basis
from paramvariety.model import load_model, parse_model
from paramvariety.variety import build_linear_system

from .conftest import MODELS
from .helpers import derive_inputs, input_model_texts

DATA = Path(__file__).resolve().parent / "data" / "golden_sha256.json"
BUNDLED = ("decay", "viral", "lotka_volterra", "virus_full")
NOMINAL = {
    "decay": ("a1=-0.4", "x1=2.0"),
    "viral": ("a4=0.16,a5=0.95,a6=1.0,a7=5.6", "x2=(a7/a6)*1.0e6,x3=1.0e6"),
    "lotka_volterra": ("a1=1.0,a2=0.5,a3=5.0,a4=1.0,a5=0.2,a6=2.4",
                       "x1=1.0,x2=2.0"),
    "virus_full": ("a1=1.525e6,a2=0.01,a3=3e-7,a4=0.3,a5=0.9,a6=2.0,a7=5.0",
                   "x1=(a4*a7)/(a3*a6),x2=(a7/a6)*2.0e6,x3=2.0e6"),
}
# (label, model, extra arguments): the bundled models at their default row
# count (a square system), and the competition model with 9 rows for its 6
# coefficients (the overdetermined exact solve)
DATA_RUNS = [(f"{name}-seed{seed}", name, ["--seed", str(seed)])
             for name in BUNDLED for seed in (1, 2, 3)]
DATA_RUNS += [(f"lotka_volterra-n9-seed{seed}", "lotka_volterra",
               ["--seed", str(seed), "--n-times", "9"]) for seed in (1, 2, 3)]
# (label, model, method, seed): pseudo-data of the bundled models at their
# nominal point, jets pushed forward at the RK4 states and finite
# differences of a dense RK4 trajectory
PSEUDO_RUNS = [(f"{name}-{method}-seed{seed}", name, method, seed)
               for name in BUNDLED for method in ("symbolic", "finite-difference")
               for seed in (1, 2, 3)]
# (label, model, method, parameters, x0, t0, times): float jets, so float
# coefficient systems
SYSTEM_RUNS = [
    ("viral-exact-viral", "viral", "exact-viral",
     {"a4": 0.16, "a5": 0.95, "a6": 1.0, "a7": 5.6}, [5.6e6, 1.0e6],
     0.2916666666666667, [1.8594, 3.25, 6.1602, 9.5]),
    ("viral-finite-difference", "viral", "finite-difference",
     {"a4": 0.16, "a5": 0.95, "a6": 1.0, "a7": 5.6}, [5.6e6, 1.0e6],
     0.0, [1.8594, 3.25, 6.1602]),
    ("lotka_volterra-finite-difference", "lotka_volterra", "finite-difference",
     {"a1": 1.0, "a2": 0.5, "a3": 5.0, "a4": 1.0, "a5": 0.2, "a6": 2.4},
     [1.0, 2.0], 0.0, [0.7, 1.3, 2.2, 3.1, 4.4, 5.9, 7.5]),
]

VIRAL_RANGES = "a4=0:5.76,a5=0:1,a7=0:8"
# (label, CLI arguments, files): sampler runs on the viral relation (with an
# SVG projection), on exact LV coefficients at the nominal point (a6 leaves
# its range at large a3), on virus_full over two free parameters (half the
# grid skipped) and after a variety run on pseudo-data
SAMPLE_RUNS = [
    ("viral-a4",
     ["sample", "--model", "viral", "--v", "0.8512,5.76", "--free", "a4",
      "--samples", "32", "--ranges", VIRAL_RANGES, "--axes", "a4:a7"],
     ("samples.csv", "variety_a4_a7.svg")),
    ("lotka_volterra-a3",
     ["sample", "--model", "lotka_volterra", "--v", "0.5,-12,22,0,12,-1.5",
      "--free", "a3", "--samples", "12", "--ranges",
      "a1=0.3:3,a2=0.15:1.5,a3=1.5:15,a4=0.3:3,a5=0.06:0.6,a6=1:7.2"],
     ("samples.csv",)),
    ("virus_full-a1-a5",
     ["sample", "--model", "virus_full",
      "--v=-0.0765,4.5e-07,0.053,1.59e-06,-5.3,5.31,3e-07",
      "--free", "a1,a5", "--samples", "16", "--ranges",
      "a1=457500:4575000,a2=0.003:0.03,a3=9e-8:9e-7,a4=0.09:0.9,a5=0.5:0.99,"
      "a6=0.6:6,a7=1.5:15"],
     ("samples.csv",)),
    ("viral-variety-seed1",
     ["variety", "--model", "viral", "--params", NOMINAL["viral"][0],
      "--x0", NOMINAL["viral"][1], "--seed", "1", "--samples", "16",
      "--free", "a4", "--ranges", VIRAL_RANGES],
     ("samples.csv",)),
]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def derivation_hashes(text):
    """Digests of the reduced basis (reprs of each element and its terms),
    the rendered IO equation and the rendered extension report."""
    model = parse_model(text)
    basis = derive_io_basis(model)
    gb = repr([(repr(g), repr(g.terms)) for g in basis.gb])
    report = run_extension_check(model, basis.gb)
    return {"gb": _sha(gb), "ioeq": _sha(basis.render()),
            "extension": _sha(report.render())}


def artifact_hashes(name, out):
    """Digests of the ioeq.txt and extension.txt the CLI writes for a
    bundled model."""
    model = str(MODELS / f"{name}.model")
    assert main(["ioeq", "--model", model, "--out", str(out)]) == 0
    assert main(["extend", "--model", model, "--out", str(out)]) == 0
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in ("ioeq.txt", "extension.txt")}


def data_path_hashes(name, extra, out):
    """Digests of v (each value as float.hex), the residual (float.hex) and
    the equations of the variety.json a nominal variety run writes. The
    condition number is left out: it comes from LAPACK's SVD, whose last
    bits may differ between numpy builds."""
    params, x0 = NOMINAL[name]
    assert main(["variety", "--model", str(MODELS / f"{name}.model"),
                 "--params", params, "--x0", x0, *extra, "--out", str(out)]) == 0
    doc = json.loads((out / "variety.json").read_text())
    return {"v": _sha(" ".join(float.hex(x) for x in doc["v"])),
            "residual": _sha(float.hex(doc["residual"])),
            "equations": _sha("\n".join(doc["equations"]))}


def pseudo_hash(name, method, seed, out):
    """Digest of the bytes of the dataset.csv a nominal pseudo run writes."""
    params, x0 = NOMINAL[name]
    assert main(["pseudo", "--model", str(MODELS / f"{name}.model"),
                 "--params", params, "--x0", x0, "--seed", str(seed),
                 "--method", method, "--out", str(out)]) == 0
    return hashlib.sha256((out / "dataset.csv").read_bytes()).hexdigest()


def system_hashes(name, method, params, x0, t0, times):
    """Digests of the matrix and the rhs (each entry as float.hex) of the
    coefficient system of a float dataset."""
    model = load_model(MODELS / f"{name}.model")
    basis = derive_io_basis(model)
    data = make_dataset(model, params, x0, times, basis.L, t0=t0, method=method)
    matrix, rhs = build_linear_system(basis, data)
    assert matrix.dtype == rhs.dtype == float
    return {"matrix": _sha(" ".join(float.hex(x) for x in matrix.ravel().tolist())),
            "rhs": _sha(" ".join(float.hex(x) for x in rhs.tolist()))}


def sample_hashes(args, files, out):
    """Digests of the bytes of the files a sampler run writes."""
    command, _, model, *rest = args
    assert main([command, "--model", str(MODELS / f"{model}.model"), *rest,
                 "--out", str(out)]) == 0
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files}


def _texts():
    return {**derive_inputs(), **input_model_texts()}


def _golden():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("label", sorted(_texts()))
def test_derivation_matches_golden(label):
    assert derivation_hashes(_texts()[label]) == _golden()["derivations"][label]


@pytest.mark.parametrize("name", BUNDLED)
def test_cli_artifacts_match_golden(name, tmp_path):
    assert artifact_hashes(name, tmp_path) == _golden()["artifacts"][name]


@pytest.mark.parametrize("label, name, extra", DATA_RUNS,
                         ids=[label for label, _, _ in DATA_RUNS])
def test_data_path_matches_golden(label, name, extra, tmp_path):
    assert data_path_hashes(name, extra, tmp_path) == _golden()["data_path"][label]


@pytest.mark.parametrize("label, name, method, seed", PSEUDO_RUNS,
                         ids=[run[0] for run in PSEUDO_RUNS])
def test_pseudo_data_matches_golden(label, name, method, seed, tmp_path):
    assert pseudo_hash(name, method, seed, tmp_path) == _golden()["pseudo"][label]


@pytest.mark.parametrize("label, name, method, params, x0, t0, times", SYSTEM_RUNS,
                         ids=[run[0] for run in SYSTEM_RUNS])
def test_float_system_matches_golden(label, name, method, params, x0, t0, times):
    got = system_hashes(name, method, params, x0, t0, times)
    assert got == _golden()["float_system"][label]


@pytest.mark.parametrize("label, args, files", SAMPLE_RUNS,
                         ids=[run[0] for run in SAMPLE_RUNS])
def test_samples_match_golden(label, args, files, tmp_path):
    assert sample_hashes(args, files, tmp_path) == _golden()["samples"][label]


def test_golden_covers_every_input():
    golden = _golden()
    assert sorted(golden["derivations"]) == sorted(_texts())
    assert sorted(golden["artifacts"]) == sorted(BUNDLED)
    assert sorted(golden["data_path"]) == sorted(label for label, _, _ in DATA_RUNS)
    assert sorted(golden["pseudo"]) == sorted(run[0] for run in PSEUDO_RUNS)
    assert sorted(golden["float_system"]) == sorted(run[0] for run in SYSTEM_RUNS)
    assert sorted(golden["samples"]) == sorted(run[0] for run in SAMPLE_RUNS)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {
            "derivations": {label: derivation_hashes(text)
                            for label, text in sorted(_texts().items())},
            "artifacts": {name: artifact_hashes(name, Path(tmp)) for name in BUNDLED},
            "data_path": {label: data_path_hashes(name, extra, Path(tmp))
                          for label, name, extra in DATA_RUNS},
            "pseudo": {label: pseudo_hash(name, method, seed, Path(tmp))
                       for label, name, method, seed in PSEUDO_RUNS},
            "float_system": {run[0]: system_hashes(*run[1:]) for run in SYSTEM_RUNS},
            "samples": {label: sample_hashes(args, files, Path(tmp))
                        for label, args, files in SAMPLE_RUNS},
        }
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
