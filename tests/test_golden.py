"""Golden hashes of the exact outputs: reduced bases, IO equations, extension
reports and the ioeq.txt/extension.txt artifacts the CLI writes.

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
from paramvariety.extension import run_extension_check
from paramvariety.ioeq import derive_io_basis
from paramvariety.model import parse_model

from .conftest import MODELS
from .helpers import derive_inputs, input_model_texts

DATA = Path(__file__).resolve().parent / "data" / "golden_sha256.json"
BUNDLED = ("decay", "viral", "lotka_volterra", "virus_full")


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


def test_golden_covers_every_input():
    golden = _golden()
    assert sorted(golden["derivations"]) == sorted(_texts())
    assert sorted(golden["artifacts"]) == sorted(BUNDLED)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {
            "derivations": {label: derivation_hashes(text)
                            for label, text in sorted(_texts().items())},
            "artifacts": {name: artifact_hashes(name, Path(tmp)) for name in BUNDLED},
        }
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
