import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from paramvariety import cli
from paramvariety.cli import build_parser, main

from .helpers import input_model_texts

MODELS = Path(__file__).resolve().parent.parent / "models"
VIRAL = str(MODELS / "viral.model")
DECAY = str(MODELS / "decay.model")
STATE_ASSUMED = str(Path(__file__).resolve().parent / "data"
                    / "state_assumed_nonzero.model")
VANISHING = str(Path(__file__).resolve().parent / "data"
                / "vanishing_denominator.model")

GEN_2D = [
    "--params", "a4=0.16,a5=0.95,a6=1,a7=5.6",
    "--x0", "x2=(a7/a6)*1.0e6,x3=1.0e6",
    "--t0", "0.2916666666666667",
    "--times", "1.8594,6.1602",
    "--method", "exact-viral",
]


def _run(*argv):
    return main(list(argv))


def test_ioeq_viral(tmp_path):
    assert _run("ioeq", "--model", VIRAL, "--out", str(tmp_path)) == 0
    text = (tmp_path / "ioeq.txt").read_text()
    assert "L = 2" in text
    assert "(a4*a5*a7) * y + (a4 + a7) * y' = -y''" in text
    # metadata: version, seed, input hash
    assert "paramvariety" in text and "seed: 0" in text and "sha256:" in text


def test_ioeq_missing_model(tmp_path):
    assert _run("ioeq", "--model", str(tmp_path / "nope.model"),
                "--out", str(tmp_path)) == 2


def test_ioeq_parse_error(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("states x1\n")
    assert _run("ioeq", "--model", str(bad), "--out", str(tmp_path)) == 2


def test_ioeq_without_parameters(tmp_path):
    src = """
states: x1
output: y
params:
horizon: 0 1
dx1/dt = x1
y = x1
"""
    model = tmp_path / "free.model"
    model.write_text(src)
    assert _run("ioeq", "--model", str(model), "--out", str(tmp_path)) == 0
    assert "note:" in (tmp_path / "ioeq.txt").read_text()


def test_pseudo_writes_table2_values(tmp_path):
    assert _run("pseudo", "--model", VIRAL, *GEN_2D, "--out", str(tmp_path)) == 0
    rows = [l for l in (tmp_path / "dataset.csv").read_text().splitlines()
            if l and not l.startswith("#")]
    header, r1, r2 = rows
    assert header.split(",")[:4] == ["t", "y", "y1", "y2"]
    vals = [float(x) for x in r1.split(",")[:4]]
    assert round(vals[1] / 1e4, 4) == 4.1781
    assert round(vals[2] / 1e4, 4) == -0.7127
    assert r1.endswith("exact_solution")


def test_pseudo_seed_does_not_change_fixed_times(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert _run("pseudo", "--model", VIRAL, *GEN_2D, "--out", str(a)) == 0
    assert _run("pseudo", "--model", VIRAL, *GEN_2D, "--seed", "9",
                "--out", str(b)) == 0
    da = [l for l in (a / "dataset.csv").read_text().splitlines()
          if not l.startswith("#")]
    db = [l for l in (b / "dataset.csv").read_text().splitlines()
          if not l.startswith("#")]
    assert da == db


def test_variety_end_to_end(tmp_path):
    out = tmp_path / "run"
    code = _run("variety", "--model", VIRAL, *GEN_2D,
                "--samples", "10", "--free", "a4",
                "--ranges", "a4=0:5.76,a5=0:1,a7=0:8",
                "--axes", "a4:a5,a4:a7,a7:a5",
                "--out", str(out))
    assert code == 0
    text = (out / "variety.txt").read_text()
    assert "625*a4*a5*a7 - 532 = 0" in text
    assert "25*a4 + 25*a7 - 144 = 0" in text
    assert "overall: Certified" in text
    assert "a6" in text  # reported as unconstrained
    doc = json.loads((out / "variety.json").read_text())
    assert doc["L"] == 2
    assert doc["extension"]["overall"] == "Certified"
    assert doc["v"][0] == pytest.approx(0.8512, abs=1e-9)
    for pair in ("a4_a5", "a4_a7", "a7_a5"):
        svg = (out / f"variety_{pair}.svg").read_text()
        assert svg.startswith("<svg") and "circle" in svg
    samples = (out / "samples.csv").read_text().splitlines()
    assert samples[-1].count(",") == 2


def test_variety_hashes_each_input_once(tmp_path, monkeypatch):
    assert _run("pseudo", "--model", VIRAL, *GEN_2D, "--out", str(tmp_path)) == 0
    data = str(tmp_path / "dataset.csv")
    hashed = []
    real = cli._sha16
    monkeypatch.setattr(cli, "_sha16", lambda path: hashed.append(path) or real(path))
    out = tmp_path / "run"
    assert _run("variety", "--model", VIRAL, "--data", data, "--samples", "4",
                "--free", "a4", "--ranges", "a4=0:5.76,a5=0:1,a7=0:8",
                "--out", str(out)) == 0
    assert sorted(hashed) == sorted([VIRAL, data])
    digests = {"model": real(VIRAL), "data": real(data)}
    assert json.loads((out / "variety.json").read_text())["inputs"] == digests
    for artifact in ("variety.txt", "samples.csv"):
        text = (out / artifact).read_text()
        assert f"# model: viral.model sha256:{digests['model']}" in text
        assert f"# data: dataset.csv sha256:{digests['data']}" in text


def test_variety_deterministic(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert _run("variety", "--model", VIRAL, *GEN_2D,
                    "--samples", "6", "--free", "a4",
                    "--ranges", "a4=0:5.76,a5=0:1,a7=0:8",
                    "--axes", "a4:a5",
                    "--out", str(out)) == 0
        outs.append(out)
    for artifact in ("variety.txt", "variety.json", "samples.csv",
                     "variety_a4_a5.svg"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def test_variety_1h_branch_note(tmp_path):
    code = _run("variety", "--model", VIRAL,
                "--params", "a4=0,a5=0.75,a6=1,a7=6.9",
                "--x0", "x2=(a7/a6)*4.1e6,x3=4.1e6",
                "--t0", "0.4166666666666667",
                "--times", "1.8594,6.1602",
                "--method", "exact-viral",
                "--out", str(tmp_path))
    assert code == 0
    text = (tmp_path / "variety.txt").read_text()
    assert "a4*a5*a7 = 0" in text
    assert "10*a4 + 10*a7 - 69 = 0" in text
    assert "union of branches" in text


def test_variety_too_few_points(tmp_path):
    data = tmp_path / "short.csv"
    data.write_text("t,y,y1,y2\n1.0,2.0,3.0,4.0\n")
    code = _run("variety", "--model", VIRAL, "--data", str(data),
                "--out", str(tmp_path))
    assert code == 2


@pytest.mark.parametrize("text, where", [
    ("t,y,y1,y2\n1.0,2.0,3.0,4.0\n2.0,5.0,6.0\n", "line 3: 3 fields"),
    ("# unit: days\nt,y,y1,y2\n1.0,2.0,3.0,4.0\n2.0,5.0,x,7.0\n",
     "line 4: y1 = 'x'"),
    ("t,y,y1,y2\n1.0,2.0,3.0,4.0\n2.0,5.0,nan,7.0\n", "line 3: y1 = 'nan'"),
    ("t,y,y1,y2,note\n1.0,2.0,3.0,4.0,a\n2.0,5.0,6.0,7.0,b\n", "line 1: expected"),
    ("t,y,y2\n1.0,2.0,4.0\n2.0,5.0,7.0\n", "line 1: expected"),
    ("t,y,y1,y2\n2.0,2.0,3.0,4.0\n1.0,5.0,6.0,7.0\n", "strictly increasing"),
], ids=["short-row", "non-numeric", "non-finite", "unknown-column", "y-gap",
        "unsorted-times"])
def test_variety_malformed_data_exits_usage(tmp_path, capsys, text, where):
    data = tmp_path / "bad.csv"
    data.write_text(text)
    code = _run("variety", "--model", VIRAL, "--data", str(data),
                "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}") and where in err


def test_variety_singular_data_exits_numeric(tmp_path):
    data = tmp_path / "flat.csv"
    data.write_text("t,y,y1,y2\n1.0,0,0,0\n2.0,0,0,0\n")
    code = _run("variety", "--model", VIRAL, "--data", str(data),
                "--out", str(tmp_path))
    assert code == 3


def test_extend_command(tmp_path):
    assert _run("extend", "--model", VIRAL, "--out", str(tmp_path)) == 0
    text = (tmp_path / "extension.txt").read_text()
    assert "overall: Certified" in text
    assert "a5*a6 - a6" in text


# Runs in a fresh interpreter: this test process has numpy loaded already.
_COLD_START_PROBE = """
import json, sys
import paramvariety
from paramvariety import cli
models, out = sys.argv[1], sys.argv[2]
nominal = {
    "decay": ("a1=-0.4", "x1=2.0"),
    "viral": ("a4=0.16,a5=0.95,a6=1.0,a7=5.6", "x2=(a7/a6)*1.0e6,x3=1.0e6"),
    "lotka_volterra": ("a1=1.0,a2=0.5,a3=5.0,a4=1.0,a5=0.2,a6=2.4",
                       "x1=1.0,x2=2.0"),
    "virus_full": ("a1=1.525e6,a2=0.01,a3=3e-7,a4=0.3,a5=0.9,a6=2.0,a7=5.0",
                   "x1=(a4*a7)/(a3*a6),x2=(a7/a6)*2.0e6,x3=2.0e6"),
}
for name, (params, x0) in nominal.items():
    model = ["--model", f"{models}/{name}.model", "--out", out]
    for command in ("ioeq", "extend"):
        assert cli.main([command, *model]) == 0
    generated = ["--params", params, "--x0", x0]
    assert cli.main(["variety", *model, *generated]) == 0
    assert cli.main(["pseudo", *model, *generated, "--method", "symbolic"]) == 0
exact = "numpy" in sys.modules
decay = ["--model", f"{models}/decay.model", "--out", out]
assert cli.main(["pseudo", *decay, "--params", "a1=-0.4", "--x0", "x1=2.0",
                 "--times", "0.5,1", "--method", "finite-difference"]) == 0
finite_difference = "numpy" in sys.modules
assert cli.main(["variety", *decay, "--data", f"{out}/dataset.csv"]) == 0
print(json.dumps([exact, finite_difference, "numpy" in sys.modules]))
"""


def test_exact_commands_do_not_load_numpy(tmp_path):
    """import paramvariety, ioeq, extend, and variety and pseudo on
    generated push-forward data stay off numpy on every bundled model, and
    so do finite-difference pseudo-data; the float solve (variety on that
    CSV) loads it on its first call, which shows the probe sees the
    import."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START_PROBE, str(MODELS), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, True]


def test_condition_names_the_solve_path(tmp_path):
    # generated push-forward data are solved exactly, which no condition
    # number bounds; a float dataset keeps its numeric condition
    assert _run("variety", "--model", VIRAL, "--params", "a4=0.16,a5=0.95,a6=1,a7=5.6",
                "--x0", "x2=(a7/a6)*1.0e6,x3=1.0e6", "--out", str(tmp_path / "exact")) == 0
    text = (tmp_path / "exact" / "variety.txt").read_text()
    assert ", condition = n/a (exact solve)\n" in text
    assert json.loads((tmp_path / "exact" / "variety.json").read_text())["cond"] is None
    assert _run("pseudo", "--model", VIRAL, *GEN_2D, "--out", str(tmp_path)) == 0
    assert _run("variety", "--model", VIRAL, "--data", str(tmp_path / "dataset.csv"),
                "--out", str(tmp_path / "float")) == 0
    cond = json.loads((tmp_path / "float" / "variety.json").read_text())["cond"]
    assert isinstance(cond, float) and 1.0 <= cond < 1e8
    text = (tmp_path / "float" / "variety.txt").read_text()
    assert f", condition = {cond:.6g}\n" in text


def test_sample_command_with_v(tmp_path):
    code = _run("sample", "--model", VIRAL, "--v", "0.8512,5.76",
                "--samples", "8", "--free", "a4",
                "--ranges", "a4=0:5.76,a5=0:1,a7=0:8",
                "--axes", "a4:a5",
                "--out", str(tmp_path))
    assert code == 0
    lines = [l for l in (tmp_path / "samples.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert lines[0] == "a4,a5,a7"
    assert len(lines) > 1
    assert (tmp_path / "variety_a4_a5.svg").exists()


def test_sample_v_matches_variety_data(tmp_path):
    # variety is the one command that turns a dataset into constraints: sample
    # given the v of variety.json at the 10 digits variety.txt prints grids
    # the same points, and sample takes no dataset
    assert _run("pseudo", "--model", VIRAL, *GEN_2D, "--out", str(tmp_path)) == 0
    data = str(tmp_path / "dataset.csv")
    grid = ["--samples", "8", "--free", "a4", *VIRAL_RANGES]
    assert _run("variety", "--model", VIRAL, "--data", data, *grid,
                "--out", str(tmp_path / "variety")) == 0
    v = json.loads((tmp_path / "variety" / "variety.json").read_text())["v"]
    assert _run("sample", "--model", VIRAL, "--v", ",".join(f"{x:.10g}" for x in v),
                *grid, "--out", str(tmp_path / "sample")) == 0
    rows = {}
    for command in ("sample", "variety"):
        rows[command] = [l for l in (tmp_path / command / "samples.csv")
                         .read_text().splitlines()
                         if l.startswith("# skipped:") or not l.startswith("#")]
    assert rows["sample"][:2] == ["# skipped: 0", "a4,a5,a7"]
    assert len(rows["sample"]) == 10
    assert rows["sample"] == rows["variety"]
    assert _run("sample", "--model", VIRAL, "--data", data, *grid,
                "--out", str(tmp_path / "sample-data")) == 2


def test_sample_needs_source(tmp_path):
    code = _run("sample", "--model", VIRAL, "--samples", "4",
                "--free", "a4", "--ranges", "a4=0:1",
                "--out", str(tmp_path))
    assert code != 0


def test_decay_pipeline(tmp_path):
    code = _run("variety", "--model", DECAY,
                "--params", "a1=-0.4", "--x0", "x1=2.0",
                "--times", "0.5,1.5",
                "--out", str(tmp_path))
    assert code == 0
    text = (tmp_path / "variety.txt").read_text()
    assert "overall: Certified" in text


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_main_twice_around_a_usage_error(tmp_path, capsys):
    # the parser is built once per process: a usage error between two runs
    # must leave it as it was
    argv = ["variety", "--model", DECAY, "--params", "a1=-0.4",
            "--x0", "x1=2.0", "--times", "0.5,1.5"]
    first, second = tmp_path / "first", tmp_path / "second"
    assert _run(*argv, "--out", str(first)) == 0
    assert _run(*argv, "--no-such-option", "--out", str(tmp_path)) == 2
    assert _run(*argv, "--out", str(second)) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert "variety.txt" in names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert build_parser() is build_parser()


VIRAL_GEN = ["--params", "a4=0.16,a5=0.95,a6=1,a7=5.6",
             "--x0", "x2=(a7/a6)*1.0e6,x3=1.0e6"]
VIRAL_SAMPLE = ["--v", "0.8512,5.76", "--samples", "4", "--free", "a4"]
VIRAL_RANGES = ["--ranges", "a4=0:5.76,a5=0:1,a7=0:8"]
DECAY_GEN = ["--params", "a1=-0.4", "--x0", "x1=2", "--times", "0.5,1",
             "--model", DECAY]


@pytest.mark.parametrize("argv", [
    ["variety", "--params", "a4=abc,a5=0.95,a6=1,a7=5.6",
     "--x0", "x2=(a7/a6)*1.0e6,x3=1.0e6"],
    ["variety", *VIRAL_GEN, "--times", "1,x,3"],
    ["variety", *VIRAL_GEN, "--times", "1,2,100"],
    ["variety", *VIRAL_GEN, "--times", "1,1,2"],
    ["variety", *VIRAL_GEN, "--t0", "-5"],
    ["variety", "--params", "a4=0.16,a5=1,a6=1,a7=5.6",
     "--x0", "x2=(a7/a6)*1.0e6,x3=1.0e6"],
    ["variety", "--params", "a4=0.16,a5=0.95,a6=0,a7=5.6",
     "--x0", "x2=(a7/a6)*1.0e6,x3=1.0e6"],
    ["sample", *VIRAL_SAMPLE, "--ranges", "a4=0:1"],
    ["sample", "--v", "0.8512,5.76", "--samples", "4", "--free", "a6",
     *VIRAL_RANGES],
    ["variety", "--x0", "x2=(a7/a6)*1.0e6,x3=1.0e6"],
    ["variety", "--params", "a4=0.16,a5=0.95,a6=1,a7=5.6"],
    ["sample", "--v", "0.8512,5.76", "--samples", "4", "--free", "a4"],
    ["sample", "--v", "0.8512", "--samples", "4", "--free", "a4", *VIRAL_RANGES],
    ["sample", "--v", "0.8512,abc", "--samples", "4", "--free", "a4",
     *VIRAL_RANGES],
    ["sample", *VIRAL_SAMPLE, *VIRAL_RANGES, "--axes", "a4:a6"],
    ["pseudo", *VIRAL_GEN, "--n-times", "0"],
    ["variety", "--params", "a1=-0.4", "--x0", "x1=2.0", "--times", "1,2",
     "--method", "exact-viral", "--model", DECAY],
    ["sample", "--v", "0.8512,5.76", "--samples", "-3", "--free", "a4",
     *VIRAL_RANGES],
    ["sample", "--v", "0.8512,5.76", "--free", "a4", *VIRAL_RANGES],
    ["variety", *VIRAL_GEN, "--times", "1.8594,6.1602", "--samples", "-3",
     "--free", "a4", *VIRAL_RANGES],
    ["sample", "--v", "0.8512,5.76", "--samples", "8", "--free", "a4",
     "--ranges", "a4=5.76:0,a5=0:1,a7=0:8"],
    ["sample", "--v", "0.8512,5.76", "--samples", "4", "--free", "a4,a4",
     *VIRAL_RANGES],
    ["variety", "--params", "a4=0.5,a5=0.3,a6=1.2,a7=0.8",
     "--x0", "x2=1,x3=2,x9=5"],
    ["variety", "--params", "a4=0.5,a4=0.7,a5=0.3,a6=1.2,a7=0.8",
     "--x0", "x2=1,x3=2"],
    ["variety", "--params", "a4=0.5,a5=0.3,a6=1.2,a7=0.8",
     "--x0", "x2=1,x2=3,x3=2"],
    ["sample", *VIRAL_SAMPLE, "--ranges", "a4=0:5.76,a5=0:1,a7=0:8,a4=0:1"],
    ["variety", "--params", "a4=0.5,a5=0.3,a6=1.2,a7=0.8",
     "--x0", "x2=2*x3,x3=2"],
    ["ioeq", "--model", STATE_ASSUMED],
    ["variety", "--params", "a4=0.5,a5=0.3,a6=1.2,a7=0.8",
     "--x0", "x2=a7*(a6,x3=2"],
    ["variety", "--params", "a1=0,a2=1", "--x0", "x1=1", "--model", VANISHING],
    ["pseudo", "--params", "a1=0,a2=1", "--x0", "x1=1", "--model", VANISHING],
    ["pseudo", "--params", "a1=0,a2=1", "--x0", "x1=1", "--method",
     "finite-difference", "--model", VANISHING],
    ["pseudo", *DECAY_GEN, "--t0", "nan"],
    ["variety", *DECAY_GEN, "--t0", "nan"],
    ["variety", *VIRAL_GEN, "--times", "2"],
], ids=["bad-param-value", "bad-time", "time-past-horizon", "repeated-time",
        "t0-before-horizon", "assumption-violated", "assumption-divides",
        "missing-range", "free-not-constrained", "missing-params",
        "missing-x0", "missing-ranges", "bad-v-count", "bad-v-value",
        "bad-axes", "zero-n-times", "closed-form-wrong-model",
        "negative-samples", "sample-without-samples", "variety-negative-samples",
        "reversed-range", "repeated-free", "unknown-x0-state", "repeated-param",
        "repeated-x0", "repeated-range", "state-in-x0", "state-in-assumption",
        "bad-x0-expression", "model-denominator-vanishes",
        "pseudo-model-denominator-vanishes", "difference-model-denominator-vanishes",
        "pseudo-nan-t0", "variety-nan-t0", "too-few-generated-times"])
def test_bad_arguments_exit_usage(tmp_path, capsys, argv):
    argv = argv[:1] + ["--model", VIRAL] + argv[1:] + ["--out", str(tmp_path)]
    assert _run(*argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("case", ["model-is-directory", "undecodable-model",
                                  "undecodable-data", "out-is-file"])
def test_unreadable_path_exits_usage(tmp_path, capsys, case):
    undecodable = tmp_path / "undecodable"
    undecodable.write_bytes(b"t,y,y1\n\xff\xfe\n")
    out = str(tmp_path / "out")
    argv = {"model-is-directory": ["ioeq", "--model", str(MODELS), "--out", out],
            "undecodable-model": ["ioeq", "--model", str(undecodable), "--out", out],
            "undecodable-data": ["variety", "--model", DECAY,
                                 "--data", str(undecodable), "--out", out],
            "out-is-file": ["ioeq", "--model", DECAY,
                            "--out", str(undecodable)]}[case]
    assert _run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if case.startswith("undecodable"):
        assert err.startswith(f"error: {undecodable}: 'utf-8' codec can't decode")


def test_variety_sampling_usage_checked_before_the_run(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("variety", "--model", VIRAL, *GEN_2D, "--samples", "5",
                "--free", "a4", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: sampling needs --ranges name=lo:hi,...\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("extra", [
    ["--axes", "a4:a9", *VIRAL_RANGES],
    ["--ranges", "a4=0:5.76,a5=0:1,a7=0:8,zz=0:1"],
], ids=["axes-not-a-parameter", "range-not-a-parameter"])
def test_sample_names_checked_before_sampling(tmp_path, capsys, extra):
    assert _run("sample", "--model", VIRAL, *VIRAL_SAMPLE, *extra,
                "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "samples.csv").exists()


LV_RANGES = "a1=0.3:3,a2=0.15:1.5,a3=1.5:15,a4=0.3:3,a5=0.06:0.6,a6=1:7.2"


@pytest.mark.parametrize("huge", ["a1=0.3:1e300", "a6=1:1e300"],
                         ids=["power-overflows", "norm-overflows"])
def test_sample_huge_range_skips_quietly(tmp_path, capsys, huge):
    # from a1 near 5e299 a power in the constraints overflows (OverflowError);
    # from a6 near 5e299 the residual norm does (a numpy RuntimeWarning): each
    # point is skipped and counted, with no error and no warning
    name = huge.partition("=")[0]
    ranges = ",".join(huge if r.startswith(f"{name}=") else r
                      for r in LV_RANGES.split(","))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run("sample", "--model", str(MODELS / "lotka_volterra.model"),
                    "--v", "0.5,-12,22,0,12,-1.5", "--free", "a3",
                    "--samples", "4", "--ranges", ranges, "--out", str(tmp_path))
    assert code == 0
    assert capsys.readouterr().err == ""
    lines = (tmp_path / "samples.csv").read_text().splitlines()
    assert lines[-2:] == ["# skipped: 4", "a1,a2,a3,a4,a5,a6"]


def test_variety_on_input_model_exits_usage(tmp_path, capsys):
    # integration needs input trajectories, which no option supplies
    model = tmp_path / "input.model"
    model.write_text(input_model_texts()["input"])
    code = _run("variety", "--model", str(model), "--params", "a1=1,a2=2",
                "--x0", "x1=1,x2=1", "--out", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: integration of models with external inputs")
    assert err.count("\n") == 1


@pytest.mark.parametrize("x0, message", [
    ("x2=2*x3,x3=2", "--x0 x2=2*x3: column 3: undeclared symbol 'x3'"),
    ("x2=a7*(a6,x3=2", "--x0 x2=a7*(a6: column 7: expected ')'"),
    ("x2=1,x3= 4 $ 2", "--x0 x3=4 $ 2: column 3: unexpected character '$'"),
], ids=["undeclared", "end-of-value", "bad-character"])
def test_x0_parse_error_names_option(tmp_path, capsys, x0, message):
    # the column counts within the value, not on a model file line
    code = _run("variety", "--model", VIRAL, "--params",
                "a4=0.5,a5=0.3,a6=1.2,a7=0.8", "--x0", x0, "--out", str(tmp_path))
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_vanishing_x0_denominator_exits_usage(tmp_path, capsys):
    # virus_full declares no assume_nonzero, so a3 = 0 reaches the x1 entry
    code = _run("variety", "--model", str(MODELS / "virus_full.model"),
                "--params", "a1=1.525e6,a2=0.01,a3=0,a4=0.3,a5=0.9,a6=2.0,a7=5.0",
                "--x0", "x1=(a4*a7)/(a3*a6),x2=(a7/a6)*2.0e6,x3=2.0e6",
                "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --x0 x1=(a4*a7)/(a3*a6): ")


@pytest.mark.parametrize("params, x0", [
    ("a4=0.5,a5=0.3,a6=1.2,a7=0.8", "x2=1e308*10,x3=2"),
    ("a4=1e10,a5=0.3,a6=1.2,a7=0.8", "x2=a4^400,x3=2"),
    ("a4=10,a5=0.3,a6=1.2,a7=0.8", "x2=a4*1e308,x3=2"),
], ids=["exact-constant", "float-power", "float-product"])
def test_overflowing_x0_exits_usage(tmp_path, capsys, params, x0):
    # the exact constant and the power raise OverflowError, the product
    # rounds to inf; each is an --x0 value no float holds
    code = _run("variety", "--model", VIRAL, "--params", params, "--x0", x0,
                "--out", str(tmp_path))
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: --x0 {x0.split(',')[0]}: ")


@pytest.mark.parametrize("name, value", [
    ("PARAMVARIETY_GB_MAX_PAIRS", "abc"),
    ("PARAMVARIETY_GB_MAX_BASIS", "-5"),
])
def test_bad_groebner_cap_exits_usage(tmp_path, capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    assert _run("ioeq", "--model", VIRAL, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
