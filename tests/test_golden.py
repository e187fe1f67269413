"""Deterministic outputs, compared byte for byte with ``tests/golden/``.

The golden files hold the written files of ``qswitch suite {pauli,random100,
statesweep} --seed 0``, ``bound_evaluation.csv`` with the solver-independent
fields of ``bound --json``, the rounded angles of ``compile --json``, and the
payloads of ``discriminate --json`` for a few gate pairs and input states.
``explicit_pairs_suite.txt`` holds the settings CSV and the summary JSON of
``run_random_suite`` on 50 + 50 explicitly sampled pairs, the library path
that no CLI suite takes.
Raw residual floats are left out because they depend on the numpy build.
So are ``bound``'s unrounded ``lower``, ``upper``, ``gap`` and ``trace``: they
move in their last bits with the BLAS path, not only with the values.
``_BlockCoordinates.reduce`` returns a strided ``.real`` view, and a
contiguous copy of it with identical values (``np.ldexp(target, 0)``) moves
``lower`` from 0.9288126092336872 to ...6874.

Regenerate them, only when an output is meant to change, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from qswitch.cli import main
from qswitch.experiment import NoiseParams, run_random_suite
from qswitch.gates import RandomSource, sample_pairs

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]))
SUITES = ("pauli", "random100", "statesweep")
BOUND_KEYS = ("p_succ", "iterations", "table_pairs_success", "switch_success_same_pairs")
COMPILE_SPECS = ("I", "X", "Y", "Z", "H", "wp:10,20,30")
# (u1, u2, state): one exit_probabilities call each, on the switch's one-pair path
DISCRIMINATE_CASES = (
    ("X", "Y", "+"),
    ("X", "X", "+"),
    ("H", "Z", "+"),
    ("wp:0,45,0", "Z", "0"),
    ("wp:10,20,30", "wp:1,2,3", "0.6,0,0,0.8"),
)
NAMES = [f"{which}_{kind}" for which in SUITES for kind in ("settings.csv", "summary.json")] + [
    "bound_evaluation.csv", "bound.json", "compile.json", "discriminate.json",
    "explicit_pairs_suite.txt"]


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue()


def run_python(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """``python args`` in a fresh interpreter run in ``cwd``, with the package and
    the tests importable; output as bytes.  A RuntimeWarning is an error, as
    pyproject.toml's filterwarnings makes it for in-process tests."""
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args], cwd=cwd, env=ENV,
                          capture_output=True, timeout=120)


def _dump(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def golden_outputs(out: Path) -> dict[str, bytes]:
    """Every golden file's fresh contents, by file name; ``out`` takes the CLI's files."""
    files = {}
    for which in SUITES:
        _stdout(["suite", which, "--seed", "0", "--out", str(out)])
        for name in (f"{which}_settings.csv", f"{which}_summary.json"):
            files[name] = (out / name).read_bytes()
    bound = json.loads(_stdout(["bound", "--json", "--out", str(out)]))
    files["bound_evaluation.csv"] = (out / "bound_evaluation.csv").read_bytes()
    files["bound.json"] = _dump({key: bound[key] for key in BOUND_KEYS})
    angles = {}
    for spec in COMPILE_SPECS:
        payload = json.loads(_stdout(["compile", spec, "--json"]))
        angles[spec] = [payload[key] for key in ("q_first", "h", "q_last")]
    files["compile.json"] = _dump(angles)
    verdicts = {}
    for u1, u2, state in DISCRIMINATE_CASES:
        argv = ["discriminate", "--u1", u1, "--u2", u2, "--state", state, "--json"]
        verdicts[f"{u1} {u2} {state}"] = json.loads(_stdout(argv))
    files["discriminate.json"] = _dump(verdicts)
    report = run_random_suite(NoiseParams(), RandomSource(3), pairs=sample_pairs(RandomSource(2), 50, 50))
    text = io.StringIO(newline="")
    csv.writer(text).writerows(report.csv_rows())
    files["explicit_pairs_suite.txt"] = (text.getvalue() + report.to_json() + "\n").encode()
    return files


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("golden"))


def test_golden_set_is_complete(fresh):
    assert sorted(fresh) == sorted(NAMES) == sorted(p.name for p in GOLDEN.iterdir())


@pytest.mark.parametrize("name", NAMES)
def test_output_matches_golden(fresh, name):
    assert fresh[name] == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in golden_outputs(Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
