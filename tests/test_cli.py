import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qswitch.cli
from qswitch.cli import UsageError, _load_noise, main, parse_gate, parse_state
from qswitch.experiment import NoiseParams
from qswitch.linalg import HAD, SX, SY, frobenius_distance_up_to_phase, require_state, require_unitary
from qswitch.waveplates import triple_to_unitary

from test_golden import GOLDEN, _dump, run_python

NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["", " ", "1e308", "-1e308", "1e-320", "nan", "inf", "0x1", "1_0"]),
)
# JSON values of a noise file's fields: floats with NaN and inf, and integers beyond float range
NOISE_VALUES = st.one_of(
    st.floats(), st.booleans(), st.text(), st.none(), st.lists(st.floats()),
    st.integers(), st.integers(min_value=2**1024), st.integers(max_value=-2**1024),
)
DISCRIMINATE_GOLDEN = json.loads((GOLDEN / "discriminate.json").read_text())


class TestParsers:
    def test_named_gates(self):
        assert np.allclose(parse_gate("X"), SX)
        assert np.allclose(parse_gate("H"), HAD)

    def test_waveplate_spec(self):
        u = parse_gate("wp:0,45,0")
        assert frobenius_distance_up_to_phase(u, SX) <= 1e-12

    def test_matrix_literal(self):
        u = parse_gate("0,0,1,0,1,0,0,0")
        assert np.allclose(u, SX)

    @pytest.mark.parametrize("spec, expected", [
        ("wp:10,20,30", triple_to_unitary([10, 20, 30])),
        ("0.6,0.8,0,0,0,0,0.6,-0.8", np.array([[0.6 + 0.8j, 0], [0, 0.6 - 0.8j]])),
    ], ids=["waveplates", "literal"])
    def test_spec_decodes_exactly(self, spec, expected):
        assert np.array_equal(parse_gate(spec), expected)

    def test_rejects_non_unitary_literal(self):
        with pytest.raises(ValueError):
            parse_gate("1,0,0,0,0,0,2,0")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_gate("sideways")

    def test_state_named_and_literal(self):
        assert np.allclose(parse_state("0"), [1, 0])
        assert np.array_equal(parse_state("-"), np.array([1, -1]) / np.sqrt(2))
        assert parse_state("+").flags.writeable  # a copy: the named states are shared
        psi = parse_state("1,0,1,0")
        assert np.allclose(psi, np.array([1, 1]) / np.sqrt(2))

    @pytest.mark.parametrize("name", list(qswitch.cli.NAMED_STATES))
    def test_padded_named_state(self, name):
        for spec in (f" {name}", f"{name} ", f"\t{name}\n"):
            assert np.array_equal(parse_state(spec), parse_state(name))

    def test_state_zero_norm(self):
        with pytest.raises(ValueError):
            parse_state("0,0,0,0")

    @pytest.mark.parametrize("spec", ["nan,0,0,0", "inf,0,0,0", "1,0,0,-inf"])
    def test_state_non_finite(self, spec):
        with pytest.raises(UsageError):
            parse_state(spec)

    @pytest.mark.parametrize("spec", ["wp:nan,0,0", "wp:0,inf,0"])
    def test_waveplate_non_finite(self, spec):
        with pytest.raises(UsageError):
            parse_gate(spec)

    @pytest.mark.parametrize("spec, expected", [
        ("1e308,0,1e308,0", np.array([1, 1]) / np.sqrt(2)),
        ("-1e308,1e308,1e308,-1e308", np.array([-1 + 1j, 1 - 1j]) / 2),
        ("1e-320,0,0,0", np.array([1, 0])),
    ])
    def test_state_extreme_magnitudes(self, spec, expected):
        assert np.allclose(parse_state(spec), expected, rtol=0, atol=1e-15)

    def test_huge_matrix_literal(self):
        with pytest.raises(UsageError):
            parse_gate("1e308,0,0,0,0,0,1e308,0")

    @given(st.one_of(
        st.text(),
        st.lists(NUMBER_TEXT, min_size=3, max_size=3).map(lambda xs: "wp:" + ",".join(xs)),
        st.lists(NUMBER_TEXT, min_size=8, max_size=8).map(",".join),
    ))
    def test_any_gate_text_is_unitary_or_usage_error(self, spec):
        try:
            u = parse_gate(spec)
        except UsageError:
            return
        assert u.shape == (2, 2)
        require_unitary(u)

    @given(st.one_of(st.text(), st.lists(NUMBER_TEXT, min_size=4, max_size=4).map(",".join)))
    def test_any_state_text_is_normalized_or_usage_error(self, spec):
        try:
            psi = parse_state(spec)
        except UsageError:
            return
        assert psi.shape == (2,)
        require_state(psi, 2)


class TestDiscriminate:
    def run(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_anticommuting_pair(self, capsys):
        code, out = self.run(
            capsys, "discriminate", "--u1", "X", "--u2", "Y", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "ANTICOMMUTE"
        assert data["p1"] == 1.0
        assert "warning" not in data

    def test_commuting_pair(self, capsys):
        code, out = self.run(
            capsys, "discriminate", "--u1", "I", "--u2", "I", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "COMMUTE"
        assert data["p0"] == 1.0

    def test_off_promise_pair_warns(self, capsys):
        code, out = self.run(
            capsys, "discriminate", "--u1", "X", "--u2", "H", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["p0"] == 0.5
        assert "warning" in data

    def test_overflowing_state_direction(self, capsys):
        code, out = self.run(
            capsys, "discriminate", "--u1", "X", "--u2", "Y", "--state", "1e308,0,1e308,0", "--json"
        )
        assert code == 0
        assert json.loads(out)["p1"] == 1.0

    def test_padded_named_state(self, capsys):
        expected = self.run(capsys, "discriminate", "--u1", "X", "--u2", "Y", "--state", "+", "--json")
        assert expected[0] == 0
        for state in (" +", "+ "):
            assert self.run(capsys, "discriminate", "--u1", "X", "--u2", "Y", "--state", state, "--json") == expected

    def test_bad_gate_spec_exit_code(self, capsys):
        assert main(["discriminate", "--u1", "nope", "--u2", "X"]) == 1

    @pytest.mark.parametrize("argv", [
        ["--u1", "X", "--u2", "Z", "--state", "nan,0,0,0"],
        ["--u1", "X", "--u2", "Z", "--state", "inf,0,0,0"],
        ["--u1", "wp:nan,0,0", "--u2", "Z"],
        ["--u1", "nan,0,0,0,0,0,1,0", "--u2", "Z"],
    ])
    def test_non_finite_input_exit_code(self, capsys, argv):
        assert main(["discriminate", *argv]) == 1
        assert capsys.readouterr().out == ""


class TestCompile:
    def test_round_trip(self, capsys):
        for spec, gate, residual in [("Y", SY, 1e-8), ("wp:10,20,30", triple_to_unitary((10, 20, 30)), 1e-12)]:
            assert main(["compile", spec, "--json"]) == 0
            data = json.loads(capsys.readouterr().out)
            u = triple_to_unitary((data["q_first"], data["h"], data["q_last"]))
            assert frobenius_distance_up_to_phase(u, gate) <= 1e-6, spec
            assert data["roundtrip_residual"] <= residual, spec

    def test_rejects_non_unitary(self, capsys):
        assert main(["compile", "1,0,0,0,0,0,2,0"]) == 1

    def test_rejects_seed(self, capsys):
        # compilation draws nothing at random, so it takes no seed
        assert main(["compile", "X", "--seed", "1"]) == 1


class TestSuite:
    def test_noiseless_pauli(self, tmp_path, capsys):
        noise_file = tmp_path / "noise.json"
        noise_file.write_text(json.dumps({
            "visibility": 1.0,
            "phase_drift_per_degree": 0.0,
            "phase_drift_per_minute": 0.0,
            "eta": 1.0,
        }))
        code = main([
            "suite", "pauli", "--noise", str(noise_file),
            "--out", str(tmp_path / "out"), "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mean_success"] == 1.0
        settings = (tmp_path / "out" / "pauli_settings.csv").read_text()
        assert settings.count("\n") == 17  # header + 16 settings
        summary = json.loads((tmp_path / "out" / "pauli_summary.json").read_text())
        assert summary["mean_success"] == 1.0

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        for sub in ("a", "b"):
            assert main([
                "suite", "pauli", "--out", str(tmp_path / sub), "--seed", "5",
            ]) == 0
        capsys.readouterr()
        a = (tmp_path / "a" / "pauli_settings.csv").read_bytes()
        b = (tmp_path / "b" / "pauli_settings.csv").read_bytes()
        assert a == b
        a = (tmp_path / "a" / "pauli_summary.json").read_bytes()
        b = (tmp_path / "b" / "pauli_summary.json").read_bytes()
        assert a == b

    def test_unknown_noise_key(self, tmp_path, capsys):
        noise_file = tmp_path / "noise.json"
        noise_file.write_text(json.dumps({"visibilty": 0.9}))
        out = tmp_path / "out"
        assert main(["suite", "pauli", "--noise", str(noise_file), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "'visibilty'" in err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        '{"pairs_per_setting": NaN}',
        '{"pairs_per_setting": 1e300}',
        '{"phase_setpoint": Infinity}',
        '{"visibility": "high"}',
        '{"visibility": 2.0}',
        '{"visibility": ',
        '[0.9]',
        pytest.param('{"pairs_per_setting": 1' + "0" * 400 + "}", id="pairs_per_setting-beyond-float-range"),
    ])
    def test_bad_noise_file(self, tmp_path, capsys, text):
        noise_file = tmp_path / "noise.json"
        noise_file.write_text(text)
        out = tmp_path / "out"
        assert main(["suite", "pauli", "--noise", str(noise_file), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_out_is_a_file(self, tmp_path, capsys, monkeypatch):
        def run(*args):
            raise AssertionError("suite ran before the output directory was made")

        monkeypatch.setattr(qswitch.cli, "run_pauli_suite", run)
        out = tmp_path / "taken"
        out.write_text("keep\n")
        assert main(["suite", "pauli", "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert out.read_text() == "keep\n"

    @given(st.dictionaries(st.sampled_from([f.name for f in dataclasses.fields(NoiseParams)]), NOISE_VALUES))
    def test_any_noise_file_is_noise_params_or_usage_error(self, tmp_path_factory, overrides):
        path = tmp_path_factory.getbasetemp() / "noise.json"
        path.write_text(json.dumps(overrides))
        try:
            noise = _load_noise(str(path))
        except UsageError:
            return
        assert isinstance(noise, NoiseParams)

    def test_missing_noise_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["suite", "pauli", "--noise", str(missing), "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestSamplePairs:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "pairs.csv"
        code = main([
            "sample-pairs", "--commuting", "3", "--anticommuting", "2",
            "--out", str(out), "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pairs"] == 5
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6
        assert lines[1].split(",")[1] == "COMMUTE"
        assert lines[-1].split(",")[1] == "ANTICOMMUTE"

    @pytest.mark.parametrize("where", ["under_a_file", "a_directory"])
    def test_unwritable_out(self, tmp_path, capsys, where):
        (tmp_path / "taken").write_text("keep\n")
        out = tmp_path / "taken" / "pairs.csv" if where == "under_a_file" else tmp_path
        assert main(["sample-pairs", "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_count_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "pairs.csv"
        for flag in ("--commuting", "--anticommuting"):
            assert main(["sample-pairs", flag, "-1", "--out", str(out)]) == 1
            assert f"argument {flag}: must be nonnegative" in capsys.readouterr().err
            assert not out.exists()


class TestBound:
    def test_small_sample_run(self, tmp_path, capsys):
        code = main([
            "bound", "--out", str(tmp_path), "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["p_succ"] == pytest.approx(0.9288, abs=0.005)
        assert data["table_pairs_success"] == pytest.approx(0.939, abs=0.01)
        assert data["switch_success_same_pairs"] >= 0.999
        assert data["lower"] <= data["upper"] and data["gap"] == data["upper"] - data["lower"]
        assert data["gap"] <= 1e-10
        last = {key: data[key] for key in ("primal_residual", "lower", "upper")}
        last.update(iteration=data["iterations"], objective=pytest.approx(data["lower"]))
        assert data["trace"][-1] == last
        rows = (tmp_path / "bound_evaluation.csv").read_text().strip().splitlines()
        assert len(rows) == 101

    def test_out_is_a_file_fails_before_the_solve(self, tmp_path, capsys, monkeypatch):
        def solve(*args):
            raise AssertionError("solver ran before the output directory was made")

        monkeypatch.setattr(qswitch.cli, "optimize_fixed_order", solve)
        out = tmp_path / "taken"
        out.write_text("keep\n")
        assert main(["bound", "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert out.read_text() == "keep\n"


@pytest.mark.parametrize("argv, out_name", [
    (["suite", "pauli", "--seed", "-1"], "out"),
    (["bound", "--seed", "-2"], "out"),
    (["sample-pairs", "--seed", "-3"], "pairs.csv"),
    (["suite", "pauli", "--seed", "1.5"], "out"),
])
def test_bad_seed_is_usage_error(tmp_path, capsys, argv, out_name):
    out = tmp_path / out_name
    assert main(argv + ["--out", str(out)]) == 1
    assert "--seed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["discriminate", "--u1", "wp:nan,0,0", "--u2", "X"],
    ["compile", "1e308,0,0,0,0,0,1e308,0"],
    ["sample-pairs", "--commuting", "-1", "--out", "x.csv"],
], ids=["nan-plate", "overflowing-matrix", "negative-count"])
def test_malformed_input_in_a_fresh_process_exits_1_and_writes_nothing(tmp_path, args):
    done = run_python(tmp_path, "-m", "qswitch.cli", *args)
    assert (done.returncode, done.stdout) == (1, b""), done.stderr
    assert list(tmp_path.iterdir()) == []


def test_noise_file_whose_drift_overflows_the_phase_is_a_numerical_failure(tmp_path):
    # a valid NoiseParams whose drift times a plate offset overflows to an infinite phase
    (tmp_path / "noise.json").write_text(json.dumps({"phase_drift_per_degree": 1e308}))
    done = run_python(tmp_path, "-m", "qswitch.cli", "suite", "pauli", "--noise", "noise.json",
                      "--out", "out")
    assert (done.returncode, done.stdout) == (2, b""), done.stderr
    assert done.stderr.startswith(b"numerical failure: non-finite phase"), done.stderr
    assert b"RuntimeWarning" not in done.stderr
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["noise.json", "out"]


@pytest.mark.parametrize("case", DISCRIMINATE_GOLDEN)
def test_discriminate_in_a_fresh_process_prints_the_golden_payload(tmp_path, case):
    # the printed bytes, which test_golden compares only after parsing and re-dumping them
    u1, u2, state = case.split()
    done = run_python(tmp_path, "-m", "qswitch.cli", "discriminate", "--u1", u1, "--u2", u2,
                      "--state", state, "--json")
    assert (done.returncode, done.stdout) == (0, _dump(DISCRIMINATE_GOLDEN[case])), done.stderr
