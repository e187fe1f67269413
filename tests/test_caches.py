"""Values built once per process, on first use: the CLI parser, the settings of
the three packaged suites, the table pairs, Omega, the solver's block
coordinates and the identities of the unitarity check.

A cold cache (a fresh interpreter) and a warm one (a second call in this
process) must give the same bytes, no caller may change a cached value, and
importing the package must build none of them.
"""

import json
import operator

import numpy as np
import pytest

from qswitch import cli, comb, experiment, linalg, waveplates
from qswitch.waveplates import load_random_pairs_table, table_gate_pairs

from test_golden import GOLDEN, golden_outputs, run_python

# every functools.cache of the package; all take no argument but _identity, which takes a size
CACHES = {
    "cli.build_parser": cli.build_parser,
    "experiment._plus_pauli_settings": experiment._plus_pauli_settings,
    "experiment._sweep_settings": experiment._sweep_settings,
    "experiment._table_settings": experiment._table_settings,
    "waveplates._packaged_table_pairs": waveplates._packaged_table_pairs,
    "comb.objective_operator": comb.objective_operator,
    "comb._block_coordinates": comb._block_coordinates,
    "linalg._identity": linalg._identity,
}
SETTINGS = ("_plus_pauli_settings", "_sweep_settings", "_table_settings")

# every array that a cache hands out: the cache and the attribute path that holds it
CACHED_ARRAYS = (
    [("comb.objective_operator", None), ("linalg._identity", None)]
    + [("waveplates._packaged_table_pairs", k) for k in ("u1", "u2", "port")]
    + [("comb._block_coordinates", k) for k in ("basis", "to_blocks", "from_blocks", "offset", "affine")]
    + [(f"experiment.{name}", k) for name in SETTINGS
       for k in ("pairs.u1", "pairs.u2", "pairs.port", "angles", "psi")]
)


def cache_sizes() -> dict[str, int]:
    return {name: f.cache_info().currsize for name, f in CACHES.items()}


def cached_array(name: str, attr: str | None) -> np.ndarray:
    value = CACHES[name](2) if name == "linalg._identity" else CACHES[name]()
    return value if attr is None else operator.attrgetter(attr)(value)


def test_fresh_interpreter_builds_nothing_at_import_and_matches_golden(tmp_path):
    done = run_python(
        tmp_path, "-c",
        "import json, sys, qswitch.cli, test_caches, test_golden\n"
        "from pathlib import Path\n"
        "print(json.dumps(test_caches.cache_sizes()))\n"
        "out = Path(sys.argv[1])\n"
        "for name, data in test_golden.golden_outputs(out / 'cli').items():\n"
        "    (out / name).write_bytes(data)\n",
        str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == dict.fromkeys(CACHES, 0)
    for path in GOLDEN.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def test_golden_outputs_with_warm_caches(tmp_path):
    for run in range(2):
        files = golden_outputs(tmp_path / str(run))
        assert all(cache_sizes().values())
        for name, data in files.items():
            assert data == (GOLDEN / name).read_bytes(), (run, name)


@pytest.mark.parametrize("name", [name for name in CACHES if name != "linalg._identity"])
def test_second_call_returns_the_same_object(name):
    assert CACHES[name]() is CACHES[name]()


def test_identity_is_cached_per_size():
    assert linalg._identity(2) is linalg._identity(2)
    assert linalg._identity(3).shape == (3, 3)
    assert np.array_equal(linalg._identity(2), np.eye(2))


def test_table_pairs_of_a_given_table_are_built_per_call():
    table = load_random_pairs_table()
    pairs = table_gate_pairs(table)
    assert pairs is not table_gate_pairs(table) and pairs.u1.flags.writeable
    shared = table_gate_pairs()
    assert np.array_equal(pairs.u1, shared.u1) and np.array_equal(pairs.port, shared.port)


def test_pauli_table_is_read_once_for_both_pauli_suites(monkeypatch):
    calls = []
    monkeypatch.setattr(experiment, "load_pauli_table",
                        lambda: calls.append(1) or waveplates.load_pauli_table())
    experiment._plus_pauli_settings.cache_clear()
    experiment._sweep_settings.cache_clear()
    sweep, pauli = experiment._sweep_settings(), experiment._plus_pauli_settings()
    assert len(calls) == 1
    # the sweep's second state repeats the 16 Pauli settings
    assert np.array_equal(sweep.pairs.u1[16:32], pauli.pairs.u1)
    assert sweep.ids[16:18] == ("hwp10:II", "hwp10:IX")


def test_table_settings_hold_the_one_cached_table_pairs():
    settings = experiment._table_settings()
    assert settings.pairs is table_gate_pairs()
    assert settings.ids[:2] == ("C1", "C2") and settings.ids[50:52] == ("A1", "A2")


@pytest.mark.parametrize("name, attr", CACHED_ARRAYS)
def test_cached_arrays_are_read_only(name, attr):
    x = cached_array(name, attr)
    before = x.copy()
    with pytest.raises(ValueError, match="read-only"):
        x[...] = before
    assert not x.flags.writeable


def test_cached_pairs_cannot_be_set():
    pairs = table_gate_pairs()
    before = pairs.u1.copy(), pairs.port.copy()
    with pytest.raises(ValueError, match="read-only"):
        pairs[0] = pairs[60]
    assert np.array_equal(pairs.u1, before[0]) and np.array_equal(pairs.port, before[1])


@pytest.mark.parametrize("name", SETTINGS)
def test_settings_ids_are_a_tuple(name):
    settings = getattr(experiment, name)()
    assert isinstance(settings.ids, tuple)
    with pytest.raises(AttributeError):
        settings.ids = ()
