"""Values built once per process, on first use: the CLI parser, the settings of
the three packaged suites, the random-pairs table and its gate pairs, Omega
and the solver's block coordinates.

A cold cache (a fresh interpreter) and a warm one (a second call in this
process) must give the same bytes, no caller may change a cached value, and
importing the package must build none of them.
"""

import importlib
import json
import operator
import pkgutil

import numpy as np
import pytest

import qswitch
from qswitch import cli, comb, experiment, waveplates
from qswitch.waveplates import table_gate_pairs

from test_golden import GOLDEN, golden_outputs, run_python

# every functools.cache of the package; none takes an argument
CACHES = {
    "cli.build_parser": cli.build_parser,
    "experiment._plus_pauli_settings": experiment._plus_pauli_settings,
    "experiment._sweep_settings": experiment._sweep_settings,
    "experiment._table_settings": experiment._table_settings,
    "waveplates.load_random_pairs_table": waveplates.load_random_pairs_table,
    "waveplates.table_gate_pairs": waveplates.table_gate_pairs,
    "comb.objective_operator": comb.objective_operator,
    "comb._block_coordinates": comb._block_coordinates,
}
SETTINGS = ("_plus_pauli_settings", "_sweep_settings", "_table_settings")

# every array that a cache hands out: the cache and the attribute path that holds it
CACHED_ARRAYS = (
    [("comb.objective_operator", None)]
    + [("waveplates.load_random_pairs_table", "angles")]
    + [("waveplates.table_gate_pairs", k) for k in ("u1", "u2", "port")]
    + [("comb._block_coordinates", k) for k in ("gate_wires", "weights", "valid", "offset", "affine")]
    + [(f"experiment.{name}", k) for name in SETTINGS
       for k in ("pairs.u1", "pairs.u2", "pairs.port", "angles", "psi", "overlap", "mean_norm", "offset",
                 "minutes")]
)


def cache_sizes() -> dict[str, int]:
    return {name: f.cache_info().currsize for name, f in CACHES.items()}


def cached_array(name: str, attr: str | None) -> np.ndarray:
    value = CACHES[name]()
    return value if attr is None else operator.attrgetter(attr)(value)


def test_caches_names_every_cache_of_the_package():
    modules = [importlib.import_module(f"qswitch.{m.name}") for m in pkgutil.iter_modules(qswitch.__path__)]
    # by identity: cli and experiment import some of the caches that waveplates defines
    found = {id(obj): obj for module in modules for obj in vars(module).values() if hasattr(obj, "cache_info")}
    listed = set(map(id, CACHES.values()))
    assert [cache.__qualname__ for key, cache in found.items() if key not in listed] == []
    assert set(found) == listed


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


@pytest.mark.parametrize("name", CACHES)
def test_second_call_returns_the_same_object(name):
    assert CACHES[name]() is CACHES[name]()


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


def test_random_pairs_table_is_parsed_once_for_the_table_suite():
    for cache in (waveplates.load_random_pairs_table, waveplates.table_gate_pairs, experiment._table_settings):
        cache.cache_clear()
    experiment._table_settings()
    assert waveplates.load_random_pairs_table.cache_info().misses == 1


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
