"""Tests for config parsing, the run/compare verbs, and export formatting."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import weakquasi
from oracles import evolve_projector, projector
from weakquasi.cli import (
    MAX_DIMENSION, MAX_GRID_CELLS, MAX_RESAMPLES, QUANTITIES, ConfigError, ScenarioConfig, _parser, compare, main,
    parse_config, run,
)
from weakquasi.core import InternalConsistencyError, make_pure_state
from weakquasi.quasiprob import weak_mhq
from weakquasi.sampling import MAX_SHOTS, NoiseModel
from weakquasi.schemes import tpm_joint, weak_sequential_closed

MINIMAL = '{"theta0": 10.6}'


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


# ---------------------------------------------------------------- parsing

def test_parse_minimal_config_defaults(cs):
    config = parse_config(MINIMAL)
    c, s = cs
    assert_allclose(config.rho.matrix, make_pure_state([c, s]).matrix, atol=1e-15)
    assert config.obs_a.labels == ("H", "V")
    assert config.obs_b.labels == ("D", "D⊥")
    assert config.shots is None
    assert config.noise.gate_visibility == 1.0
    assert config.seed == 0
    assert config.k_values == tuple(np.linspace(0, 1, 11))
    assert "weak_cq" in config.outputs and "thresholds" in config.outputs


def test_parse_phi_grid():
    config = parse_config('{"theta0": 10.6, "phi": [0.0, 22.5]}')
    assert config.k_values[0] == pytest.approx(1.0, abs=1e-15)
    assert config.k_values[1] == pytest.approx(0.0, abs=1e-15)


def test_parse_rejects_conflicting_strength_fields():
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse_config('{"theta0": 10.6, "K": [0.5], "phi": [10.0]}')


def test_parse_rejects_waveplate_out_of_range():
    with pytest.raises(ConfigError, match="phi"):
        parse_config('{"theta0": 10.6, "phi": [30.0]}')


def test_parse_rejects_strength_out_of_range():
    with pytest.raises(ConfigError, match="outside"):
        parse_config('{"theta0": 10.6, "K": [1.2]}')


def test_parse_rejects_unknown_field():
    with pytest.raises(ConfigError, match="unknown config field"):
        parse_config('{"theta0": 10.6, "thetaO": 3}')


def test_parse_reports_json_location():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config('{"theta0": 10.6,}')


def test_parse_rejects_nonphysical_state():
    with pytest.raises(ConfigError, match="state"):
        parse_config('{"state": [0, 0]}')
    with pytest.raises(ConfigError, match="state"):
        parse_config('{"state": {"density": [[1.5, 0], [0, -0.5]]}}')


def test_parse_requires_a_key_for_a_bare_list_of_lists():
    for spec in ([[0.5, 0], [0, 0.5]], [[1, 0], [0, 1]], [[0.6, 0.0], [0.0, 0.8]]):
        with pytest.raises(ConfigError, match="config field 'state'") as info:
            parse_config(json.dumps({"state": spec}))
        assert '{"amplitudes": [...]}' in str(info.value) and '{"density": [...]}' in str(info.value)
    # [re, im] pairs stay valid under "amplitudes" and beside plain numbers
    pairs = parse_config('{"state": {"amplitudes": [[0.6, 0.0], [0.0, 0.8]]}}').rho.matrix
    mixed = parse_config('{"state": [0.6, [0.0, 0.8]]}').rho.matrix
    assert_allclose(pairs, mixed, atol=1e-15)
    assert_allclose(pairs, make_pure_state([0.6, 0.8j]).matrix, atol=1e-15)
    density = parse_config('{"state": {"density": [[0.5, 0], [0, 0.5]]}}').rho.matrix
    assert_allclose(density, np.eye(2) / 2, atol=1e-15)


def test_parse_rejects_both_state_specs():
    with pytest.raises(ConfigError, match="not both"):
        parse_config('{"theta0": 10.6, "state": [1, 0]}')


def test_parse_custom_observable_and_amplitudes():
    doc = {
        "state": {"amplitudes": [[0.6, 0.0], [0.0, 0.8]]},
        "observable_a": {"eigenvectors": [[1, 0], [0, 1]], "labels": ["up", "down"]},
        "K": [0.5],
    }
    config = parse_config(json.dumps(doc))
    assert config.obs_a.labels == ("up", "down")
    assert config.rho.matrix[0, 0] == pytest.approx(0.36, abs=1e-12)
    assert config.rho.matrix[0, 1] == pytest.approx(-0.48j, abs=1e-12)
    # no output reads an eigenvalue, so the retired key is unknown like any other
    doc["observable_a"]["eigenvalues"] = [0.5, -0.5]
    with pytest.raises(ConfigError, match=r"config field 'observable_a': unknown keys \['eigenvalues'\]"):
        parse_config(json.dumps(doc))


def test_parse_hamiltonian_evolves_second_observable():
    from weakquasi.core import pauli_x

    quarter = math.pi / 4
    doc = {
        "theta0": 10.6,
        "hamiltonian": [[0, [0, -quarter]], [[0, quarter], 0]],
        "dt": 1.0,
        "K": [0.5],
    }
    config = parse_config(json.dumps(doc))
    h = np.array([[0, -1j], [1j, 0]]) * quarter
    for b in range(2):
        expected = evolve_projector(projector(pauli_x().eigenvectors, b), h, 1.0)
        assert np.abs(projector(config.obs_b.eigenvectors, b) - expected).max() <= 1e-12
    # the rotation moved the eigenbasis away from plain X
    assert np.abs(projector(config.obs_b.eigenvectors, 0) - projector(pauli_x().eigenvectors, 0)).max() > 0.1


def test_parse_rejects_dt_without_hamiltonian():
    with pytest.raises(ConfigError, match="hamiltonian"):
        parse_config('{"theta0": 10.6, "dt": 0.5}')


def test_parse_rejects_bad_outputs_and_engine():
    with pytest.raises(ConfigError, match="outputs"):
        parse_config('{"theta0": 10.6, "outputs": ["p_weak", "wigner"]}')
    with pytest.raises(ConfigError, match="engine"):
        parse_config('{"theta0": 10.6, "engine": "magic"}')
    # the sweep has one engine, so a valid key is checked and then ignored
    for engine in ("circuit", "closed"):
        config = parse_config(json.dumps({"theta0": 10.6, "engine": engine, "noise": 0.9}))
        assert not hasattr(config, "engine") and config.noise.gate_visibility == 0.9


def test_parse_shots_and_noise_validation():
    assert parse_config('{"theta0": 10.6, "shots": 5000}').shots == 5000
    assert parse_config(json.dumps({"theta0": 10.6, "shots": MAX_SHOTS})).shots == MAX_SHOTS
    # the key is still validated, though the sweep's error bars no longer read it
    assert not hasattr(parse_config(json.dumps({"theta0": 10.6, "resamples": MAX_RESAMPLES})), "resamples")
    with pytest.raises(ConfigError, match="shots"):
        parse_config('{"theta0": 10.6, "shots": 0}')
    with pytest.raises(ConfigError, match="noise"):
        parse_config('{"theta0": 10.6, "noise": 1.5}')


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"dimension": "x"}, "dimension"),
        ({"theta0": "x"}, "theta0"),
        ({"shots": "lots"}, "shots"),
        ({"resamples": None}, "resamples"),
        ({"K": {"num": -1}}, "K.num"),
        ({"K": "abc"}, "K"),
        ({"K": []}, "K"),
        ({"phi": []}, "phi"),
        ({"seed": -1}, "seed"),
        ({"noise": None}, "noise"),
        ({"outputs": 5}, "outputs"),
        # repeated grid values would write duplicate row keys
        ({"K": [0.5, 0.5]}, "K"),
        ({"K": [0.5, 0.5 + 1e-14]}, "K"),
        ({"K": {"start": 0.5, "stop": 0.5, "num": 2}}, "K"),
        ({"phi": [10.0, 10.0]}, "phi"),
        ({"K": {"num": 10**9}}, "K.num"),
        ({"K": [10**400]}, "K"),
        ({"theta0": 1e308}, "theta0"),
        ({"hamiltonian": None}, "hamiltonian"),
        ({"hamiltonian": [[1, 0], [0]]}, "hamiltonian"),
        # a phase H*dt beyond the float range is rejected before exp(i H dt) is taken
        ({"hamiltonian": [[2, 0], [0, -2]], "dt": 1e308}, "hamiltonian"),
        ({"observable_a": {"eigenvectors": [[1, 0], [0, 1]], "labels": ["a", "a"]}}, "observable_a.labels"),
        ({"observable_a": {"eigenvectors": [[1, 0], [0, 1]], "labels": 5}}, "observable_a.labels"),
        ({"observable_a": {"eigenvectors": [[1, 0], [0, 1]], "eigenvalues": [0.5, -0.5]}}, "observable_a"),
        ({"observable_a": {"eigenvectors": 5}}, "observable_a.eigenvectors"),
        ({"shots": 1000, "resamples": -1}, "resamples"),
        # beyond MAX_SHOTS the int64 count sums could overflow
        ({"shots": 1e19}, "shots"),
        ({"shots": 10**16}, "shots"),
        ({"shots": 1e30}, "shots"),
        # the MHQ inversion would amplify rounding dust by 1 / cross_weight ~ 6e15
        ({"K": [1e-20, 1e-12, 0.5]}, "K"),
        # the retired key still holds older documents to its old bound, MAX_RESAMPLES
        ({"shots": 1000, "resamples": 1e12}, "resamples"),
        ({"shots": 1000, "resamples": 1e8}, "resamples"),
        ({"outputs": ["p_weak", "p_weak"]}, "outputs"),
        # a long list whose only repeat is its last value: one counting pass, not one per key
        ({"K": [i / 10_000 for i in range(9_999)] + [0.9998]}, "K"),
        # the maximally mixed density without its "density" key also parses as [re, im] pairs
        ({"state": [[0.5, 0], [0, 0.5]]}, "state"),
        # a matrix of the wrong size is named by its own field, before any matrix is built from it
        ({"observable_a": {"eigenvectors": np.eye(3).tolist()}}, "observable_a"),
        ({"observable_b": {"eigenvectors": np.eye(3).tolist()}}, "observable_b"),
        ({"hamiltonian": np.eye(3).tolist()}, "hamiltonian"),
        # nested objects reject unknown keys, as the document and the K range do
        ({"observable_a": {"eigenvectors": [[1, 0], [0, 1]], "eigenvalue": [5, 6]}}, "observable_a"),
        ({"observable_b": {"eigenvectors": [[1, 0], [0, 1]], "name": 5}}, "observable_b"),
        ({"state": {"amplitudes": [1, 0], "density": [[1, 0], [0, 0]]}}, "state"),
        ({"state": {"amplitudes": [1, 0], "phase": 0}}, "state"),
        ({"state": {}}, "state"),
        # JSON booleans are not numbers, though bool is an int subclass
        ({"state": [True, False]}, "state"),
        ({"state": {"density": [[True, False], [False, False]]}}, "state.density"),
        ({"observable_a": {"eigenvectors": [[True, False], [False, True]]}}, "observable_a.eigenvectors"),
        ({"hamiltonian": [[True, False], [False, True]]}, "hamiltonian"),
        # one exported row is one line, and csv.writer leaves a carriage return unquoted
        ({"observable_a": {"eigenvectors": [[1, 0], [0, 1]], "labels": ["H\rx", "V"]}}, "observable_a.labels"),
        ({"observable_b": {"eigenvectors": [[1, 0], [0, 1]], "labels": ["D", "A\n"]}}, "observable_b.labels"),
        # finite amplitudes whose norm overflows, and a phase H*dt past the float range, each
        # give one error line and no numpy warning
        ({"state": {"amplitudes": [1e308, 1e308]}}, "state"),
        ({"hamiltonian": [[1e300, 0], [0, -1e300]], "dt": 1e10}, "hamiltonian"),
        # finite matrices whose Hermiticity check, trace or Gram matrix overflows are rejected
        # by that check, without a numpy warning
        ({"hamiltonian": [[0, 1e308], [-1e308, 0]]}, "hamiltonian"),
        ({"state": {"density": [[1, 1e308], [-1e308, 0]]}}, "state"),
        ({"state": {"density": [[1e308, 0], [0, 1e308]]}}, "state"),
        ({"observable_a": {"eigenvectors": [[1e308, 1e308], [1e308, -1e308]]}}, "observable_a"),
        # a grid is a list (or, for K, a range), never a bare number
        ({"K": 0.5}, "K"),
        ({"phi": 10}, "phi"),
        ({"phi": {"start": 0.0, "stop": 22.5, "num": 3}}, "phi"),
        # an angle so near 22.5 that its K misses the cross-weight floor is named by the grid's field
        ({"phi": [10.0, 22.49999999]}, "phi"),
    ],
)
def test_parse_rejects_malformed_field_values(tmp_path, capsys, fields, name):
    doc = {**({} if "state" in fields else {"theta0": 10.6}), **fields}
    with pytest.raises(ConfigError, match=f"config field '{name}'"):
        parse_config(json.dumps(doc))
    path = write_config(tmp_path, "bad.json", doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: config field '{name}'")


@pytest.mark.parametrize(
    "fields, message",
    [
        # a wrong-sized matrix is named by its own field, with its size
        ({"observable_b": {"eigenvectors": np.eye(3).tolist()}}, "config field 'observable_b': has dimension 3"),
        ({"observable_a": {"eigenvectors": np.eye(3).tolist()}}, "config field 'observable_a': has dimension 3"),
        ({"hamiltonian": np.eye(3).tolist()}, "config field 'hamiltonian': has dimension 3"),
        # one unknown-key rule, which keeps the messages of the document and the K range
        ({"x": 1}, "unknown config field(s): ['x']"),
        ({"K": {"num": 3, "step": 1}}, "config field 'K': unknown range keys ['step']"),
        ({"observable_a": {"eigenvectors": [[1, 0], [0, 1]], "eigenvalue": [5, 6]}},
         "config field 'observable_a': unknown keys ['eigenvalue']"),
        # amplitudes that are not a list say what was expected, not Python's iteration error
        ({"state": 5}, "config field 'state': expected a list of amplitudes (numbers or [re, im] pairs), got 5"),
        ({"state": {"amplitudes": 5}},
         "config field 'state': expected a list of amplitudes (numbers or [re, im] pairs), got 5"),
        # an [re, im] pair holds two numbers, neither a string nor a boolean
        ({"state": {"amplitudes": [["a", 1], [0, 0]]}},
         "config field 'state': expected a number or an [re, im] pair, got ['a', 1]"),
        ({"state": {"density": [[[True, 0], 0], [0, 0]]}},
         "config field 'state.density': expected a number or an [re, im] pair, got [True, 0]"),
        ({"hamiltonian": [[10**400, 0], [0, 1]]}, "config field 'hamiltonian': entries must be finite"),
        ({"observable_a": {"eigenvectors": [[1, 0], [0, 1]], "labels": ["H\rx", "V"]}},
         "config field 'observable_a.labels': labels must not contain a line break, got ['H\\rx', 'V']"),
        ({"observable_b": {"eigenvectors": [[1, 0], [0, 1]], "labels": ["D", "A\r\n"]}},
         "config field 'observable_b.labels': labels must not contain a line break, got ['D', 'A\\r\\n']"),
        # MAX_GRID_POINTS bounds a listed grid as it bounds a K range
        ({"K": [i / 20_000 for i in range(20_001)]}, "config field 'K': must hold at most 10000 strengths, got 20001"),
        ({"phi": [22.5 * i / 15_000 for i in range(15_001)]},
         "config field 'phi': must hold at most 10000 strengths, got 15001"),
        # the retired observable name, once a string, is an unknown key like any other
        ({"observable_b": {"eigenvectors": [[1, 0], [0, 1]], "name": "X"}},
         "config field 'observable_b': unknown keys ['name']"),
        # an overflow is named for what it is, not as the unit-trace failure it would cause
        ({"state": {"amplitudes": [1e308, 1e308]}}, "config field 'state': state vector norm must be finite"),
        ({"hamiltonian": [[1e300, 0], [0, -1e300]], "dt": 1e10},
         "config field 'hamiltonian': phase H*dt must be finite"),
        # a grid is a list or a K range; a bare number is neither
        ({"K": 0.5}, "config field 'K': expected a list of strengths or a {start, stop, num} range, got 0.5"),
        ({"phi": 10}, "config field 'phi': expected a list of waveplate angles in degrees, got 10"),
        ({"phi": {"num": 3}}, "config field 'phi': expected a list of waveplate angles in degrees, got {'num': 3}"),
    ],
)
def test_parse_error_messages(fields, message):
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps({**({} if "state" in fields else {"theta0": 10.6}), **fields}))
    assert str(info.value).startswith(message)


def test_parse_rejects_deeply_nested_document(tmp_path, capsys):
    # json.loads recurses once per level and raises RecursionError past the interpreter's limit
    for text in ("[" * 100_000, '{"theta0": ' + "[" * 100_000, '{"a": ' * 100_000):
        with pytest.raises(ConfigError, match="nests arrays or objects too deeply"):
            parse_config(text)
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: the document nests")


def test_parse_rejects_an_integer_past_the_digit_limit(tmp_path, capsys):
    # json.loads raises a plain ValueError for an integer literal longer than 4300 digits
    text = '{"theta0": ' + "1" * 5000 + "}"
    with pytest.raises(ConfigError):
        parse_config(text)
    path = tmp_path / "long.json"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw", [b"\xff\xfe{}", b'{"theta0": 10.6, "outputs": ["\xe9"]}'])
def test_main_reports_a_config_that_is_not_utf8(tmp_path, capsys, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {path} is not UTF-8 text: invalid")
    assert not (tmp_path / "out").exists()


def test_parse_names_first_repeated_strength_in_grid_order():
    with pytest.raises(ConfigError, match="strength K=0.7 twice"):
        parse_config('{"theta0": 10.6, "K": [0.7, 0.3, 0.3, 0.7]}')


def test_run_rejects_a_python_built_grid_with_a_repeated_key(tmp_path):
    # 0.1 and 0.1 + 1e-15 both format as "0.1": two K=0.1 blocks would make a table compare rejects
    config = replace(parse_config('{"theta0": 10.6, "K": [0.5]}'), k_values=(0.1, 0.1 + 1e-15))
    with pytest.raises(ConfigError, match=r"config field 'K': the grid gives strength K=0.1 twice"):
        run(config, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "k_values, message",
    [
        ((0.0, -0.0, 0.5), "the grid gives strength K=0 twice"),
        ((0.5, 1.5), "strength 1.5 outside"),
        ((1e-17, 0.5), "K=1e-17 is too close to 0"),
    ],
    ids=["negative-zero", "out-of-range", "below-cross-weight-floor"],
)
def test_run_holds_a_python_built_grid_to_the_per_strength_rules(tmp_path, k_values, message):
    # parse_config rejects each of these grids; run applies the same rules before its sweep
    config = replace(parse_config(SHIPPED.read_text(encoding="utf-8")), k_values=k_values)
    with pytest.raises(ConfigError, match=f"config field 'K': {message}"):
        run(config, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_run_rejects_a_python_built_empty_grid(tmp_path):
    # an empty grid would write header-only tables; run checks it before its sweep
    config = replace(parse_config('{"theta0": 10.6, "K": [0.5]}'), k_values=())
    with pytest.raises(ConfigError, match=r"^config field 'K': the strength grid is empty$"):
        run(config, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "outputs, message",
    [
        (("bogus",), r"unknown quantities \['bogus'\]"),
        (("p_tpm",), r"unknown quantities \['p_tpm'\]"),  # a sweep array, not an exported table
        (("p_weak", "p_weak"), "quantity 'p_weak' is listed twice"),
    ],
    ids=["unknown", "sweep-array", "repeated"],
)
def test_run_rejects_python_built_outputs_that_parse_config_would(tmp_path, outputs, message):
    config = replace(parse_config(SHIPPED.read_text(encoding="utf-8")), outputs=outputs)
    with pytest.raises(ConfigError, match=f"config field 'outputs': {message}"):
        run(config, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_grid_cells_are_bounded_by_max_grid_cells(tmp_path):
    # 256 points at d=64 fill MAX_GRID_CELLS exactly; one more point is named by the grid's field
    basis = np.eye(MAX_DIMENSION).tolist()
    doc = {"dimension": MAX_DIMENSION, "state": [1.0] + [0.0] * (MAX_DIMENSION - 1),
           "observable_a": {"eigenvectors": basis}, "observable_b": {"eigenvectors": basis}}
    assert MAX_GRID_CELLS == 256 * MAX_DIMENSION**2
    config = parse_config(json.dumps({**doc, "K": {"num": 256}}))
    assert len(config.k_values) * MAX_DIMENSION**2 == MAX_GRID_CELLS
    message = "config field 'K': 257 strengths at dimension 64 give 1052672 cells per table, more than"
    with pytest.raises(ConfigError, match=message):
        parse_config(json.dumps({**doc, "K": {"num": 257}}))
    with pytest.raises(ConfigError, match="config field 'phi': 257 strengths at dimension 64"):
        parse_config(json.dumps({**doc, "phi": np.linspace(0.0, 22.5, 257).tolist()}))
    # run holds a Python-built config to the same bound, before its sweep
    with pytest.raises(ConfigError, match=message):
        run(replace(config, k_values=tuple(np.linspace(0.0, 1.0, 257))), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_run_checks_the_thresholds_before_it_makes_the_output_directory(monkeypatch, tmp_path):
    # plant an MHQ table beyond its Cauchy-Schwarz bound: the failing check leaves no tables behind
    import weakquasi.quasiprob as quasiprob

    monkeypatch.setattr(quasiprob, "_mh_table", lambda rho, a, b: np.array([[1.0, 0.0], [0.0, -0.25]]))
    config = parse_config('{"theta0": 0, "observable_b": "Z", "K": [0.5]}')
    with pytest.raises(InternalConsistencyError, match=r"cell \(1, 1\): q_MH=-0.25 with vanishing p_fin"):
        run(config, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_parse_reads_negative_zero_strength_as_zero(tmp_path):
    # a JSON -0.0 formats as "-0", so it used to add a second K=0 point keyed "-0"
    with pytest.raises(ConfigError, match="strength K=0 twice"):
        parse_config('{"theta0": 10.6, "K": [0.0, -0.0, 0.5]}')
    config = parse_config('{"theta0": 10.6, "K": [-0.0, 0.5]}')
    assert [math.copysign(1.0, k) for k in config.k_values] == [1.0, 1.0]
    run(config, tmp_path)
    assert [r["K"] for r in read_rows(tmp_path / "p_weak.csv")] == ["0"] * 4 + ["0.5"] * 4


def test_parse_rejects_strength_whose_cross_weight_underflows(tmp_path, capsys):
    # at d=3, K=1e-20 leaves omega0 = 0, so the MHQ inversion would divide by zero
    basis = np.eye(3).tolist()
    doc = {"dimension": 3, "state": [1, 0, 0], "observable_a": {"eigenvectors": basis},
           "observable_b": {"eigenvectors": basis}, "K": [0.5, 1e-20]}
    with pytest.raises(ConfigError, match="config field 'K': K=1e-20 is too close to 0"):
        parse_config(json.dumps(doc))
    path = write_config(tmp_path, "tiny.json", doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: config field 'K'")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "fields, name",
    [
        # 20,000 amplitudes would build a 20,000 x 20,000 density (6 GiB) before the size check
        ({"state": [1.0] + [0.0] * 19_999}, "state"),
        ({"state": {"density": [[1.0]] + [[0.0]] * 19_999}}, "state"),
        ({"dimension": 20_000, "state": [1.0] + [0.0] * 19_999}, "dimension"),
        ({"dimension": MAX_DIMENSION + 1, "state": [1.0] + [0.0] * MAX_DIMENSION}, "dimension"),
    ],
)
def test_parse_rejects_oversized_state_before_allocating(tmp_path, capsys, fields, name):
    doc = {"K": [0.5], **fields}
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"config field '{name}'"):
            parse_config(json.dumps(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    path = write_config(tmp_path, "big.json", doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: config field '{name}'")


# ------------------------------------------------------------------- run

def test_run_exports_format(tmp_path, cs):
    config = parse_config('{"theta0": 10.6, "K": [0.0, 0.5, 1.0]}')
    run(config, tmp_path)
    raw = (tmp_path / "weak_cq.csv").read_bytes()
    assert b"\r" not in raw  # LF line endings
    text = raw.decode("utf-8")
    assert text.splitlines()[0] == "K,a,b,quantity,value,stderr"
    rows = read_rows(tmp_path / "weak_cq.csv")
    assert {row["a"] for row in rows} == {"H", "V"}
    assert {row["b"] for row in rows} == {"D", "D⊥"}
    assert len(rows) == 3 * 4
    # 12 significant digits round-trip against the qubit-identity oracle
    c, s = cs
    expected = 0.5 * (-s * (c - s) / 2) + 0.25 * ((c - s) ** 2 / 2)
    value = [r["value"] for r in rows if r["K"] == "0.5" and r["a"] == "V" and r["b"] == "D⊥"][0]
    assert float(value) == pytest.approx(expected, abs=1e-12)


def test_run_byte_identical_reruns(tmp_path):
    config = parse_config((MINIMAL))
    run(config, tmp_path / "first")
    run(config, tmp_path / "second")
    names = sorted(p.name for p in (tmp_path / "first").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "second").iterdir())
    for name in names:
        if name.endswith(".csv"):
            assert (tmp_path / "first" / name).read_bytes() == (
                tmp_path / "second" / name
            ).read_bytes()
    first = json.loads((tmp_path / "first" / "summary.json").read_text())
    second = json.loads((tmp_path / "second" / "summary.json").read_text())
    first.pop("runtime_seconds")
    second.pop("runtime_seconds")
    assert first == second


def test_run_weak_cq_sign_change_near_threshold(tmp_path):
    config = parse_config('{"theta0": 10.6, "K": [0.43, 0.45], "outputs": ["weak_cq"]}')
    run(config, tmp_path)
    rows = read_rows(tmp_path / "weak_cq.csv")
    cell = {row["K"]: float(row["value"]) for row in rows if row["a"] == "V" and row["b"] == "D⊥"}
    assert cell["0.43"] > 0.0 > cell["0.45"]


def test_run_coherence_zero_at_endpoints(tmp_path):
    config = parse_config('{"theta0": 10.6, "K": [0.0, 1.0], "outputs": ["C"]}')
    run(config, tmp_path)
    for row in read_rows(tmp_path / "C.csv"):
        assert float(row["value"]) == pytest.approx(0.0, abs=1e-12)


def test_run_reconstruction_constant_across_interior(tmp_path):
    config = parse_config(
        '{"theta0": 10.6, "K": {"start": 0.0, "stop": 1.0, "num": 21},'
        ' "outputs": ["mhq_reconstructed", "mhq"]}'
    )
    run(config, tmp_path)
    rows = read_rows(tmp_path / "mhq_reconstructed.csv")
    strengths = sorted({float(r["K"]) for r in rows})
    assert 0.0 not in strengths and 1.0 not in strengths  # inversion needs 0 < K < 1
    assert len(strengths) == 19
    reference = {
        (r["a"], r["b"]): float(r["value"]) for r in read_rows(tmp_path / "mhq.csv")[:4]
    }
    for row in rows:
        assert float(row["value"]) == pytest.approx(reference[(row["a"], row["b"])], abs=1e-10)


def test_run_summary_contents(tmp_path):
    config = parse_config(MINIMAL)
    summary = run(config, tmp_path)
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk["seed"] == 0 and on_disk["shots"] == "exact"
    assert summary["thresholds"]["global"] == pytest.approx(0.441052551858, abs=1e-9)
    cells = {(c["a"], c["b"]): c["K_threshold"] for c in on_disk["thresholds"]["per_cell"]}
    assert cells[("H", "D")] == "never-negative"
    assert cells[("V", "D⊥")] == pytest.approx(0.441052551858, abs=1e-9)
    residuals = on_disk["normalization_residuals"]
    assert max(max(per_k.values()) for per_k in residuals.values()) <= 1e-9
    assert on_disk["negativity"]["weak_mhq"]["0.4"] == 0.0
    assert on_disk["negativity"]["weak_mhq"]["0.5"] > 0.0


def test_main_run_reports_the_threshold_of_a_cell_whose_p_fin_is_dust(tmp_path):
    # p_fin(D-perp) = 9e-14, yet q_MH(H, D-perp) = -1.5e-7 lies within its Cauchy-Schwarz
    # bound |<a|b>| sqrt(p_in p_fin) = 1.5e-7, so the cell turns negative at K = 3e-7
    path = write_config(tmp_path, "near_diagonal.json", {"theta0": 22.5000086})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    thresholds = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))["thresholds"]
    cells = {(c["a"], c["b"]): c["K_threshold"] for c in thresholds["per_cell"]}
    assert cells[("H", "D⊥")] == thresholds["global"]
    assert 1e-7 < thresholds["global"] < 1e-6
    config = parse_config(path.read_text(encoding="utf-8"))
    cell = [weak_mhq(config.rho, config.obs_a, config.obs_b, k)[0, 1] for k in (1e-7, 1e-6)]
    assert cell[0] > 0.0 > cell[1]


NEAR_PSD = [
    # this state's K=1 reference cell is -2.5e-11, which the table normalization must clamp
    # as dust rather than reject
    {"state": {"density": [[1.00000000005, 0], [0, -0.00000000005]]}, "K": [0.5]},
    # its lowest eigenvalue is -1e-10, so q_MH(V, D) = 5e-6 exceeds the Cauchy-Schwarz bound
    # |<a|b>| sqrt(p_in(a) p_fin(b)) = 0 of a positive state; the threshold check must use
    # the bound of rho + 1e-10 I instead
    {"state": {"density": [[1, 1e-5], [1e-5, 0]]}, "K": [0.0, 0.5, 1.0]},
]


@pytest.mark.parametrize("mode", [[], ["--shots", "1000", "--seed", "1"]])
def test_main_runs_a_state_at_the_psd_tolerance(tmp_path, capsys, mode):
    # DensityOperator accepts eigenvalues down to -1e-10
    for i, doc in enumerate(NEAR_PSD):
        path = write_config(tmp_path, f"near_psd{i}.json", doc)
        assert main(["run", str(path), "--out", str(tmp_path / f"out{i}"), *mode]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / f"out{i}" / "summary.json").exists()
        config = parse_config(path.read_text(encoding="utf-8"))
        assert tpm_joint(config.rho, config.obs_a, config.obs_b).values.min() >= 0.0
        assert weak_sequential_closed(config.rho, config.obs_a, config.obs_b, 0.5).values.min() >= 0.0


GOLDEN = Path(__file__).parent / "data" / "golden_exact"  # the shipped config's thresholds
PINNED_EXACT = GOLDEN.parent / "pinned_exact"
SHIPPED = Path(__file__).parent.parent / "configs" / "qubit_theta10p6.json"


def test_run_shipped_config_matches_golden_export(tmp_path):
    summary = run(parse_config(SHIPPED.read_text(encoding="utf-8")), tmp_path)
    tables = sorted(p.name for p in PINNED_EXACT.glob("*.csv"))
    assert tables == sorted(p.name for p in tmp_path.glob("*.csv"))
    assert len(tables) == 7
    for name in tables:
        report, ok = compare(PINNED_EXACT / name, tmp_path / name, 0.0)
        assert ok, (name, report)
    golden_thresholds = json.loads((GOLDEN / "thresholds.json").read_text(encoding="utf-8"))
    assert summary["thresholds"] == golden_thresholds


# d=2, four strengths, labels with a comma, a quote, edge spaces and a non-ASCII character
QUOTED_LABELS = GOLDEN.parent / "quoted_labels.json"
# d=4: a mixed state, rotated bases for A and B, a Hamiltonian, noise 0.9 and K from 0 to 1,
# so the weak_mhq slice above d=2 (K=0 reached, K=1 not) is pinned too
PINNED_QUDIT = GOLDEN.parent / "pinned_qudit.json"

PINNED = {  # tables byte for byte, as each run mode writes them: the config, then the options
    "pinned_exact": [SHIPPED],
    "pinned_seed7": [SHIPPED, "--shots", "100000", "--seed", "7"],
    "pinned_seed1": [SHIPPED, "--shots", "1000000", "--seed", "1"],
    "pinned_labels_exact": [QUOTED_LABELS],
    "pinned_labels_seed3": [QUOTED_LABELS, "--shots", "1000", "--seed", "3"],
    "pinned_qudit_exact": [PINNED_QUDIT],
    "pinned_qudit_seed5": [PINNED_QUDIT, "--shots", "1000", "--seed", "5"],
}


def _assert_writes_pinned_bytes(tmp_path, pinned):
    config, *options = PINNED[pinned]
    assert main(["run", str(config), "--out", str(tmp_path), *options]) == 0
    expected = GOLDEN.parent / pinned
    tables = sorted(p.name for p in expected.glob("*.csv"))
    assert tables == sorted(p.name for p in tmp_path.glob("*.csv"))
    assert len(tables) == 7
    for name in tables:
        assert (tmp_path / name).read_bytes() == (expected / name).read_bytes(), name


def test_run_shipped_config_matches_golden_sampled_export(tmp_path):
    # the seeded 1e6-shot export, analytic error bars included
    _assert_writes_pinned_bytes(tmp_path, "pinned_seed1")


@pytest.mark.parametrize("pinned", ["pinned_exact", "pinned_seed7"])
def test_run_shipped_config_writes_the_pinned_bytes(tmp_path, pinned):
    _assert_writes_pinned_bytes(tmp_path, pinned)


@pytest.mark.parametrize("pinned", ["pinned_labels_exact", "pinned_labels_seed3"])
def test_run_quoted_labels_write_the_pinned_bytes(tmp_path, pinned):
    # each label is quoted once per table, exactly as csv.writer quotes it in a row
    _assert_writes_pinned_bytes(tmp_path, pinned)


@pytest.mark.parametrize("pinned", ["pinned_qudit_exact", "pinned_qudit_seed5"])
def test_run_qudit_scenario_writes_the_pinned_bytes(tmp_path, pinned):
    _assert_writes_pinned_bytes(tmp_path, pinned)


def test_compare_reads_quoted_labels_back_as_written(tmp_path):
    assert main(["run", str(QUOTED_LABELS), "--out", str(tmp_path)]) == 0
    tables = sorted(tmp_path.glob("*.csv"))
    assert len(tables) == 7
    for table in tables:
        assert main(["compare", str(table), str(table), "--tol", "0"]) == 0, table.name
    cells = {(row["a"], row["b"]) for row in read_rows(tmp_path / "p_weak.csv")}
    assert cells == {(a, b) for a in ("a,1", 'q"x') for b in (" sp ", "D⊥")}


def test_run_phi_grid_keys_endpoints_exactly(tmp_path):
    # phi = 22.5 is exactly K=0, so no reconstruction row is written there
    run(parse_config('{"theta0": 10.6, "phi": [0, 11.25, 22.5]}'), tmp_path)
    assert {r["K"] for r in read_rows(tmp_path / "p_weak.csv")} == {"0", "0.707106781187", "1"}
    assert {r["K"] for r in read_rows(tmp_path / "mhq_reconstructed.csv")} == {"0.707106781187"}


def test_run_peak_memory_does_not_grow_with_the_row_count(tmp_path):
    # Each table is streamed to its file, so 400 points may add only the
    # sweep's own arrays (about seven (nK, d, d) tables of 0.2 MiB at d=8);
    # a row list of p_weak alone would add about 4 MiB.
    from conftest import random_instance

    rho, obs_a, obs_b = random_instance(np.random.default_rng(8), 8)
    peaks = []
    for num in (21, 400):
        config = ScenarioConfig(rho, obs_a, obs_b, tuple(np.linspace(0.0, 1.0, num)), None,
                                NoiseModel(0.9), 0, ("p_weak", "cq"))
        tracemalloc.start()
        try:
            run(config, tmp_path / str(num))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(read_rows(tmp_path / "400" / "cq.csv")) == 400 * 64
    assert peaks[1] - peaks[0] < 3 * 2**20


def test_run_sampled_mode_has_nonzero_stderr(tmp_path):
    config = parse_config('{"theta0": 10.6, "K": [0.5], "shots": 100000, "outputs": ["p_weak"]}')
    run(config, tmp_path)
    rows = read_rows(tmp_path / "p_weak.csv")
    assert all(float(r["stderr"]) > 0.0 for r in rows)


# --------------------------------------------------------------- compare

def test_compare_identical_tables(tmp_path):
    config = parse_config('{"theta0": 10.6, "K": [0.2, 0.8], "outputs": ["weak_cq"]}')
    run(config, tmp_path / "a")
    run(config, tmp_path / "b")
    report, ok = compare(tmp_path / "a/weak_cq.csv", tmp_path / "b/weak_cq.csv", 1e-12)
    assert ok
    assert report == ["max |diff| = 0.000e+00 over 8 rows (tolerance 1e-12)"]


def test_compare_flags_exceedance(tmp_path):
    config = parse_config('{"theta0": 10.6, "K": [0.2], "outputs": ["weak_cq"]}')
    run(config, tmp_path / "a")
    text = (tmp_path / "a/weak_cq.csv").read_text(encoding="utf-8").splitlines()
    header, first, rest = text[0], text[1], text[2:]
    parts = first.split(",")
    parts[4] = str(float(parts[4]) + 1e-6)
    (tmp_path / "tampered.csv").write_text(
        "\n".join([header, ",".join(parts), *rest]) + "\n", encoding="utf-8"
    )
    report, ok = compare(tmp_path / "a/weak_cq.csv", tmp_path / "tampered.csv", 1e-9)
    assert not ok
    assert any("exceeds tolerance" in line for line in report)


def test_compare_rejects_schema_mismatch(tmp_path):
    (tmp_path / "x.csv").write_text("K,a,b,quantity,value,stderr\n0,H,D,p_weak,0.5,0\n")
    (tmp_path / "y.csv").write_text("K,a,b,value\n0,H,D,0.5\n")
    with pytest.raises(ValueError, match="schema"):
        compare(tmp_path / "x.csv", tmp_path / "y.csv", 1e-9)
    (tmp_path / "z.csv").write_text("K,a,b,quantity,value,stderr\n1,H,D,p_weak,0.5,0\n")
    with pytest.raises(ValueError, match="row sets"):
        compare(tmp_path / "x.csv", tmp_path / "z.csv", 1e-9)


HEADER = "K,a,b,quantity,value,stderr\n"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_compare_fails_on_non_finite_values(tmp_path, capsys, bad):
    (tmp_path / "x.csv").write_text(HEADER + f"0,H,D,p_weak,{bad},0\n0,H,A,p_weak,0.5,0\n")
    (tmp_path / "y.csv").write_text(HEADER + "0,H,D,p_weak,0.25,0\n0,H,A,p_weak,0.5,0\n")
    for first, second in (("x", "y"), ("y", "x"), ("x", "x")):
        report, ok = compare(tmp_path / f"{first}.csv", tmp_path / f"{second}.csv", 1.0)
        assert not ok
        assert any("non-finite" in line for line in report)
    assert main(["compare", str(tmp_path / "x.csv"), str(tmp_path / "y.csv"), "--tol", "1"]) == 1
    # a NaN tolerance would accept every difference
    assert main(["compare", str(tmp_path / "y.csv"), str(tmp_path / "y.csv"), "--tol", "nan"]) == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1e-9"])
def test_compare_fails_on_invalid_stderr(tmp_path, capsys, bad):
    # stderr values are never diffed, but each must be a finite number >= 0
    (tmp_path / "x.csv").write_text(HEADER + f"0,H,D,p_weak,0.25,{bad}\n0,H,A,p_weak,0.5,0.1\n")
    (tmp_path / "y.csv").write_text(HEADER + "0,H,D,p_weak,0.25,0\n0,H,A,p_weak,0.5,0.2\n")
    for first, second in (("x", "y"), ("y", "x"), ("x", "x")):
        report, ok = compare(tmp_path / f"{first}.csv", tmp_path / f"{second}.csv", 0.0)
        assert not ok
        assert sum("invalid stderr at K=0 (H,D) p_weak" in line for line in report) == 1
        assert report[-1] == "1 row(s) hold a NaN, infinite or negative stderr"
    assert compare(tmp_path / "y.csv", tmp_path / "y.csv", 0.0)[1]
    assert main(["compare", str(tmp_path / "x.csv"), str(tmp_path / "y.csv"), "--tol", "0"]) == 1
    assert "invalid stderr" in capsys.readouterr().out


@pytest.mark.parametrize(
    "body, message",
    [
        ("0,H,D,p_weak,0.9,0\n0,H,A,p_weak,0.1,0\n0,H,D,p_weak,0.25,0\n", "line 4: duplicate row key"),
        ("0,H,D,p_weak,0.25,0\n0,H,A,p_weak\n", "line 3: expected 6 fields, got 4"),
        ("0,H,D,p_weak,0.25,0\n0,H,A,p_weak,abc,0\n", "line 3: value or stderr is not a number"),
    ],
    ids=["duplicate-key", "short-row", "non-numeric"],
)
def test_compare_rejects_malformed_rows(tmp_path, capsys, body, message):
    (tmp_path / "bad.csv").write_text(HEADER + body)
    (tmp_path / "good.csv").write_text(HEADER + "0,H,D,p_weak,0.25,0\n0,H,A,p_weak,0.1,0\n")
    with pytest.raises(ValueError, match=f"bad.csv, {message}"):
        compare(tmp_path / "good.csv", tmp_path / "bad.csv", 1e-9)
    assert main(["compare", str(tmp_path / "bad.csv"), str(tmp_path / "good.csv"), "--tol", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def test_compare_circuit_vs_closed_engines(tmp_path):
    # the engine key selects nothing: both values write the same bytes, exact and sampled
    base = {"theta0": 10.6, "K": [0.0, 0.3, 0.7, 1.0], "noise": 0.9}
    for shots in ("exact", 10**5):
        for engine in ("circuit", "closed"):
            config = parse_config(json.dumps({**base, "engine": engine, "shots": shots, "seed": 7}))
            run(config, tmp_path / f"{engine}-{shots}")
        tables = sorted(p.name for p in (tmp_path / f"circuit-{shots}").glob("*.csv"))
        assert len(tables) == 7
        for name in tables:
            circuit, closed = tmp_path / f"circuit-{shots}" / name, tmp_path / f"closed-{shots}" / name
            assert circuit.read_bytes() == closed.read_bytes(), (shots, name)
            report, ok = compare(circuit, closed, 0.0)
            assert ok and report[-1].startswith("max |diff| = 0.000e+00"), (shots, name)


def test_compare_noise_diff_lands_in_derived_rows(tmp_path):
    base = {"theta0": 10.6, "K": [0.25, 0.5, 0.75]}
    run(parse_config(json.dumps(base)), tmp_path / "ideal")
    run(parse_config(json.dumps({**base, "noise": 0.95})), tmp_path / "noisy")
    # theory tables are untouched by the gate model
    for quantity in ("cq", "mhq"):
        _, ok = compare(tmp_path / f"ideal/{quantity}.csv", tmp_path / f"noisy/{quantity}.csv", 1e-15)
        assert ok
    # the coherent-content rows absorb the distortion
    diffs = {}
    for quantity in ("p_weak", "C", "mhq_reconstructed"):
        report, ok = compare(
            tmp_path / f"ideal/{quantity}.csv", tmp_path / f"noisy/{quantity}.csv", 1e-15
        )
        assert not ok
        diffs[quantity] = float(report[-1].split("=")[1].split("over")[0])
    assert diffs["mhq_reconstructed"] >= diffs["p_weak"]


# ------------------------------------------------------------------ main

def test_main_run_and_compare_roundtrip(tmp_path, capsys):
    config_path = write_config(
        tmp_path, "scenario.json", {"theta0": 10.6, "K": [0.4, 0.6], "outputs": ["weak_mhq"]}
    )
    assert main(["run", str(config_path), "--out", str(tmp_path / "out1")]) == 0
    assert main(["run", str(config_path), "--out", str(tmp_path / "out2")]) == 0
    out = capsys.readouterr().out
    assert "weak_mhq.csv" in out and "summary.json" in out
    assert main(
        ["compare", str(tmp_path / "out1/weak_mhq.csv"), str(tmp_path / "out2/weak_mhq.csv"), "--tol", "1e-12"]
    ) == 0


def test_main_run_overrides(tmp_path):
    config_path = write_config(
        tmp_path, "scenario.json",
        {"theta0": 10.6, "K": [0.5], "shots": 1000, "outputs": ["p_weak"]},
    )
    assert main(["run", str(config_path), "--out", str(tmp_path / "exact"), "--exact"]) == 0
    rows = read_rows(tmp_path / "exact/p_weak.csv")
    assert all(float(r["stderr"]) == 0.0 for r in rows)
    assert main(
        ["run", str(config_path), "--out", str(tmp_path / "reseeded"), "--seed", "7", "--shots", "500"]
    ) == 0
    summary = json.loads((tmp_path / "reseeded/summary.json").read_text())
    assert summary["seed"] == 7 and summary["shots"] == 500


def test_main_reuses_parser_without_leaking_state(tmp_path, capsys):
    path = write_config(
        tmp_path, "scenario.json",
        {"theta0": 10.6, "K": [0.5], "shots": 2000, "seed": 3, "outputs": ["p_weak"]},
    )

    def summary(name):
        return json.loads((tmp_path / name / "summary.json").read_text())

    assert _parser() is _parser()  # built once per process
    assert main(["run", str(path), "--out", str(tmp_path / "override"), "--seed", "5", "--shots", "1000"]) == 0
    assert (summary("override")["seed"], summary("override")["shots"]) == (5, 1000)
    assert main(["run", str(path), "--out", str(tmp_path / "plain")]) == 0
    assert (summary("plain")["seed"], summary("plain")["shots"]) == (3, 2000)
    assert main(["run", str(path), "--out", str(tmp_path / "exact"), "--exact"]) == 0
    assert summary("exact")["shots"] == "exact"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["run", str(path), "--out", str(tmp_path / "bad"), "--exact", "--shots", "5"])
    assert exit_info.value.code == 2
    assert "argument --shots: not allowed with argument --exact" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    assert main(["run", str(path), "--out", str(tmp_path / "again")]) == 0
    assert (summary("again")["seed"], summary("again")["shots"]) == (3, 2000)
    assert (tmp_path / "again/p_weak.csv").read_bytes() == (tmp_path / "plain/p_weak.csv").read_bytes()


def test_exact_run_never_imports_numpy_random(tmp_path):
    script = (
        "import sys\n"
        "import weakquasi.cli\n"
        f"assert weakquasi.cli.main(['run', {str(SHIPPED)!r}, '--out', {str(tmp_path / 'exact')!r}]) == 0\n"
        "assert 'numpy.random' not in sys.modules, 'exact mode imported numpy.random'\n"
    )
    src = str(Path(weakquasi.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    # sampled mode does draw: the same seed gives the same bytes
    for name in ("first", "second"):
        args = ["run", str(SHIPPED), "--out", str(tmp_path / name), "--shots", "1000", "--seed", "1"]
        assert main(args) == 0
    tables = sorted(p.name for p in (tmp_path / "first").glob("*.csv"))
    assert len(tables) == 7
    for name in tables:
        assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()


@pytest.mark.parametrize(
    "outputs, line",
    [
        ([], "wrote summary.json to"),
        (["thresholds"], "wrote summary.json to"),
        (["weak_cq", "p_weak", "thresholds"], "wrote p_weak.csv, weak_cq.csv and summary.json to"),
    ],
)
def test_main_run_reports_written_files(tmp_path, capsys, outputs, line):
    path = write_config(tmp_path, "scenario.json", {"theta0": 10.6, "K": [0.5], "outputs": outputs})
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"{line} {out}"
    written = [f"{q}.csv" for q in outputs if q != "thresholds"] + ["summary.json"]
    assert sorted(p.name for p in out.iterdir()) == sorted(written)


@pytest.mark.parametrize("resamples", [0, 1, 99])
def test_main_ignores_resamples_after_shots_override(tmp_path, capsys, resamples):
    # the error bars are closed-form, so a valid resamples value changes no byte of a sampled run
    doc = {"theta0": 10.6, "K": [0.0, 0.5, 1.0]}
    for name, fields in (("plain", {}), ("keyed", {"resamples": resamples})):
        path = write_config(tmp_path, f"{name}.json", {**doc, **fields})
        assert main(["run", str(path), "--out", str(tmp_path / name), "--shots", "1000", "--seed", "3"]) == 0
    capsys.readouterr()
    tables = sorted(p.name for p in (tmp_path / "plain").glob("*.csv"))
    assert len(tables) == 7
    for name in tables:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "keyed" / name).read_bytes()


def test_main_reports_config_errors(tmp_path, capsys):
    bad = write_config(tmp_path, "bad.json", {"theta0": 10.6, "K": [2.0]})
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert "outside" in capsys.readouterr().err


def test_main_compare_exit_codes(tmp_path, capsys):
    config_path = write_config(tmp_path, "scenario.json", {"theta0": 10.6, "K": [0.5]})
    main(["run", str(config_path), "--out", str(tmp_path / "a")])
    main(["run", str(config_path), "--out", str(tmp_path / "b"), "--seed", "1"])
    # exact mode ignores the seed, so tables still agree
    assert main(
        ["compare", str(tmp_path / "a/p_weak.csv"), str(tmp_path / "b/p_weak.csv"), "--tol", "0"]
    ) == 0
    assert main(
        ["compare", str(tmp_path / "a/p_weak.csv"), str(tmp_path / "missing.csv"), "--tol", "0"]
    ) == 2
    capsys.readouterr()


def test_main_rejects_low_shots_and_bad_overrides(tmp_path, capsys):
    # one expected count per setting leaves some setting with no counts at all
    path = write_config(tmp_path, "scenario.json", {"theta0": 10.6, "K": {"num": 21}})
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--shots", "1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: shots=1 drew an all-zero count table for setting K=")
    for flag, value in (("--shots", "0"), ("--seed", "-1")):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(path), "--out", str(tmp_path / "out"), flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be at least" in capsys.readouterr().err


def test_main_names_the_first_empty_count_table_at_d8(tmp_path, capsys):
    # every point's counts are drawn before any is checked; the message names the first
    # empty table in draw order, the K=0 reference of the eighth point
    d = 8
    fourier = [[[math.cos(2 * math.pi * j * k / d) / math.sqrt(d), math.sin(2 * math.pi * j * k / d) / math.sqrt(d)]
                for k in range(d)] for j in range(d)]
    doc = {
        "dimension": d,
        "state": {"density": (np.eye(d) / d).tolist()},
        "observable_a": {"eigenvectors": np.eye(d).tolist()},
        "observable_b": {"eigenvectors": fourier},
        "K": {"num": 21},
    }
    path = write_config(tmp_path, "qudit.json", doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--shots", "4", "--seed", "5"]) == 1
    assert capsys.readouterr().err == (
        "error: shots=4 drew an all-zero count table for setting K=0 at strength point K=0.35; increase shots\n"
    )
    assert not (tmp_path / "out").exists()


def test_main_rejects_shots_above_max(tmp_path, capsys):
    path = write_config(tmp_path, "scenario.json", {"theta0": 10.6, "K": [0.5]})
    with pytest.raises(SystemExit) as exit_info:
        main(["run", str(path), "--out", str(tmp_path / "out"), "--shots", str(MAX_SHOTS + 1)])
    assert exit_info.value.code == 2
    assert f"argument --shots: must be at most {MAX_SHOTS}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
