"""Tests for Poisson sampling, estimators, gate noise, and the sweep runner."""

import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import weakquasi.sampling as sampling
import weakquasi.schemes as schemes
from oracles import born, estimate_with_errors, projectors
from weakquasi.core import DensityOperator, WeakStrength, make_pure_state, pauli_x, pauli_z
from weakquasi.quasiprob import (
    coherence_term,
    mhq,
    mhq_from_weak,
    negativity,
    weak_cq_from_data,
    weak_cq_closed,
    weak_mhq,
)
from weakquasi.sampling import (
    apply_gate_noise,
    run_sweep,
    sample_counts,
    strength_from_waveplate,
)
from weakquasi.schemes import (
    joint_outcome_table,
    probability_table,
    tpm_joint,
    weak_joint_state,
    weak_sequential_closed,
)

UNIFORM4 = probability_table(np.full((2, 2), 0.25))


# --------------------------------------------------------------- sampling

def test_sample_counts_poisson_moments():
    table = sample_counts(UNIFORM4, 10**6, seed=1)
    # each cell is Poisson(250000): stay within 5 sigma = 2500
    assert np.abs(table - 250000).max() <= 2500


def test_sample_counts_zero_probability_cell():
    dist = probability_table(np.array([[0.5, 0.5], [0.0, 0.0]]))
    table = sample_counts(dist, 10**5, seed=2)
    assert (table[1] == 0).all()


def test_sample_counts_deterministic():
    a = sample_counts(UNIFORM4, 10**5, seed=42)
    b = sample_counts(UNIFORM4, 10**5, seed=42)
    assert a.dtype == np.int64 and a.shape == (2, 2) and not a.flags.writeable
    assert (a == b).all()
    c = sample_counts(UNIFORM4, 10**5, seed=43)
    assert (a != c).any()


def test_sample_counts_rejects_quasiprobability(scenario_state, obs_z, obs_x):
    quasi = mhq(scenario_state, obs_z, obs_x)
    with pytest.raises(ValueError, match="quasiprobability"):
        sample_counts(quasi, 1000, seed=0)
    # a bare array is not a validated probability table either
    with pytest.raises(ValueError, match="cannot sample counts from a ndarray"):
        sample_counts(np.full((2, 2), 0.25), 1000, seed=0)


def test_sample_counts_rejects_bad_shots():
    with pytest.raises(ValueError, match="shots"):
        sample_counts(UNIFORM4, 0, seed=0)
    with pytest.raises(ValueError, match="shots must be at most"):
        sample_counts(UNIFORM4, sampling.MAX_SHOTS + 1, seed=0)


def test_sample_counts_rejects_shots_that_are_not_integers(scenario_state, obs_z, obs_x):
    for shots in (100.5, True):
        with pytest.raises(ValueError, match=rf"^shots must be an integer, got {shots!r}$"):
            sample_counts(UNIFORM4, shots, seed=0)
        with pytest.raises(ValueError, match=rf"^shots must be an integer, got {shots!r}$"):
            run_sweep(scenario_state, obs_z, obs_x, [0.5], shots=shots)
    assert sample_counts(UNIFORM4, np.int64(100), seed=0).sum() > 0


def test_sample_counts_at_max_shots_sums_exactly():
    counts = sample_counts(UNIFORM4, sampling.MAX_SHOTS, seed=0)
    total = int(counts.sum())
    assert total == int(counts.astype(object).sum())
    assert abs(total - sampling.MAX_SHOTS) < 1e-6 * sampling.MAX_SHOTS


# -------------------------------------------------------------- estimator

def test_estimate_uniform_stderr():
    estimate, stderr = estimate_with_errors(np.full((2, 2), 250000), resamples=1000, seed=3)
    assert_allclose(estimate, 0.25, atol=1e-12)
    # oracle: sqrt(p (1 - p) / N) for the self-normalized estimator
    expected = np.sqrt(0.25 * 0.75 / 1e6)
    assert (np.abs(stderr / expected - 1.0) <= 0.2).all()


def test_estimate_degenerate_table():
    estimate, stderr = estimate_with_errors(np.array([[10**6, 0], [0, 0]]), resamples=500, seed=4)
    assert_allclose(estimate, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)
    # resamples of the zero cells never fluctuate, so the normalized estimator
    # is constant and every standard error vanishes
    assert stderr.max() == 0.0


def test_estimate_stderr_scales_with_shots():
    _, err_big = estimate_with_errors(np.full((2, 2), 25000000), resamples=2000, seed=5)
    _, err_small = estimate_with_errors(np.full((2, 2), 250000), resamples=2000, seed=6)
    ratio = err_small.mean() / err_big.mean()
    assert 8.0 <= ratio <= 12.0  # 100x the statistics shrinks errors ~10x


# ------------------------------------------------------------- gate noise

def test_noise_model_validation(scenario_state, obs_z, obs_x):
    # the gate visibility is a plain number, and its one rule (a real number in [0, 1], so neither
    # NaN nor a bool) holds in the sweep, the joint-state oracle and a scenario config alike
    from weakquasi.cli import ConfigError, ScenarioConfig

    joint = weak_joint_state(scenario_state, obs_z, 0.5)
    for nu in (1.2, -0.1, float("nan"), True):
        message = rf"gate visibility must lie in \[0, 1\], got {re.escape(repr(nu))}$"
        with pytest.raises(ValueError, match=f"^{message}"):
            run_sweep(scenario_state, obs_z, obs_x, [0.5], noise=nu)
        with pytest.raises(ValueError, match=f"^{message}"):
            apply_gate_noise(joint, nu)
        with pytest.raises(ConfigError, match=f"^config field 'noise': {message}"):
            ScenarioConfig(scenario_state, obs_z, obs_x, (0.5,), None, nu, 0, ("cq",))


def test_apply_gate_noise_identity(scenario_state, obs_z):
    joint = weak_joint_state(scenario_state, obs_z, 0.5)
    out = apply_gate_noise(joint, 1.0)
    assert out is joint


def test_apply_gate_noise_returns_valid_state(scenario_state, obs_z):
    joint = weak_joint_state(scenario_state, obs_z, 0.5)
    noisy = apply_gate_noise(joint, 0.7)
    assert noisy.dim == 4  # DensityOperator construction revalidates physicality


def test_apply_gate_noise_rejects_non_joint_dimension(scenario_state):
    with pytest.raises(ValueError, match="square"):
        apply_gate_noise(make_pure_state([1, 0, 0]), 0.5)


def test_full_dephasing_strips_coherent_content(scenario_state, obs_z, obs_x):
    # visibility 0 removes everything the weak measurement preserves of the
    # initial coherence: the reconstruction collapses to the two-point table
    sweep = run_sweep(scenario_state, obs_z, obs_x, [0.5], noise=0.0)
    p = tpm_joint(scenario_state, obs_z, obs_x).values
    assert np.abs(sweep.values["mhq_reconstructed"][0] - p).max() <= 1e-12


def test_full_dephasing_keeps_projective_table(scenario_state, obs_z, obs_x):
    sweep = run_sweep(scenario_state, obs_z, obs_x, [1.0], noise=0.0)
    p = tpm_joint(scenario_state, obs_z, obs_x).values
    assert np.abs(sweep.values["p_weak"][0] - p).max() <= 1e-12


def test_partial_dephasing_shifts_reconstruction_proportionally(scenario_state, obs_z, obs_x):
    # full-matrix uses the same three-setting pipeline; the reconstructed table
    # must land on nu q_MH + (1 - nu) p, a shift linear in (1 - nu)
    p = tpm_joint(scenario_state, obs_z, obs_x).values
    q_mh = mhq(scenario_state, obs_z, obs_x)
    for nu in (0.95, 0.8):
        sweep = run_sweep(scenario_state, obs_z, obs_x, [0.5], noise=nu)
        rec = sweep.values["mhq_reconstructed"][0]
        assert np.abs(rec - (nu * q_mh + (1 - nu) * p)).max() <= 1e-12


# ------------------------------------------------------------ sweep runner

def test_run_scenario_deterministic(scenario_state, obs_z, obs_x):
    scenario = (scenario_state, obs_z, obs_x)
    first = run_sweep(*scenario, [0.3, 0.7], shots=10**5, seed=11)
    second = run_sweep(*scenario, [0.3, 0.7], shots=10**5, seed=11)
    for i in range(2):
        assert first.values["p_weak"][i].tobytes() == second.values["p_weak"][i].tobytes()
        assert first.values["weak_cq"][i].tobytes() == second.values["weak_cq"][i].tobytes()
        assert first.errors["p_weak"][i].tobytes() == second.errors["p_weak"][i].tobytes()
    third = run_sweep(*scenario, [0.3, 0.7], shots=10**5, seed=12)
    assert (first.values["p_weak"][0] != third.values["p_weak"][0]).any()


def test_run_scenario_exact_matches_closed_forms(scenario_state, obs_z, obs_x):
    k_grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    sweep = run_sweep(scenario_state, obs_z, obs_x, k_grid)
    q_mh = mhq(scenario_state, obs_z, obs_x)
    for i, k in enumerate(k_grid):
        strength = WeakStrength(k, 2)
        assert np.abs(
            sweep.values["p_weak"][i] - weak_sequential_closed(scenario_state, obs_z, obs_x, k).values
        ).max() <= 1e-12
        assert np.abs(
            sweep.values["weak_cq"][i] - weak_cq_closed(scenario_state, obs_z, obs_x, k)
        ).max() <= 1e-12
        assert np.abs(
            sweep.values["weak_mhq"][i] - weak_mhq(scenario_state, obs_z, obs_x, k)
        ).max() <= 1e-12
        assert np.abs(sweep.values["C"][i] - strength.cross_weight * q_mh).max() <= 1e-12
        if 0.0 < k < 1.0:
            assert np.abs(sweep.values["mhq_reconstructed"][i] - q_mh).max() <= 1e-12
        else:
            assert not sweep.reached("mhq_reconstructed")[i]
        assert sweep.errors["p_weak"][i].max() == 0.0
    # exact errors are read-only zero arrays of each value's shape, never None
    assert len(sweep.errors) == 7 and sweep.errors.keys() == sweep.values.keys()
    for name, values in sweep.values.items():
        errors = sweep.errors[name]
        assert errors.shape == values.shape and not errors.flags.writeable and not errors.any(), name


def test_run_scenario_zero_strength_record(scenario_state, obs_z, obs_x):
    sweep = run_sweep(scenario_state, obs_z, obs_x, [0.0])
    p_fin = born(scenario_state.matrix, obs_x.eigenvectors)
    assert_allclose(sweep.values["weak_cq"][0], np.tile(p_fin / 2, (2, 1)), atol=1e-12)


def test_run_scenario_commuting_state_never_negative(obs_z, obs_x):
    grid = np.linspace(0, 1, 11)
    sweep = run_sweep(make_pure_state([1, 0]), obs_z, obs_x, grid)
    for i in range(len(grid)):
        assert negativity(sweep.values["weak_cq"][i]) == 0.0
        if sweep.reached("weak_mhq")[i]:
            assert negativity(sweep.values["weak_mhq"][i]) == 0.0


def test_run_scenario_sign_change_brackets_threshold(scenario_state, obs_z, obs_x):
    sweep = run_sweep(scenario_state, obs_z, obs_x, [0.43, 0.45])
    assert sweep.values["weak_cq"][0][1, 1] > 0.0
    assert sweep.values["weak_cq"][1][1, 1] < 0.0


def test_run_scenario_reconstruction_noise_grows_toward_endpoints(scenario_state, obs_z, obs_x):
    grid = [0.1, 0.5, 0.9]
    sweep = run_sweep(scenario_state, obs_z, obs_x, grid, shots=10**5, seed=5)
    spread = {k: e.mean() for k, e in zip(grid, sweep.errors["mhq_reconstructed"])}
    assert spread[0.1] > spread[0.5]
    assert spread[0.9] > spread[0.5]


def test_run_sweep_estimator_error_shrinks_with_shots(scenario_state, obs_z, obs_x):
    scenario = (scenario_state, obs_z, obs_x)
    exact = weak_sequential_closed(*scenario, 0.5).values
    errors = {}
    for shots in (10**3, 10**5, 10**7):
        deviations = []
        for seed in range(10):
            sweep = run_sweep(*scenario, [0.5], shots=shots, seed=seed)
            deviations.append(np.abs(sweep.values["p_weak"][0] - exact).mean())
        errors[shots] = np.mean(deviations)
    slope = (np.log10(errors[10**7]) - np.log10(errors[10**3])) / 4.0
    assert slope == pytest.approx(-0.5, abs=0.1)


def test_run_sweep_sampled_mode_reports_errors(scenario_state, obs_z, obs_x):
    sweep = run_sweep(scenario_state, obs_z, obs_x, [0.5], shots=10**5, seed=9)
    for key in ("p_weak", "weak_cq", "weak_mhq", "C", "mhq_reconstructed"):
        assert sweep.errors[key][0].min() > 0.0
    total = sweep.values["p_weak"][0].sum()
    assert total == pytest.approx(1.0, abs=1e-12)  # estimators are normalized counts


def _weak_mhq_by_rule(k, d, wcq, rec, pf):
    """The data-path weak-MHQ rule, written out for one table."""
    if 0.0 < k < 1.0:
        return k * rec + ((1.0 - k) / d) * pf[None, :]
    if k == 0.0:
        return np.tile(pf / d, (d, 1))
    return wcq if d == 2 else None


def _data_paths(k, pw, pt, p_final):
    """A point's seven exported quantities from three 2-D tables, through the public functions."""
    d = pw.shape[0]
    strength = WeakStrength(k, d)
    pf = p_final.sum(axis=0)
    wcq = weak_cq_from_data(pw, pf)
    rec = mhq_from_weak(pw, pt, pf, strength) if 0.0 < k < 1.0 else None
    return {
        "p_weak": pw,
        "p_tpm": pt,
        "p_fin": pf,
        "weak_cq": wcq,
        "C": coherence_term(pw, pt, pf, strength),
        "mhq_reconstructed": rec,
        "weak_mhq": _weak_mhq_by_rule(k, d, wcq, rec, pf),
    }


def _sweep_counts(rho, obs_a, obs_b, k_grid, shots, seed):
    """The three count tables of each point, drawn from the sweep's own seed tree."""
    children = np.random.SeedSequence(seed).spawn(len(k_grid))
    return [
        [
            sample_counts(weak_sequential_closed(rho, obs_a, obs_b, setting), shots, s)
            for setting, s in zip((k, 1.0, 0.0), child.spawn(3))
        ]
        for k, child in zip(k_grid, children)
    ]


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_run_sweep_error_bars_match_first_order_quadratic_form(dim):
    # Var Q = sum over tables of l^T (diag(p) - p p^T) l / N, with the gradient l
    # of every output cell read off the public functions on all d^2 basis tables
    # of each table slot; no assumption on which cells a data path mixes
    from conftest import random_instance

    rho, obs_a, obs_b = random_instance(np.random.default_rng(70 + dim), dim)
    k_grid, shots, seed = [0.0, 0.3, 1.0], 10**4, 31
    sweep = run_sweep(rho, obs_a, obs_b, k_grid, shots=shots, seed=seed)
    for i, (k, counts) in enumerate(zip(k_grid, _sweep_counts(rho, obs_a, obs_b, k_grid, shots, seed))):
        variance = {}
        for slot, n in enumerate(counts):
            p = (n / n.sum()).ravel()
            cov = (np.diag(p) - np.outer(p, p)) / n.sum()
            gradients = []
            for cell in range(dim * dim):
                tables = [np.zeros((dim, dim)) for _ in range(3)]
                tables[slot].flat[cell] = 1.0
                gradients.append(_data_paths(k, *tables))
            for name, value in gradients[0].items():
                if value is None:
                    variance[name] = None
                    continue
                grad = np.array([g[name] for g in gradients]).reshape(dim * dim, -1)
                variance[name] = variance.get(name, 0.0) + np.einsum("ci,cd,di->i", grad, cov, grad)
        assert set(sweep.errors) == set(variance)
        for name, var in variance.items():
            if var is None:
                assert not sweep.reached(name)[i], (k, name)
            else:
                expected = np.sqrt(var).reshape(sweep.errors[name][i].shape)
                assert np.abs(sweep.errors[name][i] - expected).max() <= 1e-12, (k, name)


MC_RESAMPLES = 2000
MC_SIGMAS = 5.0  # a Monte Carlo std over R draws has relative spread 1 / sqrt(2 R)


@pytest.mark.parametrize("dim", [2, 3])
def test_run_sweep_error_bars_match_brute_force_resampling(dim):
    # the first-order error bars are the limit of infinitely many Poisson re-draws
    # around the observed counts: rebuild the sweep's draws, push each re-drawn
    # set of tables through the public per-table functions one at a time, and
    # take the spread.  Checked from 100 to 1e6 expected counts per table
    from conftest import random_instance

    rho, obs_a, obs_b = random_instance(np.random.default_rng(60 + dim), dim)
    k_grid, seed = [0.0, 0.3, 1.0], 23
    bound = MC_SIGMAS / np.sqrt(2 * MC_RESAMPLES)
    for shots in (10**2, 10**3, 10**4, 10**6):
        sweep = run_sweep(rho, obs_a, obs_b, k_grid, shots=shots, seed=seed)
        rng = np.random.default_rng(shots)
        for i, (k, counts) in enumerate(zip(k_grid, _sweep_counts(rho, obs_a, obs_b, k_grid, shots, seed))):
            redraws = [rng.poisson(c, size=(MC_RESAMPLES, dim, dim)) for c in counts]
            samples = {}
            for tables in zip(*redraws):
                for name, value in _data_paths(k, *(t / t.sum() for t in tables)).items():
                    samples.setdefault(name, []).append(value)
            assert set(sweep.errors) == set(samples)
            for name, stack in samples.items():
                if stack[0] is None:
                    assert not sweep.reached(name)[i], (shots, k, name)
                    continue
                expected = np.std(stack, axis=0, ddof=1)
                err = sweep.errors[name][i]
                assert err.shape == expected.shape, (shots, k, name)
                # a cell no count reaches never fluctuates, in either method
                assert ((err == 0.0) == (expected == 0.0)).all(), (shots, k, name)
                moving = expected > 0.0
                assert np.abs(err[moving] / expected[moving] - 1.0).max() <= bound, (shots, k, name)


def _dense_circuit(rho, obs_a, obs_b, k, nu=1.0):
    """The oracle table: the d^2 x d^2 system-pointer circuit, gate noise on its joint state."""
    joint = apply_gate_noise(weak_joint_state(rho, obs_a, k), nu, basis=obs_a.eigenvectors)
    return joint_outcome_table(joint, obs_b)


def _assert_sweep_matches_dense_circuit(rho, obs_a, obs_b, k_grid, nu):
    # every quantity of the sweep against the dense circuit's three tables per
    # point fed through the public per-table functions
    sweep = run_sweep(rho, obs_a, obs_b, k_grid, noise=nu)
    references = [_dense_circuit(rho, obs_a, obs_b, k, nu) for k in (1.0, 0.0)]
    for i, k in enumerate(k_grid):
        expected = _data_paths(k, _dense_circuit(rho, obs_a, obs_b, k, nu), *references)
        for name, table in expected.items():
            assert bool(sweep.reached(name)[i]) == (table is not None), (nu, k, name)
            if table is not None:
                assert np.abs(sweep.values[name][i] - table).max() <= 1e-12, (nu, k, name)
        assert np.abs(sweep.values["p_weak"][i] - expected["p_weak"]).max() <= 1e-12, (nu, k)
        assert np.abs(sweep.values["C"][i] - expected["C"]).max() <= 1e-12, (nu, k)


def test_run_sweep_closed_engine_matches_circuit(scenario_state, obs_z, obs_x):
    # the sweep's one engine, the closed form, against the dense circuit oracle
    _assert_sweep_matches_dense_circuit(scenario_state, obs_z, obs_x, [0.0, 0.3, 0.5, 0.9, 1.0], 1.0)


@pytest.mark.parametrize("dim", [3, 8, 16])
@pytest.mark.parametrize("oracle", ["circuit", "closed"])
def test_noisy_sweep_matches_closed_form_on_dephased_state(oracle, dim):
    # dephasing in A's basis commutes with the controlled shift, so the noisy
    # experiment equals the closed form on nu rho + (1 - nu) sum_a Pi_a rho Pi_a
    # ("closed") and the dense circuit with the noise applied to the
    # post-coupling joint state ("circuit")
    from conftest import random_instance

    rho, obs_a, obs_b = random_instance(np.random.default_rng(500 + dim), dim)
    pis = projectors(obs_a.eigenvectors)
    dephased = np.einsum("aij,jk,akl->il", pis, rho.matrix, pis)
    k_grid = [0.0, 0.3, 0.7, 1.0]
    for nu in (1.0, 0.9, 0.5, 0.0):
        target = DensityOperator(nu * rho.matrix + (1.0 - nu) * dephased)
        if oracle == "closed":
            tables = [weak_sequential_closed(target, obs_a, obs_b, k).values for k in k_grid]
            p_tpm, p_fin = tpm_joint(target, obs_a, obs_b).values, born(target.matrix, obs_b.eigenvectors)
        else:
            tables = [_dense_circuit(rho, obs_a, obs_b, k, nu) for k in k_grid]
            p_tpm, p_fin = tables[-1], tables[0].sum(axis=0)
        sweep = run_sweep(rho, obs_a, obs_b, k_grid, noise=nu)
        for k, p_weak, expected in zip(k_grid, sweep.values["p_weak"], tables):
            assert np.abs(p_weak - expected).max() <= 1e-12, (nu, k)
        assert np.abs(sweep.values["p_tpm"][0] - p_tpm).max() <= 1e-12
        assert np.abs(sweep.values["p_fin"][0] - p_fin).max() <= 1e-12


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("k_grid", [np.linspace(0.0, 1.0, 21), [0.3, 0.55, 0.55, 0.9]])
def test_run_sweep_mixes_the_three_tables_once_per_grid(monkeypatch, scenario_state, obs_z, obs_x, k_grid):
    # exact mode: one three-term broadcast and one validation over the whole
    # grid and its K=1, K=0 references; no table, POVM or joint state per
    # setting, and no wrapper object
    mixes = _count_calls(monkeypatch, sampling, "_three_term")
    validations = _count_calls(monkeypatch, sampling, "_probability_stack")
    per_setting = [
        _count_calls(monkeypatch, module, name)
        for module, name in [
            (schemes, "weak_sequential_closed"),
            (schemes, "controlled_shift"),
            (schemes, "weak_joint_state"),
            (sampling, "weak_sequential_closed"),
            (sampling, "weak_joint_state"),
            (sampling, "joint_outcome_table"),
            (sampling, "JointDistribution"),
        ]
    ]
    sweep = run_sweep(scenario_state, obs_z, obs_x, k_grid)
    assert sweep.reached("p_weak").shape == (len(k_grid),)
    assert (len(mixes), len(validations)) == (1, 1)
    assert mixes[0][0].K.shape == (len(k_grid) + 2, 1, 1)  # the grid, then K=1 and K=0
    assert [len(calls) for calls in per_setting] == [0] * len(per_setting)


def test_sweep_is_its_arrays(scenario_state, obs_z, obs_x):
    import weakquasi

    sweep = run_sweep(scenario_state, obs_z, obs_x, [0.0, 0.5, 1.0])
    assert [name for name in dir(weakquasi) if name.endswith("Record")] == []  # no per-point view
    with pytest.raises(TypeError):
        sweep[0]
    assert sweep.reached("weak_cq").tolist() == [True, True, True]
    assert sweep.reached("mhq_reconstructed").tolist() == [False, True, False]
    assert not sweep.reached("mhq_reconstructed").flags.writeable  # read-only, as values and errors
    # a misspelt quantity is an error, not a mask that reads "reached everywhere"
    with pytest.raises(KeyError, match="weak_mqh"):
        sweep.reached("weak_mqh")


def test_run_sweep_sampled_mode_draws_three_tables_per_point(monkeypatch, scenario_state, obs_z, obs_x):
    # the error bars are closed-form: no generator beyond the three draws, so no re-draws;
    # each draw reads a row of the checked exact stack, so no table is wrapped or checked again
    k_grid = [0.3, 0.55, 0.55, 0.9]
    generators = _count_calls(monkeypatch, np.random, "default_rng")
    tables = _count_calls(monkeypatch, schemes.JointDistribution, "__post_init__")
    run_sweep(scenario_state, obs_z, obs_x, k_grid, shots=10**4, seed=9)
    assert len(generators) == 3 * len(k_grid)
    assert tables == []


def test_run_sweep_draws_each_setting_as_sample_counts_does_from_its_spawned_seed(monkeypatch):
    # the stream contract: point i draws its weak, K=1 and K=0 tables from the three children of
    # SeedSequence(seed).spawn(n)[i], as sample_counts draws from that row of the exact stack
    from conftest import random_instance

    rho, obs_a, obs_b = random_instance(np.random.default_rng(35), 3)
    k_grid, shots, seed = [0.0, 0.3, 0.8, 1.0], 500, 12
    stacks, original = [], sampling._probability_stack

    def recorded(values):
        stacks.append((values, original(values)))
        return stacks[-1][1]

    monkeypatch.setattr(sampling, "_probability_stack", recorded)
    run_sweep(rho, obs_a, obs_b, k_grid, shots=shots, seed=seed, noise=0.8)
    (_, exact), (counts, _) = stacks  # the exact stack, then the drawn counts it normalizes
    n = len(k_grid)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n)):
        for t, (row, s) in enumerate(zip((i, n, n + 1), child.spawn(3))):
            assert_array_equal(counts[t, i], sample_counts(schemes.JointDistribution(exact[row]), shots, s))


def test_run_sweep_error_bars_of_a_certain_final_outcome_vanish():
    # |+> is an eigenstate of X, so every K=0 count lands in one column and
    # p_fin has no variance; its two first-order terms cancel only to rounding
    rho = make_pure_state([1.0, 1.0])
    for seed in range(10):
        sweep = run_sweep(rho, pauli_z(), pauli_x(), [0.0, 0.5, 1.0], shots=10**4, seed=seed)
        for i in range(3):
            assert sweep.errors["p_fin"][i].max() <= 1e-9
            assert all(np.isfinite(e[i]).all() for name, e in sweep.errors.items() if sweep.reached(name)[i])


def test_run_sweep_sampled_memory_stays_cubic_in_dimension():
    # the error bars need each quantity's coefficient matrix, at most (nK, d, d),
    # and a few arrays of the grid's shape per table, not d^2 perturbed tables
    from conftest import random_instance

    rho, obs_a, obs_b = random_instance(np.random.default_rng(32), 32)
    tracemalloc.start()
    try:
        run_sweep(rho, obs_a, obs_b, [0.0, 0.5, 1.0], shots=10**6, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_run_sweep_closed_engine_matches_circuit_under_noise(scenario_state, obs_z, obs_x):
    # every quantity, with the K=0 and K=1 masks, at d=2 and at d=16
    from conftest import random_instance

    k_grid = [0.0, 0.3, 0.7, 1.0]
    _assert_sweep_matches_dense_circuit(scenario_state, obs_z, obs_x, k_grid, 0.9)
    _assert_sweep_matches_dense_circuit(*random_instance(np.random.default_rng(16), 16), k_grid, 0.9)


def test_run_sweep_exact_memory_stays_within_the_grid_arrays():
    # a d=32, 200-point noisy sweep holds five (nK, d, d) arrays of 1.6 MiB
    # each (p_tpm and p_fin are views of one table), not objects per point
    from conftest import random_instance

    rho, obs_a, obs_b = random_instance(np.random.default_rng(33), 32)
    tracemalloc.start()
    try:
        sweep = run_sweep(rho, obs_a, obs_b, np.linspace(0.0, 1.0, 200), noise=0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sweep.reached("p_weak").shape == (200,)
    assert peak < 20 * 2**20


def test_run_sweep_sampled_memory_stays_within_the_grid_arrays():
    # a d=32, 200-point sampled sweep returns thirteen (nK, d, d) arrays' worth,
    # 1.6 MiB each: its three tables, four derived values and six error arrays.
    # The error bars add a few more per table while they run, not stacks per point
    from conftest import random_instance

    rho, obs_a, obs_b = random_instance(np.random.default_rng(34), 32)
    tracemalloc.start()
    try:
        sweep = run_sweep(rho, obs_a, obs_b, np.linspace(0.0, 1.0, 200), shots=10**6, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sweep.reached("p_weak").shape == (200,)
    assert peak < 48 * 2**20


@pytest.mark.parametrize("shots", [None, 100], ids=["exact", "sampled"])
def test_run_sweep_rejects_an_empty_grid_before_evaluating(monkeypatch, scenario_state, obs_z, obs_x, shots):
    # a grid without points has nothing to evaluate, in either mode
    evaluations = _count_calls(monkeypatch, sampling, "_three_term")
    with pytest.raises(ValueError, match="^the strength grid is empty$"):
        run_sweep(scenario_state, obs_z, obs_x, [], shots=shots)
    assert evaluations == []


@pytest.mark.parametrize(
    "shots, message",
    [(0, "shots must be at least 1, got 0"), (True, "shots must be an integer, got True"),
     (2.5, "shots must be an integer, got 2.5"), (10**16, f"shots must be at most {sampling.MAX_SHOTS}, got {10**16}")],
    ids=["zero", "bool", "fraction", "above-max"],
)
def test_run_sweep_rejects_bad_shots_before_evaluating(monkeypatch, scenario_state, obs_z, obs_x, shots, message):
    # a bad shot count fails at entry, before the exact stack is built, as a bad seed or grid does
    evaluations = _count_calls(monkeypatch, sampling, "_three_term")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_sweep(scenario_state, obs_z, obs_x, [0.3, 0.7], shots=shots)
    assert evaluations == []


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_run_sweep_rejects_a_seed_that_is_not_a_non_negative_integer(monkeypatch, scenario_state, obs_z, obs_x, seed):
    # bool is an int subclass, so True would draw as seed 1; exact mode draws nothing
    # but applies the same rule, so a bad seed fails the same way in both modes
    generators = _count_calls(monkeypatch, np.random, "default_rng")
    for shots in (None, 100):
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {seed!r}$"):
            run_sweep(scenario_state, obs_z, obs_x, [0.5], shots=shots, seed=seed)
    assert generators == []
    # numpy integers are integers
    sweep = run_sweep(scenario_state, obs_z, obs_x, [0.5], shots=100, seed=np.int64(3))
    assert sweep.values["p_weak"].shape == (1, 2, 2)


def test_run_sweep_rejects_underflowing_strength_before_evaluating(monkeypatch):
    # at d=3, K=1e-20 leaves omega0 = 0 and the cross weight 0, so the MHQ
    # inversion would divide by zero
    from conftest import random_instance

    assert WeakStrength(1e-20, 3).cross_weight == 0.0
    rho, obs_a, obs_b = random_instance(np.random.default_rng(3), 3)
    evaluations = _count_calls(monkeypatch, sampling, "_three_term")
    with pytest.raises(ValueError, match="K=1e-20 is too close to 0"):
        run_sweep(rho, obs_a, obs_b, [0.5, 1e-20])
    assert evaluations == []


@pytest.mark.parametrize("k, edge", [(1e-20, 0), (1e-7, 0), (1.0 - 1e-13, 1)])
def test_run_sweep_rejects_strength_below_cross_weight_floor(scenario_state, obs_z, obs_x, k, edge):
    # at d=2, K=1e-20 keeps a cross weight of about 1.6e-16, and dividing by it
    # turned rounding dust into reconstruction cells of order 0.1
    assert 0.0 < WeakStrength(k, 2).cross_weight < sampling.MIN_CROSS_WEIGHT
    with pytest.raises(ValueError, match=f"K={k:.15g} is too close to {edge}"):
        run_sweep(scenario_state, obs_z, obs_x, [0.5, k])
    # a strength whose cross weight clears the floor still reconstructs exactly
    sweep = run_sweep(scenario_state, obs_z, obs_x, [1e-5])
    assert np.abs(sweep.values["mhq_reconstructed"][0] - mhq(scenario_state, obs_z, obs_x)).max() <= 1e-9


def test_run_sweep_qutrit_weak_mhq_coverage():
    # above d=2 there is no data path to the weak MHQ at the projective endpoint
    rng = np.random.default_rng(83)
    from conftest import random_instance

    rho, obs_a, obs_b = random_instance(rng, 3)
    sweep = run_sweep(rho, obs_a, obs_b, [0.0, 0.5, 1.0])
    assert sweep.reached("weak_mhq")[0]
    assert sweep.reached("weak_mhq")[1]
    assert not sweep.reached("weak_mhq")[2]
    assert np.abs(
        sweep.values["weak_mhq"][1] - weak_mhq(rho, obs_a, obs_b, 0.5)
    ).max() <= 1e-12


# --------------------------------------------------------------- scenario

def test_qubit_scenario_state(cs):
    # the theta0 shorthand of a scenario document prepares cos(2 theta0)|H> + sin(2 theta0)|V>
    from weakquasi.cli import parse_config

    c, s = cs
    rho = parse_config('{"theta0": 10.6}').rho
    assert_allclose(rho.matrix, make_pure_state([c, s]).matrix, atol=1e-15)
    assert_allclose(parse_config('{"theta0": 0.0}').rho.matrix, np.diag([1.0, 0.0]), atol=1e-15)


def test_strength_from_waveplate():
    # the endpoints are exact, so they key the CSV rows as K=1 and K=0
    assert strength_from_waveplate(0.0) == 1.0
    assert strength_from_waveplate(22.5) == 0.0
    # every other angle keeps the bits of the formula
    for phi in np.linspace(0.0, 22.5, 91)[:-1]:
        k = 2.0 * np.cos(np.radians(2.0 * phi)) ** 2 - 1.0
        assert strength_from_waveplate(float(phi)) == min(max(float(k), 0.0), 1.0)
    # K = 2 cos^2(2 phi) - 1 at phi = 10 degrees
    assert strength_from_waveplate(10.0) == pytest.approx(
        2 * np.cos(np.radians(20.0)) ** 2 - 1, abs=1e-15
    )
    with pytest.raises(ValueError, match="22.5"):
        strength_from_waveplate(30.0)
