"""Tests for Poisson sampling, estimators, gate noise, and the sweep runner."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import weakquasi.sampling as sampling
import weakquasi.schemes as schemes
from weakquasi.core import DensityOperator, WeakStrength, make_pure_state
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
    CountTable,
    NoiseModel,
    QubitScenario,
    apply_gate_noise,
    estimate_with_errors,
    run_scenario,
    run_sweep,
    sample_counts,
    strength_from_waveplate,
)
from weakquasi.schemes import (
    joint_outcome_table,
    marginals,
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
    assert np.abs(table.counts - 250000).max() <= 2500
    assert table.shots_target == 10**6


def test_sample_counts_zero_probability_cell():
    dist = probability_table(np.array([[0.5, 0.5], [0.0, 0.0]]))
    table = sample_counts(dist, 10**5, seed=2)
    assert (table.counts[1] == 0).all()


def test_sample_counts_deterministic():
    a = sample_counts(UNIFORM4, 10**5, seed=42)
    b = sample_counts(UNIFORM4, 10**5, seed=42)
    assert (a.counts == b.counts).all()
    c = sample_counts(UNIFORM4, 10**5, seed=43)
    assert (a.counts != c.counts).any()


def test_sample_counts_rejects_quasiprobability(scenario_state, obs_z, obs_x):
    quasi = mhq(scenario_state, obs_z, obs_x)
    with pytest.raises(ValueError, match="quasiprobability"):
        sample_counts(quasi, 1000, seed=0)


def test_sample_counts_rejects_per_row_tables(scenario_state, obs_z, obs_x):
    from weakquasi.schemes import weak_tpm_joint

    rows = weak_tpm_joint(scenario_state, obs_z, obs_x)
    with pytest.raises(ValueError, match="per-row"):
        sample_counts(rows, 1000, seed=0)


def test_sample_counts_rejects_bad_shots():
    with pytest.raises(ValueError, match="shots"):
        sample_counts(UNIFORM4, 0, seed=0)
    with pytest.raises(ValueError, match="shots must be at most"):
        sample_counts(UNIFORM4, sampling.MAX_SHOTS + 1, seed=0)


def test_sample_counts_at_max_shots_sums_exactly():
    counts = sample_counts(UNIFORM4, sampling.MAX_SHOTS, seed=0)
    assert counts.total == int(counts.counts.astype(object).sum())
    assert abs(counts.total - sampling.MAX_SHOTS) < 1e-6 * sampling.MAX_SHOTS


def test_count_table_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        CountTable(np.array([[1, -2], [0, 3]]), shots_target=6)
    with pytest.raises(ValueError, match="all-zero"):
        CountTable(np.zeros((2, 2), dtype=int), shots_target=0).estimator()


# -------------------------------------------------------------- estimator

def test_estimate_uniform_stderr():
    counts = CountTable(np.full((2, 2), 250000), shots_target=10**6)
    estimate, stderr = estimate_with_errors(counts, resamples=1000, seed=3)
    assert_allclose(estimate.values, 0.25, atol=1e-12)
    # oracle: sqrt(p (1 - p) / N) for the self-normalized estimator
    expected = np.sqrt(0.25 * 0.75 / 1e6)
    assert (np.abs(stderr / expected - 1.0) <= 0.2).all()


def test_estimate_degenerate_table():
    counts = CountTable(np.array([[10**6, 0], [0, 0]]), shots_target=10**6)
    estimate, stderr = estimate_with_errors(counts, resamples=500, seed=4)
    assert_allclose(estimate.values, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)
    # resamples of the zero cells never fluctuate, so the normalized estimator
    # is constant and every standard error vanishes
    assert stderr.max() == 0.0


def test_estimate_stderr_scales_with_shots():
    big = CountTable(np.full((2, 2), 25000000), shots_target=10**8)
    small = CountTable(np.full((2, 2), 250000), shots_target=10**6)
    _, err_big = estimate_with_errors(big, resamples=2000, seed=5)
    _, err_small = estimate_with_errors(small, resamples=2000, seed=6)
    ratio = err_small.mean() / err_big.mean()
    assert 8.0 <= ratio <= 12.0  # 100x the statistics shrinks errors ~10x


def test_estimate_validation():
    counts = CountTable(np.full((2, 2), 100), shots_target=400)
    with pytest.raises(ValueError, match="resamples"):
        estimate_with_errors(counts, resamples=10, seed=0)


# ------------------------------------------------------------- gate noise

def test_noise_model_validation():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        NoiseModel(1.2)
    assert NoiseModel(1.0).is_ideal


def test_apply_gate_noise_identity(scenario_state, obs_z):
    joint = weak_joint_state(scenario_state, obs_z, 0.5)
    out = apply_gate_noise(joint, NoiseModel(1.0))
    assert out is joint


def test_apply_gate_noise_returns_valid_state(scenario_state, obs_z):
    joint = weak_joint_state(scenario_state, obs_z, 0.5)
    noisy = apply_gate_noise(joint, NoiseModel(0.7))
    assert noisy.dim == 4  # DensityOperator construction revalidates physicality


def test_apply_gate_noise_rejects_non_joint_dimension(scenario_state):
    with pytest.raises(ValueError, match="square"):
        apply_gate_noise(make_pure_state([1, 0, 0]), NoiseModel(0.5))


def test_full_dephasing_strips_coherent_content(scenario_state, obs_z, obs_x):
    # visibility 0 removes everything the weak measurement preserves of the
    # initial coherence: the reconstruction collapses to the two-point table
    records = run_sweep(scenario_state, obs_z, obs_x, [0.5], noise=NoiseModel(0.0))
    p = tpm_joint(scenario_state, obs_z, obs_x).values
    assert np.abs(records[0].mhq_reconstructed.values - p).max() <= 1e-12


def test_full_dephasing_keeps_projective_table(scenario_state, obs_z, obs_x):
    records = run_sweep(scenario_state, obs_z, obs_x, [1.0], noise=NoiseModel(0.0))
    p = tpm_joint(scenario_state, obs_z, obs_x).values
    assert np.abs(records[0].p_weak.values - p).max() <= 1e-12


def test_partial_dephasing_shifts_reconstruction_proportionally(scenario_state, obs_z, obs_x):
    # full-matrix uses the same three-setting pipeline; the reconstructed table
    # must land on nu q_MH + (1 - nu) p, a shift linear in (1 - nu)
    p = tpm_joint(scenario_state, obs_z, obs_x).values
    q_mh = mhq(scenario_state, obs_z, obs_x).values
    for nu in (0.95, 0.8):
        records = run_sweep(scenario_state, obs_z, obs_x, [0.5], noise=NoiseModel(nu))
        rec = records[0].mhq_reconstructed.values
        assert np.abs(rec - (nu * q_mh + (1 - nu) * p)).max() <= 1e-12


# ------------------------------------------------------------ sweep runner

def test_run_scenario_deterministic():
    scenario = QubitScenario(10.6)
    first = run_scenario(scenario, [0.3, 0.7], shots=10**5, seed=11)
    second = run_scenario(scenario, [0.3, 0.7], shots=10**5, seed=11)
    for a, b in zip(first, second):
        assert a.p_weak.values.tobytes() == b.p_weak.values.tobytes()
        assert a.weak_cq.values.tobytes() == b.weak_cq.values.tobytes()
        assert a.errors["p_weak"].tobytes() == b.errors["p_weak"].tobytes()
    third = run_scenario(scenario, [0.3, 0.7], shots=10**5, seed=12)
    assert (first[0].p_weak.values != third[0].p_weak.values).any()


def test_run_scenario_exact_matches_closed_forms(scenario_state, obs_z, obs_x):
    scenario = QubitScenario(10.6)
    k_grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    records = run_scenario(scenario, k_grid)
    q_mh = mhq(scenario_state, obs_z, obs_x).values
    for record, k in zip(records, k_grid):
        strength = WeakStrength.from_k(k, 2)
        assert np.abs(
            record.p_weak.values - weak_sequential_closed(scenario_state, obs_z, obs_x, k).values
        ).max() <= 1e-12
        assert np.abs(
            record.weak_cq.values - weak_cq_closed(scenario_state, obs_z, obs_x, k).values
        ).max() <= 1e-12
        assert np.abs(
            record.weak_mhq.values - weak_mhq(scenario_state, obs_z, obs_x, k).values
        ).max() <= 1e-12
        assert np.abs(record.coherence - strength.cross_weight * q_mh).max() <= 1e-12
        if 0.0 < k < 1.0:
            assert np.abs(record.mhq_reconstructed.values - q_mh).max() <= 1e-12
        else:
            assert record.mhq_reconstructed is None
        assert record.errors["p_weak"].max() == 0.0


def test_run_scenario_zero_strength_record(scenario_state, obs_z, obs_x):
    record = run_scenario(QubitScenario(10.6), [0.0])[0]
    p_fin = marginals(scenario_state, obs_z, obs_x).p_fin
    assert_allclose(record.weak_cq.values, np.tile(p_fin / 2, (2, 1)), atol=1e-12)


def test_run_scenario_commuting_state_never_negative():
    records = run_scenario(QubitScenario(0.0), np.linspace(0, 1, 11))
    for record in records:
        assert negativity(record.weak_cq) == 0.0
        if record.weak_mhq is not None:
            assert negativity(record.weak_mhq) == 0.0


def test_run_scenario_sign_change_brackets_threshold():
    records = run_scenario(QubitScenario(10.6), [0.43, 0.45])
    assert records[0].weak_cq.values[1, 1] > 0.0
    assert records[1].weak_cq.values[1, 1] < 0.0


def test_run_scenario_reconstruction_noise_grows_toward_endpoints():
    records = run_scenario(QubitScenario(10.6), [0.1, 0.5, 0.9], shots=10**5, seed=5)
    spread = {r.strength.K: r.errors["mhq_reconstructed"].mean() for r in records}
    assert spread[0.1] > spread[0.5]
    assert spread[0.9] > spread[0.5]


def test_run_sweep_estimator_error_shrinks_with_shots():
    scenario = QubitScenario(10.6)
    exact = weak_sequential_closed(
        scenario.state(), scenario.observable_a, scenario.observable_b, 0.5
    ).values
    errors = {}
    for shots in (10**3, 10**5, 10**7):
        deviations = []
        for seed in range(10):
            record = run_scenario(scenario, [0.5], shots=shots, seed=seed)[0]
            deviations.append(np.abs(record.p_weak.values - exact).mean())
        errors[shots] = np.mean(deviations)
    slope = (np.log10(errors[10**7]) - np.log10(errors[10**3])) / 4.0
    assert slope == pytest.approx(-0.5, abs=0.1)


def test_run_sweep_sampled_mode_reports_errors():
    record = run_scenario(QubitScenario(10.6), [0.5], shots=10**5, seed=9)[0]
    for key in ("p_weak", "weak_cq", "weak_mhq", "C", "mhq_reconstructed"):
        assert record.errors[key].min() > 0.0
    total = record.p_weak.total()
    assert total == pytest.approx(1.0, abs=1e-12)  # estimators are normalized counts


def _weak_mhq_by_rule(k, d, wcq, rec, pf):
    """The data-path weak-MHQ rule, written out for one table."""
    if 0.0 < k < 1.0:
        return k * rec + ((1.0 - k) / d) * pf[None, :]
    if k == 0.0:
        return np.tile(pf / d, (d, 1))
    return wcq if d == 2 else None


@pytest.mark.parametrize("dim", [2, 3])
def test_run_sweep_error_bars_match_brute_force_resampling(dim):
    # rebuild the sweep's seed tree and draws, push each re-drawn set of tables
    # through the public per-table functions one at a time, and take the spread
    from conftest import random_instance

    rho, obs_a, obs_b = random_instance(np.random.default_rng(60 + dim), dim)
    k_grid, shots, resamples, seed = [0.0, 0.3, 1.0], 10**4, 200, 23
    records = run_sweep(
        rho, obs_a, obs_b, k_grid, shots=shots, resamples=resamples, seed=seed, engine="closed"
    )
    children = np.random.SeedSequence(seed).spawn(len(k_grid))
    for k, child, record in zip(k_grid, children, records):
        strength = WeakStrength.from_k(k, dim)
        seeds = child.spawn(4)
        counts = [
            sample_counts(weak_sequential_closed(rho, obs_a, obs_b, setting), shots, s).counts
            for setting, s in zip((k, 1.0, 0.0), seeds)
        ]
        rng = np.random.default_rng(seeds[3])
        redraws = [rng.poisson(c, size=(resamples, dim, dim)) for c in counts]
        samples = {
            name: []
            for name in ("p_weak", "p_tpm", "p_fin", "weak_cq", "C", "mhq_reconstructed", "weak_mhq")
        }
        for tables in zip(*redraws):
            pw, pt, p_final = (t / t.sum() for t in tables)
            pf = p_final.sum(axis=0)
            wcq = weak_cq_from_data(pw, pf, strength).values
            rec = mhq_from_weak(pw, pt, pf, strength).values if 0.0 < k < 1.0 else None
            point = {
                "p_weak": pw,
                "p_tpm": pt,
                "p_fin": pf,
                "weak_cq": wcq,
                "C": coherence_term(pw, pt, pf, strength),
                "mhq_reconstructed": rec,
                "weak_mhq": _weak_mhq_by_rule(k, dim, wcq, rec, pf),
            }
            for name, value in point.items():
                samples[name].append(value)
        assert set(record.errors) == set(samples)
        for name, stack in samples.items():
            if stack[0] is None:
                assert record.errors[name] is None, (k, name)
            else:
                expected = np.std(stack, axis=0, ddof=1)
                assert record.errors[name].shape == expected.shape, (k, name)
                assert np.abs(record.errors[name] - expected).max() <= 1e-12, (k, name)


def test_run_sweep_closed_engine_matches_circuit(scenario_state, obs_z, obs_x):
    circuit = run_sweep(scenario_state, obs_z, obs_x, [0.3], engine="circuit")[0]
    closed = run_sweep(scenario_state, obs_z, obs_x, [0.3], engine="closed")[0]
    assert np.abs(circuit.p_weak.values - closed.p_weak.values).max() <= 1e-12


@pytest.mark.parametrize("dim", [3, 8, 16])
@pytest.mark.parametrize("engine", ["circuit", "closed"])
def test_noisy_sweep_matches_closed_form_on_dephased_state(engine, dim):
    # dephasing in A's basis commutes with the controlled shift, so the noisy
    # experiment equals the closed form on nu rho + (1 - nu) sum_a Pi_a rho Pi_a
    # and the circuit with the noise applied to the post-coupling joint state
    from conftest import random_instance

    rho, obs_a, obs_b = random_instance(np.random.default_rng(500 + dim), dim)
    projectors = obs_a.projectors()
    dephased = np.einsum("aij,jk,akl->il", projectors, rho.matrix, projectors)
    k_grid = [0.0, 0.3, 0.7, 1.0]
    for nu in (1.0, 0.9, 0.5, 0.0):
        target = DensityOperator(nu * rho.matrix + (1.0 - nu) * dephased)
        records = run_sweep(rho, obs_a, obs_b, k_grid, noise=NoiseModel(nu), engine=engine)
        for k, record in zip(k_grid, records):
            expected = weak_sequential_closed(target, obs_a, obs_b, k).values
            assert np.abs(record.p_weak.values - expected).max() <= 1e-12, (nu, k)
            noisy_joint = apply_gate_noise(
                weak_joint_state(rho, obs_a, k), NoiseModel(nu), basis=obs_a.eigenvectors
            )
            oracle = joint_outcome_table(noisy_joint, obs_b)
            assert np.abs(record.p_weak.values - oracle).max() <= 1e-12, (nu, k)
        assert np.abs(records[0].p_tpm.values - tpm_joint(target, obs_a, obs_b).values).max() <= 1e-12
        assert np.abs(records[0].p_fin - marginals(target, obs_a, obs_b).p_fin).max() <= 1e-12


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "k_grid, evaluations",
    [(np.linspace(0.0, 1.0, 21), 21), ([0.3, 0.55, 0.55, 0.9], 5)],
)
@pytest.mark.parametrize("engine", ["circuit", "closed"])
def test_run_sweep_evaluates_each_distinct_setting_once(
    monkeypatch, scenario_state, obs_z, obs_x, k_grid, evaluations, engine
):
    # every point needs its own K plus the references K=1 and K=0, which are
    # shared: one table per element of set(grid) | {0, 1}.  The circuit engine
    # reads each setting through the weak POVM's Kraus operators and never
    # builds the d^2 x d^2 joint state of the dense oracle
    readouts = _count_calls(monkeypatch, schemes, "weak_povm")
    closed = _count_calls(monkeypatch, sampling, "weak_sequential_closed")
    dense = [
        _count_calls(monkeypatch, module, name)
        for module, name in [
            (schemes, "controlled_shift"),
            (schemes, "weak_joint_state"),
            (schemes, "joint_outcome_table"),
            (sampling, "weak_joint_state"),
            (sampling, "joint_outcome_table"),
        ]
    ]
    records = run_sweep(scenario_state, obs_z, obs_x, k_grid, engine=engine)
    assert len(records) == len(k_grid)
    assert len(readouts) + len(closed) == evaluations
    assert len(readouts if engine == "circuit" else closed) == evaluations
    assert [len(calls) for calls in dense] == [0] * len(dense)


def test_run_sweep_sampled_mode_draws_three_tables_per_point(monkeypatch, scenario_state, obs_z, obs_x):
    k_grid = [0.3, 0.55, 0.55, 0.9]
    draws = _count_calls(monkeypatch, sampling, "sample_counts")
    run_sweep(scenario_state, obs_z, obs_x, k_grid, shots=10**4, resamples=100, seed=9)
    assert len(draws) == 3 * len(k_grid)


def test_run_sweep_rejects_too_few_resamples(scenario_state, obs_z, obs_x):
    with pytest.raises(ValueError, match="need at least 100 resamples, got 99"):
        run_sweep(scenario_state, obs_z, obs_x, [0.5], shots=1000, resamples=99)
    # exact mode draws no resamples, so any count is accepted
    assert run_sweep(scenario_state, obs_z, obs_x, [0.5], resamples=0)[0].errors["p_weak"].max() == 0.0


def test_resampling_rejects_more_than_max_resamples(scenario_state, obs_z, obs_x):
    too_many = sampling.MAX_RESAMPLES + 1
    message = f"need at most {sampling.MAX_RESAMPLES} resamples, got {too_many}"
    with pytest.raises(ValueError, match=message):
        run_sweep(scenario_state, obs_z, obs_x, [0.5], shots=1000, resamples=too_many)
    counts = sample_counts(UNIFORM4, 1000, seed=1)
    with pytest.raises(ValueError, match=message):
        estimate_with_errors(counts, too_many, seed=2)


def test_run_sweep_closed_engine_matches_circuit_under_noise(scenario_state, obs_z, obs_x):
    k_grid = [0.0, 0.3, 0.7, 1.0]
    sweeps = [
        run_sweep(scenario_state, obs_z, obs_x, k_grid, noise=NoiseModel(0.9), engine=engine)
        for engine in ("circuit", "closed")
    ]
    for circuit, closed in zip(*sweeps):
        for name in ("p_weak", "p_tpm", "weak_cq", "weak_mhq", "mhq_reconstructed"):
            table_c, table_d = getattr(circuit, name), getattr(closed, name)
            assert (table_c is None) == (table_d is None), name
            if table_c is not None:
                assert np.abs(table_c.values - table_d.values).max() <= 1e-12, name
        assert np.abs(circuit.p_fin - closed.p_fin).max() <= 1e-12
        assert np.abs(circuit.coherence - closed.coherence).max() <= 1e-12


@pytest.mark.parametrize("engine", ["circuit", "closed"])
def test_run_sweep_rejects_underflowing_strength_before_evaluating(monkeypatch, engine):
    # at d=3, K=1e-20 leaves omega0 = 0 and the cross weight 0, so the MHQ
    # inversion would divide by zero
    from conftest import random_instance

    assert WeakStrength.from_k(1e-20, 3).cross_weight == 0.0
    rho, obs_a, obs_b = random_instance(np.random.default_rng(3), 3)
    evaluations = _count_calls(monkeypatch, sampling, "_exact_setting_tables")
    with pytest.raises(ValueError, match="K=1e-20 is too close to 0"):
        run_sweep(rho, obs_a, obs_b, [0.5, 1e-20], engine=engine)
    assert evaluations == []


@pytest.mark.parametrize("k, edge", [(1e-20, 0), (1e-7, 0), (1.0 - 1e-13, 1)])
def test_run_sweep_rejects_strength_below_cross_weight_floor(scenario_state, obs_z, obs_x, k, edge):
    # at d=2, K=1e-20 keeps a cross weight of about 1.6e-16, and dividing by it
    # turned rounding dust into reconstruction cells of order 0.1
    assert 0.0 < WeakStrength.from_k(k, 2).cross_weight < sampling.MIN_CROSS_WEIGHT
    with pytest.raises(ValueError, match=f"K={k:.15g} is too close to {edge}"):
        run_sweep(scenario_state, obs_z, obs_x, [0.5, k])
    # a strength whose cross weight clears the floor still reconstructs exactly
    record = run_sweep(scenario_state, obs_z, obs_x, [1e-5])[0]
    assert np.abs(record.mhq_reconstructed.values - mhq(scenario_state, obs_z, obs_x).values).max() <= 1e-9


def test_run_sweep_qutrit_weak_mhq_coverage():
    # above d=2 there is no data path to the weak MHQ at the projective endpoint
    rng = np.random.default_rng(83)
    from conftest import random_instance

    rho, obs_a, obs_b = random_instance(rng, 3)
    records = run_sweep(rho, obs_a, obs_b, [0.0, 0.5, 1.0])
    assert records[0].weak_mhq is not None
    assert records[1].weak_mhq is not None
    assert records[2].weak_mhq is None
    assert np.abs(
        records[1].weak_mhq.values - weak_mhq(rho, obs_a, obs_b, 0.5).values
    ).max() <= 1e-12


# --------------------------------------------------------------- scenario

def test_qubit_scenario_state(cs):
    c, s = cs
    rho = QubitScenario(10.6).state()
    assert_allclose(rho.matrix, make_pure_state([c, s]).matrix, atol=1e-15)
    assert_allclose(QubitScenario(0.0).state().matrix, np.diag([1.0, 0.0]), atol=1e-15)


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
