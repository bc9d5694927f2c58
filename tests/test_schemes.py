"""Tests for the measurement schemes and their joint outcome tables."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_instance, random_observable
from oracles import (
    born,
    marginals,
    nonselective_state,
    post_measurement_state,
    povm_elements,
    projector,
    weak_kraus,
    weak_sequential_oracle,
    weak_tpm_joint,
)
from weakquasi.core import (
    DensityOperator,
    InternalConsistencyError,
    ObservableSpec,
    WeakStrength,
    make_pure_state,
)
from weakquasi.schemes import (
    JointDistribution,
    joint_outcome_table,
    probability_table,
    tpm_joint,
    weak_joint_state,
    weak_sequential_closed,
)


# ------------------------------------------------------------ containers

def test_joint_distribution_rejects_negative_probability():
    with pytest.raises(ValueError, match="negative"):
        JointDistribution(np.array([[0.6, 0.5], [-0.1, 0.0]]))


def test_joint_distribution_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        JointDistribution(np.full((2, 2), 0.3))


def test_joint_distribution_is_always_a_probability_table():
    # quasiprobabilities are the quasiprob functions' plain arrays, and every table sums to 1 as a whole
    with pytest.raises(TypeError, match="kind"):
        JointDistribution(np.full((2, 2), 0.25), kind="quasiprobability")
    with pytest.raises(TypeError, match="normalization"):
        JointDistribution(np.full((2, 2), 0.5), normalization="total")


def test_probability_table_clamps_dust():
    dist = probability_table(np.array([[0.5, 0.5], [-1e-14, 0.0]]))
    assert dist.values.min() == 0.0
    assert dist.values.sum() == pytest.approx(1.0, abs=1e-15)


def test_probability_table_raises_beyond_dust():
    with pytest.raises(InternalConsistencyError, match="negative"):
        probability_table(np.array([[0.5, 0.5], [-1e-9, 0.0]]))


# -------------------------------------------------------------- TPM joint

def test_tpm_diagonal_state_uniform_overlap(obs_z, obs_x):
    rho = DensityOperator(np.diag([0.7, 0.3]))
    dist = tpm_joint(rho, obs_z, obs_x)
    assert_allclose(dist.values, [[0.35, 0.35], [0.15, 0.15]], atol=1e-12)


def test_tpm_scenario_values(cs, scenario_state, obs_z, obs_x):
    c, s = cs
    dist = tpm_joint(scenario_state, obs_z, obs_x)
    assert_allclose(dist.values, [[c * c / 2, c * c / 2], [s * s / 2, s * s / 2]], atol=1e-12)


def test_tpm_maximally_mixed(obs_z, obs_x):
    rho = DensityOperator(np.eye(2) / 2)
    assert_allclose(tpm_joint(rho, obs_z, obs_x).values, 0.25, atol=1e-12)


def test_tpm_marginal_over_b_is_first_born():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        rho, obs_a, obs_b = random_instance(rng, d)
        dist = tpm_joint(rho, obs_a, obs_b)
        assert_allclose(dist.values.sum(axis=1), born(rho.matrix, obs_a.eigenvectors), atol=1e-12)


def test_tpm_dimension_mismatch(obs_z):
    rho3 = DensityOperator(np.eye(3) / 3)
    with pytest.raises(ValueError, match="mismatch"):
        tpm_joint(rho3, obs_z, obs_z)


# ------------------------------------------------------------------ POVM
# the strength-K POVM as Kraus arrays from tests/oracles.py: the pointer-circuit
# tests below check it against the package's coupling

def test_weak_povm_projective_limit(obs_z):
    elements = povm_elements(weak_kraus(obs_z.eigenvectors, 1.0))
    assert_allclose(elements[0], np.diag([1.0, 0.0]), atol=1e-12)
    assert_allclose(elements[1], np.diag([0.0, 1.0]), atol=1e-12)


def test_weak_povm_no_measurement_limit():
    rng = np.random.default_rng(7)
    elements = povm_elements(weak_kraus(random_observable(3, rng).eigenvectors, 0.0))
    for a in range(3):
        assert_allclose(elements[a], np.eye(3) / 3, atol=1e-12)


def test_weak_povm_half_strength(obs_z):
    elements = povm_elements(weak_kraus(obs_z.eigenvectors, 0.5))
    assert_allclose(elements[0], np.diag([0.75, 0.25]), atol=1e-12)


def test_weak_povm_element_form_matches_strength():
    # M_a = K Pi_a + (1-K) I/d, the defining one-parameter family
    rng = np.random.default_rng(13)
    for d in (2, 3, 4):
        obs = random_observable(d, rng)
        for k in (0.2, 0.6, 0.9):
            elements = povm_elements(weak_kraus(obs.eigenvectors, k))
            for a in range(d):
                expected = k * projector(obs.eigenvectors, a) + (1 - k) * np.eye(d) / d
                assert np.abs(elements[a] - expected).max() <= 1e-12


# ----------------------------------------------------- conditional states

def test_post_measurement_projective_collapse(scenario_state, obs_z):
    out = post_measurement_state(scenario_state.matrix, weak_kraus(obs_z.eigenvectors, 1.0), 0)
    assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_post_measurement_identity_at_zero_strength(scenario_state, obs_z):
    out = post_measurement_state(scenario_state.matrix, weak_kraus(obs_z.eigenvectors, 0.0), 1)
    assert_allclose(out, scenario_state.matrix, atol=1e-12)


def test_post_measurement_matches_circuit_conditional(scenario_state, obs_z):
    # condition the package's coupled d^2 state on the pointer outcome directly
    k = 0.5
    sigma = weak_joint_state(scenario_state, ObservableSpec(np.eye(2), [0, 1]), k)
    blocks = sigma.matrix.reshape(2, 2, 2, 2)
    outcome = 0
    conditional = blocks[:, outcome, :, outcome]
    prob = np.trace(conditional).real
    expected = conditional / prob

    kraus = weak_kraus(obs_z.eigenvectors, k)
    out = post_measurement_state(scenario_state.matrix, kraus, outcome)
    assert np.abs(out - expected).max() <= 1e-12
    born_weight = np.trace(povm_elements(kraus)[outcome] @ scenario_state.matrix).real
    assert born_weight == pytest.approx(prob, abs=1e-12)


# ------------------------------------------------- weak-sequential tables

def test_weak_sequential_closed_projective_limit(scenario_state, obs_z, obs_x):
    closed = weak_sequential_closed(scenario_state, obs_z, obs_x, 1.0)
    assert_allclose(closed.values, tpm_joint(scenario_state, obs_z, obs_x).values, atol=1e-12)


def test_weak_sequential_closed_no_measurement_limit(scenario_state, obs_z, obs_x):
    closed = weak_sequential_closed(scenario_state, obs_z, obs_x, 0.0)
    p_fin = born(scenario_state.matrix, obs_x.eigenvectors)
    assert_allclose(closed.values, np.tile(p_fin / 2, (2, 1)), atol=1e-12)


def test_weak_sequential_closed_half_strength_cell(cs, scenario_state, obs_z, obs_x):
    # scalar oracle: omega0^2 p + (omega1^2/2) p_fin + sqrt(2) omega0 omega1 q_MH
    c, s = cs
    omega0, omega1 = (np.sqrt(3) - 1) / 2, np.sqrt(0.5)
    expected = (
        omega0**2 * (s * s / 2)
        + (omega1**2 / 2) * ((c - s) ** 2 / 2)
        + np.sqrt(2) * omega0 * omega1 * (-s * (c - s) / 2)
    )
    closed = weak_sequential_closed(scenario_state, obs_z, obs_x, 0.5)
    assert closed.values[1, 1] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.011702, abs=5e-7)


def test_weak_sequential_closed_nonnegative_random():
    rng = np.random.default_rng(29)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        rho, obs_a, obs_b = random_instance(rng, d)
        dist = weak_sequential_closed(rho, obs_a, obs_b, float(rng.uniform(0, 1)))
        assert dist.values.min() >= 0.0
        assert dist.values.sum() == pytest.approx(1.0, abs=1e-10)


def test_weak_sequential_oracle_matches_closed_pure(scenario_state, obs_z, obs_x):
    for k in np.linspace(0, 1, 11):
        oracle = weak_sequential_oracle(scenario_state, obs_z, obs_x, k)
        closed = weak_sequential_closed(scenario_state, obs_z, obs_x, k)
        assert np.abs(oracle.values - closed.values).max() <= 1e-12


def test_weak_sequential_oracle_matches_closed_mixed(obs_z, obs_x):
    h = make_pure_state([1, 0]).matrix
    d_state = make_pure_state([1, 1]).matrix
    rho = DensityOperator(0.5 * h + 0.5 * d_state)
    oracle = weak_sequential_oracle(rho, obs_z, obs_x, 0.7)
    closed = weak_sequential_closed(rho, obs_z, obs_x, 0.7)
    assert np.abs(oracle.values - closed.values).max() <= 1e-12


def test_weak_sequential_oracle_matches_closed_qutrit():
    rng = np.random.default_rng(31)
    rho, obs_a, obs_b = random_instance(rng, 3)
    oracle = weak_sequential_oracle(rho, obs_a, obs_b, 0.3)
    closed = weak_sequential_closed(rho, obs_a, obs_b, 0.3)
    assert np.abs(oracle.values - closed.values).max() <= 1e-12


def test_weak_joint_state_reproduces_oracle_table(scenario_state, obs_z, obs_x):
    joint = weak_joint_state(scenario_state, obs_z, 0.4)
    assert joint.dim == 4
    table = joint_outcome_table(joint, obs_x)
    assert_allclose(
        table, weak_sequential_oracle(scenario_state, obs_z, obs_x, 0.4).values, atol=1e-14
    )


# --------------------------------------------- non-selective measurements

def test_nonselective_commuting_state_unchanged(obs_z):
    rho = DensityOperator(np.diag([0.7, 0.3]))
    out = nonselective_state(rho.matrix, obs_z.eigenvectors, 0)
    assert_allclose(out, rho.matrix, atol=1e-12)


def test_nonselective_qubit_dephasing(cs, scenario_state, obs_z):
    c, s = cs
    out = nonselective_state(scenario_state.matrix, obs_z.eigenvectors, 0)
    assert_allclose(out, np.diag([c * c, s * s]), atol=1e-12)


def test_nonselective_qutrit_preserves_complement_block():
    rho = make_pure_state([1, 1, 1])
    out = nonselective_state(rho.matrix, np.eye(3), 0)
    third = 1.0 / 3.0
    expected = np.array(
        [[third, 0, 0], [0, third, third], [0, third, third]], dtype=complex
    )
    assert_allclose(out, expected, atol=1e-12)


def test_weak_tpm_rows_for_commuting_state(obs_z, obs_x):
    rho = DensityOperator(np.diag([0.7, 0.3]))
    rows = weak_tpm_joint(rho.matrix, obs_z.eigenvectors, obs_x.eigenvectors)
    p_fin = born(rho.matrix, obs_x.eigenvectors)
    for a in range(2):
        assert_allclose(rows[a], p_fin, atol=1e-12)


def test_weak_tpm_scenario_cell(scenario_state, obs_z, obs_x):
    rows = weak_tpm_joint(scenario_state.matrix, obs_z.eigenvectors, obs_x.eigenvectors)
    assert rows[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert_allclose(rows.sum(axis=1), [1.0, 1.0], atol=1e-10)


def test_weak_tpm_maximally_mixed(obs_z, obs_x):
    rho = DensityOperator(np.eye(2) / 2)
    assert_allclose(weak_tpm_joint(rho.matrix, obs_z.eigenvectors, obs_x.eigenvectors), 0.5, atol=1e-12)


# -------------------------------------------------------------- marginals

def test_marginals_scenario_values(cs, scenario_state, obs_z, obs_x):
    c, s = cs
    p_in, p_fin, p_post = marginals(scenario_state.matrix, obs_z.eigenvectors, obs_x.eigenvectors)
    assert_allclose(p_fin, [(c + s) ** 2 / 2, (c - s) ** 2 / 2], atol=1e-12)
    assert_allclose(p_post, [0.5, 0.5], atol=1e-12)
    assert_allclose(p_in, [c * c, s * s], atol=1e-12)


def test_marginals_uniform_state():
    rng = np.random.default_rng(41)
    for d in (2, 3, 4):
        rho = DensityOperator(np.eye(d) / d)
        _, obs_a, obs_b = random_instance(rng, d)
        for vec in marginals(rho.matrix, obs_a.eigenvectors, obs_b.eigenvectors):
            assert_allclose(vec, np.full(d, 1 / d), atol=1e-10)


# ------------------------------------------------------------- identities

def test_disturbance_identity_random():
    # p_fin(b) - sum_a p_weak(a,b) = omega0^2 (p_fin(b) - p_post(b))
    rng = np.random.default_rng(43)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        rho, obs_a, obs_b = random_instance(rng, d)
        k = float(rng.uniform(0, 1))
        strength = WeakStrength(k, d)
        pw = weak_sequential_closed(rho, obs_a, obs_b, k)
        _, p_fin, p_post = marginals(rho.matrix, obs_a.eigenvectors, obs_b.eigenvectors)
        lhs = p_fin - pw.values.sum(axis=0)
        rhs = strength.omega0**2 * (p_fin - p_post)
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_strength_marginal_law_random():
    # sum_b p_weak(a,b) = K p_in(a) + (1-K)/d
    rng = np.random.default_rng(47)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        rho, obs_a, obs_b = random_instance(rng, d)
        k = float(rng.uniform(0, 1))
        pw = weak_sequential_closed(rho, obs_a, obs_b, k)
        p_in = born(rho.matrix, obs_a.eigenvectors)
        assert np.abs(pw.values.sum(axis=1) - (k * p_in + (1 - k) / d)).max() <= 1e-12


def test_commuting_state_keeps_weak_table_classical(obs_z, obs_x):
    # with [rho, A] = 0 the cross term reduces to the two-point table itself
    rho = DensityOperator(np.diag([0.8, 0.2]))
    p = tpm_joint(rho, obs_z, obs_x).values
    p_fin = born(rho.matrix, obs_x.eigenvectors)
    for k in np.linspace(0, 1, 7):
        strength = WeakStrength(k, 2)
        pw = weak_sequential_closed(rho, obs_z, obs_x, k)
        expected = (
            (strength.omega0**2 + strength.cross_weight) * p
            + (strength.omega1**2 / 2) * p_fin[None, :]
        )
        assert np.abs(pw.values - expected).max() <= 1e-12
        assert pw.values.min() >= 0.0
