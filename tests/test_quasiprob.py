"""Tests for the quasiprobability families, thresholds, and reconstructions."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_instance
from oracles import born, marginals, mhq_from_weak_tpm
from weakquasi.core import DensityOperator, InternalConsistencyError, WeakStrength, make_pure_state
from weakquasi.quasiprob import (
    QuasiDistribution,
    cq,
    coherence_term,
    mhq,
    mhq_from_weak,
    negativity,
    threshold_strength,
    weak_cq_closed,
    weak_cq_from_data,
    weak_mhq,
)
from weakquasi.schemes import tpm_joint, weak_sequential_closed


def scenario_mh_oracle(c, s):
    """Hand-derived MHQ table for the demo state: Re[<b|a><a|psi><psi|b>]."""
    return np.array(
        [[c * (c + s) / 2, c * (c - s) / 2], [s * (c + s) / 2, -s * (c - s) / 2]]
    )


# ---------------------------------------------------------------- CQ, MHQ

def test_cq_commuting_equals_tpm(obs_z, obs_x):
    rho = DensityOperator(np.diag([0.7, 0.3]))
    assert_allclose(cq(rho, obs_z, obs_x).values, tpm_joint(rho, obs_z, obs_x).values, atol=1e-12)


def test_cq_scenario_negative_cell(cs, scenario_state, obs_z, obs_x):
    c, s = cs
    table = cq(scenario_state, obs_z, obs_x)
    assert table.values[1, 1] == pytest.approx(-s * (c - s) / 2, abs=1e-12)
    assert table.values[1, 1] == pytest.approx(-0.103189, abs=5e-7)


def test_cq_maximally_mixed(obs_z, obs_x):
    rho = DensityOperator(np.eye(2) / 2)
    assert_allclose(cq(rho, obs_z, obs_x).values, 0.25, atol=1e-12)


def test_mhq_scenario_table(cs, scenario_state, obs_z, obs_x):
    c, s = cs
    assert_allclose(mhq(scenario_state, obs_z, obs_x).values, scenario_mh_oracle(c, s), atol=1e-12)


def test_mhq_commuting_equals_tpm(obs_z, obs_x):
    rho = DensityOperator(np.diag([0.7, 0.3]))
    assert_allclose(mhq(rho, obs_z, obs_x).values, tpm_joint(rho, obs_z, obs_x).values, atol=1e-12)


def test_mhq_maximally_mixed_is_overlap_table():
    rng = np.random.default_rng(53)
    for d in (2, 3, 4):
        rho = DensityOperator(np.eye(d) / d)
        _, obs_a, obs_b = random_instance(rng, d)
        table = mhq(rho, obs_a, obs_b)
        overlap = np.abs(obs_a.eigenvectors.conj().T @ obs_b.eigenvectors) ** 2
        assert_allclose(table.values, overlap / d, atol=1e-12)
        assert table.values.min() >= -1e-15


def test_cq_equals_mhq_for_qubits():
    rng = np.random.default_rng(59)
    for _ in range(100):
        rho, obs_a, obs_b = random_instance(rng, 2)
        assert np.abs(cq(rho, obs_a, obs_b).values - mhq(rho, obs_a, obs_b).values).max() <= 1e-12


# ------------------------------------------------------- weak CQ variants

def test_weak_cq_from_data_projective_inputs(scenario_state, obs_z, obs_x):
    p = tpm_joint(scenario_state, obs_z, obs_x)
    p_fin = born(scenario_state.matrix, obs_x.eigenvectors)
    table = weak_cq_from_data(p, p_fin)
    assert_allclose(table.values, cq(scenario_state, obs_z, obs_x).values, atol=1e-12)


def test_weak_cq_from_data_zero_strength(scenario_state, obs_z, obs_x):
    pw = weak_sequential_closed(scenario_state, obs_z, obs_x, 0.0)
    p_fin = born(scenario_state.matrix, obs_x.eigenvectors)
    table = weak_cq_from_data(pw, p_fin)
    assert_allclose(table.values, np.tile(p_fin / 2, (2, 1)), atol=1e-12)
    assert table.values.min() >= 0.0


def test_weak_cq_from_data_rejects_mismatched_marginal(scenario_state, obs_z, obs_x):
    pw = weak_sequential_closed(scenario_state, obs_z, obs_x, 0.5)
    with pytest.raises(ValueError, match="p_fin"):
        weak_cq_from_data(pw, np.array([0.2, 0.3, 0.5]))


def test_weak_cq_from_data_half_strength_cell(cs, scenario_state, obs_z, obs_x):
    # qubit identity oracle: weak CQ = K q_MH + ((1-K)/2) p_fin
    c, s = cs
    pw = weak_sequential_closed(scenario_state, obs_z, obs_x, 0.5)
    p_fin = born(scenario_state.matrix, obs_x.eigenvectors)
    table = weak_cq_from_data(pw, p_fin)
    expected = 0.5 * (-s * (c - s) / 2) + 0.25 * ((c - s) ** 2 / 2)
    assert table.values[1, 1] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-0.010883, abs=5e-7)


def test_weak_cq_closed_matches_data_path():
    rng = np.random.default_rng(61)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        rho, obs_a, obs_b = random_instance(rng, d)
        k = float(rng.uniform(0, 1))
        closed = weak_cq_closed(rho, obs_a, obs_b, k)
        pw = weak_sequential_closed(rho, obs_a, obs_b, k)
        p_fin = born(rho.matrix, obs_b.eigenvectors)
        from_data = weak_cq_from_data(pw, p_fin)
        assert np.abs(closed.values - from_data.values).max() <= 1e-12


def test_weak_mhq_endpoints(scenario_state, obs_z, obs_x):
    p_fin = born(scenario_state.matrix, obs_x.eigenvectors)
    assert_allclose(
        weak_mhq(scenario_state, obs_z, obs_x, 1.0).values,
        mhq(scenario_state, obs_z, obs_x).values,
        atol=1e-12,
    )
    assert_allclose(
        weak_mhq(scenario_state, obs_z, obs_x, 0.0).values, np.tile(p_fin / 2, (2, 1)), atol=1e-12
    )


def test_weak_mhq_below_threshold_cell(cs, scenario_state, obs_z, obs_x):
    c, s = cs
    table = weak_mhq(scenario_state, obs_z, obs_x, 0.4)
    expected = 0.4 * (-s * (c - s) / 2) + 0.3 * ((c - s) ** 2 / 2)
    assert table.values[1, 1] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.007579, abs=5e-7)
    assert table.values.min() > 0.0  # strength below the negativity threshold


def test_weak_families_coincide_for_qubits():
    rng = np.random.default_rng(67)
    for _ in range(100):
        rho, obs_a, obs_b = random_instance(rng, 2)
        for k in np.linspace(0, 1, 11):
            gap = np.abs(
                weak_cq_closed(rho, obs_a, obs_b, k).values
                - weak_mhq(rho, obs_a, obs_b, k).values
            ).max()
            assert gap <= 1e-12


def test_weak_families_separate_at_dimension_three():
    rho, obs_a, obs_b = random_instance(np.random.default_rng(0), 3)
    gap = np.abs(
        weak_cq_closed(rho, obs_a, obs_b, 0.5).values - weak_mhq(rho, obs_a, obs_b, 0.5).values
    ).max()
    assert gap > 1e-3


# ----------------------------------------------------------- cross terms

def test_coherence_term_zero_at_endpoints(scenario_state, obs_z, obs_x):
    p = tpm_joint(scenario_state, obs_z, obs_x)
    p_fin = born(scenario_state.matrix, obs_x.eigenvectors)
    for k in (0.0, 1.0):
        pw = weak_sequential_closed(scenario_state, obs_z, obs_x, k)
        c_table = coherence_term(pw, p, p_fin, WeakStrength(k, 2))
        assert np.abs(c_table).max() <= 1e-12


def test_coherence_term_half_strength_cell(cs, scenario_state, obs_z, obs_x):
    c, s = cs
    strength = WeakStrength(0.5, 2)
    pw = weak_sequential_closed(scenario_state, obs_z, obs_x, 0.5)
    p = tpm_joint(scenario_state, obs_z, obs_x)
    p_fin = born(scenario_state.matrix, obs_x.eigenvectors)
    c_table = coherence_term(pw, p, p_fin, strength)
    expected = strength.cross_weight * (-s * (c - s) / 2)
    assert c_table[1, 1] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-0.037770, abs=5e-7)


def test_coherence_term_sign_matches_mhq(scenario_state, obs_z, obs_x):
    q_mh = mhq(scenario_state, obs_z, obs_x).values
    p = tpm_joint(scenario_state, obs_z, obs_x)
    p_fin = born(scenario_state.matrix, obs_x.eigenvectors)
    for k in np.linspace(0.05, 0.95, 10):
        strength = WeakStrength(k, 2)
        pw = weak_sequential_closed(scenario_state, obs_z, obs_x, k)
        c_table = coherence_term(pw, p, p_fin, strength)
        assert (np.sign(c_table) == np.sign(q_mh)).all()


def test_coherence_term_commuting_case(obs_z, obs_x):
    # with [rho, A] = 0 the cross term is cross_weight * p(a,b): all one sign
    rho = DensityOperator(np.diag([0.8, 0.2]))
    p = tpm_joint(rho, obs_z, obs_x)
    p_fin = born(rho.matrix, obs_x.eigenvectors)
    strength = WeakStrength(0.3, 2)
    pw = weak_sequential_closed(rho, obs_z, obs_x, 0.3)
    c_table = coherence_term(pw, p, p_fin, strength)
    assert_allclose(c_table, strength.cross_weight * p.values, atol=1e-12)
    assert c_table.min() >= 0.0


# --------------------------------------------------------- reconstruction

@pytest.mark.parametrize("k", [0.1, 0.5, 0.9])
def test_mhq_from_weak_roundtrip(k, scenario_state, obs_z, obs_x):
    pw = weak_sequential_closed(scenario_state, obs_z, obs_x, k)
    p = tpm_joint(scenario_state, obs_z, obs_x)
    p_fin = born(scenario_state.matrix, obs_x.eigenvectors)
    rec = mhq_from_weak(pw, p, p_fin, WeakStrength(k, 2))
    assert np.abs(rec.values - mhq(scenario_state, obs_z, obs_x).values).max() <= 1e-12


@pytest.mark.parametrize("k", [0.0, 1.0])
def test_mhq_from_weak_rejects_endpoint_strengths(k, scenario_state, obs_z, obs_x):
    pw = weak_sequential_closed(scenario_state, obs_z, obs_x, k)
    p = tpm_joint(scenario_state, obs_z, obs_x)
    p_fin = born(scenario_state.matrix, obs_x.eigenvectors)
    with pytest.raises(ValueError, match="not invertible"):
        mhq_from_weak(pw, p, p_fin, WeakStrength(k, 2))


def test_mhq_from_weak_tpm_scenario(cs, scenario_state, obs_z, obs_x):
    c, s = cs
    rec = mhq_from_weak_tpm(scenario_state.matrix, obs_z.eigenvectors, obs_x.eigenvectors)
    assert rec[1, 1] == pytest.approx(-s * (c - s) / 2, abs=1e-12)
    assert_allclose(rec, scenario_mh_oracle(c, s), atol=1e-12)


def test_mhq_from_weak_tpm_commuting(obs_z, obs_x):
    rho = DensityOperator(np.diag([0.7, 0.3]))
    assert_allclose(
        mhq_from_weak_tpm(rho.matrix, obs_z.eigenvectors, obs_x.eigenvectors),
        tpm_joint(rho, obs_z, obs_x).values,
        atol=1e-12,
    )


def test_mhq_from_weak_tpm_maximally_mixed(obs_z, obs_x):
    rho = DensityOperator(np.eye(2) / 2)
    assert_allclose(mhq_from_weak_tpm(rho.matrix, obs_z.eigenvectors, obs_x.eigenvectors), 0.25, atol=1e-12)


def test_mhq_paths_agree_random():
    rng = np.random.default_rng(71)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        rho, obs_a, obs_b = random_instance(rng, d)
        direct = mhq(rho, obs_a, obs_b).values
        via_ns = mhq_from_weak_tpm(rho.matrix, obs_a.eigenvectors, obs_b.eigenvectors)
        k = float(rng.uniform(0.05, 0.95))
        pw = weak_sequential_closed(rho, obs_a, obs_b, k)
        p = tpm_joint(rho, obs_a, obs_b)
        p_fin = born(rho.matrix, obs_b.eigenvectors)
        via_weak = mhq_from_weak(pw, p, p_fin, WeakStrength(k, d)).values
        assert np.abs(direct - via_ns).max() <= 1e-10
        assert np.abs(direct - via_weak).max() <= 1e-10


def test_mhq_roundtrip_across_strength_range(scenario_state, obs_z, obs_x):
    direct = mhq(scenario_state, obs_z, obs_x).values
    p = tpm_joint(scenario_state, obs_z, obs_x)
    p_fin = born(scenario_state.matrix, obs_x.eigenvectors)
    for k in np.linspace(0.05, 0.95, 19):
        pw = weak_sequential_closed(scenario_state, obs_z, obs_x, k)
        rec = mhq_from_weak(pw, p, p_fin, WeakStrength(k, 2))
        assert np.abs(rec.values - direct).max() <= 1e-10


# -------------------------------------------------------------- threshold

def test_threshold_scenario_cell(cs, scenario_state, obs_z, obs_x):
    c, s = cs
    per_cell = threshold_strength(scenario_state, obs_z, obs_x)
    # scalar oracle: K = 1 / (1 + 2 s / (c - s)) at the single negative cell
    expected = 1.0 / (1.0 + 2.0 * s / (c - s))
    assert per_cell.shape == (2, 2) and not per_cell.flags.writeable
    assert per_cell[1, 1] == pytest.approx(expected, abs=1e-12)
    assert per_cell.min() == pytest.approx(expected, abs=1e-12)
    assert np.isinf(per_cell[0, 0])
    assert np.isinf(per_cell[0, 1])
    assert np.isinf(per_cell[1, 0])
    assert 0.0 < per_cell.min() < 1.0


def test_threshold_commuting_state_never_negative(obs_z, obs_x):
    rho = DensityOperator(np.diag([0.7, 0.3]))
    per_cell = threshold_strength(rho, obs_z, obs_x)
    assert np.isinf(per_cell).all()
    assert per_cell.min() == math.inf


def test_threshold_vanishing_final_probability_is_sentinel(obs_z):
    # a final outcome with zero Born weight has vanishing MHQ cells: sentinel, not error
    rho = make_pure_state([1, 0])
    per_cell = threshold_strength(rho, obs_z, obs_z)
    assert np.isinf(per_cell[0, 1]) and np.isinf(per_cell[1, 1])
    assert per_cell.min() == math.inf


def test_threshold_rejects_mhq_weight_on_vanishing_final_outcome(monkeypatch, obs_z):
    # unreachable for a physical state: plant an inconsistent MHQ table to reach the check
    import weakquasi.quasiprob as quasiprob

    planted = np.array([[1.0, 0.0], [0.0, -0.25]])
    monkeypatch.setattr(quasiprob, "_mh_table", lambda rho, a, b: planted)
    with pytest.raises(InternalConsistencyError, match=r"cell \(1, 1\): q_MH=-0.25 with vanishing p_fin"):
        threshold_strength(make_pure_state([1, 0]), obs_z, obs_z)


def test_threshold_brackets_sign_change(scenario_state, obs_z, obs_x):
    kbar = threshold_strength(scenario_state, obs_z, obs_x)[1, 1]
    below = weak_mhq(scenario_state, obs_z, obs_x, kbar - 1e-6).values[1, 1]
    above = weak_mhq(scenario_state, obs_z, obs_x, kbar + 1e-6).values[1, 1]
    assert below > 0.0 > above


def test_threshold_strength_is_affine_crossing_random():
    # each negative cell's weak MHQ is affine in K and crosses zero at the threshold
    rng = np.random.default_rng(73)
    found = 0
    for _ in range(50):
        d = int(rng.integers(2, 4))
        rho, obs_a, obs_b = random_instance(rng, d)
        per_cell = threshold_strength(rho, obs_a, obs_b)
        finite = np.argwhere(np.isfinite(per_cell))
        for a, b in finite:
            kbar = per_cell[a, b]
            assert 0.0 < kbar < 1.0
            assert weak_mhq(rho, obs_a, obs_b, kbar - 1e-6).values[a, b] > 0.0
            assert weak_mhq(rho, obs_a, obs_b, kbar + 1e-6).values[a, b] < 0.0
            found += 1
    assert found > 10  # negativity is generic for random instances


# ------------------------------------------------------------- negativity

def test_negativity_scenario_values(cs, scenario_state, obs_z, obs_x):
    c, s = cs
    assert negativity(mhq(scenario_state, obs_z, obs_x)) == pytest.approx(
        s * (c - s) / 2, abs=1e-12
    )
    assert negativity(weak_mhq(scenario_state, obs_z, obs_x, 0.4)) == 0.0
    assert negativity(tpm_joint(scenario_state, obs_z, obs_x)) == 0.0


# ------------------------------------------------- family-wide invariants

def test_families_normalize_and_marginalize_random():
    rng = np.random.default_rng(79)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        rho, obs_a, obs_b = random_instance(rng, d)
        k = float(rng.uniform(0, 1))
        p_in, p_fin, _ = marginals(rho.matrix, obs_a.eigenvectors, obs_b.eigenvectors)
        strong = [cq(rho, obs_a, obs_b), mhq(rho, obs_a, obs_b)]
        weak = [weak_cq_closed(rho, obs_a, obs_b, k), weak_mhq(rho, obs_a, obs_b, k)]
        for table in strong + weak:
            assert table.values.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.abs(table.values.sum(axis=0) - p_fin).max() <= 1e-10
        for table in strong:
            assert np.abs(table.values.sum(axis=1) - p_in).max() <= 1e-10
        for table in weak:
            expected = k * p_in + (1 - k) / d
            assert np.abs(table.values.sum(axis=1) - expected).max() <= 1e-10


def test_quasi_distribution_validation():
    with pytest.raises(ValueError, match="non-finite"):
        QuasiDistribution(np.array([[np.nan, 0.5], [0.5, 0.0]]))
    table = QuasiDistribution(np.array([[0.6, 0.5], [-0.1, 0.0]]))
    assert negativity(table) == pytest.approx(0.1, abs=1e-15)
