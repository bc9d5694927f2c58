"""Tests for states, observables, strengths, and coupling unitaries."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_instance, random_observable
from oracles import evolve_projector, projector, projectors, random_density_operator
from weakquasi.core import (
    DensityOperator,
    ObservableSpec,
    WeakStrength,
    controlled_shift,
    evolve_observable,
    make_pure_state,
    pauli_x,
    pauli_z,
)
from weakquasi.schemes import tpm_joint, weak_joint_state


def basis_vector(d, a):
    v = np.zeros(d, dtype=complex)
    v[a] = 1.0
    return v


def coupling_unitary(d):
    """The controlled modular shift sum_a |a><a| (x) V^a: controlled_shift on the computational basis."""
    return controlled_shift(ObservableSpec(np.eye(d), np.arange(d)))


# ---------------------------------------------------------------- states

def test_make_pure_state_basis_state():
    rho = make_pure_state([1, 0])
    assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-15)


def test_make_pure_state_scenario_amplitudes(cs):
    c, s = cs
    rho = make_pure_state([c, s])
    # direct outer-product oracle
    assert_allclose(rho.matrix[0, 0], c * c, atol=1e-12)
    assert_allclose(rho.matrix[0, 1], c * s, atol=1e-12)
    assert_allclose(rho.matrix[1, 0], c * s, atol=1e-12)


def test_make_pure_state_normalizes():
    rho = make_pure_state([1, 1])
    assert_allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-15)
    scaled = make_pure_state([3j, 3j])
    assert_allclose(scaled.matrix, rho.matrix, atol=1e-15)


def test_make_pure_state_rejects_zero_vector():
    with pytest.raises(ValueError, match="nonzero"):
        make_pure_state([0, 0, 0])


def test_density_operator_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(np.eye(2))
    with pytest.raises(ValueError, match="semidefinite"):
        DensityOperator(np.diag([1.5, -0.5]))


def test_density_operator_is_immutable():
    rho = make_pure_state([1, 0])
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.0


# ------------------------------------------------------------ observables

def test_observable_requires_orthonormal_basis():
    with pytest.raises(ValueError, match="orthonormal"):
        ObservableSpec(np.array([[1, 1], [0, 0]], dtype=complex), (0.0, 1.0))


def test_observable_projectors_are_rank_one_and_complete():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4):
        obs = random_observable(d, rng)
        projs = projectors(obs.eigenvectors)
        assert_allclose(projs.sum(axis=0), np.eye(d), atol=1e-10)
        for a in range(d):
            assert_allclose(projs[a] @ projs[a], projs[a], atol=1e-12)
            assert_allclose(np.trace(projs[a]).real, 1.0, atol=1e-12)


def test_observable_rejects_labels_an_export_cannot_key():
    # exported rows are keyed by outcome labels, one row per line, so a value
    # built in Python meets the rules a scenario document does
    with pytest.raises(ValueError, match="labels must not contain a line break"):
        ObservableSpec(np.eye(2), [0, 1], labels=("H\rx", "V"))
    with pytest.raises(ValueError, match="labels must not contain a line break"):
        ObservableSpec(np.eye(2), [0, 1], labels=("H", "V\n"))
    with pytest.raises(ValueError, match=r"labels must be distinct, got \['H', 'H'\]"):
        ObservableSpec(np.eye(2), [0, 1], labels=("H", "H"))
    assert ObservableSpec(np.eye(2), [0, 1], labels=("H, x", '"V"')).labels == ("H, x", '"V"')


def test_pauli_presets():
    z, x = pauli_z(), pauli_x()
    assert z.labels == ("H", "V")
    assert x.labels == ("D", "D⊥")
    assert_allclose(np.abs(z.eigenvectors.conj().T @ x.eigenvectors) ** 2, 0.5, atol=1e-12)


# ----------------------------------------------------- shift and coupling

@pytest.mark.parametrize("func", [coupling_unitary])
def test_dimension_below_two_rejected(func):
    with pytest.raises(ValueError, match="at least 2"):
        func(1)


def test_coupling_unitary_controlled_flip():
    u = coupling_unitary(2)
    assert_allclose(u @ np.kron(basis_vector(2, 1), basis_vector(2, 0)),
                    np.kron(basis_vector(2, 1), basis_vector(2, 1)), atol=1e-15)
    for x in (0, 1):
        vec = np.kron(basis_vector(2, 0), basis_vector(2, x))
        assert_allclose(u @ vec, vec, atol=1e-15)


def test_coupling_unitary_copies_basis_amplitudes(cs):
    c, s = cs
    psi = np.array([c, s], dtype=complex)
    out = coupling_unitary(2) @ np.kron(psi, basis_vector(2, 0))
    expected = c * np.kron(basis_vector(2, 0), basis_vector(2, 0)) + s * np.kron(
        basis_vector(2, 1), basis_vector(2, 1)
    )
    assert_allclose(out, expected, atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_coupling_unitary_fixes_uniform_pointer(d):
    rng = np.random.default_rng(d)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    mu0 = np.full(d, 1 / np.sqrt(d), dtype=complex)
    vec = np.kron(psi, mu0)
    assert_allclose(coupling_unitary(d) @ vec, vec, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_coupling_unitary_is_unitary(d):
    u = coupling_unitary(d)
    assert np.abs(u.conj().T @ u - np.eye(d * d)).max() <= 1e-12


def test_controlled_shift_reduces_to_coupling_unitary():
    # on the computational basis the coupling is the permutation |a, x> -> |a, x + a mod d>
    d = 3
    permutation = np.zeros((d * d, d * d))
    for a in range(d):
        for x in range(d):
            permutation[a * d + (x + a) % d, a * d + x] = 1.0
    assert_allclose(coupling_unitary(d), permutation, atol=1e-15)


def test_controlled_shift_is_unitary_for_random_basis():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        u = controlled_shift(random_observable(d, rng))
        assert np.abs(u.conj().T @ u - np.eye(d * d)).max() <= 1e-12


# --------------------------------------------------- pointer and strength

def test_pointer_half_strength_coefficients():
    # nonnegative root of the normalization quadratic: omega0 = (sqrt(3) - 1)/2
    strength = WeakStrength(0.5, 2)
    assert strength.omega1 == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert strength.omega0 == pytest.approx((np.sqrt(3.0) - 1.0) / 2.0, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_pointer_strength_endpoints(d):
    # on |0><0| the coupling shifts the pointer by 0, so the pointer's reduced state is its preparation:
    # the basis pointer |0> at k=1, and the uniform superposition at k=0
    z, ground = ObservableSpec(np.eye(d), np.arange(d)), make_pure_state(basis_vector(d, 0))
    for k, mu in ((1.0, basis_vector(d, 0)), (0.0, np.full(d, 1 / np.sqrt(d)))):
        pointer = np.einsum("iaib->ab", weak_joint_state(ground, z, k).matrix.reshape(d, d, d, d))
        assert_allclose(pointer, np.outer(mu, mu.conj()), atol=1e-12)


@pytest.mark.parametrize("k", [-0.1, 1.1, 2.0])
def test_strength_out_of_range_rejected(k):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        weak_joint_state(make_pure_state([1, 0]), pauli_z(), k)


def test_weak_strength_normalization_holds():
    for d in (2, 3, 4, 5):
        for k in np.linspace(0, 1, 9):
            s = WeakStrength(k, d)
            norm = s.omega0**2 + s.omega1**2 + 2 * s.omega0 * s.omega1 / np.sqrt(d)
            assert abs(norm - 1.0) <= 1e-12
            assert s.omega1 == pytest.approx(np.sqrt(1 - k), abs=1e-15)
            assert s.omega0 >= 0.0


def test_weak_strength_endpoints_are_exact():
    # the omega0 root cancels to 1.1e-16 at K=0, d=2; no measurement must have no cross term
    for d in range(2, 65):
        assert WeakStrength(0.0, d).weights == (0.0, 1.0 / d, 0.0)
        assert WeakStrength(1.0, d).weights == (1.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "k, d, message",
    [
        (1.5, 2, r"measurement strength must lie in \[0, 1\], got 1.5"),
        (-0.1, 2, r"measurement strength must lie in \[0, 1\], got -0.1"),
        (0.5, 1, "dimension must be at least 2, got 1"),
        (0.5, 2.7, r"dimension must be an integer, got 2.7"),
    ],
)
def test_weak_strength_rejects_out_of_range_k_and_d(k, d, message):
    with pytest.raises(ValueError, match=message):
        WeakStrength(k, d)


def test_weak_strength_is_its_k_and_d():
    # the coefficients are derived, so a caller cannot pass a non-physical pair
    with pytest.raises(TypeError):
        WeakStrength(0.5, 2, 0.9, 0.9)
    s = WeakStrength(np.float64(0.5), np.int64(3))
    assert type(s.K) is float and type(s.dim) is int
    assert s == WeakStrength(0.5, 3)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_coupled_state_two_branch_expansion(d, k):
    # U(psi (x) mu) must equal omega0 sum_a c_a |a>|a> + omega1 psi (x) mu0
    rng = np.random.default_rng(17 * d + int(100 * k))
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    strength = WeakStrength(k, d)
    sigma = weak_joint_state(make_pure_state(psi), ObservableSpec(np.eye(d), np.arange(d)), k)
    mu0 = np.full(d, 1 / np.sqrt(d), dtype=complex)
    phi = strength.omega1 * np.kron(psi, mu0)
    for a in range(d):
        phi += strength.omega0 * psi[a] * np.kron(basis_vector(d, a), basis_vector(d, a))
    assert np.abs(sigma.matrix - np.outer(phi, phi.conj())).max() <= 1e-12


# ------------------------------------------------------------- evolution

def test_evolve_projector_identity_cases():
    p = np.diag([1.0, 0.0]).astype(complex)
    assert_allclose(evolve_projector(p, np.array([[1, 0.5], [0.5, -1]]), 0.0), p, atol=1e-12)
    assert_allclose(evolve_projector(p, 3.7 * np.eye(2), 1.3), p, atol=1e-12)


def test_evolve_projector_quarter_turn():
    # closed-form 2x2 exponential: exp(i theta X)|0> = cos(theta)|0> + i sin(theta)|1>
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    dt = 0.7
    evolved = evolve_projector(np.diag([1.0, 0.0]), x * (np.pi / 4) / dt, dt)
    v = np.array([np.cos(np.pi / 4), 1j * np.sin(np.pi / 4)])
    assert_allclose(evolved, np.outer(v, v.conj()), atol=1e-12)


def test_evolve_projector_preserves_projector_structure():
    rng = np.random.default_rng(23)
    for d in (2, 3, 4):
        obs = random_observable(d, rng)
        w = obs.eigenvectors
        p = projector(w, 0) + projector(w, 1) if d > 2 else projector(w, 0)
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = h + h.conj().T
        out = evolve_projector(p, h, 0.83)
        assert np.abs(out @ out - out).max() <= 1e-10
        assert np.trace(out).real == pytest.approx(np.trace(p).real, abs=1e-10)


def test_evolve_projector_rejects_bad_inputs():
    # the package evolves observables, never bare projectors, and needs a Hermitian H
    with pytest.raises(ValueError, match="Hamiltonian must be Hermitian"):
        evolve_observable(pauli_z(), np.array([[0, 1], [0, 0]]), 1.0)


def test_evolve_observable_rotates_eigenvectors():
    z = pauli_z()
    h = np.array([[0, 1], [1, 0]], dtype=complex) * (np.pi / 4)
    rotated = evolve_observable(z, h, 1.0)
    for a in range(2):
        direct = evolve_projector(projector(z.eigenvectors, a), h, 1.0)
        assert_allclose(projector(rotated.eigenvectors, a), direct, atol=1e-12)


# ---------------------------------------------------------- Born rule

def test_born_probability_basics(cs):
    # the package's Born probabilities are the first marginal of its two-point table
    z, x = pauli_z(), pauli_x()
    assert tpm_joint(make_pure_state([1, 0]), z, x).values.sum(axis=1)[0] == pytest.approx(1.0, abs=1e-15)
    c, s = cs
    assert tpm_joint(make_pure_state([c, s]), x, z).values.sum(axis=1)[1] == pytest.approx(
        (c - s) ** 2 / 2, abs=1e-12
    )


@pytest.mark.parametrize("d", [2, 3, 5])
def test_born_probability_maximally_mixed(d):
    rho = DensityOperator(np.eye(d) / d)
    obs = random_observable(d, np.random.default_rng(d))
    assert tpm_joint(rho, obs, obs).values.sum(axis=1)[0] == pytest.approx(1 / d, abs=1e-12)


# ------------------------------------------------------- random sampling

def test_random_helpers_produce_valid_objects():
    rng = np.random.default_rng(99)
    for d in (2, 3, 4):
        rho, obs_a, obs_b = random_instance(rng, d)
        assert rho.dim == obs_a.dim == obs_b.dim == d
        pure = random_density_operator(d, rng, pure=True)
        evals = np.linalg.eigvalsh(pure)
        assert evals.max() == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------------------ public API

PUBLIC_NAMES = [
    "DensityOperator", "InternalConsistencyError", "JointDistribution", "ObservableSpec",
    "Sweep", "WeakStrength", "ZeroCountsError", "apply_gate_noise", "coherence_term",
    "controlled_shift", "cq", "evolve_observable", "joint_outcome_table", "make_pure_state", "mhq",
    "mhq_from_weak", "negativity", "pauli_x", "pauli_z", "probability_table", "run_sweep",
    "sample_counts", "strength_from_waveplate", "threshold_strength", "tpm_joint",
    "weak_cq_closed", "weak_cq_from_data", "weak_joint_state", "weak_mhq", "weak_sequential_closed",
]

# test-only oracles (now in tests/oracles.py), thin wrappers, the count container, tolerances, the
# circuit's pointer and shift helpers (folded into weak_joint_state and controlled_shift), a
# Hermiticity check the package no longer ships, the threshold wrapper and its inf alias
# (threshold_strength returns the per-cell array), the quasiprobability table wrapper (the
# table functions return read-only arrays) and the gate-noise wrapper (the visibility is a number)
RETIRED_NAMES = [
    "ALGEBRA_ATOL", "CountTable", "Marginals", "NEVER_NEGATIVE", "NoiseModel", "PROBABILITY_DUST", "PointerState",
    "Povm", "QuasiDistribution", "QubitScenario", "ThresholdReport", "VALIDATION_ATOL", "born_probability",
    "coupling_unitary", "estimate_with_errors", "evolve_projector", "is_hermitian", "marginals",
    "mhq_from_weak_tpm", "nonselective_state", "pointer_for_strength", "post_measurement_state",
    "random_density_operator", "random_observable", "run_scenario", "shift_operator", "weak_povm",
    "weak_sequential_oracle", "weak_tpm_joint",
]


def test_public_api_is_the_program_and_the_papers_functions():
    import weakquasi

    assert sorted(weakquasi.__all__) == PUBLIC_NAMES
    assert all(hasattr(weakquasi, name) for name in PUBLIC_NAMES)
    assert [name for name in RETIRED_NAMES if hasattr(weakquasi, name)] == []
