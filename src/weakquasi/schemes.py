"""Measurement schemes producing joint outcome tables over pairs (a, b).

Covers the projective two-point scheme, the weak-sequential scheme in both
its three-term closed form and the system-pointer circuit, and the weak
variant built from non-selective projective measurements.  The sweep reads
the circuit through the weak POVM's Kraus operators; the explicit d^2 x d^2
circuit is the independent oracle the test suite checks both against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    ALGEBRA_ATOL,
    VALIDATION_ATOL,
    DensityOperator,
    InternalConsistencyError,
    ObservableSpec,
    WeakStrength,
    _freeze,
    controlled_shift,
    pointer_for_strength,
)

PROBABILITY_DUST = 1e-12  # negative entries below this are floating-point dust

__all__ = [
    "JointDistribution",
    "Marginals",
    "Povm",
    "PROBABILITY_DUST",
    "joint_outcome_table",
    "marginals",
    "nonselective_state",
    "post_measurement_state",
    "probability_table",
    "tpm_joint",
    "weak_joint_state",
    "weak_povm",
    "weak_sequential_closed",
    "weak_sequential_oracle",
    "weak_tpm_joint",
]


def _real_table(values, name: str = "table") -> np.ndarray:
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        if np.abs(arr.imag).max() > PROBABILITY_DUST:
            raise ValueError(f"{name} must be real-valued")
        arr = arr.real
    arr = np.array(arr, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D outcome table, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


class _OutcomeTable:
    """Accessors shared by the real tables ``values`` over outcome pairs (a, b)."""

    @property
    def dim_a(self) -> int:
        return self.values.shape[0]

    @property
    def dim_b(self) -> int:
        return self.values.shape[1]

    def marginal_a(self) -> np.ndarray:
        """Sum over b for each a."""
        return self.values.sum(axis=1)

    def marginal_b(self) -> np.ndarray:
        """Sum over a for each b."""
        return self.values.sum(axis=0)

    def total(self) -> float:
        return float(self.values.sum())


@dataclass(frozen=True)
class JointDistribution(_OutcomeTable):
    """Probability table over outcome pairs (a, b): entries nonnegative, total sum 1.

    ``normalization`` marks tables whose rows are separately normalized
    conditional distributions instead.  Quasiprobabilities are
    ``quasiprob.QuasiDistribution`` tables.
    """

    values: np.ndarray
    normalization: str = "total"

    def __post_init__(self):
        arr = _real_table(self.values)
        if self.normalization not in ("total", "per_row"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if arr.min() < -PROBABILITY_DUST:
            raise ValueError(f"probability table has negative entry {arr.min()}")
        sums = arr.sum(axis=1) if self.normalization == "per_row" else arr.sum()
        if np.abs(np.asarray(sums) - 1.0).max() > VALIDATION_ATOL:
            raise ValueError("probability table is not normalized within 1e-10")
        object.__setattr__(self, "values", _freeze(arr))

    @property
    def kind(self) -> str:
        return "probability"


def probability_table(values, normalization: str = "total") -> JointDistribution:
    """Build a probability-kind table, clamping dust-level negatives and renormalizing.

    Entries below -1e-12 indicate a genuine bug upstream and raise
    InternalConsistencyError rather than being silently repaired.
    """
    arr = _real_table(values)
    if arr.min() < -PROBABILITY_DUST:
        bad = np.unravel_index(arr.argmin(), arr.shape)
        raise InternalConsistencyError(
            f"probability entry {arr.min()} at cell {bad} is negative beyond dust tolerance"
        )
    arr = np.clip(arr, 0.0, None)
    if normalization == "per_row":
        rows = arr.sum(axis=1, keepdims=True)
        if (rows <= 0.0).any():
            raise InternalConsistencyError("per-row table has an all-zero row")
        arr = arr / rows
    else:
        total = arr.sum()
        if total <= 0.0:
            raise InternalConsistencyError("probability table sums to zero")
        arr = arr / total
    return JointDistribution(arr, normalization=normalization)


@dataclass(frozen=True)
class Povm:
    """Strength-parameterized d-outcome measurement.

    ``kraus_ops[a]`` is the Hermitian operator m_a = omega0 Pi_a + omega1 I/sqrt(d)
    and ``elements[a]`` the POVM element M_a = m_a^dagger m_a = K Pi_a + (1-K) I/d.
    """

    kraus_ops: np.ndarray
    elements: np.ndarray
    strength: WeakStrength

    def __post_init__(self):
        kraus = np.array(self.kraus_ops, dtype=complex)
        elems = np.array(self.elements, dtype=complex)
        d = self.strength.dim
        if kraus.shape != (d, d, d) or elems.shape != (d, d, d):
            raise ValueError(f"expected {d} operators of shape ({d}, {d})")
        if np.abs(elems.sum(axis=0) - np.eye(d)).max() > VALIDATION_ATOL:
            raise ValueError("POVM elements do not sum to the identity")
        bad = np.flatnonzero(np.linalg.eigvalsh(elems).min(axis=1) < -VALIDATION_ATOL)
        if bad.size:
            raise ValueError(f"POVM element {bad[0]} is not positive semidefinite")
        expected = kraus.conj().transpose(0, 2, 1) @ kraus
        if np.abs(expected - elems).max() > ALGEBRA_ATOL:
            raise ValueError("elements are not m_a^dagger m_a of the Kraus operators")
        object.__setattr__(self, "kraus_ops", kraus)
        object.__setattr__(self, "elements", elems)

    @property
    def dim(self) -> int:
        return self.strength.dim


class Marginals(NamedTuple):
    """Born marginals of the two-time statistics."""

    p_in: np.ndarray    # outcome probabilities of the first observable on rho
    p_fin: np.ndarray   # outcome probabilities of the second observable on rho
    p_post: np.ndarray  # second-observable probabilities after an unrecorded first measurement


def _check_dims(rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec) -> int:
    if not (rho.dim == obs_a.dim == obs_b.dim):
        raise ValueError(
            f"dimension mismatch: state {rho.dim}, observables {obs_a.dim} and {obs_b.dim}"
        )
    return rho.dim


def _born(rho: DensityOperator, obs: ObservableSpec) -> np.ndarray:
    """Born distribution of the observable's outcomes on rho."""
    w = obs.eigenvectors
    return np.diag(w.conj().T @ rho.matrix @ w).real


def _tpm_table(rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec) -> np.ndarray:
    # p(a,b) = Tr[Pi_b Pi_a rho Pi_a] = p_in(a) |<a|b>|^2 for rank-1 projectors
    p_in = _born(rho, obs_a)
    overlap2 = np.abs(obs_a.eigenvectors.conj().T @ obs_b.eigenvectors) ** 2
    return p_in[:, None] * overlap2


def _mh_table(rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec) -> np.ndarray:
    # Re Tr[Pi_b Pi_a rho] = Re[ <b|a> <a|rho|b> ]
    wa, wb = obs_a.eigenvectors, obs_b.eigenvectors
    cross = wa.conj().T @ rho.matrix @ wb
    overlap = wa.conj().T @ wb
    return (overlap.conj() * cross).real


def tpm_joint(rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec) -> JointDistribution:
    """Joint probabilities of measuring A projectively, then B projectively.

    p(a,b) = Tr[Pi_b Pi_a rho Pi_a]; the marginal over b is the Born
    distribution of A on rho.
    """
    _check_dims(rho, obs_a, obs_b)
    return probability_table(_tpm_table(rho, obs_a, obs_b))


def marginals(rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec) -> Marginals:
    """Born marginals p_in(a), p_fin(b) and the post-measurement marginal p_post(b)."""
    _check_dims(rho, obs_a, obs_b)
    p_in = _born(rho, obs_a).copy()
    p_fin = _born(rho, obs_b).copy()
    p_post = _tpm_table(rho, obs_a, obs_b).sum(axis=0)
    return Marginals(p_in, p_fin, p_post)


def weak_povm(obs_a: ObservableSpec, k: float) -> Povm:
    """One-parameter POVM M_a = K Pi_a + (1-K) I/d realized by the pointer coupling."""
    d = obs_a.dim
    strength = WeakStrength.from_k(k, d)
    eye = np.eye(d, dtype=complex)
    kraus = strength.omega0 * obs_a.projectors() + strength.omega1 * eye[None, :, :] / np.sqrt(d)
    elements = kraus.conj().transpose(0, 2, 1) @ kraus
    return Povm(kraus, elements, strength)


def post_measurement_state(rho: DensityOperator, povm: Povm, a: int) -> DensityOperator:
    """Conditional state m_a rho m_a / Tr[M_a rho] after observing outcome a."""
    if rho.dim != povm.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, POVM {povm.dim}")
    prob = np.trace(povm.elements[a] @ rho.matrix).real
    if prob <= 1e-12:
        raise ValueError(f"conditional state undefined: outcome {a} has zero probability")
    m = povm.kraus_ops[a]
    return DensityOperator(m @ rho.matrix @ m.conj().T / prob)


def weak_sequential_closed(
    rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec, k: float
) -> JointDistribution:
    """Weak-sequential joint probabilities from the three-term closed form.

    p_weak(a,b) = omega0^2 p(a,b) + (omega1^2/d) p_fin(b) + cross q_MH(a,b),
    with cross = 2 omega0 omega1 / sqrt(d).  At k=1 this is the projective
    two-point table; at k=0 every row collapses to p_fin(b)/d.
    """
    d = _check_dims(rho, obs_a, obs_b)
    strength = WeakStrength.from_k(k, d)
    return probability_table(_three_term(strength, _tpm_table(rho, obs_a, obs_b), rho, obs_a, obs_b))


def _three_term(
    strength: WeakStrength, first, rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec
) -> np.ndarray:
    """omega0^2 first + (omega1^2/d) p_fin + cross q_MH, the weak-sequential decomposition.

    ``first`` is the two-point table p for p_weak, and q_C for the weak CQ.
    """
    p_fin = _born(rho, obs_b)
    return (
        strength.omega0**2 * first
        + (strength.omega1**2 / strength.dim) * p_fin[None, :]
        + strength.cross_weight * _mh_table(rho, obs_a, obs_b)
    )


def weak_joint_state(rho: DensityOperator, obs_a: ObservableSpec, k: float) -> DensityOperator:
    """Joint system-pointer state U (rho (x) |mu_k><mu_k|) U^dagger after the coupling.

    The pointer starts in the strength-k preparation; the returned operator
    lives on the d^2-dimensional system (x) pointer space.
    """
    if rho.dim != obs_a.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, observable {obs_a.dim}")
    pointer, _ = pointer_for_strength(k, rho.dim)
    u = controlled_shift(obs_a)
    return DensityOperator(u @ np.kron(rho.matrix, pointer.density()) @ u.conj().T)


def joint_outcome_table(joint: DensityOperator, obs_b: ObservableSpec) -> np.ndarray:
    """Outcome table from projecting the pointer computationally and the system on B.

    Entry (a, b) is Tr[(Pi_b (x) |a><a|) sigma] for the given joint state sigma.
    """
    d = obs_b.dim
    if joint.dim != d * d:
        raise ValueError(f"joint state has dimension {joint.dim}, expected {d * d}")
    sigma = joint.matrix.reshape(d, d, d, d)  # [i_sys, i_ptr, j_sys, j_ptr]
    blocks = np.einsum("iaja->aij", sigma)    # pointer-diagonal system blocks
    wb = obs_b.eigenvectors
    return np.einsum("aij,jb,ib->ab", blocks, wb, wb.conj()).real


def _kraus_table(rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec, k: float) -> np.ndarray:
    """Outcome table Re <b| m_a rho m_a^dagger |b> over the Kraus operators of weak_povm.

    Reading pointer value a after the coupling applies m_a to the system, so
    this is :func:`joint_outcome_table` of :func:`weak_joint_state` without
    the d^2-dimensional joint state.
    """
    _check_dims(rho, obs_a, obs_b)
    bm = obs_b.eigenvectors.conj().T @ weak_povm(obs_a, k).kraus_ops  # [a, b, i] = <b|m_a|i>
    return ((bm @ rho.matrix) * bm.conj()).sum(axis=2).real


def weak_sequential_oracle(
    rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec, k: float
) -> JointDistribution:
    """Weak-sequential joint probabilities from the explicit system-pointer circuit.

    Builds rho (x) |mu><mu|, applies the controlled shift, then reads the
    pointer in its computational basis and the system on B.  Independent of
    :func:`weak_sequential_closed`; the two agree to machine precision.
    """
    _check_dims(rho, obs_a, obs_b)
    joint = weak_joint_state(rho, obs_a, k)
    return probability_table(joint_outcome_table(joint, obs_b))


def nonselective_state(rho: DensityOperator, obs_a: ObservableSpec, a: int) -> DensityOperator:
    """State after an unrecorded projective test of outcome a against its complement.

    rho_NS(a) = Pi_a rho Pi_a + (I - Pi_a) rho (I - Pi_a).
    """
    if rho.dim != obs_a.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, observable {obs_a.dim}")
    pi = obs_a.projector(a)
    comp = np.eye(rho.dim, dtype=complex) - pi
    return DensityOperator(pi @ rho.matrix @ pi + comp @ rho.matrix @ comp)


def weak_tpm_joint(
    rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec
) -> JointDistribution:
    """Rows w(a, .) = Born distribution of B on the non-selective state for a.

    Each rho_NS(a) is a normalized state, so every row sums to 1; the table is
    flagged per-row normalized rather than jointly normalized.
    """
    d = _check_dims(rho, obs_a, obs_b)
    rows = np.empty((d, d))
    for a in range(d):
        ns = nonselective_state(rho, obs_a, a)
        rows[a] = _born(ns, obs_b)
    return probability_table(rows, normalization="per_row")
