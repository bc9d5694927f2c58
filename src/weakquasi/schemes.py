"""Measurement schemes producing joint outcome tables over pairs (a, b).

Covers the projective two-point scheme and the weak-sequential scheme in both
its three-term closed form and the system-pointer circuit.  The sweep uses
the closed form alone; the explicit d^2 x d^2 circuit is the independent
oracle the test suite checks it against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    VALIDATION_ATOL,
    DensityOperator,
    InternalConsistencyError,
    ObservableSpec,
    WeakStrength,
    _freeze,
    controlled_shift,
)

PROBABILITY_DUST = 1e-12  # negative entries below this are floating-point dust

__all__ = [
    "JointDistribution",
    "joint_outcome_table",
    "probability_table",
    "tpm_joint",
    "weak_joint_state",
    "weak_sequential_closed",
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
    return _finite(arr, name)


def _finite(arr: np.ndarray, name: str = "table") -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _totals(arr: np.ndarray) -> np.ndarray:
    """Sum of each table of a (..., d, d) stack, added up as a lone table's ``sum()`` is."""
    return arr.reshape(*arr.shape[:-2], -1).sum(axis=-1)


def _check_normalized(arr: np.ndarray):
    if np.abs(_totals(arr) - 1.0).max(initial=0.0) > VALIDATION_ATOL:
        raise ValueError("probability table is not normalized within 1e-10")


def _normalized(arr: np.ndarray) -> np.ndarray:
    """Clamp dust-level negatives of a real (..., d, d) stack and renormalize each table.

    Entries below -1e-10 indicate a genuine bug upstream and raise
    InternalConsistencyError rather than being silently repaired.
    """
    if arr.min(initial=0.0) < -VALIDATION_ATOL:
        bad = np.unravel_index(arr.argmin(), arr.shape)
        raise InternalConsistencyError(
            f"probability entry {arr.min()} at cell {bad} is negative beyond dust tolerance"
        )
    arr = np.clip(arr, 0.0, None)
    sums = _totals(arr)[..., None, None]
    if (sums <= 0.0).any():
        raise InternalConsistencyError("probability table sums to zero")
    return arr / sums


def _probability_stack(values: np.ndarray) -> np.ndarray:
    """:func:`probability_table`'s rules, run once over a (..., d, d) stack; read-only result."""
    arr = _normalized(_finite(values))
    _check_normalized(arr)
    return _freeze(arr)


@dataclass(frozen=True)
class JointDistribution:
    """Probability table over outcome pairs (a, b): entries nonnegative, total sum 1.

    The quasiprob functions return quasiprobabilities as read-only arrays.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _real_table(self.values)
        if arr.min() < -PROBABILITY_DUST:
            raise ValueError(f"probability table has negative entry {arr.min()}")
        _check_normalized(arr)
        object.__setattr__(self, "values", _freeze(arr))


def probability_table(values) -> JointDistribution:
    """Build a probability table, clamping dust-level negatives and renormalizing.

    Entries below -1e-10 indicate a genuine bug upstream and raise
    InternalConsistencyError rather than being silently repaired.  The bound is
    the state's own tolerance: DensityOperator accepts eigenvalues down to
    -1e-10, and each entry computed from an accepted state is Tr[M rho] for a
    rank-1 effect M = c|v><v| with 0 <= c <= 1, so it is at least that low
    eigenvalue.
    """
    return JointDistribution(_normalized(_real_table(values)))


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


def weak_sequential_closed(
    rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec, k: float
) -> JointDistribution:
    """Weak-sequential joint probabilities from the three-term closed form.

    p_weak(a,b) = omega0^2 p(a,b) + (omega1^2/d) p_fin(b) + cross q_MH(a,b),
    with cross = 2 omega0 omega1 / sqrt(d).  At k=1 this is the projective
    two-point table; at k=0 every row collapses to p_fin(b)/d.
    """
    d = _check_dims(rho, obs_a, obs_b)
    strength = WeakStrength(k, d)
    p_fin, q_mh = _born(rho, obs_b), _mh_table(rho, obs_a, obs_b)
    return probability_table(_three_term(strength, _tpm_table(rho, obs_a, obs_b), p_fin, q_mh))


def _three_term(strength, first, p_fin: np.ndarray, q_mh: np.ndarray) -> np.ndarray:
    """omega0^2 first + (omega1^2/d) p_fin + cross q_MH, the weak-sequential decomposition.

    ``first`` is the two-point table p for p_weak, and q_C for the weak CQ.
    ``strength.weights`` are floats, or (nK, 1, 1) columns that give one
    table per strength.
    """
    w_p, w_fin, w_cross = strength.weights
    return w_p * first + w_fin * p_fin[None, :] + w_cross * q_mh


def weak_joint_state(rho: DensityOperator, obs_a: ObservableSpec, k: float) -> DensityOperator:
    """Joint system-pointer state U (rho (x) |mu_k><mu_k|) U^dagger after the coupling.

    The pointer starts in mu_k = omega1/sqrt(d) on every |x> plus omega0 on |0>:
    the basis pointer |0> at k=1 (projective limit), and at k=0 the uniform
    superposition, which the coupling leaves untouched (no measurement).  The
    returned operator lives on the d^2-dimensional system (x) pointer space.
    """
    if rho.dim != obs_a.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, observable {obs_a.dim}")
    strength = WeakStrength(k, rho.dim)
    mu = np.full(rho.dim, strength.omega1 / np.sqrt(rho.dim), dtype=complex)
    mu[0] += strength.omega0
    u = controlled_shift(obs_a)
    return DensityOperator(u @ np.kron(rho.matrix, np.outer(mu, mu.conj())) @ u.conj().T)


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
