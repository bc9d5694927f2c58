"""Finite-dimensional Hilbert-space primitives for weak-sequential measurements.

States are d x d density matrices, observables carry an orthonormal eigenbasis
with rank-1 projectors, and the measurement pointer is a second d-dimensional
system coupled through a controlled modular-shift unitary.  Joint two-system
operators use the ordering system (x) pointer throughout, and hbar = 1.

Outcomes are indexed 0..d-1 internally; real eigenvalues and text labels are
metadata only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VALIDATION_ATOL = 1e-10  # physicality checks on constructed objects
ALGEBRA_ATOL = 1e-12     # exact algebraic identities at d <= 8

__all__ = [
    "ALGEBRA_ATOL",
    "VALIDATION_ATOL",
    "DensityOperator",
    "InternalConsistencyError",
    "ObservableSpec",
    "PointerState",
    "WeakStrength",
    "born_probability",
    "controlled_shift",
    "coupling_unitary",
    "evolve_observable",
    "evolve_projector",
    "is_hermitian",
    "make_pure_state",
    "pauli_x",
    "pauli_z",
    "pointer_for_strength",
    "random_density_operator",
    "random_observable",
    "shift_operator",
]


class InternalConsistencyError(RuntimeError):
    """An exact identity was violated by more than numerical dust."""


def _square_complex(matrix, name: str = "matrix") -> np.ndarray:
    arr = np.array(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def is_hermitian(matrix: np.ndarray, atol: float = VALIDATION_ATOL) -> bool:
    """True when max|M - M^dagger| <= atol entrywise."""
    return bool(np.abs(matrix - matrix.conj().T).max() <= atol)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class DensityOperator:
    """Quantum state: a Hermitian, unit-trace, positive semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _square_complex(self.matrix, "density matrix")
        if not is_hermitian(m):
            raise ValueError("density matrix must be Hermitian within 1e-10")
        tr = np.trace(m)
        if abs(tr - 1.0) > VALIDATION_ATOL:
            raise ValueError(f"density matrix must have unit trace, got {tr}")
        if np.linalg.eigvalsh(m).min() < -VALIDATION_ATOL:
            raise ValueError("density matrix must be positive semidefinite")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ObservableSpec:
    """Observable given by an orthonormal eigenbasis and real eigenvalue labels.

    ``eigenvectors[:, a]`` is the eigenvector of outcome index ``a``.  All
    statistics in this package depend only on the rank-1 projectors; the
    ``eigenvalues`` and outcome ``labels`` ride along for reporting.
    """

    eigenvectors: np.ndarray
    eigenvalues: np.ndarray
    name: str = ""
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        vecs = _square_complex(self.eigenvectors, "eigenbasis")
        d = vecs.shape[0]
        if not np.isfinite(vecs).all() or np.abs(vecs.conj().T @ vecs - np.eye(d)).max() > VALIDATION_ATOL:
            raise ValueError("eigenvectors must be orthonormal within 1e-10")
        vals = np.array(self.eigenvalues, dtype=float)
        if vals.shape != (d,):
            raise ValueError(f"expected {d} real eigenvalues, got shape {vals.shape}")
        labels = tuple(self.labels) if self.labels else tuple(str(a) for a in range(d))
        if len(labels) != d:
            raise ValueError(f"expected {d} outcome labels, got {len(labels)}")
        object.__setattr__(self, "eigenvectors", _freeze(vecs))
        object.__setattr__(self, "eigenvalues", _freeze(vals))
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    def projector(self, a: int) -> np.ndarray:
        v = self.eigenvectors[:, a]
        return np.outer(v, v.conj())

    def projectors(self) -> np.ndarray:
        """Stack of the d rank-1 projectors, shape (d, d, d)."""
        return np.einsum("ia,ja->aij", self.eigenvectors, self.eigenvectors.conj())


def pauli_z() -> ObservableSpec:
    """Pauli Z with the H/V polarisation labels of the photonic encoding."""
    return ObservableSpec(np.eye(2, dtype=complex), (1.0, -1.0), name="Z", labels=("H", "V"))


def pauli_x() -> ObservableSpec:
    """Pauli X; eigenstates are the diagonal polarisations D and D-perp."""
    vecs = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    return ObservableSpec(vecs, (1.0, -1.0), name="X", labels=("D", "D⊥"))


@dataclass(frozen=True)
class WeakStrength:
    """Measurement strength K in [0, 1] with the derived branch coefficients.

    omega1 = sqrt(1 - K) weighs the undisturbed branch and omega0 the fully
    correlated branch of the coupled system-pointer state; they satisfy
    omega0^2 + omega1^2 + 2 omega0 omega1 / sqrt(d) = 1.  Only the principal
    branch omega0 >= 0 is supported, so K=1 gives (omega0, omega1) = (1, 0)
    and K=0 gives (0, 1).
    """

    K: float
    dim: int
    omega0: float
    omega1: float

    def __post_init__(self):
        if not 0.0 <= self.K <= 1.0:
            raise ValueError(f"measurement strength must lie in [0, 1], got {self.K}")
        if self.dim < 2:
            raise ValueError(f"dimension must be at least 2, got {self.dim}")
        if self.omega0 < 0.0:
            raise ValueError("only the principal branch omega0 >= 0 is supported")
        norm = self.omega0**2 + self.omega1**2 + 2.0 * self.omega0 * self.omega1 / math.sqrt(self.dim)
        if abs(norm - 1.0) > ALGEBRA_ATOL:
            raise ValueError(f"branch coefficients are not normalized: {norm}")

    @classmethod
    def from_k(cls, k: float, dim: int) -> "WeakStrength":
        """Coefficients for strength k: omega1 = sqrt(1-k), omega0 the nonnegative root."""
        if not 0.0 <= k <= 1.0:
            raise ValueError(f"measurement strength must lie in [0, 1], got {k}")
        if dim < 2:
            raise ValueError(f"dimension must be at least 2, got {dim}")
        omega1 = math.sqrt(1.0 - k)
        omega0 = -omega1 / math.sqrt(dim) + math.sqrt(1.0 - omega1**2 * (dim - 1) / dim)
        return cls(float(k), int(dim), max(omega0, 0.0), omega1)

    @property
    def cross_weight(self) -> float:
        """Coefficient 2 omega0 omega1 / sqrt(d) of the interference term."""
        return 2.0 * self.omega0 * self.omega1 / math.sqrt(self.dim)


@dataclass(frozen=True)
class PointerState:
    """Pointer preparation with amplitude u0 on |0> and u1/sqrt(d-1) elsewhere."""

    amplitudes: np.ndarray
    u0: float
    u1: float

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        d = amps.size
        if d < 2:
            raise ValueError("pointer needs dimension >= 2")
        if abs(np.linalg.norm(amps) - 1.0) > VALIDATION_ATOL:
            raise ValueError("pointer amplitudes must be normalized")
        expected = np.full(d, self.u1 / math.sqrt(d - 1), dtype=complex)
        expected[0] = self.u0
        if np.abs(amps - expected).max() > VALIDATION_ATOL:
            raise ValueError("pointer amplitudes do not match the (u0, u1) pattern")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


def make_pure_state(amplitudes) -> DensityOperator:
    """Normalize a state vector and return its rank-1 density operator."""
    v = np.array(amplitudes, dtype=complex).reshape(-1)
    if v.size == 0:
        raise ValueError("state vector must be nonempty")
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise ValueError("state vector must be nonzero")
    v = v / norm
    return DensityOperator(np.outer(v, v.conj()))


def shift_operator(d: int) -> np.ndarray:
    """Cyclic shift V with V|a> = |a+1 mod d>."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    v = np.zeros((d, d), dtype=complex)
    v[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    return v


def coupling_unitary(d: int) -> np.ndarray:
    """Controlled modular shift sum_a |a><a| (x) V^a on the d^2 joint space."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    return controlled_shift(ObservableSpec(np.eye(d, dtype=complex), np.arange(d, dtype=float)))


def controlled_shift(obs: ObservableSpec) -> np.ndarray:
    """Coupling unitary controlled on an arbitrary eigenbasis: sum_a Pi_a (x) V^a.

    Reduces to ``coupling_unitary(d)`` when the eigenbasis is computational.
    """
    d = obs.dim
    v = shift_operator(d)
    u = np.zeros((d * d, d * d), dtype=complex)
    v_power = np.eye(d, dtype=complex)
    for a in range(d):
        u += np.kron(obs.projector(a), v_power)
        v_power = v @ v_power
    return u


def pointer_for_strength(k: float, d: int) -> tuple[PointerState, WeakStrength]:
    """Pointer preparation realizing a strength-k measurement on a d-level system.

    k=1 yields the basis pointer |0> (projective limit); k=0 yields the uniform
    superposition, which the coupling leaves untouched (no measurement).
    """
    strength = WeakStrength.from_k(k, d)
    u1 = strength.omega1 * math.sqrt((d - 1) / d)
    u0 = strength.omega0 + u1 / math.sqrt(d - 1)
    amps = np.full(d, u1 / math.sqrt(d - 1), dtype=complex)
    amps[0] = u0
    return PointerState(amps, u0, u1), strength


def _propagator(hamiltonian, dt: float) -> np.ndarray:
    """exp(iH dt) of a Hermitian H, from its eigendecomposition."""
    h = _square_complex(hamiltonian, "Hamiltonian")
    if not is_hermitian(h):
        raise ValueError("Hamiltonian must be Hermitian")
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(1j * evals * dt)) @ evecs.conj().T


def evolve_projector(projector: np.ndarray, hamiltonian: np.ndarray, dt: float) -> np.ndarray:
    """Heisenberg-picture evolution exp(iH dt) P exp(-iH dt), with hbar = 1."""
    p = _square_complex(projector, "projector")
    u = _propagator(hamiltonian, dt)
    if u.shape != p.shape:
        raise ValueError(f"shape mismatch: projector {p.shape} vs Hamiltonian {u.shape}")
    if not is_hermitian(p) or np.abs(p @ p - p).max() > VALIDATION_ATOL:
        raise ValueError("input must be an orthogonal projector within 1e-10")
    return u @ p @ u.conj().T


def evolve_observable(obs: ObservableSpec, hamiltonian: np.ndarray, dt: float) -> ObservableSpec:
    """Heisenberg-evolved observable: every eigenvector rotated by exp(iH dt)."""
    u = _propagator(hamiltonian, dt)
    return ObservableSpec(u @ obs.eigenvectors, obs.eigenvalues, name=obs.name, labels=obs.labels)


def born_probability(rho: DensityOperator, projector: np.ndarray) -> float:
    """Probability Tr[P rho] of the outcome projected by P, clamped to [0, 1]."""
    p = _square_complex(projector, "projector")
    if p.shape[0] != rho.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, projector {p.shape[0]}")
    value = np.trace(p @ rho.matrix).real
    if value < -VALIDATION_ATOL or value > 1.0 + VALIDATION_ATOL:
        raise InternalConsistencyError(f"Born probability {value} outside [0, 1]")
    return min(max(value, 0.0), 1.0)


def random_density_operator(dim: int, rng: np.random.Generator, pure: bool = False) -> DensityOperator:
    """Ginibre-sampled mixed state, or a Haar-random pure state when pure=True."""
    if pure:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return make_pure_state(v)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def random_observable(dim: int, rng: np.random.Generator, name: str = "") -> ObservableSpec:
    """Observable with a Haar-random eigenbasis and eigenvalue labels 0..d-1."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r))).conj()
    return ObservableSpec(q, np.arange(dim, dtype=float), name=name)
