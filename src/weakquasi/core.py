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
from dataclasses import dataclass, field

import numpy as np

VALIDATION_ATOL = 1e-10  # physicality checks on constructed objects

__all__ = [
    "DensityOperator",
    "InternalConsistencyError",
    "ObservableSpec",
    "WeakStrength",
    "controlled_shift",
    "evolve_observable",
    "make_pure_state",
    "pauli_x",
    "pauli_z",
]


class InternalConsistencyError(RuntimeError):
    """An exact identity was violated by more than numerical dust."""


def _square_complex(matrix, name: str = "matrix") -> np.ndarray:
    arr = np.array(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def _is_hermitian(matrix: np.ndarray) -> bool:
    """True when max|M - M^dagger| <= VALIDATION_ATOL entrywise."""
    with np.errstate(over="ignore"):  # a difference past the float range fails the bound, not warned of
        return bool(np.abs(matrix - matrix.conj().T).max() <= VALIDATION_ATOL)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class DensityOperator:
    """Quantum state: a Hermitian, unit-trace, positive semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _square_complex(self.matrix, "density matrix")
        if not _is_hermitian(m):
            raise ValueError("density matrix must be Hermitian within 1e-10")
        with np.errstate(over="ignore"):  # a trace past the float range fails the bound, not warned of
            tr = np.trace(m)
        if not abs(tr - 1.0) <= VALIDATION_ATOL:
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
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        vecs = _square_complex(self.eigenvectors, "eigenbasis")
        d = vecs.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):  # a Gram matrix past the float range fails below
            gram = vecs.conj().T @ vecs
        if not (np.isfinite(vecs).all() and np.abs(gram - np.eye(d)).max() <= VALIDATION_ATOL):
            raise ValueError("eigenvectors must be orthonormal within 1e-10")
        vals = np.array(self.eigenvalues, dtype=float)
        if vals.shape != (d,):
            raise ValueError(f"expected {d} real eigenvalues, got shape {vals.shape}")
        labels = tuple(self.labels) if self.labels else tuple(str(a) for a in range(d))
        if len(labels) != d:
            raise ValueError(f"expected {d} outcome labels, got {len(labels)}")
        _check_labels(labels)
        object.__setattr__(self, "eigenvectors", _freeze(vecs))
        object.__setattr__(self, "eigenvalues", _freeze(vals))
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]


def _check_labels(labels):
    """Reject outcome labels that cannot key the rows of an exported table."""
    # csv.writer writes a carriage return unquoted, and one exported row is one line
    if any("\r" in str(label) or "\n" in str(label) for label in labels):
        raise ValueError(f"labels must not contain a line break, got {list(labels)!r}")
    # exported rows are keyed by outcome labels, so labels must be distinct
    if len(set(labels)) != len(labels):
        raise ValueError(f"labels must be distinct, got {list(labels)!r}")


def pauli_z() -> ObservableSpec:
    """Pauli Z with the H/V polarisation labels of the photonic encoding."""
    return ObservableSpec(np.eye(2, dtype=complex), (1.0, -1.0), labels=("H", "V"))


def pauli_x() -> ObservableSpec:
    """Pauli X; eigenstates are the diagonal polarisations D and D-perp."""
    vecs = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    return ObservableSpec(vecs, (1.0, -1.0), labels=("D", "D⊥"))


@dataclass(frozen=True)
class WeakStrength:
    """Measurement strength K in [0, 1] on a d-level system, with its branch coefficients.

    omega1 = sqrt(1 - K) weighs the undisturbed branch and omega0 the fully
    correlated branch of the coupled system-pointer state; omega0 is the
    nonnegative root of omega0^2 + omega1^2 + 2 omega0 omega1 / sqrt(d) = 1.
    Both are derived from (K, d), so K=1 gives (omega0, omega1) = (1, 0) and
    K=0 gives (0, 1).
    """

    K: float
    dim: int
    omega0: float = field(init=False)
    omega1: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.K <= 1.0:
            raise ValueError(f"measurement strength must lie in [0, 1], got {self.K}")
        if not float(self.dim).is_integer():  # int() would truncate 2.7 to a d=2 strength
            raise ValueError(f"dimension must be an integer, got {self.dim}")
        if self.dim < 2:
            raise ValueError(f"dimension must be at least 2, got {self.dim}")
        k, dim = float(self.K), int(self.dim)
        omega1 = math.sqrt(1.0 - k)
        omega0 = -omega1 / math.sqrt(dim) + math.sqrt(1.0 - omega1**2 * (dim - 1) / dim)
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "dim", dim)
        # at k=0 the two terms cancel only to rounding (1.1e-16 at d=2); no measurement is omega0 = 0
        object.__setattr__(self, "omega0", 0.0 if k == 0.0 else max(omega0, 0.0))
        object.__setattr__(self, "omega1", omega1)

    @property
    def cross_weight(self) -> float:
        """Coefficient 2 omega0 omega1 / sqrt(d) of the interference term."""
        return 2.0 * self.omega0 * self.omega1 / math.sqrt(self.dim)

    @property
    def weights(self) -> tuple[float, float, float]:
        """(omega0^2, omega1^2/d, cross_weight): the weights of p, p_fin and q_MH in p_weak."""
        return self.omega0**2, self.omega1**2 / self.dim, self.cross_weight


def make_pure_state(amplitudes) -> DensityOperator:
    """Normalize a state vector and return its rank-1 density operator."""
    v = np.array(amplitudes, dtype=complex).reshape(-1)
    if v.size == 0:
        raise ValueError("state vector must be nonempty")
    with np.errstate(over="ignore"):  # a norm past the float range is rejected below, not warned of
        norm = np.linalg.norm(v)
    if not math.isfinite(norm):
        raise ValueError(f"state vector norm must be finite, got {norm}")
    if norm < 1e-12:
        raise ValueError("state vector must be nonzero")
    v = v / norm
    return DensityOperator(np.outer(v, v.conj()))


def controlled_shift(obs: ObservableSpec) -> np.ndarray:
    """Coupling unitary controlled on an arbitrary eigenbasis: sum_a Pi_a (x) V^a.

    V|x> = |x+1 mod d> shifts the pointer; on the computational basis this is
    the controlled modular shift sum_a |a><a| (x) V^a.
    """
    d = obs.dim
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    w = obs.eigenvectors
    u = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        u += np.kron(np.outer(w[:, a], w[:, a].conj()), np.roll(np.eye(d), a, axis=0))
    return u


def evolve_observable(obs: ObservableSpec, hamiltonian: np.ndarray, dt: float) -> ObservableSpec:
    """Heisenberg-evolved observable: every eigenvector rotated by exp(iH dt), with hbar = 1."""
    h = _square_complex(hamiltonian, "Hamiltonian")
    if not _is_hermitian(h):
        raise ValueError("Hamiltonian must be Hermitian")
    evals, evecs = np.linalg.eigh(h)
    with np.errstate(over="ignore"):  # a phase past the float range is rejected below, not warned of
        phase = evals * dt
    if not np.isfinite(phase).all():
        raise ValueError(f"phase H*dt must be finite, got dt={dt} and eigenvalues up to {np.abs(evals).max():.6g}")
    u = (evecs * np.exp(1j * phase)) @ evecs.conj().T
    return ObservableSpec(u @ obs.eigenvectors, obs.eigenvalues, labels=obs.labels)
