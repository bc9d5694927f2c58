"""Quasiprobability families for two-time measurement statistics.

Commensurate quasiprobabilities (CQ) correct the projective two-point table
for the disturbance of the first measurement; Margenau-Hill quasiprobabilities
(MHQ) are Re Tr[Pi_b Pi_a rho].  Both have weak-measurement variants
parameterized by the strength K, reconstruction paths that operate directly on
measured tables, and a per-cell strength threshold below which a negative cell
turns nonnegative.

The ``*_from_data`` operations accept estimated tables as-is, without
re-normalization: statistical deviations propagate to the reported sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityOperator,
    InternalConsistencyError,
    ObservableSpec,
    WeakStrength,
    _freeze,
)
from .schemes import (
    PROBABILITY_DUST,
    _born,
    _check_dims,
    _mh_table,
    _OutcomeTable,
    _real_table,
    _three_term,
    _tpm_table,
    weak_tpm_joint,
)

FAMILIES = ("CQ", "MHQ", "weakCQ", "weakMHQ")

NEVER_NEGATIVE = math.inf  # threshold sentinel: the cell is nonnegative at every strength

__all__ = [
    "FAMILIES",
    "NEVER_NEGATIVE",
    "QuasiDistribution",
    "ThresholdReport",
    "cq",
    "coherence_term",
    "mhq",
    "mhq_from_weak",
    "mhq_from_weak_tpm",
    "negativity",
    "threshold_strength",
    "weak_cq_closed",
    "weak_cq_from_data",
    "weak_mhq",
]


@dataclass(frozen=True)
class QuasiDistribution(_OutcomeTable):
    """Real outcome table that may carry negative cells.

    Exact tables of every family sum to 1 and marginalize over a to the Born
    distribution of B; tables built from estimated data inherit whatever
    statistical deviations the inputs carry.
    """

    values: np.ndarray
    family: str
    strength: WeakStrength | None = None

    def __post_init__(self):
        arr = _real_table(self.values, "quasiprobability table")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown quasiprobability family {self.family!r}")
        object.__setattr__(self, "values", _freeze(arr))

    @property
    def kind(self) -> str:
        return "quasiprobability"


@dataclass(frozen=True)
class ThresholdReport:
    """Per-cell strength thresholds, with inf marking never-negative cells.

    ``global_threshold`` is the minimum over cells that do turn negative; below
    it the whole table is nonnegative at every outcome pair.  It is inf when no
    cell is ever negative.
    """

    per_cell: np.ndarray
    global_threshold: float

    def __post_init__(self):
        arr = np.array(self.per_cell, dtype=float)
        object.__setattr__(self, "per_cell", _freeze(arr))

    def never_negative(self, a: int, b: int) -> bool:
        return bool(np.isinf(self.per_cell[a, b]))


def _values_of(table) -> np.ndarray:
    return _real_table(table.values if hasattr(table, "values") else table)


def _vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float).reshape(-1)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


# Data-path formulas, each written once.  Tables are (..., d, d) and p_fin is
# (..., d), so point estimates and stacks of resampled tables share the code.


def _weak_cq_values(pw: np.ndarray, pf: np.ndarray) -> np.ndarray:
    """Commensurate update p + (p_fin - sum_a p)/d of a joint table p."""
    d = pw.shape[-2]
    return pw + (pf[..., None, :] - pw.sum(axis=-2, keepdims=True)) / d


def _coherence_values(pw: np.ndarray, pt: np.ndarray, pf: np.ndarray, strength: WeakStrength) -> np.ndarray:
    """Cross-term p_weak - omega0^2 p - (omega1^2/d) p_fin."""
    return pw - strength.omega0**2 * pt - (strength.omega1**2 / strength.dim) * pf[..., None, :]


def _reconstruct(coh: np.ndarray, strength: WeakStrength) -> np.ndarray:
    """MHQ inversion q_MH = C / cross_weight; singular at K in {0, 1}."""
    return coh / strength.cross_weight


def _weak_mhq_mix(k: float, q_mh: np.ndarray, pf: np.ndarray, d: int) -> np.ndarray:
    """Weak Margenau-Hill quasiprobability K q_MH + ((1-K)/d) p_fin."""
    return k * q_mh + ((1.0 - k) / d) * pf[..., None, :]


def _weak_mhq_values(wcq: np.ndarray, rec, pf: np.ndarray, strength: WeakStrength):
    """Weak MHQ reached from data, or None where no data path reaches it.

    Inside 0 < K < 1 it mixes the reconstructed MHQ ``rec``; at K=0 every row
    is p_fin/d; at K=1 only the qubit identity weak-MHQ == weak-CQ applies.
    """
    k, d = strength.K, strength.dim
    if 0.0 < k < 1.0:
        return _weak_mhq_mix(k, rec, pf, d)
    if k == 0.0:
        return np.broadcast_to(pf[..., None, :] / d, wcq.shape).copy()
    return wcq if d == 2 else None


def cq(rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec) -> QuasiDistribution:
    """Commensurate quasiprobability q_C(a,b) = p(a,b) + (p_fin(b) - p_post(b))/d.

    Marginals return the unperturbed Born distributions of both observables;
    when rho commutes with A the two-point probabilities are recovered.
    """
    _check_dims(rho, obs_a, obs_b)
    values = _weak_cq_values(_tpm_table(rho, obs_a, obs_b), _born(rho, obs_b))
    return QuasiDistribution(values, family="CQ")


def mhq(rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec) -> QuasiDistribution:
    """Margenau-Hill quasiprobability q_MH(a,b) = Re Tr[Pi_b Pi_a rho]."""
    _check_dims(rho, obs_a, obs_b)
    return QuasiDistribution(_mh_table(rho, obs_a, obs_b), family="MHQ")


def weak_cq_from_data(p_weak, p_fin, strength: WeakStrength | None = None) -> QuasiDistribution:
    """Weak commensurate quasiprobability from a measured weak-sequential table.

    q~_C(a,b) = p_weak(a,b) + (p_fin(b) - sum_a p_weak(a,b))/d.  Works directly
    on estimated tables; inputs are taken as-is.
    """
    values = _values_of(p_weak)
    pf = _vector(p_fin, "p_fin")
    if pf.shape != (values.shape[1],):
        raise ValueError(f"p_fin has shape {pf.shape}, expected ({values.shape[1]},)")
    return QuasiDistribution(_weak_cq_values(values, pf), family="weakCQ", strength=strength)


def weak_cq_closed(
    rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec, k: float
) -> QuasiDistribution:
    """Weak commensurate quasiprobability from the closed three-term form.

    q~_C = omega0^2 q_C + (omega1^2/d) p_fin + cross q_MH; identical to feeding
    the exact weak-sequential table through :func:`weak_cq_from_data`.
    """
    d = _check_dims(rho, obs_a, obs_b)
    strength = WeakStrength.from_k(k, d)
    values = _three_term(strength, cq(rho, obs_a, obs_b).values, rho, obs_a, obs_b)
    return QuasiDistribution(values, family="weakCQ", strength=strength)


def weak_mhq(
    rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec, k: float
) -> QuasiDistribution:
    """Weak Margenau-Hill quasiprobability q~_MH = K q_MH + ((1-K)/d) p_fin.

    Obtained by replacing the first projector with the strength-K POVM element
    in the MHQ definition.  For qubits it coincides with the weak CQ at every
    strength.
    """
    d = _check_dims(rho, obs_a, obs_b)
    strength = WeakStrength.from_k(k, d)
    values = _weak_mhq_mix(k, _mh_table(rho, obs_a, obs_b), _born(rho, obs_b), d)
    return QuasiDistribution(values, family="weakMHQ", strength=strength)


def coherence_term(p_weak, p_tpm, p_fin, strength: WeakStrength) -> np.ndarray:
    """Interference cross-term C(a,b) = p_weak - omega0^2 p - (omega1^2/d) p_fin.

    On exact inputs this equals cross_weight * q_MH(a,b), so its signs witness
    the signs of the Margenau-Hill quasiprobability.  Identically zero at the
    strength endpoints, where one branch coefficient vanishes.
    """
    pw = _values_of(p_weak)
    pt = _values_of(p_tpm)
    pf = _vector(p_fin, "p_fin")
    if pw.shape != pt.shape or pf.shape != (pw.shape[1],):
        raise ValueError("coherence-term inputs must share outcome index sets")
    return _coherence_values(pw, pt, pf, strength)


def mhq_from_weak(p_weak, p_tpm, p_fin, strength: WeakStrength) -> QuasiDistribution:
    """Margenau-Hill quasiprobability reconstructed from weak-sequential data.

    Inverts the three-term decomposition: q_MH = C(a,b) / cross_weight.  Needs
    0 < K < 1 strictly; at the endpoints the cross term carries no information
    and the inversion is singular.
    """
    if strength.K <= 0.0 or strength.K >= 1.0:
        raise ValueError(f"strength K={strength.K} is not invertible; need 0 < K < 1")
    values = _reconstruct(coherence_term(p_weak, p_tpm, p_fin, strength), strength)
    return QuasiDistribution(values, family="MHQ", strength=strength)


def mhq_from_weak_tpm(
    rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec
) -> QuasiDistribution:
    """Margenau-Hill quasiprobability via non-selective measurement statistics.

    q_MH(a,b) = p(a,b) + (p_fin(b) - w(a,b))/2 with w the per-outcome Born rows
    of the non-selective states; an algebraic identity valid in any dimension.
    """
    _check_dims(rho, obs_a, obs_b)
    p = _tpm_table(rho, obs_a, obs_b)
    w = weak_tpm_joint(rho, obs_a, obs_b).values
    values = p + (_born(rho, obs_b)[None, :] - w) / 2.0
    return QuasiDistribution(values, family="MHQ")


def threshold_strength(
    rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec
) -> ThresholdReport:
    """Per-cell strength threshold below which the weak quasiprobability is nonnegative.

    For cells with q_MH(a,b) < 0 the weak MHQ crosses zero at
    K = 1 / (1 - d q_MH(a,b)/p_fin(b)), which lies in (0, 1); cells with
    q_MH(a,b) >= 0 never turn negative and report the inf sentinel.
    """
    d = _check_dims(rho, obs_a, obs_b)
    q_mh = _mh_table(rho, obs_a, obs_b)
    p_fin = np.broadcast_to(_born(rho, obs_b), q_mh.shape)
    vanishing = p_fin <= PROBABILITY_DUST
    inconsistent = np.argwhere(vanishing & (np.abs(q_mh) > PROBABILITY_DUST))
    if inconsistent.size:
        a, b = inconsistent[0]
        raise InternalConsistencyError(f"cell ({a}, {b}): q_MH={q_mh[a, b]} with vanishing p_fin")
    negative = (q_mh < -PROBABILITY_DUST) & ~vanishing
    per_cell = np.full((d, d), NEVER_NEGATIVE)
    per_cell[negative] = 1.0 / (1.0 - d * q_mh[negative] / p_fin[negative])
    finite = per_cell[np.isfinite(per_cell)]
    global_threshold = float(finite.min()) if finite.size else NEVER_NEGATIVE
    return ThresholdReport(per_cell, global_threshold)


def negativity(table) -> float:
    """Total negativity sum_ab max(0, -q(a,b)); zero iff the table is a probability."""
    values = _values_of(table)
    return float(np.clip(-values, 0.0, None).sum())
