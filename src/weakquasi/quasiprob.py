"""Quasiprobability families for two-time measurement statistics.

Commensurate quasiprobabilities (CQ) correct the projective two-point table
for the disturbance of the first measurement; Margenau-Hill quasiprobabilities
(MHQ) are Re Tr[Pi_b Pi_a rho].  Both have weak-measurement variants
parameterized by the strength K, reconstruction paths that operate directly on
measured tables, and a per-cell strength threshold below which a negative cell
turns nonnegative.  Every table comes back as a read-only (d, d) float array.

The ``*_from_data`` operations accept estimated tables as-is, without
re-normalization: statistical deviations propagate to the reported sums.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    VALIDATION_ATOL,
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
    _real_table,
    _three_term,
    _totals,
    _tpm_table,
)

__all__ = [
    "cq",
    "coherence_term",
    "mhq",
    "mhq_from_weak",
    "negativity",
    "threshold_strength",
    "weak_cq_closed",
    "weak_cq_from_data",
    "weak_mhq",
]


def _quasi(values) -> np.ndarray:
    """A returned quasiprobability table: real, 2-D and finite, then read-only; cells may be negative."""
    return _freeze(_real_table(values, "quasiprobability table"))


def _values_of(table) -> np.ndarray:
    return _real_table(table.values if hasattr(table, "values") else table)


def _vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float).reshape(-1)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


# Data-path formulas, each written once.  Tables are (..., d, d) and p_fin is
# (..., d), so point estimates, the sweep's K axis and its error-bar
# coefficient matrices share the code.  ``strength`` is a WeakStrength, or
# the sweep's grid whose K and weights are (nK, 1, 1) columns; the K in
# {0, 1} cases are masks.


def _weak_cq_values(pw: np.ndarray, pf: np.ndarray) -> np.ndarray:
    """Commensurate update p + (p_fin - sum_a p)/d of a joint table p."""
    d = pw.shape[-2]
    return pw + (pf[..., None, :] - pw.sum(axis=-2, keepdims=True)) / d


def _coherence_values(pw: np.ndarray, pt: np.ndarray, pf: np.ndarray, strength) -> np.ndarray:
    """Cross-term p_weak - omega0^2 p - (omega1^2/d) p_fin."""
    w_p, w_fin, _ = strength.weights
    return pw - w_p * pt - w_fin * pf[..., None, :]


def _reach(strength):
    """Masks (reconstructed, weak MHQ): where a data path reaches mhq_reconstructed and weak_mhq.

    The MHQ inversion needs 0 < K < 1; the weak MHQ is out of reach only at
    K=1 above d=2.
    """
    k = strength.K
    return (k > 0.0) & (k < 1.0), (k < 1.0) | (strength.dim == 2)


def _reconstruct(coh: np.ndarray, strength) -> np.ndarray:
    """MHQ inversion q_MH = C / cross_weight; singular at K in {0, 1}, where C is returned as is."""
    return coh / np.where(_reach(strength)[0], strength.weights[2], 1.0)


def _weak_mhq_mix(k, q_mh: np.ndarray, pf: np.ndarray, d: int) -> np.ndarray:
    """Weak Margenau-Hill quasiprobability K q_MH + ((1-K)/d) p_fin."""
    return k * q_mh + ((1.0 - k) / d) * pf[..., None, :]


def _weak_mhq_values(wcq: np.ndarray, rec: np.ndarray, pf: np.ndarray, strength) -> np.ndarray:
    """Weak MHQ reached from data.

    Inside 0 < K < 1 it mixes the reconstructed MHQ ``rec``; at K=0 every row
    is p_fin/d; at K=1 the qubit identity weak-MHQ == weak-CQ applies, and
    above d=2 the weak CQ fills a slice no data path reaches (see _reach).
    """
    k, d = strength.K, strength.dim
    mixed = _weak_mhq_mix(k, rec, pf, d)
    return np.where(k == 0.0, pf[..., None, :] / d, np.where(k == 1.0, wcq, mixed))


def cq(rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec) -> np.ndarray:
    """Commensurate quasiprobability q_C(a,b) = p(a,b) + (p_fin(b) - p_post(b))/d.

    Marginals return the unperturbed Born distributions of both observables;
    when rho commutes with A the two-point probabilities are recovered.
    """
    _check_dims(rho, obs_a, obs_b)
    return _quasi(_weak_cq_values(_tpm_table(rho, obs_a, obs_b), _born(rho, obs_b)))


def mhq(rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec) -> np.ndarray:
    """Margenau-Hill quasiprobability q_MH(a,b) = Re Tr[Pi_b Pi_a rho]."""
    _check_dims(rho, obs_a, obs_b)
    return _quasi(_mh_table(rho, obs_a, obs_b))


def weak_cq_from_data(p_weak, p_fin) -> np.ndarray:
    """Weak commensurate quasiprobability from a measured weak-sequential table.

    q~_C(a,b) = p_weak(a,b) + (p_fin(b) - sum_a p_weak(a,b))/d.  Works directly
    on estimated tables; inputs are taken as-is.
    """
    values = _values_of(p_weak)
    pf = _vector(p_fin, "p_fin")
    if pf.shape != (values.shape[1],):
        raise ValueError(f"p_fin has shape {pf.shape}, expected ({values.shape[1]},)")
    return _quasi(_weak_cq_values(values, pf))


def weak_cq_closed(
    rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec, k: float
) -> np.ndarray:
    """Weak commensurate quasiprobability from the closed three-term form.

    q~_C = omega0^2 q_C + (omega1^2/d) p_fin + cross q_MH; identical to feeding
    the exact weak-sequential table through :func:`weak_cq_from_data`.
    """
    d = _check_dims(rho, obs_a, obs_b)
    strength = WeakStrength(k, d)
    p_fin, q_mh = _born(rho, obs_b), _mh_table(rho, obs_a, obs_b)
    return _quasi(_three_term(strength, cq(rho, obs_a, obs_b), p_fin, q_mh))


def weak_mhq(
    rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec, k: float
) -> np.ndarray:
    """Weak Margenau-Hill quasiprobability q~_MH = K q_MH + ((1-K)/d) p_fin.

    Obtained by replacing the first projector with the strength-K POVM element
    in the MHQ definition.  For qubits it coincides with the weak CQ at every
    strength.
    """
    d = _check_dims(rho, obs_a, obs_b)
    k = WeakStrength(k, d).K
    return _quasi(_weak_mhq_mix(k, _mh_table(rho, obs_a, obs_b), _born(rho, obs_b), d))


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
    return _freeze(_coherence_values(pw, pt, pf, strength))


def mhq_from_weak(p_weak, p_tpm, p_fin, strength: WeakStrength) -> np.ndarray:
    """Margenau-Hill quasiprobability reconstructed from weak-sequential data.

    Inverts the three-term decomposition: q_MH = C(a,b) / cross_weight.  Needs
    0 < K < 1 strictly; at the endpoints the cross term carries no information
    and the inversion is singular.
    """
    if strength.K <= 0.0 or strength.K >= 1.0:
        raise ValueError(f"strength K={strength.K} is not invertible; need 0 < K < 1")
    return _quasi(_reconstruct(coherence_term(p_weak, p_tpm, p_fin, strength), strength))


def threshold_strength(rho: DensityOperator, obs_a: ObservableSpec, obs_b: ObservableSpec) -> np.ndarray:
    """Per-cell strength threshold below which the weak quasiprobability is nonnegative.

    Returns a read-only (d, d) array.  For cells with q_MH(a,b) < 0 the weak
    MHQ crosses zero at K = 1 / (1 - d q_MH(a,b)/p_fin(b)), which lies in
    (0, 1); cells with q_MH(a,b) >= 0 never turn negative and hold inf, so
    the table's threshold is the array's min().  DensityOperator accepts rho
    with rho + eps I positive semidefinite, eps = VALIDATION_ATOL, so
    Cauchy-Schwarz bounds |q_MH(a,b)| by
    |<a|b>| (sqrt((p_in(a) + eps)(p_fin(b) + eps)) + eps |<a|b>|), and a cell
    whose p_fin(b) is dust may still turn negative, at a threshold near 0.
    """
    d = _check_dims(rho, obs_a, obs_b)
    q_mh, p_final = _mh_table(rho, obs_a, obs_b), _born(rho, obs_b)
    p_fin = np.broadcast_to(p_final, q_mh.shape)
    overlap = np.abs(obs_a.eigenvectors.conj().T @ obs_b.eigenvectors)
    eps, p_in = VALIDATION_ATOL, _born(rho, obs_a)
    bound = overlap * (np.sqrt(np.clip(np.outer(p_in + eps, p_final + eps), 0.0, None)) + eps * overlap)
    # the further eps leaves room for rounding and the state's Hermiticity tolerance
    inconsistent = np.argwhere(np.abs(q_mh) > bound + eps)
    if inconsistent.size:
        a, b = inconsistent[0]
        what = "vanishing p_fin" if p_fin[a, b] <= PROBABILITY_DUST else f"p_fin={p_fin[a, b]:.6g}"
        raise InternalConsistencyError(
            f"cell ({a}, {b}): q_MH={q_mh[a, b]} with {what}, beyond its bound {bound[a, b]:.6g}"
        )
    negative = (q_mh < -PROBABILITY_DUST) & (p_fin > 0.0)
    per_cell = np.full((d, d), math.inf)
    per_cell[negative] = 1.0 / (1.0 - d * q_mh[negative] / p_fin[negative])
    return _freeze(per_cell)


def negativity(table) -> float:
    """Total negativity sum_ab max(0, -q(a,b)); zero iff the table is a probability."""
    return float(_negativity(_values_of(table)))


def _negativity(values: np.ndarray) -> np.ndarray:
    """Total negativity of each table of a (..., d, d) stack."""
    return _totals(np.clip(-values, 0.0, None))
