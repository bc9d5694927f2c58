"""Finite-statistics simulation of the photonic weak-measurement experiment.

The strength sweep is array-valued: the exact tables of every strength come
from one broadcast of the three-term closed form, and every derived quantity
is one array over the K axis.  Coincidence counts are drawn cell-wise from
independent Poisson laws and point estimates are normalized counts.  The
sweep's error bars propagate each table's Poisson covariance to first order
in closed form, as arrays over the same K axis: every quantity applies one
coefficient matrix to each column of each table, and that matrix is the
quantity evaluated on the identity table.  They are the limit of a Monte
Carlo spread over ever more Poisson re-draws around the observed counts.  A
single gate-visibility parameter models imperfect interference at the
coupling gate.

All sampling uses explicitly seeded, splittable generators; identical seeds
give bit-identical results.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .core import (
    DensityOperator,
    ObservableSpec,
    WeakStrength,
    _freeze,
)
from .schemes import (
    JointDistribution,
    _born,
    _check_dims,
    _finite,
    _mh_table,
    _probability_stack,
    _three_term,
    _totals,
    _tpm_table,
    # the validating table constructor, the dense circuit oracle and the per-setting closed form;
    # perfbench/tracing.py looks them up here
    probability_table,  # noqa: F401
    joint_outcome_table,  # noqa: F401
    weak_joint_state,  # noqa: F401
    weak_sequential_closed,  # noqa: F401
)
from .quasiprob import (
    _coherence_values,
    _reach,
    _reconstruct,
    _weak_cq_values,
    _weak_mhq_values,
    # the validating per-table wrappers; only perfbench/tracing.py looks them up here
    coherence_term,  # noqa: F401
    mhq_from_weak,  # noqa: F401
    weak_cq_from_data,  # noqa: F401
)

MAX_SHOTS = 10**15  # largest shot count per setting; keeps the int64 count sums exact
MIN_CROSS_WEIGHT = 1e-6  # the MHQ inversion multiplies rounding dust by 1 / cross_weight

__all__ = [
    "NoiseModel",
    "Sweep",
    "ZeroCountsError",
    "apply_gate_noise",
    "run_sweep",
    "sample_counts",
    "strength_from_waveplate",
]


class ZeroCountsError(ValueError):
    """A sampled setting drew no counts at all, so it has no estimator."""


@dataclass(frozen=True)
class NoiseModel:
    """Gate imperfection as a single visibility parameter in [0, 1].

    Visibility 1 is ideal; visibility nu acts on the prepared state as
    nu rho + (1 - nu) sum_a Pi_a rho Pi_a, dephasing it in A's eigenbasis and
    attenuating the interference cross-term of the weak-sequential statistics.
    """

    gate_visibility: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.gate_visibility <= 1.0:
            raise ValueError(f"gate visibility must lie in [0, 1], got {self.gate_visibility}")


def strength_from_waveplate(phi_deg: float) -> float:
    """Measurement strength K = 2 cos^2(2 phi) - 1 set by the pointer waveplate angle.

    phi = 0 gives the projective limit K=1; phi = 22.5 degrees gives K=0.
    """
    if not 0.0 <= phi_deg <= 22.5:
        raise ValueError(f"waveplate angle must lie in [0, 22.5] degrees, got {phi_deg}")
    if phi_deg == 22.5:  # the formula rounds to 2.2e-16 here, not to 0
        return 0.0
    k = 2.0 * math.cos(math.radians(2.0 * phi_deg)) ** 2 - 1.0
    return min(max(k, 0.0), 1.0)


def sample_counts(dist: JointDistribution, shots: int, seed) -> np.ndarray:
    """Draw each cell independently as Poisson(shots * p(a, b)), as a read-only int64 table.

    Deterministic for a fixed seed (an int or a ``numpy.random.SeedSequence``).
    """
    if not isinstance(dist, JointDistribution):
        raise ValueError(f"cannot sample counts from a {type(dist).__name__}: it is not a probability table "
                         "(a JointDistribution); a quasiprobability table has no counts")
    return _freeze(_draw(dist.values, shots, seed))


def _draw(p: np.ndarray, shots: int, seed) -> np.ndarray:
    """Poisson(shots * p) per cell of the checked probability table ``p``, from ``default_rng(seed)``."""
    # bool is an int subclass, so True would otherwise draw one-shot tables
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be at most {MAX_SHOTS}, got {shots}")
    return np.random.default_rng(seed).poisson(shots * p)


def apply_gate_noise(
    joint_state: DensityOperator, model: NoiseModel, basis: np.ndarray | None = None
) -> DensityOperator:
    """Mix the post-coupling joint state with its dephased copy.

    Dephasing acts on the system side in the measurement (coupling) basis:
    visibility nu returns nu sigma + (1 - nu) D(sigma), where D kills the
    system coherences that feed the interference cross-term.  ``basis`` gives
    the dephasing eigenbasis as columns; the default is computational.
    The sweep dephases the prepared state instead, as D commutes with the
    coupling; this joint-state form is the independent oracle of that model.
    """
    nu = model.gate_visibility
    if nu == 1.0:
        return joint_state
    d = math.isqrt(joint_state.dim)
    if d * d != joint_state.dim:
        raise ValueError(f"joint state dimension {joint_state.dim} is not a perfect square")
    w = np.eye(d, dtype=complex) if basis is None else np.asarray(basis, dtype=complex)
    sigma = joint_state.matrix
    eye = np.eye(d, dtype=complex)
    dephased = np.zeros_like(sigma)
    for a in range(d):
        pa = np.kron(np.outer(w[:, a], w[:, a].conj()), eye)
        dephased += pa @ sigma @ pa
    return DensityOperator(nu * sigma + (1.0 - nu) * dephased)


_QUASI = ("weak_cq", "weak_mhq", "mhq_reconstructed")


@dataclass(frozen=True, eq=False)
class Sweep:
    """A strength sweep as arrays over the K axis.

    ``values`` maps the export names p_weak, p_tpm, p_fin, weak_cq, C,
    mhq_reconstructed and weak_mhq to read-only arrays whose first axis is the
    grid: (nK, d, d), and (nK, d) for p_fin.  ``errors`` maps the same names
    to read-only arrays of their standard errors in the same shapes: in
    sampled mode the Poisson covariance of every point's three count tables
    carried to first order through each quantity's coefficient matrices, for
    the whole grid at once; in exact mode a broadcast zero, which allocates
    nothing.  ``masks`` maps mhq_reconstructed and weak_mhq to the (nK,)
    masks of the points a data path reaches; their other slices hold finite
    filler.
    """

    values: dict
    errors: dict
    masks: dict

    def reached(self, name: str) -> np.ndarray:
        """(nK,) mask of the points where a data path reaches quantity ``name``."""
        if name not in self.values:
            raise KeyError(f"unknown quantity {name!r}; expected one of {', '.join(self.values)}")
        return self.masks.get(name, np.ones(len(self.values[name]), dtype=bool))


def _grid(strengths, d: int) -> SimpleNamespace:
    """The K and weights of WeakStrengths as (nK, 1, 1) columns, which broadcast over a K axis."""
    k = np.array([s.K for s in strengths], dtype=float).reshape(-1, 1, 1)
    weights = np.array([s.weights for s in strengths], dtype=float).reshape(-1, 3)
    return SimpleNamespace(K=k, dim=d, weights=tuple(weights.T[:, :, None, None]))


def _strength(k: float, d: int) -> WeakStrength:
    """WeakStrength(k, d), rejecting a weak strength whose cross weight is below MIN_CROSS_WEIGHT."""
    strength = WeakStrength(k, d)
    if 0.0 < k < 1.0 and strength.cross_weight < MIN_CROSS_WEIGHT:
        raise ValueError(
            f"K={k:.15g} is too close to {round(k)}: its cross weight {strength.cross_weight:.3g} "
            f"is below {MIN_CROSS_WEIGHT:g} at d={d}"
        )
    return strength


def _point_quantities(pw: np.ndarray, pt: np.ndarray, p_final: np.ndarray, strength) -> dict:
    """The seven quantities from the weak, K=1 and K=0 tables, by export name.

    Tables are (..., d, d), so the sweep's (nK, d, d) tables and the (d, d)
    identity and zero tables of ``_errors`` share every data path: on the
    tables it gives the values, on an identity in one slot the coefficient
    matrices.  Slices that no data path reaches hold finite filler (see _reach).
    """
    pf = p_final.sum(axis=-2)
    wcq = _weak_cq_values(pw, pf)
    coh = _coherence_values(pw, pt, pf, strength)
    rec = _reconstruct(coh, strength)
    return {
        "p_weak": pw,
        "p_tpm": pt,
        "p_fin": pf,
        "weak_cq": wcq,
        "C": coh,
        "mhq_reconstructed": rec,
        "weak_mhq": _weak_mhq_values(wcq, rec, pf, strength),
    }


def _errors(tables, totals, grid) -> dict:
    """First-order Poisson standard errors of the seven quantities over the grid, by export name.

    A table p = n/N normalized by its total count N has covariance
    (diag(p) - p p^T)/N, and the three tables of a point are independent.
    Every quantity is linear in them and mixes rows only within one column:
    it is C @ p for the matrix C it gives on the identity table, the other
    two tables zero.  So per table Var = ((C*C) @ p - (C @ p)^2)/N, the limit
    of infinitely many Poisson re-draws around the counts.  C is (d, d), or
    (nK, d, d) where it depends on K, and (d,) for p_fin; each broadcasts
    against the (nK, d, d) tables.
    """
    d = grid.dim
    variances = {}
    for t, (p, total) in enumerate(zip(tables, totals)):
        slots = [np.zeros((d, d))] * 3
        slots[t] = np.eye(d)
        for name, c in _point_quantities(*slots, grid).items():
            v = (c * c) @ p
            v -= (c @ p) ** 2
            np.divide(v.T, total, out=v.T)  # the grid is the first axis of every quantity
            v += variances.get(name, 0.0)
            variances[name] = v
    # a vanishing variance (p_fin of an eigenstate of B) can round below 0
    return {name: np.sqrt(np.maximum(v, 0.0, out=v), out=v) for name, v in variances.items()}


def run_sweep(
    rho: DensityOperator,
    obs_a: ObservableSpec,
    obs_b: ObservableSpec,
    k_values,
    shots: int | None = None,
    noise: NoiseModel = NoiseModel(),
    seed: int = 0,
) -> Sweep:
    """Evaluate the weak-sequential experiment over a grid of strengths.

    Every strength point K uses three settings, K itself plus the reference
    strengths 1 and 0, which supply the projective table and the
    final-observable marginal entering the reconstruction formulas.  The
    exact tables are the three-term closed form w0^2 p + (w1^2/d) p_fin +
    cross q_MH on the noise-dephased state: p, p_fin and q_MH are computed
    once, and one broadcast over the grid's weights gives every table, checked
    once as a stack.  Sampled mode draws each setting from its row of that
    checked stack, as sample_counts draws, so no table is checked again.  All
    derived tables are computed from the (estimated or exact) tables alone,
    exactly as they would be from laboratory data, as one array over the grid.

    Parameters
    ----------
    rho, obs_a, obs_b : state and the two observables.
    k_values : iterable of float
        Strength grid; evaluated in the given order.  An empty grid, or a K
        in (0, 1) whose cross weight is below MIN_CROSS_WEIGHT, raises
        ValueError before any evaluation.
    shots : int or None
        Expected total coincidences per setting; None selects exact
        (infinite-statistics) mode, where all standard errors are zero.  In
        sampled mode the standard errors propagate the Poisson covariance of
        the three drawn tables to first order.
    noise : NoiseModel
        Gate visibility, applied once to the prepared state.
    seed : int
        Root seed of sampled mode: point i draws its K, 1 and 0 settings from
        ``SeedSequence(seed).spawn(n)[i].spawn(3)``, so sweeps are
        reproducible bit-for-bit.  Exact mode draws nothing, but in both modes
        a bool, a non-integer or a negative seed raises ValueError.

    Returns
    -------
    Sweep
        The seven quantities and their standard errors as arrays over the
        grid, with the masks of the points a data path reaches.
    """
    # bool is an int subclass, so True would otherwise draw as seed 1
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    d = _check_dims(rho, obs_a, obs_b)
    strengths = tuple(_strength(float(k), d) for k in k_values)
    if not strengths:
        raise ValueError("the strength grid is empty")
    if noise.gate_visibility != 1.0:  # dephasing in A's basis commutes with the controlled shift
        nu, w = noise.gate_visibility, obs_a.eigenvectors
        rho = DensityOperator(nu * rho.matrix + (1.0 - nu) * (w * _born(rho, obs_a)) @ w.conj().T)
    # the grid's settings, then the projective (K=1) and no-measurement (K=0) references
    settings = _grid([*strengths, WeakStrength(1.0, d), WeakStrength(0.0, d)], d)
    exact = _probability_stack(
        _three_term(settings, _tpm_table(rho, obs_a, obs_b), _born(rho, obs_b), _mh_table(rho, obs_a, obs_b))
    )
    n = len(strengths)
    if shots is None:  # exact mode draws nothing, so it never builds (or imports) numpy.random
        tables = (exact[:-2], exact[-2], exact[-1])
    else:  # every point draws its weak, K=1 and K=0 counts from its own spawned generator
        counts = np.empty((3, n, d, d), dtype=np.int64)
        for i, child in enumerate(np.random.SeedSequence(seed).spawn(n)):
            for t, (row, s) in enumerate(zip((i, n, n + 1), child.spawn(3))):
                counts[t, i] = _draw(exact[row], shots, s)  # a row of the checked stack
        totals = _totals(counts)
        if not totals.all():  # the first empty table in draw order: by point, then setting
            i, t = np.argwhere(totals.T == 0)[0]
            raise ZeroCountsError(
                f"shots={shots} drew an all-zero count table for setting K={(strengths[i].K, 1.0, 0.0)[t]:g} "
                f"at strength point K={strengths[i].K:g}; increase shots"
            )
        tables = _probability_stack(counts.astype(float))
    grid = _grid(strengths, d)
    values = _point_quantities(*tables, grid)
    for name in _QUASI:  # the quasiprob functions' finiteness check, once per stack
        _finite(values[name], f"{name} table")
    shapes = {name: (n, d) if name == "p_fin" else (n, d, d) for name in values}
    errors = _errors(tables, totals, grid) if shots is not None else {}
    # read-only views; exact mode shares one p_tpm and p_fin across the grid, and its errors are zeros
    values = {name: np.broadcast_to(v, shapes[name]) for name, v in values.items()}
    errors = {name: np.broadcast_to(errors.get(name, 0.0), shapes[name]) for name in values}
    masks = {name: _freeze(m.reshape(-1)) for name, m in zip(("mhq_reconstructed", "weak_mhq"), _reach(grid))}
    return Sweep(values, errors, masks)
