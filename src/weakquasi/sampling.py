"""Finite-statistics simulation of the photonic weak-measurement experiment.

The strength sweep is array-valued: the exact tables of every strength come
from one broadcast of the three-term closed form, and every derived quantity
is one array over the K axis.  Coincidence counts are drawn cell-wise from
independent Poisson laws and point estimates are normalized counts.  The
sweep's error bars propagate each table's Poisson covariance through the data
paths to first order in closed form.  :func:`estimate_with_errors` keeps the
Monte Carlo procedure that re-draws count tables around the observed ones;
the closed form is its limit as the re-draws grow.  A single gate-visibility
parameter models imperfect interference at the coupling gate.

All sampling uses explicitly seeded, splittable generators; identical seeds
give bit-identical results, and independent strength points may be evaluated
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .core import (
    DensityOperator,
    ObservableSpec,
    WeakStrength,
    _freeze,
    make_pure_state,
    pauli_x,
    pauli_z,
)
from .schemes import (
    JointDistribution,
    _born,
    _check_dims,
    _finite,
    _mh_table,
    _probability_stack,
    _three_term,
    _tpm_table,
    probability_table,
    # the dense circuit oracle and the per-setting closed form; perfbench/tracing.py looks them up here
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
MAX_RESAMPLES = 10**5  # largest Monte Carlo re-draw count of estimate_with_errors
MIN_CROSS_WEIGHT = 1e-6  # the MHQ inversion multiplies rounding dust by 1 / cross_weight

__all__ = [
    "CountTable",
    "NoiseModel",
    "QubitScenario",
    "Sweep",
    "ZeroCountsError",
    "apply_gate_noise",
    "estimate_with_errors",
    "run_scenario",
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

    @property
    def is_ideal(self) -> bool:
        return self.gate_visibility == 1.0


@dataclass(frozen=True)
class QubitScenario:
    """Polarisation-qubit scenario: state cos(2 theta0)|H> + sin(2 theta0)|V>, A=Z, B=X."""

    theta0_deg: float

    def state(self) -> DensityOperator:
        angle = math.radians(2.0 * self.theta0_deg)
        return make_pure_state([math.cos(angle), math.sin(angle)])

    @property
    def observable_a(self) -> ObservableSpec:
        return pauli_z()

    @property
    def observable_b(self) -> ObservableSpec:
        return pauli_x()


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


@dataclass(frozen=True)
class CountTable:
    """Integer coincidence counts per outcome pair, with the requested shot count."""

    counts: np.ndarray
    shots_target: int

    def __post_init__(self):
        raw = np.asarray(self.counts)
        if raw.dtype.kind not in "bi":  # the int64 cast would truncate, or wrap, such a count
            raw = raw.astype(float)
            if not (np.isfinite(raw) & (raw == np.round(raw)) & (np.abs(raw) < 2.0**63)).all():
                raise ValueError("counts must be finite integers within the int64 range")
        counts = raw.astype(np.int64)
        if counts.ndim != 2:
            raise ValueError(f"counts must be a 2-D table, got shape {counts.shape}")
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", _freeze(counts))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def estimator(self) -> JointDistribution:
        """Normalized counts as a probability table."""
        if self.total == 0:
            raise ValueError("cannot form an estimator from an all-zero count table")
        return probability_table(self.counts.astype(float))


def sample_counts(dist: JointDistribution, shots: int, seed) -> CountTable:
    """Draw each cell independently as Poisson(shots * p(a, b)).

    Deterministic for a fixed seed (an int or a ``numpy.random.SeedSequence``).
    """
    if dist.kind != "probability":
        raise ValueError("cannot sample counts from a quasiprobability table")
    if dist.normalization != "total":
        raise ValueError("cannot sample counts from a per-row-normalized table")
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be at most {MAX_SHOTS}, got {shots}")
    rng = np.random.default_rng(seed)
    counts = rng.poisson(shots * dist.values)
    return CountTable(counts, shots_target=int(shots))


def _resampled(counts: np.ndarray, resamples: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized Poisson re-draws centred on observed counts, shape (resamples, d, d)."""
    if resamples < 100:
        raise ValueError(f"need at least 100 resamples, got {resamples}")
    if resamples > MAX_RESAMPLES:
        raise ValueError(f"need at most {MAX_RESAMPLES} resamples, got {resamples}")
    draws = rng.poisson(counts, size=(resamples, *counts.shape))
    totals = draws.sum(axis=(1, 2), keepdims=True)
    return draws / np.where(totals > 0, totals, 1.0)


def estimate_with_errors(
    counts: CountTable, resamples: int, seed
) -> tuple[JointDistribution, np.ndarray]:
    """Point estimate counts/total plus Monte Carlo standard errors per cell.

    Standard errors are the cell-wise standard deviation of the normalized
    estimator over ``resamples`` Poisson re-draws centred on the observed
    counts.

    Parameters
    ----------
    counts : CountTable
        Observed coincidence counts; the total must be positive.
    resamples : int
        Number of Monte Carlo re-draws, at least 100.
    seed : int or numpy.random.SeedSequence
        Seed for the re-draws.

    Returns
    -------
    (JointDistribution, numpy.ndarray)
        The point estimate and the table of standard errors.
    """
    estimate = counts.estimator()
    stderr = _resampled(counts.counts, resamples, np.random.default_rng(seed)).std(axis=0, ddof=1)
    return estimate, stderr


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


_QUASI = {"weak_cq": "weakCQ", "weak_mhq": "weakMHQ", "mhq_reconstructed": "MHQ"}


@dataclass(frozen=True, eq=False)
class Sweep:
    """A strength sweep as arrays over the K axis.

    ``values`` maps the export names p_weak, p_tpm, p_fin, weak_cq, C,
    mhq_reconstructed and weak_mhq to read-only arrays whose first axis is the
    grid: (nK, d, d), and (nK, d) for p_fin.  ``errors`` maps the same names
    to read-only arrays of their standard errors in the same shapes: in
    sampled mode the Poisson covariance of each point's three count tables
    carried through the data paths to first order; in exact mode a broadcast
    zero, which allocates nothing.  ``masks`` maps mhq_reconstructed and
    weak_mhq to the (nK,) masks of the points a data path reaches; their other
    slices hold finite filler.
    """

    strengths: tuple[WeakStrength, ...]
    values: dict
    errors: dict
    masks: dict

    def reached(self, name: str) -> np.ndarray:
        """(nK,) mask of the points where a data path reaches quantity ``name``."""
        if name not in self.values:
            raise KeyError(f"unknown quantity {name!r}; expected one of {', '.join(self.values)}")
        return self.masks.get(name, np.ones(len(self.strengths), dtype=bool))


def _grid(strengths, d: int) -> SimpleNamespace:
    """The K and weights of WeakStrengths as (nK, 1, 1) columns, which broadcast over a K axis."""
    k = np.array([s.K for s in strengths], dtype=float).reshape(-1, 1, 1)
    weights = np.array([s.weights for s in strengths], dtype=float).reshape(-1, 3)
    return SimpleNamespace(K=k, dim=d, weights=tuple(weights.T[:, :, None, None]))


def _strength(k: float, d: int) -> WeakStrength:
    """WeakStrength.from_k, rejecting a weak strength whose cross weight is below MIN_CROSS_WEIGHT."""
    strength = WeakStrength.from_k(k, d)
    if 0.0 < k < 1.0 and strength.cross_weight < MIN_CROSS_WEIGHT:
        raise ValueError(
            f"K={k:.15g} is too close to {round(k)}: its cross weight {strength.cross_weight:.3g} "
            f"is below {MIN_CROSS_WEIGHT:g} at d={d}"
        )
    return strength


def _point_quantities(pw: np.ndarray, pt: np.ndarray, p_final: np.ndarray, strength) -> dict:
    """The seven quantities of strength points from their weak, K=1 and K=0 tables, by export name.

    Tables are (..., d, d), so the sweep's K axis and a point's stack of
    error-bar tables share every data path.  Slices that no data path
    reaches hold finite filler (see _reach).
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


def _point_errors(tables, totals, strength: WeakStrength) -> dict:
    """First-order Poisson standard errors of the seven quantities of one point, by export name.

    A table p = n/N normalized by its total count N has covariance
    (diag(p) - p p^T)/N, and the three tables of a point are independent.
    Every quantity Q is linear in them and mixes rows only within one column,
    so with S_a the table that holds row a of sqrt(p) and nothing else,
    sum_a Q(S_a)^2 = sum_cells l^2 p and Var Q = (sum_a Q(S_a)^2 - Q(p)^2)/N
    per table.  One (d+1)-table block per table, the other two tables zero,
    carries this through ``_point_quantities``; it is the limit of infinitely
    many Poisson re-draws around the counts.
    """
    d = tables[0].shape[-1]
    m = d + 1  # per table: S_0 .. S_{d-1}, then p
    stack = np.zeros((3, 3 * m, d, d))
    weights = np.empty(3 * m)
    rows = np.arange(d)
    for t, (p, total) in enumerate(zip(tables, totals)):
        block = stack[t, t * m : (t + 1) * m]
        block[rows, rows] = np.sqrt(p)
        block[d] = p
        weights[t * m : (t + 1) * m] = 1.0 / total
        weights[t * m + d] = -1.0 / total
    # a vanishing variance (p_fin of an eigenstate of B) can round below 0
    return {
        name: np.sqrt(np.maximum(np.tensordot(weights, q * q, axes=1), 0.0))
        for name, q in _point_quantities(*stack, strength).items()
    }


def _sampled_points(exact: np.ndarray, strengths, shots: int, seed: int):
    """Normalized count tables (weak, K=1, K=0) of every point as (3, nK, d, d), and their errors by name.

    ``exact`` stacks the exact tables of the grid, then of K=1 and K=0.
    Every point draws its three tables from its own spawned generator.
    """
    references = [JointDistribution(table) for table in exact[-2:]]
    tables = np.empty((3, len(strengths), *exact.shape[1:]))
    errors = {}
    for i, (strength, child) in enumerate(zip(strengths, np.random.SeedSequence(seed).spawn(len(strengths)))):
        settings = (JointDistribution(exact[i]), *references)
        drawn = [sample_counts(table, shots, s) for table, s in zip(settings, child.spawn(3))]
        for table, setting in zip(drawn, (strength.K, 1.0, 0.0)):
            if table.total == 0:
                raise ZeroCountsError(
                    f"shots={shots} drew an all-zero count table for setting K={setting:g} "
                    f"at strength point K={strength.K:g}; increase shots"
                )
        tables[:, i] = _probability_stack(np.array([table.counts for table in drawn], dtype=float))
        for name, e in _point_errors(tables[:, i], [table.total for table in drawn], strength).items():
            if i == 0:
                errors[name] = np.empty((len(strengths), *e.shape))
            errors[name][i] = e
    return tables, errors


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
    once, and one broadcast over the grid's weights gives every table.  Per
    point, sampled mode draws fresh counts for all three settings from that
    point's own generator, and all derived tables are computed from those
    (estimated or exact) tables alone, exactly as they would be from
    laboratory data, as one array over the grid.

    Parameters
    ----------
    rho, obs_a, obs_b : state and the two observables.
    k_values : iterable of float
        Strength grid; evaluated in the given order.  A K in (0, 1) whose
        cross weight is below MIN_CROSS_WEIGHT raises ValueError before any
        evaluation.
    shots : int or None
        Expected total coincidences per setting; None selects exact
        (infinite-statistics) mode, where all standard errors are zero.  In
        sampled mode the standard errors propagate the Poisson covariance of
        the three drawn tables to first order.
    noise : NoiseModel
        Gate visibility, applied once to the prepared state.
    seed : int
        Root seed of sampled mode; every strength point receives an
        independent spawned generator, so sweeps are reproducible
        bit-for-bit.  Exact mode ignores it.

    Returns
    -------
    Sweep
        The seven quantities and their standard errors as arrays over the
        grid, with the masks of the points a data path reaches.
    """
    d = _check_dims(rho, obs_a, obs_b)
    strengths = tuple(_strength(float(k), d) for k in k_values)
    if not noise.is_ideal:  # dephasing in A's basis commutes with the controlled shift
        nu, w = noise.gate_visibility, obs_a.eigenvectors
        rho = DensityOperator(nu * rho.matrix + (1.0 - nu) * (w * _born(rho, obs_a)) @ w.conj().T)
    # the grid's settings, then the projective (K=1) and no-measurement (K=0) references
    settings = _grid([*strengths, WeakStrength.from_k(1.0, d), WeakStrength.from_k(0.0, d)], d)
    exact = _probability_stack(
        _three_term(settings, _tpm_table(rho, obs_a, obs_b), _born(rho, obs_b), _mh_table(rho, obs_a, obs_b))
    )
    if shots is None:  # exact mode draws nothing, so it never builds (or imports) numpy.random
        tables, errors = (exact[:-2], exact[-2], exact[-1]), {}
    else:
        tables, errors = _sampled_points(exact, strengths, shots, seed)
    grid = _grid(strengths, d)
    values = _point_quantities(*tables, grid)
    for name, family in _QUASI.items():  # QuasiDistribution's check, once per stack
        _finite(values[name], f"{family} table")
    # read-only views; exact mode shares one p_tpm and p_fin across the grid, and its errors are zeros
    shapes = {name: (len(strengths), d) if name == "p_fin" else (len(strengths), d, d) for name in values}
    values = {name: np.broadcast_to(v, shapes[name]) for name, v in values.items()}
    errors = {name: np.broadcast_to(errors.get(name, 0.0), shapes[name]) for name in values}
    masks = {name: _freeze(m.reshape(-1)) for name, m in zip(("mhq_reconstructed", "weak_mhq"), _reach(grid))}
    return Sweep(strengths, values, errors, masks)


def run_scenario(
    scenario: QubitScenario,
    k_values,
    shots: int | None = None,
    noise: NoiseModel = NoiseModel(),
    seed: int = 0,
) -> Sweep:
    """Run the polarisation-qubit scenario over a strength grid.

    Thin wrapper over :func:`run_sweep` with the fixed observables A=Z, B=X.
    """
    obs_a, obs_b = scenario.observable_a, scenario.observable_b
    return run_sweep(scenario.state(), obs_a, obs_b, k_values, shots=shots, noise=noise, seed=seed)
