"""Finite-statistics simulation of the photonic weak-measurement experiment.

Coincidence counts are drawn cell-wise from independent Poisson laws, point
estimates are normalized counts, and error bars come from a Monte Carlo
procedure that re-draws count tables around the observed ones.  A single
gate-visibility parameter models imperfect interference at the coupling gate.

All sampling uses explicitly seeded, splittable generators; identical seeds
give bit-identical results, and independent strength points may be evaluated
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    _kraus_table,
    # the dense circuit oracle; perfbench/tracing.py looks both names up here
    joint_outcome_table,  # noqa: F401
    probability_table,
    weak_joint_state,  # noqa: F401
    weak_sequential_closed,
)
from .quasiprob import (
    QuasiDistribution,
    _coherence_values,
    _reconstruct,
    _weak_cq_values,
    _weak_mhq_values,
    # the validating per-table wrappers; only perfbench/tracing.py looks them up here
    coherence_term,  # noqa: F401
    mhq_from_weak,  # noqa: F401
    weak_cq_from_data,  # noqa: F401
)

MAX_SHOTS = 10**15  # largest shot count per setting; keeps the int64 count sums exact
MAX_RESAMPLES = 10**5  # largest Monte Carlo re-draw count per setting
MIN_CROSS_WEIGHT = 1e-6  # the MHQ inversion multiplies rounding dust by 1 / cross_weight

__all__ = [
    "CountTable",
    "NoiseModel",
    "QubitScenario",
    "StrengthRecord",
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
        counts = np.array(self.counts, dtype=np.int64)
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


@dataclass(frozen=True)
class StrengthRecord:
    """All tables derived from one strength point of a sweep.

    ``mhq_reconstructed`` is None at K in {0, 1}, where the cross-term
    inversion is singular; ``weak_mhq`` is None only at K=1 for dimensions
    above 2, where no data path reaches it.  ``errors`` maps the export names
    p_weak, p_tpm, p_fin, weak_cq, C, mhq_reconstructed and weak_mhq to
    per-cell standard errors, None where the quantity is None.  In sampled
    mode they are the spread of the same data paths over the resampled
    tables; in exact mode they are all zeros.
    """

    strength: WeakStrength
    p_weak: JointDistribution
    p_tpm: JointDistribution
    p_fin: np.ndarray
    weak_cq: QuasiDistribution
    weak_mhq: QuasiDistribution | None
    coherence: np.ndarray
    mhq_reconstructed: QuasiDistribution | None
    errors: dict = field(default_factory=dict)


def _exact_setting_tables(
    rho: DensityOperator,
    obs_a: ObservableSpec,
    obs_b: ObservableSpec,
    settings,
    noise: NoiseModel,
    engine: str,
) -> dict[float, JointDistribution]:
    """Exact table of each strength setting, evaluated once per setting."""
    if not noise.is_ideal:  # dephasing in A's basis commutes with the controlled shift
        nu, w = noise.gate_visibility, obs_a.eigenvectors
        rho = DensityOperator(nu * rho.matrix + (1.0 - nu) * (w * _born(rho, obs_a)) @ w.conj().T)
    if engine == "closed":
        return {k: weak_sequential_closed(rho, obs_a, obs_b, k) for k in settings}
    if engine != "circuit":
        raise ValueError(f"unknown engine {engine!r}")
    return {k: probability_table(_kraus_table(rho, obs_a, obs_b, k)) for k in settings}


def _strength(k: float, d: int) -> WeakStrength:
    """WeakStrength.from_k, rejecting a weak strength whose cross weight is below MIN_CROSS_WEIGHT."""
    strength = WeakStrength.from_k(k, d)
    if 0.0 < k < 1.0 and strength.cross_weight < MIN_CROSS_WEIGHT:
        raise ValueError(
            f"K={k:.15g} is too close to {round(k)}: its cross weight {strength.cross_weight:.3g} "
            f"is below {MIN_CROSS_WEIGHT:g} at d={d}"
        )
    return strength


def _point_quantities(pw: np.ndarray, pt: np.ndarray, p_final: np.ndarray, strength: WeakStrength) -> dict:
    """The seven quantities of one strength point from its weak, K=1 and K=0 tables, by export name.

    Tables are (..., d, d), so a point estimate and a stack of resampled tables
    share every data path; a quantity no data path reaches is None.
    """
    pf = p_final.sum(axis=-2)
    wcq = _weak_cq_values(pw, pf)
    coh = _coherence_values(pw, pt, pf, strength)
    rec = _reconstruct(coh, strength) if 0.0 < strength.K < 1.0 else None
    return {
        "p_weak": pw,
        "p_tpm": pt,
        "p_fin": pf,
        "weak_cq": wcq,
        "C": coh,
        "mhq_reconstructed": rec,
        "weak_mhq": _weak_mhq_values(wcq, rec, pf, strength),
    }


def run_sweep(
    rho: DensityOperator,
    obs_a: ObservableSpec,
    obs_b: ObservableSpec,
    k_values,
    shots: int | None = None,
    noise: NoiseModel = NoiseModel(),
    resamples: int = 1000,
    seed: int = 0,
    engine: str = "circuit",
) -> list[StrengthRecord]:
    """Evaluate the weak-sequential experiment over a grid of strengths.

    Every strength point K uses three settings, K itself plus the reference
    strengths 1 and 0, which supply the projective table and the
    final-observable marginal entering the reconstruction formulas.  The
    exact table of each distinct setting is computed once per sweep and
    shared by every point that uses it.  Per point, sampled mode draws fresh
    counts for all three settings from that point's own generator, and all
    derived tables are computed from those (estimated or exact) tables
    alone, exactly as they would be from laboratory data.

    Parameters
    ----------
    rho, obs_a, obs_b : state and the two observables.
    k_values : iterable of float
        Strength grid; evaluated in the given order.  A K in (0, 1) whose
        cross weight is below MIN_CROSS_WEIGHT raises ValueError before any
        evaluation.
    shots : int or None
        Expected total coincidences per setting; None selects exact
        (infinite-statistics) mode, where all standard errors are zero.
    noise : NoiseModel
        Gate visibility, applied once to the prepared state.
    resamples : int
        Monte Carlo re-draws per setting for the error bars (sampled mode),
        between 100 and MAX_RESAMPLES.
    seed : int
        Root seed of sampled mode; every strength point receives an
        independent spawned generator, so records are reproducible
        bit-for-bit.  Exact mode ignores it.
    engine : str
        "circuit" reads the pointer coupling through the weak POVM's Kraus
        operators; "closed" uses the three-term closed form instead.

    Returns
    -------
    list of StrengthRecord
    """
    k_list = [float(k) for k in k_values]
    d = rho.dim
    strengths = [_strength(k, d) for k in k_list]
    # the projective (K=1) and no-measurement (K=0) reference settings are
    # the same at every point, so each distinct setting is evaluated once
    exact_by_k = _exact_setting_tables(
        rho, obs_a, obs_b, sorted(set(k_list) | {0.0, 1.0}), noise, engine
    )
    # exact mode draws nothing, so it never builds (or imports) numpy.random
    if shots is None:
        children = [None] * len(k_list)
    else:
        children = np.random.SeedSequence(seed).spawn(len(k_list))
    records = []
    for k, strength, child in zip(k_list, strengths, children):
        settings = (k, 1.0, 0.0)
        estimates = [exact_by_k[s] for s in settings]
        if shots is not None:
            seeds = child.spawn(4)
            tables = [sample_counts(table, shots, s) for table, s in zip(estimates, seeds)]
            for table, setting in zip(tables, settings):
                if table.total == 0:
                    raise ZeroCountsError(
                        f"shots={shots} drew an all-zero count table for setting K={setting:g} "
                        f"at strength point K={k:g}; increase shots"
                    )
            estimates = [t.estimator() for t in tables]
        point = _point_quantities(*(e.values for e in estimates), strength)
        if shots is None:
            errors = {name: None if v is None else np.zeros_like(v) for name, v in point.items()}
        else:
            rng = np.random.default_rng(seeds[3])
            stacks = _point_quantities(*(_resampled(t.counts, resamples, rng) for t in tables), strength)
            errors = {name: None if s is None else s.std(axis=0, ddof=1) for name, s in stacks.items()}
            del stacks  # one point's stacks at a time: freed before the next point draws its own
        # the records wrap the quasiprobabilities, whose construction checks they are finite
        quasi = {
            name: None if point[name] is None
            else QuasiDistribution(point[name], family=family, strength=strength)
            for name, family in (("weak_cq", "weakCQ"), ("weak_mhq", "weakMHQ"), ("mhq_reconstructed", "MHQ"))
        }
        records.append(
            StrengthRecord(
                strength=strength,
                p_weak=estimates[0],
                p_tpm=estimates[1],
                p_fin=point["p_fin"],
                coherence=point["C"],
                errors=errors,
                **quasi,
            )
        )
    return records


def run_scenario(
    scenario: QubitScenario,
    k_values,
    shots: int | None = None,
    noise: NoiseModel = NoiseModel(),
    resamples: int = 1000,
    seed: int = 0,
) -> list[StrengthRecord]:
    """Run the polarisation-qubit scenario over a strength grid.

    Thin wrapper over :func:`run_sweep` with the fixed observables A=Z, B=X.
    """
    return run_sweep(
        scenario.state(),
        scenario.observable_a,
        scenario.observable_b,
        k_values,
        shots=shots,
        noise=noise,
        resamples=resamples,
        seed=seed,
    )
