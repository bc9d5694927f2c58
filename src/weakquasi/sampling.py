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
    _weak_joint_states,
    joint_outcome_table,
    probability_table,
    weak_joint_state,  # noqa: F401  (looked up here by perfbench/tracing.py)
    weak_sequential_closed,
)
from .quasiprob import (
    QuasiDistribution,
    _coherence_values,
    _reconstruct,
    _weak_cq_values,
    _weak_mhq_values,
    coherence_term,
    mhq_from_weak,
    weak_cq_from_data,
)

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

    Visibility 1 reproduces ideal statistics exactly; lower values mix in a
    dephased copy of the post-coupling state, attenuating the interference
    cross-term of the weak-sequential statistics.
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
    k = 2.0 * math.cos(math.radians(2.0 * phi_deg)) ** 2 - 1.0
    return min(max(k, 0.0), 1.0)


@dataclass(frozen=True)
class CountTable:
    """Integer coincidence counts per outcome pair, with shot metadata."""

    counts: np.ndarray
    shots_target: int
    seed: object = None
    setting: tuple = ()

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


def sample_counts(dist: JointDistribution, shots: int, seed, setting: tuple = ()) -> CountTable:
    """Draw each cell independently as Poisson(shots * p(a, b)).

    Deterministic for a fixed seed (an int or a ``numpy.random.SeedSequence``).
    """
    if dist.kind != "probability":
        raise ValueError("cannot sample counts from a quasiprobability table")
    if dist.normalization != "total":
        raise ValueError("cannot sample counts from a per-row-normalized table")
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    rng = np.random.default_rng(seed)
    counts = rng.poisson(shots * dist.values)
    return CountTable(counts, shots_target=int(shots), seed=seed, setting=setting)


def _resampled(counts: np.ndarray, resamples: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized Poisson re-draws centred on observed counts, shape (resamples, d, d)."""
    if resamples < 100:
        raise ValueError(f"need at least 100 resamples, got {resamples}")
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
    above 2, where no data path reaches it.  ``errors`` maps quantity names to
    per-cell standard errors (all zeros in exact mode).
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
    if engine == "closed":
        if not noise.is_ideal:
            raise ValueError("the closed-form engine cannot model gate noise")
        return {k: weak_sequential_closed(rho, obs_a, obs_b, k) for k in settings}
    if engine != "circuit":
        raise ValueError(f"unknown engine {engine!r}")
    return {
        k: probability_table(
            joint_outcome_table(apply_gate_noise(joint, noise, basis=obs_a.eigenvectors), obs_b)
        )
        for k, joint in _weak_joint_states(rho, obs_a, settings)
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
    shared by every point that uses it; the circuit engine also builds the
    coupling unitary once.  Per point, sampled mode draws fresh counts for
    all three settings from that point's own generator, and all derived
    tables are computed from those (estimated or exact) tables alone,
    exactly as they would be from laboratory data.

    Parameters
    ----------
    rho, obs_a, obs_b : state and the two observables.
    k_values : iterable of float
        Strength grid; evaluated in the given order.
    shots : int or None
        Expected total coincidences per setting; None selects exact
        (infinite-statistics) mode, where all standard errors are zero.
    noise : NoiseModel
        Gate visibility applied to every setting of the simulated experiment.
    resamples : int
        Monte Carlo re-draws per setting for the error bars (sampled mode).
    seed : int
        Root seed; every strength point receives an independent spawned
        generator, so records are reproducible bit-for-bit.
    engine : str
        "circuit" simulates the joint system-pointer evolution (required for
        noise); "closed" uses the closed-form tables instead.

    Returns
    -------
    list of StrengthRecord
    """
    k_list = [float(k) for k in k_values]
    d = rho.dim
    # the projective (K=1) and no-measurement (K=0) reference settings are
    # the same at every point, so each distinct setting is evaluated once
    exact_by_k = _exact_setting_tables(
        rho, obs_a, obs_b, sorted(set(k_list) | {0.0, 1.0}), noise, engine
    )
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(k_list))
    records = []
    for k, child in zip(k_list, children):
        strength = WeakStrength.from_k(k, d)
        settings = (k, 1.0, 0.0)
        estimates = [exact_by_k[s] for s in settings]
        if shots is not None:
            seeds = child.spawn(4)
            tables = [
                sample_counts(table, shots, s, setting=(k, f"K={setting:g}"))
                for table, setting, s in zip(estimates, settings, seeds)
            ]
            for table, setting in zip(tables, settings):
                if table.total == 0:
                    raise ZeroCountsError(
                        f"shots={shots} drew an all-zero count table for setting K={setting:g} "
                        f"at strength point K={k:g}; increase shots"
                    )
            estimates = [t.estimator() for t in tables]
        p_weak, p_tpm = estimates[0], estimates[1]
        p_fin = estimates[2].marginal_b()
        wcq = weak_cq_from_data(p_weak, p_fin, strength)
        coh = coherence_term(p_weak, p_tpm, p_fin, strength)
        rec = mhq_from_weak(p_weak, p_tpm, p_fin, strength) if 0.0 < k < 1.0 else None
        wmh = _weak_mhq_values(wcq.values, None if rec is None else rec.values, p_fin, strength)
        if wmh is not None:
            wmh = QuasiDistribution(wmh, family="weakMHQ", strength=strength)
        if shots is None:
            spread = [np.zeros_like(p_weak.values), np.zeros_like(p_tpm.values), np.zeros_like(p_fin)]
            spread += [None if t is None else np.zeros((d, d)) for t in (wcq, coh, rec, wmh)]
        else:
            # the same data paths, applied to every resampled set of tables at once
            rng = np.random.default_rng(seeds[3])
            pw_r, pt_r, p_final_r = [_resampled(t.counts, resamples, rng) for t in tables]
            pf_r = p_final_r.sum(axis=1)
            wcq_r = _weak_cq_values(pw_r, pf_r)
            coh_r = _coherence_values(pw_r, pt_r, pf_r, strength)
            rec_r = None if rec is None else _reconstruct(coh_r, strength)
            wmh_r = _weak_mhq_values(wcq_r, rec_r, pf_r, strength)
            spread = [
                None if x is None else x.std(axis=0, ddof=1)
                for x in (pw_r, pt_r, pf_r, wcq_r, coh_r, rec_r, wmh_r)
            ]
        names = ("p_weak", "p_tpm", "p_fin", "weak_cq", "C", "mhq_reconstructed", "weak_mhq")
        errors = dict(zip(names, spread))
        records.append(
            StrengthRecord(
                strength=strength,
                p_weak=p_weak,
                p_tpm=p_tpm,
                p_fin=p_fin,
                weak_cq=wcq,
                weak_mhq=wmh,
                coherence=coh,
                mhq_reconstructed=rec,
                errors=errors,
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
