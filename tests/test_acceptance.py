"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
Every expected number is pinned from an independent oracle (scalar trig
formulas, the explicit circuit path, or the numpy oracles of
``tests/oracles.py``), never from the code path under test.
"""

import functools
import time

import numpy as np

from conftest import random_instance, scenario_amplitudes
from oracles import marginals, mhq_from_weak_tpm, weak_sequential_oracle
from weakquasi.core import WeakStrength, make_pure_state, pauli_x, pauli_z
from weakquasi.quasiprob import (
    cq,
    mhq,
    mhq_from_weak,
    threshold_strength,
    weak_cq_closed,
    weak_mhq,
)
from weakquasi.sampling import run_sweep, sample_counts
from weakquasi.schemes import probability_table, tpm_joint, weak_sequential_closed


def demo_scenario(amplitudes):
    """The polarisation qubit a cos(2 theta0)|H> + sin(2 theta0)|V> with A=Z and B=X."""
    return make_pure_state(amplitudes), pauli_z(), pauli_x()


def criterion(number, description):
    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                detail = func(*args, **kwargs)
            except AssertionError:
                print(f"FAIL  criterion {number}: {description}")
                raise
            print(f"PASS  criterion {number}: {description}" + (f" [{detail}]" if detail else ""))

        return wrapper

    return decorate


@criterion(1, "circuit oracle and closed form agree to 1e-10 on 200 random instances")
def test_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for index in range(200):
        dim = (2, 3, 4)[index % 3]
        rho, obs_a, obs_b = random_instance(rng, dim, pure=bool(index % 2))
        k = float(rng.uniform(0, 1))
        gap = np.abs(
            weak_sequential_oracle(rho, obs_a, obs_b, k).values
            - weak_sequential_closed(rho, obs_a, obs_b, k).values
        ).max()
        worst = max(worst, gap)
        assert gap <= 1e-10
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    return f"max dev {worst:.2e}, {elapsed:.2f} s"


@criterion(2, "demo-scenario negativity threshold and sign structure")
def test_negativity_threshold():
    c, s = scenario_amplitudes()
    rho, obs_a, obs_b = demo_scenario([c, s])
    # independent scalar oracle: q_MH(V, D-perp) = -s(c-s)/2, p_fin(D-perp) = (c-s)^2/2,
    # threshold 1 / (1 - d q_MH / p_fin) = 1 / (1 + 2 s / (c - s))
    expected = 1.0 / (1.0 + 2.0 * s / (c - s))
    per_cell = threshold_strength(rho, obs_a, obs_b)
    assert abs(per_cell.min() - expected) <= 1e-6
    assert per_cell[1, 1] == per_cell.min()
    # the cell crosses zero at the threshold, in both weak families
    for family in (weak_mhq, weak_cq_closed):
        assert family(rho, obs_a, obs_b, expected - 1e-6).values[1, 1] > 0.0
        assert family(rho, obs_a, obs_b, expected + 1e-6).values[1, 1] < 0.0
    # below the threshold every cell of both weak families is nonnegative
    for k in np.linspace(0.0, expected - 1e-9, 50):
        assert weak_mhq(rho, obs_a, obs_b, k).values.min() >= 0.0
        assert weak_cq_closed(rho, obs_a, obs_b, k).values.min() >= 0.0
    return f"threshold {per_cell.min():.9f}"


@criterion(3, "weak families coincide for qubits and separate at dimension 3")
def test_family_identities():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        rho, obs_a, obs_b = random_instance(rng, 2)
        for k in np.linspace(0.0, 1.0, 11):
            gap = np.abs(
                weak_cq_closed(rho, obs_a, obs_b, k).values
                - weak_mhq(rho, obs_a, obs_b, k).values
            ).max()
            worst = max(worst, gap)
            assert gap <= 1e-12
    rho, obs_a, obs_b = random_instance(np.random.default_rng(0), 3)
    separation = np.abs(
        weak_cq_closed(rho, obs_a, obs_b, 0.5).values - weak_mhq(rho, obs_a, obs_b, 0.5).values
    ).max()
    assert separation > 1e-3
    return f"qubit gap {worst:.2e}, qutrit separation {separation:.2e}"


@criterion(4, "weak-family marginals return p_fin and the strength-weighted p_in")
def test_marginal_contracts():
    rng = np.random.default_rng(107)
    for index in range(200):
        dim = (2, 3, 4)[index % 3]
        rho, obs_a, obs_b = random_instance(rng, dim)
        k = float(rng.uniform(0, 1))
        p_in, p_fin, _ = marginals(rho.matrix, obs_a.eigenvectors, obs_b.eigenvectors)
        for table in (weak_cq_closed(rho, obs_a, obs_b, k), weak_mhq(rho, obs_a, obs_b, k)):
            assert np.abs(table.values.sum(axis=0) - p_fin).max() <= 1e-10
            expected = k * p_in + (1.0 - k) / dim
            assert np.abs(table.values.sum(axis=1) - expected).max() <= 1e-10


@criterion(5, "three reconstruction paths to the MHQ agree to 1e-10")
def test_mhq_path_agreement():
    rng = np.random.default_rng(109)
    instances = [demo_scenario(scenario_amplitudes())] + [
        random_instance(rng, (2, 3, 4)[i % 3]) for i in range(100)
    ]
    for rho, obs_a, obs_b in instances:
        dim = rho.dim
        direct = mhq(rho, obs_a, obs_b).values
        _, p_fin, _ = marginals(rho.matrix, obs_a.eigenvectors, obs_b.eigenvectors)
        via_nonselective = mhq_from_weak_tpm(rho.matrix, obs_a.eigenvectors, obs_b.eigenvectors)
        k = float(rng.uniform(0.05, 0.95))
        via_inversion = mhq_from_weak(
            weak_sequential_closed(rho, obs_a, obs_b, k),
            tpm_joint(rho, obs_a, obs_b),
            p_fin,
            WeakStrength(k, dim),
        ).values
        assert np.abs(direct - via_nonselective).max() <= 1e-10
        assert np.abs(direct - via_inversion).max() <= 1e-10


@criterion(6, "commuting preparation reduces every family to the projective table")
def test_classical_limit():
    rho, obs_a, obs_b = demo_scenario([1.0, 0.0])
    p = tpm_joint(rho, obs_a, obs_b).values
    assert np.abs(cq(rho, obs_a, obs_b).values - p).max() <= 1e-12
    assert np.abs(mhq(rho, obs_a, obs_b).values - p).max() <= 1e-12
    assert np.abs(weak_cq_closed(rho, obs_a, obs_b, 1.0).values - p).max() <= 1e-12
    assert np.abs(weak_mhq(rho, obs_a, obs_b, 1.0).values - p).max() <= 1e-12
    for k in np.linspace(0.0, 1.0, 21):
        assert weak_cq_closed(rho, obs_a, obs_b, k).values.min() >= -1e-15
        assert weak_mhq(rho, obs_a, obs_b, k).values.min() >= -1e-15


@criterion(7, "signs of the coherence term witness the MHQ signs at every strength")
def test_coherence_witness():
    rho, obs_a, obs_b = demo_scenario(scenario_amplitudes())
    q_mh_signs = np.sign(mhq(rho, obs_a, obs_b).values)
    for k in np.linspace(0.01, 0.99, 25):
        sweep = run_sweep(rho, obs_a, obs_b, [k])
        assert (np.sign(sweep.values["C"][0]) == q_mh_signs).all()


@criterion(8, "estimator error follows the 1/sqrt(N) law and sampling is byte-exact")
def test_shot_noise_convergence():
    started = time.monotonic()
    scenario = demo_scenario(scenario_amplitudes())
    exact = weak_sequential_closed(*scenario, 0.5)
    shot_grid = (10**3, 10**5, 10**7)
    mean_errors = []
    for shots in shot_grid:
        deviations = []
        for seed in range(50):
            counts = sample_counts(exact, shots, seed=seed)
            deviations.append(np.abs(probability_table(counts).values - exact.values).mean())
        mean_errors.append(np.mean(deviations))
    slope = np.polyfit(np.log10(shot_grid), np.log10(mean_errors), 1)[0]
    assert abs(slope + 0.5) <= 0.1

    first = run_sweep(*scenario, [0.25, 0.75], shots=10**5, seed=21)
    second = run_sweep(*scenario, [0.25, 0.75], shots=10**5, seed=21)
    for i in range(2):
        for name in ("p_weak", "p_tpm", "p_fin", "weak_cq", "weak_mhq", "C", "mhq_reconstructed"):
            assert first.values[name][i].tobytes() == second.values[name][i].tobytes()
        for key, err in first.errors.items():
            assert err[i].tobytes() == second.errors[key][i].tobytes()
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    return f"slope {slope:.3f}, {elapsed:.2f} s"


@criterion(9, "measurement-induced disturbance scales the marginal gap by omega0^2")
def test_disturbance_identity():
    rng = np.random.default_rng(113)
    worst = 0.0
    for index in range(200):
        dim = (2, 3, 4)[index % 3]
        rho, obs_a, obs_b = random_instance(rng, dim)
        k = float(rng.uniform(0, 1))
        strength = WeakStrength(k, dim)
        weak = weak_sequential_closed(rho, obs_a, obs_b, k)
        _, p_fin, p_post = marginals(rho.matrix, obs_a.eigenvectors, obs_b.eigenvectors)
        lhs = p_fin - weak.values.sum(axis=0)
        rhs = strength.omega0**2 * (p_fin - p_post)
        gap = np.abs(lhs - rhs).max()
        worst = max(worst, gap)
        assert gap <= 1e-12
    return f"max dev {worst:.2e}"
