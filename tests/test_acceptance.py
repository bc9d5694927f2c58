"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
Every expected number is pinned from an independent oracle (scalar trig
formulas, the explicit circuit path, or brute-force resampling), never from
the code path under test.
"""

import functools
import time

import numpy as np

from conftest import random_instance, scenario_amplitudes
from weakquasi.core import WeakStrength
from weakquasi.quasiprob import (
    cq,
    mhq,
    mhq_from_weak,
    mhq_from_weak_tpm,
    threshold_strength,
    weak_cq_closed,
    weak_mhq,
)
from weakquasi.sampling import QubitScenario, run_scenario, sample_counts
from weakquasi.schemes import (
    marginals,
    tpm_joint,
    weak_sequential_closed,
    weak_sequential_oracle,
)


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
    scenario = QubitScenario(10.6)
    rho, obs_a, obs_b = scenario.state(), scenario.observable_a, scenario.observable_b
    # independent scalar oracle: q_MH(V, D-perp) = -s(c-s)/2, p_fin(D-perp) = (c-s)^2/2,
    # threshold 1 / (1 - d q_MH / p_fin) = 1 / (1 + 2 s / (c - s))
    expected = 1.0 / (1.0 + 2.0 * s / (c - s))
    report = threshold_strength(rho, obs_a, obs_b)
    assert abs(report.global_threshold - expected) <= 1e-6
    assert report.per_cell[1, 1] == report.global_threshold
    # the cell crosses zero at the threshold, in both weak families
    for family in (weak_mhq, weak_cq_closed):
        assert family(rho, obs_a, obs_b, expected - 1e-6).values[1, 1] > 0.0
        assert family(rho, obs_a, obs_b, expected + 1e-6).values[1, 1] < 0.0
    # below the threshold every cell of both weak families is nonnegative
    for k in np.linspace(0.0, expected - 1e-9, 50):
        assert weak_mhq(rho, obs_a, obs_b, k).values.min() >= 0.0
        assert weak_cq_closed(rho, obs_a, obs_b, k).values.min() >= 0.0
    return f"threshold {report.global_threshold:.9f}"


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
        marg = marginals(rho, obs_a, obs_b)
        for table in (weak_cq_closed(rho, obs_a, obs_b, k), weak_mhq(rho, obs_a, obs_b, k)):
            assert np.abs(table.marginal_b() - marg.p_fin).max() <= 1e-10
            expected = k * marg.p_in + (1.0 - k) / dim
            assert np.abs(table.marginal_a() - expected).max() <= 1e-10


@criterion(5, "three reconstruction paths to the MHQ agree to 1e-10")
def test_mhq_path_agreement():
    rng = np.random.default_rng(109)
    scenario = QubitScenario(10.6)
    instances = [
        (scenario.state(), scenario.observable_a, scenario.observable_b)
    ] + [random_instance(rng, (2, 3, 4)[i % 3]) for i in range(100)]
    for rho, obs_a, obs_b in instances:
        dim = rho.dim
        direct = mhq(rho, obs_a, obs_b).values
        via_nonselective = mhq_from_weak_tpm(rho, obs_a, obs_b).values
        k = float(rng.uniform(0.05, 0.95))
        via_inversion = mhq_from_weak(
            weak_sequential_closed(rho, obs_a, obs_b, k),
            tpm_joint(rho, obs_a, obs_b),
            marginals(rho, obs_a, obs_b).p_fin,
            WeakStrength.from_k(k, dim),
        ).values
        assert np.abs(direct - via_nonselective).max() <= 1e-10
        assert np.abs(direct - via_inversion).max() <= 1e-10


@criterion(6, "commuting preparation reduces every family to the projective table")
def test_classical_limit():
    scenario = QubitScenario(0.0)
    rho, obs_a, obs_b = scenario.state(), scenario.observable_a, scenario.observable_b
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
    scenario = QubitScenario(10.6)
    rho, obs_a, obs_b = scenario.state(), scenario.observable_a, scenario.observable_b
    q_mh_signs = np.sign(mhq(rho, obs_a, obs_b).values)
    for k in np.linspace(0.01, 0.99, 25):
        sweep = run_scenario(scenario, [k])
        assert (np.sign(sweep.values["C"][0]) == q_mh_signs).all()


@criterion(8, "estimator error follows the 1/sqrt(N) law and sampling is byte-exact")
def test_shot_noise_convergence():
    started = time.monotonic()
    scenario = QubitScenario(10.6)
    exact = weak_sequential_closed(
        scenario.state(), scenario.observable_a, scenario.observable_b, 0.5
    )
    shot_grid = (10**3, 10**5, 10**7)
    mean_errors = []
    for shots in shot_grid:
        deviations = []
        for seed in range(50):
            counts = sample_counts(exact, shots, seed=seed)
            deviations.append(np.abs(counts.estimator().values - exact.values).mean())
        mean_errors.append(np.mean(deviations))
    slope = np.polyfit(np.log10(shot_grid), np.log10(mean_errors), 1)[0]
    assert abs(slope + 0.5) <= 0.1

    first = run_scenario(scenario, [0.25, 0.75], shots=10**5, seed=21)
    second = run_scenario(scenario, [0.25, 0.75], shots=10**5, seed=21)
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
        strength = WeakStrength.from_k(k, dim)
        weak = weak_sequential_closed(rho, obs_a, obs_b, k)
        marg = marginals(rho, obs_a, obs_b)
        lhs = marg.p_fin - weak.marginal_b()
        rhs = strength.omega0**2 * (marg.p_fin - marg.p_post)
        gap = np.abs(lhs - rhs).max()
        worst = max(worst, gap)
        assert gap <= 1e-12
    return f"max dev {worst:.2e}"
