"""Shared fixtures: the qubit demo scenario and random-instance helpers."""

import numpy as np
import pytest

from oracles import random_density_operator, random_eigenbasis
from weakquasi.core import DensityOperator, ObservableSpec, make_pure_state, pauli_x, pauli_z

# Demo scenario used throughout: preparation angle theta0 = 10.6 degrees,
# state cos(2 theta0)|H> + sin(2 theta0)|V>, observables A=Z, B=X.
THETA0_DEG = 10.6


def scenario_amplitudes():
    angle = np.radians(2.0 * THETA0_DEG)
    return float(np.cos(angle)), float(np.sin(angle))


def random_observable(dim, rng):
    """Observable with a Haar-random eigenbasis and eigenvalue labels 0..d-1."""
    return ObservableSpec(random_eigenbasis(dim, rng), np.arange(dim, dtype=float))


def random_instance(rng, dim, pure=False):
    """A random (state, observable, observable) triple for property tests."""
    rho = DensityOperator(random_density_operator(dim, rng, pure=pure))
    return rho, random_observable(dim, rng), random_observable(dim, rng)


@pytest.fixture
def cs():
    return scenario_amplitudes()


@pytest.fixture
def scenario_state(cs):
    return make_pure_state([cs[0], cs[1]])


@pytest.fixture
def obs_z():
    return pauli_z()


@pytest.fixture
def obs_x():
    return pauli_x()
