"""Independent oracles of the test suite, written against numpy alone.

Each function recomputes from its definition something the package computes
another way.  A state is a d x d density matrix, and an observable is the
unitary whose column a is the eigenvector of outcome a.  Nothing here
validates its input.  Only ``weak_sequential_oracle`` calls into the package:
it composes the package's dense d^2 x d^2 circuit functions, which the sweep
never runs, into the table the closed form must match.
"""

import math

import numpy as np

from weakquasi.schemes import joint_outcome_table, probability_table, weak_joint_state


def random_density_operator(dim, rng, pure=False):
    """Ginibre-sampled mixed state, or a Haar-random pure state when pure=True."""
    if pure:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v = v / np.linalg.norm(v)
        return np.outer(v, v.conj())
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_eigenbasis(dim, rng):
    """Haar-random unitary: the QR factor of a Ginibre matrix, with R's diagonal phases divided out."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def projector(eigenvectors, a):
    v = eigenvectors[:, a]
    return np.outer(v, v.conj())


def projectors(eigenvectors):
    """Stack of the d rank-1 projectors, shape (d, d, d)."""
    return np.einsum("ia,ja->aij", eigenvectors, eigenvectors.conj())


def born(rho, eigenvectors):
    """Tr[Pi_a rho] for every outcome a."""
    return np.array([np.trace(projector(eigenvectors, a) @ rho).real for a in range(len(rho))])


def tpm(rho, wa, wb):
    """Two-point table p(a,b) = Tr[Pi_b Pi_a rho Pi_a]."""
    d = len(rho)
    pa = [projector(wa, a) for a in range(d)]
    return np.array([[np.trace(projector(wb, b) @ p @ rho @ p).real for b in range(d)] for p in pa])


def marginals(rho, wa, wb):
    """(p_in, p_fin, p_post): the Born marginals of A and B, and B's after an unrecorded test of A."""
    return born(rho, wa), born(rho, wb), tpm(rho, wa, wb).sum(axis=0)


def evolve_projector(p, hamiltonian, dt):
    """Heisenberg-picture evolution exp(iH dt) P exp(-iH dt), with hbar = 1."""
    evals, evecs = np.linalg.eigh(hamiltonian)
    u = (evecs * np.exp(1j * evals * dt)) @ evecs.conj().T
    return u @ p @ u.conj().T


def weak_kraus(eigenvectors, k):
    """Kraus operators m_a = omega0 Pi_a + omega1 I/sqrt(d) of the strength-k POVM, shape (d, d, d).

    omega1 = sqrt(1 - k), and omega0 is the nonnegative root of
    omega0^2 + omega1^2 + 2 omega0 omega1 / sqrt(d) = 1.
    """
    d = len(eigenvectors)
    omega1 = math.sqrt(1.0 - k)
    omega0 = math.sqrt(1.0 - omega1**2 * (d - 1) / d) - omega1 / math.sqrt(d)
    return np.array([omega0 * projector(eigenvectors, a) + omega1 * np.eye(d) / math.sqrt(d) for a in range(d)])


def povm_elements(kraus):
    """M_a = m_a^dagger m_a."""
    return kraus.conj().transpose(0, 2, 1) @ kraus


def post_measurement_state(rho, kraus, a):
    """Conditional state m_a rho m_a^dagger / Tr[M_a rho] after observing outcome a."""
    m = kraus[a]
    return m @ rho @ m.conj().T / np.trace(m.conj().T @ m @ rho).real


def nonselective_state(rho, eigenvectors, a):
    """rho_NS(a) = Pi_a rho Pi_a + (I - Pi_a) rho (I - Pi_a), an unrecorded test of a against the rest."""
    pi = projector(eigenvectors, a)
    comp = np.eye(len(rho)) - pi
    return pi @ rho @ pi + comp @ rho @ comp


def weak_tpm_joint(rho, wa, wb):
    """Rows w(a, .): the Born distribution of B on the non-selective state of each a."""
    return np.array([born(nonselective_state(rho, wa, a), wb) for a in range(len(rho))])


def mhq_from_weak_tpm(rho, wa, wb):
    """Margenau-Hill table q_MH(a,b) = p(a,b) + (p_fin(b) - w(a,b))/2 from non-selective statistics."""
    return tpm(rho, wa, wb) + (born(rho, wb)[None, :] - weak_tpm_joint(rho, wa, wb)) / 2.0


def estimate_with_errors(counts, resamples, seed):
    """counts/total, and the Monte Carlo standard error of each cell.

    The errors are the cell-wise standard deviation of the normalized
    estimator over ``resamples`` Poisson re-draws centred on the counts.
    """
    counts = np.asarray(counts)
    draws = np.random.default_rng(seed).poisson(counts, size=(resamples, *counts.shape))
    totals = draws.sum(axis=(1, 2), keepdims=True)
    return counts / counts.sum(), (draws / np.where(totals > 0, totals, 1.0)).std(axis=0, ddof=1)


def weak_sequential_oracle(rho, obs_a, obs_b, k):
    """Weak-sequential joint probabilities from the explicit system-pointer circuit.

    Builds rho (x) |mu><mu|, applies the controlled shift, then reads the
    pointer in its computational basis and the system on B.  Independent of
    the closed form ``weak_sequential_closed``; the two agree to machine
    precision.
    """
    return probability_table(joint_outcome_table(weak_joint_state(rho, obs_a, k), obs_b))
