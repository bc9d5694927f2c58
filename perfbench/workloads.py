"""The three workloads: their inputs from a seed, their operation and their oracle.

Inputs are generated with numpy alone and written as scenario JSON documents
before timing; the program sees only those documents.  Oracle tables are
computed lazily, outside the timed region and outside any traced operation.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import checks
from ops import operation

SHIPPED_CONFIG = Path("configs") / "qubit_theta10p6.json"
POOL_SIZE = 1024  # generated instances per qudit workload; operations cycle through them
QUDIT_DIM = 8
QUDIT_GRID = {"start": 0.0, "stop": 1.0, "num": 21}
NOISE = 0.9
SHOTS = 1_000_000
RESAMPLES = 1000


def _grid(spec: dict) -> np.ndarray:
    """Ascending strength grid of a {"start", "stop", "num"} range, as the CLI builds it."""
    if set(spec) - {"start", "stop", "num"}:
        raise ValueError(f"unsupported K range {spec}")
    return np.sort(np.linspace(spec.get("start", 0.0), spec.get("stop", 1.0), int(spec.get("num", 11))))


def _pairs(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _matrix(pairs: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def _mixed_state(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


class Workload:
    """Pre-generated scenario documents plus the operation and oracle over them."""

    name = ""
    points_per_op = 0
    draws_per_sample_call = 0  # Poisson draws behind one sample_counts call

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.root = root
        self.workdir = workdir
        self.ref_dir: Path | None = None
        self.tables: tuple[str, ...] = ()
        self._expected: dict[int, tuple] = {}
        config_dir = workdir / "configs"
        config_dir.mkdir(parents=True)
        digest = hashlib.sha256(self.name.encode())
        self.configs = []
        for i, text in enumerate(self.documents(seed)):
            path = config_dir / f"{i:03d}.json"
            path.write_text(text, encoding="utf-8")
            digest.update(text.encode())
            self.configs.append(path)
        self.input_digest = digest.hexdigest()

    def documents(self, seed: int):
        """Scenario JSON texts, one per instance; yielded, so they are never all in memory."""
        raise NotImplementedError

    def prepare(self, main, wq):
        """Set-up inside the workload process, after ``import weakquasi``."""
        self.wq = wq

    def config(self, i: int) -> Path:
        return self.configs[i % len(self.configs)]

    def run(self, main, i: int, out_dir: Path) -> list[int]:
        return operation(main, self.config(i), out_dir, self.ref_dir, self.tables)

    def expected(self, i: int) -> tuple[np.ndarray, tuple[str, ...], tuple[str, ...]]:
        raise NotImplementedError

    def check(self, i: int, out_dir: Path, codes: list[int]) -> str | None:
        """None when operation ``i`` wrote correct outputs, else why not."""
        if codes != [0] * (1 + len(self.tables)):
            return f"exit codes {codes}"
        table, labels_a, labels_b = self.expected(i)
        return checks.check_p_weak(
            checks.read_rows(out_dir / "p_weak.csv"), self.k_grid, labels_a, labels_b, table, self.shots
        )


class ShippedCli(Workload):
    """The shipped qubit config, exact, circuit engine; each run is compared to a reference."""

    name = "shipped_cli"
    shots = None

    def documents(self, seed: int) -> list[str]:
        # the shipped config is the input; the seed has nothing to vary
        return [(self.root / SHIPPED_CONFIG).read_text(encoding="utf-8")]

    def prepare(self, main, wq):
        super().prepare(main, wq)
        doc = json.loads(self.configs[0].read_text(encoding="utf-8"))
        if doc.get("shots", "exact") != "exact" or doc.get("noise", 1.0) != 1.0:
            raise ValueError(f"{SHIPPED_CONFIG} is no longer an exact noiseless config")
        self.theta0 = float(doc["theta0"])
        self.k_grid = _grid(doc["K"])
        self.points_per_op = len(self.k_grid)
        self.threshold = checks.qubit_threshold(self.theta0)
        ref_dir = self.workdir / "reference"
        codes = operation(main, self.configs[0], ref_dir, None, ())
        if codes != [0]:
            raise RuntimeError(f"reference export failed with exit codes {codes}")
        self.tables = tuple(sorted(p.name for p in ref_dir.glob("*.csv")))
        self.ref_dir = ref_dir

    def expected(self, i: int):
        if not self._expected:
            wq = self.wq
            angle = math.radians(2.0 * self.theta0)
            rho = wq.make_pure_state([math.cos(angle), math.sin(angle)])
            a, b = wq.pauli_z(), wq.pauli_x()
            self._expected[0] = (
                np.array([wq.weak_sequential_closed(rho, a, b, k).values for k in self.k_grid]),
                a.labels,
                b.labels,
            )
        return self._expected[0]

    def check(self, i: int, out_dir: Path, codes: list[int]) -> str | None:
        error = super().check(i, out_dir, codes)
        if error is None:
            summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
            error = checks.check_threshold(summary, self.threshold)
        return error


class Qudit(Workload):
    """Generated d=8 instances: random mixed state, Haar eigenbases for A and B."""

    k_grid = _grid(QUDIT_GRID)
    points_per_op = len(k_grid)

    def documents(self, seed: int):
        for i in range(POOL_SIZE):
            rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
            doc = {
                "dimension": QUDIT_DIM,
                "state": {"density": _pairs(_mixed_state(rng, QUDIT_DIM))},
                "observable_a": {"eigenvectors": _pairs(_haar_unitary(rng, QUDIT_DIM))},
                "observable_b": {"eigenvectors": _pairs(_haar_unitary(rng, QUDIT_DIM))},
                "K": QUDIT_GRID,
            }
            doc.update(self.run_options(rng))
            yield json.dumps(doc)

    def run_options(self, rng: np.random.Generator) -> dict:
        raise NotImplementedError

    def oracle_state(self, rho: np.ndarray, wa: np.ndarray) -> np.ndarray:
        return rho

    def expected(self, i: int):
        key = i % len(self.configs)
        if key not in self._expected:
            wq = self.wq
            doc = json.loads(self.configs[key].read_text(encoding="utf-8"))
            wa = _matrix(doc["observable_a"]["eigenvectors"])
            wb = _matrix(doc["observable_b"]["eigenvectors"])
            rho = wq.DensityOperator(self.oracle_state(_matrix(doc["state"]["density"]), wa))
            obs_a = wq.ObservableSpec(wa, np.arange(QUDIT_DIM))
            obs_b = wq.ObservableSpec(wb, np.arange(QUDIT_DIM))
            table = np.array([wq.weak_sequential_closed(rho, obs_a, obs_b, k).values for k in self.k_grid])
            self._expected[key] = (table, obs_a.labels, obs_b.labels)
        return self._expected[key]


class QuditCircuit(Qudit):
    """Exact, circuit engine, gate visibility 0.9: the dense d^2 x d^2 path."""

    name = "qudit_circuit"
    shots = None

    def run_options(self, rng: np.random.Generator) -> dict:
        return {"engine": "circuit", "noise": NOISE, "shots": "exact"}

    def oracle_state(self, rho: np.ndarray, wa: np.ndarray) -> np.ndarray:
        # Dephasing in A's basis commutes with the controlled shift, so the
        # noisy circuit equals the closed form on nu rho + (1 - nu) sum_a Pi_a rho Pi_a.
        diag = np.einsum("ia,ij,ja->a", wa.conj(), rho, wa)
        dephased = (wa * diag) @ wa.conj().T
        return NOISE * rho + (1.0 - NOISE) * dephased


class QuditSampled(Qudit):
    """Closed engine at 1e6 shots and 1000 resamples, with a seed per instance."""

    name = "qudit_sampled"
    shots = SHOTS
    draws_per_sample_call = QUDIT_DIM * QUDIT_DIM * (1 + RESAMPLES)

    def run_options(self, rng: np.random.Generator) -> dict:
        return {"engine": "closed", "shots": SHOTS, "resamples": RESAMPLES, "seed": int(rng.integers(2**31))}


WORKLOADS = {cls.name: cls for cls in (ShippedCli, QuditCircuit, QuditSampled)}
