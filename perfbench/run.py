"""weakquasi benchmark: one workload, one seed, one measured run.

Usage (from the repository root):
    python3 perfbench/run.py --workload shipped_cli --seed 1 --seconds 30 --trace 0

Drives ``weakquasi.cli.main`` in-process from one closed-loop client, checks
every operation against an oracle, and prints one JSON result as the last line
of standard output.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics of a traced run.  Work files, the full result
with its environment record, and the span dump go to ``.perfbench/`` at the
repository root.
"""

import os
import sys

# Pin BLAS/OpenMP to one thread before numpy loads, here and in every probe
# process this run starts.  The package itself sets no thread policy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import count_rows  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 15     # fresh interpreters per run; setup_s is their median
WARMUP_OPS = 2        # in-process operations before timing starts
MIN_TIMED_OPS = 6
PROBE_TIMEOUT_S = 60


def _git_commit(root: Path):
    """HEAD commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "weakquasi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_config": np.show_config(mode="dicts"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(ROOT),
        "source_digest": digest.hexdigest(),
    }


def import_package():
    """Import weakquasi from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import weakquasi
    import weakquasi.cli

    origin = Path(weakquasi.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"weakquasi imported from {origin}, not from {SRC}")
    return weakquasi, weakquasi.cli


class Runner:
    """Closed-loop client: one operation at a time, each checked after it ends."""

    def __init__(self, workload, main, out_dir: Path):
        self.workload = workload
        self.main = main
        self.out_dir = out_dir
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rows_written: list[int] = []
        self.compare_rows: list[int] = []

    def record(self, i: int, codes, out_dir: Path) -> bool:
        """Check operation ``i``'s outputs and count it; True when correct."""
        self.attempted += 1
        try:
            error = "raised" if codes is None else self.workload.check(i, out_dir, codes)
        except (OSError, ValueError, KeyError) as exc:
            error = f"unreadable output: {exc}"
        if error is not None:
            self.failed += 1
            self.errors.append(f"op {i}: {error}")
            print(f"check failed: op {i}: {error}", file=sys.stderr)
        return error is None

    def op(self, tracer: Tracer | None = None) -> tuple[float, bool]:
        """Run the next operation; return its latency and whether it was correct."""
        i = self.next_op
        self.next_op += 1
        # a fresh directory, so the check reads only what this operation wrote
        shutil.rmtree(self.out_dir, ignore_errors=True)
        if tracer is not None:
            tracer.install(i)
        codes = None
        start = time.perf_counter()
        try:
            codes = self.workload.run(self.main, i, self.out_dir)
        except Exception:  # an operation that raises is a failed operation, not a crash
            traceback.print_exc()
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        ok = self.record(i, codes, self.out_dir)
        if ok:
            self.rows_written.append(count_rows(self.out_dir.glob("*.csv")))
            self.compare_rows.append(count_rows(self.out_dir / name for name in self.workload.tables))
        return latency, ok


def setup_probe(workload, runner: Runner, workdir: Path, n: int) -> float | None:
    """One setup_s sample: a fresh interpreter, ``import weakquasi`` through one cold operation."""
    out_dir = workdir / f"probe{n}"
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), str(workload.config(n)), str(out_dir)]
    if workload.ref_dir is not None:
        cmd += [str(workload.ref_dir), *workload.tables]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        runner.attempted += 1
        runner.failed += 1
        runner.errors.append(f"probe {n}: exit code {proc.returncode}")
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["elapsed_s"] if runner.record(n, result["codes"], out_dir) else None


def timed_loop(runner: Runner, seconds: float, tracer: Tracer | None = None, probe=None):
    """Operations until their summed latency reaches ``seconds``.

    With a tracer, every other operation is traced, so traced and untraced
    latencies interleave and drift affects both alike.  With ``probe``, the
    SETUP_PROBES set-up probes run between operations, spread evenly over the
    timed span so that they sample the machine when the operations do.
    Returns the latencies of (untraced, traced) operations, the number of
    correct operations, their summed latency and the probe results.
    """
    latencies: tuple[list[float], list[float]] = ([], [])
    kinds = latencies if tracer is not None else latencies[:1]
    probes: list = []
    correct = 0
    total = 0.0
    while total < seconds or min(map(len, kinds)) < MIN_TIMED_OPS // len(kinds):
        if probe is not None and len(probes) < SETUP_PROBES and total >= len(probes) * seconds / SETUP_PROBES:
            probes.append(probe(len(probes)))
        traced = tracer is not None and runner.next_op % 2 == 1
        latency, ok = runner.op(tracer if traced else None)
        latencies[traced].append(latency)
        correct += ok
        total += latency
    while probe is not None and len(probes) < SETUP_PROBES:
        probes.append(probe(len(probes)))
    return latencies, correct, total, [t for t in probes if t is not None]


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (1..99), interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(workload, runner: Runner, workdir: Path, seconds: float) -> tuple[dict, dict, dict]:
    (latencies, _), correct, total, setup = timed_loop(
        runner, seconds, probe=lambda n: setup_probe(workload, runner, workdir, n)
    )
    if not setup:
        raise RuntimeError("every set-up probe failed")
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": percentile(latencies, 90),
        "points_per_s": correct * workload.points_per_op / total,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": len(setup), "op_p50_s": len(latencies), "op_p90_s": len(latencies)}
    return metrics, samples, {"setup_s": setup, "op_s": latencies}


def layer_metrics(workload, runner: Runner, tracer: Tracer, seconds: float) -> tuple[dict, dict, dict]:
    (untraced, traced), _, _, _ = timed_loop(runner, seconds, tracer)
    per_op = list(tracer.per_op().values())

    def calls(name):
        return statistics.mean(entry["calls"][name] for entry in per_op)

    def self_s(name):
        return statistics.median(entry["self_s"][name] for entry in per_op)

    def target_calls(target):
        return statistics.mean(entry["targets"][target] for entry in per_op)

    # one exact setting table is one pointer readout (circuit) or one closed-form table
    evals = target_calls("weakquasi.sampling.joint_outcome_table") + target_calls(
        "weakquasi.sampling.weak_sequential_closed"
    )
    metrics = {
        "core.density_validate_s": self_s("core.density_validate"),
        "core.density_validate_calls": calls("core.density_validate"),
        "core.controlled_shift_s": self_s("core.controlled_shift"),
        "core.controlled_shift_calls": calls("core.controlled_shift"),
        "schemes.circuit_s": self_s("schemes.circuit"),
        "schemes.circuit_calls": calls("schemes.circuit"),
        "schemes.closed_s": self_s("schemes.closed"),
        "schemes.closed_calls": calls("schemes.closed"),
        "schemes.probability_table_s": self_s("schemes.probability_table"),
        "schemes.evals_per_point": evals / workload.points_per_op,
        "sampling.gate_noise_s": self_s("sampling.gate_noise"),
        "sampling.gate_noise_calls": calls("sampling.gate_noise"),
        "sampling.sample_counts_s": self_s("sampling.sample_counts"),
        "sampling.sample_counts_calls": calls("sampling.sample_counts"),
        # computed, not traced: sample_counts calls times the draws each implies
        "sampling.poisson_draws": calls("sampling.sample_counts") * workload.draws_per_sample_call,
        "sampling.sweep_self_s": self_s("sampling.sweep"),
        "quasiprob.data_paths_s": self_s("quasiprob.data_paths"),
        "quasiprob.data_paths_calls": calls("quasiprob.data_paths"),
        "quasiprob.theory_s": self_s("quasiprob.theory"),
        "cli.parse_s": self_s("cli.parse"),
        "cli.export_s": self_s("cli.run"),
        "cli.rows_written": statistics.mean(runner.rows_written),
        "cli.compare_s": self_s("cli.compare"),
        "cli.compare_rows": statistics.mean(runner.compare_rows),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
    }
    samples = {"traced_ops": len(traced), "untraced_ops": len(untraced)}
    return metrics, samples, {"traced_op_s": traced, "untraced_op_s": untraced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # BENCHMARK.json names the metrics to report and their units
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wq, cli = import_package()
        workload = WORKLOADS[args.workload](ROOT, workdir, args.seed)
        workload.prepare(cli.main, wq)
    except (ImportError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    if tracer is not None and tracer.missing:
        # a per-layer metric without its function would read 0, which looks like a gain
        print(f"error: wrapped names missing from the package: {', '.join(tracer.missing)}", file=sys.stderr)
        return 2

    runner = Runner(workload, cli.main, workdir / "out")
    for _ in range(WARMUP_OPS):
        runner.op()
    if tracer is not None:
        metrics, samples, raw = layer_metrics(workload, runner, tracer, args.seconds)
        tracer.write(workdir / "trace.json")
    else:
        metrics, samples, raw = end_to_end_metrics(workload, runner, workdir, args.seconds)
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    env = environment()
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": workload.input_digest,
        "failed_frac": runner.failed / runner.attempted,
        "samples": samples,
        "raw_s": raw,
        "errors": runner.errors[:20],
        "environment": env,
    }
    (workdir / "result.json").write_text(json.dumps({**result, "details": details}, indent=1), encoding="utf-8")

    blas = env["numpy_config"].get("Build Dependencies", {}).get("blas", {})
    print(f"workload {args.workload}, seed {args.seed}, inputs sha256 {workload.input_digest[:16]}")
    print(
        f"python {env['python']}, numpy {env['numpy']}, blas {blas.get('name')} {blas.get('version')}, "
        f"threads {env['threads']}, nproc {env['nproc']}, commit {env['git_commit']}"
    )
    for name, unit in units.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<30} {metrics[name]:.6g} {unit}{count}")
    if args.trace:
        print(f"  traced operations: {samples['traced_ops']}, untraced: {samples['untraced_ops']}")
    print(f"  {'failed_frac':<30} {details['failed_frac']:.6g} ({runner.failed}/{runner.attempted} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
