"""Repeat benchmark runs over seeds and summarise each end-to-end metric.

Usage (from the repository root):
    python3 perfbench/sweep.py --seeds 1-10 [--second-seeds 11-20] [--trace 1] [--out FILE]

Runs ``perfbench/run.py`` once per (workload, seed), sequentially, for every
workload of BENCHMARK.json at its ``run_seconds``.  Prints, per workload and
metric, the median, the quartiles and the quartile spread as a share of the
median next to the metric's bound, plus the failed operations.

With --second-seeds, a second set of runs alternates with the first, run by
run, so that slow drift of the machine reaches both sets alike.  Each metric
then also gets the change of the second set's median against the first's, as
a share of the first's, flagged when it is worse by more than the bound.

With --out, writes the summaries, every run's result and the environment of
the first run as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else float("nan")}


def portable_environment(env: dict) -> dict:
    """The environment record without the build's file-system paths."""
    deps = env["numpy_config"].get("Build Dependencies", {})
    keep = ("name", "version", "openblas configuration")
    out = {key: value for key, value in env.items() if key != "numpy_config"}
    out["blas"] = {key: deps.get("blas", {}).get(key) for key in keep}
    out["lapack"] = {key: deps.get("lapack", {}).get(key) for key in keep}
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    """One run.py result with its seed and input digest; None when the run failed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"{workload} seed {seed}: exit code {proc.returncode}")
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}" / "result.json"
    details = json.loads(record.read_text(encoding="utf-8"))["details"]
    result["seed"] = seed
    result["input_digest"] = details["input_digest"]
    result["environment"] = portable_environment(details["environment"])
    return result


def summarise_set(label: str, runs: list[dict], metrics: list[dict]) -> dict:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"{label}: failed_frac {failed / attempted:.3g} ({failed}/{attempted} operations)")
    summary = {}
    for m in metrics:
        unit = runs[0]["metrics"][m["name"]]["unit"]
        s = summary[m["name"]] = {**summarise([r["metrics"][m["name"]]["value"] for r in runs]), "unit": unit}
        bound = f" bound {m['bound']:.3g}" if "bound" in m else ""
        print(f"  {m['name']:<30} median {s['median']:.6g} {unit}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
              f"  spread {s['spread']:.4f}{bound}")
    return {"failed": failed, "attempted": attempted, "metrics": summary, "runs": runs}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="seed list, e.g. 1-10 or 3,5,7")
    parser.add_argument("--second-seeds", default=None, help="seeds of a second set, alternated with the first")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    sets = [seed_list(args.seeds)] + ([seed_list(args.second_seeds)] if args.second_seeds else [])
    if len({len(seeds) for seeds in sets}) != 1:
        parser.error("both sets need the same number of seeds")

    report = {"seconds": bench["run_seconds"], "trace": args.trace, "seeds": sets, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs: list[list[dict]] = [[] for _ in sets]
        for column in zip(*sets):
            for k, seed in enumerate(column):
                result = run_once(workload, seed, bench["run_seconds"], args.trace)
                if result is None:
                    return 1
                report.setdefault("environment", result.pop("environment"))
                runs[k].append(result)
                print(f"{workload} set {k + 1} seed {seed} inputs {result['input_digest'][:12]}: " + ", ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.5g}" for m in metrics), flush=True)
        print()
        entry = [summarise_set(f"{workload} set {k + 1}", set_runs, metrics) for k, set_runs in enumerate(runs)]
        report["workloads"][workload] = entry[0]
        if len(entry) == 2:
            report.setdefault("second_set", {})[workload] = entry[1]
            print(f"{workload}: second set against first, (median 2 - median 1) / median 1")
            change = {}
            for m in metrics:
                first, second = (e["metrics"][m["name"]]["median"] for e in entry)
                if not first:
                    change[m["name"]] = None
                    print(f"  {m['name']:<30} n/a (first median is 0)")
                    continue
                change[m["name"]] = (second - first) / first
                worse = change[m["name"]] if m["better"] == "lower" else -change[m["name"]]
                flag = "  WORSE THAN BOUND" if "bound" in m and worse > m["bound"] else ""
                print(f"  {m['name']:<30} {change[m['name']]:+.4f}{flag}")
            report.setdefault("second_set_change", {})[workload] = change
        print()
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
