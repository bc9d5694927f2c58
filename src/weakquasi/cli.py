"""Command-line front end: scenario configs, strength sweeps, figure-data export.

A scenario is described by a single JSON document (see the README for the full
grammar); ``run`` evaluates it over the strength grid and writes one CSV table
per requested quantity plus a JSON summary, ``compare`` diffs two exported
tables within a tolerance.  Output is deterministic: fixed seed and fixed
formatting give byte-identical tables.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (
    DensityOperator,
    ObservableSpec,
    _check_labels,
    evolve_observable,
    make_pure_state,
    pauli_x,
    pauli_z,
)
from .quasiprob import _negativity, cq, mhq, threshold_strength
from .quasiprob import negativity  # noqa: F401  (perfbench/tracing.py looks it up here)
from .sampling import (
    MAX_SHOTS,
    NoiseModel,
    ZeroCountsError,
    _strength,
    run_sweep,
    strength_from_waveplate,
)
from .schemes import _totals

MAX_GRID_POINTS = 10_000  # most strength points a "K" or "phi" grid may hold, as a range or a list
# most cells (grid points x d^2) one exported table may hold: 256 points at d=64, 4,096 at d=16;
# at d <= 8 MAX_GRID_POINTS binds first.  At the bound a d=64 run, one BLAS thread on a 2-core
# x86-64 box, took 7.2 s exact and 13 s at 1e6 shots, wrote 333-413 MiB of CSV and peaked at
# 109-235 MiB RSS; 10,000 points at d=64 would be 41M cells per table and about 13 GB of CSV
MAX_GRID_CELLS = 2**20
# at d=64, 21 points, exact: parsing the document takes 43-50 ms, the sweep 9 ms, and a run
# exporting all seven tables 0.67-0.77 s (median of 7 warm runs, one BLAS thread, 2-core x86-64 box)
MAX_DIMENSION = 64  # largest system dimension
MAX_RESAMPLES = 10**5  # bound of the retired "resamples" key, which older documents still carry

QUANTITIES = ("p_weak", "cq", "mhq", "weak_cq", "weak_mhq", "C", "mhq_reconstructed", "thresholds")

CSV_HEADER = ("K", "a", "b", "quantity", "value", "stderr")
_NUMBER = ".12g"  # the format of every exported number: K keys, values, stderrs and thresholds

_CONFIG_FIELDS = {
    "dimension",
    "theta0",
    "state",
    "observable_a",
    "observable_b",
    "hamiltonian",
    "dt",
    "K",
    "phi",
    "shots",
    "noise",
    "resamples",
    "seed",
    "outputs",
    "engine",
}

__all__ = ["ConfigError", "ScenarioConfig", "compare", "main", "parse_config", "run"]


class ConfigError(ValueError):
    """A scenario document failed validation; the message names the field."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: state, observables, strength grid, and run options."""

    rho: DensityOperator
    obs_a: ObservableSpec
    obs_b: ObservableSpec
    k_values: tuple[float, ...]
    shots: int | None
    noise: NoiseModel
    seed: int
    outputs: tuple[str, ...]


def _fail(field: str, message: str):
    raise ConfigError(f"config field '{field}': {message}")


def _check_keys(spec: dict, allowed, field: str | None, what: str = "keys"):
    """Reject keys of ``spec`` outside ``allowed``; field None is the document itself."""
    unknown = set(spec) - set(allowed)
    if not unknown:
        return
    if field is None:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    _fail(field, f"unknown {what} {sorted(unknown)}")


def _sized(spec, field: str, dim: int):
    """``spec`` itself; a list of the wrong length fails before any matrix is built from it."""
    if isinstance(spec, list) and len(spec) != dim:
        _fail(field, f"has dimension {len(spec)}, config says {dim}")
    return spec


def _is_real(value) -> bool:
    """A JSON number; bool is an int subclass, so JSON true/false would otherwise read as 1 and 0."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, field: str) -> float:
    try:
        if _is_real(value) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    _fail(field, f"expected a finite number, got {value!r}")


def _integer(value, field: str, minimum: int, maximum: float = math.inf) -> int:
    if not _is_real(value) or (isinstance(value, float) and not value.is_integer()):
        _fail(field, f"expected an integer, got {value!r}")
    if value < minimum:
        _fail(field, f"must be at least {minimum}, got {int(value)}")
    if value > maximum:
        _fail(field, f"must be at most {maximum}, got {int(value)}")
    return int(value)


def _complex_entry(entry, field: str) -> complex:
    if _is_real(entry):
        return complex(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2 and all(map(_is_real, entry)):
        return complex(entry[0], entry[1])
    _fail(field, f"expected a number or an [re, im] pair, got {entry!r}")


def _complex_matrix(rows, field: str) -> np.ndarray:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        _fail(field, f"expected a matrix as a list of rows, got {rows!r}")
    if len({len(row) for row in rows}) > 1:
        _fail(field, "matrix rows differ in length")
    try:
        matrix = np.array([[_complex_entry(e, field) for e in row] for row in rows], dtype=complex)
    except OverflowError:  # an integer beyond the float range
        _fail(field, "entries must be finite")
    if not np.isfinite(matrix).all():
        _fail(field, "entries must be finite")
    return matrix


def _parse_state(doc: dict, dim: int) -> DensityOperator:
    if "theta0" in doc and "state" in doc:
        _fail("state", "give either 'theta0' or 'state', not both")
    if "theta0" in doc:
        if dim != 2:
            _fail("theta0", "the preparation-angle shorthand needs dimension 2")
        theta0 = _number(doc["theta0"], "theta0")
        try:  # the polarisation state cos(2 theta0)|H> + sin(2 theta0)|V>
            angle = math.radians(2.0 * theta0)
            return make_pure_state([math.cos(angle), math.sin(angle)])
        except ValueError:  # math.cos of an angle that overflowed to inf
            _fail("theta0", f"angle {theta0} is out of range")
    if "state" not in doc:
        _fail("state", "a scenario needs 'theta0' or 'state'")
    spec = doc["state"]
    # a bare list of lists reads as a density matrix and as a list of [re, im]
    # amplitude pairs alike, so it must say which it is
    if isinstance(spec, list) and spec and all(isinstance(e, list) for e in spec):
        _fail(
            "state",
            'a bare list of lists is ambiguous: write {"amplitudes": [...]} for [re, im] pairs '
            'or {"density": [...]} for a density matrix',
        )
    density = False
    if isinstance(spec, dict):
        _check_keys(spec, ("amplitudes", "density"), "state")
        if len(spec) != 1:
            _fail("state", 'give exactly one of "amplitudes" or "density"')
        density = "density" in spec
        spec = spec["density" if density else "amplitudes"]
    if not density and not isinstance(spec, list):
        _fail("state", f"expected a list of amplitudes (numbers or [re, im] pairs), got {spec!r}")
    # checked before any matrix is built: n amplitudes would build an n x n density
    _sized(spec, "state", dim)
    try:
        if density:
            return DensityOperator(_complex_matrix(spec, "state.density"))
        return make_pure_state([_complex_entry(e, "state") for e in spec])
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        _fail("state", str(exc))


def _parse_observable(spec, field: str, dim: int) -> ObservableSpec:
    if isinstance(spec, str):
        presets = {"Z": pauli_z, "X": pauli_x}
        if spec not in presets:
            _fail(field, f"unknown preset {spec!r}; available: {sorted(presets)}")
        if dim != 2:
            _fail(field, f"preset {spec!r} needs dimension 2")
        return presets[spec]()
    if not isinstance(spec, dict) or "eigenvectors" not in spec:
        _fail(field, "expected a preset name or an object with 'eigenvectors'")
    _check_keys(spec, ("eigenvectors", "labels"), field)
    vecs = _complex_matrix(_sized(spec["eigenvectors"], field, dim), f"{field}.eigenvectors")
    labels = spec.get("labels", [])
    if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
        _fail(f"{field}.labels", f"expected a list of strings, got {labels!r}")
    try:
        _check_labels(labels)
    except ValueError as exc:
        _fail(f"{field}.labels", str(exc))
    try:
        return ObservableSpec(vecs, range(dim), labels=tuple(labels))
    except ValueError as exc:
        _fail(field, str(exc))


def _strength_keys(k_values, field: str, dim: int) -> tuple[tuple[float, ...], list[str]]:
    """The grid's strengths and each one's formatted K key; rows are keyed by K, so keys must be distinct.

    Each strength must lie in [0, 1] and clear the cross-weight floor of
    ``_strength``; -0.0 reads as 0.0.  An empty grid is rejected here too: it
    would export header-only tables.  So is a grid whose tables at dimension
    ``dim`` would pass MAX_GRID_CELLS.
    """
    if len(k_values) == 0:
        _fail(field, "the strength grid is empty")
    cells = len(k_values) * dim * dim
    if cells > MAX_GRID_CELLS:
        _fail(field, f"{len(k_values)} strengths at dimension {dim} give {cells} cells per table, "
                     f"more than the {MAX_GRID_CELLS} allowed")
    for k in k_values:
        if not 0.0 <= k <= 1.0:
            _fail(field, f"strength {k} outside [0, 1]")
        try:
            _strength(k, dim)
        except ValueError as exc:
            _fail(field, str(exc))
    # every k lies in [0, 1] here, so abs only turns -0.0 (keyed "-0") into 0.0
    values = tuple(abs(float(k)) for k in k_values)
    keys = [_fmt(k) for k in values]
    counts = Counter(keys)
    if len(counts) < len(keys):
        repeated = next(key for key in keys if counts[key] > 1)
        _fail(field, f"the grid gives strength K={repeated} twice; CSV rows are keyed by K")
    return values, keys


def _outputs(outputs) -> tuple[str, ...]:
    """The requested quantities; each names one exported table or the thresholds, once."""
    if not isinstance(outputs, (list, tuple)) or not all(isinstance(q, str) for q in outputs):
        _fail("outputs", f"expected a list of quantity names, got {outputs!r}")
    outputs = tuple(outputs)
    bad = set(outputs) - set(QUANTITIES)
    if bad:
        _fail("outputs", f"unknown quantities {sorted(bad)}; available: {list(QUANTITIES)}")
    if len(set(outputs)) < len(outputs):
        repeated = next(q for q in outputs if outputs.count(q) > 1)
        _fail("outputs", f"quantity {repeated!r} is listed twice")
    return outputs


def _parse_k_grid(doc: dict, dim: int) -> tuple[float, ...]:
    if "K" in doc and "phi" in doc:
        _fail("K", "'K' and 'phi' are mutually exclusive ways to set the strength grid")
    field = "phi" if "phi" in doc else "K"
    spec = doc.get(field, {"start": 0.0, "stop": 1.0, "num": 11})
    if field == "K" and isinstance(spec, dict):
        _check_keys(spec, ("start", "stop", "num"), "K", "range keys")
        num = _integer(spec.get("num", 11), "K.num", 1, MAX_GRID_POINTS)
        values = np.linspace(
            _number(spec.get("start", 0.0), "K.start"), _number(spec.get("stop", 1.0), "K.stop"), num
        )
    elif isinstance(spec, list):
        if len(spec) > MAX_GRID_POINTS:
            _fail(field, f"must hold at most {MAX_GRID_POINTS} strengths, got {len(spec)}")
        values = [_number(v, field) for v in spec]
    elif field == "K":
        _fail("K", f"expected a list of strengths or a {{start, stop, num}} range, got {spec!r}")
    else:
        _fail("phi", f"expected a list of waveplate angles in degrees, got {spec!r}")
    if field == "phi":
        try:
            values = [strength_from_waveplate(phi) for phi in values]
        except ValueError as exc:
            _fail("phi", str(exc))
    return _strength_keys(values, field, dim)[0]


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario document.

    Unknown fields, non-physical states, and out-of-range strengths are
    rejected with a diagnostic naming the offending field.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ConfigError("the document nests arrays or objects too deeply") from None
    except ValueError as exc:  # an integer literal past the interpreter's digit limit; drop its advice
        raise ConfigError(f"invalid JSON: {str(exc).split(';')[0]}") from None
    if not isinstance(doc, dict):
        raise ConfigError("the scenario document must be a JSON object")
    _check_keys(doc, _CONFIG_FIELDS, None)

    dim = _integer(doc.get("dimension", 2), "dimension", 2, MAX_DIMENSION)
    rho = _parse_state(doc, dim)
    obs_a = _parse_observable(doc.get("observable_a", "Z"), "observable_a", dim)
    obs_b = _parse_observable(doc.get("observable_b", "X"), "observable_b", dim)

    if "hamiltonian" in doc:
        h = _complex_matrix(_sized(doc["hamiltonian"], "hamiltonian", dim), "hamiltonian")
        dt = _number(doc.get("dt", 1.0), "dt")
        try:
            obs_b = evolve_observable(obs_b, h, dt)
        except ValueError as exc:
            _fail("hamiltonian", str(exc))
    elif "dt" in doc:
        _fail("dt", "'dt' needs a 'hamiltonian'")

    k_values = _parse_k_grid(doc, dim)

    shots_spec = doc.get("shots", "exact")
    shots = None if shots_spec == "exact" else _integer(shots_spec, "shots", 1, MAX_SHOTS)

    visibility = _number(doc.get("noise", 1.0), "noise")
    try:
        noise = NoiseModel(visibility)
    except ValueError as exc:
        _fail("noise", str(exc))

    # the sweep's error bars are closed-form; the key stays valid for older documents
    _integer(doc.get("resamples", 1000), "resamples", 0, MAX_RESAMPLES)

    outputs = _outputs(doc.get("outputs", QUANTITIES))

    # the sweep has one engine, the closed form; the key stays valid for older documents
    engine = doc.get("engine", "circuit")
    if engine not in ("circuit", "closed"):
        _fail("engine", f"must be 'circuit' or 'closed', got {engine!r}")

    return ScenarioConfig(
        rho=rho,
        obs_a=obs_a,
        obs_b=obs_b,
        k_values=k_values,
        shots=shots,
        noise=noise,
        seed=_integer(doc.get("seed", 0), "seed", 0),
        outputs=outputs,
    )


def _fmt(value: float) -> str:
    return f"{value:{_NUMBER}}"


def _texts(array: np.ndarray, indices):
    """The ``.12g`` strings of each indexed point's cells, in ``ravel()`` order.

    ``.12g`` is a function of a float's bits, so a point whose bytes equal the
    last point's yields that point's list again instead of formatting anew.
    """
    last = texts = None
    for i in indices:
        data = array[i].tobytes()
        if data != last:
            last, texts = data, [f"{x:{_NUMBER}}" for x in array[i].ravel().tolist()]
        yield texts


def _threshold(value: float):
    return "never-negative" if math.isinf(value) else float(_fmt(value))


def _quoted(fields) -> str:
    """``fields`` as csv.writer writes them into an exported row, with the comma that follows.

    ``run`` quotes each label pair once, so a label that needs quotes is
    quoted exactly as a row written through csv.writer would be.  A K key is
    the .12g form of a number in [0, 1], which csv.writer never quotes.
    """
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow(fields)
    return line.getvalue()[:-1] + ","


def run(config: ScenarioConfig, out_dir: str | Path) -> dict:
    """Evaluate the scenario and write per-quantity CSV tables plus summary.json.

    Returns the summary document.  Tables carry one row per (K, cell) in
    ascending K order with 12-significant-digit decimal values; the
    reconstructed-MHQ table covers only strengths where the inversion exists.
    Each table's rows are formatted from the sweep's arrays as they are
    written, one point's rows per write, so no row list is kept: a point's
    values, and its errors, are formatted again only when their bytes differ
    from the last written point's (see _texts), and each label pair is quoted
    once; a K key needs no quotes (see _quoted).
    """
    started = time.monotonic()
    # checked before the sweep, so a failed run leaves nothing
    k_values, keys = _strength_keys(sorted(config.k_values), "K", config.rho.dim)
    outputs = _outputs(config.outputs)
    sweep = run_sweep(
        config.rho,
        config.obs_a,
        config.obs_b,
        k_values,
        shots=config.shots,
        noise=config.noise,
        seed=config.seed,
    )
    strong = {"cq": cq(config.rho, config.obs_a, config.obs_b),
              "mhq": mhq(config.rho, config.obs_a, config.obs_b)}
    if "thresholds" in outputs:
        per_cell = threshold_strength(config.rho, config.obs_a, config.obs_b)
    out = Path(out_dir)  # made only once every result is computed, so a failed run leaves nothing
    out.mkdir(parents=True, exist_ok=True)
    labels_a = config.obs_a.labels
    labels_b = config.obs_b.labels
    quoted_labels = [_quoted([la, lb]) for la in labels_a for lb in labels_b]  # a-major, as ravel()

    negativity_totals: dict[str, dict[str, float]] = {}
    residuals: dict[str, dict[str, float]] = {}
    for quantity in outputs:
        if quantity == "thresholds":
            continue
        if quantity in strong:  # the exact theory tables are the same at every strength
            values = np.broadcast_to(strong[quantity], (len(keys), *strong[quantity].shape))
            errors = np.broadcast_to(0.0, values.shape)
            points = np.arange(len(keys))
        else:
            values, errors = sweep.values[quantity], sweep.errors[quantity]
            points = np.flatnonzero(sweep.reached(quantity))  # the points a data path reaches
        prefixes = [f"{labels}{quantity}," for labels in quoted_labels]
        with open(out / f"{quantity}.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(CSV_HEADER) + "\n")
            indices = points.tolist()
            for i, value_texts, error_texts in zip(indices, _texts(values, indices), _texts(errors, indices)):
                fh.write("".join([  # the d^2 rows of one point, as one string
                    f"{keys[i]},{prefix}{value},{error}\n"
                    for prefix, value, error in zip(prefixes, value_texts, error_texts)
                ]))
        if quantity != "C" and points.size:  # the cross-term is not itself a distribution
            point_keys = [keys[i] for i in points]
            negativity_totals[quantity] = dict(zip(point_keys, _negativity(values[points]).tolist()))
            residuals[quantity] = dict(zip(point_keys, np.abs(_totals(values[points]) - 1.0).tolist()))

    summary = {
        "seed": config.seed,
        "shots": config.shots if config.shots is not None else "exact",
        "gate_visibility": config.noise.gate_visibility,
        "k_values": keys,
        "negativity": negativity_totals,
        "normalization_residuals": residuals,
        "runtime_seconds": round(time.monotonic() - started, 3),
    }
    if "thresholds" in outputs:
        cells = [
            {"a": labels_a[a], "b": labels_b[b], "K_threshold": _threshold(per_cell[a, b])}
            for a in range(config.obs_a.dim)
            for b in range(config.obs_b.dim)
        ]
        summary["thresholds"] = {"per_cell": cells, "global": _threshold(float(per_cell.min()))}
    with open(out / "summary.json", "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def _read_table(path: Path) -> dict[tuple, tuple[float, float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != CSV_HEADER:
            raise ValueError(f"schema mismatch in {path}: header {header}, expected {CSV_HEADER}")
        rows = {}
        # the location is formatted only for the row that fails
        for row in reader:
            if len(row) != len(CSV_HEADER):
                raise ValueError(
                    f"{path}, line {reader.line_num}: expected {len(CSV_HEADER)} fields, got {len(row)}"
                )
            key = tuple(row[:4])
            if key in rows:
                raise ValueError(f"{path}, line {reader.line_num}: duplicate row key {key}")
            try:
                rows[key] = (float(row[4]), float(row[5]))
            except ValueError:
                raise ValueError(f"{path}, line {reader.line_num}: value or stderr is not a number") from None
    return rows


def _location(key: tuple) -> str:
    """A row key as compare reports it; formatted only for rows that fail."""
    return f"K={key[0]} ({key[1]},{key[2]}) {key[3]}"


def compare(path_a: str | Path, path_b: str | Path, tolerance: float) -> tuple[list[str], bool]:
    """Row-wise absolute differences between two exported tables.

    Returns (report lines, ok); ok is False when any value differs by more
    than the tolerance, either value is NaN or infinite, or either stderr is
    NaN, infinite or negative.  Stderr values are checked but never diffed.
    Mismatched headers or row sets, malformed or duplicated rows, and a
    tolerance that is negative or not finite raise ValueError.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance}")
    rows_a = _read_table(Path(path_a))
    rows_b = _read_table(Path(path_b))
    if rows_a.keys() != rows_b.keys():
        only_a = sorted(rows_a.keys() - rows_b.keys())[:3]
        only_b = sorted(rows_b.keys() - rows_a.keys())[:3]
        raise ValueError(f"row sets differ (e.g. only in a: {only_a}, only in b: {only_b})")
    report = []
    worst = 0.0
    non_finite = bad_stderr = 0
    for key in sorted(rows_a):
        (value_a, err_a), (value_b, err_b) = rows_a[key], rows_b[key]
        if not (math.isfinite(err_a) and err_a >= 0.0 and math.isfinite(err_b) and err_b >= 0.0):
            bad_stderr += 1
            report.append(f"invalid stderr at {_location(key)}: {err_a!r} vs {err_b!r}")
        if not (math.isfinite(value_a) and math.isfinite(value_b)):
            non_finite += 1
            report.append(f"non-finite value at {_location(key)}: {value_a!r} vs {value_b!r}")
            continue
        diff = abs(value_a - value_b)
        worst = max(worst, diff)
        if diff > tolerance:
            report.append(f"exceeds tolerance at {_location(key)}: |diff|={diff:.3e}")
    report.append(f"max |diff| = {worst:.3e} over {len(rows_a)} rows (tolerance {tolerance:g})")
    if non_finite:
        report.append(f"{non_finite} row(s) hold a non-finite value, which no tolerance accepts")
    if bad_stderr:
        report.append(f"{bad_stderr} row(s) hold a NaN, infinite or negative stderr")
    return report, worst <= tolerance and not non_finite and not bad_stderr


def _int_in(minimum: int, maximum: float = math.inf):
    """argparse type: an integer in [``minimum``, ``maximum``]."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return integer


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process; parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="weakquasi",
        description="Weak-sequential measurement sweeps and figure-data export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate a scenario config and export CSV tables")
    p_run.add_argument("config", help="path to the JSON scenario document")
    p_run.add_argument("--out", default="out", help="output directory (default: ./out)")
    p_run.add_argument("--seed", type=_int_in(0), default=None, help="override the config seed")
    mode = p_run.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="force exact (infinite-statistics) mode")
    mode.add_argument(
        "--shots", type=_int_in(1, MAX_SHOTS), default=None, help="override the per-setting shot count"
    )

    p_cmp = sub.add_parser("compare", help="diff two exported tables within a tolerance")
    p_cmp.add_argument("table_a")
    p_cmp.add_argument("table_b")
    p_cmp.add_argument("--tol", type=float, required=True, help="maximum allowed |difference|")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "run":
        try:
            try:
                text = Path(args.config).read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                message = f"{args.config} is not UTF-8 text: {exc.reason} at byte {exc.start}"
                raise ConfigError(message) from None
            config = parse_config(text)
            if args.seed is not None:
                config = replace(config, seed=args.seed)
            if args.exact:
                config = replace(config, shots=None)
            elif args.shots is not None:
                config = replace(config, shots=args.shots)
            summary = run(config, args.out)
        except (OSError, ConfigError, ZeroCountsError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        tables = ", ".join(f"{q}.csv" for q in sorted(config.outputs) if q != "thresholds")
        print(f"wrote {tables + ' and ' if tables else ''}summary.json to {args.out}")
        print(f"runtime: {summary['runtime_seconds']} s, seed {summary['seed']}, shots {summary['shots']}")
        return 0

    try:
        report, ok = compare(args.table_a, args.table_b, args.tol)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report:
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
