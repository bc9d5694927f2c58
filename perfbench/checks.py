"""Oracle checks on exported tables, independent of the package's CSV reader.

Each check returns None when the output is correct and a one-line message
naming the first offending row otherwise.  The expected tables are computed
by the caller before timing starts; nothing here calls into ``weakquasi``.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

HEADER = ["K", "a", "b", "quantity", "value", "stderr"]

EXACT_TOL = 1e-10        # p_weak against the closed form, exact mode
THRESHOLD_TOL = 1e-6     # global threshold against the scalar qubit formula
SAMPLED_SIGMAS = 6.0     # sampled p_weak within 6 stderr + 10/shots
SAMPLED_FLOOR_COUNTS = 10.0


def read_rows(path: Path) -> list[list[str]]:
    """Data rows of an exported table; raises ValueError on a wrong header."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != HEADER:
            raise ValueError(f"{path.name}: header {header}, expected {HEADER}")
        return list(reader)


def count_rows(paths) -> int:
    """Data rows over the given CSV tables."""
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh) - 1
    return total


def check_p_weak(
    rows: list[list[str]],
    k_grid: np.ndarray,
    labels_a: tuple[str, ...],
    labels_b: tuple[str, ...],
    expected: np.ndarray,
    shots: int | None = None,
) -> str | None:
    """Compare a p_weak table with expected[k, a, b].

    Exact mode (shots None) allows |diff| <= EXACT_TOL; sampled mode allows
    |diff| <= SAMPLED_SIGMAS * stderr + SAMPLED_FLOOR_COUNTS / shots per cell.
    Row order must be ascending K, then a, then b, as the CLI documents.
    """
    da, db = len(labels_a), len(labels_b)
    if len(rows) != len(k_grid) * da * db:
        return f"p_weak has {len(rows)} rows, expected {len(k_grid) * da * db}"
    for n, row in enumerate(rows):
        ki, rest = divmod(n, da * db)
        a, b = divmod(rest, db)
        if len(row) != len(HEADER):
            return f"p_weak row {n + 1} has {len(row)} fields"
        k, la, lb, quantity, value, stderr = row
        if quantity != "p_weak" or la != labels_a[a] or lb != labels_b[b]:
            return f"p_weak row {n + 1} is {row[:4]}, expected K={k_grid[ki]:g} ({labels_a[a]},{labels_b[b]})"
        if abs(float(k) - k_grid[ki]) > 1e-9:
            return f"p_weak row {n + 1} has K={k}, expected {k_grid[ki]:.12g}"
        value, stderr = float(value), float(stderr)
        if shots is None:
            tol = EXACT_TOL
        else:
            tol = SAMPLED_SIGMAS * stderr + SAMPLED_FLOOR_COUNTS / shots
        diff = abs(value - expected[ki, a, b])
        if not diff <= tol:  # also rejects NaN
            return f"p_weak at K={k} ({la},{lb}): |{value} - {expected[ki, a, b]:.15g}| = {diff:.3e} > {tol:.3e}"
    return None


def qubit_threshold(theta0_deg: float) -> float:
    """Global negativity threshold of the qubit demo state, A=Z, B=X.

    With c = cos(2 theta0) > s = sin(2 theta0) > 0, the only negative MHQ cell
    is (V, D-perp), and it turns negative above K = 1 / (1 + 2 s / (c - s)).
    """
    c = math.cos(math.radians(2.0 * theta0_deg))
    s = math.sin(math.radians(2.0 * theta0_deg))
    if not c > s > 0.0:
        raise ValueError(f"the scalar threshold formula needs cos > sin > 0 at theta0={theta0_deg}")
    return 1.0 / (1.0 + 2.0 * s / (c - s))


def check_threshold(summary: dict, expected: float) -> str | None:
    """Compare summary.json's global threshold with the scalar formula."""
    got = summary.get("thresholds", {}).get("global")
    if not isinstance(got, (int, float)) or not abs(got - expected) <= THRESHOLD_TOL:
        return f"global threshold {got!r}, expected {expected:.12g}"
    return None
