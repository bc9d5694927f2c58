"""Property tests: broadcast data paths, the sweep's K axis, scenario-document parsing, runs,
export formatting and table comparison."""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_instance
from weakquasi.cli import (
    _CONFIG_FIELDS,
    CSV_HEADER,
    QUANTITIES,
    ConfigError,
    _fmt,
    _quoted,
    _write_points,
    compare,
    main,
    parse_config,
)
from weakquasi.core import WeakStrength
from weakquasi.quasiprob import (
    _coherence_values,
    _reconstruct,
    _weak_cq_values,
    _weak_mhq_values,
    coherence_term,
    mhq_from_weak,
    weak_cq_from_data,
)
from weakquasi.sampling import MAX_SHOTS, MIN_CROSS_WEIGHT, run_sweep, sample_counts
from weakquasi.schemes import probability_table, weak_sequential_closed

strengths = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def table_stacks(draw):
    """(R, d, d) weak and two-point stacks with an (R, d) p_fin stack."""
    d = draw(st.integers(2, 8))
    r = draw(st.integers(1, 4))
    cells = st.floats(-1.0, 1.0, allow_subnormal=False)
    return (
        draw(arrays(np.float64, (r, d, d), elements=cells)),
        draw(arrays(np.float64, (r, d, d), elements=cells)),
        draw(arrays(np.float64, (r, d), elements=cells)),
    )


@settings(max_examples=100, deadline=None)
@given(stacks=table_stacks(), k=strengths)
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_broadcast_data_paths_match_public_functions_slice_by_slice(stacks, k):
    pw, pt, pf = stacks
    strength = WeakStrength(k, pw.shape[-1])
    interior = 0.0 < k < 1.0
    wcq = _weak_cq_values(pw, pf)
    coh = _coherence_values(pw, pt, pf, strength)
    rec = _reconstruct(coh, strength)
    wmh = _weak_mhq_values(wcq, rec, pf, strength)
    for i in range(pw.shape[0]):
        point_wcq = weak_cq_from_data(pw[i], pf[i])
        assert wcq[i].tobytes() == point_wcq.tobytes()
        assert coh[i].tobytes() == coherence_term(pw[i], pt[i], pf[i], strength).tobytes()
        if not interior:
            with pytest.raises(ValueError, match="not invertible"):
                mhq_from_weak(pw[i], pt[i], pf[i], strength)
        elif np.isfinite(rec[i]).all():
            assert rec[i].tobytes() == mhq_from_weak(pw[i], pt[i], pf[i], strength).tobytes()
        else:  # K so close to 0 that the cross weight underflows: the table check rejects it
            with pytest.raises(ValueError, match="non-finite"):
                mhq_from_weak(pw[i], pt[i], pf[i], strength)
        point_wmh = _weak_mhq_values(point_wcq, rec[i], pf[i], strength)
        assert wmh[i].tobytes() == point_wmh.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    p_weak=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    p_tpm=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    p_fin=st.tuples(st.integers(1, 4)) | st.tuples(st.integers(1, 4), st.integers(1, 4)),
    dim=st.integers(2, 4),
    k=st.floats(0.01, 0.99),
)
@example(p_weak=(4, 4), p_tpm=(4, 4), p_fin=(2, 2), dim=4, k=0.5)  # d entries, but not a vector
def test_data_paths_return_a_d_by_d_table_or_name_the_mismatch(p_weak, p_tpm, p_fin, dim, k):
    # every mix of square and non-square tables, p_fin shapes and strength dimensions
    pw, pt, pf = np.full(p_weak, 0.1), np.full(p_tpm, 0.1), np.full(p_fin, 0.2)
    strength = WeakStrength(k, dim)
    d = p_weak[0]
    square = p_weak == (d, d) and p_fin == (d,)
    calls = [
        (lambda: weak_cq_from_data(pw, pf), square),
        (lambda: coherence_term(pw, pt, pf, strength), square and p_tpm == (d, d) and dim == d),
        (lambda: mhq_from_weak(pw, pt, pf, strength), square and p_tpm == (d, d) and dim == d),
    ]
    for call, consistent in calls:
        if consistent:
            assert call().shape == (d, d)
        else:
            with pytest.raises(ValueError, match="shape|dimension"):
                call()


def _weak_mhq_by_rule(k, wcq, rec, pf):
    """The data-path weak-MHQ rule of one table; None where no data path reaches it."""
    d = wcq.shape[0]
    if 0.0 < k < 1.0:
        return k * rec + ((1.0 - k) / d) * pf[None, :]
    if k == 0.0:
        return np.tile(pf / d, (d, 1))
    return wcq if d == 2 else None


@st.composite
def sweeps(draw):
    """(d, grid, seed, shots): a grid holding 0, 1 and up to five interior strengths, in any order."""
    d = draw(st.integers(2, 8))
    interior = draw(st.lists(st.floats(1e-4, 1.0 - 1e-4), max_size=5))
    grid = draw(st.permutations([0.0, 1.0, *interior]))
    return d, grid, draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([None, 10**4]))


@settings(max_examples=60, deadline=None)
@given(case=sweeps())
def test_run_sweep_matches_per_point_public_functions_byte_for_byte(case):
    # each K slice of every quantity equals the per-point weak_sequential_closed
    # tables (or their seeded draws) fed through the 2-D public functions
    d, grid, seed, shots = case
    rho, obs_a, obs_b = random_instance(np.random.default_rng(seed), d)
    sweep = run_sweep(rho, obs_a, obs_b, grid, shots=shots, seed=seed)
    children = np.random.SeedSequence(seed).spawn(len(grid)) if shots else [None] * len(grid)
    for i, (k, child) in enumerate(zip(grid, children)):
        tables = [weak_sequential_closed(rho, obs_a, obs_b, setting) for setting in (k, 1.0, 0.0)]
        if shots is not None:
            tables = [probability_table(sample_counts(t, shots, s)) for t, s in zip(tables, child.spawn(3))]
        pw, pt, p_final = (t.values for t in tables)
        strength = WeakStrength(k, d)
        pf = p_final.sum(axis=0)
        wcq = weak_cq_from_data(pw, pf)
        rec = mhq_from_weak(pw, pt, pf, strength) if 0.0 < k < 1.0 else None
        expected = {
            "p_weak": pw,
            "p_tpm": pt,
            "p_fin": pf,
            "weak_cq": wcq,
            "C": coherence_term(pw, pt, pf, strength),
            "mhq_reconstructed": rec,
            "weak_mhq": _weak_mhq_by_rule(k, wcq, rec, pf),
        }
        for name, table in expected.items():
            assert bool(sweep.reached(name)[i]) == (table is not None), (k, name)
            if table is not None:
                assert sweep.values[name][i].tobytes() == table.tobytes(), (k, name)
                if shots is None:
                    assert not sweep.errors[name][i].any(), (k, name)


# keys that appear at the top level or inside the nested objects of a scenario
KEYS = sorted(_CONFIG_FIELDS) + [
    "start", "stop", "num", "density", "amplitudes", "eigenvectors", "eigenvalues", "labels", "name",
]
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["exact", "Z", "X", "circuit", "closed", "p_weak", "thresholds"])
)
json_values = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), children, max_size=4),
    max_leaves=16,
)
bases = st.sampled_from([{}, {"theta0": 10.6}, {"state": [1, 0]}, {"dimension": 3, "state": [1, 0, 0]}])
documents = json_values | st.builds(
    lambda base, fields: {**base, **fields},
    bases,
    st.dictionaries(st.sampled_from(sorted(_CONFIG_FIELDS)), json_values, max_size=5),
)


@settings(max_examples=200, deadline=None)
@given(doc=documents)
def test_any_json_document_parses_or_raises_config_error(doc):
    # json.dumps writes NaN and Infinity tokens, which json.loads accepts
    text = json.dumps(doc)
    try:
        parse_config(text)
    except ConfigError:
        pass


def _pairs(matrix):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(matrix, dtype=complex)]


dust = st.sampled_from([0.0, 1e-300, 1e-16, 1e-12, 1e-8])


@st.composite
def run_documents(draw):
    """Valid documents at the edges of the physics: d <= 4 and at most five strengths."""
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho, obs_a, obs_b = random_instance(rng, d, pure=draw(st.booleans()))
    if draw(st.booleans()):  # a basis state whose other amplitudes are dust
        at = draw(st.integers(0, d - 1))
        state = {"amplitudes": [1.0 if i == at else draw(dust) for i in range(d)]}
    else:  # a mixed state, or a rank-1 one written as a density matrix
        state = {"density": _pairs(rho.matrix)}
    observable_a = {"eigenvectors": _pairs(draw(st.sampled_from([np.eye(d), obs_a.eigenvectors])))}
    # B = A, or a second random basis
    observable_b = observable_a if draw(st.booleans()) else {"eigenvectors": _pairs(obs_b.eigenvectors)}
    # strengths on either side of the MIN_CROSS_WEIGHT floor: cross weight ~ K near 0
    # and ~ 2 sqrt((1 - K) / d) near 1
    near_floor = st.floats(0.5, 2.0).flatmap(
        lambda f: st.sampled_from([MIN_CROSS_WEIGHT * f, 1.0 - f * d * (MIN_CROSS_WEIGHT / 2.0) ** 2])
    )
    strengths = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0) | near_floor
    shots = st.sampled_from(["exact", 1, MAX_SHOTS]) | st.integers(1, MAX_SHOTS)
    return {
        "dimension": d,
        "state": state,
        "observable_a": observable_a,
        "observable_b": observable_b,
        "K": draw(st.lists(strengths, min_size=1, max_size=5, unique=True)),
        "shots": draw(shots),
        "noise": draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=50, deadline=None)
@given(doc=run_documents())
def test_run_of_a_valid_document_exits_with_a_result_or_a_one_line_error(doc):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scenario.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(config), "--out", str(Path(tmp) / "out")])
    message = err.getvalue()
    assert code in (0, 1), message
    if code == 0:
        assert message == ""
    else:
        assert message.startswith("error: ") and message.count("\n") == 1, message


# ------------------------------------------------------------ CSV pairs

row_keys = st.tuples(
    st.sampled_from(["0", "0.5", "1"]),
    st.sampled_from(["H", "V"]),
    st.sampled_from(["D", "A"]),
    st.sampled_from(["p_weak", "weak_cq", "C"]),
)
table_values = st.floats(-2.0, 2.0) | st.sampled_from([math.nan, math.inf, -math.inf, 0.0])


@st.composite
def table_pairs(draw):
    """Two exported-format tables over one set of (K, a, b, quantity) keys."""
    keys = draw(st.lists(row_keys, min_size=1, max_size=12, unique=True))
    values = st.lists(table_values, min_size=len(keys), max_size=len(keys))
    return keys, draw(values), draw(values)


def _rows(keys, values):
    return [(*key, _fmt(value), _fmt(0.0)) for key, value in zip(keys, values)]


def _write_table(path, rows):
    """An exported-format table of ``rows``, written row by row through csv.writer."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def _max_diff(report):
    line = next(line for line in report if line.startswith("max |diff| = "))
    return float(line.split()[3])


@settings(max_examples=200, deadline=None)
@given(pair=table_pairs(), tolerance=st.floats(0.0, 1.0), duplicate=st.integers(0, 11))
def test_compare_is_symmetric_and_rejects_non_finite_and_duplicate_rows(pair, tolerance, duplicate):
    keys, values_a, values_b = pair
    with tempfile.TemporaryDirectory() as tmp:
        path_a, path_b, path_dup = (Path(tmp) / name for name in ("a.csv", "b.csv", "dup.csv"))
        _write_table(path_a, _rows(keys, values_a))
        _write_table(path_b, _rows(keys, values_b))
        report_ab, ok_ab = compare(path_a, path_b, tolerance)
        report_ba, ok_ba = compare(path_b, path_a, tolerance)
        assert ok_ab == ok_ba
        assert _max_diff(report_ab) == _max_diff(report_ba)
        # the exported text is what compare reads, so judge the parsed values
        parsed = [(float(_fmt(a)), float(_fmt(b))) for a, b in zip(values_a, values_b)]
        if not all(math.isfinite(x) for row in parsed for x in row):
            assert not ok_ab
        else:
            assert ok_ab == (max(abs(a - b) for a, b in parsed) <= tolerance)
        # a repeated (K, a, b, quantity) key is an error, whatever its value
        rows = _rows(keys, values_a)
        at = duplicate % len(rows)
        rows.insert(at, (*rows[at][:4], _fmt(values_b[at]), _fmt(0.0)))
        _write_table(path_dup, rows)
        for first, second in ((path_dup, path_b), (path_b, path_dup)):
            with pytest.raises(ValueError, match="duplicate row key"):
                compare(first, second, tolerance)


cell_values = st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2e-308])


# labels that a % template would misread if they were not escaped, plus csv quoting and non-ASCII
label_texts = st.sampled_from(["100%", "%s", "%.12g", "a%%b", "%(x)s", "%", ",", '"q"', " sp ", "D⊥"])
label_texts |= st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n\x00"), max_size=4)


@st.composite
def exported_tables(draw):
    """A table's (nK, d, d) values and errors, K keys, labels and quantity, and the points it writes.

    Each stack repeats points drawn from a small pool, or is one point broadcast over
    the grid with a stride-0 K axis, as the cq/mhq tables and the exact zero errors are.
    """
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 6))

    def stack():
        pool = draw(arrays(np.float64, (draw(st.integers(1, 3)), d, d), elements=cell_values))
        if draw(st.booleans()):
            return np.broadcast_to(pool[0], (n, d, d))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        return pool[np.asarray(picks, dtype=int)]

    values, errors = stack(), stack()
    keys = [_fmt(k) for k in draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))]
    labels_a, labels_b = (draw(st.lists(label_texts, min_size=d, max_size=d, unique=True)) for _ in "ab")
    indices = [i for i in range(n) if draw(st.booleans())]
    return values, errors, keys, labels_a, labels_b, draw(st.sampled_from(QUANTITIES[:-1])), indices


@settings(max_examples=300, deadline=None)
@given(case=exported_tables())
@example(case=(
    np.array([[[0.0]], [[-0.0]], [[math.nan]], [[math.inf]], [[5e-324]]]),
    np.broadcast_to(0.0, (5, 1, 1)),
    ["0", "0.25", "0.5", "0.75", "1"], ["100%"], ["%.12g"], "p_weak", [0, 1, 2, 3, 4],
))
# equal as numbers, not as bytes: neither column may be formatted once
@example(case=(np.array([[[0.0]], [[-0.0]]]), np.array([[[-0.0]], [[0.0]]]), ["0", "1"], ["a"], ["b"], "C", [0, 1]))
def test_write_points_writes_the_rows_csv_writer_writes(case):
    values, errors, keys, labels_a, labels_b, quantity, indices = case
    written = io.StringIO()
    pairs = [(la, lb) for la in labels_a for lb in labels_b]  # a-major, as ravel()
    _write_points(written, [f"{_quoted(pair)}{quantity}" for pair in pairs], keys, values, errors, indices)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    for i in indices:
        cells = zip(pairs, values[i].ravel().tolist(), errors[i].ravel().tolist())
        writer.writerows([keys[i], la, lb, quantity, f"{v:.12g}", f"{e:.12g}"] for (la, lb), v, e in cells)
    assert written.getvalue() == expected.getvalue()


@given(x=st.floats())
@example(x=-0.0)
@example(x=5e-324)
def test_percent_format_equals_the_format_spec(x):
    # the row template fills its fields with %.12g; the K keys and fixed columns use .12g
    assert "%.12g" % x == f"{x:.12g}"
