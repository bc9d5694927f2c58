"""Property tests: broadcast data paths and scenario-document parsing."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from weakquasi.cli import _CONFIG_FIELDS, ConfigError, parse_config
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
    strength = WeakStrength.from_k(k, pw.shape[-1])
    interior = 0.0 < k < 1.0
    wcq = _weak_cq_values(pw, pf)
    coh = _coherence_values(pw, pt, pf, strength)
    rec = _reconstruct(coh, strength) if interior else None
    wmh = _weak_mhq_values(wcq, rec, pf, strength)
    for i in range(pw.shape[0]):
        point_wcq = weak_cq_from_data(pw[i], pf[i], strength).values
        assert wcq[i].tobytes() == point_wcq.tobytes()
        assert coh[i].tobytes() == coherence_term(pw[i], pt[i], pf[i], strength).tobytes()
        if not interior:
            with pytest.raises(ValueError, match="not invertible"):
                mhq_from_weak(pw[i], pt[i], pf[i], strength)
        elif np.isfinite(rec[i]).all():
            assert rec[i].tobytes() == mhq_from_weak(pw[i], pt[i], pf[i], strength).values.tobytes()
        else:  # K so close to 0 that the cross weight underflows: the table check rejects it
            with pytest.raises(ValueError, match="non-finite"):
                mhq_from_weak(pw[i], pt[i], pf[i], strength)
        point_wmh = _weak_mhq_values(point_wcq, None if rec is None else rec[i], pf[i], strength)
        if wmh is None:
            assert point_wmh is None
        else:
            assert wmh[i].tobytes() == point_wmh.tobytes()


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
