"""Scenario literals: the one-conversion path against the per-scalar walk.

Vectors, matrices and span lists are converted with one numpy call when
they are plain lists of ints and floats; anything else is left to the
per-scalar walk, which alone words the errors. The walk is the oracle:
valid literals must give bitwise-equal arrays and byte-identical
serializations, invalid ones the same error type and text.
"""

import json

import numpy as np
import pytest

import qprop.scenario
from qprop import (
    Subspace,
    parse_scenario,
    scenario_from_data,
    serialize_scenario,
    subspace_from_spanning,
)
from qprop.scenario import (
    _convert,
    _parse_matrix,
    _parse_span,
    _parse_vector,
    _walk_matrix,
    _walk_vector,
)

SUBNORMAL = 5e-324
VECTORS = {
    "bare ints": [1, 0, 2],
    "bare floats": [0.5, -0.0, 1e-310],
    "pairs": [[1, 0], [0, -0.0], [SUBNORMAL, 2]],
    "big ints": [2**53 + 1, 2**64 + 1, -(2**70)],
    "big int pairs": [[2**53 + 1, -(2**70)], [2**64 + 1, 0], [-0.0, 3]],
    "nan": [float("nan"), 0],
}
MIXED_VECTORS = {
    "mixed": [1, [0, 1], 0.5],
    "numpy scalar": [np.float64(0.25), 1],
}
MATRICES = {
    "bare": [[1, 0], [0, -0.0]],
    "pairs": [[[1, 0], [0, -0.0]], [[SUBNORMAL, 0], [2**64 + 1, 1e-310]]],
}
MIXED_MATRICES = {
    "bare row and pair row": [[1, 0], [[0, 0], [1, 0]]],
    "mixed row": [[1, [0, 1]], [0, 1]],
}
SPANS = {
    "bare": [[1, 2, 3], [4, 5, 6]],
    "pairs": [[[1, 0], [0, 0], [0, -0.0]]],
    "one bare vector": [[-(2**70), SUBNORMAL]],
}
MIXED_SPANS = {
    "bare vector and pair vector": [[1, 0, 0], [[0, 0], [1e-310, 0], [0, 1]]],
}


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the oracle compares type and text
        return (type(exc), str(exc))


# ---------------------------------------------------------------------------
# valid literals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", VECTORS)
def test_vector_converts_once_and_matches_walk(name):
    v = VECTORS[name]
    assert _convert(v, 1) is not None
    assert _same(_parse_vector(v, "$.v"), _walk_vector(v, "$.v"))


@pytest.mark.parametrize("name", MIXED_VECTORS)
def test_mixed_vector_is_walked(name):
    v = MIXED_VECTORS[name]
    assert _convert(v, 1) is None
    assert _same(_parse_vector(v, "$.v"), _walk_vector(v, "$.v"))


@pytest.mark.parametrize("name", [*MATRICES, *MIXED_MATRICES])
def test_matrix_matches_walk(name):
    m = {**MATRICES, **MIXED_MATRICES}[name]
    assert (_convert(m, 2) is None) == (name in MIXED_MATRICES)
    assert _same(_parse_matrix(m, "$.m"), _walk_matrix(m, "$.m"))


@pytest.mark.parametrize("name", [*SPANS, *MIXED_SPANS])
def test_span_matches_walk(name):
    vectors = {**SPANS, **MIXED_SPANS}[name]
    assert (_convert(vectors, 2) is None) == (name in MIXED_SPANS)
    walked = [_walk_vector(v, f"$.span[{i}]") for i, v in enumerate(vectors)]
    parsed = _parse_span(vectors, "$.span")
    assert len(parsed) == len(walked)
    assert all(_same(np.asarray(p), w) for p, w in zip(parsed, walked))


def test_negative_zero_and_subnormal_survive_normalization():
    v = _parse_vector([[-0.0, -0.0], [SUBNORMAL, 1]], "$.v")
    norm = qprop.scenario._norm_vector(v)
    assert norm == [[-0.0, -0.0], [SUBNORMAL, 1.0]]
    assert [np.signbit(x) for x in norm[0]] == [True, True]


def _literal_scenario() -> dict:
    p0 = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    p1 = [[[0, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, -0.0]]]
    return {
        "dimension": 3,
        "states": {
            "a": [2**53 + 1, 2**64 + 1, -(2**70)],
            "b": [[1, -0.0], [SUBNORMAL, 0], [0.5, 2]],
            "c": [1, [0, 1], 0.5],
        },
        "homes": {"b": {"full": 3}},
        "contexts": {
            "C": [{"matrix": p0}, {"matrix": p1}],
            "M": [{"matrix": [[0, 0, 0], [[0, 0], [1, 0], [0, 0]], [0, 0, 1]]}, {"matrix": p0}],
        },
        "propositions": {
            **{f"s{i}": {"span": s} for i, s in enumerate(SPANS.values()) if len(s[0]) == 3},
            "mixed": {"span": MIXED_SPANS["bare vector and pair vector"]},
            "mat": {"matrix": p1},
        },
        "evaluation": {"state": "a", "propositions": ["s0", "s1", "mixed", "mat"]},
    }


def _fingerprint(sc) -> list:
    out = [serialize_scenario(sc)]
    out += [s.amplitudes.tobytes() for s in sc.states.values()]
    out += [p.subspace.basis.tobytes() for p in sc.propositions.values()]
    out += [p.matrix.tobytes() for c in sc.contexts.values() for p in c.projectors]
    return out


def test_scenario_matches_walk_byte_for_byte(monkeypatch):
    text = json.dumps(_literal_scenario())
    fast = _fingerprint(parse_scenario(text))
    monkeypatch.setattr(qprop.scenario, "_convert", lambda value, depth: None)
    walked = _fingerprint(parse_scenario(text))
    assert fast == walked
    assert parse_scenario(fast[0]).data == json.loads(fast[0])


def reference_span(vectors, tol):
    """CGS2 one vector at a time, with np.linalg.norm: the span before
    spans took a (k, d) array."""
    rows = []
    for v in vectors:
        v = np.asarray(v, dtype=complex).reshape(-1)
        scale = float(np.linalg.norm(v))
        u = v
        if rows:
            basis = np.array(rows)
            for _ in range(2):
                u = u - (basis.conj() @ u) @ basis
        residual = float(np.linalg.norm(u))
        if residual > tol * scale and residual > 0.0:
            rows.append(u / residual)
    return np.array(rows).T


@pytest.mark.parametrize("d", [2, 5, 64, 128])
def test_span_of_rows_is_bitwise_the_reference(d):
    rng = np.random.default_rng(d)
    for k in (1, 3, min(d, 7)):
        vs = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
        vs[-1] = vs[0] + 1e-12 * vs[-1] if k > 1 else vs[-1]  # one dependent vector
        for tol in (1e-9, 1e-6):
            expected = reference_span(vs, tol)
            from_rows = subspace_from_spanning(vs, tol)
            from_list = subspace_from_spanning(list(vs), tol)
            assert isinstance(from_rows, Subspace)
            assert np.array_equal(from_rows.basis, expected)
            assert np.array_equal(from_list.basis, expected)


# ---------------------------------------------------------------------------
# invalid literals
# ---------------------------------------------------------------------------

BAD_VECTORS = {
    "bool": [True, 0],
    "bool in pair": [[True, 0], [0, 1]],
    "numeric string": ["1", 0],
    "string": ["a", 0],
    "null": [None, 1],
    "triple": [[1, 2, 3], [0, 0, 0]],
    "empty": [],
    "not a list": {"x": 1},
    "tuple pair": [(1, 0), (0, 1)],
    "overflow": [10**400, 0],
    "overflow in pair": [[0, 10**400], [1, 0]],
    "nested too deep": [[[1, 0]], [[0, 1]]],
}
BAD_MATRICES = {
    "ragged": [[1, 0], [1]],
    "non-list row": [[1, 0], 5],
    "empty row": [[]],
    "empty": [],
    "bool": [[1, False], [0, 1]],
    "null in pair": [[[1, None], [0, 0]], [[0, 0], [1, 0]]],
}


@pytest.mark.parametrize("name", BAD_VECTORS)
def test_bad_vector_raises_the_walks_error(name):
    v = BAD_VECTORS[name]
    assert _convert(v, 1) is None
    walked = _outcome(_walk_vector, v, "$.v")
    assert isinstance(walked, tuple)
    assert _outcome(_parse_vector, v, "$.v") == walked


@pytest.mark.parametrize("name", BAD_MATRICES)
def test_bad_matrix_raises_the_walks_error(name):
    m = BAD_MATRICES[name]
    assert _convert(m, 2) is None
    walked = _outcome(_walk_matrix, m, "$.m")
    assert isinstance(walked, tuple)
    assert _outcome(_parse_matrix, m, "$.m") == walked


def _with(**changes) -> dict:
    data = _literal_scenario()
    for key, value in changes.items():
        section, name = key.split("__")
        data[section][name] = value
    return data


BAD_SCENARIOS = {
    **{f"state {k}": _with(states__a=v) for k, v in BAD_VECTORS.items()},
    **{f"matrix {k}": _with(propositions__mat={"matrix": m}) for k, m in BAD_MATRICES.items()},
    "nan state": _with(states__a=[float("nan"), 0, 1]),
    "nan span": _with(propositions__s0={"span": [[1, float("nan"), 0]]}),
    "empty span": _with(propositions__s0={"span": []}),
    "ragged span": _with(propositions__s0={"span": [[1, 0, 0], [1, 0]]}),
    "bool span": _with(propositions__s0={"span": [[1, 0, True]]}),
    "string span": _with(propositions__s0={"span": [[1, 0, "0"]]}),
}


@pytest.mark.parametrize("name", BAD_SCENARIOS)
def test_bad_scenario_raises_the_walks_error(name, monkeypatch):
    data = BAD_SCENARIOS[name]
    fast = _outcome(scenario_from_data, data)
    monkeypatch.setattr(qprop.scenario, "_convert", lambda value, depth: None)
    walked = _outcome(scenario_from_data, data)
    assert isinstance(walked, tuple)
    assert fast == walked


def test_overflow_is_wrapped_as_validation_failed():
    err = _outcome(scenario_from_data, _with(states__a=[10**400, 0, 0]))
    assert err[0].__name__ == "ValidationFailed"
    assert err[1] == "$.states.a: OverflowError: int too large to convert to float"
