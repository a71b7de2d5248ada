"""Property battery over arbitrary small hypergraphs, beyond the regular uniform family."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperwalk as hw
from hyperwalk.cli import _CSV_VALUES, _series_lines, main
from hyperwalk.spectral import group_eigenvalues, pairing_distance
from conftest import dense_walk, disjoint_union, pipeline, union_find_components

# Edge lines under an "n 4" header: valid edges, integer lists that may
# repeat a vertex or leave [0, 4), and lines of junk tokens.
JUNK = st.one_of(
    st.integers(-2, 6).map(str),
    st.sampled_from(["x", "n", "#", "-", "1.5", "0x1", "+1", "1_0", "\u0663", "9" * 5000]),
    st.text(max_size=3),
)
LINES = st.one_of(
    st.sets(st.integers(0, 3), min_size=1).map(lambda edge: [str(v) for v in edge]),
    st.lists(st.integers(-1, 4).map(str), min_size=1, max_size=4),
    st.lists(JUNK, max_size=5),
)
ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
# Spellings of a vertex index that int() reads but the .hg format does not allow.
INT_ONLY_SPELLINGS = [
    lambda v: f"+{v}",
    lambda v: f"0_{v}",
    lambda v: v.translate(ARABIC_INDIC_DIGITS),
]
HG_TEXTS = st.one_of(
    st.text(),
    st.lists(LINES.map(" ".join), max_size=6).map(lambda lines: "\n".join(["n 4"] + lines) + "\n"),
)


@st.composite
def hypergraphs(draw, max_n=7):
    """Any non-empty edges on n <= max_n vertices, plus a singleton for each uncovered vertex.

    This reaches non-regular and disconnected hypergraphs, repeated and
    singleton edges, and n = 1.
    """
    n = draw(st.integers(1, max_n))
    vertices = st.sets(st.integers(0, n - 1), min_size=1)
    edges = draw(st.lists(vertices, min_size=1, max_size=max_n))
    edges += [{v} for v in sorted(set(range(n)) - set().union(*edges))]
    return hw.from_edge_lists(n, edges)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(hg=hypergraphs(), classify_tol=st.sampled_from([1e-17, 1e-9, 1e-3]))
def test_analyze_counts_one_unit_per_component_and_passes(hg, classify_tol):
    report = hw.analyze(hg, classify_tol=classify_tol)
    assert report.verdict == "pass", report.to_json()
    assert report.classification.count("unit") == union_find_components(hg)
    assert sum(entry["multiplicity"] for entry in report.to_json_dict()["predicted"]) == report.size


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(hg=hypergraphs())
def test_oracle_matches_dense_eigvals(hg):
    _, walk = pipeline(hg)
    assert pairing_distance(hw.brute_force_spectrum(walk), np.linalg.eigvals(dense_walk(walk))) <= 1e-12


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(left=hypergraphs(), right=hypergraphs())
def test_disjoint_union_spectrum_is_the_parts_together(left, right):
    # A disjoint union's spectrum is its parts' together, with no dense reference: the grouped
    # predicted multiset, the oracle's spectrum, the merged singular values (padded with zeros to
    # min(n, m)) and the unit counts must all combine.
    _, walk = pipeline(disjoint_union(left, right))
    union = hw.predict_spectrum(walk)
    parts = [hw.predict_spectrum(pipeline(hg)[1]) for hg in (left, right)]
    combined = np.concatenate([part.eigenvalues for part in parts])
    grouped = [group_eigenvalues(values) for values in (union.eigenvalues, combined)]
    assert [count for _, count in grouped[0]] == [count for _, count in grouped[1]]
    assert max(abs(z - w) for (z, _), (w, _) in zip(*grouped)) <= 1e-12
    oracle = [hw.brute_force_spectrum(pipeline(hg)[1]) for hg in (left, right)]
    assert pairing_distance(hw.brute_force_spectrum(walk), np.concatenate(oracle)) <= 1e-12
    pad = min(left.n + right.n, left.m + right.m) - sum(part.singular_values.size for part in parts)
    sigma = np.concatenate([part.singular_values for part in parts] + [np.zeros(pad)])
    np.testing.assert_array_equal(union.singular_values, np.sort(sigma)[::-1])
    assert union.classification.count("unit") == sum(part.classification.count("unit") for part in parts)
    # Each tag stays with its value: units (the blocks' largest) first, nulls last.
    assert list(union.classification) == sorted(union.classification, key=["unit", "interior", "null"].index)
    assert union.classification.count("null") == pad + sum(part.classification.count("null") for part in parts)


def isometric_walk(hg, seed):
    """A walk whose A and B have random unit columns with mixed signs; on each side the
    first pair of the first segment with more than one pair weighs exactly 0."""
    rng = np.random.default_rng(seed)
    size = hg.pair_v.size
    vertex_starts, edge_order, edge_starts = hg.segments
    weights = []
    for order, starts, group in [(np.arange(size), vertex_starts, hg.pair_v), (edge_order, edge_starts, hg.pair_e)]:
        w = rng.standard_normal(size)
        w[order[starts[np.diff(starts, append=size) > 1][:1]]] = 0.0
        weights.append(w / np.sqrt(np.bincount(group, weights=w**2))[group])
    return hw.WalkOperator(hg, *weights)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(hg=hypergraphs(), seed=st.integers(0, 2**32 - 1))
@example(hg=hw.from_edge_lists(6, [{0, 1, 2}, {3, 4, 5}, {0, 1, 3}, {2, 4, 5}]), seed=1)  # n > m, with cycles
@example(hg=hw.from_edge_lists(3, [{0, 1}, {1, 2}, {0, 2}, {0, 1, 2}]), seed=2)  # n < m, with cycles
@example(hg=hw.from_edge_lists(3, [{0}, {0, 1, 2}, {2}]), seed=3)  # singleton segments on both sides
def test_oracle_matches_dense_eigvals_for_any_isometric_weights(hg, seed):
    walk = isometric_walk(hg, seed)
    assert pairing_distance(hw.brute_force_spectrum(walk), np.linalg.eigvals(dense_walk(walk))) <= 1e-12


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(hg=hypergraphs())
def test_parse_inverts_serialize(hg):
    back = hw.parse(hw.serialize(hg))
    assert back.n == hg.n
    np.testing.assert_array_equal(back.pair_v, hg.pair_v)
    np.testing.assert_array_equal(back.pair_e, hg.pair_e)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(text=HG_TEXTS)
def test_parse_rejects_only_with_library_errors(text):
    try:
        hw.parse(text)
    except hw.HyperwalkError:
        pass


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(hg=hypergraphs(), data=st.data())
def test_parse_rejects_int_only_spellings_with_their_line(hg, data):
    lines = hw.serialize(hg).splitlines()
    lineno = data.draw(st.integers(2, len(lines)))
    tokens = lines[lineno - 1].split()
    at = data.draw(st.integers(0, len(tokens) - 1))
    tokens[at] = data.draw(st.sampled_from(INT_ONLY_SPELLINGS))(tokens[at])
    lines[lineno - 1] = " ".join(tokens)
    try:
        hw.parse("\n".join(lines) + "\n")
    except hw.HgSyntaxError as err:
        assert err.line == lineno and "non-integer vertex index" in str(err)
    else:
        raise AssertionError(f"accepted {lines[lineno - 1]!r}")


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(text=HG_TEXTS)
def test_info_exits_zero_or_two_without_traceback(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.hg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["info", path])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == err.getvalue().startswith("error: ")


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(hg=hypergraphs(), seed=st.integers(0, 2**32 - 1), columns=st.sampled_from([None, 1, 3]))
def test_walk_action_matches_dense(hg, seed, columns):
    _, walk = pipeline(hg)
    rng = np.random.default_rng(seed)
    shape = (walk.size,) if columns is None else (walk.size, columns)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.abs(hw.walk_action(walk, x) - dense_walk(walk) @ x).max() <= 1e-12


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(hg=hypergraphs())
def test_degree_law_is_fixed_by_classical_step(hg):
    degrees = hw.degree_profile(hg).vertex_degrees
    pi = hw.Distribution(degrees / hg.pair_v.size)
    stepped = hw.classical_step(hw.build_transitions(hg), pi)
    assert np.abs(stepped.probabilities - pi.probabilities).max() <= 1e-12


@st.composite
def series(draw):
    """1-4 rows of 64-bit floats of any bit pattern (nan, infinities, subnormals,
    -0.0), n <= 8 columns or one fewer or more than the CSV writer's pass
    holds; each row repeats up to 8 drawn values."""
    n = draw(st.one_of(st.integers(1, 8), st.sampled_from([_CSV_VALUES - 1, _CSV_VALUES + 1])))
    values = st.lists(st.floats(width=64), min_size=1, max_size=8)
    rows = draw(st.lists(st.tuples(st.integers(0, 10**6), values), min_size=1, max_size=4))
    return n, [(t, np.resize(np.array(probs), n)) for t, probs in rows]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(drawn=series())
def test_series_lines_match_per_value_references(drawn):
    n, rows = drawn
    columns = ["t"] + [f"v{i}" for i in range(n)]
    csv = ",".join(columns) + "\n"
    csv += "".join("%d" % t + "".join(",%.17g" % x for x in probs.tolist()) + "\n" for t, probs in rows)
    assert "".join(_series_lines(rows, n, "csv")) == csv
    payload = {"columns": columns, "rows": [[t] + probs.tolist() for t, probs in rows]}
    assert "".join(_series_lines(rows, n, "json")) == json.dumps(payload, indent=2) + "\n"
