"""Hypergraph construction, pair lists, degrees, generation, .hg format."""

import numpy as np
import pytest

import hyperwalk as hw
from conftest import (
    FIG1_PARAMS,
    incidence,
    pipeline,
    random_instances,
    random_state,
    single_edge,
    six_by_four,
    triangle,
    union_find_components,
    union_find_partition,
)
from hyperwalk.hypergraph import component_labels


def test_single_edge_incidence():
    hg = single_edge()
    assert hg.n == 3 and hg.m == 1
    np.testing.assert_array_equal(incidence(hg), [[1], [1], [1]])


def test_triangle_incidence_matches_direct_construction():
    edges = [{0, 1}, {1, 2}, {0, 2}]
    expected = np.zeros((3, 3), dtype=int)
    for j, edge in enumerate(edges):
        expected[sorted(edge), j] = 1
    hg = hw.from_edge_lists(3, edges)
    np.testing.assert_array_equal(incidence(hg), expected)
    np.testing.assert_array_equal(incidence(hg), [[1, 0, 1], [1, 1, 0], [0, 1, 1]])


def test_six_by_four_matches_stated_parameters():
    hg = six_by_four()
    profile = hw.degree_profile(hg)
    assert (hg.n, hg.m) == (FIG1_PARAMS["n"], FIG1_PARAMS["m"])
    assert profile.d == FIG1_PARAMS["d"] and profile.k == FIG1_PARAMS["k"]
    assert hg.n * profile.d == hg.m * profile.k == 12


def test_incidence_is_immutable():
    """The incidence lists are read-only."""
    hg = triangle()
    with pytest.raises(ValueError):
        hg.pair_v[0] = 1
    with pytest.raises(ValueError):
        hg.pair_e[0] = 1


def test_from_edge_lists_rejects_empty_edge():
    with pytest.raises(hw.HyperwalkError, match="hyperedge 1 contains no vertices"):
        hw.from_edge_lists(3, [{0, 1}, set()])


def test_from_edge_lists_rejects_out_of_range_vertex():
    with pytest.raises(hw.HyperwalkError, match=r"pair \(3, 0\) outside \[0, 3\)"):
        hw.from_edge_lists(3, [{0, 3}])


def test_from_edge_lists_rejects_isolated_vertex():
    with pytest.raises(hw.HyperwalkError, match="vertex 3 appears in no hyperedge"):
        hw.from_edge_lists(4, [{0, 1}, {1, 2}])


def test_from_edge_lists_rejects_repeated_vertex():
    with pytest.raises(hw.HyperwalkError, match="hyperedge 0 repeats vertex 0"):
        hw.from_edge_lists(3, [[0, 0, 1]])


def test_degree_profile_single_edge():
    profile = hw.degree_profile(single_edge())
    np.testing.assert_array_equal(profile.vertex_degrees, [1, 1, 1])
    np.testing.assert_array_equal(profile.edge_degrees, [3])
    assert profile.d == 1 and profile.k == 3
    assert profile.is_regular and profile.is_uniform


def test_degree_profile_triangle():
    profile = hw.degree_profile(triangle())
    np.testing.assert_array_equal(profile.vertex_degrees, [2, 2, 2])
    np.testing.assert_array_equal(profile.edge_degrees, [2, 2, 2])
    assert profile.d == 2 and profile.k == 2


def test_degree_profile_irregular_flags():
    hg = hw.from_edge_lists(3, [{0, 1, 2}, {0, 1}])
    profile = hw.degree_profile(hg)
    assert profile.d is None and not profile.is_regular
    assert profile.k is None and not profile.is_uniform


def test_degree_sums_agree_exactly():
    for hg in [single_edge(), triangle(), six_by_four()] + random_instances(20, seed=5):
        profile = hw.degree_profile(hg)
        assert int(profile.vertex_degrees.sum()) == int(profile.edge_degrees.sum())


def bipartite_adjacency(hg):
    """The (n+m)-square adjacency of the vertex/hyperedge graph, from the pairs."""
    ab = np.zeros((hg.n + hg.m, hg.n + hg.m), dtype=int)
    ab[hg.pair_v, hg.n + hg.pair_e] = ab[hg.n + hg.pair_e, hg.pair_v] = 1
    return ab


def test_bipartite_single_edge_layout():
    # The pairs are the edges of the bipartite vertex/hyperedge graph, sorted
    # by (v, e).
    model = hw.from_edge_lists(3, [[2, 0, 1]])
    np.testing.assert_array_equal(model.pair_v, [0, 1, 2])
    np.testing.assert_array_equal(model.pair_e, [0, 0, 0])
    expected = np.zeros((4, 4), dtype=int)
    for v in range(3):
        expected[v, 3] = expected[3, v] = 1
    np.testing.assert_array_equal(bipartite_adjacency(model), expected)


def test_bipartite_structure_properties():
    for hg in [triangle(), six_by_four()] + random_instances(8, seed=6):
        profile = hw.degree_profile(hg)
        rows, cols = np.nonzero(incidence(hg))
        np.testing.assert_array_equal(hg.pair_v, rows)
        np.testing.assert_array_equal(hg.pair_e, cols)
        assert hg.pair_v.dtype == hg.pair_e.dtype == np.int64
        np.testing.assert_array_equal(np.bincount(hg.pair_v), profile.vertex_degrees)
        np.testing.assert_array_equal(np.bincount(hg.pair_e), profile.edge_degrees)
        ab = bipartite_adjacency(hg)
        np.testing.assert_array_equal(ab, ab.T)
        assert ab[: hg.n, : hg.n].sum() == 0 and ab[hg.n :, hg.n :].sum() == 0
        assert ab.sum() == 2 * profile.vertex_degrees.sum()
        np.testing.assert_array_equal(ab[: hg.n].sum(axis=1), profile.vertex_degrees)
        np.testing.assert_array_equal(ab[hg.n :].sum(axis=1), profile.edge_degrees)


def test_constructor_sorts_and_validates_pairs():
    hg = hw.Hypergraph(3, 2, [2, 0, 1, 0], [1, 1, 0, 0])
    assert hg.pair_v.tolist() == [0, 0, 1, 2] and hg.pair_e.tolist() == [0, 1, 0, 1]
    with pytest.raises(hw.HyperwalkError, match=r"pair \(2, 0\) outside"):
        hw.Hypergraph(2, 1, [0, 2], [0, 0])
    with pytest.raises(hw.HyperwalkError, match="repeats vertex"):
        hw.Hypergraph(2, 1, [0, 1, 0], [0, 0, 0])
    with pytest.raises(hw.HyperwalkError, match="hyperedge 0 contains no vertices"):
        hw.Hypergraph(2, 2, [0, 1], [1, 1])
    with pytest.raises(hw.HyperwalkError, match="vertex 2 appears in no hyperedge"):
        hw.Hypergraph(10**15, 1, [0, 1], [0, 0])


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: hw.Hypergraph(2, 1, [0.7, 1.9], [0.2, 0.0]), id="float-pairs"),
        pytest.param(lambda: hw.Hypergraph(2, 1, [0, 1], np.array([0.0, 0.0])), id="float-edge-column"),
        pytest.param(lambda: hw.Hypergraph(2, 1, ["0", "1"], [0, 0]), id="str-pairs"),
        pytest.param(lambda: hw.Hypergraph(2, 1, [True, False], [0, 0]), id="bool-pairs"),
        pytest.param(lambda: hw.Hypergraph(2.0, 1, [0, 1], [0, 0]), id="float-n"),
        pytest.param(lambda: hw.Hypergraph(2, np.float64(1), [0, 1], [0, 0]), id="numpy-float-m"),
        pytest.param(lambda: hw.Hypergraph(True, 1, [0], [0]), id="bool-n"),
        pytest.param(lambda: hw.from_edge_lists(2, [{0.7, 1.2}]), id="float-members"),
        pytest.param(lambda: hw.from_edge_lists(2, [["0", "1"]]), id="str-members"),
        pytest.param(lambda: hw.from_edge_lists(2, [[0, 1.0]]), id="one-float-member"),
        pytest.param(lambda: hw.from_edge_lists(2.0, [[0, 1]]), id="float-n-from-edge-lists"),
    ],
)
def test_non_integers_are_rejected(build):
    """Nothing is truncated to an integer, so serialize never writes a count that parse rejects."""
    with pytest.raises(hw.HyperwalkError, match="must be integers"):
        build()


def test_a_sequence_among_the_members_is_rejected():
    with pytest.raises(hw.HyperwalkError, match=r"must be integers within int64, got \[1, 2\]"):
        hw.from_edge_lists(3, [[0, [1, 2]]])


def test_edges_that_are_not_iterable_are_rejected():
    with pytest.raises(hw.HyperwalkError, match="edges must be an iterable of vertex collections"):
        hw.from_edge_lists(3, 5)


def test_integers_beyond_int64_are_named():
    # numpy holds 2**70 as an object and [0, 2**63] as floats; each is an integer int64 cannot hold.
    with pytest.raises(hw.HyperwalkError, match=f"must be integers within int64, got {2**70}"):
        hw.Hypergraph(2, 1, [0, 2**70], [0, 0])
    with pytest.raises(hw.HyperwalkError, match=f"must be integers within int64, got {2**63}"):
        hw.Hypergraph(2, 1, [0, 2**63], [0, 0])


def test_python_and_numpy_integers_are_accepted():
    hg = hw.Hypergraph(np.int32(2), np.uint8(1), np.array([1, 0], dtype=np.uint16), np.zeros(2, dtype=np.int8))
    assert hg.pair_v.tolist() == [0, 1] and hg.pair_e.tolist() == [0, 0]
    assert hw.serialize(hg) == "n 2\n0 1\n"
    assert hw.serialize(hw.from_edge_lists(2, [[np.int64(1), 0]])) == "n 2\n0 1\n"
    # An empty pair list still fails on its empty hyperedge, whatever its dtype.
    with pytest.raises(hw.HyperwalkError, match="hyperedge 0 contains no vertices"):
        hw.Hypergraph(2, 1, [], [])
    with pytest.raises(hw.HyperwalkError, match="hyperedge 0 contains no vertices"):
        hw.from_edge_lists(2, [set()])


def test_generator_hits_requested_degrees():
    hg = hw.random_regular_uniform(6, 4, 3, 2, seed=11)
    np.testing.assert_array_equal(incidence(hg).sum(axis=1), np.full(6, 2))
    np.testing.assert_array_equal(incidence(hg).sum(axis=0), np.full(4, 3))


def test_generator_is_deterministic_per_seed():
    a = hw.random_regular_uniform(12, 8, 3, 2, seed=99)
    b = hw.random_regular_uniform(12, 8, 3, 2, seed=99)
    np.testing.assert_array_equal(incidence(a), incidence(b))
    c = hw.random_regular_uniform(12, 8, 3, 2, seed=100)
    assert not np.array_equal(incidence(a), incidence(c))


def test_generator_forced_single_edge():
    hg = hw.random_regular_uniform(3, 1, 3, 1, seed=42)
    np.testing.assert_array_equal(incidence(hg), [[1], [1], [1]])


def test_generator_rejects_infeasible_parameters():
    with pytest.raises(hw.HyperwalkError, match=r"infeasible: n\*d != m\*k"):
        hw.random_regular_uniform(5, 3, 3, 2, seed=0)
    with pytest.raises(hw.HyperwalkError, match="infeasible: k > n"):
        hw.random_regular_uniform(2, 2, 3, 3, seed=0)


def test_feasible_parameters_reject_caps_no_draw_fits():
    # k >= 2 needs max_n >= 2 and max_pairs >= 2; below that no draw can
    # succeed, so the error comes before any draw.
    for max_n, max_pairs in [(1, 512), (0, 512), (60, 1)]:
        with pytest.raises(hw.HyperwalkError, match="infeasible: no k >= 2 fits"):
            hw.random_feasible_parameters(np.random.default_rng(0), max_n=max_n, max_pairs=max_pairs)
    assert hw.random_feasible_parameters(np.random.default_rng(0), max_n=2, max_pairs=2) == (2, 1, 2, 1)


def test_generator_handles_dense_degree_corner():
    # k = d = 5 makes plain reject-and-reshuffle essentially never accept.
    hg = hw.random_regular_uniform(25, 25, 5, 5, seed=3)
    profile = hw.degree_profile(hg)
    assert profile.d == 5 and profile.k == 5


def test_parse_single_edge():
    hg = hw.parse("# demo\nn 3\n0 1 2\n")
    np.testing.assert_array_equal(incidence(hg), [[1], [1], [1]])


def test_parse_skips_comments_and_blanks():
    text = "# header comment\n\nn 3\n# between edges\n0 1\n\n1 2\n0 2\n"
    hg = hw.parse(text)
    np.testing.assert_array_equal(incidence(hg), incidence(triangle()))


def test_parse_duplicate_vertex_reports_line():
    with pytest.raises(hw.HgSyntaxError) as err:
        hw.parse("n 3\n0 1 2\n0 0 1\n")
    assert err.value.line == 3


def test_parse_rejects_missing_header():
    with pytest.raises(hw.HgSyntaxError):
        hw.parse("0 1 2\n")


def test_parse_rejects_bad_tokens():
    with pytest.raises(hw.HgSyntaxError):
        hw.parse("n 3\n0 x 2\n")
    with pytest.raises(hw.HgSyntaxError, match="line 1"):
        hw.parse(f"n {2**63}\n0 1\n")


@pytest.mark.parametrize("token", ["+1", "1_0", "\u0663", "--1", "1-"])
def test_parse_reads_only_ascii_digits_with_optional_minus(token):
    with pytest.raises(hw.HgSyntaxError, match=r"^line 3: non-integer vertex index in ") as err:
        hw.parse(f"n 11\n0 2\n0 {token}\n")
    assert err.value.line == 3
    with pytest.raises(hw.HgSyntaxError, match=r"^line 1: vertex count .* is not an integer$") as err:
        hw.parse(f"n {token}\n0\n")
    assert err.value.line == 1


def test_parse_negative_vertex_reports_range():
    with pytest.raises(hw.HgSyntaxError, match=r"^line 2: vertex -1 outside \[0, 3\)$"):
        hw.parse("n 3\n0 -1\n")
    with pytest.raises(hw.HgSyntaxError, match=r"^line 1: vertex count must be in"):
        hw.parse("n -1\n0\n")


def test_parse_rejects_out_of_range_vertex():
    with pytest.raises(hw.HgSyntaxError, match=r"^line 2: vertex 5 outside \[0, 3\)$") as err:
        hw.parse("n 3\n0 1 5\n")
    assert err.value.line == 2


def test_round_trip_is_canonical():
    messy = "# comment\nn 3\n2 0\n1 2\n\n# tail\n0 1\n"
    canonical = "n 3\n0 2\n1 2\n0 1\n"
    assert hw.serialize(hw.parse(messy)) == canonical
    assert hw.serialize(hw.parse(canonical)) == canonical


def test_round_trip_random_instances():
    for hg in random_instances(10, seed=7):
        text = hw.serialize(hg)
        again = hw.parse(text)
        np.testing.assert_array_equal(incidence(again), incidence(hg))
        assert hw.serialize(again) == text


def test_is_connected():
    assert hw.is_connected(triangle())
    disjoint = hw.from_edge_lists(4, [{0, 1}, {2, 3}])
    assert not hw.is_connected(disjoint)


def breadth_first_connected(n, edges):
    """Reference: plain search over vertices that share a hyperedge."""
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for u in {u for edge in edges if v in edge for u in edge} - seen:
            seen.add(u)
            stack.append(u)
    return len(seen) == n


def test_is_connected_matches_breadth_first_search():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(1, 10))
        sizes = rng.integers(1, 4, size=n // 2 + 1)
        edges = [set(rng.integers(0, n, size=int(size)).tolist()) for size in sizes]
        edges.append(set(range(n)) - set().union(*edges) or {0})
        assert hw.is_connected(hw.from_edge_lists(n, edges)) == breadth_first_connected(n, edges)
    n = 5000
    path = [{v, v + 1} for v in reversed(range(n - 1))]
    assert hw.is_connected(hw.from_edge_lists(n, path))
    assert not hw.is_connected(hw.from_edge_lists(n, path[:1000] + path[1001:]))


def assert_labels_match_union_find(hg):
    # Same partition as the reference, each part named by its smallest vertex.
    labels = component_labels(hg)
    parts = union_find_partition(hg)
    assert {frozenset(np.flatnonzero(labels == label).tolist()) for label in set(labels.tolist())} == parts
    assert all((labels[list(part)] == min(part)).all() for part in parts)


def test_component_count_matches_union_find():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        edges = [set(rng.integers(0, n, size=int(rng.integers(1, 4))).tolist()) for _ in range(n // 2 + 1)]
        edges += [{v} for v in set(range(n)) - set().union(*edges)]
        hg = hw.from_edge_lists(n, edges)
        assert np.unique(component_labels(hg)).size == union_find_components(hg)
        assert hw.is_connected(hg) == (union_find_components(hg) == 1)
        assert_labels_match_union_find(hg)
    n = 5000
    path = [{v, v + 1} for v in reversed(range(n - 1))]
    split = hw.from_edge_lists(n, path[:1000] + path[1001:])
    assert np.unique(component_labels(split)).size == 2 and not hw.is_connected(split)
    assert_labels_match_union_find(split)


def test_array_holding_dataclasses_compare_by_identity():
    # Field-wise equality would compare arrays as a tuple and raise; these
    # objects compare and hash by identity instead.
    hg, twin = single_edge(), single_edge()
    ts, walk = pipeline(hg)
    report = hw.analyze(hg)
    prediction = hw.predict_spectrum(walk)
    objects = [
        hg, hw.degree_profile(hg), ts, hw.stationary_distribution(ts), walk,
        random_state(walk.size, seed=1), prediction.blocks[0][2], prediction, report,
    ]
    for obj in objects:
        assert obj == obj and obj in [obj]
        assert hash(obj) == hash(obj)
    assert hg != twin and twin not in [hg]
    assert len({hg, twin, walk}) == 3
