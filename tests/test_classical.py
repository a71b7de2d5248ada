"""Classical two-step walk: transition matrices, fixed points, trajectories."""

import numpy as np
import pytest

import hyperwalk as hw
from conftest import battery, hub_and_rim, mixed_lengths, random_instances, single_edge, six_by_four, star, triangle


def scalar_vertex_chain(hg):
    """Independent oracle: entrywise sum over shared hyperedges."""
    h = hg.incidence
    d = h.sum(axis=1)
    delta = h.sum(axis=0)
    p = np.zeros((hg.n, hg.n))
    for i in range(hg.n):
        for j in range(hg.n):
            p[i, j] = sum(
                h[i, k] * h[j, k] / (d[i] * delta[k]) for k in range(hg.m)
            )
    return p


def test_single_edge_transitions():
    ts = hw.build_transitions(single_edge())
    np.testing.assert_array_equal(ts.vertex_to_edge, [[1.0], [1.0], [1.0]])
    np.testing.assert_allclose(ts.edge_to_vertex, [[1 / 3, 1 / 3, 1 / 3]])
    np.testing.assert_allclose(ts.vertex_chain, np.full((3, 3), 1 / 3))
    np.testing.assert_allclose(ts.edge_chain, [[1.0]])


def test_triangle_vertex_chain():
    ts = hw.build_transitions(triangle())
    expected = np.full((3, 3), 0.25)
    np.fill_diagonal(expected, 0.5)
    np.testing.assert_allclose(ts.vertex_chain, expected, atol=1e-15)
    # regular uniform: the chain is the incidence Gram matrix over d*k
    h = triangle().incidence
    np.testing.assert_allclose(ts.vertex_chain, h @ h.T / 4.0, atol=1e-15)


def test_rows_are_stochastic():
    for hg in battery():
        ts = hw.build_transitions(hg)
        for mat in (ts.vertex_to_edge, ts.edge_to_vertex, ts.vertex_chain, ts.edge_chain):
            assert np.abs(mat.sum(axis=1) - 1.0).max() <= 1e-12
            assert mat.min() >= 0.0


def test_matrix_chain_matches_scalar_formula():
    for hg in [single_edge(), triangle(), six_by_four()] + random_instances(8, seed=21):
        ts = hw.build_transitions(hg)
        assert np.abs(ts.vertex_chain - scalar_vertex_chain(hg)).max() <= 1e-14


def test_support_pattern_is_shared_hyperedge_relation():
    for hg in battery():
        ts = hw.build_transitions(hg)
        h = hg.incidence
        shares = (h @ h.T) > 0
        np.testing.assert_array_equal(ts.vertex_chain > 0, shares)


def test_vertex_chain_symmetric_for_regular_uniform():
    for hg in random_instances(10, seed=22):
        ts = hw.build_transitions(hg)
        assert np.abs(ts.vertex_chain - ts.vertex_chain.T).max() <= 1e-14


def test_transition_support_matches_incidence():
    for hg in battery():
        ts = hw.build_transitions(hg)
        np.testing.assert_array_equal(ts.vertex_to_edge > 0, hg.incidence > 0)
        np.testing.assert_array_equal(ts.edge_to_vertex > 0, hg.incidence.T > 0)


def test_stationary_distribution_uniform_cases():
    ts = hw.build_transitions(triangle())
    np.testing.assert_allclose(
        hw.stationary_distribution(ts, "vertex").probabilities, np.full(3, 1 / 3), atol=1e-10
    )
    ts = hw.build_transitions(single_edge())
    np.testing.assert_allclose(
        hw.stationary_distribution(ts, "vertex").probabilities, np.full(3, 1 / 3), atol=1e-10
    )


def test_stationary_distribution_regular_uniform_is_uniform():
    for hg in random_instances(6, seed=23):
        ts = hw.build_transitions(hg)
        pi = hw.stationary_distribution(ts, "vertex").probabilities
        np.testing.assert_allclose(pi, np.full(hg.n, 1 / hg.n), atol=1e-10)
        pi_edge = hw.stationary_distribution(ts, "edge").probabilities
        np.testing.assert_allclose(pi_edge, np.full(hg.m, 1 / hg.m), atol=1e-10)


def test_stationary_distribution_closed_form_irregular():
    # Connected and non-regular: d(v)/N is the fixed point power iteration finds.
    ts = hw.build_transitions(hw.from_edge_lists(4, [{0, 1, 2}, {2, 3}, {0, 3}]))
    pi = hw.stationary_distribution(ts, "vertex").probabilities
    np.testing.assert_allclose(pi, [2 / 7, 1 / 7, 2 / 7, 2 / 7], atol=1e-12)
    chain = ts.vertex_chain
    x = np.full(4, 0.25)
    for _ in range(1000):
        x = x @ chain
    np.testing.assert_allclose(x, pi, atol=1e-12)
    # Disconnected: every component has its own stationary law; the closed
    # form weights each by its share of the pairs, whatever the start.
    ts = hw.build_transitions(hw.from_edge_lists(5, [{0, 1}, {1, 2}, {0, 2}, {3, 4}]))
    pi = hw.stationary_distribution(ts, "vertex").probabilities
    np.testing.assert_allclose(pi, [0.25, 0.25, 0.25, 0.125, 0.125], atol=1e-12)
    np.testing.assert_allclose(pi @ ts.vertex_chain, pi, atol=1e-12)


def test_stationary_distribution_rejects_unknown_chain():
    ts = hw.build_transitions(triangle())
    with pytest.raises(hw.HyperwalkError, match="which must be 'vertex' or 'edge'"):
        hw.stationary_distribution(ts, "both")


def test_classical_step_triangle_row():
    ts = hw.build_transitions(triangle())
    out = hw.classical_step(ts, hw.Distribution(np.array([1.0, 0.0, 0.0])))
    np.testing.assert_allclose(out.probabilities, [0.5, 0.25, 0.25], atol=1e-15)


def test_classical_step_single_edge_row():
    ts = hw.build_transitions(single_edge())
    out = hw.classical_step(ts, hw.Distribution(np.array([1.0, 0.0, 0.0])))
    np.testing.assert_allclose(out.probabilities, np.full(3, 1 / 3), atol=1e-15)


def test_classical_step_preserves_fixed_point():
    ts = hw.build_transitions(triangle())
    uniform = hw.Distribution(np.full(3, 1 / 3))
    out = hw.classical_step(ts, uniform)
    np.testing.assert_allclose(out.probabilities, uniform.probabilities, atol=1e-15)


def test_classical_step_dimension_mismatch():
    ts = hw.build_transitions(triangle())
    with pytest.raises(hw.HyperwalkError, match="distribution has 4 entries, chain has 3"):
        hw.classical_step(ts, hw.Distribution(np.full(4, 0.25)))


def test_distribution_validation():
    with pytest.raises(hw.HyperwalkError, match="not 1"):
        hw.Distribution(np.array([0.7, 0.4]))
    with pytest.raises(hw.HyperwalkError, match="negative probability entry"):
        hw.Distribution(np.array([1.2, -0.2]))
    for probabilities in ([np.nan, 0.5], [np.nan, 1.0], [1.0, np.nan]):
        with pytest.raises(hw.HyperwalkError, match="not 1"):
            hw.Distribution(np.array(probabilities))


def test_trajectory_zero_steps():
    ts = hw.build_transitions(triangle())
    assert hw.sample_trajectory(ts, 1, 0, seed=0) == [1]


def test_trajectory_shape_and_support():
    ts = hw.build_transitions(six_by_four())
    h = six_by_four().incidence
    path = hw.sample_trajectory(ts, 0, 50, seed=8)
    assert len(path) == 101
    for i in range(50):
        v, e, u = path[2 * i], path[2 * i + 1], path[2 * i + 2]
        assert h[v, e] == 1 and h[u, e] == 1


def test_trajectory_single_edge_always_uses_edge_zero():
    ts = hw.build_transitions(single_edge())
    path = hw.sample_trajectory(ts, 2, 30, seed=9)
    assert all(path[2 * i + 1] == 0 for i in range(30))


def test_trajectory_deterministic_per_seed():
    ts = hw.build_transitions(triangle())
    assert hw.sample_trajectory(ts, 0, 40, seed=4) == hw.sample_trajectory(ts, 0, 40, seed=4)


def test_trajectory_visit_frequencies_near_stationary():
    ts = hw.build_transitions(triangle())
    path = hw.sample_trajectory(ts, 0, 2000, seed=10)
    visits = np.bincount(path[::2], minlength=3) / (len(path[::2]))
    assert 0.5 * np.abs(visits - 1 / 3).sum() <= 0.05


def dense_reference_trajectory(ts, start_vertex, steps, seed):
    """The trajectory drawn from row cumsums of the dense stochastic matrices."""
    rng = np.random.default_rng(seed)
    cum_ve = np.cumsum(ts.vertex_to_edge, axis=1)
    cum_ev = np.cumsum(ts.edge_to_vertex, axis=1)
    draws = rng.random(2 * steps)
    path = [start_vertex]
    v = start_vertex
    for i in range(steps):
        e = min(int(np.searchsorted(cum_ve[v], draws[2 * i], side="right")), ts.m - 1)
        v = min(int(np.searchsorted(cum_ev[e], draws[2 * i + 1], side="right")), ts.n - 1)
        path += [e, v]
    return path


def random_transitions(hg, seed):
    """Random positive per-pair weights, normalised over each vertex's and each hyperedge's pairs."""
    rng = np.random.default_rng(seed)
    w_ve, w_ev = rng.random((2, hg.pair_v.size)) + 0.1
    p_ve = w_ve / np.bincount(hg.pair_v, weights=w_ve)[hg.pair_v]
    p_ev = w_ev / np.bincount(hg.pair_e, weights=w_ev)[hg.pair_e]
    return hw.TransitionSystem(hypergraph=hg, p_ve=p_ve, p_ev=p_ev)


def test_trajectory_matches_dense_reference():
    """Equal to draws from the dense rows' cumsums, over segment lengths 1 to 600 and uneven weights."""
    instances = [
        triangle(),
        six_by_four(),
        hw.from_edge_lists(4, [{0, 1, 2}, {2, 3}, {0, 3}]),
        hw.from_edge_lists(5, [{0, 1}, {1, 2}, {0, 2}, {3, 4}]),
        hw.from_edge_lists(3, [{0}, {0, 1, 2}, {2}]),
        hw.random_regular_uniform(20, 12, 5, 3, seed=3),
        star(),
        mixed_lengths(),
        hub_and_rim(40),
    ]
    systems = [hw.build_transitions(hg) for hg in instances]
    uneven = [mixed_lengths(), hub_and_rim(40), hw.random_regular_uniform(20, 12, 5, 3, seed=3)]
    systems += [random_transitions(hg, seed) for seed, hg in enumerate(uneven)]
    for ts in systems:
        hg = ts.hypergraph
        for seed in range(4):
            start = seed % hg.n
            assert hw.sample_trajectory(ts, start, 300, seed=seed) == dense_reference_trajectory(
                ts, start, 300, seed
            )
