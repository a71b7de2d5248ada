"""The walk's pair basis, isometry weights, walk operator, state evolution, marginals."""

import numpy as np
import pytest

import hyperwalk as hw
from conftest import (
    IRREGULAR,
    battery,
    dense_walk,
    edge_isometry,
    hub_and_rim,
    mixed_lengths,
    pipeline,
    random_instances,
    random_state,
    single_edge,
    six_by_four,
    star,
    triangle,
    vertex_isometry,
)


def pairs(hg):
    return list(zip(hg.pair_v.tolist(), hg.pair_e.tolist()))


def test_pair_space_single_edge():
    hg = single_edge()
    assert pairs(hg) == [(0, 0), (1, 0), (2, 0)]
    assert pipeline(hg)[1].size == 3


def test_pair_space_triangle_enumeration():
    hg = triangle()
    assert pairs(hg) == [(0, 0), (0, 2), (1, 0), (1, 1), (2, 1), (2, 2)]
    assert pipeline(hg)[1].size == 6


def test_pair_space_index_is_bijection():
    for hg in battery():
        profile = hw.degree_profile(hg)
        size = pipeline(hg)[1].size
        assert size == int(profile.vertex_degrees.sum()) == int(profile.edge_degrees.sum())
        for i, (v, e) in enumerate(pairs(hg)):
            amps = hw.basis_pair_state(hg, v, e).amplitudes
            assert amps.size == size and np.flatnonzero(amps).tolist() == [i]


def test_pair_space_six_by_four_dimension():
    assert pipeline(six_by_four())[1].size == 12 == 6 * 2 == 4 * 3


def test_isometries_single_edge():
    _, walk = pipeline(single_edge())
    np.testing.assert_allclose(vertex_isometry(walk), np.eye(3), atol=1e-15)
    np.testing.assert_allclose(edge_isometry(walk), np.full((3, 1), 1 / np.sqrt(3)), atol=1e-15)


def test_isometries_triangle_amplitudes():
    _, walk = pipeline(triangle())
    for mat in (vertex_isometry(walk), edge_isometry(walk)):
        nonzero = mat[mat != 0]
        np.testing.assert_allclose(nonzero, np.full(nonzero.size, 1 / np.sqrt(2)), atol=1e-15)


def test_isometry_columns_orthonormal():
    for hg in battery():
        _, walk = pipeline(hg)
        a, b = vertex_isometry(walk), edge_isometry(walk)
        assert np.abs(a.T @ a - np.eye(a.shape[1])).max() <= 1e-12
        assert np.abs(b.T @ b - np.eye(b.shape[1])).max() <= 1e-12


def test_isometry_columns_have_local_support():
    for hg in [triangle(), six_by_four()]:
        _, walk = pipeline(hg)
        for v in range(hg.n):
            support = np.flatnonzero(vertex_isometry(walk)[:, v])
            assert set(hg.pair_v[support]) <= {v}
        for e in range(hg.m):
            support = np.flatnonzero(edge_isometry(walk)[:, e])
            assert set(hg.pair_e[support]) <= {e}


def test_isometry_product_equals_entrywise_discriminant():
    for hg in battery():
        ts, walk = pipeline(hg)
        direct = np.sqrt(ts.vertex_to_edge * ts.edge_to_vertex.T)
        product = vertex_isometry(walk).T @ edge_isometry(walk)
        assert np.abs(product - direct).max() <= 1e-14


def test_walk_single_edge_is_grover_diffusion():
    _, walk = pipeline(single_edge())
    expected = 2 * np.ones((3, 3)) / 3 - np.eye(3)
    assert np.abs(hw.walk_action(walk, np.eye(3)) - expected).max() <= 1e-14


def test_reflections_are_involutions():
    for hg in [triangle(), six_by_four()] + random_instances(4, seed=31):
        _, walk = pipeline(hg)
        eye = np.eye(walk.size)
        for mat in (vertex_isometry(walk), edge_isometry(walk)):
            reflection = 2 * (mat @ mat.T) - eye
            assert np.abs(reflection @ reflection - eye).max() <= 1e-12


def test_walk_is_orthogonal():
    for hg in [triangle(), six_by_four()] + random_instances(6, seed=32):
        _, walk = pipeline(hg)
        eye = np.eye(walk.size)
        matrix = hw.walk_action(walk, eye)
        assert np.abs(matrix.T @ matrix - eye).max() <= 1e-10


def test_dense_matrix_is_product_of_reflections():
    instances = [hw.from_edge_lists(*case.values[:2]) for case in IRREGULAR]
    instances += [
        triangle(),
        six_by_four(),
        hw.random_regular_uniform(256, 128, 4, 2, seed=51),
        hw.random_regular_uniform(300, 200, 3, 2, seed=49),
        hw.from_edge_lists(40, [range(40), {0, 1}, range(5, 30)]),
        hub_and_rim(301),
    ]
    for hg in instances:
        _, walk = pipeline(hg)
        assert np.abs(hw.walk_action(walk, np.eye(walk.size)) - dense_walk(walk)).max() <= 1e-12


def test_dense_cap_controls_materialization(monkeypatch):
    # The cap bounds only the eigenvalue oracle, the one step that builds dense
    # blocks; walk steps and the walk's action on a matrix run at any N.
    monkeypatch.setenv(hw.DENSE_CAP_ENV, "4")
    _, walk = pipeline(triangle())
    with pytest.raises(hw.HyperwalkError, match="pair dimension 6 exceeds dense cap 4"):
        hw.brute_force_spectrum(walk)
    out = hw.apply_walk(walk, hw.basis_pair_state(triangle(), 0, 0))
    assert abs(out.norm - 1.0) <= 1e-12
    assert np.abs(hw.walk_action(walk, np.eye(walk.size)) - dense_walk(walk)).max() <= 1e-12


@pytest.mark.parametrize(
    "raw, message",
    [
        ("zero", "must be an integer, got 'zero'"),
        ("4096.0", "must be an integer, got '4096.0'"),
        ("0", "must be >= 1, got 0"),
        ("-3", "must be >= 1, got -3"),
        ("1_0", "must be an integer, got '1_0'"),
        (" 12", "must be an integer, got ' 12'"),
        ("\u0663", "must be an integer, got '\u0663'"),
    ],
    ids=["zero", "4096.0", "0", "-3", "1_0", "leading-space", "arabic-indic-digit"],
)
def test_dense_cap_env_validation(monkeypatch, raw, message):
    monkeypatch.setenv(hw.DENSE_CAP_ENV, raw)
    with pytest.raises(hw.HyperwalkError, match=message):
        hw.dense_cap()


def test_apply_walk_single_edge_basis_state():
    _, walk = pipeline(single_edge())
    out = hw.apply_walk(walk, hw.basis_pair_state(single_edge(), 0, 0))
    np.testing.assert_allclose(out.amplitudes, [-1 / 3, 2 / 3, 2 / 3], atol=1e-15)


def test_apply_walk_preserves_norm():
    for hg in [triangle(), six_by_four()] + random_instances(4, seed=33):
        _, walk = pipeline(hg)
        psi = random_state(walk.size, seed=walk.size)
        out = hw.apply_walk(walk, psi)
        assert abs(out.norm - 1.0) <= 1e-12


def test_factored_application_matches_dense():
    for hg in [triangle(), six_by_four()] + random_instances(6, seed=34):
        _, walk = pipeline(hg)
        psi = random_state(walk.size, seed=7 * walk.size + 1)
        factored = hw.apply_walk(walk, psi).amplitudes
        dense = dense_walk(walk) @ psi.amplitudes
        assert np.abs(factored - dense).max() <= 1e-12


MIXED = [
    pytest.param(lambda: hw.from_edge_lists(1200, [range(1200)]), id="one-1200-pair-edge"),
    pytest.param(star, id="star"),
    pytest.param(mixed_lengths, id="mixed-lengths"),
] + [pytest.param(lambda case=case: hw.from_edge_lists(*case.values[:2]), id=case.id) for case in IRREGULAR]


@pytest.mark.parametrize("build", MIXED)
def test_walk_action_matches_dense_on_mixed_segment_lengths(build):
    # Segments of each length are summed as one group, so shapes with one
    # long segment, two very different lengths or many lengths each take
    # their own path through the grouping.
    hg = build()
    _, walk = pipeline(hg)
    if build is mixed_lengths:
        for sizes in (hw.degree_profile(hg).vertex_degrees, hw.degree_profile(hg).edge_degrees):
            assert np.unique(sizes).size >= 10
    dense = dense_walk(walk)
    rng = np.random.default_rng(walk.size)
    for shape, is_complex in [((walk.size,), True), ((walk.size, 3), False), ((walk.size, 3), True)]:
        x = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if is_complex else 0.0)
        assert np.abs(hw.walk_action(walk, x) - dense @ x).max() <= 1e-12


def test_double_application_matches_dense_square():
    for hg in [triangle()] + random_instances(3, seed=35):
        _, walk = pipeline(hg)
        psi = random_state(walk.size, seed=11 * walk.size)
        twice = hw.apply_walk(walk, hw.apply_walk(walk, psi)).amplitudes
        dense = np.linalg.matrix_power(dense_walk(walk), 2) @ psi.amplitudes
        assert np.abs(twice - dense).max() <= 1e-11


def test_reflection_locality():
    # The vertex reflection never moves amplitude between pairs with
    # different vertices; the edge reflection likewise per hyperedge.
    hg = six_by_four()
    _, walk = pipeline(hg)
    a, b = vertex_isometry(walk), edge_isometry(walk)
    eye = np.eye(walk.size)
    reflect_v = 2 * (a @ a.T) - eye
    reflect_e = 2 * (b @ b.T) - eye
    for p in range(walk.size):
        moved = np.flatnonzero(np.abs(reflect_v[:, p]) > 1e-15)
        assert set(hg.pair_v[moved]) <= {hg.pair_v[p]}
        moved = np.flatnonzero(np.abs(reflect_e[:, p]) > 1e-15)
        assert set(hg.pair_e[moved]) <= {hg.pair_e[p]}


def test_apply_walk_dimension_mismatch():
    _, walk = pipeline(triangle())
    with pytest.raises(hw.HyperwalkError, match="state has 4 amplitudes, walk space has 6"):
        hw.apply_walk(walk, random_state(4, seed=1))


def test_evolve_zero_steps_is_identity():
    _, walk = pipeline(triangle())
    psi = random_state(walk.size, seed=2)
    (out,) = hw.evolve(walk, psi, 0)
    assert out is psi


def test_evolve_two_steps_single_edge_against_matrix_power():
    _, walk = pipeline(single_edge())
    psi = hw.basis_pair_state(single_edge(), 0, 0)
    *_, out = hw.evolve(walk, psi, 2)
    oracle = np.linalg.matrix_power(dense_walk(walk), 2) @ psi.amplitudes
    assert np.abs(out.amplitudes - oracle).max() <= 1e-12


def test_evolve_yields_start_and_every_step():
    _, walk = pipeline(triangle())
    psi = random_state(walk.size, seed=3)
    history = list(hw.evolve(walk, psi, 5))
    assert len(history) == 6 and history[0] is psi
    for before, after in zip(history, history[1:]):
        np.testing.assert_array_equal(after.amplitudes, hw.apply_walk(walk, before).amplitudes)


def test_evolve_rejects_negative_steps_before_iteration():
    _, walk = pipeline(triangle())
    with pytest.raises(hw.HyperwalkError, match="steps must be >= 0"):
        hw.evolve(walk, random_state(walk.size, seed=3), -1)


def test_evolve_long_run_norm_drift():
    _, walk = pipeline(triangle())
    psi = random_state(walk.size, seed=4)
    *_, out = hw.evolve(walk, psi, 1000)
    assert abs(out.norm - 1.0) <= 1e-9


def test_vertex_superposition_matches_isometry_column():
    hg = six_by_four()
    _, walk = pipeline(hg)
    psi = hw.vertex_superposition(walk, 2)
    np.testing.assert_allclose(psi.amplitudes, vertex_isometry(walk)[:, 2], atol=1e-15)
    marginal = hw.vertex_distribution(hg, psi).probabilities
    expected = np.zeros(hg.n)
    expected[2] = 1.0
    np.testing.assert_allclose(marginal, expected, atol=1e-14)


def test_basis_pair_state_rejects_non_incident_pair():
    for v, e in [(0, 1), (3, 0), (0, 3), (-1, 0), (0, -1), (2**70, 0)]:
        with pytest.raises(hw.HyperwalkError, match="is not an incident"):
            hw.basis_pair_state(triangle(), v, e)


def test_vertex_distribution_single_edge_after_step():
    hg = single_edge()
    _, walk = pipeline(hg)
    out = hw.apply_walk(walk, hw.basis_pair_state(hg, 0, 0))
    np.testing.assert_allclose(
        hw.vertex_distribution(hg, out).probabilities, [1 / 9, 4 / 9, 4 / 9], atol=1e-15
    )


def test_distributions_sum_to_one():
    for hg in battery():
        size = hg.pair_v.size
        psi = random_state(size, seed=13 * size + 5)
        assert abs(hw.vertex_distribution(hg, psi).probabilities.sum() - 1.0) <= 1e-12


def test_uniform_state_marginals_triangle():
    hg = triangle()
    psi = hw.StateVector(np.full(6, 1 / np.sqrt(6), dtype=complex))
    np.testing.assert_allclose(
        hw.vertex_distribution(hg, psi).probabilities, np.full(3, 1 / 3), atol=1e-14
    )


def test_state_vector_rejects_bad_norm():
    for amps in ([1.0, 1.0], [np.nan, 0.0], [np.inf, 0.0], [complex(np.nan, 0.0), 1.0]):
        with pytest.raises(hw.HyperwalkError, match="is not 1"):
            hw.StateVector(np.array(amps, dtype=complex))
