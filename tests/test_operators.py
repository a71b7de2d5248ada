"""Pair space, isometries, walk operator, state evolution, marginals."""

import numpy as np
import pytest

import hyperwalk as hw
from conftest import battery, random_instances, random_state, single_edge, six_by_four, triangle


def pipeline(hg):
    ts = hw.build_transitions(hg)
    ps = hw.build_pair_space(hg)
    iso = hw.build_isometries(hg, ts, ps)
    return ts, ps, iso, hw.build_walk(iso)


def test_pair_space_single_edge():
    ps = hw.build_pair_space(single_edge())
    assert ps.pairs == [(0, 0), (1, 0), (2, 0)]
    assert ps.size == 3


def test_pair_space_triangle_enumeration():
    ps = hw.build_pair_space(triangle())
    assert ps.pairs == [(0, 0), (0, 2), (1, 0), (1, 1), (2, 1), (2, 2)]
    assert ps.size == 6


def test_pair_space_index_is_bijection():
    for hg in battery():
        ps = hw.build_pair_space(hg)
        profile = hw.degree_profile(hg)
        assert ps.size == int(profile.vertex_degrees.sum()) == int(profile.edge_degrees.sum())
        for i, (v, e) in enumerate(ps.pairs):
            amps = hw.basis_pair_state(ps, v, e).amplitudes
            assert np.flatnonzero(amps).tolist() == [i]


def test_pair_space_six_by_four_dimension():
    ps = hw.build_pair_space(six_by_four())
    assert ps.size == 12 == 6 * 2 == 4 * 3


def test_isometries_single_edge():
    _, _, iso, _ = pipeline(single_edge())
    np.testing.assert_allclose(iso.vertex_isometry, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(iso.edge_isometry, np.full((3, 1), 1 / np.sqrt(3)), atol=1e-15)


def test_isometries_triangle_amplitudes():
    _, _, iso, _ = pipeline(triangle())
    for mat in (iso.vertex_isometry, iso.edge_isometry):
        nonzero = mat[mat != 0]
        np.testing.assert_allclose(nonzero, np.full(nonzero.size, 1 / np.sqrt(2)), atol=1e-15)


def test_isometry_columns_orthonormal():
    for hg in battery():
        _, _, iso, _ = pipeline(hg)
        a, b = iso.vertex_isometry, iso.edge_isometry
        assert np.abs(a.T @ a - np.eye(a.shape[1])).max() <= 1e-12
        assert np.abs(b.T @ b - np.eye(b.shape[1])).max() <= 1e-12


def test_isometry_columns_have_local_support():
    for hg in [triangle(), six_by_four()]:
        _, ps, iso, _ = pipeline(hg)
        for v in range(ps.n):
            support = np.flatnonzero(iso.vertex_isometry[:, v])
            assert set(ps.pair_v[support]) <= {v}
        for e in range(ps.m):
            support = np.flatnonzero(iso.edge_isometry[:, e])
            assert set(ps.pair_e[support]) <= {e}


def test_isometry_product_equals_entrywise_discriminant():
    for hg in battery():
        ts, _, iso, _ = pipeline(hg)
        direct = np.sqrt(ts.vertex_to_edge * ts.edge_to_vertex.T)
        product = iso.vertex_isometry.T @ iso.edge_isometry
        assert np.abs(product - direct).max() <= 1e-14


def test_walk_single_edge_is_grover_diffusion():
    _, _, _, walk = pipeline(single_edge())
    expected = 2 * np.ones((3, 3)) / 3 - np.eye(3)
    assert np.abs(walk.dense - expected).max() <= 1e-14


def test_reflections_are_involutions():
    for hg in [triangle(), six_by_four()] + random_instances(4, seed=31):
        _, _, iso, _ = pipeline(hg)
        size = iso.vertex_isometry.shape[0]
        eye = np.eye(size)
        for mat in (iso.vertex_isometry, iso.edge_isometry):
            reflection = 2 * (mat @ mat.T) - eye
            assert np.abs(reflection @ reflection - eye).max() <= 1e-12


def test_walk_is_orthogonal():
    for hg in [triangle(), six_by_four()] + random_instances(6, seed=32):
        _, _, _, walk = pipeline(hg)
        eye = np.eye(walk.size)
        assert np.abs(walk.dense.T @ walk.dense - eye).max() <= 1e-10


def test_dense_matrix_is_product_of_reflections():
    # walk.dense is built in column blocks of 256: N = 512 fills two blocks
    # exactly and N = 600 ends on a partial one.
    multi_block = [
        hw.random_regular_uniform(256, 128, 4, 2, seed=51),
        hw.random_regular_uniform(300, 200, 3, 2, seed=49),
    ]
    for hg in [triangle(), six_by_four()] + multi_block:
        _, _, iso, walk = pipeline(hg)
        eye = np.eye(walk.size)
        reflect_v = 2 * (iso.vertex_isometry @ iso.vertex_isometry.T) - eye
        reflect_e = 2 * (iso.edge_isometry @ iso.edge_isometry.T) - eye
        assert np.abs(walk.dense - reflect_e @ reflect_v).max() <= 1e-12


def test_dense_cap_controls_materialization(monkeypatch):
    monkeypatch.setenv(hw.DENSE_CAP_ENV, "4")
    _, ps, _, walk = pipeline(triangle())
    with pytest.raises(hw.DimensionTooLargeError):
        walk.dense
    out = hw.apply_walk(walk, hw.basis_pair_state(ps, 0, 0))
    assert abs(out.norm - 1.0) <= 1e-12


def test_dense_cap_env_validation(monkeypatch):
    monkeypatch.setenv(hw.DENSE_CAP_ENV, "zero")
    with pytest.raises(ValueError):
        hw.dense_cap()


def test_apply_walk_single_edge_basis_state():
    _, ps, _, walk = pipeline(single_edge())
    out = hw.apply_walk(walk, hw.basis_pair_state(ps, 0, 0))
    np.testing.assert_allclose(out.amplitudes, [-1 / 3, 2 / 3, 2 / 3], atol=1e-15)


def test_apply_walk_preserves_norm():
    for hg in [triangle(), six_by_four()] + random_instances(4, seed=33):
        _, ps, _, walk = pipeline(hg)
        psi = random_state(ps.size, seed=ps.size)
        out = hw.apply_walk(walk, psi)
        assert abs(out.norm - 1.0) <= 1e-12


def test_factored_application_matches_dense():
    for hg in [triangle(), six_by_four()] + random_instances(6, seed=34):
        _, ps, _, walk = pipeline(hg)
        psi = random_state(ps.size, seed=7 * ps.size + 1)
        factored = hw.apply_walk(walk, psi).amplitudes
        dense = walk.dense @ psi.amplitudes
        assert np.abs(factored - dense).max() <= 1e-12


def test_double_application_matches_dense_square():
    for hg in [triangle()] + random_instances(3, seed=35):
        _, ps, _, walk = pipeline(hg)
        psi = random_state(ps.size, seed=11 * ps.size)
        twice = hw.apply_walk(walk, hw.apply_walk(walk, psi)).amplitudes
        dense = np.linalg.matrix_power(walk.dense, 2) @ psi.amplitudes
        assert np.abs(twice - dense).max() <= 1e-11


def test_reflection_locality():
    # The vertex reflection never moves amplitude between pairs with
    # different vertices; the edge reflection likewise per hyperedge.
    _, ps, iso, _ = pipeline(six_by_four())
    eye = np.eye(ps.size)
    reflect_v = 2 * (iso.vertex_isometry @ iso.vertex_isometry.T) - eye
    reflect_e = 2 * (iso.edge_isometry @ iso.edge_isometry.T) - eye
    for p in range(ps.size):
        moved = np.flatnonzero(np.abs(reflect_v[:, p]) > 1e-15)
        assert set(ps.pair_v[moved]) <= {ps.pair_v[p]}
        moved = np.flatnonzero(np.abs(reflect_e[:, p]) > 1e-15)
        assert set(ps.pair_e[moved]) <= {ps.pair_e[p]}


def test_apply_walk_dimension_mismatch():
    _, _, _, walk = pipeline(triangle())
    with pytest.raises(hw.DimensionMismatchError):
        hw.apply_walk(walk, random_state(4, seed=1))


def test_evolve_zero_steps_is_identity():
    _, ps, _, walk = pipeline(triangle())
    psi = random_state(ps.size, seed=2)
    out = hw.evolve(walk, psi, 0)
    np.testing.assert_array_equal(out.amplitudes, psi.amplitudes)


def test_evolve_two_steps_single_edge_against_matrix_power():
    _, ps, _, walk = pipeline(single_edge())
    psi = hw.basis_pair_state(ps, 0, 0)
    out = hw.evolve(walk, psi, 2)
    oracle = np.linalg.matrix_power(walk.dense, 2) @ psi.amplitudes
    assert np.abs(out.amplitudes - oracle).max() <= 1e-12


def test_evolve_keep_all_returns_history():
    _, ps, _, walk = pipeline(triangle())
    psi = random_state(ps.size, seed=3)
    history = hw.evolve(walk, psi, 5, keep_all=True)
    assert len(history) == 6
    np.testing.assert_array_equal(history[0].amplitudes, psi.amplitudes)


def test_evolve_long_run_norm_drift():
    _, ps, _, walk = pipeline(triangle())
    psi = random_state(ps.size, seed=4)
    out = hw.evolve(walk, psi, 1000)
    assert abs(out.norm - 1.0) <= 1e-9


def test_vertex_superposition_matches_isometry_column():
    _, ps, iso, _ = pipeline(six_by_four())
    psi = hw.vertex_superposition(iso, 2)
    np.testing.assert_allclose(psi.amplitudes, iso.vertex_isometry[:, 2], atol=1e-15)
    marginal = hw.vertex_distribution(ps, psi).probabilities
    expected = np.zeros(ps.n)
    expected[2] = 1.0
    np.testing.assert_allclose(marginal, expected, atol=1e-14)


def test_basis_pair_state_rejects_non_incident_pair():
    ps = hw.build_pair_space(triangle())
    for v, e in [(0, 1), (3, 0), (0, 3), (-1, 0), (0, -1), (2**70, 0)]:
        with pytest.raises(ValueError):
            hw.basis_pair_state(ps, v, e)


def test_vertex_distribution_single_edge_after_step():
    _, ps, _, walk = pipeline(single_edge())
    out = hw.apply_walk(walk, hw.basis_pair_state(ps, 0, 0))
    np.testing.assert_allclose(
        hw.vertex_distribution(ps, out).probabilities, [1 / 9, 4 / 9, 4 / 9], atol=1e-15
    )


def test_distributions_sum_to_one():
    for hg in battery():
        _, ps, _, _ = pipeline(hg)
        psi = random_state(ps.size, seed=13 * ps.size + 5)
        assert abs(hw.vertex_distribution(ps, psi).probabilities.sum() - 1.0) <= 1e-12
        assert abs(hw.edge_distribution(ps, psi).probabilities.sum() - 1.0) <= 1e-12


def test_uniform_state_marginals_triangle():
    _, ps, _, _ = pipeline(triangle())
    psi = hw.StateVector(np.full(6, 1 / np.sqrt(6), dtype=complex))
    np.testing.assert_allclose(
        hw.vertex_distribution(ps, psi).probabilities, np.full(3, 1 / 3), atol=1e-14
    )
    np.testing.assert_allclose(
        hw.edge_distribution(ps, psi).probabilities, np.full(3, 1 / 3), atol=1e-14
    )


def test_state_vector_rejects_bad_norm():
    with pytest.raises(ValueError):
        hw.StateVector(np.array([1.0, 1.0], dtype=complex))
