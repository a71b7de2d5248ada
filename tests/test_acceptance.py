"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one ACCEPTANCE <name>: PASS/FAIL line (visible with -s, or
in captured output on failure).
"""

import time
from collections import deque
from contextlib import contextmanager

import numpy as np

import hyperwalk as hw
from hyperwalk.spectral import pairing_distance
from conftest import (
    edge_isometry,
    half_steps,
    incidence,
    pipeline,
    random_state,
    single_edge,
    six_by_four,
    triangle,
    vertex_isometry,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    else:
        print(f"ACCEPTANCE {name}: PASS")


def seeded_instances(count, seed, max_n=60, max_pairs=512):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n, m, k, d = hw.random_feasible_parameters(rng, max_n=max_n, max_pairs=max_pairs)
        out.append(hw.random_regular_uniform(n, m, k, d, seed=int(rng.integers(2**63))))
    return out


def acceptance_battery():
    return [single_edge(), triangle(), six_by_four()] + seeded_instances(20, seed=1001)


def test_degree_handshake_200_instances():
    with criterion("degree-handshake"):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        seen_k, seen_d = set(), set()
        for _ in range(200):
            n, m, k, d = hw.random_feasible_parameters(rng, max_n=60, max_pairs=512)
            hg = hw.random_regular_uniform(n, m, k, d, seed=int(rng.integers(2**63)))
            profile = hw.degree_profile(hg)
            total_v = int(profile.vertex_degrees.sum())
            total_e = int(profile.edge_degrees.sum())
            size = pipeline(hg)[1].size
            assert total_v == total_e == size == n * d == m * k
            seen_k.add(k)
            seen_d.add(d)
        assert seen_k == {2, 3, 4, 5} and seen_d == {1, 2, 3, 4, 5}
        assert time.perf_counter() - start < 5.0


def test_row_stochasticity():
    with criterion("row-stochasticity"):
        for hg in acceptance_battery():
            vertex_to_edge, edge_to_vertex = half_steps(hw.build_transitions(hg))
            assert np.abs(vertex_to_edge.sum(axis=1) - 1.0).max() <= 1e-12
            assert np.abs(edge_to_vertex.sum(axis=1) - 1.0).max() <= 1e-12


def test_isometry_property():
    with criterion("isometry"):
        for hg in acceptance_battery():
            _, walk = pipeline(hg)
            a, b = vertex_isometry(walk), edge_isometry(walk)
            assert np.abs(a.T @ a - np.eye(hg.n)).max() <= 1e-12
            assert np.abs(b.T @ b - np.eye(hg.m)).max() <= 1e-12


def test_walk_orthogonality():
    with criterion("walk-orthogonality"):
        for hg in acceptance_battery():
            _, walk = pipeline(hg)
            if walk.size > 512:
                continue
            matrix = hw.walk_action(walk, np.eye(walk.size))
            assert np.abs(matrix.T @ matrix - np.eye(walk.size)).max() <= 1e-10


def test_singular_values_bounded():
    with criterion("singular-value-bounds"):
        for hg in seeded_instances(200, seed=1002):
            ts = hw.build_transitions(hg)
            sigma = hw.full_svd(hw.discriminant(ts)).singular_values
            assert sigma.min() >= -1e-10
            assert sigma.max() <= 1.0 + 1e-10
            if hw.is_connected(hg):
                assert abs(sigma.max() - 1.0) <= 1e-10


def test_spectral_prediction_end_to_end():
    with criterion("spectral-prediction-end-to-end"):
        start = time.perf_counter()
        for hg in seeded_instances(50, seed=1003):
            report = hw.analyze(hg)
            assert report.size <= 512
            assert report.verdict == "pass"
            assert report.max_pairing_distance <= 1e-8
            assert report.max_residual <= 1e-8
        assert time.perf_counter() - start < 60.0


def test_single_hyperedge_pins():
    with criterion("single-hyperedge-pins"):
        hg = single_edge()
        _, walk = pipeline(hg)
        grover = 2 * np.ones((3, 3)) / 3 - np.eye(3)
        assert np.abs(hw.walk_action(walk, np.eye(3)) - grover).max() <= 1e-14
        spectrum = np.sort(hw.brute_force_spectrum(walk).real)
        np.testing.assert_allclose(spectrum, [-1.0, -1.0, 1.0], atol=1e-12)
        stepped = hw.apply_walk(walk, hw.basis_pair_state(hg, 0, 0))
        marginal = hw.vertex_distribution(hg, stepped).probabilities
        np.testing.assert_allclose(marginal, [1 / 9, 4 / 9, 4 / 9], atol=1e-12)


def test_triangle_pins():
    with criterion("triangle-pins"):
        hg = triangle()
        ts = hw.build_transitions(hg)
        sigma = hw.full_svd(hw.discriminant(ts)).singular_values
        np.testing.assert_allclose(sigma, [1.0, 0.5, 0.5], atol=1e-12)
        report = hw.analyze(hg)
        assert report.verdict == "pass"
        third = np.exp(2j * np.pi / 3)
        expected = np.array([1.0, 1.0, third, third, third.conjugate(), third.conjugate()])
        assert pairing_distance(report.actual, expected) <= 1e-10
        assert pairing_distance(report.predicted, expected) <= 1e-10


def test_invariant_subspace_relations():
    with criterion("invariant-subspace-relations"):
        for hg in seeded_instances(20, seed=1004):
            ts, walk = pipeline(hg)
            svd = hw.full_svd(hw.discriminant(ts))
            a_mu = vertex_isometry(walk) @ svd.left_vectors
            b_nu = edge_isometry(walk) @ svd.right_vectors
            r = svd.singular_values.size
            w_a = hw.walk_action(walk, a_mu[:, :r])
            w_b = hw.walk_action(walk, b_nu[:, :r])
            for idx, s in enumerate(svd.singular_values):
                assert np.abs(w_a[:, idx] - (2 * s * b_nu[:, idx] - a_mu[:, idx])).max() <= 1e-10
                rhs = (4 * s**2 - 1) * b_nu[:, idx] - 2 * s * a_mu[:, idx]
                assert np.abs(w_b[:, idx] - rhs).max() <= 1e-10


def test_norm_conservation_long_runs():
    with criterion("norm-conservation"):
        instances = [hw.random_regular_uniform(400, 500, 4, 5, seed=2001)]
        instances += seeded_instances(9, seed=1005, max_n=400, max_pairs=2000)
        for hg in instances:
            _, walk = pipeline(hg)
            assert walk.size <= 2000
            states = hw.evolve(walk, random_state(walk.size, seed=walk.size), 1000)
            psi = deque(states, maxlen=1).pop()
            assert abs(psi.norm - 1.0) <= 1e-9


def test_classical_consistency():
    with criterion("classical-consistency"):
        for hg in acceptance_battery():
            ts = hw.build_transitions(hg)
            h = incidence(hg)
            d = h.sum(axis=1)
            delta = h.sum(axis=0)
            scalar = np.zeros((hg.n, hg.n))
            for i in range(hg.n):
                for j in range(hg.n):
                    scalar[i, j] = sum(
                        h[i, k] * h[j, k] / (d[i] * delta[k]) for k in range(hg.m)
                    )
            vertex_to_edge, edge_to_vertex = half_steps(ts)
            chain = vertex_to_edge @ edge_to_vertex
            assert np.abs(chain - scalar).max() <= 1e-14
            assert np.abs(chain - chain.T).max() <= 1e-14
        ts = hw.build_transitions(triangle())
        path = hw.sample_trajectory(ts, 0, 100_000, seed=17)
        visits = np.bincount(path[::2], minlength=3) / len(path[::2])
        assert 0.5 * np.abs(visits - 1 / 3).sum() <= 0.01
