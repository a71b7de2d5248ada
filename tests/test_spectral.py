"""Discriminant, SVD, spectrum prediction, brute-force verification."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import hyperwalk as hw
from conftest import (
    IRREGULAR,
    battery,
    cycle,
    dense_walk,
    disjoint_union,
    edge_isometry,
    eigenvectors,
    hub_and_rim,
    incidence,
    pipeline,
    random_instances,
    random_state,
    single_edge,
    six_by_four,
    triangle,
    union_find_components,
    union_find_partition,
    vertex_isometry,
)
from hyperwalk.spectral import cycle_basis, pairing_distance


def test_discriminant_single_edge():
    ts, _ = pipeline(single_edge())
    disc = hw.discriminant(ts)
    np.testing.assert_allclose(disc, np.full((3, 1), 1 / np.sqrt(3)), atol=1e-15)


def test_discriminant_triangle_is_half_incidence():
    ts, _ = pipeline(triangle())
    disc = hw.discriminant(ts)
    np.testing.assert_allclose(disc, incidence(triangle()) / 2.0, atol=1e-15)


def test_discriminant_regular_uniform_scaling():
    for hg in random_instances(6, seed=41):
        profile = hw.degree_profile(hg)
        ts, _ = pipeline(hg)
        expected = incidence(hg) / np.sqrt(profile.d * profile.k)
        assert np.abs(hw.discriminant(ts) - expected).max() <= 1e-15


def test_discriminant_support_matches_incidence():
    for hg in battery():
        ts, _ = pipeline(hg)
        np.testing.assert_array_equal(hw.discriminant(ts) > 0, incidence(hg) > 0)


def test_triangle_singular_values_against_gram_oracle():
    ts, _ = pipeline(triangle())
    svd = hw.full_svd(hw.discriminant(ts))
    h = incidence(triangle())
    oracle = np.sqrt(np.sort(np.linalg.eigvalsh(h @ h.T))[::-1]) / 2.0
    np.testing.assert_allclose(svd.singular_values, oracle, atol=1e-12)
    np.testing.assert_allclose(svd.singular_values, [1.0, 0.5, 0.5], atol=1e-12)


def test_full_svd_reconstructs_and_is_orthogonal():
    for hg in battery():
        ts, _ = pipeline(hg)
        disc = hw.discriminant(ts)
        svd = hw.full_svd(disc)
        n, m = disc.shape
        r = min(n, m)
        rebuilt = (svd.left_vectors[:, :r] * svd.singular_values) @ svd.right_vectors[:, :r].T
        assert np.abs(rebuilt - disc).max() <= 1e-10
        assert np.abs(svd.left_vectors.T @ svd.left_vectors - np.eye(n)).max() <= 1e-12
        assert np.abs(svd.right_vectors.T @ svd.right_vectors - np.eye(m)).max() <= 1e-12


def test_singular_triples_satisfy_defining_relations():
    for hg in battery():
        ts, _ = pipeline(hg)
        disc = hw.discriminant(ts)
        svd = hw.full_svd(disc)
        for idx, s in enumerate(svd.singular_values):
            mu = svd.left_vectors[:, idx]
            nu = svd.right_vectors[:, idx]
            assert np.abs(disc @ nu - s * mu).max() <= 1e-10
            assert np.abs(mu @ disc - s * nu).max() <= 1e-10


def test_single_edge_svd_shape():
    ts, _ = pipeline(single_edge())
    svd = hw.full_svd(hw.discriminant(ts))
    assert svd.singular_values.shape == (1,)
    np.testing.assert_allclose(svd.singular_values, [1.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(svd.left_vectors[:, 0]), np.full(3, 1 / np.sqrt(3)), atol=1e-12)
    assert svd.left_vectors.shape == (3, 3)


def test_singular_values_bounded_and_top_is_one():
    for hg in battery():
        ts, _ = pipeline(hg)
        sigma = hw.full_svd(hw.discriminant(ts)).singular_values
        assert sigma.min() >= -1e-10
        assert sigma.max() <= 1.0 + 1e-10
        profile = hw.degree_profile(hg)
        if profile.is_regular and profile.is_uniform and hw.is_connected(hg):
            assert abs(sigma.max() - 1.0) <= 1e-10


def test_classification_tags():
    # The unit tag is the first value's, whatever the tolerance; a value just
    # below 1 after it is interior, and a small one null only within the tolerance.
    sigma = np.array([1.0 - 1.1e-16, 1.0 - 1e-12, 0.5, 1e-12])
    tags = ("unit", "interior", "interior", "null")
    assert hw.classify_singular_values(sigma, tol=1e-9) == tags
    assert hw.classify_singular_values(sigma, tol=1e-17) == tags[:3] + ("interior",)
    assert hw.classify_singular_values(sigma, tol=1e-3) == tags
    assert hw.classify_singular_values(np.array([1e-12]), tol=1e-3) == ("unit",)


def test_classification_rejects_bad_tolerance():
    with pytest.raises(hw.HyperwalkError, match=r"tolerance must be in \(0, 0.001\], got 0.5"):
        hw.classify_singular_values(np.array([0.5]), tol=0.5)
    with pytest.raises(hw.HyperwalkError, match=r"tolerance must be in \(0, 0.001\], got 0.0"):
        hw.classify_singular_values(np.array([0.5]), tol=0.0)


def test_predicted_multiset_single_edge():
    _, walk = pipeline(single_edge())
    pred = hw.predict_spectrum(walk)
    values = sorted(pred.eigenvalues.real.round(12).tolist())
    assert values == [-1.0, -1.0, 1.0]
    actual = hw.brute_force_spectrum(walk)
    assert hw.verify(pred, actual).passed


def test_predicted_multiset_triangle():
    _, walk = pipeline(triangle())
    pred = hw.predict_spectrum(walk)
    counts = {}
    for z in pred.eigenvalues:
        key = (round(z.real, 9), round(z.imag, 9))
        counts[key] = counts.get(key, 0) + 1
    third = np.exp(2j * np.pi / 3)
    assert counts[(1.0, 0.0)] == 2
    assert counts[(round(third.real, 9), round(third.imag, 9))] == 2
    assert counts[(round(third.real, 9), -round(third.imag, 9))] == 2
    verdict = hw.verify(pred, hw.brute_force_spectrum(walk))
    assert verdict.passed and verdict.max_pairing_distance < 1e-10


def test_predicted_multiplicities_sum_to_dimension():
    for hg in battery():
        _, walk = pipeline(hg)
        pred = hw.predict_spectrum(walk)
        assert pred.eigenvalues.size == walk.size


def test_predicted_vectors_are_unit_norm():
    for hg in [triangle(), six_by_four()] + random_instances(5, seed=42):
        _, walk = pipeline(hg)
        pred = hw.predict_spectrum(walk)
        norms = np.linalg.norm(eigenvectors(pred), axis=0)
        assert np.abs(norms - 1.0).max() <= 1e-12


def test_invariant_subspace_relations():
    # W(A mu) = 2 sigma (B nu) - A mu;  W(B nu) = (4 sigma^2 - 1)(B nu) - 2 sigma (A mu)
    for hg in [triangle(), six_by_four()] + random_instances(6, seed=43):
        ts, walk = pipeline(hg)
        svd = hw.full_svd(hw.discriminant(ts))
        a_mu = vertex_isometry(walk) @ svd.left_vectors
        b_nu = edge_isometry(walk) @ svd.right_vectors
        r = svd.singular_values.size
        w_a = hw.walk_action(walk, a_mu[:, :r])
        w_b = hw.walk_action(walk, b_nu[:, :r])
        for idx, s in enumerate(svd.singular_values):
            lhs = w_a[:, idx]
            rhs = 2 * s * b_nu[:, idx] - a_mu[:, idx]
            assert np.abs(lhs - rhs).max() <= 1e-10
            lhs = w_b[:, idx]
            rhs = (4 * s**2 - 1) * b_nu[:, idx] - 2 * s * a_mu[:, idx]
            assert np.abs(lhs - rhs).max() <= 1e-10


def test_principal_angle_relation():
    for hg in [triangle(), six_by_four()] + random_instances(5, seed=44):
        ts, walk = pipeline(hg)
        svd = hw.full_svd(hw.discriminant(ts))
        a_mu = vertex_isometry(walk) @ svd.left_vectors
        b_nu = edge_isometry(walk) @ svd.right_vectors
        for idx, s in enumerate(svd.singular_values):
            overlap = float(a_mu[:, idx] @ b_nu[:, idx])
            assert abs(overlap - s) <= 1e-12


def test_brute_force_spectrum_pins():
    _, walk = pipeline(single_edge())
    values = np.sort(hw.brute_force_spectrum(walk).real)
    np.testing.assert_allclose(values, [-1.0, -1.0, 1.0], atol=1e-12)
    _, walk = pipeline(triangle())
    spectrum = hw.brute_force_spectrum(walk)
    assert np.abs(np.abs(spectrum) - 1.0).max() <= 1e-9
    ones = np.sum(np.abs(spectrum - 1.0) < 1e-9)
    assert ones == 2


def test_brute_force_requires_dense(monkeypatch):
    monkeypatch.setenv(hw.DENSE_CAP_ENV, "4")
    _, walk = pipeline(triangle())
    with pytest.raises(hw.HyperwalkError, match="pair dimension 6 exceeds dense cap 4"):
        hw.brute_force_spectrum(walk)
    # The cap bounds N, not the largest component: two triangles are refused
    # at a cap each of their 6-pair blocks would fit.
    monkeypatch.setenv(hw.DENSE_CAP_ENV, "6")
    _, walk = pipeline(disjoint_union(triangle(), triangle()))
    with pytest.raises(hw.HyperwalkError, match="pair dimension 12 exceeds dense cap 6"):
        hw.brute_force_spectrum(walk)


def test_corrupted_prediction_fails_with_distance_two():
    _, walk = pipeline(single_edge())
    pred = hw.predict_spectrum(walk)
    corrupted_values = pred.eigenvalues.copy()
    plus_one = int(np.argmax(corrupted_values.real))
    corrupted_values[plus_one] = -1.0 + 0.0j
    corrupted = dataclasses.replace(pred, eigenvalues=corrupted_values)
    verdict = hw.verify(corrupted, hw.brute_force_spectrum(walk))
    assert not verdict.passed
    assert verdict.max_pairing_distance == pytest.approx(2.0, abs=1e-8)


def test_pairing_count_mismatch():
    with pytest.raises(hw.HyperwalkError, match="predicted has 3 eigenvalues, actual has 2"):
        pairing_distance(np.ones(3, dtype=complex), np.ones(2, dtype=complex))


def assert_count_rule(hg):
    """complex = 2 #interior, -1 = |n-m| + 2 #null, +1 = N-n-m + 2 #unit, against eig."""
    _, walk = pipeline(hg)
    pred = hw.predict_spectrum(walk)
    tags = pred.classification
    complex_count = int(np.sum(np.abs(pred.eigenvalues.imag) > 1e-9))
    minus = int(np.sum(np.abs(pred.eigenvalues + 1.0) < 1e-9))
    plus = int(np.sum(np.abs(pred.eigenvalues - 1.0) < 1e-9))
    assert complex_count == 2 * tags.count("interior")
    assert minus == abs(hg.n - hg.m) + 2 * tags.count("null")
    assert plus == walk.size - hg.n - hg.m + 2 * tags.count("unit")
    a, b = vertex_isometry(walk), edge_isometry(walk)
    eye = np.eye(walk.size)
    reflect_v = 2 * (a @ a.T) - eye
    reflect_e = 2 * (b @ b.T) - eye
    oracle = np.linalg.eigvals(reflect_e @ reflect_v)
    assert pairing_distance(pred.eigenvalues, oracle) <= 1e-8
    assert pred.max_residual <= 1e-8


def test_generic_counts_with_synthetic_isometries():
    # More vertices than hyperedges: the unpaired -1 block sits on the vertex side.
    assert_count_rule(six_by_four())


def test_generic_counts_synthetic_wide_case():
    # More hyperedges than vertices: the unpaired -1 block sits on the edge side.
    assert_count_rule(hw.random_regular_uniform(4, 8, 2, 4, seed=46))


@pytest.mark.parametrize("n, edges, units", IRREGULAR)
def test_irregular_instances(n, edges, units):
    # Outside the regular uniform family the isometry weights differ from
    # pair to pair, so a pair indexed by the wrong degree shows up here.
    hg = hw.from_edge_lists(n, edges)
    report = hw.analyze(hg)
    assert report.verdict == "pass"
    assert report.classification.count("unit") == units
    assert sum(entry["multiplicity"] for entry in report.to_json_dict()["predicted"]) == report.size
    _, walk = pipeline(hg)
    psi = random_state(walk.size, seed=walk.size)
    assert np.abs(hw.apply_walk(walk, psi).amplitudes - dense_walk(walk) @ psi.amplitudes).max() <= 1e-12


def test_cycle_basis_spans_the_complement():
    instances = [hw.from_edge_lists(*case.values[:2]) for case in IRREGULAR]
    instances += random_instances(10, seed=47) + [cycle(7)]
    for hg in instances:
        _, walk = pipeline(hg)
        pred = hw.predict_spectrum(walk)
        lo, cycles = 0, 0
        for _, block in walk.components:
            part = block.hypergraph
            basis, closing = cycle_basis(part)
            assert basis.shape == (block.size, block.size - part.n - part.m + 1)
            assert set(np.unique(basis).tolist()) <= {-1, 0, 1}
            np.testing.assert_array_equal(basis[closing], np.eye(basis.shape[1]))
            for column in basis.T:
                assert not np.bincount(part.pair_v, weights=column, minlength=part.n).any()
                assert not np.bincount(part.pair_e, weights=column, minlength=part.m).any()
            assert np.linalg.matrix_rank(basis) == basis.shape[1]
            # One +1 per cycle, last in its block's eigenvalues.
            lo, cycles = lo + block.size, cycles + basis.shape[1]
            np.testing.assert_array_equal(pred.eigenvalues[lo - basis.shape[1] : lo], 1.0)
        assert cycles == walk.size - hg.n - hg.m + union_find_components(hg)
        # The other exact +1s are the unit indices.
        assert np.count_nonzero(pred.eigenvalues == 1.0) == cycles + pred.classification.count("unit")
        assert pred.residuals.size == walk.size
        assert np.abs(np.linalg.norm(eigenvectors(pred), axis=0) - 1.0).max() <= 1e-12


def twenty_copies() -> hw.Hypergraph:
    """20 seeded copies of (12, 8, 3, 2) side by side: N = 480."""
    return disjoint_union(*(hw.random_regular_uniform(12, 8, 3, 2, seed=seed) for seed in range(20)))


def mixed_orientation() -> hw.Hypergraph:
    """Components with more vertices than hyperedges (3, 1), fewer (1, 2) and as many (3, 3): their
    1 + 1 + 3 singular values fall one short of min(n, m) = 6, a zero that pairs two unpaired sides."""
    return hw.from_edge_lists(7, [[0, 1, 2], [3], [3], [4, 5], [5, 6], [4, 6]])


STREAMED = [
    pytest.param(lambda case=case: hw.from_edge_lists(*case.values[:2]), 1e-9, id=case.id)
    for case in IRREGULAR
] + [
    pytest.param(six_by_four, 1e-9, id="six-by-four"),
    pytest.param(lambda: hw.random_regular_uniform(128, 64, 4, 2, seed=48), 1e-9, id="N256"),
    pytest.param(lambda: hw.random_regular_uniform(300, 200, 3, 2, seed=49), 1e-9, id="N600"),
    pytest.param(lambda: hw.random_regular_uniform(100, 150, 2, 3, seed=50), 1e-9, id="N300-wide"),
    pytest.param(lambda: cycle(200), 1e-3, id="cycle200-classify-tol-1e-3"),
    # min(n, m) and the cycle count N - n - m + c at 30..34, around the block width.
    pytest.param(lambda: hw.random_regular_uniform(60, 30, 4, 2, seed=51), 1e-9, id="min30-cycles31"),
    pytest.param(lambda: hw.random_regular_uniform(62, 31, 4, 2, seed=51), 1e-9, id="min31-cycles32"),
    pytest.param(lambda: hw.random_regular_uniform(64, 32, 4, 2, seed=51), 1e-9, id="min32-cycles33"),
    pytest.param(lambda: hw.random_regular_uniform(66, 33, 4, 2, seed=51), 1e-9, id="min33-cycles34"),
    pytest.param(lambda: disjoint_union(six_by_four(), cycle(33), triangle()), 1e-9, id="three-components"),
    pytest.param(twenty_copies, 1e-9, id="twenty-copies-N480"),
    pytest.param(mixed_orientation, 1e-9, id="mixed-orientation"),
]


@pytest.mark.parametrize("build, classify_tol", STREAMED)
def test_streamed_residuals_match_dense_columns(build, classify_tol):
    # Residuals come from blocks of singular indices and cycles, walked and
    # dropped one at a time; they must equal the column norms of
    # W V - V diag(lambda) for the eigenvector matrix V that the test helper
    # builds on its own, one column at a time. N = 128 and N = 256 are exact
    # multiples of the block width; the other sizes are not.
    hg = build()
    _, walk = pipeline(hg)
    pred = hw.predict_spectrum(walk, tol=classify_tol)
    vectors = eigenvectors(pred)
    assert vectors.shape == (walk.size, walk.size) and vectors.dtype == np.complex128
    np.testing.assert_array_equal(eigenvectors(pred), vectors)
    dense = np.linalg.norm(dense_walk(walk) @ vectors - vectors * pred.eigenvalues, axis=0)
    assert np.abs(pred.residuals - dense).max() <= 1e-12


def spectrum_mid_union():
    """The shape of the benchmark's two-component input: N = 600 + 600."""
    return disjoint_union(
        hw.random_regular_uniform(300, 200, 3, 2, seed=1), hw.random_regular_uniform(200, 150, 4, 3, seed=2)
    )


DISCONNECTED = [
    pytest.param(spectrum_mid_union, id="spectrum-mid-union"),
    *(
        pytest.param(lambda case=case: hw.from_edge_lists(*case.values[:2]), id=case.id)
        for case in IRREGULAR
        if case.values[2] > 1
    ),
    pytest.param(lambda: hw.from_edge_lists(4, [{0}, {1}, {2}, {3}]), id="four-singletons"),
    pytest.param(lambda: hw.from_edge_lists(5, [{0}, {1, 2}, {3}, {1, 2}, {4}, {4}]), id="singletons-and-a-pair"),
    pytest.param(
        lambda: disjoint_union(hw.from_edge_lists(4, [{0, 1, 2}, {2, 3}, {0, 3}]), six_by_four(), cycle(5)),
        id="irregular-pieces",
    ),
    pytest.param(twenty_copies, id="twenty-copies-N480"),
    pytest.param(mixed_orientation, id="mixed-orientation"),
]


def test_mixed_orientation_report_is_pinned():
    # The blocks' singular values and tags merge in descending order, padded with one null zero
    # to min(n, m), as an SVD of the whole discriminant has them.
    report = hw.analyze(mixed_orientation())
    assert report.verdict == "pass"
    assert report.classification == ("unit", "unit", "unit", "interior", "interior", "null")
    np.testing.assert_allclose(report.singular_values, [1.0, 1.0, 1.0, 0.5, 0.5, 0.0], atol=1e-12)
    assert report.deviations == (
        "null singular values present: each assigned two -1 eigenvalues (outside the generic all-interior case)",
        "1 unpaired vertex-side directions assigned eigenvalue -1",
    )


def path(edges: int) -> hw.Hypergraph:
    """The path of `edges` two-vertex edges."""
    return hw.from_edge_lists(edges + 1, [{i, i + 1} for i in range(edges)])


def barbell(clique: int, path: int) -> hw.Hypergraph:
    """Two complete 3-uniform hypergraphs on `clique` vertices, joined by a path of `path` edges."""
    ends = [(i, j, k) for i in range(clique) for j in range(i + 1, clique) for k in range(j + 1, clique)]
    left = [set(edge) for edge in ends]
    bridge = [{clique - 1 + i, clique + i} for i in range(path)]
    right = [{v + clique + path - 1 for v in edge} for edge in ends]
    return hw.from_edge_lists(2 * clique + path - 1, left + bridge + right)


def clique_with_tail(clique: int, tail: int) -> hw.Hypergraph:
    """A complete 3-uniform hypergraph on `clique` vertices with a path of `tail` edges off its last vertex."""
    ends = [{i, j, k} for i in range(clique) for j in range(i + 1, clique) for k in range(j + 1, clique)]
    return hw.from_edge_lists(clique + tail, ends + [{clique - 1 + i, clique + i} for i in range(tail)])


# One component each: the benchmark's connected shapes at N = 300, a tree
# (no cycle space), single cycles, a barbell with a small spectral gap, and a
# long path hanging off a dense part.
CONNECTED = [
    pytest.param(lambda: hw.random_regular_uniform(150, 100, 3, 2, seed=1), id="tall-N300"),
    pytest.param(lambda: hw.random_regular_uniform(100, 75, 4, 3, seed=1), id="cycles-N300"),
    pytest.param(lambda: hw.random_regular_uniform(75, 100, 3, 4, seed=1), id="wide-N300"),
    pytest.param(lambda: path(150), id="path150"),
    pytest.param(lambda: cycle(200), id="cycle200"),
    pytest.param(lambda: barbell(7, 150), id="barbell-N510"),
    pytest.param(lambda: clique_with_tail(7, 200), id="clique7-tail200"),
    # Eigenvalues exactly at +/- i: the pi/2 seam between the oracle's two solves.
    pytest.param(lambda: cycle(8), id="cycle8"),
    pytest.param(lambda: hub_and_rim(301), id="hub-and-rim-N903"),
    # sigma_min = sin(pi / 104) = 0.0302, just above the cos(phi / 2) below which the oracle
    # reads a component's phases from two solves, so its phases near pi come from arcsin alone.
    pytest.param(lambda: path(52), id="path52"),
]

# A phase near pi, with cos(phi / 2) = sigma below 0.03, sends a component to the oracle's second
# solve: sigma = 0 on the null-sigma pair (and on cycle200), sigma_min = sin(pi / 600) on path300.
NEAR_PI = [
    pytest.param(lambda: hw.from_edge_lists(2, [{0, 1}, {0, 1}]), id="null-sigma"),
    pytest.param(lambda: path(300), id="path300"),
]


def component_sizes(hg) -> list[tuple[int, int, int]]:
    """(N_i, n_i, m_i) of each component, from union_find_partition."""
    sizes = []
    for part in union_find_partition(hg):
        pairs = np.isin(hg.pair_v, list(part))
        sizes.append((np.count_nonzero(pairs), len(part), np.unique(hg.pair_e[pairs]).size))
    return sizes


@pytest.mark.parametrize("build", DISCONNECTED + CONNECTED + NEAR_PI)
def test_blocked_oracle_matches_dense_eigvals(build):
    # The singular values of one triangular factor per component, or of two where a phase nears
    # pi, must give the spectrum of the whole dense matrix.
    hg = build()
    _, walk = pipeline(hg)
    blocked = hw.brute_force_spectrum(walk)
    assert blocked.shape == (walk.size,)
    assert pairing_distance(blocked, np.linalg.eigvals(dense_walk(walk))) <= 1e-12
    # Outside the compression, each component's N_i - n_i - m_i phases, if positive, are exactly 0,
    # and its |n_i - m_i| unpaired directions on the larger side are exactly pi.
    sizes = component_sizes(hg)
    assert np.count_nonzero(blocked == 1.0) >= sum(max(0, size - n - m) for size, n, m in sizes)
    assert np.count_nonzero(blocked.real == -1.0) >= sum(abs(n - m) for _, n, m in sizes)
    assert hw.analyze(hg).verdict == "pass"


@pytest.mark.parametrize(
    "build, solves",
    [
        *(
            pytest.param(*param.values, 1, id=param.id)
            for param in CONNECTED + DISCONNECTED
            if param.id in {"tall-N300", "wide-N300", "spectrum-mid-union"}
        ),
        *(
            pytest.param(lambda case=case: hw.from_edge_lists(*case.values[:2]), 1, id=case.id)
            for case in IRREGULAR
            if case.id in {"singleton-edges", "one-vertex-two-edges"}
        ),
        *(
            pytest.param(*param.values, 2, id=param.id)
            for param in CONNECTED + NEAR_PI
            if param.id in {"cycle200", "null-sigma", "path300"}
        ),
    ],
)
def test_oracle_solves_have_order_k_plus_the_smaller_side(build, solves, monkeypatch):
    # Each component's first solve takes the singular values of R, of k_i x s_i with
    # k_i = min(N_i - l_i, s_i), l_i and s_i its larger and smaller side: the l_i - s_i unpaired
    # directions never reach it. A component takes a second, of the s_i x s_i R1, only when a phase
    # nears pi, as on cycle200, null-sigma and path300. No symmetric eigensolver runs.
    hg = build()
    _, walk = pipeline(hg)
    shapes, svd = [], np.linalg.svd

    def recording(a, compute_uv=True):
        assert not compute_uv
        shapes.append(a.shape)
        return svd(a, compute_uv=False)

    def unused(*args, **kwargs):
        raise AssertionError("eigvalsh called by the oracle")

    monkeypatch.setattr(np.linalg, "svd", recording)
    monkeypatch.setattr(np.linalg, "eigvalsh", unused)
    hw.brute_force_spectrum(walk)
    expected = []
    for size, n, m in component_sizes(hg):
        s = min(n, m)
        expected += [(min(size - max(n, m), s), s)] + [(s, s)] * (solves - 1)
    assert sorted(shapes) == sorted(expected)


def test_analyze_takes_one_discriminant_svd_per_component(monkeypatch):
    # The predictor factors each component's n_i x m_i discriminant, never the whole 500 x 350 one;
    # the oracle's value-only SVDs are not recorded.
    shapes, svd = [], np.linalg.svd

    def recording(a, *args, compute_uv=True, **kwargs):
        if compute_uv:
            shapes.append(a.shape)
        return svd(a, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    assert hw.analyze(spectrum_mid_union()).verdict == "pass"
    assert sorted(shapes) == [(200, 150), (300, 200)]


def test_oracle_reads_its_sines_from_the_tail_qr(monkeypatch):
    # The first singular value solve receives R, from the QR of H S off the first pairs. Its
    # rows' signs are the QR's choice, but R^T R = S^T (I - L L^T) S = I - D^T D with D = L^T S.
    hg = clique_with_tail(7, 200)  # N = 505 with l = m = 235, s = n = 207 and k = 207
    _, walk = pipeline(hg)
    (size, n, m), = component_sizes(hg)
    k = min(size - max(n, m), min(n, m))
    factors, solved = {}, []
    qr, svd = np.linalg.qr, np.linalg.svd

    def recording_qr(a, mode):
        factors[a.shape[0]] = qr(a, mode=mode)  # keyed by rows: N - l off the first pairs
        return factors[a.shape[0]]

    def recording_svd(a, compute_uv=True):
        solved.append(a.copy())
        return svd(a, compute_uv=compute_uv)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    hw.brute_force_spectrum(walk)
    r = solved[0]
    assert r.shape == (k, min(n, m))
    assert np.abs(r - factors[size - max(n, m)]).max() <= 1e-12
    d = edge_isometry(walk).T @ vertex_isometry(walk)
    assert np.abs(r.T @ r - (np.eye(n) - d.T @ d)).max() <= 1e-12


def test_blocked_oracle_builds_no_dense_walk_matrix():
    # The two blocks are 600 x 600, a quarter of the N x N walk matrix each.
    hg = spectrum_mid_union()
    _, walk = pipeline(hg)
    hg.segments  # cached on first use, so the peak below does not include it
    tracemalloc.start()
    try:
        hw.brute_force_spectrum(walk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * walk.size**2 * 8


def test_blocked_oracle_rejects_labels_that_split_a_hyperedge(monkeypatch):
    # The oracle and the predictor take their blocks from one grouping, so both refuse it.
    monkeypatch.setattr(hw.operators, "component_labels", lambda hg: np.arange(hg.n))
    _, walk = pipeline(triangle())
    with pytest.raises(hw.HyperwalkError, match="component labels split a hyperedge"):
        hw.brute_force_spectrum(walk)
    with pytest.raises(hw.HyperwalkError, match="component labels split a hyperedge"):
        hw.predict_spectrum(walk)


def test_oracle_accepts_weights_that_vary_within_a_vertex(monkeypatch):
    # The oracle needs A and B to be isometries, not constant weights on a
    # vertex's pairs, and it builds no cycle basis for either: six_by_four has 3 cycles.
    _, walk = pipeline(six_by_four())
    walks = [walk]
    # Vertex 0 keeps a unit column of A; at the tilt a reflector of the wrong sign cancels to 0.
    for first in ([0.6, 0.8], [np.cos(1e-9), np.sin(1e-9)]):
        a = walk.vertex_weights.copy()  # WalkOperator keeps the array it is given
        a[:2] = first
        walks.append(hw.WalkOperator(walk.hypergraph, a, walk.edge_weights))

    def unused(hg):
        raise AssertionError("cycle_basis called by the oracle")

    monkeypatch.setattr(hw.spectral, "cycle_basis", unused)
    for weighted in walks:
        assert pairing_distance(hw.brute_force_spectrum(weighted), np.linalg.eigvals(dense_walk(weighted))) <= 1e-12


@pytest.mark.parametrize("side", ["vertex", "edge"])
def test_oracle_rejects_weights_that_are_not_isometries(side):
    # Scaling one pair's weight breaks the unit sum of its vertex's, or its hyperedge's, weights.
    _, walk = pipeline(six_by_four())
    a, b = walk.vertex_weights.copy(), walk.edge_weights.copy()
    (a if side == "vertex" else b)[0] *= 1.001
    with pytest.raises(hw.HyperwalkError, match="do not make A and B isometries"):
        hw.brute_force_spectrum(hw.WalkOperator(walk.hypergraph, a, b))


def test_oracle_and_prediction_memory_budget():
    # At N = 1200 an N x N real matrix is N^2 * 8 bytes, and nothing below
    # builds the walk matrix. The oracle stays under one of those, even when
    # one hyperedge holds every pair or a phase nears pi; the residual pass
    # over the prediction holds one block of columns at a time, under half an
    # N x N matrix, and the test helper's eigenvector matrix is the only N x N
    # array it builds.
    hg = hw.random_regular_uniform(600, 400, 3, 2, seed=1)
    _, walk = pipeline(hg)
    _, crowded = pipeline(hw.from_edge_lists(1200, [range(1200)]))
    # A large cycle space: R is min(N - n, m) x m = 300 x 300 of N = 1200.
    _, cyclic = pipeline(hw.random_regular_uniform(400, 300, 4, 3, seed=1))
    # A null sigma sends the oracle to its second solve, of the 600 x 600 R1.
    _, ring = pipeline(cycle(600))
    prediction = hw.predict_spectrum(walk)
    for instance in (hg, crowded.hypergraph, cyclic.hypergraph, ring.hypergraph):
        instance.segments  # cached on first use, so no peak below includes it
    matrix_bytes = walk.size**2 * 8

    def traced_peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # The oracle's largest arrays are the (N - l) x s tail, l >= s the two sides, and its QR's
    # copy; R, k x s with k = min(N - l, s), is dropped before the l x s scatter of L^T S and its
    # QR, made only when a phase nears pi. The single hyperedge has l = 1200 and s = 1, so only
    # O(N) arrays remain.
    for instance in (walk, cyclic, ring):
        assert traced_peak(lambda: hw.brute_force_spectrum(instance)) <= 1.0 * matrix_bytes
    assert traced_peak(lambda: hw.brute_force_spectrum(crowded)) <= 0.1 * matrix_bytes
    assert traced_peak(lambda: prediction.residuals) <= 0.5 * matrix_bytes
    # The complex eigenvector matrix is 2 * matrix_bytes and is filled column by column.
    assert traced_peak(lambda: eigenvectors(prediction)) <= 2.5 * matrix_bytes


def test_loose_classify_tol_tags_one_unit_and_passes():
    # The 200-cycle has sigma_j = |cos(pi j / 200)| and one component. With
    # classify_tol=1e-3, sigma_1 and sigma_2 (twice each) lie within the
    # tolerance of 1, but only the c = 1 largest value is unit, so they stay
    # interior and their eigenvalue pairs exp(+/- 2i theta) verify.
    hg = cycle(200)
    report = hw.analyze(hg, classify_tol=1e-3)
    assert report.classification.count("unit") == 1
    assert report.predicted.size == report.size == 400
    assert report.verdict == "pass"
    assert report.max_residual <= 1e-8
    strict = hw.analyze(hg)
    assert strict.classification == report.classification
    np.testing.assert_array_equal(strict.predicted, report.predicted)


@pytest.mark.parametrize("cap", [None, "2"])
@pytest.mark.parametrize(
    "n, edges",
    [(3, [{0, 1, 2}]), (5, [{0, 1}, {1, 2}, {2, 3}, {3, 4}])],
    ids=["single-edge", "path5"],
)
def test_tight_classify_tol_keeps_the_count(monkeypatch, cap, n, edges):
    # The top singular value of a tree is 1 up to rounding (1 - 1.1e-16 for
    # the single edge), so a threshold at 1 - 1e-17 would miss it; the unit
    # tag comes from the component count instead.
    if cap is not None:
        monkeypatch.setenv(hw.DENSE_CAP_ENV, cap)
    report = hw.analyze(hw.from_edge_lists(n, edges), classify_tol=1e-17)
    assert report.classification[0] == "unit"
    assert report.classification.count("unit") == 1
    assert report.predicted.size == report.size
    assert report.verdict == ("pass" if cap is None else "unverified")


def test_analyze_above_cap_builds_no_cycle_basis(monkeypatch):
    def forbidden(hg):
        raise AssertionError("cycle_basis called")

    monkeypatch.setattr(hw.spectral, "cycle_basis", forbidden)
    _, walk = pipeline(cycle(5))
    pred = hw.predict_spectrum(walk)
    # The 5-cycle's one cycle eigenvalue is listed, last, without the basis being built.
    assert pred.eigenvalues.size == walk.size and pred.eigenvalues[-1] == 1.0
    monkeypatch.setenv(hw.DENSE_CAP_ENV, "4")
    report = hw.analyze(cycle(5))
    assert report.verdict == "unverified"
    assert report.predicted.size == report.size == 10
    assert report.classification.count("unit") == 1


def test_analyze_passes_on_random_instances():
    for hg in random_instances(10, seed=45):
        report = hw.analyze(hg)
        assert report.verdict == "pass"
        assert report.max_pairing_distance <= 1e-8
        assert report.max_residual <= 1e-8


def test_analyze_wide_instance():
    hg = hw.random_regular_uniform(4, 8, 2, 4, seed=46)
    report = hw.analyze(hg)
    assert report.n < report.m
    assert report.verdict == "pass"


def test_analyze_null_singular_value_instance():
    # Two identical hyperedges make the discriminant rank-deficient, so one
    # singular value is null and contributes two -1 eigenvalues.
    hg = hw.from_edge_lists(2, [{0, 1}, {0, 1}])
    report = hw.analyze(hg)
    assert report.verdict == "pass"
    assert "null" in report.classification and "unit" in report.classification
    minus = int(np.sum(np.abs(report.predicted + 1.0) < 1e-9))
    plus = int(np.sum(np.abs(report.predicted - 1.0) < 1e-9))
    assert (plus, minus) == (2, 2) and report.size == 4
    assert any("null" in note for note in report.deviations)


@pytest.mark.parametrize("cap", [None, "4"])
@pytest.mark.parametrize(
    "build",
    [pytest.param(lambda case=case: hw.from_edge_lists(*case.values[:2]), id=case.id) for case in IRREGULAR]
    + [
        pytest.param(lambda: hw.from_edge_lists(2, [{0, 1}, {0, 1}]), id="null-sigma"),
        pytest.param(lambda: hw.random_regular_uniform(300, 200, 3, 2, seed=52), id="N600"),
    ],
)
def test_report_json_is_byte_identical_to_json_dumps(monkeypatch, cap, build):
    # to_json lays the long lists out from row templates; under the cap of 4
    # most reports are "unverified", with actual null.
    if cap is not None:
        monkeypatch.setenv(hw.DENSE_CAP_ENV, cap)
    report = hw.analyze(build())
    assert (report.actual is None) == (report.size > int(cap or hw.dense_cap()))
    assert report.to_json() == json.dumps(report.to_json_dict(), indent=2)


def test_report_json_schema():
    report = hw.analyze(six_by_four())
    doc = json.loads(report.to_json())
    for key in (
        "n", "m", "k", "d", "N", "singular_values", "classification",
        "predicted", "actual", "max_pairing_distance", "max_residual",
        "deviations", "verdict",
    ):
        assert key in doc
    assert doc["verdict"] == "pass"
    assert sum(entry["multiplicity"] for entry in doc["predicted"]) == doc["N"]
    assert len(doc["actual"]) == doc["N"]
    assert doc["N"] == 12 and doc["k"] == 3 and doc["d"] == 2
    assert any("unpaired" in note for note in doc["deviations"])


def test_analyze_unverified_above_cap(monkeypatch):
    monkeypatch.setenv(hw.DENSE_CAP_ENV, "4")
    report = hw.analyze(triangle())
    assert report.verdict == "unverified"
    assert report.actual is None
    assert report.max_pairing_distance is None
    assert report.predicted.size == 6


def test_analyze_rejects_bad_tolerances():
    with pytest.raises(hw.HyperwalkError, match=r"tolerance must be in \(0, 0.001\], got 1.0"):
        hw.analyze(triangle(), classify_tol=1.0)
    with pytest.raises(hw.HyperwalkError, match=r"tolerance must be in \(0, 0.001\], got 0.0"):
        hw.analyze(triangle(), verify_tol=0.0)
