"""Shared instance builders for the test suite."""

import numpy as np
import pytest

import hyperwalk as hw
from hyperwalk.spectral import cycle_basis

FIG1_PARAMS = dict(n=6, m=4, k=3, d=2)

# Cases outside the regular uniform family, as (n, edges, unit singular values).
IRREGULAR = [
    pytest.param(4, [{0, 1, 2}, {2, 3}, {0, 3}], 1, id="non-regular"),
    pytest.param(5, [{0, 1}, {1, 2}, {0, 2}, {3, 4}], 2, id="disconnected"),
    pytest.param(3, [{0, 1, 2}, {0, 1, 2}, {1, 2}], 1, id="repeated-edges"),
    pytest.param(3, [{0}, {0, 1, 2}, {2}], 1, id="singleton-edges"),
    pytest.param(1, [{0}], 1, id="one-vertex"),
    pytest.param(1, [{0}, {0}], 1, id="one-vertex-two-edges"),
]


def single_edge() -> hw.Hypergraph:
    """One hyperedge covering all three vertices; the walk is Grover diffusion."""
    return hw.from_edge_lists(3, [{0, 1, 2}])


def triangle() -> hw.Hypergraph:
    """The triangle graph as a 2-uniform 2-regular hypergraph."""
    return hw.from_edge_lists(3, [{0, 1}, {1, 2}, {0, 2}])


def six_by_four() -> hw.Hypergraph:
    """A 3-uniform 2-regular instance with n=6, m=4 (so n*d = m*k = 12)."""
    return hw.from_edge_lists(6, [{0, 1, 2}, {3, 4, 5}, {0, 1, 3}, {2, 4, 5}])


def cycle(n: int) -> hw.Hypergraph:
    """The n-cycle as a 2-uniform 2-regular hypergraph."""
    return hw.from_edge_lists(n, [{i, (i + 1) % n} for i in range(n)])


def hub_and_rim(n: int) -> hw.Hypergraph:
    """One hyperedge over all n vertices plus the n-cycle (N = 3n): one hyperedge
    segment of n pairs beside n of 2 pairs, and every vertex segment holds 3 pairs."""
    return hw.from_edge_lists(n, [range(n)] + [{i, (i + 1) % n} for i in range(n)])


def star() -> hw.Hypergraph:
    """Vertex 0 in 600 two-vertex edges, plus one edge over the 600 other vertices (N = 1800)."""
    return hw.from_edge_lists(601, [{0, i} for i in range(1, 601)] + [range(1, 601)])


def mixed_lengths(seed: int = 53) -> hw.Hypergraph:
    """80 vertices drawn with weights 1 / (v + 1) into 60 edges of 1 to 24 vertices,
    plus a singleton edge per vertex: many distinct edge sizes and degrees."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, 81)
    edges = [rng.choice(80, size, replace=False, p=weights / weights.sum()) for size in rng.integers(1, 25, 60)]
    return hw.from_edge_lists(80, edges + [[v] for v in range(80)])


def random_instances(count: int, seed: int, max_n: int = 40, max_pairs: int = 256):
    """Seeded regular uniform instances drawn over the feasible parameter grid."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n, m, k, d = hw.random_feasible_parameters(rng, max_n=max_n, max_pairs=max_pairs)
        out.append(hw.random_regular_uniform(n, m, k, d, seed=int(rng.integers(2**63))))
    return out


def battery(seed: int = 2024):
    """Pinned small instances plus a seeded random spread, for property tests."""
    return [single_edge(), triangle(), six_by_four()] + random_instances(12, seed)


def union_find_partition(hg) -> set[frozenset[int]]:
    """The vertex sets of the incidence graph's components, by union-find over the pairs."""
    parent = list(range(hg.n + hg.m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v, e in zip(hg.pair_v.tolist(), hg.pair_e.tolist()):
        parent[find(v)] = find(hg.n + e)
    parts: dict[int, set[int]] = {}
    for v in range(hg.n):
        parts.setdefault(find(v), set()).add(v)
    return {frozenset(part) for part in parts.values()}


def union_find_components(hg) -> int:
    """Connected components of the incidence graph; no hyperedge is empty, so
    every component holds a vertex."""
    return len(union_find_partition(hg))


def disjoint_union(*pieces) -> hw.Hypergraph:
    """The hypergraphs side by side, each piece's vertices numbered after the last's."""
    edges, offset = [], 0
    for hg in pieces:
        edges += [[v + offset for v in edge] for edge in hg.edge_sets()]
        offset += hg.n
    return hw.from_edge_lists(offset, edges)


def random_state(size: int, seed: int) -> hw.StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return hw.StateVector(amps / np.linalg.norm(amps))


def pipeline(hg):
    """Transition system and walk operator of a hypergraph."""
    ts = hw.build_transitions(hg)
    return ts, hw.build_walk(ts)


def incidence(hg, weights=1) -> np.ndarray:
    """Dense n x m view of the pairs: weights at row v_p, column e_p, zero elsewhere."""
    h = np.zeros((hg.n, hg.m), dtype=np.result_type(weights))
    h[hg.pair_v, hg.pair_e] = weights
    return h


def half_steps(ts) -> tuple[np.ndarray, np.ndarray]:
    """Dense views of the two half-steps: n x m p_ve and m x n p_ev."""
    return incidence(ts.hypergraph, ts.p_ve), incidence(ts.hypergraph, ts.p_ev).T


def vertex_isometry(walk) -> np.ndarray:
    """Dense N x n view of A: sqrt(p_ve) at row p, column v_p."""
    a = np.zeros((walk.size, walk.hypergraph.n))
    a[np.arange(walk.size), walk.hypergraph.pair_v] = walk.vertex_weights
    return a


def edge_isometry(walk) -> np.ndarray:
    """Dense N x m view of B: sqrt(p_ev) at row p, column e_p."""
    b = np.zeros((walk.size, walk.hypergraph.m))
    b[np.arange(walk.size), walk.hypergraph.pair_e] = walk.edge_weights
    return b


def dense_walk(walk) -> np.ndarray:
    """The walk matrix as the textbook product of reflections (2BB^T - I)(2AA^T - I),
    from the dense isometry views alone: it shares no code with walk_action."""
    a, b, eye = vertex_isometry(walk), edge_isometry(walk), np.eye(walk.size)
    return (2 * (b @ b.T) - eye) @ (2 * (a @ a.T) - eye)


def eigenvectors(prediction) -> np.ndarray:
    """The N x N matrix of the prediction's unit eigenvectors, in the order of its
    eigenvalues, written one column at a time from each block's classification, SVD
    and cycle_basis alone, each block's columns scattered onto its pairs' rows: per
    singular index, A mu for a unit one, A mu and B nu for a null one,
    (A mu - exp(+/-i theta) B nu) / (sqrt(2) sin theta) for an interior one; then the
    block's larger side's unpaired A mu or B nu; then its normalised cycles. Row p of
    A holds sqrt(p_ve) in column v_p, so a column of A U is a row gather."""

    def columns(walk, svd, tags):
        hg = walk.hypergraph

        def a_mu(j):
            return walk.vertex_weights * svd.left_vectors[hg.pair_v, j]

        def b_nu(j):
            return walk.edge_weights * svd.right_vectors[hg.pair_e, j]

        for j, (s, tag) in enumerate(zip(svd.singular_values, tags)):
            if tag == "unit":
                yield a_mu(j)
            elif tag == "null":
                yield a_mu(j)
                yield b_nu(j)
            else:
                theta = np.arccos(min(s, 1.0))
                for phase in (np.exp(1j * theta), np.exp(-1j * theta)):
                    yield (a_mu(j) - phase * b_nu(j)) / (np.sqrt(2.0) * np.sin(theta))
        r = svd.singular_values.size
        yield from (a_mu(j) for j in range(r, hg.n))
        yield from (b_nu(j) for j in range(r, hg.m))
        for cycle in cycle_basis(hg)[0].T:
            yield cycle / np.linalg.norm(cycle)

    size = prediction.eigenvalues.size
    out = np.zeros((size, size), dtype=np.complex128)
    k = 0
    for pairs, block, svd, tags in prediction.blocks:
        for column in columns(block, svd, tags):
            out[pairs, k] = column
            k += 1
    assert k == size
    return out
