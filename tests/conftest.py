"""Shared instance builders for the test suite."""

import numpy as np

import hyperwalk as hw

FIG1_PARAMS = dict(n=6, m=4, k=3, d=2)


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


def random_state(size: int, seed: int) -> hw.StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return hw.StateVector(amps / np.linalg.norm(amps))
