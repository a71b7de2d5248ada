"""Building, generating and serializing hypergraphs.

Run with: python3 demos/01_hypergraphs.py
"""

import numpy as np

import hyperwalk as hw


def incidence(hg):
    """The dense n x m 0/1 matrix, built from the stored pairs: 1 at each (v, e)."""
    h = np.zeros((hg.n, hg.m), dtype=int)
    h[hg.pair_v, hg.pair_e] = 1
    return h


# A hypergraph is a set of vertices plus hyperedges, each hyperedge an
# arbitrary non-empty subset of the vertices. The triangle graph, read as a
# hypergraph, has three 2-element hyperedges.
triangle = hw.from_edge_lists(3, [{0, 1}, {1, 2}, {0, 2}])
print("triangle incidence matrix (a dense view, built on access):")
print(incidence(triangle))

profile = hw.degree_profile(triangle)
print("vertex degrees:", profile.vertex_degrees, "-> regular with d =", profile.d)
print("edge sizes:    ", profile.edge_degrees, "-> uniform with k =", profile.k)

# The degree handshake: both totals count the incident (vertex, edge) pairs.
print("sum d(v) =", profile.vertex_degrees.sum(), "== sum delta(e) =", profile.edge_degrees.sum())

# What is stored is the list of incident (vertex, hyperedge) pairs, sorted
# by vertex, then hyperedge. These pairs are exactly the edges of the
# bipartite incidence graph: vertices on one side, hyperedges on the other,
# v joined to e when v is a member of e.
print("\nbipartite edge list (vertex, hyperedge):")
for v, e in zip(triangle.pair_v.tolist(), triangle.pair_e.tolist()):
    print(f"  v{v} -- e{e}")
print("per-side degrees from the list:", np.bincount(triangle.pair_v), np.bincount(triangle.pair_e))

# Random d-regular k-uniform instances come from a stub-pairing
# configuration model and are deterministic per seed.
hg = hw.random_regular_uniform(n=6, m=4, k=3, d=2, seed=7)
print("\nrandom 2-regular 3-uniform instance on 6 vertices, 4 hyperedges:")
h = incidence(hg)
print(h)
print("row sums:", h.sum(axis=1), " column sums:", h.sum(axis=0))
print("connected:", hw.is_connected(hg))

# The .hg text format round-trips through a canonical form: edges keep file
# order, vertices inside an edge are sorted ascending.
text = hw.serialize(hg)
print("\nserialized .hg text:")
print(text, end="")
print("round-trip identical:", hw.serialize(hw.parse(text)) == text)
