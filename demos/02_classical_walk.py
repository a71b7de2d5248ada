"""The classical two-step random walk: vertex -> hyperedge -> vertex.

Run with: python3 demos/02_classical_walk.py
"""

import numpy as np

import hyperwalk as hw

triangle = hw.from_edge_lists(3, [{0, 1}, {1, 2}, {0, 2}])
ts = hw.build_transitions(triangle)

# One walk step first picks an incident hyperedge uniformly, then a vertex
# inside it uniformly (the current vertex included, so the chain has
# self-loops). The walk holds both half-steps per incident pair (v, e);
# scattered into dense matrices, p_ve at row v, column e and p_ev at row e,
# column v, they are row-stochastic.
vertex_to_edge = np.zeros((ts.n, ts.m))
vertex_to_edge[triangle.pair_v, triangle.pair_e] = ts.p_ve
edge_to_vertex = np.zeros((ts.m, ts.n))
edge_to_vertex[triangle.pair_e, triangle.pair_v] = ts.p_ev
print("vertex -> edge matrix:")
print(vertex_to_edge)
print("edge -> vertex matrix:")
print(edge_to_vertex)
print("row sums:", vertex_to_edge.sum(axis=1), edge_to_vertex.sum(axis=1))

# Their product is the vertex chain; for a regular uniform hypergraph it is
# symmetric, here with 1/2 on the diagonal and 1/4 off it.
print("\nvertex chain P:")
print(vertex_to_edge @ edge_to_vertex)

# Push a point mass through a few steps.
dist = hw.Distribution(np.array([1.0, 0.0, 0.0]))
for t in range(4):
    print(f"t={t}:", np.round(dist.probabilities, 6))
    dist = hw.classical_step(ts, dist)

# The walk is reversible, so its stationary law has a closed form:
# pi(v) = d(v) / N, with N the number of incident pairs. A regular uniform
# instance therefore has the uniform law, and one step leaves it unchanged.
pi = hw.stationary_distribution(ts, "vertex")
print("\nstationary distribution d(v)/N:", pi.probabilities)
print("after one step:               ", hw.classical_step(ts, pi).probabilities)

# A non-regular hypergraph weights each vertex by its degree.
irregular = hw.build_transitions(hw.from_edge_lists(4, [{0, 1, 2}, {2, 3}, {0, 3}]))
print("non-regular {012, 23, 03}:", hw.stationary_distribution(irregular, "vertex").probabilities)

# Sampled trajectories alternate vertex, edge, vertex, ... and their
# vertex-visit frequencies converge to the stationary law.
path = hw.sample_trajectory(ts, start_vertex=0, steps=20000, seed=11)
print("first few trajectory entries (v, e, v, e, ...):", path[:9])
visits = np.bincount(path[::2], minlength=3) / len(path[::2])
print("empirical vertex frequencies:", np.round(visits, 4))
