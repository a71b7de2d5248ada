"""The quantized walk: the pair basis, reflections, and unitary evolution.

Run with: python3 demos/03_quantum_walk.py
"""

import numpy as np

import hyperwalk as hw

# The quantum walker lives on the hypergraph's incident (vertex, hyperedge)
# pairs; the walk holds sqrt(p_ve) and sqrt(p_ev) at each of them. For a
# single hyperedge covering all vertices the walk step collapses to Grover
# diffusion about the uniform superposition.
single = hw.from_edge_lists(3, [{0, 1, 2}])
walk = hw.build_walk(hw.build_transitions(single))

print("pair basis:", list(zip(single.pair_v.tolist(), single.pair_e.tolist())))
print("walk matrix (Grover diffusion 2J/3 - I):")
print(hw.walk_action(walk, np.eye(walk.size)))

psi = hw.basis_pair_state(single, 0, 0)
stepped = hw.apply_walk(walk, psi)
print("\none step from basis pair (0,0):", stepped.amplitudes.real)
print("vertex marginal:", hw.vertex_distribution(single, stepped).probabilities)

# On the triangle: amplitudes spread, norms are conserved exactly, and the
# factored application agrees with the textbook product of reflections.
triangle = hw.from_edge_lists(3, [{0, 1}, {1, 2}, {0, 2}])
walk = hw.build_walk(hw.build_transitions(triangle))

psi = hw.vertex_superposition(walk, 0)
print("\ntriangle, starting from the vertex-0 superposition:")
for t, state in enumerate(hw.evolve(walk, psi, 6)):
    marginal = hw.vertex_distribution(triangle, state).probabilities
    print(f"t={t}: marginal={np.round(marginal, 6)}  norm drift={abs(state.norm - 1.0):.2e}")

# The dense 6 x 3 isometries: A holds sqrt(p_ve) at row (v, e), column v;
# B holds sqrt(p_ev) at row (v, e), column e.
rows, eye = np.arange(walk.size), np.eye(walk.size)
a = np.zeros((walk.size, triangle.n))
a[rows, triangle.pair_v] = walk.vertex_weights
b = np.zeros((walk.size, triangle.m))
b[rows, triangle.pair_e] = walk.edge_weights
textbook = (2 * (b @ b.T) - eye) @ (2 * (a @ a.T) - eye)
factored = hw.walk_action(walk, eye)
print("walk_action vs (2BB^T - I)(2AA^T - I) max difference:", np.abs(textbook - factored).max())

# A step never needs the dense matrix: it is two segment sums over the
# pair list, O(N) per step, and long evolutions stay on the unit sphere to
# near machine precision.
hg = hw.random_regular_uniform(40, 30, 4, 3, seed=5)
walk = hw.build_walk(hw.build_transitions(hg))
rng = np.random.default_rng(1)
amps = rng.standard_normal(walk.size) + 1j * rng.standard_normal(walk.size)
psi = hw.StateVector(amps / np.linalg.norm(amps))
*_, final = hw.evolve(walk, psi, 1000)
print(f"\nrandom instance N={walk.size}: norm drift after 1000 steps = {abs(final.norm - 1.0):.2e}")
