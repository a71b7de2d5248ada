"""Predicting the walk spectrum from the discriminant matrix and verifying it.

Run with: python3 demos/04_spectral_verification.py
"""

import numpy as np

import hyperwalk as hw
from hyperwalk.spectral import group_eigenvalues

# The discriminant matrix sqrt(p_ve * p_ev) ties the classical chain to the
# quantum walk: its singular values sigma = cos(theta) are the cosines of
# the principal angles between the two reflection subspaces, and the walk's
# eigenphases are exactly +/- 2*theta.
triangle = hw.from_edge_lists(3, [{0, 1}, {1, 2}, {0, 2}])
ts = hw.build_transitions(triangle)
disc = hw.discriminant(ts)
print("discriminant matrix (here H/2):")
print(disc)

svd = hw.full_svd(disc)
print("singular values:", np.round(svd.singular_values, 12))
# A connected hypergraph's largest singular value is its one unit value; a
# disconnected one is classified component by component.
print("classification:", hw.classify_singular_values(svd.singular_values, tol=1e-9))

# sigma = 1 contributes one +1 eigenvalue; each interior sigma = 1/2
# (theta = pi/3) contributes the conjugate pair exp(+/- 2*pi*i/3); the
# one-dimensional leftover orthogonal to both subspaces is fixed.
walk = hw.build_walk(ts)
pred = hw.predict_spectrum(walk)
print("\npredicted eigenvalues (grouped):")
for z, count in group_eigenvalues(pred.eigenvalues):
    print(f"  {z:.6f} x {count}")

actual = hw.brute_force_spectrum(walk)
verdict = hw.verify(pred, actual)
print("\nbrute-force comparison:")
print("  max pairing distance:", verdict.max_pairing_distance)
print("  max eigenvector residual:", verdict.max_residual)
print("  verdict:", "pass" if verdict.passed else "fail")

# The one-call pipeline produces a JSON-ready report; the same document
# backs the `hyperwalk spectrum` command.
report = hw.analyze(hw.random_regular_uniform(12, 8, 3, 2, seed=3))
print("\nreport for a random 2-regular 3-uniform instance:")
print(report.to_json())

# A campaign over random instances, the library-level equivalent of the
# `hyperwalk fuzz` command.
rng = np.random.default_rng(0)
failures = 0
for _ in range(20):
    n, m, k, d = hw.random_feasible_parameters(rng, max_n=30, max_pairs=200)
    hg = hw.random_regular_uniform(n, m, k, d, seed=int(rng.integers(2**63)))
    if hw.analyze(hg).verdict != "pass":
        failures += 1
print(f"\ncampaign: {20 - failures}/20 instances verified")
