"""Classical two-step random walk on a hypergraph.

One step goes vertex -> hyperedge -> vertex: from a vertex, pick an incident
hyperedge uniformly, then a destination vertex inside it uniformly. Both
half-steps are held per incident pair (v, e): p_ve = 1/d(v), p_ev = 1/|e|.
The one-sided matrices D_v^-1 H and D_e^-1 H^T and their round-trip
products, the vertex chain and the dual edge chain, are views of these.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import HyperwalkError
from .hypergraph import Hypergraph, degree_profile, scatter

# Hard bound is loose (1e-9): marginals of long evolutions legitimately
# drift past the 1e-12 a freshly built distribution satisfies.
_DIST_SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class TransitionSystem:
    """p_ve[i] = 1/d(v) and p_ev[i] = 1/|e| at the hypergraph's i-th pair (v, e).

    The stochastic matrices are dense views built on access: vertex_to_edge
    is n x m, edge_to_vertex is m x n, vertex_chain is their n x n product
    and edge_chain the m x m product in the other order.
    """

    hypergraph: Hypergraph
    p_ve: np.ndarray
    p_ev: np.ndarray

    @property
    def n(self) -> int:
        return self.hypergraph.n

    @property
    def m(self) -> int:
        return self.hypergraph.m

    @property
    def vertex_to_edge(self) -> np.ndarray:
        return scatter((self.n, self.m), self.hypergraph.pair_v, self.hypergraph.pair_e, self.p_ve)

    @property
    def edge_to_vertex(self) -> np.ndarray:
        return scatter((self.m, self.n), self.hypergraph.pair_e, self.hypergraph.pair_v, self.p_ev)

    @property
    def vertex_chain(self) -> np.ndarray:
        return self.vertex_to_edge @ self.edge_to_vertex

    @property
    def edge_chain(self) -> np.ndarray:
        return self.edge_to_vertex @ self.vertex_to_edge


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector over vertices or hyperedges."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=np.float64)
        if p.ndim != 1:
            raise HyperwalkError("distribution must be a flat vector")
        if p.min(initial=0.0) < 0.0:
            raise HyperwalkError("negative probability entry")
        # Written so that a NaN entry, hence a NaN sum, fails.
        if not abs(p.sum() - 1.0) <= _DIST_SUM_TOL:
            raise HyperwalkError(f"probabilities sum to {p.sum()!r}, not 1")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    def __len__(self) -> int:
        return self.probabilities.size


def build_transitions(hg: Hypergraph) -> TransitionSystem:
    """Per-pair transition probabilities of the two-step walk on a hypergraph."""
    profile = degree_profile(hg)
    return TransitionSystem(
        hypergraph=hg,
        p_ve=1.0 / profile.vertex_degrees[hg.pair_v],
        p_ev=1.0 / profile.edge_degrees[hg.pair_e],
    )


def stationary_distribution(ts: TransitionSystem, which: str = "vertex") -> Distribution:
    """Stationary law of the vertex chain (or edge chain), in closed form.

    With N incident pairs, pi(v) = d(v)/N satisfies detailed balance:
    pi(v) P(v, u) = sum over shared hyperedges e of 1/(N |e|), symmetric in
    v and u; likewise pi(e) = |e|/N for the edge chain. On a connected
    hypergraph this law is unique. A disconnected one has one per component,
    and this returns the mixture weighting each component by its share of N.
    """
    if which not in ("vertex", "edge"):
        raise HyperwalkError(f"which must be 'vertex' or 'edge', got {which!r}")
    profile = degree_profile(ts.hypergraph)
    degrees = profile.vertex_degrees if which == "vertex" else profile.edge_degrees
    return Distribution(degrees / degrees.sum())


def classical_step(ts: TransitionSystem, dist: Distribution) -> Distribution:
    """One vertex-to-vertex step: mass flows v -> e -> u along the incident pairs."""
    if len(dist) != ts.n:
        raise HyperwalkError(f"distribution has {len(dist)} entries, chain has {ts.n}")
    hg = ts.hypergraph
    flow_ve = dist.probabilities[hg.pair_v] * ts.p_ve
    edge_mass = np.bincount(hg.pair_e, weights=flow_ve, minlength=ts.m)
    flow_ev = edge_mass[hg.pair_e] * ts.p_ev
    return Distribution(np.bincount(hg.pair_v, weights=flow_ev, minlength=ts.n))


def sample_trajectory(ts: TransitionSystem, start_vertex: int, steps: int, seed: int = 0) -> list[int]:
    """Sample v0, e0, v1, e1, ..., v_steps as alternating vertex/edge indices.

    Each hyperedge is drawn from the current vertex's pairs with weights
    p_ve, and each next vertex from that hyperedge's pairs with weights
    p_ev: a uniform draw is located in the segment's running sum, and a draw
    past its rounded total takes the segment's last pair. The running sums
    come from the rows of hg.segment_groups, adding in segment order as
    np.cumsum does. Deterministic for a fixed seed; length is 2*steps + 1.
    """
    if not 0 <= start_vertex < ts.n:
        raise HyperwalkError(f"start vertex {start_vertex} outside [0, {ts.n})")
    if steps < 0:
        raise HyperwalkError("steps must be >= 0")
    hg = ts.hypergraph
    vertex_starts, edge_order, edge_starts = hg.segments
    cum_ve, cum_ev = np.empty_like(ts.p_ve), np.empty_like(ts.p_ev)
    for weights, cum, (groups, _) in zip((ts.p_ve, ts.p_ev), (cum_ve, cum_ev), hg.segment_groups):
        for group in groups:
            cum[group] = np.cumsum(weights[group], axis=0)
    cum_ve, cum_ev = cum_ve.tolist(), cum_ev[edge_order].tolist()
    edge_of, vertex_of = hg.pair_e.tolist(), hg.pair_v[edge_order].tolist()
    end = [edge_order.size]
    vertex_starts, edge_starts = vertex_starts.tolist() + end, edge_starts.tolist() + end
    draws = np.random.default_rng(seed).random(2 * steps).tolist()
    path = [start_vertex]
    v = start_vertex
    for i in range(steps):
        lo, hi = vertex_starts[v], vertex_starts[v + 1]
        e = edge_of[min(bisect_right(cum_ve, draws[2 * i], lo, hi), hi - 1)]
        lo, hi = edge_starts[e], edge_starts[e + 1]
        v = vertex_of[min(bisect_right(cum_ev, draws[2 * i + 1], lo, hi), hi - 1)]
        path.append(e)
        path.append(v)
    return path
