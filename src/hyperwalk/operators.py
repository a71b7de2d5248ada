"""Quantum walk operator and states.

Conventions
-----------
The walk lives on the span of the hypergraph's incident (vertex, hyperedge)
pairs, in its (v, e) order; non-incident pairs carry zero amplitude under
every operator and are simply not represented. Both tensor orderings of the
literature are identified with this single pair basis, which is the only
reading under which the two reflections compose on one space.

The vertex isometry A has one column per vertex v: the unit state spread
over the pairs (v, e) with amplitudes a = sqrt(p_ve). The edge isometry B
has one column per hyperedge e, with amplitudes b = sqrt(p_ev). Each has one
nonzero per row, so a WalkOperator holds only the two weight vectors over
the pair list. A walk step is the reflection 2AA^T - I followed by
2BB^T - I, which walk_action applies as segment sums in O(N), summing all
segments of one length together (see Hypergraph.segment_groups).

Amplitudes are complex throughout, even though the walk matrix is real
orthogonal, because its eigenvectors are genuinely complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .classical import Distribution, TransitionSystem
from .errors import HyperwalkError
from .hypergraph import Hypergraph, component_labels

_NORM_HARD_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class WalkOperator:
    """One walk step on the hypergraph's incident pairs.

    vertex_weights and edge_weights hold sqrt(p_ve) and sqrt(p_ev) at each
    pair (v, e): the one nonzero in that pair's row of A and of B.
    """

    hypergraph: Hypergraph
    vertex_weights: np.ndarray
    edge_weights: np.ndarray

    @property
    def size(self) -> int:
        return self.hypergraph.pair_v.size

    @cached_property
    def components(self) -> tuple[tuple[np.ndarray, WalkOperator], ...]:
        """Per connected component: its pair indices and the walk on those pairs alone, in (v, e)
        order. W only mixes pairs that share a vertex or a hyperedge, so it is a permutation of
        diag(W_1, ..., W_c) over these blocks, once every hyperedge's pairs carry one label."""
        hg = self.hypergraph
        labels = component_labels(hg)[hg.pair_v]
        _, edge_order, edge_starts = hg.segments
        if not np.array_equal(labels[edge_order[edge_starts]][hg.pair_e], labels):
            raise HyperwalkError("component labels split a hyperedge")
        order = np.argsort(labels, kind="stable")
        blocks = []
        for pairs in np.split(order, np.flatnonzero(np.diff(labels[order])) + 1):
            v, e = (np.unique(ids[pairs], return_inverse=True)[1] for ids in (hg.pair_v, hg.pair_e))
            part = Hypergraph(int(v.max()) + 1, int(e.max()) + 1, v, e)
            blocks.append((pairs, WalkOperator(part, self.vertex_weights[pairs], self.edge_weights[pairs])))
        return tuple(blocks)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitude vector over the pair basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1:
            raise HyperwalkError("amplitudes must be a flat vector")
        norm = np.linalg.norm(amps)
        # Hard bound is loose (1e-9): long evolutions legitimately drift past
        # the 1e-12 a freshly built state satisfies. Written so that NaN fails.
        if not abs(norm - 1.0) <= _NORM_HARD_TOL:
            raise HyperwalkError(f"state norm {norm!r} is not 1")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def build_walk(ts: TransitionSystem) -> WalkOperator:
    """Walk operator on ts's hypergraph, weighted by its per-pair transition probabilities."""
    return WalkOperator(ts.hypergraph, np.sqrt(ts.p_ve), np.sqrt(ts.p_ev))


def walk_action(walk: WalkOperator, states: np.ndarray) -> np.ndarray:
    """One walk step applied to a state vector, or to each column of a matrix.

    Each reflection 2P - I only mixes the pairs of one vertex (or of one
    hyperedge): P sums the weighted amplitudes over that segment and spreads
    the sum back with the same weights. The segments of each length are
    summed together, one gather and one sum over the first axis per distinct
    length (see Hypergraph.segment_groups). A step costs O(N) per column.
    """
    for weights, (groups, spread) in zip((walk.vertex_weights, walk.edge_weights), walk.hypergraph.segment_groups):
        if np.ndim(states) == 2:
            weights = weights[:, None]
        weighted = weights * states
        reflected = np.concatenate([weighted[g].sum(axis=0) for g in groups])[spread]
        reflected *= 2.0 * weights
        reflected -= states
        states = reflected
    return states


def apply_walk(walk: WalkOperator, psi: StateVector) -> StateVector:
    """One walk step on a state."""
    if psi.amplitudes.size != walk.size:
        raise HyperwalkError(
            f"state has {psi.amplitudes.size} amplitudes, walk space has {walk.size}"
        )
    return StateVector(walk_action(walk, psi.amplitudes))


def evolve(walk: WalkOperator, psi0: StateVector, steps: int):
    """Iterator over psi0 and the steps states after it, one walk step apart."""
    if steps < 0:
        raise HyperwalkError("steps must be >= 0")
    return accumulate(range(steps), lambda psi, _: apply_walk(walk, psi), initial=psi0)


def basis_pair_state(hg: Hypergraph, v: int, e: int) -> StateVector:
    """Computational basis state at the incident pair (v, e)."""
    v, e = int(v), int(e)
    found = False
    if 0 <= v < hg.n and 0 <= e < hg.m:
        lo, hi = np.searchsorted(hg.pair_v, [v, v + 1])
        index = lo + int(np.searchsorted(hg.pair_e[lo:hi], e))
        found = index < hi and hg.pair_e[index] == e
    if not found:
        raise HyperwalkError(f"({v}, {e}) is not an incident (vertex, hyperedge) pair")
    amps = np.zeros(hg.pair_v.size, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps)


def vertex_superposition(walk: WalkOperator, v: int) -> StateVector:
    """The unit state anchored at vertex v: column v of the vertex isometry."""
    hg = walk.hypergraph
    if not 0 <= v < hg.n:
        raise HyperwalkError(f"vertex {v} outside [0, {hg.n})")
    return StateVector(np.where(hg.pair_v == v, walk.vertex_weights, 0.0))


def vertex_distribution(hg: Hypergraph, psi: StateVector) -> Distribution:
    """Measurement marginal over vertices: summed squared magnitudes per vertex."""
    if psi.amplitudes.size != hg.pair_v.size:
        raise HyperwalkError("state and pair space sizes differ")
    weights = np.abs(psi.amplitudes) ** 2
    return Distribution(np.bincount(hg.pair_v, weights=weights, minlength=hg.n))
