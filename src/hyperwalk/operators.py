"""Quantum walk space and operators.

Conventions
-----------
The walk lives on the span of incident (vertex, hyperedge) pairs, ordered
lexicographically; non-incident pairs carry zero amplitude under every
operator and are simply not represented. Both tensor orderings of the
literature are identified with this single pair basis, which is the only
reading under which the two reflections compose on one space.

The vertex isometry A has one column per vertex v: the unit state spread
over the pairs (v, e) with amplitudes a = sqrt(p_ve). The edge isometry B
has one column per hyperedge e, with amplitudes b = sqrt(p_ev). Each has one
nonzero per row, so both are held as weight vectors over the pair list. A
walk step is the reflection 2AA^T - I followed by 2BB^T - I, which
walk_action applies as segment sums in O(N). The dense isometries and walk
matrix are views built on access for the eig oracle and small tests.

Amplitudes are complex throughout, even though the walk matrix is real
orthogonal, because its eigenvectors are genuinely complex.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classical import Distribution, TransitionSystem
from .errors import DimensionMismatchError, DimensionTooLargeError
from .hypergraph import Hypergraph, pair_segments, scatter

DENSE_CAP_ENV = "HYPERWALK_DENSE_CAP"
DEFAULT_DENSE_CAP = 4096
_NORM_HARD_TOL = 1e-9
_DENSE_BLOCK = 256


def dense_cap() -> int:
    """Largest pair dimension N for a dense walk matrix, overridable via HYPERWALK_DENSE_CAP."""
    raw = os.environ.get(DENSE_CAP_ENV)
    if raw is None:
        return DEFAULT_DENSE_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{DENSE_CAP_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{DENSE_CAP_ENV} must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class PairSpace:
    """Ordered basis of incident pairs: the hypergraph's own sorted pair lists."""

    n: int
    m: int
    pair_v: np.ndarray
    pair_e: np.ndarray

    @property
    def size(self) -> int:
        return self.pair_v.size

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.pair_v.tolist(), self.pair_e.tolist()))

    @cached_property
    def segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(vertex_starts, edge_order, edge_starts), as hypergraph.pair_segments."""
        return pair_segments(self.n, self.m, self.pair_v, self.pair_e)


@dataclass(frozen=True)
class IsometryPair:
    """sqrt(p_ve) and sqrt(p_ev) at each pair (v, e); the N x n vertex_isometry
    and N x m edge_isometry are dense views of them with orthonormal columns."""

    pair_space: PairSpace
    vertex_weights: np.ndarray
    edge_weights: np.ndarray

    @property
    def vertex_isometry(self) -> np.ndarray:
        ps = self.pair_space
        return scatter((ps.size, ps.n), np.arange(ps.size), ps.pair_v, self.vertex_weights)

    @property
    def edge_isometry(self) -> np.ndarray:
        ps = self.pair_space
        return scatter((ps.size, ps.m), np.arange(ps.size), ps.pair_e, self.edge_weights)


@dataclass(frozen=True)
class WalkOperator:
    """One walk step: the pair of reflections given by an isometry pair."""

    isometries: IsometryPair

    @property
    def pair_space(self) -> PairSpace:
        return self.isometries.pair_space

    @property
    def size(self) -> int:
        return self.pair_space.size

    @property
    def dense(self) -> np.ndarray:
        """(2BB^T - I)(2AA^T - I) from the dense isometries, independent of walk_action.

        Built by matrix products in blocks J of columns: X = 2 A A[J]^T - I[:, J]
        is the block of the first reflection, and the block of the walk is
        2 B (B^T X) - X. At its peak only the N x N result, the dense A and B
        and a few N x block temporaries are alive; no N x N identity, Gram
        matrix or reflection is formed.

        Raises DimensionTooLargeError when N exceeds the dense cap.
        """
        cap = dense_cap()
        if self.size > cap:
            raise DimensionTooLargeError(f"pair dimension {self.size} exceeds dense cap {cap}")
        a = self.isometries.vertex_isometry
        b = self.isometries.edge_isometry
        out = np.empty((self.size, self.size))
        for start in range(0, self.size, _DENSE_BLOCK):
            block = slice(start, min(start + _DENSE_BLOCK, self.size))
            x = a @ a[block].T
            x *= 2.0
            diagonal = np.arange(x.shape[1])
            x[start + diagonal, diagonal] -= 1.0
            y = b @ (b.T @ x)
            y *= 2.0
            y -= x
            out[:, block] = y
        return out


@dataclass(frozen=True)
class StateVector:
    """Unit-norm complex amplitude vector over the pair basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a flat vector")
        norm = np.linalg.norm(amps)
        # Hard bound is loose (1e-9): long evolutions legitimately drift past
        # the 1e-12 a freshly built state satisfies.
        if abs(norm - 1.0) > _NORM_HARD_TOL:
            raise ValueError(f"state norm {norm!r} is not 1")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def build_pair_space(hg: Hypergraph) -> PairSpace:
    """The hypergraph's incident pairs, in lexicographic (vertex, edge) order."""
    return PairSpace(n=hg.n, m=hg.m, pair_v=hg.pair_v, pair_e=hg.pair_e)


def build_isometries(hg: Hypergraph, ts: TransitionSystem, ps: PairSpace) -> IsometryPair:
    """Isometry weights from the per-pair transition probabilities."""
    if (hg.n, hg.m) != (ts.n, ts.m) or (ps.n, ps.m, ps.size) != (hg.n, hg.m, ts.p_ve.size):
        raise DimensionMismatchError("hypergraph, transitions and pair space disagree")
    return IsometryPair(ps, np.sqrt(ts.p_ve), np.sqrt(ts.p_ev))


def build_walk(iso: IsometryPair) -> WalkOperator:
    """Walk operator from an isometry pair."""
    return WalkOperator(isometries=iso)


def walk_action(iso: IsometryPair, states: np.ndarray) -> np.ndarray:
    """One walk step applied to a state vector, or to each column of a matrix.

    Each reflection 2P - I only mixes the pairs of one vertex (or of one
    hyperedge): P sums the weighted amplitudes over that segment and spreads
    the sum back with the same weights. A step costs O(N) per column.
    """
    ps = iso.pair_space
    vertex_starts, edge_order, edge_starts = ps.segments
    a, b = iso.vertex_weights, iso.edge_weights
    if np.ndim(states) == 2:
        a, b = a[:, None], b[:, None]
    y = np.add.reduceat(a * states, vertex_starts, axis=0)[ps.pair_v]
    y *= 2.0 * a
    y -= states
    z = np.add.reduceat((b * y)[edge_order], edge_starts, axis=0)[ps.pair_e]
    z *= 2.0 * b
    z -= y
    return z


def apply_walk(walk: WalkOperator, psi: StateVector) -> StateVector:
    """One walk step on a state."""
    if psi.amplitudes.size != walk.size:
        raise DimensionMismatchError(
            f"state has {psi.amplitudes.size} amplitudes, walk space has {walk.size}"
        )
    return StateVector(walk_action(walk.isometries, psi.amplitudes))


def evolve(walk: WalkOperator, psi0: StateVector, steps: int, keep_all: bool = False):
    """Repeated walk steps; returns the final state, or all states when keep_all."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    psi = psi0
    history = [psi0]
    for _ in range(steps):
        psi = apply_walk(walk, psi)
        if keep_all:
            history.append(psi)
    return history if keep_all else psi


def basis_pair_state(ps: PairSpace, v: int, e: int) -> StateVector:
    """Computational basis state at the incident pair (v, e)."""
    v, e = int(v), int(e)
    found = False
    if 0 <= v < ps.n and 0 <= e < ps.m:
        lo, hi = np.searchsorted(ps.pair_v, [v, v + 1])
        index = lo + int(np.searchsorted(ps.pair_e[lo:hi], e))
        found = index < hi and ps.pair_e[index] == e
    if not found:
        raise ValueError(f"({v}, {e}) is not an incident (vertex, hyperedge) pair")
    amps = np.zeros(ps.size, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps)


def vertex_superposition(iso: IsometryPair, v: int) -> StateVector:
    """The unit state anchored at vertex v: column v of the vertex isometry."""
    ps = iso.pair_space
    if not 0 <= v < ps.n:
        raise ValueError(f"vertex {v} outside [0, {ps.n})")
    return StateVector(np.where(ps.pair_v == v, iso.vertex_weights, 0.0))


def vertex_distribution(ps: PairSpace, psi: StateVector) -> Distribution:
    """Measurement marginal over vertices: summed squared magnitudes per vertex."""
    if psi.amplitudes.size != ps.size:
        raise DimensionMismatchError("state and pair space sizes differ")
    weights = np.abs(psi.amplitudes) ** 2
    return Distribution(np.bincount(ps.pair_v, weights=weights, minlength=ps.n))


def edge_distribution(ps: PairSpace, psi: StateVector) -> Distribution:
    """Measurement marginal over hyperedges."""
    if psi.amplitudes.size != ps.size:
        raise DimensionMismatchError("state and pair space sizes differ")
    weights = np.abs(psi.amplitudes) ** 2
    return Distribution(np.bincount(ps.pair_e, weights=weights, minlength=ps.m))
