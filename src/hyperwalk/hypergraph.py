"""Hypergraphs as sorted incidence lists.

A hypergraph here is n vertices plus m hyperedges, each a non-empty vertex
subset, stored as its N incident (vertex, hyperedge) pairs: int64 arrays
pair_v and pair_e sorted by (v, e), the edges of the bipartite incidence
graph. Every later layer works from them and from their segments, computed
once. Isolated vertices and empty hyperedges are rejected: every transition
probability divides by the vertex and edge degrees.

Also defined here: degree profiles, connectivity, a configuration-model
generator for d-regular k-uniform instances, and the plain-text .hg format.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import HgSyntaxError, HyperwalkError

GENERATOR_RETRY_BUDGET = 1000
_REPAIR_PASSES = 200


def _first_absent(index: np.ndarray, count: int) -> int | None:
    """Smallest id in [0, count) missing from index, or None; count sizes no array."""
    present = np.unique(index)
    gaps = np.flatnonzero(present != np.arange(present.size))
    return int(gaps[0]) if gaps.size else (present.size if present.size < count else None)


def read_integers(tokens: list[str]) -> list[int] | None:
    """The tokens as ints if each is ASCII digits with an optional leading '-', else None."""
    if not all(tok.isascii() and tok.removeprefix("-").isdigit() for tok in tokens):
        return None
    try:
        return [int(tok) for tok in tokens]
    except ValueError:  # beyond int()'s digit limit
        return None


def _pair_ids(values) -> np.ndarray:
    """values as an int64 array, or HyperwalkError naming the first entry that is no int64 integer."""
    try:
        ids = np.asarray(values)
    except ValueError:  # ragged: a sequence among the entries
        ids = np.asarray(values, dtype=object)
    if ids.dtype.kind == "i" or (ids.dtype.kind == "u" and ids.max(initial=0) < 2**63):
        return ids.astype(np.int64, copy=False)
    # numpy holds big Python ints as objects, floats or unsigned: each is read back as given.
    for x in (ids if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)).flat:
        if not (isinstance(x, (int, np.integer)) and not isinstance(x, bool) and -(2**63) <= x < 2**63):
            raise HyperwalkError(f"pair entries must be integers within int64, got {x!r}")
    return ids.astype(np.int64)


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """Immutable hypergraph: n, m and the incident pairs, validated, read-only, sorted by (v, e)."""

    n: int
    m: int
    pair_v: np.ndarray
    pair_e: np.ndarray

    def __post_init__(self):
        if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in (self.n, self.m)):
            raise HyperwalkError(f"n and m must be integers, got {self.n!r} and {self.m!r}")
        if self.n < 1 or self.m < 1:
            raise HyperwalkError("hypergraph needs at least one vertex and one hyperedge")
        pair_v, pair_e = _pair_ids(self.pair_v), _pair_ids(self.pair_e)
        if pair_v.ndim != 1 or pair_v.shape != pair_e.shape:
            raise HyperwalkError("pair_v and pair_e must be flat arrays of equal length")
        bad = np.flatnonzero((pair_v < 0) | (pair_v >= self.n) | (pair_e < 0) | (pair_e >= self.m))
        if bad.size:
            v, e = int(pair_v[bad[0]]), int(pair_e[bad[0]])
            raise HyperwalkError(f"pair ({v}, {e}) outside [0, {self.n}) x [0, {self.m})")
        order = np.lexsort((pair_e, pair_v))
        pair_v, pair_e = pair_v[order], pair_e[order]
        repeat = np.flatnonzero((pair_v[1:] == pair_v[:-1]) & (pair_e[1:] == pair_e[:-1]))
        if repeat.size:
            raise HyperwalkError(f"hyperedge {pair_e[repeat[0]]} repeats vertex {pair_v[repeat[0]]}")
        empty = _first_absent(pair_e, self.m)
        if empty is not None:
            raise HyperwalkError(f"hyperedge {empty} contains no vertices")
        isolated = _first_absent(pair_v, self.n)
        if isolated is not None:
            raise HyperwalkError(f"vertex {isolated} appears in no hyperedge")
        for name, arr in (("pair_v", pair_v), ("pair_e", pair_e)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @cached_property
    def segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(vertex_starts, edge_order, edge_starts): where each vertex's pairs
        start, the pair indices hyperedge by hyperedge, and where each
        hyperedge starts there."""
        edge_order = np.argsort(self.pair_e, kind="stable")
        edge_starts = np.searchsorted(self.pair_e[edge_order], np.arange(self.m))
        return np.searchsorted(self.pair_v, np.arange(self.n)), edge_order, edge_starts

    @cached_property
    def segment_groups(self) -> tuple[tuple[list[np.ndarray], np.ndarray], ...]:
        """For the vertices, then the hyperedges: one L x count array of pair indices per
        segment length L, and each pair's place among the groups' concatenated sums.
        Row o holds each segment's pair at offset o; walk_action sums down the rows,
        and sample_trajectory takes its running sums down them."""
        vertex_starts, edge_order, edge_starts = self.segments
        sides, pairs = [], np.arange(self.pair_v.size)
        for order, starts, ids in ((pairs, vertex_starts, self.pair_v), (edge_order, edge_starts, self.pair_e)):
            lengths = np.diff(starts, append=ids.size)
            by_length = np.argsort(lengths, kind="stable")
            cuts = np.flatnonzero(np.diff(lengths[by_length])) + 1
            groups = [order[starts[s] + np.arange(lengths[s[0]])[:, None]] for s in np.split(by_length, cuts)]
            sides.append((groups, np.argsort(by_length)[ids]))
        return tuple(sides)

    def edge_sets(self) -> list[list[int]]:
        """Vertex indices of each hyperedge, sorted ascending, in edge order."""
        _, edge_order, edge_starts = self.segments
        return [edge.tolist() for edge in np.split(self.pair_v[edge_order], edge_starts[1:])]


@dataclass(frozen=True, eq=False)
class DegreeProfile:
    """Vertex degrees and hyperedge sizes, with regularity flags.

    ``d`` is the common vertex degree when the hypergraph is regular, else
    None; ``k`` is the common hyperedge size when uniform, else None.
    """

    vertex_degrees: np.ndarray
    edge_degrees: np.ndarray
    d: int | None
    k: int | None

    @property
    def is_regular(self) -> bool:
        return self.d is not None

    @property
    def is_uniform(self) -> bool:
        return self.k is not None


def from_edge_lists(n: int, edges) -> Hypergraph:
    """Build a hypergraph on n vertices from an ordered collection of vertex sets of integers."""
    try:
        edges = [list(edge) for edge in edges]
    except TypeError as exc:  # edges, or one of them, is not iterable
        raise HyperwalkError(f"edges must be an iterable of vertex collections: {exc}") from None
    pair_v = [v for edge in edges for v in edge]
    pair_e = np.repeat(np.arange(len(edges)), [len(edge) for edge in edges])
    return Hypergraph(n, len(edges), pair_v, pair_e)


def degree_profile(hg: Hypergraph) -> DegreeProfile:
    """Vertex degrees d(v), hyperedge sizes, and regular/uniform flags."""
    vertex_degrees = np.bincount(hg.pair_v, minlength=hg.n)
    edge_degrees = np.bincount(hg.pair_e, minlength=hg.m)
    d = int(vertex_degrees[0]) if (vertex_degrees == vertex_degrees[0]).all() else None
    k = int(edge_degrees[0]) if (edge_degrees == edge_degrees[0]).all() else None
    return DegreeProfile(vertex_degrees, edge_degrees, d, k)


def component_labels(hg: Hypergraph) -> np.ndarray:
    """Each vertex's component of the bipartite incidence graph, named by its smallest vertex.

    Each root hooks onto the smallest root across a shared hyperedge, then
    pointer jumping flattens the chains; no hyperedge is empty, so the
    vertices alone decide the components."""
    root = np.arange(hg.n)
    while True:
        edge_min = np.full(hg.m, hg.n)
        np.minimum.at(edge_min, hg.pair_e, root[hg.pair_v])
        hooked = root.copy()
        np.minimum.at(hooked, root[hg.pair_v], edge_min[hg.pair_e])
        while not np.array_equal(hooked, hooked[hooked]):
            hooked = hooked[hooked]
        if np.array_equal(hooked, root):
            return root
        root = hooked


def is_connected(hg: Hypergraph) -> bool:
    """True when the bipartite incidence graph is a single component."""
    return bool((component_labels(hg) == 0).all())


def _repair_pairing(rng, stub_v, stub_e):
    """Swap colliding edge stubs until every (v, e) incidence is distinct.

    Plain reject-and-reshuffle has acceptance probability roughly
    exp(-(d-1)(k-1)/2), which is hopeless already at d = k = 5, so collisions
    are repaired in place instead. Returns the repaired edge stubs or None.
    """
    size = stub_v.size
    m = int(stub_e.max()) + 1
    e = stub_e.copy()
    for _ in range(_REPAIR_PASSES):
        codes = stub_v * m + e
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        extra = order[np.concatenate(([False], sorted_codes[1:] == sorted_codes[:-1]))]
        if extra.size == 0:
            return e
        for i in extra:
            j = int(rng.integers(size))
            e[i], e[j] = e[j], e[i]
    return None


def random_regular_uniform(n: int, m: int, k: int, d: int, seed: int = 0) -> Hypergraph:
    """Random d-regular k-uniform hypergraph via a biregular configuration model.

    Vertex stubs (each vertex d times) are paired with a shuffled list of
    edge stubs (each hyperedge k times); duplicate incidences are repaired by
    stub swaps, with a fresh shuffle after a stalled repair. Deterministic
    for a fixed seed.
    """
    if min(n, m, k, d) < 1:
        raise HyperwalkError("infeasible: all of n, m, k, d must be >= 1")
    if n * d != m * k:
        raise HyperwalkError(f"infeasible: n*d != m*k ({n * d} != {m * k})")
    if k > n:
        raise HyperwalkError(f"infeasible: k > n ({k} > {n})")
    if d > m:
        raise HyperwalkError(f"infeasible: d > m ({d} > {m})")
    rng = np.random.default_rng(seed)
    stub_v = np.repeat(np.arange(n), d)
    stub_e = np.repeat(np.arange(m), k)
    for _ in range(GENERATOR_RETRY_BUDGET):
        paired = _repair_pairing(rng, stub_v, rng.permutation(stub_e))
        if paired is None:
            continue
        return Hypergraph(n, m, stub_v, paired)
    raise HyperwalkError(
        f"no simple incidence structure found for (n={n}, m={m}, k={k}, d={d}) "
        f"within {GENERATOR_RETRY_BUDGET} attempts"
    )


def random_feasible_parameters(rng, max_n: int = 60, max_pairs: int = 512):
    """Draw a feasible (n, m, k, d) with k in 2..5 and d in 1..5.

    Uses n = t*k, m = t*d so that n*d == m*k holds by construction, with t
    capped so n <= max_n and the pair dimension n*d <= max_pairs. Raises
    HyperwalkError when no draw can fit, that is when max_n < 2 or
    max_pairs < 2.
    """
    if max_n < 2 or max_pairs < 2:
        raise HyperwalkError(
            f"infeasible: no k >= 2 fits max_n={max_n} and max_pairs={max_pairs}"
        )
    while True:
        k = int(rng.integers(2, 6))
        d = int(rng.integers(1, 6))
        t_max = min(max_n // k, max_pairs // (k * d))
        if t_max < 1:
            continue
        t = int(rng.integers(1, t_max + 1))
        return t * k, t * d, k, d


def parse(text: str) -> Hypergraph:
    """Parse the .hg plain-text format.

    Lines starting with '#' are comments and blank lines are skipped. The
    first remaining line must be ``n <N>``; every later line lists one
    hyperedge as whitespace-separated 0-based vertex indices, and the line
    order defines the edge indices. Integers are ASCII digits with an
    optional leading '-' (see read_integers).
    """
    n = None
    edges = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise HgSyntaxError(lineno, f"expected header 'n <count>', got {line!r}")
            count = read_integers(tokens[1:])
            if count is None:
                raise HgSyntaxError(lineno, f"vertex count {tokens[1]!r} is not an integer")
            n = count[0]
            if not 1 <= n < 2**63:
                raise HgSyntaxError(lineno, f"vertex count must be in [1, 2**63), got {n}")
            continue
        members = read_integers(tokens)
        if members is None:
            raise HgSyntaxError(lineno, f"non-integer vertex index in {line!r}")
        if len(set(members)) != len(members):
            raise HgSyntaxError(lineno, f"duplicate vertex in hyperedge {line!r}")
        for v in members:
            if not 0 <= v < n:
                raise HgSyntaxError(lineno, f"vertex {v} outside [0, {n})")
        edges.append(members)
    if n is None:
        raise HgSyntaxError(last_line or 1, "missing 'n <count>' header")
    if not edges:
        raise HgSyntaxError(last_line, "no hyperedge lines")
    return from_edge_lists(n, edges)


def serialize(hg: Hypergraph) -> str:
    """Canonical .hg text: header, then each edge's vertices sorted ascending."""
    lines = [f"n {hg.n}"]
    lines += [" ".join(str(v) for v in edge) for edge in hg.edge_sets()]
    return "\n".join(lines) + "\n"
