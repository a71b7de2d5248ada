"""Seeded `.hg` inputs and their cost descriptors, owned by the benchmark.

Instances are drawn here with numpy's seeded generator and written as
`.hg` text, so the program under test receives only files. Nothing in this
module imports `hyperwalk`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

_RETRIES = 200


@dataclass(frozen=True)
class Descriptor:
    """Sizes that set the cost of each stage for one instance.

    `complement_dim` (N - n - m + c) is the +1 eigenspace that `predict`
    builds from an N x N SVD; `unpaired` (|n - m|) is the -1 count coming
    from the larger side of the discriminant.
    """

    name: str
    n: int
    m: int
    N: int
    c: int
    complement_dim: int
    unpaired: int


def components(n: int, edges: list[list[int]]) -> int:
    """Connected components of the bipartite vertex/hyperedge incidence graph."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in edges:
        root = find(edge[0])
        for v in edge[1:]:
            other = find(v)
            if other != root:
                parent[other] = root
    return len({find(v) for v in range(n)})


def describe(name: str, n: int, edges: list[list[int]]) -> Descriptor:
    m = len(edges)
    size = sum(len(e) for e in edges)
    c = components(n, edges)
    return Descriptor(name, n, m, size, c, size - n - m + c, abs(n - m))


def regular_uniform(rng: np.random.Generator, n: int, m: int, k: int, d: int) -> list[list[int]]:
    """Connected d-regular k-uniform edge lists from a configuration model.

    Vertex stubs are shuffled into m groups of k; a group that repeats a
    vertex swaps the repeat with a random stub until every group is simple.
    Draws that come out disconnected are redrawn, so c is exactly 1.
    """
    if n * d != m * k:
        raise ValueError(f"n*d != m*k for ({n}, {m}, {k}, {d})")
    for _ in range(_RETRIES):
        stubs = rng.permutation(np.repeat(np.arange(n), d)).reshape(m, k)
        for _ in range(100 * m):
            bad = [j for j in range(m) if len(set(stubs[j].tolist())) < k]
            if not bad:
                break
            for j in bad:
                i = int(rng.integers(k))
                jj, ii = int(rng.integers(m)), int(rng.integers(k))
                stubs[j, i], stubs[jj, ii] = stubs[jj, ii], stubs[j, i]
        else:
            continue
        edges = [sorted(row) for row in stubs.tolist()]
        if components(n, edges) == 1:
            return edges
    raise RuntimeError(f"no connected simple draw for ({n}, {m}, {k}, {d})")


def disjoint_union(pieces: list[tuple[int, list[list[int]]]]) -> tuple[int, list[list[int]]]:
    """Place pieces side by side: each piece's vertices are offset past the last."""
    offset = 0
    edges: list[list[int]] = []
    for n, piece in pieces:
        edges += [[v + offset for v in e] for e in piece]
        offset += n
    return offset, edges


def hg_text(n: int, edges: list[list[int]]) -> str:
    return "\n".join([f"n {n}"] + [" ".join(map(str, e)) for e in edges]) + "\n"


def write(directory: Path, name: str, n: int, edges: list[list[int]]) -> tuple[Path, Descriptor]:
    path = directory / f"{name}.hg"
    path.write_text(hg_text(n, edges))
    return path, describe(name, n, edges)


def read(path: Path) -> tuple[int, list[list[int]]]:
    """Parse `.hg` text back into (n, edge lists): the reference's own reader."""
    lines = [ln.split() for ln in path.read_text().splitlines()]
    lines = [t for t in lines if t and not t[0].startswith("#")]
    return int(lines[0][1]), [[int(v) for v in t] for t in lines[1:]]
