"""Output checks and the benchmark's own dense references.

The references are built directly from the `.hg` incidence lists, without
`hyperwalk`: the walk as two dense reflections about the vertex-anchored
and edge-anchored states, and the classical chain as a dense n x n matrix.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SUM_TOL = 1e-9
REFERENCE_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program is missing, malformed or wrong."""


def _pairs(n: int, edges: list[list[int]]):
    pair_v = np.concatenate([np.asarray(e, dtype=np.int64) for e in edges])
    pair_e = np.repeat(np.arange(len(edges)), [len(e) for e in edges])
    return pair_v, pair_e


def _reflection(index: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """2 P - I, where P projects onto the states spread over each index class."""
    r = np.equal.outer(index, index).astype(np.float64)
    r *= np.outer(weight, weight)
    r *= 2.0
    r[np.diag_indices_from(r)] -= 1.0
    return r


class WalkReference:
    """Dense two-reflection walk of one hypergraph, for final-row checks."""

    def __init__(self, n: int, edges: list[list[int]]):
        self.n = n
        self.pair_v, self.pair_e = _pairs(n, edges)
        a = 1.0 / np.sqrt(np.bincount(self.pair_v, minlength=n)[self.pair_v])
        b = 1.0 / np.sqrt(np.bincount(self.pair_e)[self.pair_e])
        self.a = a
        self.reflect_v = _reflection(self.pair_v, a)
        self.reflect_e = _reflection(self.pair_e, b)

    def final_row(self, start: str, steps: int) -> np.ndarray:
        kind, _, rest = start.partition(":")
        psi = np.zeros(self.pair_v.size)
        if kind == "v":
            v = int(rest)
            psi[self.pair_v == v] = self.a[self.pair_v == v]
        else:
            v, e = (int(x) for x in rest.split(","))
            psi[np.flatnonzero((self.pair_v == v) & (self.pair_e == e))[0]] = 1.0
        for _ in range(steps):
            psi = self.reflect_e @ (self.reflect_v @ psi)
        return np.bincount(self.pair_v, weights=psi * psi, minlength=self.n)


def chain_final_row(n: int, edges: list[list[int]], start: str, steps: int) -> np.ndarray:
    """Point mass at `v:<i>` pushed through the dense vertex chain `steps` times."""
    h = np.zeros((n, len(edges)))
    for j, e in enumerate(edges):
        h[e, j] = 1.0
    chain = (h / h.sum(axis=1)[:, None]) @ (h.T / h.sum(axis=0)[:, None])
    p = np.zeros(n)
    p[int(start.partition(":")[2])] = 1.0
    for _ in range(steps):
        p = p @ chain
    return p


def series(path: Path, n: int, steps: int) -> np.ndarray:
    """Check an evolve/classical CSV: header, steps+1 rows, each summing to 1."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    if header != ["t"] + [f"v{i}" for i in range(n)]:
        raise CheckFailed(f"{path.name}: unexpected header")
    if len(lines) != steps + 2:
        raise CheckFailed(f"{path.name}: {len(lines) - 1} rows, expected {steps + 1}")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    if not np.array_equal(rows[:, 0], np.arange(steps + 1)):
        raise CheckFailed(f"{path.name}: time column is not 0..{steps}")
    drift = np.abs(rows[:, 1:].sum(axis=1) - 1.0).max()
    if drift > SUM_TOL:
        raise CheckFailed(f"{path.name}: a row sums to 1 +- {drift:.3g}")
    return rows[-1, 1:]


def match(path: Path, final: np.ndarray, reference: np.ndarray) -> None:
    gap = float(np.abs(final - reference).max())
    if gap > REFERENCE_TOL:
        raise CheckFailed(f"{path.name}: final row differs from the reference by {gap:.3g}")


def spectrum(path: Path, size: int) -> int:
    """Check a spectrum report; returns the verified pair count N."""
    report = json.loads(path.read_text())
    if report["verdict"] != "pass":
        raise CheckFailed(f"{path.name}: verdict {report['verdict']!r}")
    if report["N"] != size:
        raise CheckFailed(f"{path.name}: N={report['N']}, input has {size}")
    return size


def fuzz(path: Path, count: int) -> dict:
    """Check a fuzz summary; returns it."""
    summary = json.loads(path.read_text())
    if summary["failed"] != 0 or summary["count"] != count or len(summary["instances"]) != count:
        raise CheckFailed(f"{path.name}: {summary['failed']} of {summary['count']} failed")
    return summary
