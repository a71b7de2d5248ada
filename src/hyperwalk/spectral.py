"""Spectral analysis of the walk operator via its discriminant matrix.

The discriminant is the n x m matrix with entries sqrt(p_ve * p_ev); it
equals A^T B for the walk's vertex and edge isometries (held by the walk as
their per-pair weights), so its singular triples (sigma, mu, nu) describe
the principal angles theta = arccos(sigma) between the two reflection
subspaces. Each triple spans a subspace invariant under the walk, and the
walk's full eigensystem follows from the singular values alone:

  * interior sigma (strictly between 0 and 1): the conjugate eigenvalue pair
    exp(+/- 2i*theta), with eigenvectors
    (A mu - exp(+/- i*theta) B nu) / (sqrt(2) sin(theta)),
    where the minus-exp(+i*theta) combination carries exp(+2i*theta);
  * sigma at 1: A mu and B nu coincide, giving a single eigenvalue +1 with
    eigenvector A mu;
  * sigma at 0: A mu and B nu are orthogonal and each is flipped, giving two
    eigenvalues -1;
  * the |n - m| unpaired singular vectors on the larger side: eigenvalue -1
    each (their image under the opposite projector vanishes);
  * the orthogonal complement of both reflection subspaces: eigenvalue +1,
    with dimension N - n - m + 1 on a connected hypergraph.

The complement is the cycle space of the bipartite incidence graph (pairs
as its edges). Since sqrt(p_ve) is constant over a vertex's pairs, x is
orthogonal to the range of A exactly when its entries sum to 0 over every
vertex's pairs, and likewise for B over every hyperedge's pairs: a signed
cycle that steps +1 along each pair it crosses vertex -> hyperedge and -1
along each pair it crosses hyperedge -> vertex has exactly these zero sums.

The discriminant and the walk are block-diagonal over the connected
components, so the predictor and the oracle both work one block of
WalkOperator.components at a time. A block's fundamental cycles of a
breadth-first spanning tree span its complement, and its one unit singular
value is its largest, tagged unit however rounding left it; only the null
tags are read against a tolerance. The predicted eigenvalues run block by block.

Multiplicities total N. Verification pairs the predicted multiset against
eigenvalues computed independently of the discriminant's SVD and of
walk_action, and checks every predicted eigenvector's walk_action residual,
walking each real column A mu, B nu and cycle once, in blocks built and
dropped in turn (see residuals).

The oracle reads the walk's eigenphases from the singular values of one or
two triangular factors per component, each at most s_i x s_i with s_i the
component's smaller side; brute_force_spectrum holds the derivation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classical import TransitionSystem, build_transitions
from .errors import HyperwalkError
from .hypergraph import Hypergraph, degree_profile, read_integers
from .operators import WalkOperator, build_walk, walk_action

DENSE_CAP_ENV = "HYPERWALK_DENSE_CAP"
CLASSIFY_TOL_DEFAULT = 1e-9
VERIFY_TOL_DEFAULT = 1e-8
TOL_CEILING = 1e-3
_DEFAULT_DENSE_CAP = 4096
_GROUP_TOL = 1e-9
_ANGLE_SEAM = 1e-7
_RESIDUAL_BLOCK = 32  # singular indices and cycles per residual block, walked as N x 96 real columns
_ISOMETRY_TOL = 1e-12  # on each vertex's and each hyperedge's sum of squared weights
# The oracle reads a component's phases from the singular values of R alone while every
# cos(phi / 2) is at least this, so 2 arcsin errs by at most 2 delta / 0.03, delta being the
# SVD's absolute error.
_ARCSIN_MIN_COS = 0.03
# How json.dumps(indent=2) lays out one entry of each long list of a report.
_ENTRY_TEMPLATES = {
    "singular_values": "\n    %r",
    "predicted": '\n    {\n      "re": %r,\n      "im": %r,\n      "multiplicity": %r\n    }',
    "actual": '\n    {\n      "re": %r,\n      "im": %r\n    }',
}


def _check_tolerance(tol: float) -> float:
    if not 0.0 < tol <= TOL_CEILING:
        raise HyperwalkError(f"tolerance must be in (0, {TOL_CEILING}], got {tol!r}")
    return float(tol)


@dataclass(frozen=True, eq=False)
class SvdResult:
    """Full singular value decomposition with complete orthogonal bases.

    left_vectors is n x n and right_vectors is m x m; the columns beyond
    min(n, m) on the larger side are the unpaired directions needed for the
    -1 eigenspace.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray


@dataclass(frozen=True, eq=False)
class SpectrumPrediction:
    """Predicted eigenvalue multiset of the walk operator, and its eigenvectors' residuals.

    blocks holds the pairs, walk, SVD and tags of each block of walk.components.
    The eigenvalues run block by block, and within a block over its singular
    indices j, then its unpaired directions, then its cycles. With a_j = A mu_j
    and b_j = B nu_j, row gathers of SVD columns (A and B have one nonzero per
    row), a unit j gives +1 on a_j, a null j gives -1 on a_j and -1 on b_j, and
    an interior j gives exp(+2i theta_j) and then exp(-2i theta_j) on
    (a_j - exp(+/-i theta_j) b_j) / (sqrt(2) sin theta_j). An unpaired
    direction gives -1 on its a_j or b_j, and a cycle +1 on its normalised
    column of cycle_basis. singular_values and classification merge the
    blocks' in descending order. No eigenvector is stored: residuals walks
    the SVD and cycle columns on first access.
    """

    eigenvalues: np.ndarray
    singular_values: np.ndarray
    classification: tuple[str, ...]
    notes: tuple[str, ...]
    blocks: tuple[tuple[np.ndarray, WalkOperator, SvdResult, tuple[str, ...]], ...]

    @cached_property
    def residuals(self) -> np.ndarray:
        """The walk_action residual ||W x - lambda x|| of every eigenvector x, in eigenvalue order."""
        return np.concatenate([_residuals(walk, svd, tags) for _, walk, svd, tags in self.blocks])

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max(initial=0.0))


def _residuals(walk: WalkOperator, svd: SvdResult, classification: tuple[str, ...]) -> np.ndarray:
    """The residuals of one connected block's eigenvectors, in its eigenvalue order.

    Each pass walks the a_j, b_j and cycle columns c of a range of indices
    once, side by side. A unit, null or unpaired a_j gives ||W a - lambda a||,
    a null or unpaired b_j gives ||W b + b||, and a cycle
    ||W c - c|| / sqrt(nnz(c)). An interior j gives
    ||W a - e^{i theta} W b - e^{2i theta} a + e^{3i theta} b|| / (sqrt(2) sin theta)
    from its real and imaginary parts, for both of its eigenvalues: W is
    real, so the conjugate eigenvector's residual has the same norm.
    """
    hg = walk.hypergraph
    r, wider = svd.singular_values.size, max(hg.n, hg.m)
    tags = np.array(classification + ("unpaired",) * (wider - r))
    inner, theta = tags == "interior", np.arccos(np.clip(svd.singular_values, 0.0, 1.0))
    values = np.stack([np.where(tags == "unit", 1.0, -1.0), np.full(wider, -1.0)])  # lambda of a_j, b_j
    plain, mixed = np.zeros((2, wider)), np.zeros(r)  # mixed: the interior residuals' numerators
    cycles, _ = cycle_basis(hg)
    loops = np.zeros(cycles.shape[1])

    def walk_block(lo: int) -> None:
        """Walk [a | b | c] from index lo once, write their residuals and drop every array made."""
        block = slice(lo, lo + _RESIDUAL_BLOCK)
        u, v, c = svd.left_vectors[:, block], svd.right_vectors[:, block], cycles[:, block]
        cuts = [u.shape[1], u.shape[1] + v.shape[1]]
        x = np.empty((walk.size, cuts[1] + c.shape[1]))
        a, b, loop = np.hsplit(x, cuts)
        np.multiply(walk.vertex_weights[:, None], u[hg.pair_v], out=a)
        np.multiply(walk.edge_weights[:, None], v[hg.pair_e], out=b)
        loop[:] = c
        wa, wb, wc = np.hsplit(walk_action(walk, x), cuts)
        loops[block] = np.linalg.norm(wc - loop, axis=0) / np.sqrt(np.count_nonzero(c, axis=0))
        for side, y, wy in ((0, a, wa), (1, b, wb)):
            at = np.flatnonzero(~inner[block][: y.shape[1]])
            plain[side, lo + at] = np.linalg.norm(wy[:, at] - values[side, lo + at] * y[:, at], axis=0)
        p = max(min(r - lo, _RESIDUAL_BLOCK), 0)  # paired columns, first in a and b
        turn = np.outer([1.0, 2.0, 3.0], theta[lo : lo + p])
        cos, sin = np.cos(turn), np.sin(turn)
        re = wa[:, :p] - cos[0] * wb[:, :p] - cos[1] * a[:, :p] + cos[2] * b[:, :p]
        im = sin[0] * wb[:, :p] + sin[1] * a[:, :p] - sin[2] * b[:, :p]
        mixed[lo : lo + p] = np.hypot(np.linalg.norm(re, axis=0), np.linalg.norm(im, axis=0))

    for lo in range(0, max(wider, loops.size), _RESIDUAL_BLOCK):
        walk_block(lo)
    first, second = plain[:, :r]
    paired = inner[:r]
    first[paired] = second[paired] = mixed[paired] / (np.sqrt(2.0) * np.sin(theta[paired]))
    return _in_order(classification, first, second, plain[int(hg.m > hg.n), r:], loops)


def _in_order(tags: tuple[str, ...], first, second, *rest) -> np.ndarray:
    """Per singular index its first entry and, unless the index is unit, its second; then rest."""
    keep = np.column_stack([np.ones(len(tags), dtype=bool), np.array(tags) != "unit"])
    return np.concatenate([np.column_stack([first, second])[keep], *rest])


@dataclass(frozen=True)
class Verdict:
    """Outcome of matching a prediction against brute-force eigenvalues."""

    max_pairing_distance: float
    max_residual: float
    passed: bool


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Full verification document for one hypergraph instance."""

    n: int
    m: int
    k: int | None
    d: int | None
    size: int
    singular_values: np.ndarray
    classification: tuple[str, ...]
    predicted: np.ndarray
    actual: np.ndarray | None
    max_pairing_distance: float | None
    max_residual: float | None
    deviations: tuple[str, ...]
    verdict: str

    def to_json_dict(self) -> dict:
        grouped = [
            {"re": float(z.real), "im": float(z.imag), "multiplicity": count}
            for z, count in group_eigenvalues(self.predicted)
        ]
        actual = None
        if self.actual is not None:
            actual = [{"re": float(z.real), "im": float(z.imag)} for z in _circle_sort(self.actual)]
        return {
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "d": self.d,
            "N": self.size,
            "singular_values": [float(s) for s in self.singular_values],
            "classification": list(self.classification),
            "predicted": grouped,
            "actual": actual,
            "max_pairing_distance": self.max_pairing_distance,
            "max_residual": self.max_residual,
            "deviations": list(self.deviations),
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        """The text of json.dumps(self.to_json_dict(), indent=2), with the long lists
        laid out by one %r template per entry: json writes a float as its repr."""
        doc = self.to_json_dict()
        lists = {key: doc[key] for key in _ENTRY_TEMPLATES if doc[key]}
        text = json.dumps(doc | {key: f"@{key}@" for key in lists}, indent=2)
        for key, entries in lists.items():
            flat = [x for entry in entries for x in (entry.values() if isinstance(entry, dict) else [entry])]
            layout = ",".join([_ENTRY_TEMPLATES[key]] * len(entries)) % tuple(flat)
            text = text.replace(f'"@{key}@"', f"[{layout}\n  ]")
        return text


def scatter(shape: tuple[int, int], rows, cols, values) -> np.ndarray:
    """Dense matrix of the given shape holding values at (rows, cols), zero elsewhere."""
    out = np.zeros(shape, dtype=np.result_type(values))
    out[rows, cols] = values
    return out


def discriminant(ts: TransitionSystem) -> np.ndarray:
    """The n x m matrix sqrt(p_ve * p_ev) at each incident pair (v, e), zero elsewhere."""
    hg = ts.hypergraph
    return scatter((hg.n, hg.m), hg.pair_v, hg.pair_e, np.sqrt(ts.p_ve * ts.p_ev))


def full_svd(disc: np.ndarray) -> SvdResult:
    """Complete SVD, keeping the unpaired directions on the larger side."""
    left, sigma, right_t = np.linalg.svd(disc, full_matrices=True)
    return SvdResult(singular_values=sigma, left_vectors=left, right_vectors=right_t.T)


def classify_singular_values(sigma: np.ndarray, tol: float) -> tuple[str, ...]:
    """Tag a connected block's descending singular values: the first unit, the rest null (<= tol) or interior."""
    tol = _check_tolerance(tol)
    return ("unit",) + tuple("null" if s <= tol else "interior" for s in sigma[1:])


def cycle_basis(hg: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    """Signed fundamental cycles of a connected hypergraph's breadth-first spanning tree, and their closing pairs.

    The incidence graph has a node per vertex and per hyperedge and an edge
    per pair. Every pair left out of the tree closes one cycle with the
    tree path between its ends; the column holds +1 at each pair that
    cycle crosses vertex -> hyperedge and -1 at each pair it crosses
    hyperedge -> vertex, so it sums to 0 over every vertex's and every
    hyperedge's pairs. The N x (N - n - m + 1) int8 basis spans the walk's
    +1 complement; column j is closed by pair closing[j], ascending, so the
    basis restricted to the closing rows is the identity.
    """
    n, size = hg.n, hg.pair_v.size
    vertex_starts, edge_order, edge_starts = hg.segments
    pair_v, pair_e, edge_pairs = hg.pair_v.tolist(), hg.pair_e.tolist(), edge_order.tolist()
    vertex_bounds = vertex_starts.tolist() + [size]
    edge_bounds = edge_starts.tolist() + [size]
    # Nodes 0..n-1 are vertices and n..n+m-1 hyperedges; up[x] is the pair
    # from x to its parent (-1 at the root, vertex 0, which the climb below never leaves).
    up = [-1] * (n + hg.m)
    depth = [0] + [-1] * (n + hg.m - 1)
    in_tree = np.zeros(size, dtype=bool)
    queue = [0]
    for x in queue:
        if x < n:
            steps = [(p, n + pair_e[p]) for p in range(vertex_bounds[x], vertex_bounds[x + 1])]
        else:
            e = x - n
            steps = [(p, pair_v[p]) for p in edge_pairs[edge_bounds[e]:edge_bounds[e + 1]]]
        for p, y in steps:
            if depth[y] < 0:
                depth[y], up[y] = depth[x] + 1, p
                in_tree[p] = True
                queue.append(y)
    up, depth = np.asarray(up), np.asarray(depth)
    is_vertex = np.arange(n + hg.m) < n
    parent = np.where(is_vertex, n + hg.pair_e[up], hg.pair_v[up])
    closing = np.flatnonzero(~in_tree)
    basis = np.zeros((size, closing.size), dtype=np.int8, order="F")
    columns = np.arange(closing.size)
    basis[closing, columns] = 1
    # Climb from both ends of each closing pair to their common ancestor.
    # The cycle runs v -> e over the closing pair and returns to v through
    # the tree, so it crosses the pairs climbed from the e end in the
    # climbing direction (+1 when climbing away from a vertex) and those
    # climbed from the v end against it (-1 when climbing away from a vertex).
    x, y = hg.pair_v[closing], n + hg.pair_e[closing]
    while columns.size:
        from_x, from_y = depth[x] >= depth[y], depth[y] >= depth[x]
        basis[up[x[from_x]], columns[from_x]] = np.where(is_vertex[x[from_x]], -1, 1)
        basis[up[y[from_y]], columns[from_y]] = np.where(is_vertex[y[from_y]], 1, -1)
        x = np.where(from_x, parent[x], x)
        y = np.where(from_y, parent[y], y)
        open_ = x != y
        x, y, columns = x[open_], y[open_], columns[open_]
    return basis, closing


def predict_spectrum(walk: WalkOperator, tol: float = CLASSIFY_TOL_DEFAULT) -> SpectrumPrediction:
    """Assemble the predicted eigensystem of the walk from the SVD of each block's discriminant.

    The eigenvalues are in SpectrumPrediction's order, each block's cycles (see
    cycle_basis) spanning its +1 complement. Nothing of size N x N is formed
    here, and the cycles are found only when the residuals are read.
    """
    n, m, values, blocks = walk.hypergraph.n, walk.hypergraph.m, [], []
    for pairs, block in walk.components:
        part = block.hypergraph
        svd = full_svd(discriminant(build_transitions(part)))
        tags = classify_singular_values(svd.singular_values, tol)
        theta = np.arccos(np.clip(svd.singular_values, 0.0, 1.0))
        null = np.array(tags) == "null"
        first = np.where(np.array(tags) == "unit", 1.0, np.where(null, -1.0, np.exp(2j * theta)))
        second = np.where(null, -1.0, np.exp(-2j * theta))
        unpaired, cycles = np.full(abs(part.n - part.m), -1.0), np.ones(block.size - part.n - part.m + 1)
        values.append(_in_order(tags, first, second, unpaired, cycles))
        blocks.append((pairs, block, svd, tags))
    # Padded with the null zeros that an SVD of the whole discriminant pairs off between blocks.
    pad = min(n, m) - sum(len(tags) for *_, tags in blocks)
    sigma = np.concatenate([svd.singular_values for *_, svd, _ in blocks] + [np.zeros(pad)])
    merged, order = [tag for *_, tags in blocks for tag in tags] + ["null"] * pad, np.argsort(-sigma, kind="stable")
    tags = tuple(merged[i] for i in order)
    notes: list[str] = []
    if "null" in tags:
        notes.append("null singular values present: each assigned two -1 eigenvalues "
                     "(outside the generic all-interior case)")
    # Unpaired singular directions on the larger side all map to -1, and
    # everything orthogonal to both isometry ranges is fixed by the walk.
    if n != m:
        notes.append(f"{abs(n - m)} unpaired {'vertex' if n > m else 'edge'}-side directions assigned eigenvalue -1")
    return SpectrumPrediction(
        eigenvalues=np.concatenate(values),
        singular_values=sigma[order],
        classification=tags,
        notes=tuple(notes),
        blocks=tuple(blocks),
    )


def dense_cap() -> int:
    """Largest pair dimension N the eigenvalue oracle runs on, overridable via HYPERWALK_DENSE_CAP."""
    raw = os.environ.get(DENSE_CAP_ENV)
    if raw is None:
        return _DEFAULT_DENSE_CAP
    parsed = read_integers([raw])
    if parsed is None:
        raise HyperwalkError(f"{DENSE_CAP_ENV} must be an integer, got {raw!r}")
    value = parsed[0]
    if value < 1:
        raise HyperwalkError(f"{DENSE_CAP_ENV} must be >= 1, got {value}")
    return value


def brute_force_spectrum(walk: WalkOperator) -> np.ndarray:
    """Independent oracle: the walk's eigenvalues from the singular values of
    one triangular factor per block of walk.components, or two.

    With P_A = AA^T, P_B = BB^T and the reflections R = 2P - I, W = R_B R_A.
    Per block, the eigenvalues of Y = P_B - P_A and X = P_A + P_B - I give
    |sin(phi / 2)| and |cos(phi / 2)| over the eigenphases phi, because
    I - W = 2 R_B Y and I + W = 2 R_B X with R_B orthogonal, and W is normal.

    Let L be the isometry of the larger side (A when n_i >= m_i, else B),
    with l columns, and S the other, with s <= l. One Householder reflector
    per segment of L maps its unit column to the unit vector at its first
    pair, up to sign; the rows of H S there are D = L^T S, up to signs that
    change no singular value. The other N_i - l rows of H S have a QR with
    an upper triangular R of k = min(N_i - l, s) rows, and D one with an
    s x s R1 (Golub & Van Loan, Matrix Computations, 5.2), whose reflectors
    act only on the first pairs, where P_L is the identity. So in the basis
    of H, both QRs and the first pairs, P_L = diag(0, I_s, I_{l-s}) and
    P_S = M M^T with M = [R; R1; 0], padded with zeros to order N_i. On the
    l - s = |n_i - m_i| rows that R1 zeroes, Y = -1: phases exactly pi, the
    larger side's unpaired directions. On the other N_i - k - l both
    projectors vanish and Y = 0: phases exactly 0. None of this assumes a
    rank of [A B], a cycle space or constant weights within a segment.

    The rest, Y' = M M^T - diag(0, I_s) (Y up to sign) and
    X' = M M^T - diag(I_k, 0), is never formed. M has orthonormal columns,
    so by the CS decomposition (Paige & Wei, 1994) R = U_1 diag(sin t) V^T
    and R1 = U_2 diag(cos t) V^T over s angles t. On each pair of columns of
    U_1 and U_2, Y' has eigenvalues +/- sin t and X' +/- cos t, so
    sigma(R) = sin(phi / 2) and sigma(R1) = cos(phi / 2), each for a
    conjugate pair +/- phi. R has k rows, so s - k angles have sin t = 0,
    each one eigenvalue 0 of Y': a phase 0.

    Each computed singular value errs by a few eps ||R|| <= a few eps
    (Golub & Van Loan, 8.6), and d phi / d sin(phi / 2) = 2 / cos(phi / 2),
    so the sines alone are accurate while every cos(phi / 2) of the block
    is at least 0.03, and put a phase at pi off by about sqrt(eps). A block
    with a sine above sqrt(1 - 0.03^2), as a null sigma always gives, takes
    R1 too and reads its phases beyond pi/2 as 2 arccos sigma(R1), well
    conditioned there: ascending sines rank phi as descending cosines do,
    once the s - k largest cosines, the angles R lacks, are dropped. W is
    real, so its non-real eigenvalues are conjugate pairs, adjacent in rank;
    the signs alternate along the ranks, giving each pair one of each.

    A and B must be isometries: each vertex's and each hyperedge's squared
    weights sum to 1 within 1e-12, or HyperwalkError is raised, as it is
    when N exceeds the dense cap.
    """
    cap = dense_cap()
    if walk.size > cap:
        raise HyperwalkError(f"pair dimension {walk.size} exceeds dense cap {cap}")
    # Allocated before any block: made after one, it lands in the freed block's heap space.
    spectrum = np.empty(walk.size, dtype=np.complex128)
    for pairs, block in walk.components:
        spectrum[pairs] = _reflection_eigenvalues(block)
    return spectrum


def _reflection_eigenvalues(block: WalkOperator) -> np.ndarray:
    """One connected block's eigenvalues (see brute_force_spectrum); every other array
    made here is dropped before the next block is built."""
    hg, (vertex_starts, edge_order, edge_starts) = block.hypergraph, block.hypergraph.segments
    sides = [
        (block.vertex_weights, np.arange(block.size), vertex_starts, hg.pair_v),
        (block.edge_weights, edge_order, edge_starts, hg.pair_e),
    ]
    sums = [np.add.reduceat(w[o] ** 2, s) for w, o, s, _ in sides]
    if not all((np.abs(x - 1.0) <= _ISOMETRY_TOL).all() for x in sums):
        raise HyperwalkError("walk weights do not make A and B isometries")
    if hg.n < hg.m:  # L, the larger side's isometry, first
        sides, sums = sides[::-1], sums[::-1]
    (u, order, starts, group), (w, _, other_starts, other_group) = sides
    size, l, s = block.size, starts.size, other_starts.size
    k = min(size - l, s)  # R's rows
    # H_j = I - beta_j v_j v_j^T maps segment j's unit column of L to alpha_j at its first pair.
    first = order[starts]
    v = u.copy()
    v[first] += np.copysign(np.sqrt(sums[0]), u[first])  # alpha_j = -sign(u_first) |u_j|, nonzero at u_first = 0
    beta = 2.0 / np.add.reduceat(v[order] ** 2, starts)
    rest = np.setdiff1d(np.arange(size), first)
    # Off the first pairs H S = S - V diag(beta) V^T S, one row of V^T S per segment of L.
    tail = scatter((l, s), group, other_group, v * w)[group[rest]]
    tail *= -(beta[group] * v)[rest, None]
    tail[np.arange(rest.size), other_group[rest]] += w[rest]
    tail = np.linalg.qr(tail, mode="r")  # R
    sines = np.minimum(np.linalg.svd(tail, compute_uv=False)[::-1], 1.0)  # sin(phi / 2), ascending
    del tail  # before R1 is built
    angles = 2.0 * np.arcsin(sines)
    if sines.max(initial=0.0) > np.sqrt(1.0 - _ARCSIN_MIN_COS**2):  # some cos(phi / 2) < _ARCSIN_MIN_COS
        r1 = np.linalg.qr(scatter((l, s), group, other_group, u * w), mode="r")  # L^T S, up to row signs
        # Descending cosines rank phi as ascending sines do once the s - k largest, the angles R lacks, go.
        cosines = np.minimum(np.linalg.svd(r1, compute_uv=False)[s - k :], 1.0)
        angles = np.where(angles <= np.pi / 2, angles, 2.0 * np.arccos(cosines))
    # Each angle is a conjugate pair. The s - k angles R lacks and the N_i - k - l rows outside
    # [R; R1] are 0; the l - s rows of L^T S that R1 zeroes are pi.
    phases = np.pad(np.repeat(angles, 2), (size - l + s - 2 * k, l - s), constant_values=(0.0, np.pi))
    phases[1::2] *= -1.0
    return np.exp(1j * phases)


def _circle_sort(values: np.ndarray) -> np.ndarray:
    """Sort unit-circle values by argument, then real part.

    Arguments just below zero are wrapped up by 2*pi so that noise around +1
    stays contiguous and the -1 cluster sits strictly inside the range.
    """
    values = np.asarray(values, dtype=np.complex128)
    angles = np.angle(values)
    angles = np.where(angles < -_ANGLE_SEAM, angles + 2.0 * np.pi, angles)
    return values[np.lexsort((values.real, angles))]


def group_eigenvalues(values: np.ndarray, tol: float = _GROUP_TOL):
    """Group the circle-sorted values: each joins the current group while it lies within
    tol of that group's first value, and starts a new group otherwise. The first value
    stands for the group, so a run of values each within tol of the next can still split."""
    groups: list[list] = []
    for z in _circle_sort(values):
        if groups and abs(z - groups[-1][0]) <= tol:
            groups[-1][1] += 1
        else:
            groups.append([z, 1])
    return [(z, count) for z, count in groups]


def pairing_distance(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Max distance after argument-sorted index pairing of two unit-circle multisets."""
    if len(predicted) != len(actual):
        raise HyperwalkError(
            f"predicted has {len(predicted)} eigenvalues, actual has {len(actual)}"
        )
    return float(np.abs(_circle_sort(predicted) - _circle_sort(actual)).max(initial=0.0))


def verify(
    prediction: SpectrumPrediction,
    actual: np.ndarray,
    tol: float = VERIFY_TOL_DEFAULT,
) -> Verdict:
    """Match prediction against brute-force eigenvalues and check residuals."""
    tol = _check_tolerance(tol)
    distance = pairing_distance(prediction.eigenvalues, actual)
    max_residual = prediction.max_residual
    return Verdict(
        max_pairing_distance=distance,
        max_residual=max_residual,
        passed=bool(distance <= tol and max_residual <= tol),
    )


def analyze(
    hg: Hypergraph,
    classify_tol: float = CLASSIFY_TOL_DEFAULT,
    verify_tol: float = VERIFY_TOL_DEFAULT,
) -> SpectralReport:
    """Full pipeline: operators, SVD, prediction, brute-force check, report.

    When the pair dimension exceeds the dense cap the report is emitted in
    prediction-only mode with verdict "unverified".
    """
    classify_tol = _check_tolerance(classify_tol)
    verify_tol = _check_tolerance(verify_tol)
    walk = build_walk(build_transitions(hg))
    verifiable = walk.size <= dense_cap()
    # The oracle runs first, so its dense blocks are freed before the SVDs
    # allocate and before any eigenvector block is built.
    actual = brute_force_spectrum(walk) if verifiable else None
    prediction = predict_spectrum(walk, tol=classify_tol)
    profile = degree_profile(hg)
    verdict = verify(prediction, actual, tol=verify_tol) if verifiable else None
    return SpectralReport(
        n=hg.n,
        m=hg.m,
        k=profile.k,
        d=profile.d,
        size=walk.size,
        singular_values=prediction.singular_values,
        classification=prediction.classification,
        predicted=prediction.eigenvalues,
        actual=actual,
        max_pairing_distance=verdict.max_pairing_distance if verdict else None,
        max_residual=verdict.max_residual if verdict else None,
        deviations=prediction.notes,
        verdict=("pass" if verdict.passed else "fail") if verdict else "unverified",
    )
