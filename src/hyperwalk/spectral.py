"""Spectral analysis of the walk operator via its discriminant matrix.

The discriminant is the n x m matrix with entries sqrt(p_ve * p_ev); it
equals the product of the transposed vertex isometry with the edge isometry,
so its singular triples (sigma, mu, nu) describe the principal angles
theta = arccos(sigma) between the two reflection subspaces. Each triple
spans a subspace invariant under the walk, and the walk's full eigensystem
follows from the singular values alone:

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
    with dimension N - (n + m - #unit).

Multiplicities always total N, whatever the classification. Verification
pairs the predicted multiset against a brute-force eigendecomposition of the
dense walk matrix and checks every predicted eigenvector's residual.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .classical import TransitionSystem, build_transitions
from .errors import CountMismatchError, InvalidToleranceError
from .hypergraph import Hypergraph, degree_profile, scatter
from .operators import (
    IsometryPair,
    WalkOperator,
    build_isometries,
    build_pair_space,
    build_walk,
    dense_cap,
    walk_action,
)

CLASSIFY_TOL_DEFAULT = 1e-9
VERIFY_TOL_DEFAULT = 1e-8
TOL_CEILING = 1e-3
_GROUP_TOL = 1e-9
_ANGLE_SEAM = 1e-7


def _check_tolerance(tol: float) -> float:
    if not 0.0 < tol <= TOL_CEILING:
        raise InvalidToleranceError(f"tolerance must be in (0, {TOL_CEILING}], got {tol!r}")
    return float(tol)


@dataclass(frozen=True)
class Discriminant:
    """n x m matrix sqrt(p_ve * p_ev); support pattern matches the incidence."""

    matrix: np.ndarray


@dataclass(frozen=True)
class SvdResult:
    """Full singular value decomposition with complete orthogonal bases.

    left_vectors is n x n and right_vectors is m x m; the columns beyond
    min(n, m) on the larger side are the unpaired directions needed for the
    -1 eigenspace.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray


@dataclass(frozen=True)
class SpectrumPrediction:
    """Predicted eigenvalue multiset (and eigenvectors) of the walk operator."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    classification: tuple[str, ...]
    residuals: np.ndarray | None
    notes: tuple[str, ...]

    @property
    def max_residual(self) -> float | None:
        if self.residuals is None:
            return None
        return float(self.residuals.max(initial=0.0))


@dataclass(frozen=True)
class BruteForceSpectrum:
    """Eigenvalues of the dense walk matrix, with the solver's own residual."""

    eigenvalues: np.ndarray
    max_residual: float


@dataclass(frozen=True)
class Verdict:
    """Outcome of matching a prediction against brute-force eigenvalues."""

    max_pairing_distance: float
    max_residual: float
    passed: bool


@dataclass(frozen=True)
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

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def discriminant(ts: TransitionSystem) -> Discriminant:
    """sqrt(p_ve * p_ev) at each incident pair (v, e), zero elsewhere."""
    hg = ts.hypergraph
    return Discriminant(scatter((hg.n, hg.m), hg.pair_v, hg.pair_e, np.sqrt(ts.p_ve * ts.p_ev)))


def full_svd(disc: Discriminant) -> SvdResult:
    """Complete SVD, keeping the unpaired directions on the larger side."""
    left, sigma, right_t = np.linalg.svd(disc.matrix, full_matrices=True)
    return SvdResult(singular_values=sigma, left_vectors=left, right_vectors=right_t.T)


def classify_singular_values(sigma: np.ndarray, tol: float) -> tuple[str, ...]:
    """Tag each singular value as unit (>= 1 - tol), null (<= tol) or interior."""
    tol = _check_tolerance(tol)
    return tuple(
        "unit" if s >= 1.0 - tol else ("null" if s <= tol else "interior") for s in sigma
    )


def predict_spectrum(
    svd: SvdResult,
    iso: IsometryPair,
    tol: float = CLASSIFY_TOL_DEFAULT,
    with_vectors: bool = True,
) -> SpectrumPrediction:
    """Assemble the predicted eigensystem of the walk from the discriminant's SVD.

    With with_vectors=True (the default) every predicted eigenvalue comes
    with a unit eigenvector, including an orthonormal basis for the +1
    complement, and walk_action residuals are computed for all of them.
    """
    tol = _check_tolerance(tol)
    ps = iso.pair_space
    size, n, m = ps.size, ps.n, ps.m
    sigma = svd.singular_values
    tags = classify_singular_values(sigma, tol)
    # A and B have one nonzero per row, so A U and B V are row gathers.
    a_mu = iso.vertex_weights[:, None] * svd.left_vectors[ps.pair_v]
    b_nu = iso.edge_weights[:, None] * svd.right_vectors[ps.pair_e]

    values: list[complex] = []
    vectors: list[np.ndarray] = []
    notes: list[str] = []

    def emit(value, vector=None):
        values.append(value)
        if with_vectors:
            vectors.append(vector)

    for idx, (s, tag) in enumerate(zip(sigma, tags)):
        if tag == "unit":
            emit(1.0 + 0.0j, a_mu[:, idx].astype(np.complex128))
        elif tag == "null":
            emit(-1.0 + 0.0j, a_mu[:, idx].astype(np.complex128))
            emit(-1.0 + 0.0j, b_nu[:, idx].astype(np.complex128))
        else:
            theta = np.arccos(np.clip(s, 0.0, 1.0))
            scale = np.sqrt(2.0) * np.sin(theta)
            for sign in (+1.0, -1.0):
                phase = np.exp(sign * 1j * theta)
                vec = (a_mu[:, idx] - phase * b_nu[:, idx]) / scale if with_vectors else None
                emit(np.exp(sign * 2j * theta), vec)
    if "null" in tags:
        notes.append(
            "null singular values present: each assigned two -1 eigenvalues "
            "(outside the generic all-interior case)"
        )

    # Unpaired singular directions on the larger side all map to -1.
    if n > m:
        for idx in range(m, n):
            emit(-1.0 + 0.0j, a_mu[:, idx].astype(np.complex128))
        notes.append(f"{n - m} unpaired vertex-side directions assigned eigenvalue -1")
    elif m > n:
        for idx in range(n, m):
            emit(-1.0 + 0.0j, b_nu[:, idx].astype(np.complex128))
        notes.append(f"{m - n} unpaired edge-side directions assigned eigenvalue -1")

    # Everything orthogonal to both isometry ranges is fixed by the walk.
    n_unit = tags.count("unit")
    joint_rank = n + m - n_unit
    complement_dim = size - joint_rank
    if with_vectors and complement_dim > 0:
        joint = np.hstack((iso.vertex_isometry, iso.edge_isometry))
        basis, _, _ = np.linalg.svd(joint, full_matrices=True)
        for idx in range(joint_rank, size):
            emit(1.0 + 0.0j, basis[:, idx].astype(np.complex128))
    else:
        values.extend([1.0 + 0.0j] * complement_dim)

    eigenvalues = np.asarray(values, dtype=np.complex128)
    eigenvectors = None
    residuals = None
    if with_vectors:
        eigenvectors = np.column_stack(vectors) if vectors else np.zeros((size, 0), complex)
        residuals = np.linalg.norm(
            walk_action(iso, eigenvectors) - eigenvectors * eigenvalues[None, :], axis=0
        )
    return SpectrumPrediction(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        classification=tags,
        residuals=residuals,
        notes=tuple(notes),
    )


def brute_force_spectrum(walk: WalkOperator) -> BruteForceSpectrum:
    """Independent oracle: general eigendecomposition of the dense walk matrix."""
    dense = walk.dense
    values, vectors = np.linalg.eig(dense)
    residual = np.linalg.norm(dense @ vectors - vectors * values[None, :], axis=0).max()
    return BruteForceSpectrum(eigenvalues=values, max_residual=float(residual))


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
    """Cluster circle-sorted values whose neighbours are within tol."""
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
        raise CountMismatchError(
            f"predicted has {len(predicted)} eigenvalues, actual has {len(actual)}"
        )
    return float(np.abs(_circle_sort(predicted) - _circle_sort(actual)).max(initial=0.0))


def verify(
    prediction: SpectrumPrediction,
    actual: np.ndarray | BruteForceSpectrum,
    tol: float = VERIFY_TOL_DEFAULT,
) -> Verdict:
    """Match prediction against brute-force eigenvalues and check residuals."""
    tol = _check_tolerance(tol)
    if prediction.residuals is None:
        raise ValueError("prediction carries no eigenvectors; rerun with with_vectors=True")
    if isinstance(actual, BruteForceSpectrum):
        actual = actual.eigenvalues
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
    ts = build_transitions(hg)
    ps = build_pair_space(hg)
    iso = build_isometries(hg, ts, ps)
    walk = build_walk(iso)
    svd = full_svd(discriminant(ts))
    verifiable = walk.size <= dense_cap()
    prediction = predict_spectrum(svd, iso, tol=classify_tol, with_vectors=verifiable)
    profile = degree_profile(hg)
    if verifiable:
        actual = brute_force_spectrum(walk)
        verdict = verify(prediction, actual, tol=verify_tol)
        actual_values = actual.eigenvalues
        verdict_label = "pass" if verdict.passed else "fail"
        pairing = verdict.max_pairing_distance
        residual = verdict.max_residual
    else:
        actual_values = None
        verdict_label = "unverified"
        pairing = None
        residual = None
    return SpectralReport(
        n=hg.n,
        m=hg.m,
        k=profile.k,
        d=profile.d,
        size=ps.size,
        singular_values=svd.singular_values,
        classification=prediction.classification,
        predicted=prediction.eigenvalues,
        actual=actual_values,
        max_pairing_distance=pairing,
        max_residual=residual,
        deviations=prediction.notes,
        verdict=verdict_label,
    )
