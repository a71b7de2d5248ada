"""Command-line front end.

Subcommands: gen, info, classical, evolve, spectrum, fuzz. Exit codes are a
stable contract: 0 success (or verification pass), 1 verification failure,
2 usage or validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import accumulate
from pathlib import Path

import numpy as np

from .classical import Distribution, build_transitions, classical_step
from .hypergraph import (
    degree_profile,
    is_connected,
    parse,
    random_feasible_parameters,
    random_regular_uniform,
    read_integers,
    serialize,
)
from .operators import (
    basis_pair_state,
    build_walk,
    evolve,
    vertex_distribution,
    vertex_superposition,
)
from .spectral import (
    CLASSIFY_TOL_DEFAULT,
    TOL_CEILING,
    VERIFY_TOL_DEFAULT,
    analyze,
    dense_cap,
)


def _integer(text: str) -> int:
    """text read as .hg integers are; a ValueError makes argparse report an invalid value."""
    values = read_integers([text])
    if values is None:
        raise ValueError(f"not an integer: {text!r}")
    return values[0]


def _seed(text: str) -> int:
    value = _integer(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _nonnegative(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _write_lines(out: str | None, pieces) -> None:
    """Write text pieces, in order, to stdout (out None or "-") or to the file out."""
    if out in (None, "-"):
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w") as handle:
            handle.writelines(pieces)


def _write_text(out: str | None, text: str) -> None:
    _write_lines(out, (text,))


def _read_hypergraph(path: str):
    return parse(Path(path).read_text())


# Values per "%" in a CSV row. "%" grows its text buffer by repeated realloc,
# and the freed buffers stay resident: one "%" per row raised peak RSS by over
# 100 MB at n = 150,000. A block of 128 values is about 3 KB of text, and
# formats within a few percent of the time of a whole row.
_BLOCK = 128


def _series_lines(rows, n: int, fmt: str):
    """The series, from (t, probabilities) rows read once, as text pieces: one JSON
    document, or the CSV rows, each computed and formatted as written, _BLOCK values per "%"."""
    columns = ["t"] + [f"v{i}" for i in range(n)]
    if fmt == "csv":
        yield ",".join(columns) + "\n"
        block = {_BLOCK: ",%.17g" * _BLOCK, n % _BLOCK: ",%.17g" * (n % _BLOCK)}
        for t, probs in rows:
            values = probs.tolist()
            yield "%d" % t
            for i in range(0, n, _BLOCK):
                part = values[i : i + _BLOCK]
                yield block[len(part)] % tuple(part)
            yield "\n"
        return
    payload = {"columns": columns, "rows": [[t] + probs.tolist() for t, probs in rows]}
    yield json.dumps(payload, indent=2) + "\n"


_START_FORMS = {"v": "'v:<index>'", "pair": "'pair:<v>,<e>'"}


def _start_indices(spec: str, n: int, kinds=("v", "pair")) -> tuple[str, list[int]]:
    """("v", [i]) from 'v:<i>' or ("pair", [v, e]) from 'pair:<v>,<e>', for the
    given kinds, with the integers read as in .hg text and a start vertex
    checked against [0, n)."""
    kind, _, rest = spec.partition(":")
    indices = read_integers(rest.split(",")) if kind in kinds else None
    if indices is None or len(indices) != (1 if kind == "v" else 2):
        forms = " or ".join(_START_FORMS[k] for k in kinds)
        raise ValueError(f"start must be {forms}, got {spec!r}")
    if kind == "v" and not 0 <= indices[0] < n:
        raise ValueError(f"unknown start vertex {indices[0]}")
    return kind, indices


def _cmd_gen(args) -> int:
    hg = random_regular_uniform(args.n, args.m, args.k, args.d, seed=args.seed)
    _write_text(args.out, serialize(hg))
    return 0


def _cmd_info(args) -> int:
    hg = _read_hypergraph(args.file)
    profile = degree_profile(hg)
    total = int(profile.vertex_degrees.sum())
    connected = is_connected(hg)
    handshake = profile.is_regular and profile.is_uniform
    if args.format == "json":
        payload = {
            "n": hg.n,
            "m": hg.m,
            "vertex_degrees": profile.vertex_degrees.tolist(),
            "edge_degrees": profile.edge_degrees.tolist(),
            "regular": profile.d,
            "uniform": profile.k,
            "N": total,
            "nd_equals_mk": bool(hg.n * profile.d == hg.m * profile.k) if handshake else None,
            "connected": connected,
        }
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
        return 0
    lines = [
        f"n: {hg.n}",
        f"m: {hg.m}",
        f"vertex degrees: {profile.vertex_degrees.tolist()}",
        f"edge degrees: {profile.edge_degrees.tolist()}",
        f"regular: {'true (d=%d)' % profile.d if profile.is_regular else 'false'}",
        f"uniform: {'true (k=%d)' % profile.k if profile.is_uniform else 'false'}",
        f"N: {total}",
    ]
    if handshake:
        lines.append(f"nd == mk: {'true' if hg.n * profile.d == hg.m * profile.k else 'false'}")
    lines.append(f"connected: {'true' if connected else 'false'}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_classical(args) -> int:
    hg = _read_hypergraph(args.file)
    ts = build_transitions(hg)
    _, (v,) = _start_indices(args.start, hg.n, kinds=("v",))
    p0 = np.zeros(hg.n)
    p0[v] = 1.0
    dists = accumulate(range(args.steps), lambda d, _: classical_step(ts, d), initial=Distribution(p0))
    rows = ((t, dist.probabilities) for t, dist in enumerate(dists))
    _write_lines(args.out, _series_lines(rows, hg.n, args.format))
    return 0


def _cmd_evolve(args) -> int:
    hg = _read_hypergraph(args.file)
    walk = build_walk(build_transitions(hg))
    kind, indices = _start_indices(args.start, hg.n)
    psi0 = vertex_superposition(walk, *indices) if kind == "v" else basis_pair_state(hg, *indices)
    states = evolve(walk, psi0, args.steps)
    rows = ((t, vertex_distribution(hg, psi).probabilities) for t, psi in enumerate(states))
    _write_lines(args.out, _series_lines(rows, hg.n, args.format))
    return 0


def _cmd_spectrum(args) -> int:
    hg = _read_hypergraph(args.file)
    report = analyze(hg, classify_tol=args.classify_tol, verify_tol=args.tol)
    _write_text(args.out, report.to_json() + "\n")
    return 1 if report.verdict == "fail" else 0


def _instance_thetas(report) -> list[float]:
    return [
        float(np.arccos(np.clip(s, 0.0, 1.0)))
        for s, tag in zip(report.singular_values, report.classification)
        if tag == "interior"
    ]


def _cmd_fuzz(args) -> int:
    rng = np.random.default_rng(args.seed)
    max_pairs = min(512, dense_cap())
    instances = []
    thetas: list[float] = []
    failures = 0
    for index in range(args.count):
        n, m, k, d = random_feasible_parameters(rng, max_n=args.max_n, max_pairs=max_pairs)
        instance_seed = int(rng.integers(0, 2**63))
        hg = random_regular_uniform(n, m, k, d, seed=instance_seed)
        report = analyze(hg, classify_tol=args.classify_tol, verify_tol=args.tol)
        observed = _instance_thetas(report)
        thetas.extend(observed)
        if report.verdict != "pass":
            failures += 1
        instances.append(
            {
                "index": index,
                "n": n,
                "m": m,
                "k": k,
                "d": d,
                "N": report.size,
                "seed": instance_seed,
                "verdict": report.verdict,
                "max_pairing_distance": report.max_pairing_distance,
                "max_residual": report.max_residual,
                "theta_min": min(observed) if observed else None,
                "theta_max": max(observed) if observed else None,
            }
        )
        if args.report not in (None, "-"):
            print(f"instance {index}: n={n} m={m} k={k} d={d} N={report.size} verdict={report.verdict}")
    summary = {
        "count": args.count,
        "passed": args.count - failures,
        "failed": failures,
        "theta_min": min(thetas) if thetas else None,
        "theta_max": max(thetas) if thetas else None,
        "instances": instances,
    }
    _write_text(args.report, json.dumps(summary, indent=2) + "\n")
    return 0 if failures == 0 else 1


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= TOL_CEILING:
        raise argparse.ArgumentTypeError(f"tolerance must be in (0, {TOL_CEILING}]")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperwalk",
        description="Simulate and spectrally verify Szegedy-style walks on hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random d-regular k-uniform hypergraph")
    gen.add_argument("--n", type=_positive, required=True, help="vertex count")
    gen.add_argument("--m", type=_positive, required=True, help="hyperedge count")
    gen.add_argument("--k", type=_positive, required=True, help="vertices per hyperedge")
    gen.add_argument("--d", type=_positive, required=True, help="hyperedges per vertex")
    gen.add_argument("--seed", type=_seed, default=0)
    gen.add_argument("--out", default="-", help=".hg output path (default stdout)")
    gen.set_defaults(func=_cmd_gen)

    info = sub.add_parser("info", help="summarize a .hg file")
    info.add_argument("file")
    info.add_argument("--format", choices=("text", "json"), default="text")
    info.add_argument("--out", default="-")
    info.set_defaults(func=_cmd_info)

    classical = sub.add_parser("classical", help="classical vertex-chain time series")
    classical.add_argument("file")
    classical.add_argument("--start", required=True, help="'v:<index>' point mass")
    classical.add_argument("--steps", type=_nonnegative, required=True)
    classical.add_argument("--format", choices=("csv", "json"), default="csv")
    classical.add_argument("--out", default="-")
    classical.set_defaults(func=_cmd_classical)

    evolve = sub.add_parser("evolve", help="quantum walk vertex-marginal time series")
    evolve.add_argument("file")
    evolve.add_argument("--start", required=True, help="'v:<index>' or 'pair:<v>,<e>'")
    evolve.add_argument("--steps", type=_nonnegative, required=True)
    evolve.add_argument("--format", choices=("csv", "json"), default="csv")
    evolve.add_argument("--out", default="-")
    evolve.set_defaults(func=_cmd_evolve)

    spectrum = sub.add_parser("spectrum", help="spectral verification report (JSON)")
    spectrum.add_argument("file")
    spectrum.add_argument("--tol", type=_tolerance, default=VERIFY_TOL_DEFAULT)
    spectrum.add_argument("--classify-tol", type=_tolerance, default=CLASSIFY_TOL_DEFAULT)
    spectrum.add_argument("--out", default="-")
    spectrum.set_defaults(func=_cmd_spectrum)

    fuzz = sub.add_parser("fuzz", help="verification campaign over random instances")
    fuzz.add_argument("--count", type=_positive, required=True)
    fuzz.add_argument("--max-n", type=_positive, default=24)
    fuzz.add_argument("--seed", type=_seed, default=0)
    fuzz.add_argument("--tol", type=_tolerance, default=VERIFY_TOL_DEFAULT)
    fuzz.add_argument("--classify-tol", type=_tolerance, default=CLASSIFY_TOL_DEFAULT)
    fuzz.add_argument("--report", default="-", help="summary JSON path (default stdout)")
    fuzz.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
