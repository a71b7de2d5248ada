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


# CSV values rendered per pass; it bounds the rows held back and the renderer's arrays.
_CSV_VALUES = 4096

# _csv_text lays each value out in 32 columns, then drops the spaces. For decimal
# exponent -c, first digit h and z = 1 when all later digits are 0, columns 0-7
# are _PREFIX[20 c + 2 h + z]: a comma and "0.000" up to h at 7, or h at 6 and a
# point at 7 (blank if z = 1). Columns 8-23 are the next 16 digits by four,
# _DIGITS[g + 10000 z], trailing zeros blank; 24-31 are _SUFFIX[c], "e-XX" below
# 1e-4. _TENS[k] is the least double that is 10**(k - 10) or more at 17 digits.
_PREFIX = "".join((",0." + "0" * (c - 1) + str(h)).rjust(8) if 1 <= c <= 4 else "     ,%d%s" % (h, ". "[z])
                  for c in range(11) for h in range(10) for z in (0, 1))
_PREFIX = np.frombuffer(_PREFIX.encode(), np.uint64)
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1) + 48
_DIGITS = np.hstack([_DIGITS, np.where(np.logical_or.accumulate(_DIGITS[::-1] > 48)[::-1], _DIGITS, 32)])
_DIGITS = _DIGITS.T.copy().view(np.uint32).ravel()
_SUFFIX = np.frombuffer("".join("e-%02d    " % c if c >= 5 else " " * 8 for c in range(11)).encode(), np.uint64)
_TENS = np.array([(10**18 - 5) / 10 ** (28 - k) for k in range(11)])
_TENS = np.where([a * 10 ** (28 - k) < b * (10**18 - 5) for k, (a, b) in enumerate(map(float.as_integer_ratio, _TENS))],
                 np.nextafter(_TENS, 1), _TENS)
# Every integer operand below is uint64: numpy 1.x turns uint64 with int64 into float64.
_POW5 = 5 ** np.arange(27, dtype=np.uint64)


def _csv_text(values):
    """For each row of values, the text of ",%.17g" % v for each v in it.

    A value v = m * 2**(e - 53) in [1e-10, 10) whose 17 digits have decimal
    exponent -c has the digits d = m * 5**p / 2**(53 - e - p), p = 16 + c,
    rounded half to even, from the 128-bit product of 32-bit halves; +0.0 is
    d = 0. Each other value (-0.0, nan, inf and the rest) is formatted alone.
    """
    x = values.ravel()
    fast, zero = (x >= 1e-10) & (x < 10), (x == 0) & ~np.signbit(x)
    xs = np.where(fast, x, 1.0)
    frac, e = np.frexp(xs)
    c = np.uint64(11) - np.searchsorted(_TENS, xs, "right").astype(np.uint64)
    m, s, f = (frac * 2.0**53).astype(np.uint64), (37 - e).astype(np.uint64) - c, np.take(_POW5, 16 + c)
    m0, m1, f0, f1 = m & 0xFFFFFFFF, m >> 32, f & 0xFFFFFFFF, f >> 32
    low, cross, cross2 = m0 * f0, m0 * f1, m1 * f0
    mid = (low >> 32) + (cross & 0xFFFFFFFF) + (cross2 & 0xFFFFFFFF)
    lo = (low & 0xFFFFFFFF) | (mid << 32)
    d = ((m1 * f1 + (cross >> 32) + (cross2 >> 32) + (mid >> 32)) << (64 - s)) | (lo >> s)
    d += (lo & ((1 << s) - 1)) + (d & 1) > 1 << (s - 1)
    d[zero] = 0
    words, blank = np.empty((x.size, 4), np.uint64), True
    for j in (3, 2, 1, 0):
        g = d // 10 ** (12 - 4 * j) % 10**4
        words.view(np.uint32)[:, 2 + j] = np.take(_DIGITS, g + blank * np.uint64(10000))
        blank = blank & (g == 0)
    words[:, 0], words[:, 3] = np.take(_PREFIX, c * 20 + d // 10**16 * 2 + blank), np.take(_SUFFIX, c)
    alone = np.flatnonzero(~(fast | zero))
    words[alone] = np.frombuffer("".join(",%-31.17g" % v for v in x[alone].tolist()).encode(), np.uint64).reshape(-1, 4)
    text = words.view(np.uint8).ravel()
    text[32 * values.shape[1] - 1 :: 32 * values.shape[1]] = 10  # a row's last column is blank
    return text[text != 32].tobytes().decode().split("\n")[:-1]


def _series_lines(rows, n: int, fmt: str):
    """The series, from (t, probabilities) rows read once, as text pieces: one JSON
    document, or CSV rows rendered once _CSV_VALUES values or one longer row (in slabs)
    are held. If computing the next row raises, the CSV rows held are yielded first."""
    columns = ["t"] + [f"v{i}" for i in range(n)]
    if fmt == "csv":
        yield ",".join(columns) + "\n"
        block, times = np.empty((max(_CSV_VALUES // n, 1), n)), []

        def rendered():
            slabs = [_csv_text(block[: len(times), i : i + _CSV_VALUES]) for i in range(0, n, _CSV_VALUES)]
            return "".join("%d%s\n" % (t, "".join(row)) for t, row in zip(times, zip(*slabs)))

        try:
            for t, probs in rows:
                block[len(times)] = probs
                times.append(t)
                if len(times) == len(block):
                    yield rendered()
                    times.clear()
        except Exception:
            yield rendered()
            raise
        yield rendered()
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
