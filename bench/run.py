"""hyperwalk benchmark: the user-facing CLI, driven in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a hyperwalk checkout; it imports the package from
`src/` there and exits 2, printing no result, when `src/hyperwalk` is
missing. One client calls `hyperwalk.cli.main(argv)` in a closed loop
(the next command starts when the previous one returns), so the ~0.1 s
interpreter and numpy import is paid once, in set-up, not per command. The
CLI contract is what the benchmark depends on: library exports may change
underneath it. Every command writes its output to a file in a temporary
directory under `bench/results/`; the checks read those files after the
timed region.

Workloads (whole cycles of a fixed command sequence, repeated until the
command time reaches --seconds):

  spectrum-mid  `spectrum FILE` over four N=1200 files whose shapes vary
                |n-m| and the +1 complement dimension N-n-m+c: the
                discriminant SVD, prediction and dense eig oracle.
  series-long   `evolve --start v:0`, `evolve --start pair:0,<e>` and
                `classical --start v:0`, 50 steps each, on one N=3000
                file: repeated walk steps, and CSV output.
  fuzz-small    `fuzz --count 50 --seed S_i` with seeds derived from
                --seed: thousands of tiny instances, so per-call overhead.
                BENCHMARK.json does not list it: its interpreter-bound
                commands drift with the speed of a shared host, and the time
                all gated runs may take left no room to lengthen its runs.
                Run it by hand to see fixed per-call costs.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced cycles and prints the per-layer metrics
(calls and self time per cycle of each traced function, see spans.py).
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a readable report. A JSON file
with the environment, inputs, every command and, when traced, every span
is written to bench/results/.

The result line carries the same four end-to-end metrics on every workload,
because each result must hold every metric BENCHMARK.json lists:

  setup_s      median of five set-up rounds, each a fresh interpreter
               importing hyperwalk, input generation and one warm-up command
  peak_rss_mb  peak resident memory, read before the output checks; freed
               memory stays in the process, so this is the largest heap
               the command sequence needed
  cmd_p50_s    median time of the headline command: spectrum_p50_s,
               evolve_p50_s or fuzz_p50_s
  work_per_s   median over cycles of the work a cycle completes per second
               of its command time: pairs N with verdict pass on
               spectrum-mid and fuzz-small, walk plus chain steps on
               series-long (a median, so one slow burst moves it little)

The readable report prints the workload-specific metrics under their own
names (walk_steps_per_s, classical_steps_per_s, fuzz_tail_s, ...) and
error_rate. error_rate is 0 on a correct program, so the result line
carries it as `failed` out of `attempted` rather than as a bounded metric.
"""

import os

# Fixed before numpy is first imported; one thread keeps the runs steady on
# a shared machine and is within any nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# analyze must use the package's default dense cap, whatever the caller's shell says.
os.environ.pop("HYPERWALK_DENSE_CAP", None)

import ctypes  # noqa: E402

# Keep freed memory in the process: every allocation comes from glibc's heap
# (the mmap threshold is above any array the workloads make) and the heap is
# never trimmed. After the set-up's warm-up command, each command reuses pages
# that are already resident, so its time is the program's work. When freed
# arrays went back to the OS, faulting them in again on the next command cost
# up to a second of wall time that was neither user nor system time on a
# virtual machine, where the host serves those faults; the same evolve
# command then varied by 35% between processes instead of 4%. The limits are
# fixed from the start, so peak RSS is set by the command sequence alone.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
HEAP_LIMIT = 1 << 30
try:
    _libc = ctypes.CDLL("libc.so.6")
    HEAP_ONLY = bool(_libc.mallopt(M_MMAP_THRESHOLD, HEAP_LIMIT) and _libc.mallopt(M_TRIM_THRESHOLD, HEAP_LIMIT))
except OSError:
    HEAP_ONLY = False

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

SETUP_ROUNDS = 5
# (name, n, m, k, d): tall, larger cycle space, wide; then a two-piece union.
SPECTRUM_SHAPES = (
    ("tall", 600, 400, 3, 2),
    ("cycles", 400, 300, 4, 3),
    ("wide", 300, 400, 3, 4),
)
UNION_PIECES = ((300, 200, 3, 2), (200, 150, 4, 3))
SERIES_SHAPE = ("long", 1500, 1000, 3, 2)
SERIES_STEPS = 50
FUZZ_COUNT = 50
# ROADMAP baseline rows, seconds per call, for the traced cross-check.
ROADMAP_APPLY_WALK_N3000 = 0.022
ROADMAP_PREDICT = (0.175, 2.9)  # N=600, N=1800
ROADMAP_EIG = (0.373, 3.5)

WORKLOADS = ("spectrum-mid", "series-long", "fuzz-small")


@dataclass
class Command:
    """One CLI invocation and what became of it."""

    index: int
    kind: str
    argv: list
    out: Path
    phase: str
    cycle: int
    source: str | None = None
    start: str | None = None
    steps: int = 0
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    rc: int | None = None
    error: str | None = None
    pairs: int = 0

    @property
    def failed(self) -> bool:
        return self.rc != 0 or self.error is not None

    def record(self) -> dict:
        return dict(asdict(self), out=self.out.name)


def fuzz_seed(seed: int, stream: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1, np.uint64)[0])


class Bench:
    """One workload's inputs, command cycle, runs and checks."""

    def __init__(self, workload: str, seed: int, work: Path, log, cli):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.log = log
        self.cli = cli
        self.files: dict[str, tuple[Path, inputs.Descriptor, list]] = {}
        self.commands: list[Command] = []

    # -- inputs and command cycles --------------------------------------

    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        if self.workload == "spectrum-mid":
            drawn = [(name, n, inputs.regular_uniform(rng, n, m, k, d)) for name, n, m, k, d in SPECTRUM_SHAPES]
            n, edges = inputs.disjoint_union([(p[0], inputs.regular_uniform(rng, *p)) for p in UNION_PIECES])
            drawn.append(("union", n, edges))
        elif self.workload == "series-long":
            name, n, m, k, d = SERIES_SHAPE
            drawn = [(name, n, inputs.regular_uniform(rng, n, m, k, d))]
        else:
            drawn = []
        for name, n, edges in drawn:
            path, desc = inputs.write(self.work, name, n, edges)
            self.files[name] = (path, desc, edges)

    def _command(self, kind: str, phase: str, cycle: int, **kw) -> Command:
        index = len(self.commands)
        ext = "json" if kind in ("spectrum", "fuzz") else "csv"
        out = self.work / f"{index:05d}-{kind}.{ext}"
        if kind == "fuzz":
            argv = ["fuzz", "--count", str(FUZZ_COUNT), "--seed", str(kw.pop("seed")), "--report", str(out)]
        else:
            argv = [kind, str(self.files[kw["source"]][0])]
            if kind != "spectrum":
                argv += ["--start", kw["start"], "--steps", str(kw["steps"])]
            argv += ["--out", str(out)]
        cmd = Command(index, kind, argv, out, phase, cycle, **kw)
        self.commands.append(cmd)
        return cmd

    def warmup(self, rnd: int) -> Command:
        if self.workload == "spectrum-mid":
            return self._command("spectrum", "setup", rnd, source=SPECTRUM_SHAPES[1][0])
        if self.workload == "series-long":
            return self._command("evolve", "setup", rnd, source=SERIES_SHAPE[0], start="v:0", steps=SERIES_STEPS)
        return self._command("fuzz", "setup", rnd, seed=fuzz_seed(self.seed, 0, rnd))

    def cycle(self, index: int, phase: str) -> list[Command]:
        if self.workload == "spectrum-mid":
            return [self._command("spectrum", phase, index, source=name) for name in self.files]
        if self.workload == "series-long":
            name = SERIES_SHAPE[0]
            edges = self.files[name][2]
            e0 = next(j for j, e in enumerate(edges) if 0 in e)
            return [
                self._command(kind, phase, index, source=name, start=start, steps=SERIES_STEPS)
                for kind, start in (("evolve", "v:0"), ("evolve", f"pair:0,{e0}"), ("classical", "v:0"))
            ]
        return [self._command("fuzz", phase, index, seed=fuzz_seed(self.seed, 1, index))]

    # -- running ----------------------------------------------------------

    def run(self, cmd: Command, rec: spans.Recorder | None = None) -> float:
        if rec is not None:
            rec.command_id = cmd.index
        with redirect_stdout(self.log), redirect_stderr(self.log):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                cmd.rc = self.cli.main(cmd.argv)
            except Exception:  # a crash is a failed command, not a failed run
                cmd.error = traceback.format_exc()
            cmd.seconds = time.perf_counter() - t0
            cmd.cpu_seconds = time.process_time() - c0
        return cmd.seconds

    def setup_round(self, rnd: int) -> float:
        """Import in a fresh interpreter, generate the inputs, run one warm-up command."""
        t0 = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
        subprocess.run([sys.executable, "-c", "import hyperwalk.cli"], env=env, check=True, timeout=120)
        self.make_inputs()
        self.run(self.warmup(rnd))
        return time.perf_counter() - t0

    def timed(self, seconds: float) -> None:
        busy, index = 0.0, 0
        while busy < seconds:
            busy += sum(self.run(cmd) for cmd in self.cycle(index, "timed"))
            index += 1

    def traced(self, seconds: float, rec: spans.Recorder) -> list[tuple[float, float]]:
        """Untraced and traced runs of the same cycle; returns their wall times.

        The order alternates from pair to pair, so a drift in machine speed
        does not bias the overhead ratio one way.
        """

        def traced_wall(index: int) -> float:
            rec.install()
            try:
                return sum(self.run(cmd, rec) for cmd in self.cycle(index, "traced"))
            finally:
                rec.uninstall()

        def plain_wall(index: int) -> float:
            return sum(self.run(cmd) for cmd in self.cycle(index, "untraced"))

        pairs: list[tuple[float, float]] = []
        elapsed, index = 0.0, 0
        while elapsed < seconds:
            if index % 2 == 0:
                plain = plain_wall(index)
                traced = traced_wall(index)
            else:
                traced = traced_wall(index)
                plain = plain_wall(index)
            pairs.append((plain, traced))
            elapsed += plain + traced
            index += 1
        return pairs

    # -- checks -----------------------------------------------------------

    def check(self) -> None:
        """Check every output file; a failed check marks its command failed."""
        walk_ref = None
        referenced: set = set()
        for cmd in self.commands:
            try:
                if cmd.rc != 0:
                    raise checks.CheckFailed(f"exit code {cmd.rc}")
                if cmd.kind == "spectrum":
                    cmd.pairs = checks.spectrum(cmd.out, self.files[cmd.source][1].N)
                elif cmd.kind == "fuzz":
                    summary = checks.fuzz(cmd.out, FUZZ_COUNT)
                    cmd.pairs = sum(i["N"] for i in summary["instances"] if i["verdict"] == "pass")
                else:
                    _, desc, edges = self.files[cmd.source]
                    n = desc.n
                    final = checks.series(cmd.out, n, cmd.steps)
                    key = (cmd.kind, cmd.start)
                    if key not in referenced:
                        if cmd.kind == "classical":
                            ref = checks.chain_final_row(n, edges, cmd.start, cmd.steps)
                        else:
                            walk_ref = walk_ref or checks.WalkReference(n, edges)
                            ref = walk_ref.final_row(cmd.start, cmd.steps)
                        checks.match(cmd.out, final, ref)
                        referenced.add(key)
            except (checks.CheckFailed, OSError, KeyError, ValueError, IndexError) as exc:
                cmd.error = cmd.error or f"{type(exc).__name__}: {exc}"

    def fuzz_descriptors(self) -> list[dict]:
        """Descriptors of the first timed fuzz command's instances, via `hyperwalk gen`."""
        first = next((c for c in self.commands if c.kind == "fuzz" and c.phase != "setup" and not c.failed), None)
        if first is None:
            return []
        out = []
        path = self.work / "instance.hg"
        for inst in json.loads(first.out.read_text())["instances"]:
            argv = ["gen", "--n", str(inst["n"]), "--m", str(inst["m"]), "--k", str(inst["k"]),
                    "--d", str(inst["d"]), "--seed", str(inst["seed"]), "--out", str(path)]
            with redirect_stdout(self.log), redirect_stderr(self.log):
                if self.cli.main(argv) != 0:
                    continue
            n, edges = inputs.read(path)
            out.append(asdict(inputs.describe(f"fuzz-{inst['index']}", n, edges)))
        return out


# -- metrics ----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest of the usual percentiles with at least 10 samples beyond it."""
    ordered = sorted(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = int(np.ceil(pct / 100.0 * len(ordered)))
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def end_to_end(bench: Bench, setup_s: float, peak_rss_mb: float) -> tuple[dict, list]:
    """The four result-line metrics, and the report rows under workload-specific names."""
    attempted = len(bench.commands)
    failed = sum(c.failed for c in bench.commands)
    timed = [c for c in bench.commands if c.phase == "timed"]
    rows = [
        ("setup_s", setup_s, "s", f"median of {SETUP_ROUNDS} rounds of import, inputs and one warm-up command"),
        ("error_rate", failed / attempted, "ratio", f"{failed} of {attempted} commands"),
        ("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss before the output checks"),
    ]

    def of(kind):
        return [c for c in timed if c.kind == kind]

    if bench.workload in ("spectrum-mid", "fuzz-small"):
        kind = "spectrum" if bench.workload == "spectrum-mid" else "fuzz"
        cmds = of(kind)
        secs = [c.seconds for c in cmds]
        pairs_per_s = sum(c.pairs for c in cmds) / sum(secs)
        p50 = statistics.median(secs)
        rows.append(("verified_pairs_per_s", pairs_per_s, "pairs/s", "sum of N with verdict pass / timed seconds"))
        rows.append((f"{kind}_p50_s", p50, "s", f"n={len(secs)}"))
        if kind == "fuzz":
            t = tail(secs)
            if t is not None:
                rows.append(("fuzz_tail_s", t[1], "s", f"p{t[0]:g}, n={len(secs)}"))
    else:
        evolve, classical = of("evolve"), of("classical")
        e_secs = [c.seconds for c in evolve]
        e_steps = sum(c.steps for c in evolve)
        c_steps = sum(c.steps for c in classical)
        c_secs = sum(c.seconds for c in classical)
        p50 = statistics.median(e_secs)
        rows.append(("walk_steps_per_s", e_steps / sum(e_secs), "steps/s", f"{e_steps} steps"))
        rows.append(("evolve_p50_s", p50, "s", f"n={len(e_secs)}"))
        rows.append(("classical_steps_per_s", c_steps / c_secs, "steps/s", f"{c_steps} steps"))
    per_cycle: dict[int, tuple[float, float]] = {}
    for c in timed:
        work, secs = per_cycle.get(c.cycle, (0, 0.0))
        # Steps for evolve and classical; verified pairs for spectrum and fuzz.
        per_cycle[c.cycle] = (work + (c.steps or c.pairs), secs + c.seconds)
    work_per_s = statistics.median(work / secs for work, secs in per_cycle.values())
    gated = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cmd_p50_s": (p50, "s"),
        "work_per_s": (work_per_s, "1/s"),
    }
    return gated, rows


def per_layer(bench: Bench, rec: spans.Recorder, pairs: list, span_cost: float) -> tuple[dict, list]:
    """Per-cycle calls and self time of each traced function, plus rollups."""
    cols = rec.arrays()
    traced = [c for c in bench.commands if c.phase == "traced"]
    cycle_of = np.full(len(bench.commands), -1)
    for c in traced:
        cycle_of[c.index] = c.cycle
    span_cycle = cycle_of[cols["command"]] if len(rec.name) else np.zeros(0, dtype=np.int64)
    cycles = sorted({c.cycle for c in traced})
    metrics: dict = {}
    for layer, names in spans.LAYERS.items():
        layer_self = np.zeros(len(cycles))
        for fname in names:
            qualified = f"{layer}.{fname}"
            mask = cols["name"] == qualified
            per_cycle = np.array([cols["self"][mask & (span_cycle == cy)].sum() for cy in cycles])
            layer_self += per_cycle
            calls = int(mask.sum()) / len(cycles)
            metrics[f"{qualified}.calls"] = (int(calls) if calls.is_integer() else calls, "count")
            metrics[f"{qualified}.self_s"] = (float(np.median(per_cycle)), "s")
        metrics[f"{layer}.self_s"] = (float(np.median(layer_self)), "s")
    for qualified in spans.OUT_BYTES:
        metrics[f"{qualified}.out_bytes"] = (rec.out_bytes[qualified], "B")
    ratio = rec.verify_passed / rec.verify_calls if rec.verify_calls else 0.0
    metrics["spectral.verify.pass_ratio"] = (ratio, "ratio")
    metrics["trace_overhead_ratio"] = (statistics.median(t / p for p, t in pairs), "ratio")

    # Self times of a command's spans must add up to its wall time.
    notes = []
    for c in traced:
        mask = cols["command"] == c.index
        roots = int((mask & (cols["parent"] < 0)).sum())
        gap = c.seconds - float(cols["self"][mask].sum())
        allowance = 1e-3 + 4 * span_cost * int(mask.sum())
        if roots != 1 or not -1e-9 <= gap <= allowance or cols["self"][mask].min(initial=0.0) < -1e-9:
            c.error = c.error or f"span self times miss the wall time by {gap:.3g} s ({roots} roots)"

    def inclusive(qualified):
        mask = cols["name"] == qualified
        return float(cols["duration"][mask].mean()) if mask.any() else None

    headline = {"spectrum-mid": ("spectrum", ("spectral.predict_spectrum", "spectral.brute_force_spectrum")),
                "series-long": ("evolve", ("operators.apply_walk",))}.get(bench.workload)
    if headline is not None:
        kind, names = headline
        of_kind = [c for c in traced if c.kind == kind]
        in_kind = np.isin(cols["command"], [c.index for c in of_kind])
        busy = float(cols["self"][in_kind & np.isin(cols["name"], names)].sum())
        notes.append(f"self time of {' + '.join(names)}: {busy / sum(c.seconds for c in of_kind):.1%} of traced {kind} time")

    if bench.workload == "series-long":
        per_call = inclusive("operators.apply_walk")
        if per_call is not None:
            notes.append(
                f"cross-check apply_walk at N=3000: {per_call * 1e3:.1f} ms per call, "
                f"ROADMAP table 22 ms (ratio {per_call / ROADMAP_APPLY_WALK_N3000:.2f})"
            )
    if bench.workload == "spectrum-mid":
        for qualified, (lo, hi) in (("spectral.predict_spectrum", ROADMAP_PREDICT),
                                    ("spectral.brute_force_spectrum", ROADMAP_EIG)):
            per_call = inclusive(qualified)
            if per_call is not None:
                verdict = "within" if lo <= per_call <= hi else "OUTSIDE"
                notes.append(
                    f"cross-check {qualified} at N=1200: {per_call:.3f} s per call, {verdict} "
                    f"the ROADMAP N=600..1800 range [{lo}, {hi}] s"
                )
    return metrics, notes


# -- environment ------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS reports, when it can be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": BLAS_THREADS,
        "heap_only_malloc": HEAP_ONLY,
        "blas_threads": blas_threads(),
        "commit": commit(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


# -- entry point ------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hyperwalk" / "cli.py").is_file():
        print(f"error: {SRC / 'hyperwalk'} not found; run from the root of a hyperwalk checkout", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import hyperwalk.cli

    if Path(hyperwalk.cli.__file__).resolve().parent != SRC / "hyperwalk":
        print(f"error: imported {hyperwalk.cli.__file__}, not the checkout's", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp, open(Path(tmp) / "cli.log", "w") as log:
        bench = Bench(args.workload, args.seed, Path(tmp), log, hyperwalk.cli)
        rounds = [bench.setup_round(r) for r in range(SETUP_ROUNDS)]
        setup_s = statistics.median(rounds)
        rec = spans.Recorder() if args.trace else None
        span_cost = spans.span_cost() if args.trace else 0.0
        if args.trace:
            pairs = bench.traced(args.seconds, rec)
        else:
            bench.timed(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bench.check()
        notes: list[str] = []
        if args.trace:
            gated, notes = per_layer(bench, rec, pairs, span_cost)
            rows = [(name, value, unit, "") for name, (value, unit) in gated.items()]
        else:
            gated, rows = end_to_end(bench, setup_s, peak_rss_mb)
        descriptors = [asdict(f[1]) for f in bench.files.values()] + bench.fuzz_descriptors()
        attempted = len(bench.commands)
        failed = sum(c.failed for c in bench.commands)
        env = environment()
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in gated.items()},
        }
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": env,
            "setup_rounds_s": rounds,
            "inputs": descriptors,
            "report": [{"name": n, "value": v, "unit": u, "note": note} for n, v, u, note in rows],
            "notes": notes,
            "result": result,
            "commands": [c.record() for c in bench.commands],
        }
        if args.trace:
            record["span_cost_s"] = span_cost
            record["cycle_walls_s"] = pairs
            record["spans"] = rec.as_json()
        out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record) + "\n")

    print(f"hyperwalk benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for d in descriptors[:8]:
        print("input " + " ".join(f"{k}={v}" for k, v in d.items()))
    if len(descriptors) > 8:
        print(f"... {len(descriptors) - 8} more inputs in {out.relative_to(ROOT)}")
    for c in bench.commands:
        if c.failed:
            print(f"FAILED {' '.join(c.argv)}: {c.error}")
    for name, value, unit, note in rows:
        print(f"{name:48s} {value:>16.6g} {unit:8s} {note}")
    for note in notes:
        print(note)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
