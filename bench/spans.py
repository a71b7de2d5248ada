"""Span recorder for the traced run.

It wraps each traced public function and rebinds the wrapper everywhere a
`hyperwalk.*` module holds that function by name (for example `cli` holds
`analyze`, `spectral` holds `walk_action`), so nested calls become child
spans. Nothing under `src/` changes. Spans stay in memory as parallel
lists (name, start, end, parent, command id) until the run writes them out.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

import numpy as np

LAYERS = {
    "hypergraph": (
        "parse",
        "from_edge_lists",
        "random_regular_uniform",
        "serialize",
        "degree_profile",
        "is_connected",
    ),
    "classical": ("build_transitions", "classical_step", "stationary_distribution"),
    "operators": (
        "build_pair_space",
        "build_isometries",
        "build_walk",
        "apply_walk",
        "walk_action",
        "vertex_distribution",
    ),
    "spectral": (
        "discriminant",
        "full_svd",
        "predict_spectrum",
        "brute_force_spectrum",
        "verify",
        "analyze",
        "SpectralReport.to_json",
    ),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)
# Functions whose result size is recorded: the dense objects that set memory.
OUT_BYTES = (
    "classical.build_transitions",
    "operators.build_pair_space",
    "operators.build_isometries",
    "operators.build_walk",
    "spectral.full_svd",
    "spectral.predict_spectrum",
)


def _arrays(obj, found: dict) -> dict:
    """Collect the ndarrays reachable through (nested) dataclass fields, by id."""
    if isinstance(obj, np.ndarray):
        found[id(obj)] = obj.nbytes
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for field in dataclasses.fields(obj):
            _arrays(getattr(obj, field.name), found)
    return found


def new_bytes(result, args, kwargs) -> int:
    """Bytes of the arrays a call returned that it was not handed as input."""
    given: dict = {}
    for value in (*args, *kwargs.values()):
        _arrays(value, given)
    return sum(size for key, size in _arrays(result, {}).items() if key not in given)


class Recorder:
    """Installs the wrappers and keeps every span of the traced commands."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.command: list[int] = []
        self.out_bytes = {name: 0 for name in OUT_BYTES}
        self.verify_calls = 0
        self.verify_passed = 0
        self.command_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        rec = self
        measure = name in OUT_BYTES
        is_verify = name == "spectral.verify"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(rec.name)
            rec.name.append(name)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.command.append(rec.command_id)
            rec.end.append(0.0)
            rec._stack.append(index)
            rec.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[index] = time.perf_counter()
                rec._stack.pop()
            if measure:
                rec.out_bytes[name] = max(rec.out_bytes[name], new_bytes(result, args, kwargs))
            if is_verify:
                rec.verify_calls += 1
                rec.verify_passed += bool(result.passed)
            return result

        return wrapper

    def install(self) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "hyperwalk" or key.startswith("hyperwalk."))
        ]
        for qualified in FUNCTIONS:
            layer, _, attr = qualified.partition(".")
            owner = sys.modules.get(f"hyperwalk.{layer}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                continue  # removed by a later version: it simply stops reporting
            wrapper = self._wrap(qualified, original)
            targets = [owner] if path else modules
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, key, original))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def arrays(self):
        """Spans as numpy columns, with each span's self time."""
        start = np.asarray(self.start)
        duration = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return {
            "name": np.asarray(self.name),
            "command": np.asarray(self.command, dtype=np.int64),
            "parent": parent,
            "start": start,
            "duration": duration,
            "self": duration - child,
        }

    def as_json(self) -> dict:
        cols = self.arrays()
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "command": self.command,
            "self_s": cols["self"].tolist(),
        }


def span_cost(samples: int = 20000) -> float:
    """Seconds one wrapper adds to a call, from a wrapped versus a bare no-op."""

    def noop():
        return None

    rec = Recorder()
    wrapped = rec._wrap("calibration", noop)
    totals = []
    for fn in (noop, wrapped):
        t0 = time.perf_counter()
        for _ in range(samples):
            fn()
        totals.append(time.perf_counter() - t0)
    return max(totals[1] - totals[0], 0.0) / samples
