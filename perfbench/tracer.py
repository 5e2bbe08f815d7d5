"""Span recorder for the traced benchmark run.

Run as a program, it executes one ``leechdesign`` command in-process with
the public functions of each module wrapped, exactly as the CLI would run
it in a fresh process:

    PYTHONPATH=src python3 perfbench/tracer.py --spans spans.json -- verify-design --in d.txt

Every call of a wrapped function becomes a span: name, parent span, start,
end and the counters read at that boundary.  Spans stay in memory and are
written once, after the command returns.  ``summarize`` turns one span file
into per-function totals (wall time, self time, calls, counters).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

# Public functions timed per module.  `cli` and `construct` import most of
# these by name, so each one is replaced wherever the original object is
# bound, not only in its home module.
TRACED = {
    "lattice": ["default_context", "enumerate_coset_shell"],
    "unique": [
        "enumerate_candidates",
        "build_dual_frame",
        "generated_lattice_membership",
        "split_candidates",
        "twin_design",
    ],
    "coherent": [
        "classify_pairs",
        "intersection_numbers",
        "compare_with_reference",
        "check_tensor_identities",
    ],
    "design": [
        "euclidean_strength",
        "moment_spot_check",
        "spherical_strength",
        "tightness_check",
    ],
    "construct": [
        "build_design",
        "build_Y",
        "check_X1_equals_PY",
        "z_value_histogram",
        "y_antipodal_pair_count",
    ],
    "io": ["read_design", "write_design", "write_tensor", "write_candidates"],
    "cli": [
        "verify_design_claims",
        "verify_coherent_claims",
        "verify_unique_claims",
        "verify_seven_claims",
    ],
}


def _coset_key(args, kwargs) -> str:
    constraints = args[0] if args else kwargs["constraints"]
    norm = args[1] if len(args) > 1 else kwargs["norm"]
    parts = [f"{c.anchor.tolist()}={c.value}" for c in constraints]
    return f"{';'.join(parts)}|norm={norm}"


class Recorder:
    """Collects spans in memory; `wrap` turns a function into a traced one."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def wrap(self, name: str, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1]["id"] if self._stack else None
            span = {"id": len(self.spans), "parent": parent, "name": name, "counters": {}}
            self.spans.append(span)
            self._stack.append(span)
            state = before(span, args, kwargs) if before else None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if after:
                after(span, args, kwargs, result, state)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each traced function in the package."""
        modules = {m: importlib.import_module(f"leechdesign.{m}") for m in TRACED}
        importlib.import_module("leechdesign.cli")
        package = [
            mod for key, mod in list(sys.modules.items())
            if key == "leechdesign" or key.startswith("leechdesign.")
        ]
        for mod_name, names in TRACED.items():
            for fn_name in names:
                original = getattr(modules[mod_name], fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


def _coset_before(span, args, kwargs):
    from leechdesign.lattice import EnumerationStats

    span["counters"]["key"] = _coset_key(args, kwargs)
    if len(args) < 5 and kwargs.get("stats") is None:
        kwargs["stats"] = EnumerationStats()
    return kwargs["stats"] if len(args) < 5 else args[4]


def _coset_after(span, args, kwargs, result, stats):
    span["counters"]["nodes"] = stats.nodes
    span["counters"]["solutions"] = stats.solutions


def _candidates_after(span, args, kwargs, result, state):
    span["counters"]["nodes"] = result.stats.nodes
    span["counters"]["leaves"] = result.stats.leaves
    span["counters"]["solutions"] = result.stats.solutions


def _read_design_after(span, args, kwargs, result, state):
    span["counters"]["bytes"] = os.path.getsize(args[0] if args else kwargs["path"])


def _rss_after(span, args, kwargs, result, state):
    span["counters"]["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


_BEFORE = {"lattice.enumerate_coset_shell": _coset_before}
_AFTER = {
    "lattice.enumerate_coset_shell": _coset_after,
    "unique.enumerate_candidates": _candidates_after,
    "io.read_design": _read_design_after,
    **{f"cli.{name}": _rss_after for name in TRACED["cli"]},
}


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-function totals of one traced command.

    Keys are ``<module>.<function>.<stat>``: ``wall_s`` (summed over calls),
    ``self_s`` (wall time minus the time of its child spans), ``calls``,
    summed counters, ``rss_mb`` (largest high-water mark at span end),
    ``distinct_keys`` of the coset enumeration, the candidate search's
    ``solutions_per_leaf`` and the span count ``trace.spans``.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict[str, float] = {}
    keys: dict[str, set] = {}
    for s in spans:
        name, wall = s["name"], s["end"] - s["start"]
        out[f"{name}.wall_s"] = out.get(f"{name}.wall_s", 0.0) + wall
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + wall - child_time.get(s["id"], 0.0)
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        for counter, value in s["counters"].items():
            if counter == "key":
                keys.setdefault(name, set()).add(value)
            elif counter == "rss_mb":
                out[f"{name}.rss_mb"] = max(out.get(f"{name}.rss_mb", 0.0), value)
            else:
                out[f"{name}.{counter}"] = out.get(f"{name}.{counter}", 0) + value
    for name, distinct in keys.items():
        out[f"{name}.distinct_keys"] = len(distinct)
    leaves = out.get("unique.enumerate_candidates.leaves")
    if leaves:
        out["unique.enumerate_candidates.solutions_per_leaf"] = (
            out["unique.enumerate_candidates.solutions"] / leaves
        )
    out["trace.spans"] = len(spans)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans <file> -- <leechdesign arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = Path(argv[1]), argv[3:]
    recorder = Recorder()
    recorder.install()
    from leechdesign import cli

    try:
        return cli.main(cli_args)
    finally:
        spans_path.write_text(json.dumps({"spans": recorder.spans}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
