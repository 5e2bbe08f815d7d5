"""Certificate-checker benchmark for leechdesign.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ``src/``
(nothing is installed).  Inputs are made from the seed before any timing.
Each operation runs the ``leechdesign`` command line in fresh processes,
one operation at a time (a closed loop with one client), exactly as a user
runs it, and every operation's outputs are checked.

Workloads (BENCHMARK.json gives the reasons):
  rebuild  ``build --anchors <pair>``, a new seeded pair per operation
  replay   ``verify-design --in`` then ``verify-coherent --in`` on the seed's
           valid certificate, then on one of three seeded false ones in
           turn; plus an untimed probe of six malformed files

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced operations with operations run through
``perfbench/tracer.py`` and reports the per-layer metrics: medians over the
traced operations, and ``trace.overhead_s``, the traced minus the untraced
median verdict time.  On ``rebuild`` the per-layer figures come from one
traced ``leechdesign all`` on the seed's first pair instead, the only
command that runs every layer.

The last line of standard output is the JSON result; the lines before it
name every failure.  A copy of the result, with the environment and the
seed, goes to ``.perfbench-out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-out"
HERE = Path(__file__).resolve().parent

# BLAS threads of the benchmark and of every child, fixed for all runs and
# at most nproc.  Operations run one at a time, so each uses one core.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_OPS = 3  # operations per run, even when they overrun --seconds
MIN_SETUP_SAMPLES = 15
STEP_TIMEOUT_S = 170
SETUP_CODE = (
    "import leechdesign.cli\n"
    "from leechdesign.lattice import default_context\n"
    "default_context()\n"
)

# The tensor does not depend on the anchors: this is tensor.txt for every pair.
TENSOR_SHA256 = "539e2f77573d9fb473e5a4961c67d76dfe5644cb93756b99c64eb4447245d476"

CLAIMS = {
    "design": [
        "design/layer-sizes",
        "design/cardinality",
        "design/tightness-bound-met",
        "design/radius-ratio-squared",
        "design/weight-ratio",
        "design/inner-products-shell1",
        "design/inner-products-shell2",
        "design/inner-products-cross-sqrt11",
        "design/strength-6-zero-conditions",
        "design/degree-7-condition-fails",
        "design/shell1-spherical-4",
        "design/shell2-spherical-4",
        "design/probe-moment-oracle",
    ],
    "coherent": [
        "coherent/nine-admissible-products",
        "coherent/composition-counts-well-defined",
        "coherent/table-mismatches",
        "coherent/spot-11.1-11.1-11.1",
        "coherent/spot-22.1-22.1-22.0",
        "coherent/spot-22.2-22.2-22.0",
        "coherent/spot-22.3-22.3-22.0",
        "coherent/transpose-and-valency-identities",
    ],
    "unique": [
        "unique/integral-shell-products",
        "unique/dual-frame-biorthogonal",
        "unique/candidate-count",
        "unique/norm-passing-but-filter-failing",
        "unique/dual-coefficients-in-form",
        "unique/split-sizes",
        "unique/part-a-equals-second-shell",
        "unique/parts-disjoint",
        "unique/part-b-equals-projected-coset",
        "unique/twin-strength-6",
        "unique/twin-table-mismatches",
    ],
    "seven": [
        "seven/z-pair-count",
        "seven/z-value-set",
        "seven/z-cardinality-meets-antipodal-bound",
        "seven/z-spherical-7",
        "seven/y-family-sizes",
        "seven/y-union-size",
        "seven/y-plus-equals-minus-negated",
        "seven/y-antipodal-pairs",
        "seven/shell1-equals-projected-y-family",
        "seven/z-matches-projected-model",
    ],
}

# Deterministic counters of the traced `all`, as measured when the
# benchmark was written; the node count is that of the canonical pair
# (seed 0), the others hold for every pair.  They are printed next to the
# measured values; a change is reported, not counted as a failure.
CANONICAL_COUNTERS = {
    "lattice.enumerate_coset_shell.calls": 10,
    "lattice.enumerate_coset_shell.distinct_keys": 6,
    "unique.enumerate_candidates.nodes": 773264,
    "unique.enumerate_candidates.solutions": 4050,
    "coherent.intersection_numbers.calls": 2,
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program to measure, bad input)."""


@dataclass
class Step:
    """One command of an operation and what it must produce."""

    args: list[str]
    exit_code: int = 0
    stage: Optional[str] = None  # report_<stage>.canonical.json to check
    failed_claim: Optional[str] = None  # first failed claim; None: all pass
    out: str = "."  # the command's --out, within the operation's directory


@dataclass
class Case:
    """One input of a workload: the commands of an operation on it."""

    label: str
    steps: list[Step]
    check: Optional[Callable[[Path], Optional[str]]] = None


@dataclass
class Sample:
    verdict_s: float
    cpu_s: float
    peak_rss_mb: float
    error: Optional[str] = None
    layers: dict = field(default_factory=dict)


# -- running the program ------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    return env


class Launcher:
    """The small process that spawns and times every measured command
    (see launcher.py); start it before this process grows."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            text=True,
        )

    def run(self, argvs: list[list[str]], cwd: Path, tag: str):
        """Run the commands one after another in `cwd`; returns the wall
        time from first spawn to last exit and, per command, (exit code,
        stderr text, cpu seconds, peak RSS in MB)."""
        steps = [
            {
                "argv": argv,
                "cwd": str(cwd),
                "stdout": str(cwd / f"{tag}{n}.stdout"),
                "stderr": str(cwd / f"{tag}{n}.stderr"),
            }
            for n, argv in enumerate(argvs)
        ]
        self.proc.stdin.write(json.dumps({"steps": steps, "timeout": STEP_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchmarkError("the launcher process exited")
        reply = json.loads(line)
        results = [
            (r["code"], Path(step["stderr"]).read_text(errors="replace"), r["cpu_s"], r["rss_mb"])
            for step, r in zip(steps, reply["steps"])
        ]
        return reply["wall_s"], results

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=STEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_case(launcher: Launcher, case: Case, out_dir: Path, traced: bool) -> Sample:
    """One timed operation: every step of the case in a fresh process."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    if traced:
        argvs = [
            [sys.executable, str(HERE / "tracer.py"), "--spans", f"spans{n}.json", "--", *step.args]
            for n, step in enumerate(case.steps)
        ]
    else:
        argvs = [[sys.executable, "-m", "leechdesign", *step.args] for step in case.steps]
    verdict, results = launcher.run(argvs, out_dir, "step")
    sample = Sample(
        verdict_s=verdict,
        cpu_s=sum(r[2] for r in results),
        peak_rss_mb=max(r[3] for r in results),
    )
    try:
        sample.error = check_steps(case, out_dir, results)
        if sample.error is None and case.check is not None:
            problem = case.check(out_dir)
            sample.error = problem and f"{case.label}: {problem}"
    except (OSError, ValueError, IndexError, KeyError) as exc:
        sample.error = f"{case.label}: unreadable output ({type(exc).__name__}: {exc})"
    if traced:
        sample.layers = traced_layers(out_dir, len(case.steps))
    return sample


def measure_setup(launcher: Launcher, work: Path) -> float:
    """Wall seconds for a fresh process to import the CLI and build the
    lattice context (Golay code and Leech basis)."""
    elapsed, [(code, stderr, _, _)] = launcher.run([[sys.executable, "-c", SETUP_CODE]], work, "setup")
    if code != 0:
        raise BenchmarkError(f"set-up process failed: {last_line(stderr)}")
    return elapsed


# -- output checks ------------------------------------------------------------


def last_line(text: str) -> str:
    lines = [line for line in text.strip().splitlines() if line.strip()]
    return lines[-1] if lines else ""


def check_report(path: Path, stage: str, failed_claim: Optional[str]) -> Optional[str]:
    if not path.exists():
        return f"{path.name} missing"
    report = json.loads(path.read_text())
    claims = [c["claim"] for c in report["claims"]]
    failing = [c["claim"] for c in report["claims"] if not c["pass"]]
    if failed_claim is None:
        if claims != CLAIMS[stage]:
            return f"{path.name}: claim ids {claims} differ from the fixed set"
        if failing or not report["pass"]:
            return f"{path.name}: claim {failing[0] if failing else '?'} failed"
    elif report["pass"] or not failing or failing[0] != failed_claim:
        return f"{path.name}: first failed claim {failing[:1]}, expected {failed_claim}"
    return None


def check_steps(case: Case, out_dir: Path, results) -> Optional[str]:
    for step, (code, stderr, _, _) in zip(case.steps, results):
        where = f"{case.label} {step.args[0]}"
        if "Traceback" in stderr:
            return f"{where}: traceback ({last_line(stderr)})"
        if code != step.exit_code:
            return f"{where}: exit {code}, expected {step.exit_code} ({last_line(stderr)})"
        if step.failed_claim and f"FIRST FAILED CLAIM: {step.failed_claim} " not in stderr:
            return f"{where}: stderr does not name {step.failed_claim}"
        if step.stage:
            report = out_dir / step.out / f"report_{step.stage}.canonical.json"
            problem = check_report(report, step.stage, step.failed_claim)
            if problem:
                return f"{where}: {problem}"
    return None


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class RepeatCheck:
    """Outputs that must be byte-identical across repeats of one input."""

    def __init__(self, names: list[str]):
        self.names = names
        self.seen: dict[tuple[str, str], str] = {}

    def __call__(self, label: str, out_dir: Path) -> Optional[str]:
        for name in self.names:
            path = out_dir / name
            if not path.exists():
                continue
            key, value = (label, name), digest(path)
            if self.seen.setdefault(key, value) != value:
                return f"{label}: {name} differs from an earlier run on the same input"
        return None


def check_tensor(out_dir: Path) -> Optional[str]:
    if digest(out_dir / "tensor.txt") != TENSOR_SHA256:
        return "tensor.txt differs from the anchor-independent tensor"
    return None


def check_built_design(out_dir: Path, a, b) -> Optional[str]:
    """Exact invariants of `build` output, computed without the program:
    sizes, radii, weights, orthogonality to both anchors, no repeated
    point, and the inner-product value sets of the three Gram blocks."""
    import numpy as np

    text = (out_dir / "design.txt").read_text().splitlines()
    if text[0] != "# design layers=2":
        return f"design.txt header {text[0]!r}"
    headers = [
        "# layer weight=1/1 r2=12/5 denom=5 count=275",
        "# layer weight=1/729 r2=132/5 denom=5 count=2025",
    ]
    if text[1] != headers[0] or text[277] != headers[1]:
        return "design.txt layer headers differ from the expected shells"
    x1 = np.array([line.split() for line in text[2:277]], dtype=np.int64)
    x2 = np.array([line.split() for line in text[278:]], dtype=np.int64)
    if len(x2) != 2025:
        return f"design.txt outer layer has {len(x2)} points"
    for name, block in (("x1.txt", text[1:277]), ("x2.txt", text[277:])):
        if (out_dir / name).read_text() != "\n".join(["# design layers=1", *block]) + "\n":
            return f"{name} is not the matching layer of design.txt"
    # Stored rows are 5 * (scaled coordinates); a stored dot D is the
    # conventional inner product D / 200.  Expected values: norms 480 and
    # 5280; shell products 1/6, -1/4 and 7/22, -1/44, -4/11 of the norm;
    # cross products 1, -1/4, -3/2 times sqrt(11 * 480 * 5280) / 11.
    expected = {
        (0, 0): (480, {80, -120}),
        (1, 1): (5280, {1680, -120, -1920}),
        (0, 1): (None, {480, -120, -720}),
    }
    layers = (x1, x2)
    for (i, j), (norm, values) in expected.items():
        gram = layers[i] @ layers[j].T
        if i == j:
            if not bool((np.diag(gram) == norm).all()):
                return f"layer {i + 1} has a point off its sphere"
            gram = gram[~np.eye(len(gram), dtype=bool)]
        found = set(np.unique(gram).tolist())
        if found != values:
            return f"inner products of block ({i},{j}) are {sorted(found)}"
    for anchor in (a, b):
        if np.any(x1 @ anchor) or np.any(x2 @ anchor):
            return "a design point is not orthogonal to the anchors"
    return None


def probe_malformed(launcher: Launcher, paths: list[Path], work: Path) -> list[str]:
    """Replay each malformed file through both verify commands; each must
    exit 1 or 2 with a one-line reason and no traceback."""
    problems = []
    for path in paths:
        for command in ("verify-design", "verify-coherent"):
            argv = [sys.executable, "-m", "leechdesign", command, "--in", str(path), "--out", "out"]
            _, [(code, stderr, _, _)] = launcher.run([argv], work, "malformed")
            if "Traceback" in stderr or code not in (1, 2) or not last_line(stderr):
                problems.append(
                    f"{path.stem} {command}: exit {code}"
                    + (", traceback" if "Traceback" in stderr else "")
                    + f" ({last_line(stderr)})"
                )
    return problems


# -- workloads ----------------------------------------------------------------


def verify_steps(path: Path, out: str, design_claim=None, coherent_claim=None) -> list[Step]:
    """verify-design then verify-coherent on one certificate, writing to
    `out`; a command with an expected failed claim must exit 1."""
    return [
        Step([command, "--in", str(path), "--out", out], 1 if claim else 0, stage, claim, out)
        for command, stage, claim in (
            ("verify-design", "design", design_claim),
            ("verify-coherent", "coherent", coherent_claim),
        )
    ]


def rebuild_cases(seed: int, count: int) -> list[Case]:
    import inputs

    cases = []
    for n, (a, b) in enumerate(inputs.anchor_pairs(seed, count)):
        step = Step(["build", f"--anchors={inputs.anchors_arg(a, b)}", "--out", "."])
        label = "canonical" if seed == 0 else f"pair{n}"
        cases.append(
            Case(label, [step], check=lambda d, a=a, b=b: check_built_design(d, a, b))
        )
    return cases


def prepare(launcher: Launcher, workload: str, seed: int, work: Path, trace: bool):
    """The cases of a workload, the traced pipeline run (rebuild only) and
    the problems found by the malformed-file probe (replay only)."""
    import inputs

    if workload == "rebuild":
        # Far more pairs than operations fit in a run; each is used once.
        cases = rebuild_cases(seed, 64)
        pipeline = None
        if trace:
            (a, b), = inputs.anchor_pairs(seed, 1)
            steps = [Step(["all", f"--anchors={inputs.anchors_arg(a, b)}", "--out", "."])]
            pipeline = Case("all", steps, check=all_reports_pass)
        return cases, pipeline, []
    # replay: each operation replays the valid certificate, then one of the
    # three false ones in turn.  One workload takes both the accept and the
    # reject path, so that both are timed in every run.
    valid = inputs.certificate(seed, work)
    cases = [
        Case(
            c.label,
            verify_steps(valid.path, "valid")
            + verify_steps(c.path, "false", c.design_claim, c.coherent_claim),
            check=lambda d: check_tensor(d / "valid"),
        )
        for c in inputs.tampered_certificates(seed, valid, work)
    ]
    malformed = probe_malformed(launcher, inputs.malformed_files(seed, valid.path, work), work)
    return cases, None, malformed


def all_reports_pass(out_dir: Path) -> Optional[str]:
    for stage in CLAIMS:
        problem = check_report(out_dir / f"report_{stage}.canonical.json", stage, None)
        if problem:
            return problem
    return check_tensor(out_dir)


# -- trace --------------------------------------------------------------------


def traced_layers(out_dir: Path, steps: int) -> dict:
    """Per-function totals over the span files of one traced operation."""
    from tracer import summarize

    spans = []
    for n in range(steps):
        path = out_dir / f"spans{n}.json"
        if not path.exists():
            continue
        offset = len(spans)  # span ids restart in every process
        for span in json.loads(path.read_text())["spans"]:
            span["id"] += offset
            if span["parent"] is not None:
                span["parent"] += offset
            spans.append(span)
    return summarize(spans)


# -- measurement --------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Run:
    def __init__(self, launcher: Launcher, cases: list[Case], work: Path, seconds: float):
        self.launcher = launcher
        self.cases = cases
        self.work = work
        self.seconds = seconds
        outputs = ["design.txt", "x1.txt", "x2.txt", "tensor.txt"] + [
            f"report_{stage}.canonical.json" for stage in CLAIMS
        ]
        self.repeat = RepeatCheck(
            [f"{out}/{name}" for out in (".", "valid", "false") for name in outputs]
        )
        self.samples: list[Sample] = []
        self.traced: list[Sample] = []
        self.failures: list[str] = []
        self.attempted = 0

    def op(self, case: Case, traced: bool) -> Sample:
        sample = run_case(self.launcher, case, self.work / "op", traced)
        if sample.error is None:
            sample.error = self.repeat(case.label, self.work / "op")
        if sample.error:
            self.failures.append(sample.error)
        self.attempted += 1
        return sample

    def measure(self, trace: bool) -> list[float]:
        """Operations round-robin over the cases (at least MIN_OPS, or one
        when traced); the next one starts only if, at the mean pace so
        far, it ends within half an operation of --seconds, so that runs
        last --seconds on average.  Untraced: one set-up sample before
        each operation, topped up to MIN_SETUP_SAMPLES at the end.
        Traced: each operation untraced, then traced."""
        setup = []
        start = time.perf_counter()
        least = 1 if trace else MIN_OPS
        n = 0
        while n < least or (time.perf_counter() - start) * (n + 0.5) / n <= self.seconds:
            case = self.cases[n % len(self.cases)]
            if not trace:
                setup.append(measure_setup(self.launcher, self.work))
            self.samples.append(self.op(case, traced=False))
            if trace:
                self.traced.append(self.op(case, traced=True))
            n += 1
        while not trace and len(setup) < MIN_SETUP_SAMPLES:
            setup.append(measure_setup(self.launcher, self.work))
        return setup


def end_to_end(run: Run, setup: list[float]) -> dict[str, list[float]]:
    """Values per end-to-end metric, over the operations that passed."""
    ok = [s for s in run.samples if s.error is None] or run.samples
    return {
        "setup_s": setup,
        "verdict_s": [s.verdict_s for s in ok],
        "cpu_s": [s.cpu_s for s in ok],
        "peak_rss_mb": [s.peak_rss_mb for s in ok],
    }


def per_layer(run: Run, pipeline: Optional[Sample], names: list[str]) -> dict[str, list[float]]:
    """Values per per-layer metric, from the traced operations (or the one
    pipeline run); a function that never ran reads 0."""
    if pipeline is not None:
        traced = [pipeline]
    else:
        traced = [s for s in run.traced if s.error is None] or run.traced
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            untraced = statistics.median(s.verdict_s for s in run.samples)
            out[name] = [statistics.median(s.verdict_s for s in run.traced) - untraced]
        else:
            out[name] = [s.layers.get(name, 0) for s in traced]
    return out


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "leechdesign" / "cli.py").is_file():
        print(f"error: no leechdesign sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]

    work = WORK / f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    launcher = Launcher()
    try:
        measure_setup(launcher, work)  # warm the file cache and compiled bytecode
        cases, pipeline_case, malformed = prepare(
            launcher, args.workload, args.seed, work, bool(args.trace)
        )
        # The traced `all` of rebuild takes about a minute on its own, so
        # its overhead pair of `build` operations is not repeated.
        run = Run(launcher, cases, work, 0 if pipeline_case else args.seconds)
        setup = run.measure(bool(args.trace))
        pipeline = run.op(pipeline_case, traced=True) if pipeline_case else None
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        series = per_layer(run, pipeline, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        series = end_to_end(run, setup)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    metrics = {}
    for name, unit in units.items():
        values = series[name]
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        print(f"metric {name} median={med:.6g} q1={q1:.6g} q3={q3:.6g} n={len(values)} {unit}")
    if pipeline is not None:
        print(
            f"pipeline all verdict_s={pipeline.verdict_s:.6g} cpu_s={pipeline.cpu_s:.6g} "
            f"peak_rss_mb={pipeline.peak_rss_mb:.6g} (traced)"
        )
        for name, expected in CANONICAL_COUNTERS.items():
            if name == "unique.enumerate_candidates.nodes" and args.seed != 0:
                continue  # the node count depends on the anchor pair
            got = pipeline.layers.get(name, 0)
            mark = "as at baseline" if got == expected else "CHANGED"
            print(f"counter {name} = {got} (baseline {expected}, {mark})")
    attempted = run.attempted
    failed = len(run.failures)
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4f}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    for problem in malformed:
        print(f"KNOWN DEFECT malformed input {problem}")
    if args.workload == "replay":
        print(f"malformed_failed {len(malformed)}/12 (not counted in failed; see README)")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"env": env, "result": result, "failures": run.failures, "malformed": malformed}
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
