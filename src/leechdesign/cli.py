"""Command-line verification pipeline.

Commands: build, verify-design, verify-coherent, verify-unique,
verify-7design, all.  Each verify command writes a JSON report (plus a
byte-deterministic canonical variant and a human summary) into the output
directory and exits 0 only if every claim passed; 1 on a failed claim;
2 on usage or I/O errors.  The verify commands accept a previously built
design file so a shipped certificate can be replayed without enumerating.

Each stage imports the modules it runs, when it runs, so `build` loads
none of them.  It checks its claims through one runner, `Stage`: it times a
claim's step, checks the computed value, and turns the program's own error
types (`construct.StepError`) into that claim's failure.  Any other
exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import io as design_io
from .arith import rat_to_text
from .construct import (
    DesignConstructionError,
    StepError,
    WeightedPointSet,
    build_design,
    build_Y,
    check_orthogonal_to_anchors,
    check_X1_equals_PY,
    distinct_values,
    exact_matmul,
    project_rows_scaled,
    slab_products,
    y_antipodal_pair_count,
    z_value_histogram,
)
from .lattice import (
    A_CANONICAL,
    B_CANONICAL,
    CosetConstraint,
    distinct_rows,
    enumerate_coset_shell,
    same_row_set,
)
from .report import VerificationReport

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
_LISTED = 16  # the values a claim lists of a larger set


class _StageEnd(Exception):
    pass


class Stage:
    """The claim runner of one stage, used as `with Stage(report) as stage:`.

    `with stage.claim(id, expected) as c:` runs and times the step in its
    block, which sets `c.computed` (and `c.expected`, when the expected value
    depends on the step).  The claim is then checked into the report.  The
    stage ends, leaving the `with Stage` block, when the step raises a
    `StepError`, by which the program rejects its input (the claims after
    it read the step's value), or when a claim made with `stop=True` fails.
    """

    def __init__(self, report: VerificationReport):
        self.report = report

    def __enter__(self) -> Stage:
        return self

    def __exit__(self, kind, exc, tb) -> bool:
        return kind is _StageEnd

    @contextmanager
    def claim(self, claim_id: str, expected, stop: bool = False):
        c = SimpleNamespace(expected=expected, computed=None)
        t0 = time.monotonic()
        try:
            yield c
        except StepError as exc:
            c.computed, stop = f"error: {exc}", True
        ms = int((time.monotonic() - t0) * 1000)
        if not self.report.check(claim_id, c.expected, c.computed, ms) and stop:
            raise _StageEnd


def _listed(values: np.ndarray, scale) -> str:
    """The values over `scale`; past _LISTED of them, their count and the first _LISTED."""
    head = ", ".join(str(Fraction(v) / scale) for v in values[:_LISTED].tolist())
    return f"[{head}]" if len(values) <= _LISTED else f"{len(values)} values: [{head}, ...]"


def _normalized_value_sets(ws: WeightedPointSet) -> dict[str, str]:
    """Off-diagonal normalized inner-product sets per block, descending; the
    cross set is reported multiplied by sqrt(11) (which makes it rational)."""
    out = {}
    for (i, j), key in (((0, 0), "11"), ((1, 1), "22"), ((0, 1), "12")):
        scale = ws.dot_scale(i, j) * ws.layers[i].r2
        out[key] = _listed(ws.pair_values(i, j)[::-1], scale)
    return out


def verify_design_claims(ws: WeightedPointSet, report: VerificationReport) -> None:
    from . import design

    with Stage(report) as stage:
        # every claim after the first compares the two shells
        with stage.claim("design/layer-sizes", "[275, 2025]", stop=len(ws.layers) < 2) as c:
            c.computed = [layer.size for layer in ws.layers]
        report.check("design/cardinality", comb(25, 3), ws.size)
        with stage.claim("design/tightness-bound-met", True) as c:
            c.computed = design.tightness_check(ws, 3)
        report.check("design/radius-ratio-squared", 11, ws.layers[1].r2 / ws.layers[0].r2)
        report.check("design/weight-ratio", "1/729", ws.layers[1].weight / ws.layers[0].weight)

        with stage.claim("design/inner-products-shell1", "[1/6, -1/4]") as c:
            sets = _normalized_value_sets(ws)
            c.computed = sets["11"]
        report.check("design/inner-products-shell2", "[7/22, -1/44, -4/11]", sets["22"])
        report.check("design/inner-products-cross-sqrt11", "[1, -1/4, -3/2]", sets["12"])

        with stage.claim("design/strength-6-zero-conditions", "all") as c:
            conds6 = design.euclidean_strength(ws, 6)
            n = len(conds6)
            c.expected, c.computed = f"{n} of {n}", f"{sum(x.passed for x in conds6)} of {n}"
        report.note("strength-6-values", {x.label: rat_to_text(x.value) for x in conds6})
        report.note(
            "strength-l0-conditions",
            "omitted: they hold identically for unions of concentric layers",
        )
        with stage.claim("design/degree-7-condition-fails", True) as c:
            labels6 = {x.label for x in conds6}
            degree7 = [x for x in design.euclidean_strength(ws, 7) if x.label not in labels6]
            c.computed = any(not x.passed for x in degree7)
        report.note("degree-7-values", {x.label: str(x.value) for x in degree7})

        with stage.claim("design/shell1-spherical-4", "pass k=1..4, fail k=5") as c:
            s1 = design.spherical_strength(ws, 0, 5)
            ok = all(x.passed for x in s1[:4]) and not s1[4].passed
            c.computed = "pass k=1..4, fail k=5" if ok else [(x.label, x.passed) for x in s1]
        with stage.claim("design/shell2-spherical-4", True) as c:
            c.computed = all(x.passed for x in design.spherical_strength(ws, 1, 4))
        with stage.claim("design/probe-moment-oracle", True) as c:
            moments = design.moment_spot_check(ws, 6)
            failing = next((m for m in moments if not m.passed), None)
            c.computed = failing is None
        report.note("probe-moment-conditions-checked", len(moments))
        if failing:
            report.note("first-failing-probe", f"probe {failing.probe_index}, k={failing.k}:"
                        f" lhs {failing.lhs}, rhs {failing.rhs}")


def verify_coherent_claims(
    ws: WeightedPointSet, report: VerificationReport, out_dir: Path
) -> None:
    from . import coherent

    coherent.fixture_self_test()
    with Stage(report) as stage:
        with stage.claim("coherent/nine-admissible-products", True) as c:
            part = coherent.classify_pairs(ws)
            c.computed = True
        with stage.claim("coherent/composition-counts-well-defined", True) as c:
            tensor = coherent.intersection_numbers(part)
            c.computed = True
        design_io.write_tensor(out_dir / "tensor.txt", tensor, coherent.LABELS)

        with stage.claim("coherent/table-mismatches", 0) as c:
            mismatches = coherent.compare_with_reference(tensor)
            c.computed = len(mismatches)
        if mismatches:
            report.note("first-mismatches", mismatches[:5])

        spots = {"11.1-11.1-11.1": 105, "22.1-22.1-22.0": 462,
                 "22.2-22.2-22.0": 1232, "22.3-22.3-22.0": 330}
        for spot, count in spots.items():
            entry = tensor[tuple(coherent.LABEL_INDEX[label] for label in spot.split("-"))]
            report.check(f"coherent/spot-{spot}", count, int(entry))

        with stage.claim("coherent/transpose-and-valency-identities", True) as c:
            coherent.check_tensor_identities(tensor)
            c.computed = True


def verify_unique_claims(
    ws: WeightedPointSet, report: VerificationReport, anchors, out_dir: Path
) -> None:
    from . import coherent, design, unique

    a, b = anchors
    with Stage(report) as stage:
        with stage.claim("unique/integral-shell-products", "[2, -3] at norm 12") as c:
            layer = unique.integralize_X1(ws)
            c.computed = f"{list(layer.products)} at norm {layer.norm}"

        with stage.claim("unique/dual-frame-biorthogonal", True) as c:
            frame = unique.build_dual_frame(layer)
            d_eye = frame.den * np.eye(22, dtype=np.int64)
            c.computed = bool((exact_matmul(frame.ginv, frame.gram) == d_eye).all())

        with stage.claim("unique/candidate-count", 4050) as c:
            cands = unique.enumerate_candidates(frame, layer)
            c.computed = len(cands.vectors3)
        report.check("unique/norm-passing-but-filter-failing", 0, cands.rejected_leaves)
        report.note("candidate-search-nodes", cands.stats.nodes)
        coeff_ok = set(distinct_values(cands.dual_coeffs).tolist()) <= {-6, -1, 4}
        report.check("unique/dual-coefficients-in-form", True, bool(coeff_ok))
        in_m = unique.generated_lattice_membership(frame, cands.dual_coeffs)
        report.note("candidates-in-literal-generated-lattice", f"{in_m} of 4050")

        with stage.claim("unique/split-sizes", "2025 + 2025", stop=True) as c:
            split = unique.split_candidates(cands, ws)
            c.computed = f"{len(split.part_a)} + {len(split.part_b)}"
        design_io.write_candidates(out_dir / "candidates.txt", cands.vectors3)
        same = same_row_set(split.part_a, ws.layers[1].points)
        report.check("unique/part-a-equals-second-shell", True, same)
        report.check("unique/parts-disjoint", True, split.disjoint and split.covering)
        report.note("cross-part-products", [str(v) for v in split.cross_products])

        with stage.claim("unique/part-b-equals-projected-coset", True) as c:
            check_orthogonal_to_anchors(ws, a, b)
            shell = enumerate_coset_shell([CosetConstraint(a, 0), CosetConstraint(b, -2)], 4)
            twin_from_lattice = project_rows_scaled(shell, a, b, mult=15)
            c.computed = same_row_set(split.part_b, twin_from_lattice)

        with stage.claim("unique/twin-strength-6", True) as c:
            twin = unique.twin_design(ws, split)
            c.computed = all(x.passed for x in design.euclidean_strength(twin, 6))
        with stage.claim("unique/twin-table-mismatches", 0) as c:
            tensor = coherent.intersection_numbers(coherent.classify_pairs(twin))
            c.computed = len(coherent.compare_with_reference(tensor))


def verify_seven_claims(ws: WeightedPointSet, report: VerificationReport, anchors) -> None:
    from . import design

    a, b = anchors
    with Stage(report) as stage:
        with stage.claim("seven/z-pair-count", 4600 * 4600) as c:
            if len(ws.layers) < 2:  # every claim compares the two shells
                raise DesignConstructionError(f"{len(ws.layers)} layers")
            hist, den = z_value_histogram(ws)
            c.computed = int(hist.counts.sum())
        z_set = _listed(hist.values, den)
        report.check("seven/z-value-set", "[-1, -1/3, 0, 1/3, 1]", z_set)
        report.check("seven/z-cardinality-meets-antipodal-bound", 2 * comb(25, 3), 2 * ws.size)

        with stage.claim("seven/z-spherical-7", True) as c:
            sums = design.kernel_sums(hist.values, hist.counts, den, 1, 7, 23)
            c.computed = not any(sums[1:])

        with stage.claim("seven/y-family-sizes", "[275, 2025, 2025, 275]") as c:
            ys = build_Y(a, b)
            c.computed = [ys[i].shape[0] for i in (1, 2, -2, -1)]
        union = distinct_rows(np.concatenate([ys[i] for i in (1, 2, -1, -2)]))
        report.check("seven/y-union-size", 4600, len(union))
        mirrored = all(same_row_set(ys[i], -ys[-i]) for i in (1, 2))
        report.check("seven/y-plus-equals-minus-negated", True, mirrored)
        with stage.claim("seven/y-antipodal-pairs", 2300) as c:
            c.computed = y_antipodal_pair_count(ys)

        with stage.claim("seven/shell1-equals-projected-y-family", True) as c:
            check_orthogonal_to_anchors(ws, a, b)
            c.computed = check_X1_equals_PY(ws, ys[1], a, b)

        # The sphere model and the single-projection model agree: the Gram
        # value histogram of the 4600 projected points, normalized by their
        # common squared radius 3, equals the symbolic one, den * z.  Every
        # stored point has squared norm 96 (checked by `build_Y`), so by
        # Cauchy-Schwarz each dot lies in [-96, 96], and each 256-row slab
        # of a block is counted as it is made.
        with stage.claim("seven/z-matches-projected-model", True) as c:
            fams = [ys[1], ys[2], ys[-1], ys[-2]]
            counts = np.zeros(193, dtype=np.int64)  # dots -96..96
            for i, f in enumerate(fams):
                for j in range(i, 4):  # block (j, i) holds the values of (i, j)
                    for _, dots in slab_products(f, fams[j]):
                        dots += 96
                        counts += (1 if i == j else 2) * np.bincount(dots.ravel(), minlength=193)
            seen = np.flatnonzero(counts)
            same_values = np.array_equal(hist.values * 96, (seen - 96).astype(object) * den)
            c.computed = same_values and np.array_equal(hist.counts, counts[seen])


def _parse_anchors(text: str):
    try:
        a_txt, b_txt = text.split(";")
        a = np.array([int(x) for x in a_txt.split(",")], dtype=np.int64)
        b = np.array([int(x) for x in b_txt.split(",")], dtype=np.int64)
        if a.shape != (24,) or b.shape != (24,):
            raise ValueError("each anchor needs 24 coordinates")
        return a, b
    except (ValueError, OverflowError) as exc:
        print(f"error: bad --anchors value: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from exc


def _load_or_build(args, anchors) -> WeightedPointSet:
    if args.design_file:
        try:
            return design_io.read_design(Path(args.design_file))
        except OSError as exc:  # no such file, a directory, no permission
            print(f"error: cannot read design file: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE) from exc
    a, b = anchors
    return build_design(a, b)


def main(argv=None) -> int:
    try:
        return _main(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE


STAGE_OF_COMMAND = {
    "verify-design": "design",
    "verify-coherent": "coherent",
    "verify-unique": "unique",
    "verify-7design": "seven",
}


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="leechdesign",
        description="Build and verify the two-shell weighted 6-design in R^22.",
    )
    parser.add_argument("command", choices=["build", *STAGE_OF_COMMAND, "all"])
    parser.add_argument("--anchors", help="a1,..,a24;b1,..,b24 (scaled integer frame)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument(
        "--in",
        dest="design_file",
        help="verify a previously written design file instead of rebuilding",
    )
    args = parser.parse_args(argv)
    if args.command == "build" and args.design_file:
        print("error: build makes the design; --in is for the verify commands", file=sys.stderr)
        return EXIT_USAGE

    anchors = (
        _parse_anchors(args.anchors)
        if args.anchors
        else (A_CANONICAL, B_CANONICAL)
    )
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "build":
            ws = build_design(*anchors)
            design_io.write_design(out_dir / "design.txt", ws)
            design_io.write_design(
                out_dir / "x1.txt", WeightedPointSet(layers=(ws.layers[0],))
            )
            design_io.write_design(
                out_dir / "x2.txt", WeightedPointSet(layers=(ws.layers[1],))
            )
            print(f"wrote {out_dir}/design.txt, x1.txt, x2.txt")
            return EXIT_PASS

        ws = _load_or_build(args, anchors)
        if args.command == "all" and not args.design_file:
            design_io.write_design(out_dir / "design.txt", ws)

        # built here, not at import, so that each stage is looked up by name
        # when it runs
        stages = {
            "design": lambda report: verify_design_claims(ws, report),
            "coherent": lambda report: verify_coherent_claims(ws, report, out_dir),
            "unique": lambda report: verify_unique_claims(ws, report, anchors, out_dir),
            "seven": lambda report: verify_seven_claims(ws, report, anchors),
        }
        first_fail = None
        for name in stages if args.command == "all" else [STAGE_OF_COMMAND[args.command]]:
            report = VerificationReport(name=name)
            stages[name](report)
            report.write(out_dir, f"report_{name}")
            print(report.summary_text())
            first_fail = first_fail or report.first_failure()

        if first_fail is None:
            return EXIT_PASS
        print(
            f"FIRST FAILED CLAIM: {first_fail.claim} "
            f"(expected {first_fail.expected}, computed {first_fail.computed})",
            file=sys.stderr,
        )
        return EXIT_FAIL
    except design_io.FormatError as exc:
        print(f"error: bad input file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # from a writer: `_load_or_build` reports read errors
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DesignConstructionError as exc:
        print(f"error: invalid design input: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
