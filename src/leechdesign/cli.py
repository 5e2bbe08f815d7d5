"""Command-line verification pipeline.

Commands: build, verify-design, verify-coherent, verify-unique,
verify-7design, all.  Each verify command writes a JSON report (plus a
byte-deterministic canonical variant and a human summary) into the output
directory and exits 0 only if every claim passed; 1 on a failed claim;
2 on usage or I/O errors.  The verify commands accept a previously built
design file so a shipped certificate can be replayed without enumerating.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Optional

import numpy as np

from . import io as design_io
from .arith import rat_to_text
from .construct import (
    DesignConstructionError,
    WeightedPointSet,
    build_design,
    build_Y,
    check_X1_equals_PY,
    project_rows_scaled,
    y_antipodal_pair_count,
    z_value_histogram,
)
from .coherent import (
    ConfigurationAxiomError,
    RelationClassificationError,
    check_tensor_identities,
    classify_pairs,
    compare_with_reference,
    fixture_self_test,
    intersection_numbers,
)
from .coherent_fixture import LABELS, LABEL_INDEX
from .design import (
    euclidean_strength,
    float_polynomial_check,
    moment_spot_check,
    spherical_strength,
    spherical_strength_from_values,
    tightness_check,
)
from .lattice import (
    A_CANONICAL,
    B_CANONICAL,
    CosetConstraint,
    default_context,
    enumerate_coset_shell,
    rows_as_set,
)
from .report import Timer, VerificationReport
from .unique import (
    UniquenessError,
    build_dual_frame,
    enumerate_candidates,
    generated_lattice_membership,
    integralize_X1,
    split_candidates,
    twin_design,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _normalized_value_sets(ws: WeightedPointSet):
    """Off-diagonal normalized inner-product sets per block; the cross set
    is reported multiplied by sqrt(11) (which makes it rational).  A
    diagonal block's off-diagonal histogram is its histogram less the n
    diagonal entries at the layer's stored squared norm."""
    out = {}
    for (i, j), key in (((0, 0), "11"), ((1, 1), "22"), ((0, 1), "12")):
        st = ws.pair_stats[(i, j)]
        scale, r2 = ws.dot_scale(i, j), ws.layers[i].r2
        diagonal = (st.values == int(scale * r2)) * ws.layers[i].size if i == j else 0
        vals = st.values[st.counts > diagonal].tolist()
        out[key] = sorted((Fraction(v, scale) / r2 for v in vals), reverse=True)
    return out


def verify_design_claims(
    ws: WeightedPointSet,
    report: VerificationReport,
    float_oracle: bool = False,
    seed: int = 20240601,
) -> None:
    with Timer() as t:
        sizes = [layer.size for layer in ws.layers]
    report.check("design/layer-sizes", "[275, 2025]", str(sizes), t.ms)
    if len(ws.layers) < 2:
        return  # every later claim compares the two shells
    report.check("design/cardinality", comb(25, 3), ws.size)
    with Timer() as t:
        tight = tightness_check(ws, 3)
    report.check("design/tightness-bound-met", True, tight, t.ms)

    report.check("design/radius-ratio-squared", 11, ws.layers[1].r2 / ws.layers[0].r2)
    report.check(
        "design/weight-ratio", "1/729", str(ws.layers[1].weight / ws.layers[0].weight)
    )

    with Timer() as t:
        sets = _normalized_value_sets(ws)
    report.check(
        "design/inner-products-shell1", "[1/6, -1/4]", str([str(v) for v in sets["11"]]).replace("'", ""), t.ms
    )
    report.check(
        "design/inner-products-shell2",
        "[7/22, -1/44, -4/11]",
        str([str(v) for v in sets["22"]]).replace("'", ""),
    )
    report.check(
        "design/inner-products-cross-sqrt11",
        "[1, -1/4, -3/2]",
        str([str(v) for v in sets["12"]]).replace("'", ""),
    )

    with Timer() as t:
        conds6 = euclidean_strength(ws, 6)
    report.check(
        "design/strength-6-zero-conditions",
        f"{len(conds6)} of {len(conds6)}",
        f"{sum(c.passed for c in conds6)} of {len(conds6)}",
        t.ms,
    )
    report.note("strength-6-values", {c.label: rat_to_text(c.value) for c in conds6})
    report.note(
        "strength-l0-conditions",
        "omitted: they hold identically for unions of concentric layers",
    )
    with Timer() as t:
        conds7 = euclidean_strength(ws, 7)
        labels6 = {c.label for c in conds6}
        degree7 = [c for c in conds7 if c.label not in labels6]
    report.check(
        "design/degree-7-condition-fails",
        True,
        any(not c.passed for c in degree7),
        t.ms,
    )
    report.note(
        "degree-7-values",
        {c.label: str(c.value) for c in degree7},
    )

    with Timer() as t:
        s1 = spherical_strength(ws, 0, 5)
    report.check(
        "design/shell1-spherical-4",
        "pass k=1..4, fail k=5",
        "pass k=1..4, fail k=5"
        if all(c.passed for c in s1[:4]) and not s1[4].passed
        else str([(c.label, c.passed) for c in s1]),
        t.ms,
    )
    with Timer() as t:
        s2 = spherical_strength(ws, 1, 4)
    report.check(
        "design/shell2-spherical-4",
        True,
        all(c.passed for c in s2),
        t.ms,
    )

    with Timer() as t:
        moments = moment_spot_check(ws, 6)
        all_ok = all(m.passed for m in moments)
    report.check("design/probe-moment-oracle", True, all_ok, t.ms)
    report.note("probe-moment-conditions-checked", len(moments))

    if float_oracle:
        with Timer() as t:
            pairs = float_polynomial_check(ws, 6, seed=seed)
            worst = max(abs(l - r) for l, r in pairs)
        report.check("design/float-oracle-within-1e-9", True, bool(worst <= 1e-9), t.ms)
        report.note("float-oracle-worst-abs-deviation", f"{worst:.3e}")


def verify_coherent_claims(
    ws: WeightedPointSet,
    report: VerificationReport,
    out_dir: Optional[Path] = None,
) -> Optional[np.ndarray]:
    fixture_self_test()
    try:
        with Timer() as t:
            part = classify_pairs(ws)
        report.check("coherent/nine-admissible-products", True, True, t.ms)
    except RelationClassificationError as exc:
        report.check("coherent/nine-admissible-products", True, f"error: {exc}")
        return None
    try:
        with Timer() as t:
            tensor = intersection_numbers(part)
        report.check("coherent/composition-counts-well-defined", True, True, t.ms)
    except ConfigurationAxiomError as exc:
        report.check("coherent/composition-counts-well-defined", True, f"error: {exc}")
        return None

    with Timer() as t:
        mismatches = compare_with_reference(tensor)
    report.check("coherent/table-mismatches", 0, len(mismatches), t.ms)
    if mismatches:
        report.note("first-mismatches", mismatches[:5])

    li = LABEL_INDEX
    report.check("coherent/spot-11.1-11.1-11.1", 105, int(tensor[li["11.1"], li["11.1"], li["11.1"]]))
    report.check("coherent/spot-22.1-22.1-22.0", 462, int(tensor[li["22.1"], li["22.1"], li["22.0"]]))
    report.check("coherent/spot-22.2-22.2-22.0", 1232, int(tensor[li["22.2"], li["22.2"], li["22.0"]]))
    report.check("coherent/spot-22.3-22.3-22.0", 330, int(tensor[li["22.3"], li["22.3"], li["22.0"]]))

    try:
        with Timer() as t:
            check_tensor_identities(tensor)
        report.check("coherent/transpose-and-valency-identities", True, True, t.ms)
    except ConfigurationAxiomError as exc:
        report.check("coherent/transpose-and-valency-identities", True, f"error: {exc}")

    if out_dir is not None:
        design_io.write_tensor(Path(out_dir) / "tensor.txt", tensor, LABELS)
    return tensor


def _unique_step(step, *args):
    """(step(*args), None), or (None, "error: ...") when the step raises
    UniquenessError: the claim that reads the step then fails."""
    try:
        return step(*args), None
    except UniquenessError as exc:
        return None, f"error: {exc}"


def verify_unique_claims(
    ws: WeightedPointSet,
    report: VerificationReport,
    anchors=None,
    out_dir: Optional[Path] = None,
) -> None:
    ctx = default_context()
    a, b = anchors if anchors is not None else (A_CANONICAL, B_CANONICAL)

    with Timer() as t:
        layer, computed = _unique_step(integralize_X1, ws)
        if layer is not None:
            inner = layer.inner_matrix()
            off = inner[~np.eye(len(inner), dtype=bool)]
            computed = (
                f"{sorted(set(np.unique(off).tolist()), reverse=True)} "
                f"at norm {int(inner[0, 0])}"
            )
    report.check("unique/integral-shell-products", "[2, -3] at norm 12", computed, t.ms)
    if layer is None:
        return

    with Timer() as t:
        frame, biorthogonal = _unique_step(build_dual_frame, layer)
        if frame is not None:
            biorthogonal = all(
                sum(frame.gram_inv[i][k] * int(frame.gram[k, j]) for k in range(22))
                == (1 if i == j else 0)
                for i in range(22)
                for j in range(22)
            )
    report.check("unique/dual-frame-biorthogonal", True, biorthogonal, t.ms)
    if frame is None:
        return

    with Timer() as t:
        cands, error = _unique_step(enumerate_candidates, frame, layer)
    report.check("unique/candidate-count", 4050, error or len(cands.vectors3), t.ms)
    if cands is None:
        return
    report.check("unique/norm-passing-but-filter-failing", 0, cands.rejected_leaves)
    report.note("candidate-search-nodes", cands.stats.nodes)
    coeff_ok = set(np.unique(cands.dual_coeffs).tolist()) <= {-6, -1, 4}
    report.check("unique/dual-coefficients-in-form", True, bool(coeff_ok))

    with Timer() as t:
        in_m = generated_lattice_membership(frame, cands.dual_coeffs)
    report.note("candidates-in-literal-generated-lattice", f"{in_m} of 4050")

    with Timer() as t:
        split, error = _unique_step(split_candidates, cands, ws)
    sizes_ok = report.check(
        "unique/split-sizes",
        "2025 + 2025",
        error or f"{len(split.part_a)} + {len(split.part_b)}",
        t.ms,
    )
    if not sizes_ok:
        return
    report.check(
        "unique/part-a-equals-second-shell",
        True,
        rows_as_set(split.part_a) == rows_as_set(ws.layers[1].points),
    )
    report.check("unique/parts-disjoint", True, split.disjoint and split.covering)
    report.note("cross-part-products", [str(v) for v in split.cross_products])

    with Timer() as t:
        shell = enumerate_coset_shell(
            [CosetConstraint(a, 0), CosetConstraint(b, -2)], 4, ctx
        )
        twin_from_lattice = project_rows_scaled(shell, a, b, mult=15)
        same = rows_as_set(split.part_b) == rows_as_set(twin_from_lattice)
    report.check("unique/part-b-equals-projected-coset", True, same, t.ms)

    twin = twin_design(ws, split)
    with Timer() as t:
        conds = euclidean_strength(twin, 6)
    report.check(
        "unique/twin-strength-6",
        True,
        all(c.passed for c in conds),
        t.ms,
    )
    twin_err = None
    with Timer() as t:
        try:
            tensor = intersection_numbers(classify_pairs(twin))
            mm = compare_with_reference(tensor)
        except (RelationClassificationError, ConfigurationAxiomError) as exc:
            twin_err = exc
    if twin_err is None:
        report.check("unique/twin-table-mismatches", 0, len(mm), t.ms)
    else:
        report.check("unique/twin-table-mismatches", 0, f"error: {twin_err}", t.ms)

    if out_dir is not None:
        design_io.write_candidates(Path(out_dir) / "candidates.txt", cands.vectors3)


def verify_seven_claims(
    ws: WeightedPointSet,
    report: VerificationReport,
    anchors=None,
) -> None:
    if len(ws.layers) < 2:
        report.check("seven/z-pair-count", 4600 * 4600, f"error: {len(ws.layers)} layers")
        return
    ctx = default_context()
    a, b = anchors if anchors is not None else (A_CANONICAL, B_CANONICAL)

    with Timer() as t:
        hist = z_value_histogram(ws)
        total_pairs = sum(hist.values())
    report.check("seven/z-pair-count", 4600 * 4600, total_pairs, t.ms)
    report.check(
        "seven/z-value-set",
        "[-1, -1/3, 0, 1/3, 1]",
        str(sorted([str(v) for v in hist], key=Fraction)).replace("'", ""),
    )
    report.check("seven/z-cardinality-meets-antipodal-bound", 2 * comb(25, 3), 4600)

    with Timer() as t:
        strength = spherical_strength_from_values(list(hist.items()), 7, 23)
    report.check(
        "seven/z-spherical-7",
        True,
        all(c.passed for c in strength),
        t.ms,
    )

    with Timer() as t:
        ys = build_Y(a, b, ctx)
    report.check(
        "seven/y-family-sizes",
        "[275, 2025, 2025, 275]",
        str([ys[1].shape[0], ys[2].shape[0], ys[-2].shape[0], ys[-1].shape[0]]),
        t.ms,
    )
    union = rows_as_set(ys[1]) | rows_as_set(ys[2]) | rows_as_set(ys[-1]) | rows_as_set(ys[-2])
    report.check("seven/y-union-size", 4600, len(union))
    mirrored = all(
        rows_as_set(ys[i]) == {tuple(-c for c in v) for v in rows_as_set(ys[-i])}
        for i in (1, 2)
    )
    report.check("seven/y-plus-equals-minus-negated", True, mirrored)
    with Timer() as t:
        pairs = y_antipodal_pair_count(ys)
    report.check("seven/y-antipodal-pairs", 2300, pairs, t.ms)

    with Timer() as t:
        same = check_X1_equals_PY(ws, ys[1], a, b)
    report.check("seven/shell1-equals-projected-y-family", True, same, t.ms)

    # The sphere model and the single-projection model agree: the Gram
    # value histogram of the 4600 projected points, normalized by their
    # common squared radius 3, equals the symbolic histogram.
    with Timer() as t:
        stacked = np.concatenate([ys[1], ys[2], ys[-1], ys[-2]]).astype(np.float32)
        gram = stacked @ stacked.T
        vals, counts = np.unique(gram.astype(np.int64), return_counts=True)
        y_hist = {
            Fraction(int(v), 8 * 2 * 2 * 3): int(c) for v, c in zip(vals, counts)
        }
        match = y_hist == hist
    report.check("seven/z-matches-projected-model", True, match, t.ms)


def _parse_anchors(text: str):
    try:
        a_txt, b_txt = text.split(";")
        a = np.array([int(x) for x in a_txt.split(",")], dtype=np.int64)
        b = np.array([int(x) for x in b_txt.split(",")], dtype=np.int64)
        if a.shape != (24,) or b.shape != (24,):
            raise ValueError("each anchor needs 24 coordinates")
        return a, b
    except ValueError as exc:
        print(f"error: bad --anchors value: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from exc


def _load_or_build(args, anchors) -> WeightedPointSet:
    if args.design_file:
        path = Path(args.design_file)
        if not path.exists():
            print(f"error: no such design file: {path}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        return design_io.read_design(path)
    a, b = anchors
    return build_design(a, b)


def main(argv=None) -> int:
    try:
        return _main(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="leechdesign",
        description="Build and verify the two-shell weighted 6-design in R^22.",
    )
    parser.add_argument(
        "command",
        choices=[
            "build",
            "verify-design",
            "verify-coherent",
            "verify-unique",
            "verify-7design",
            "all",
        ],
    )
    parser.add_argument("--anchors", help="a1,..,a24;b1,..,b24 (scaled integer frame)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=20240601)
    parser.add_argument("--float-oracle", action="store_true")
    parser.add_argument(
        "--in",
        dest="design_file",
        help="verify a previously written design file instead of rebuilding",
    )
    args = parser.parse_args(argv)

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

        stages = {
            "verify-design": ["design"],
            "verify-coherent": ["coherent"],
            "verify-unique": ["unique"],
            "verify-7design": ["seven"],
            "all": ["design", "coherent", "unique", "seven"],
        }[args.command]

        ws = _load_or_build(args, anchors)
        if args.command == "all" and not args.design_file:
            design_io.write_design(out_dir / "design.txt", ws)

        overall_ok = True
        first_fail = None
        for stage in stages:
            report = VerificationReport(name=stage)
            if stage == "design":
                verify_design_claims(
                    ws, report, float_oracle=args.float_oracle, seed=args.seed
                )
            elif stage == "coherent":
                verify_coherent_claims(ws, report, out_dir=out_dir)
            elif stage == "unique":
                verify_unique_claims(ws, report, anchors=anchors, out_dir=out_dir)
            elif stage == "seven":
                verify_seven_claims(ws, report, anchors=anchors)
            report.write(out_dir, f"report_{stage}")
            print(report.summary_text())
            if not report.passed and first_fail is None:
                first_fail = report.first_failure()
                overall_ok = False

        if not overall_ok and first_fail is not None:
            print(
                f"FIRST FAILED CLAIM: {first_fail.claim} "
                f"(expected {first_fail.expected}, computed {first_fail.computed})",
                file=sys.stderr,
            )
        return EXIT_PASS if overall_ok else EXIT_FAIL
    except design_io.FormatError as exc:
        print(f"error: bad input file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DesignConstructionError as exc:
        print(f"error: invalid design input: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
