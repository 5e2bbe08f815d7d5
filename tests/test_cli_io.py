import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import leechdesign
from conftest import A_ALTERNATE, A_WRAPPING, B_ALTERNATE
from leechdesign import io as design_io
from leechdesign.arith import rat_to_text
from leechdesign.cli import main
from leechdesign.coherent import RelationClassificationError
from leechdesign.coherent_fixture import LABELS, fixture_tensor
from leechdesign.construct import (
    DesignConstructionError,
    PointLayer,
    WeightedPointSet,
    build_design,
)
from leechdesign.design import mutate_design
from leechdesign.lattice import B_CANONICAL, canonical_sort, default_context, norm4_shell
from leechdesign.lattice.intlinalg import adjugate
from leechdesign.report import VerificationReport
from leechdesign.unique import UniquenessError
from many_valued import many_layered_design, many_valued_design


def test_design_file_round_trip(tmp_path, design):
    path = tmp_path / "design.txt"
    design_io.write_design(path, design)
    back = design_io.read_design(path)
    assert len(back.layers) == 2
    for a, b in zip(back.layers, design.layers):
        assert a.weight == b.weight and a.r2 == b.r2 and a.denom == b.denom
        assert bool((a.points == b.points).all())


def test_design_file_deterministic(tmp_path, design):
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    design_io.write_design(p1, design)
    design_io.write_design(p2, design)
    assert p1.read_bytes() == p2.read_bytes()


def _per_token_lines(rows) -> list[str]:
    """The writers' rows, one token at a time, in canonical order."""
    return [" ".join(str(int(x)) for x in row) for row in canonical_sort(rows)]


def _seeded_design(seed):
    shell = norm4_shell(default_context().code)
    rng = np.random.default_rng(seed)
    a = shell[rng.integers(len(shell))]
    partners = shell[shell @ a == -8]
    return build_design(a, partners[rng.integers(len(partners))])


@pytest.mark.parametrize("which", ["canonical", "seeded", "one-point-layer"])
def test_design_writer_bytes_equal_per_token_formatting(tmp_path, design, which):
    ws = {
        "canonical": lambda: design,
        "seeded": lambda: _seeded_design(5),
        "one-point-layer": lambda: mutate_design(design, 1, 0),
    }[which]()
    lines = [f"# design layers={len(ws.layers)}"]
    for layer in ws.layers:
        lines.append(
            f"# layer weight={rat_to_text(layer.weight)} r2={rat_to_text(layer.r2)} "
            f"denom={layer.denom} count={layer.size}"
        )
        lines += _per_token_lines(layer.points)
    path = tmp_path / "design.txt"
    design_io.write_design(path, ws)
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_candidates_writer_bytes_equal_per_token_formatting(tmp_path, candidates):
    rows = candidates.vectors3
    lines = [f"# candidates norm=44/3 count={len(rows)}", *_per_token_lines(rows)]
    path = tmp_path / "candidates.txt"
    design_io.write_candidates(path, rows)
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def _modules_after(argv, tmp_path):
    """The leechdesign modules, and whether numpy.ma, are loaded after one
    command-line run in a fresh process."""
    code = (
        "import json, sys\n"
        "from leechdesign.cli import main\n"
        f"assert main({argv!r}) in (0, 1)\n"
        "print(json.dumps([sorted(sys.modules), 'numpy.ma' in sys.modules]))\n"
    )
    src = str(Path(leechdesign.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    modules, ma = json.loads(done.stdout.splitlines()[-1])
    return {m.removeprefix("leechdesign.") for m in modules if m.startswith("leechdesign.")}, ma


def test_each_command_imports_only_the_stages_it_runs(tmp_path, design):
    path = tmp_path / "design.txt"
    design_io.write_design(path, design)
    numpy_alone = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"],
        capture_output=True, text=True, check=True,
    ).stdout.strip() == "True"
    absent = {
        "build": {"unique", "coherent", "coherent_fixture", "design"},
        "verify-design": {"unique", "coherent", "coherent_fixture"},
        "verify-coherent": {"unique", "design"},
        "verify-unique": set(),  # it runs every stage on the twin; numpy.ma stays out
    }
    for command, modules in absent.items():
        argv = [command, "--out", str(tmp_path / command)]
        if command != "build":
            argv += ["--in", str(path)]
        loaded, ma = _modules_after(argv, tmp_path)
        assert not (loaded & modules), (command, loaded & modules)
        # numpy 1.x loads numpy.ma with numpy itself; there it proves nothing
        assert numpy_alone or not ma, command


def test_candidates_file_round_trip(tmp_path, candidates):
    path = tmp_path / "candidates.txt"
    design_io.write_candidates(path, candidates.vectors3)
    header, *rows = path.read_text().splitlines()
    assert header == "# candidates norm=44/3 count=4050"
    back = np.array([[int(x) for x in row.split()] for row in rows])
    assert bool((back == candidates.vectors3).all())


def test_tensor_file_round_trip(tmp_path):
    t = fixture_tensor()
    path = tmp_path / "tensor.txt"
    design_io.write_tensor(path, t, LABELS)
    lines = path.read_text().splitlines()
    assert len(lines) == int((t != 0).sum())
    for line in lines:
        a, b, c, v = line.split()
        assert int(v) == t[LABELS.index(a), LABELS.index(b), LABELS.index(c)] != 0
    # the entries in the order of a loop over (a, b, c), zeros omitted
    loop = [
        f"{LABELS[a]} {LABELS[b]} {LABELS[c]} {int(t[a, b, c])}"
        for a in range(13)
        for b in range(13)
        for c in range(13)
        if t[a, b, c]
    ]
    assert lines == loop
    design_io.write_tensor(path, 0 * t, LABELS)
    assert path.read_text() == "\n"


def test_report_canonical_json_deterministic():
    r1 = VerificationReport(name="demo")
    r1.check("a/claim", 1, 1, wall_time_ms=123)
    r2 = VerificationReport(name="demo")
    r2.check("a/claim", 1, 1, wall_time_ms=456)
    assert r1.to_canonical_json() == r2.to_canonical_json()
    assert r1.to_json() != r2.to_json()


def test_cli_build_writes_files(tmp_path, design):
    out = tmp_path / "out"
    code = main(["build", "--out", str(out)])
    assert code == 0
    assert (out / "design.txt").exists()
    assert (out / "x1.txt").exists()
    assert (out / "x2.txt").exists()
    ws = design_io.read_design(out / "design.txt")
    assert bool((ws.layers[0].points == design.layers[0].points).all())


def test_cli_verify_design_from_file(tmp_path, design):
    out = tmp_path / "out"
    out.mkdir()
    design_io.write_design(out / "design.txt", design)
    code = main(
        ["verify-design", "--in", str(out / "design.txt"), "--out", str(out)]
    )
    assert code == 0
    assert (out / "report_design.json").exists()
    notes = json.loads((out / "report_design.canonical.json").read_text())["notes"]
    # strength sums are plain rationals, written as p/q
    labels = ["l=1,j=0", "l=1,j=1", "l=2,j=0", "l=2,j=1", "l=3,j=0",
              "l=3,j=1", "l=4,j=0", "l=4,j=1", "l=5,j=0", "l=6,j=0"]
    assert notes["strength-6-values"] == str({label: "0/1" for label in labels})
    assert notes["degree-7-values"] == str(
        {"l=5,j=1": "1992646656/115", "l=7,j=0": "1107025920/23"}
    )
    # the whole canonical report, as written before the pair statistics
    digest = hashlib.sha256((out / "report_design.canonical.json").read_bytes()).hexdigest()
    assert digest == "270d2d1806d9bf78384110f49c0dd29c0d0fb66cc54c0136e166460b806c4a78"


def test_cli_detects_deleted_point(tmp_path, design):
    broken = WeightedPointSet(
        layers=(
            PointLayer(
                points=design.layers[0].points[:-1],
                denom=5,
                weight=design.layers[0].weight,
                r2=design.layers[0].r2,
            ),
            design.layers[1],
        )
    )
    out = tmp_path / "out"
    out.mkdir()
    design_io.write_design(out / "design.txt", broken)
    code = main(
        ["verify-design", "--in", str(out / "design.txt"), "--out", str(out)]
    )
    assert code == 1
    report = (out / "report_design.txt").read_text()
    assert "FAIL" in report
    # cardinality is the first failing claim
    first_fail = next(line for line in report.splitlines() if "FAIL" in line and "/" in line)
    assert "design/layer-sizes" in first_fail


@pytest.mark.parametrize(
    "fault",
    ["empty-file", "non-integer-token", "huge-coordinate", "zero-denominator-weight",
     "truncated-layer", "missing-layer", "trailing-line", "extra-point", "short-row",
     "long-row", "blank-line-in-layer", "comment-in-row"],
)
def test_malformed_design_file_is_a_format_error(tmp_path, design, capsys, fault):
    valid = tmp_path / "valid.txt"
    design_io.write_design(valid, design)
    lines = valid.read_text().splitlines()
    tokens = lines[7].split()

    def with_token(token):
        return "\n".join(lines[:7] + [" ".join([token] + tokens[1:])] + lines[8:])

    text = {
        "empty-file": "",
        "non-integer-token": with_token("x" + tokens[0]),
        "huge-coordinate": with_token(str(2**70)),
        "zero-denominator-weight": "\n".join(
            [lines[0], lines[1].replace("weight=1/1 ", "weight=1/0 ")] + lines[2:]
        ),
        "truncated-layer": "\n".join(
            [lines[0], lines[1].replace("count=275", "count=0")] + lines[2 + 275 :]
        ),
        "missing-layer": "\n".join(["# design layers=3"] + lines[1:]),
        # lines after the declared layers, which a reader would never look at
        "trailing-line": "\n".join(lines + ["signed: nobody"]),
        "extra-point": "\n".join(lines + [lines[-1]]),  # count=2025 left as it is
        "short-row": "\n".join(lines[:7] + [" ".join(tokens[:23])] + lines[8:]),
        "long-row": "\n".join(lines[:7] + [" ".join(tokens + ["0"])] + lines[8:]),
        # a blank line is no point, so the layer is one row short
        "blank-line-in-layer": "\n".join(lines[:7] + [""] + lines[7:]),
        # "#" is a token like any other, not the start of a comment
        "comment-in-row": "\n".join(lines[:7] + [lines[7] + " # 24 coordinates"] + lines[8:]),
    }[fault]
    path = tmp_path / f"{fault}.txt"
    path.write_text(text + "\n")
    with pytest.raises(design_io.FormatError):
        design_io.read_design(path)
    capsys.readouterr()
    code = main(["verify-design", "--in", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: bad input file:") and len(err.splitlines()) == 1


def test_one_point_layers_are_read_as_rows(tmp_path):
    ws = many_layered_design(3)
    path = tmp_path / "design.txt"
    design_io.write_design(path, ws)
    back = design_io.read_design(path)
    assert [layer.points.shape for layer in back.layers] == [(1, 24)] * 3
    for a, b in zip(back.layers, ws.layers):
        assert a.r2 == b.r2 and a.points.tolist() == b.points.tolist()


@pytest.mark.parametrize("command, stem", [("verify-design", "design"), ("verify-7design", "seven")])
def test_a_many_valued_set_is_reported_by_its_size_and_first_values(tmp_path, command, stem):
    # the file's blocks hold 617, 1724 and 1826 distinct off-diagonal values,
    # and its cover Z 4355; listed in full, the reports took about 40 KB
    path = tmp_path / "design.txt"
    design_io.write_design(path, many_valued_design())
    assert main([command, "--in", str(path), "--out", str(tmp_path)]) == 1
    text = (tmp_path / f"report_{stem}.canonical.json").read_text()
    assert len(text) < 4096
    claims = {c["claim"]: c["computed"] for c in json.loads(text)["claims"]}
    # each set in its order: the design's descending, Z's ascending
    heads = {
        "design": {"design/inner-products-shell1": "617 values: [173/240, ",
                   "design/inner-products-shell2": "1724 values: [2639/2640, ",
                   "design/inner-products-cross-sqrt11": "1826 values: [913/480, "},
        "seven": {"seven/z-value-set": "4355 values: [-1, -2699/2700, "},
    }[stem]
    for claim, head in heads.items():
        assert claims[claim].startswith(head)
        assert claims[claim].endswith(", ...]") and claims[claim].count(",") == 16


@pytest.mark.parametrize(
    "command", ["verify-design", "verify-coherent", "verify-unique", "verify-7design"]
)
def test_int64_wraparound_forgery_is_rejected(tmp_path, design, capsys, command):
    # Subtracting 2^63 from two non-negative coordinates of one outer point
    # changes every int64 square and product by a multiple of 2^64, so an
    # unchecked norm and Gram would not see it.
    path = tmp_path / "design.txt"
    design_io.write_design(path, design)
    lines = path.read_text().splitlines()
    outer_rows = range(2 + 275 + 1, len(lines))  # past both headers and the inner layer
    row = next(i for i in outer_rows if sum(int(x) >= 0 for x in lines[i].split()) >= 2)
    tokens = [int(x) for x in lines[row].split()]
    for col in [c for c, x in enumerate(tokens) if x >= 0][:2]:
        tokens[col] -= 2**63
    lines[row] = " ".join(map(str, tokens))
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main([command, "--in", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "coordinate out of range" in err


@pytest.mark.parametrize(
    "command, stop_claim",
    [
        ("verify-design", "design/layer-sizes"),
        ("verify-coherent", "coherent/nine-admissible-products"),
        ("verify-unique", "unique/integral-shell-products"),
        ("verify-7design", "seven/z-pair-count"),
    ],
)
@pytest.mark.parametrize("layers", [0, 1])
def test_design_with_fewer_than_two_layers_fails_a_named_claim(
    tmp_path, design, capsys, layers, command, stop_claim
):
    path = tmp_path / "design.txt"
    if layers:
        design_io.write_design(path, WeightedPointSet(layers=design.layers[:1]))
    else:
        path.write_text("# design layers=0\n")
    out = tmp_path / "out"
    capsys.readouterr()
    code = main([command, "--in", str(path), "--out", str(out)])
    assert code == 1
    assert f"FIRST FAILED CLAIM: {stop_claim} " in capsys.readouterr().err
    stage = json.loads(next(out.glob("report_*.canonical.json")).read_text())
    # the stage stops at its first claim that needs two shells
    assert stage["claims"][-1]["claim"] == stop_claim
    assert not stage["claims"][-1]["pass"]


@pytest.mark.parametrize(
    "command, stop_claim",
    [
        ("verify-unique", "unique/part-a-equals-second-shell"),
        ("verify-7design", "seven/z-pair-count"),
    ],
)
def test_deleted_outer_point_fails_a_named_claim(
    tmp_path, design, capsys, command, stop_claim
):
    outer = design.layers[1]
    broken = WeightedPointSet(
        layers=(
            design.layers[0],
            PointLayer(
                points=outer.points[:-1], denom=outer.denom, weight=outer.weight, r2=outer.r2
            ),
        )
    )
    path = tmp_path / "design.txt"
    design_io.write_design(path, broken)
    out = tmp_path / "out"
    capsys.readouterr()
    code = main([command, "--in", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert f"FIRST FAILED CLAIM: {stop_claim} " in err
    if command == "verify-7design":
        # the claim reads the real pair count: 2 * 4598 points lose 4600^2 - 4598^2
        assert "computed 21141604)" in err
        # and the cardinality claim counts the points of the file
        claims = json.loads((out / "report_seven.canonical.json").read_text())["claims"]
        bound = next(c for c in claims if c["claim"] == "seven/z-cardinality-meets-antipodal-bound")
        assert (bound["pass"], bound["expected"], bound["computed"]) == (False, "4600", "4598")


@pytest.mark.parametrize(
    "command, stage, first_fail",
    [
        ("verify-design", "design", "design/layer-sizes"),
        ("verify-coherent", "coherent", "coherent/nine-admissible-products"),
        ("verify-unique", "unique", "unique/part-a-equals-second-shell"),
        ("verify-7design", "seven", "seven/z-pair-count"),
    ],
)
def test_two_layers_of_one_radius_fail_named_claims(
    tmp_path, design, capsys, command, stage, first_fail
):
    # the canonical inner layer written as both layers
    path = tmp_path / "design.txt"
    design_io.write_design(path, WeightedPointSet(layers=(design.layers[0],) * 2))
    out = tmp_path / "out"
    capsys.readouterr()
    code = main([command, "--in", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert f"FIRST FAILED CLAIM: {first_fail} " in err
    last = json.loads((out / f"report_{stage}.canonical.json").read_text())["claims"][-1]
    # a step that raises the program's own error fails its claim and ends the stage
    ends = {
        "design": ("design/strength-6-zero-conditions",
                   "error: layers must have distinct positive radii"),
        "unique": ("unique/twin-strength-6", "error: layer norm check failed (expected 480)"),
    }
    if stage in ends:
        assert (last["claim"], last["computed"]) == ends[stage]


@pytest.mark.parametrize(
    "command, claim",
    [
        ("verify-unique", "unique/part-b-equals-projected-coset"),
        ("verify-7design", "seven/shell1-equals-projected-y-family"),
    ],
)
def test_design_of_other_anchors_is_replayed_with_them(
    tmp_path, alt_design, capsys, command, claim
):
    path = tmp_path / "design.txt"
    design_io.write_design(path, alt_design)
    out = tmp_path / "out"
    capsys.readouterr()
    # the anchor-dependent claim cannot compare a design of other anchors
    assert main([command, "--in", str(path), "--out", str(out)]) == 1
    assert f"FIRST FAILED CLAIM: {claim} " in capsys.readouterr().err
    last = json.loads(next(out.glob("report_*.canonical.json")).read_text())["claims"][-1]
    assert (last["claim"], last["computed"]) == (
        claim,
        "error: design is not orthogonal to the anchors; "
        "replay with the --anchors it was built from",
    )
    anchors = ";".join(",".join(map(str, v)) for v in (A_ALTERNATE, B_ALTERNATE))
    argv = [command, "--in", str(path), "--out", str(tmp_path / "anchored"), "--anchors", anchors]
    assert main(argv) == 0


STEP_FAULTS = [
    # command, patched step (in its home module), error it raises, claim at
    # which the stage stops
    ("verify-unique", "unique.build_dual_frame", UniquenessError,
     "unique/dual-frame-biorthogonal"),
    ("verify-unique", "unique.enumerate_candidates", UniquenessError, "unique/candidate-count"),
    ("verify-coherent", "coherent.classify_pairs", RelationClassificationError,
     "coherent/nine-admissible-products"),
    ("verify-unique", "unique.twin_design", DesignConstructionError, "unique/twin-strength-6"),
    ("verify-coherent", "coherent.classify_pairs", KeyError, None),
]


@pytest.mark.parametrize(
    "command, step, error, stop_claim",
    STEP_FAULTS,
    ids=[
        f"{step.rpartition('.')[2]}-{claim or error.__name__}"
        for _, step, error, claim in STEP_FAULTS
    ],
)
def test_uniqueness_error_of_a_step_fails_its_claim(
    tmp_path, design, capsys, monkeypatch, command, step, error, stop_claim
):
    def fail(*args, **kwargs):
        raise error("injected")

    # the stage imports its module when it runs, so the patch is seen there
    monkeypatch.setattr(f"leechdesign.{step}", fail)
    path = tmp_path / "design.txt"
    design_io.write_design(path, design)
    out = tmp_path / "out"
    argv = [command, "--in", str(path), "--out", str(out)]
    if stop_claim is None:
        # any other exception is a bug: it must never be reported as a failed claim
        with pytest.raises(error):
            main(argv)
        return
    capsys.readouterr()
    code = main(argv)
    assert code == 1
    assert f"FIRST FAILED CLAIM: {stop_claim} " in capsys.readouterr().err
    stage = command.removeprefix("verify-")
    last = json.loads((out / f"report_{stage}.canonical.json").read_text())["claims"][-1]
    # the stage stops at the failed step's claim
    assert (last["claim"], last["pass"], last["computed"]) == (stop_claim, False, "error: injected")


def test_wrong_adjugate_fails_the_biorthogonality_claim(tmp_path, design, capsys, monkeypatch):
    def one_entry_wrong(mat):
        adj, det = adjugate(mat)
        if mat == [list(col) for col in zip(*mat)]:  # the Gram, the one symmetric input
            adj[0][1] += det  # one entry of G^-1 off by exactly 1
        return adj, det

    monkeypatch.setattr("leechdesign.unique.adjugate", one_entry_wrong)
    path = tmp_path / "design.txt"
    design_io.write_design(path, design)
    out = tmp_path / "out"
    capsys.readouterr()
    code = main(["verify-unique", "--in", str(path), "--out", str(out)])
    assert code == 1
    assert "FIRST FAILED CLAIM: unique/dual-frame-biorthogonal " in capsys.readouterr().err
    claims = json.loads((out / "report_unique.canonical.json").read_text())["claims"]
    # the frame's own round trip catches the wrong inverse and ends the stage
    assert [(c["claim"], c["pass"]) for c in claims] == [
        ("unique/integral-shell-products", True),
        ("unique/dual-frame-biorthogonal", False),
    ]
    assert claims[-1]["computed"] == "error: dual-frame coefficient round trip failed"


def test_cli_usage_error_on_missing_file(tmp_path):
    code = main(
        ["verify-design", "--in", str(tmp_path / "nope.txt"), "--out", str(tmp_path)]
    )
    assert code == 2


def test_cli_usage_error_on_directory_input(tmp_path, capsys):
    capsys.readouterr()
    code = main(["verify-design", "--in", str(tmp_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot read design file: ") and err.count("\n") == 1


def test_cli_build_refuses_an_input_file(tmp_path, capsys):
    # build makes the design from the anchors and would not read the file
    capsys.readouterr()
    code = main(["build", "--in", str(tmp_path / "nonexistent"), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: build ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["build", "verify-design"])
def test_cli_usage_error_on_unwritable_output(tmp_path, design, capsys, command):
    out = tmp_path / "out"
    if command == "build":
        args = ["build"]
        (out / "design.txt").mkdir(parents=True)
    else:
        path = tmp_path / "design.txt"
        design_io.write_design(path, design)
        args = ["verify-design", "--in", str(path)]
        (out / "report_design.json").mkdir(parents=True)
    capsys.readouterr()
    code = main([*args, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1


def test_cli_usage_error_on_bad_threads(tmp_path):
    # the option was removed; argparse rejects it as a usage error
    code = main(["build", "--threads", "2", "--out", str(tmp_path)])
    assert code == 2


def test_cli_usage_error_on_malformed_anchors(tmp_path, capsys):
    beyond_int64 = ",".join(["99999999999999999999"] * 24) + ";" + ",".join(["0"] * 24)
    for anchors in ("1,2,3;4,5", beyond_int64):
        capsys.readouterr()
        code = main(["build", "--anchors", anchors, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad --anchors value: ") and err.count("\n") == 1


def test_cli_usage_error_on_invalid_anchor_pair(tmp_path):
    # both anchors are lattice members of norm 4, but the pair product is
    # 4 rather than -1, so the construction preconditions reject it
    a = "4,4" + ",0" * 22
    code = main(["build", "--anchors", a + ";" + a, "--out", str(tmp_path)])
    assert code == 2


def test_cli_rejects_an_anchor_whose_norm_wraps_in_int64(tmp_path, capsys):
    anchors = ";".join(",".join(map(str, v)) for v in (A_WRAPPING, B_CANONICAL))
    capsys.readouterr()
    code = main(["build", "--anchors", anchors, "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: invalid design input: anchors must have norm 4\n"


def test_cli_reports_byte_deterministic_across_runs_and_threads(tmp_path, design):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        out.mkdir()
        design_io.write_design(out / "design.txt", design)
    c1 = main(
        ["verify-coherent", "--in", str(out1 / "design.txt"), "--out", str(out1)]
    )
    c2 = main(
        ["verify-coherent", "--in", str(out2 / "design.txt"), "--out", str(out2)]
    )
    assert c1 == 0 and c2 == 0
    assert (out1 / "report_coherent.canonical.json").read_bytes() == (
        out2 / "report_coherent.canonical.json"
    ).read_bytes()
    assert (out1 / "tensor.txt").read_bytes() == (out2 / "tensor.txt").read_bytes()
