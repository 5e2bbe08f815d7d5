"""Property test over mutated certificates (hypothesis, MacIver et al., JOSS
2019): whatever the mutation, reading the file and running each verify
stage up to a last claim ends in a report, a `FormatError` or a
`DesignConstructionError`, never in another exception.  The design and
seven stages run through their strength claims, the other two stages
their first claim."""

import re
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import leechdesign.cli as cli
from leechdesign import io as design_io
from leechdesign.construct import DesignConstructionError
from leechdesign.lattice import A_CANONICAL, B_CANONICAL
from leechdesign.report import VerificationReport

ANCHORS = (A_CANONICAL, B_CANONICAL)

# (stage, run on a design, a report and an output directory; the claim it
# ends after, before any claim that writes to the directory or reads the
# lattice)
STAGES = [
    (lambda ws, report, out: cli.verify_design_claims(ws, report), "design/shell2-spherical-4"),
    (cli.verify_coherent_claims, "coherent/nine-admissible-products"),
    (lambda ws, report, out: cli.verify_unique_claims(ws, report, ANCHORS, out),
     "unique/integral-shell-products"),
    (lambda ws, report, out: cli.verify_seven_claims(ws, report, ANCHORS), "seven/z-spherical-7"),
]


class EndAfter(cli.Stage):
    """The stage runner, ended after the claim `last`."""

    def __init__(self, report: VerificationReport, last: str):
        super().__init__(report)
        self.last = last

    @contextmanager
    def claim(self, claim_id, *args, **kwargs):
        with super().claim(claim_id, *args, **kwargs) as c:
            yield c
        if claim_id == self.last:
            raise cli._StageEnd


def run_stages(ws, out) -> list[VerificationReport]:
    reports = []
    for stage, last in STAGES:
        reports.append(VerificationReport(name=last.split("/")[0]))
        with mock.patch.object(cli, "Stage", lambda report: EndAfter(report, last)):
            stage(ws, reports[-1], out)
    return reports


# Line layout of a written two-layer design: the design header, then per
# layer its header line and its points.
LAYER_HEADER = {0: 1, 1: 2 + 275}
LAYER_SIZE = {0: 275, 1: 2025}

POINT = st.tuples(st.sampled_from([0, 1]), st.integers(0, 2024))
HEADER_FIELD = st.sampled_from(
    [(0, "layers")]
    + [(LAYER_HEADER[i], f) for i in (0, 1) for f in ("weight", "r2", "denom", "count")]
)
HEADER_VALUE = st.sampled_from(
    ["0", "1", "2", "3", "-1", "2024", "0/1", "1/0", "-1/5", "1/729", "12/5", "132/5", "x", ""]
)
MUTATIONS = st.one_of(
    st.tuples(st.just("delete"), POINT),
    st.tuples(st.just("duplicate"), POINT),
    st.tuples(st.just("negate"), POINT),
    st.tuples(st.just("perturb"), POINT, st.integers(0, 23), st.sampled_from([-2, -1, 1, 2])),
    st.tuples(
        st.just("shift"), POINT, st.integers(0, 23), st.integers(0, 64), st.sampled_from([-1, 1])
    ),
    st.tuples(st.just("header"), HEADER_FIELD, HEADER_VALUE),
)


def _set_field(line: str, field: str, value: str) -> str:
    return re.sub(rf"\b{field}=\S*", f"{field}={value}", line)


def mutate(lines: list[str], mutation) -> list[str]:
    lines = list(lines)
    kind = mutation[0]
    if kind == "header":
        (row, field), value = mutation[1:]
        lines[row] = _set_field(lines[row], field, value)
        return lines
    layer, index = mutation[1]
    head = LAYER_HEADER[layer]
    row = head + 1 + index % LAYER_SIZE[layer]
    coords = [int(x) for x in lines[row].split()]
    count = LAYER_SIZE[layer]
    if kind == "delete":
        del lines[row]
        count -= 1
    elif kind == "duplicate":
        lines.insert(row, lines[row])
        count += 1
    elif kind == "negate":
        lines[row] = " ".join(str(-x) for x in coords)
    else:
        col = mutation[2]
        coords[col] += mutation[3] if kind == "perturb" else mutation[4] * 2 ** mutation[3]
        lines[row] = " ".join(map(str, coords))
    lines[head] = _set_field(lines[head], "count", str(count))
    return lines


@pytest.fixture(scope="module")
def certificate(design, tmp_path_factory):
    """The written design, its lines, and the claim ids each stage reports
    on it, each ending at the stage's last claim."""
    path = tmp_path_factory.mktemp("mutated") / "design.txt"
    design_io.write_design(path, design)
    claims = [[r.claim for r in report.results] for report in run_stages(design, path.parent)]
    assert [ids[-1] for ids in claims] == [last for _, last in STAGES]
    return path, path.read_text().splitlines(), claims


@settings(
    max_examples=40,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutation=MUTATIONS)
# run whatever is drawn: a one-layer header, swapped weights, a duplicated
# and a negated outer point, and a coordinate shifted out of int64
@example(mutation=("header", (0, "layers"), "1"))
@example(mutation=("header", (LAYER_HEADER[0], "weight"), "1/729"))
@example(mutation=("duplicate", (1, 5)))
@example(mutation=("negate", (1, 5)))
@example(mutation=("shift", (1, 5), 3, 63, -1))
def test_mutated_certificate_ends_in_a_report_or_an_input_error(certificate, mutation):
    path, lines, claims = certificate
    path.write_text("\n".join(mutate(lines, mutation)) + "\n")
    try:
        ws = design_io.read_design(path)
    except (design_io.FormatError, DesignConstructionError):
        return
    for report, expected in zip(run_stages(ws, path.parent), claims):
        got = [r.claim for r in report.results]
        # every claim up to the last, unless a failed claim ended the stage
        assert got == expected or (got == expected[: len(got)] and not report.results[-1].passed)
