"""Seeded inputs for the benchmark workloads.

Everything here runs in the benchmark's own process before any timing
starts.  The program under test receives only the generated arguments and
files.  Seed 0 selects the canonical anchor pair, which is what users run
by default; any other seed draws pairs from the norm-4 shell.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from leechdesign import io as design_io
from leechdesign.construct import (
    PointLayer,
    WeightedPointSet,
    build_design,
    project_rows_scaled,
)
from leechdesign.design import mutate_design
from leechdesign.lattice import (
    A_CANONICAL,
    B_CANONICAL,
    CosetConstraint,
    default_context,
    enumerate_coset_shell,
    norm4_shell,
)


@dataclass(frozen=True)
class Certificate:
    """A design file and the first claim each verify command must fail
    (None: every claim must pass)."""

    label: str
    path: Path
    design_claim: str | None
    coherent_claim: str | None


def anchor_pairs(seed: int, count: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """`count` pairs (a, b) of norm-4 lattice vectors with (a, b) = -1."""
    if seed == 0:
        return [(A_CANONICAL, B_CANONICAL)] * count
    shell = norm4_shell(default_context().code)
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        a = shell[rng.integers(len(shell))]
        partners = shell[shell @ a == -8]  # scaled frame: (x, y) = x.y / 8
        pairs.append((a, partners[rng.integers(len(partners))]))
    return pairs


def anchors_arg(a: np.ndarray, b: np.ndarray) -> str:
    """The value of the CLI's --anchors option."""
    return ",".join(map(str, a.tolist())) + ";" + ",".join(map(str, b.tolist()))


def certificate(seed: int, out_dir: Path) -> Certificate:
    """The design of the seed's anchor pair, written as a certificate."""
    (a, b), = anchor_pairs(seed, 1)
    path = out_dir / "design.txt"
    design_io.write_design(path, build_design(a, b))
    return Certificate("valid", path, None, None)


def tampered_certificates(seed: int, valid: Certificate, out_dir: Path) -> list[Certificate]:
    """Three false certificates made from the seed's valid one."""
    (a, b), = anchor_pairs(seed, 1)
    ws = design_io.read_design(valid.path)
    inner, outer = ws.layers
    rng = np.random.default_rng([seed, 1])
    out = []

    points = inner.points.copy()
    i = int(rng.integers(inner.size))
    points[i] = -points[i]
    negated = WeightedPointSet(
        (PointLayer(points, inner.denom, inner.weight, inner.r2), outer)
    )
    out.append(("negated-inner-point", negated, "design/inner-products-shell1"))

    # The other class of the 4050 uniqueness candidates is the projected
    # coset {(x, a) = 0, (x, b) = -2} at norm 4 (claim
    # unique/part-b-equals-projected-coset), stored at the outer layer's scale.
    twin = project_rows_scaled(
        enumerate_coset_shell([CosetConstraint(a, 0), CosetConstraint(b, -2)], 4),
        a,
        b,
        mult=15,
    )
    points = outer.points.copy()
    points[int(rng.integers(outer.size))] = twin[int(rng.integers(len(twin)))]
    swapped = WeightedPointSet(
        (inner, PointLayer(points, outer.denom, outer.weight, outer.r2))
    )
    out.append(("twin-class-candidate", swapped, "design/inner-products-shell2"))

    while True:
        layer = int(rng.integers(2))
        idx = rng.choice(ws.layers[layer].size, size=3, replace=False)
        try:
            mutated = mutate_design(ws, layer, *map(int, idx))
        except ValueError:  # landed on an existing radius or on zero
            continue
        break
    out.append(("mutated-point", mutated, "design/layer-sizes"))

    certs = []
    for label, design, claim in out:
        path = out_dir / f"{label}.txt"
        design_io.write_design(path, design)
        certs.append(
            Certificate(label, path, claim, "coherent/nine-admissible-products")
        )
    return certs


def malformed_files(seed: int, valid: Path, out_dir: Path) -> list[Path]:
    """The six malformed inputs of the certificate-replay contract, cut
    from a valid certificate at seeded positions."""
    lines = valid.read_text().splitlines()
    rng = np.random.default_rng([seed, 2])
    inner_count = int(lines[1].rsplit("count=", 1)[1])
    row = 2 + int(rng.integers(inner_count))  # a row of the inner layer
    col = int(rng.integers(24))

    def with_token(token: str) -> str:
        tokens = lines[row].split()
        tokens[col] = token
        return "\n".join(lines[:row] + [" ".join(tokens)] + lines[row + 1 :]) + "\n"

    cases = {
        "empty-file": "",
        "non-integer-token": with_token("x" + lines[row].split()[col]),
        "huge-coordinate": with_token(str(2**70)),
        "zero-denominator-weight": "\n".join(
            [lines[0], lines[1].replace("weight=1/1 ", "weight=1/0 ")] + lines[2:]
        )
        + "\n",
        "truncated-layer": "\n".join(
            [lines[0], lines[1].replace(f"count={inner_count}", "count=0")]
            + lines[2 + inner_count :]
        )
        + "\n",
        "one-layer": "\n".join(["# design layers=1"] + lines[1 : 2 + inner_count])
        + "\n",
    }
    paths = []
    for name, text in cases.items():
        path = out_dir / f"{name}.txt"
        path.write_text(text)
        paths.append(path)
    return paths
