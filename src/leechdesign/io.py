"""Text formats for layered designs, candidate sets and tensors.

Layered weighted sets: one block per layer, one vector per line as 24
space-separated integers, lines in lexicographic order:

    # design layers=<k>
    # layer weight=<p/q> r2=<p/q> denom=<d> count=<n>
    <24 integers per line: denom * scaled coordinates>

Candidate exports carry the header "# candidates norm=44/3 count=<n>".
All writers emit byte-deterministic output for a given object.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .arith import rat_from_text, rat_to_text
from .construct import PointLayer, WeightedPointSet
from .lattice import canonical_sort


class FormatError(ValueError):
    pass


def _parse_header(line: str, tag: str) -> dict[str, str]:
    if not line.startswith(f"# {tag}"):
        raise FormatError(f"expected '# {tag}' header, got {line!r}")
    fields = {}
    for tok in line[1:].split()[1:]:
        key, _, val = tok.partition("=")
        fields[key] = val
    return fields


def _block_text(header: str, rows: np.ndarray) -> str:
    """The header line, then the rows in canonical order, one per line:
    one format call for the whole block."""
    rows = canonical_sort(rows)
    row = " ".join(["%d"] * rows.shape[1]) + "\n"
    return header + "\n" + (row * len(rows)) % tuple(rows.ravel().tolist())


def write_design(path: Path, ws: WeightedPointSet) -> None:
    text = f"# design layers={len(ws.layers)}\n"
    for layer in ws.layers:
        text += _block_text(
            f"# layer weight={rat_to_text(layer.weight)} r2={rat_to_text(layer.r2)} "
            f"denom={layer.denom} count={layer.size}",
            layer.points,
        )
    Path(path).write_text(text)


def read_design(path: Path) -> WeightedPointSet:
    """Parse a design file; every parse fault raises FormatError."""
    try:
        text = Path(path).read_text().strip().splitlines()
        if not text:
            raise FormatError("empty design file")
        head = _parse_header(text[0], "design")
        n_layers = int(head["layers"])
        layers = []
        i = 1
        for _ in range(n_layers):
            if i >= len(text):
                raise FormatError("fewer layers than the header declares")
            fields = _parse_header(text[i], "layer")
            weight = rat_from_text(fields["weight"])
            r2 = rat_from_text(fields["r2"])
            denom = int(fields["denom"])
            count = int(fields["count"])
            if denom < 1 or count < 1:
                raise FormatError("layer denom and count must be positive")
            block = text[i + 1 : i + 1 + count]
            if not any(map(str.strip, block)):  # np.loadtxt skips blank lines, and warns on none
                raise FormatError("layer holds no point")
            # one parse: a ragged block or a token that is not an int64 raises ValueError
            points = np.loadtxt(block, dtype=np.int64, comments=None, ndmin=2)
            if points.shape != (count, 24):
                raise FormatError("layer point count or width mismatch")
            layers.append(
                PointLayer(
                    points=points,
                    denom=denom,
                    weight=weight,
                    r2=r2,
                )
            )
            i += 1 + count
        if i < len(text):
            raise FormatError(f"{len(text) - i} lines after the last declared layer")
        return WeightedPointSet(layers=tuple(layers))
    except FormatError:
        raise
    except (KeyError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise FormatError(f"{type(exc).__name__}: {exc}") from exc


def write_candidates(path: Path, vectors3: np.ndarray) -> None:
    vectors3 = np.asarray(vectors3, dtype=np.int64)
    Path(path).write_text(
        _block_text(f"# candidates norm=44/3 count={len(vectors3)}", vectors3)
    )


def write_tensor(path: Path, tensor: np.ndarray, labels: list[str]) -> None:
    """Plain-text tensor entries "a b c value", structural zeros omitted."""
    lines = [
        f"{labels[a]} {labels[b]} {labels[c]} {tensor[a, b, c]}"
        for a, b, c in np.argwhere(tensor)
    ]
    Path(path).write_text("\n".join(lines) + "\n")
