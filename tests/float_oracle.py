"""A seeded floating-point oracle for design strength, independent of the
exact kernel and probe-moment routes; the tests compare it with both."""

import numpy as np

from leechdesign.construct import WeightedPointSet
from leechdesign.design import sphere_monomial_average


def float_polynomial_check(
    ws: WeightedPointSet,
    t: int,
    seed: int = 20240601,
    trials: int = 40,
    dimension: int = 22,
) -> list[tuple[float, float]]:
    """Seeded random-polynomial oracle in an orthonormalized frame.

    Draws sparse polynomials of degree <= t, compares the weighted point
    sum against the exact layered sphere averages (converted to float at
    the end).  Returns (lhs, rhs) pairs for the caller to compare.
    """
    rng = np.random.default_rng(seed)
    stacked = np.concatenate([layer.points / layer.denom for layer in ws.layers])
    u, s, vt = np.linalg.svd(stacked, full_matrices=False)
    rank = int((s > 1e-8 * s[0]).sum())
    if rank != dimension:
        raise ValueError(f"point span has rank {rank}, expected {dimension}")
    frame = vt[:dimension]  # orthonormal rows spanning the design subspace
    coords = [
        (layer.points / layer.denom) @ frame.T / np.sqrt(8.0) for layer in ws.layers
    ]

    out: list[tuple[float, float]] = []
    for _ in range(trials):
        n_monomials = int(rng.integers(1, 6))
        monos = []
        for _ in range(n_monomials):
            deg = int(rng.integers(0, t + 1))
            alpha = np.zeros(dimension, dtype=np.int64)
            for _ in range(deg):
                alpha[int(rng.integers(0, dimension))] += 1
            coef = float(rng.normal())
            monos.append((coef, alpha))
        lhs = 0.0
        for layer, pts in zip(ws.layers, coords):
            vals = np.zeros(len(pts))
            for coef, alpha in monos:
                mono = np.ones(len(pts))
                for i in np.nonzero(alpha)[0]:
                    mono *= pts[:, i] ** int(alpha[i])
                vals += coef * mono
            lhs += float(layer.weight) * float(vals.sum())
        rhs = 0.0
        for coef, alpha in monos:
            deg = int(alpha.sum())
            avg = sphere_monomial_average([int(x) for x in alpha], dimension)
            if avg == 0:
                continue
            for layer in ws.layers:
                r_pow = float(layer.r2) ** (deg / 2.0)
                rhs += coef * float(layer.weight) * layer.size * r_pow * float(avg)
        out.append((lhs, rhs))
    return out
