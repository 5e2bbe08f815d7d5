"""Zonal kernels from their coefficient tables, evaluated one value at a
time: a reference independent of `leechdesign.design.kernel_sums`, which
reads the coefficients of the recurrence, run once per degree and dimension,
and meets each histogram in its power sums; the tests compare the two,
value by value and block by block."""

from fractions import Fraction


class GegenbauerEvaluator:
    """Normalized degree-k zonal kernels on S^(n-1): Q_0 = 1, Q_1 = u,
    Q_k = ((2k+n-4) u Q_{k-1} - (k-1) Q_{k-2}) / (k+n-3); Q_k(1) = 1."""

    def __init__(self, dimension: int, max_degree: int):
        if dimension < 2:
            raise ValueError("dimension must be at least 2")
        self.dimension = dimension
        self.max_degree = max_degree
        self._coeffs: list[list[Fraction]] = []  # poly coeffs, low power first
        self._build()

    def _build(self) -> None:
        n = self.dimension
        polys = [[Fraction(1)], [Fraction(0), Fraction(1)]]
        for k in range(2, self.max_degree + 1):
            prev = polys[k - 1]
            prev2 = polys[k - 2]
            shifted = [Fraction(0)] + list(prev)  # u * Q_{k-1}
            coeffs = []
            for i in range(k + 1):
                c = Fraction(2 * k + n - 4) * shifted[i] if i < len(shifted) else Fraction(0)
                if i < len(prev2):
                    c -= (k - 1) * prev2[i]
                coeffs.append(c / (k + n - 3))
            polys.append(coeffs)
        self._coeffs = polys

    def coefficients(self, k: int) -> list[Fraction]:
        if not 0 <= k <= self.max_degree:
            raise ValueError(f"degree {k} out of range")
        return self._coeffs[k]

    def homogeneous_pair_value(self, k: int, dot: Fraction, nx2ny2: Fraction) -> Fraction:
        """(|x||y|)^k Q_k(x.y / |x||y|) as a polynomial in dot = x.y and
        nx2ny2 = |x|^2 |y|^2 (exact; uses that Q_k has the parity of k).
        With nx2ny2 = 1 it is Q_k(dot)."""
        coeffs = self.coefficients(k)
        acc = Fraction(0)
        for power, c in enumerate(coeffs):
            if c == 0:
                continue
            rem = k - power
            if rem % 2:
                raise ArithmeticError("kernel parity violated")
            acc += c * dot**power * nx2ny2 ** (rem // 2)
        return acc
