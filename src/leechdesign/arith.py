"""The text codec of the exact rationals.

Every verification decision in this package is made on exact values, and
every one of them is rational: integers where they suffice (int64 under a
checked bound, Python ints where no width bounds them, as in every power
sum) and `fractions.Fraction` (arbitrary precision, always in lowest terms
with positive denominator) for the rest.  The radicals of the construction
never need representing: the strength sums are rational, and the
cross-shell products are reported multiplied by sqrt(11), which makes them
rational too.  The exact linear algebra (`lattice.intlinalg`) and the
candidate search (`unique`) run on integers alone.
"""

from __future__ import annotations

from fractions import Fraction


def rat_to_text(x: Fraction) -> str:
    """Serialize a rational as "p/q" (q always present and positive)."""
    return f"{x.numerator}/{x.denominator}"


def rat_from_text(s: str) -> Fraction:
    p, q = s.strip().split("/")
    return Fraction(int(p), int(q))
