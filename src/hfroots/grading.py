"""Absolute Q-gradings as one rational shift plus integers.

Every grade of HF+(-M, sigma_a) is r_a plus an even integer: the homology is
the Z[U]-module of the graded root of tau, in the even degrees 2 chi, shifted
by r_a, so all its grades share the fractional part of r_a (Ozsvath-Szabo,
Absolutely graded Floer homologies, Adv. Math. 173, 2003).  The pipeline
therefore stores each grade as the integer g and reads it as r_a + g; a
`Grading` is that reading, as a value or as text.

With r_a = N/D in lowest terms, gcd(N + g D, D) = gcd(N, D) = 1, so
(N + g D)/D is r_a + g already reduced: writing a grade needs neither a gcd
nor a Fraction.  The JSON documents write it so, "(N + g D)/D", in the
template of a spin^c block (`cli._spinc_json`).
"""

from __future__ import annotations

from fractions import Fraction


class Grading:
    """The grades r + g of one shift r (a Fraction or an int), g an integer."""

    __slots__ = ("shift", "num", "den")

    def __init__(self, shift):
        self.shift = shift
        self.num = shift.numerator
        self.den = shift.denominator

    def value(self, g: int) -> Fraction:
        """r + g as an exact rational."""
        return self.shift + g

    def text(self, g: int) -> str:
        """r + g as str(Fraction) prints it: a bare integer when D = 1."""
        if self.den == 1:
            return str(self.num + g)
        return f"{self.num + g * self.den}/{self.den}"
