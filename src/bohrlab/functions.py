"""Functions on the glued configuration space: direct sums f0 + f_AP of a
compactly supported piecewise-linear part (an exactly translation-closed
model of C0) and a trigonometric polynomial.

This module holds the function side only, so the expression parser and
the JSON codecs can build functions without loading the measure layers of
:mod:`bohrlab.fleischhack`.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .ap import APFunction
from .errors import InputError
from .frequencies import FrequencyModule
from .scalars import Coeff, EC_ZERO, ExactComplex, RealLike, as_fraction, c_add


class C0Function:
    """Piecewise-linear function with compact support, kept exact.

    Breakpoints are strictly increasing Fractions; values are exact
    complex numbers with zero first and last value.  Translation shifts
    breakpoints exactly, so the class is closed under the pullbacks the
    action needs.
    """

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        bps = tuple(as_fraction(b) for b in breakpoints)
        vals = tuple(ExactComplex.from_number(v) for v in values)
        if len(bps) != len(vals):
            raise InputError("breakpoints and values must have equal length")
        for a, b in zip(bps, bps[1:]):
            if not a < b:
                raise InputError("breakpoints must be strictly increasing")
        if bps:
            if not vals[0].is_zero() or not vals[-1].is_zero():
                raise InputError(
                    "compact support requires zero first and last values"
                )
        # trim segments that are identically zero at either end
        start, end = 0, len(bps)
        while end - start >= 2 and vals[start].is_zero() and vals[start + 1].is_zero():
            start += 1
        while end - start >= 2 and vals[end - 1].is_zero() and vals[end - 2].is_zero():
            end -= 1
        if end - start <= 1:
            bps, vals = (), ()
        else:
            bps, vals = bps[start:end], vals[start:end]
        self.breakpoints = bps
        self.values = vals

    @staticmethod
    def zero() -> "C0Function":
        return C0Function((), ())

    @staticmethod
    def hat(a, b, c, peak=1) -> "C0Function":
        """Triangle with given feet and apex: 0 at a and c, ``peak`` at b."""
        return C0Function((a, b, c), (0, peak, 0))

    def is_zero(self) -> bool:
        return not self.breakpoints

    def eval_exact(self, x: Fraction) -> ExactComplex:
        bps = self.breakpoints
        if not bps or x <= bps[0] or x >= bps[-1]:
            return EC_ZERO
        i = bisect_right(bps, x) - 1
        if bps[i] == x:
            return self.values[i]
        w = Fraction(x - bps[i], bps[i + 1] - bps[i])
        lo, hi = self.values[i], self.values[i + 1]
        return lo + (hi - lo) * ExactComplex(w)

    def eval(self, x: RealLike) -> ExactComplex:
        return self.eval_exact(as_fraction(x))

    def translate(self, t: RealLike) -> "C0Function":
        """Pullback under s -> t + s: breakpoints move by -t, exactly."""
        tq = as_fraction(t)
        return C0Function(tuple(b - tq for b in self.breakpoints), self.values)

    def __add__(self, other: "C0Function") -> "C0Function":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        grid = sorted(set(self.breakpoints) | set(other.breakpoints))
        vals = [self.eval_exact(x) + other.eval_exact(x) for x in grid]
        return C0Function(tuple(grid), tuple(vals))

    def scaled(self, z) -> "C0Function":
        zc = ExactComplex.from_number(z)
        if zc.is_zero():
            return C0Function.zero()
        return C0Function(self.breakpoints, tuple(zc * v for v in self.values))

    def __eq__(self, other) -> bool:
        if not isinstance(other, C0Function):
            return NotImplemented
        return self.breakpoints == other.breakpoints and self.values == other.values

    __hash__ = None

    def integral(self) -> ExactComplex:
        acc = EC_ZERO
        for (a, b), (va, vb) in zip(
            zip(self.breakpoints, self.breakpoints[1:]),
            zip(self.values, self.values[1:]),
        ):
            acc = acc + (va + vb) * ExactComplex(Fraction(b - a, 2))
        return acc

    def __repr__(self) -> str:
        return f"C0Function({len(self.breakpoints)} breakpoints)"


class ExtendedFunction:
    """Direct sum of a C0 part and an almost-periodic part."""

    __slots__ = ("c0", "ap")

    def __init__(self, c0: C0Function, ap: APFunction):
        self.c0 = c0
        self.ap = ap

    @property
    def module(self) -> FrequencyModule:
        return self.ap.module

    def eval_real(self, x: RealLike) -> Coeff:
        xq = as_fraction(x)
        v0 = self.c0.eval_exact(xq)
        if not self.ap.coeffs:
            return v0
        return c_add(v0, self.ap.eval(float(xq)))

    def __add__(self, other: "ExtendedFunction") -> "ExtendedFunction":
        return ExtendedFunction(self.c0 + other.c0, self.ap + other.ap)

    def scaled(self, z) -> "ExtendedFunction":
        return ExtendedFunction(self.c0.scaled(z), self.ap.scaled(z))

    def translate(self, t: RealLike) -> "ExtendedFunction":
        return ExtendedFunction(self.c0.translate(t), self.ap.translate(t))

    def __repr__(self) -> str:
        return f"ExtendedFunction(c0={self.c0!r}, ap={self.ap!r})"
