"""Finitely generated frequency groups and exact frequency arithmetic.

A ``FrequencyModule`` is an ordered list of real generators declared
linearly independent over the rationals; a ``Frequency`` is an integer
coordinate vector over those generators.  The module forms the index set
for the characters t -> e^{i*lambda*t} used everywhere else.

Independence is undecidable from decimal data, so construction runs a
bounded integer-relation scan (|n_i| <= 20 against an absolute tolerance
of 1e-9) that catches the practical accidents such as {1, 1/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import mpmath as mp
import numpy as np

from . import kernels
from .errors import InputError
from .scalars import (
    PI_KEY,
    PiTimes,
    RATIONAL_KEY,
    RealLike,
    SymbolicReal,
    as_fraction,
    phase_from_turn,
    symbol_value,
)

RELATION_BOUND = 20
RELATION_TOL = 1e-9
_RELATION_BUDGET = 300_000_000


@dataclass(frozen=True)
class Generator:
    """One declared generator: an optional symbol tag, the decimal expansion
    of the unscaled constant, and an exact rational scale factor."""

    symbol: str | None
    decimal: str
    scale: Fraction

    def __post_init__(self):
        object.__setattr__(self, "scale", Fraction(self.scale))
        if self.scale == 0:
            raise InputError("generator scale must be nonzero")
        try:
            base = mp.mpf(self.decimal)
        except ValueError as exc:
            raise InputError(f"bad decimal literal {self.decimal!r}") from exc
        if not mp.isfinite(base):
            raise InputError("generator value must be finite")
        if self.symbol is not None:
            known = symbol_value(self.symbol)
            if known is not None and abs(base - known) > mp.mpf(10) ** (-(mp.mp.dps - 5)):
                raise InputError(
                    f"decimal for symbol {self.symbol!r} does not match its value"
                )

    @staticmethod
    def rational(q) -> "Generator":
        return Generator(None, "1", Fraction(q))

    @staticmethod
    def named(symbol: str, scale=1, decimal: str | None = None) -> "Generator":
        if decimal is None:
            known = symbol_value(symbol)
            if known is None:
                raise InputError(
                    f"unknown symbol {symbol!r}: supply its decimal expansion"
                )
            decimal = mp.nstr(known, mp.mp.dps)
        return Generator(symbol, decimal, Fraction(scale))

    @cached_property
    def mp_value(self) -> mp.mpf:
        base = symbol_value(self.symbol) if self.symbol is not None else None
        if base is None:
            base = mp.mpf(self.decimal)
        return base * mp.mpf(self.scale.numerator) / self.scale.denominator

    @property
    def value(self) -> float:
        return float(self.mp_value)

    @cached_property
    def symbolic(self) -> SymbolicReal:
        if self.symbol is None:
            coeff = self.scale * Fraction(self.decimal)
            return SymbolicReal({RATIONAL_KEY: coeff}, self.mp_value)
        return SymbolicReal({self.symbol: self.scale}, self.mp_value)


def _rational_gcd(values: list[Fraction]) -> Fraction:
    num = 0
    den = 1
    for q in values:
        num = math.gcd(num, abs(q.numerator))
        den = math.lcm(den, q.denominator)
    return Fraction(num, den)


@dataclass(frozen=True)
class FrequencyModule:
    """Ordered generators g_1..g_d spanning the group Z g_1 + ... + Z g_d.

    The hash is computed once, at construction: every ``Frequency`` hash
    goes through it, and rehashing the generators' ``Fraction`` scales on
    each call dominated dictionary lookups keyed on frequencies.
    """

    generators: tuple[Generator, ...]

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_hash", hash(gens))
        if not gens:
            raise InputError("a frequency module needs at least one generator")
        for g in gens:
            if abs(g.value) <= RELATION_TOL:
                raise InputError("generator value must be nonzero")
        width = 2 * RELATION_BOUND + 1
        if width ** len(gens) > _RELATION_BUDGET:
            raise InputError(
                f"{len(gens)} generators exceed the relation-scan budget; "
                "split the module or canonicalize rationals first"
            )
        values = np.array([g.value for g in gens], dtype=np.float64)
        rel = kernels.int_relation_scan(values, RELATION_BOUND, RELATION_TOL)
        if np.any(rel != 0):
            g = math.gcd(*(abs(int(c)) for c in rel))
            rel = rel // max(g, 1)
            combo = " + ".join(f"{int(c)}*g{k+1}" for k, c in enumerate(rel) if c != 0)
            raise InputError(
                f"generators are rationally dependent: {combo} = 0 within {RELATION_TOL}"
            )

    def __hash__(self) -> int:
        # equal modules have equal generator tuples, so this agrees with __eq__
        return self._hash

    def __reduce__(self):
        # rebuild rather than restore: string hashes differ between processes
        return (FrequencyModule, (self.generators,))

    @staticmethod
    def make(*specs) -> "FrequencyModule":
        """Build a module from a mix of rationals, symbol names, (symbol,
        scale) pairs, and ready Generator objects."""
        gens = []
        for s in specs:
            if isinstance(s, Generator):
                gens.append(s)
            elif isinstance(s, (int, Fraction)):
                gens.append(Generator.rational(s))
            elif isinstance(s, str):
                gens.append(Generator.named(s))
            elif isinstance(s, tuple) and len(s) == 2:
                gens.append(Generator.named(s[0], s[1]))
            else:
                raise InputError(f"cannot build a generator from {s!r}")
        return FrequencyModule(tuple(gens))

    @staticmethod
    def integers() -> "FrequencyModule":
        return FrequencyModule((Generator.rational(1),))

    @staticmethod
    def from_rationals(values) -> "FrequencyModule":
        """Canonicalize a rational-only generator list to the single
        generator gcd(numerators)/lcm(denominators)."""
        qs = [Fraction(v) for v in values]
        if not qs or all(q == 0 for q in qs):
            raise InputError("need at least one nonzero rational generator")
        g = _rational_gcd([q for q in qs if q != 0])
        return FrequencyModule((Generator.rational(g),))

    @property
    def dim(self) -> int:
        return len(self.generators)

    @cached_property
    def float_values(self) -> np.ndarray:
        return np.array([g.value for g in self.generators], dtype=np.float64)

    def frequency(self, *coords: int) -> "Frequency":
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        if len(coords) != self.dim:
            raise InputError(
                f"expected {self.dim} coordinates, got {len(coords)}"
            )
        return Frequency(self, tuple(int(c) for c in coords))

    def zero(self) -> "Frequency":
        return Frequency(self, (0,) * self.dim)

    def unit(self, k: int) -> "Frequency":
        coords = [0] * self.dim
        coords[k] = 1
        return Frequency(self, tuple(coords))


def require_same_module(a: FrequencyModule, b: FrequencyModule) -> None:
    if a != b:
        raise InputError("operands live over different frequency modules")


@dataclass(frozen=True)
class Frequency:
    """Integer coordinates over a module; value = sum coords * generators."""

    module: FrequencyModule
    coords: tuple[int, ...]

    def __add__(self, other: "Frequency") -> "Frequency":
        require_same_module(self.module, other.module)
        return Frequency(
            self.module, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "Frequency") -> "Frequency":
        return self + (-other)

    def __neg__(self) -> "Frequency":
        return Frequency(self.module, tuple(-c for c in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @cached_property
    def mp_value(self) -> mp.mpf:
        acc = mp.mpf(0)
        for c, g in zip(self.coords, self.module.generators):
            if c:
                acc += c * g.mp_value
        return acc

    @property
    def value(self) -> float:
        return float(self.mp_value)

    @cached_property
    def symbolic(self) -> SymbolicReal:
        acc = SymbolicReal.zero()
        for c, g in zip(self.coords, self.module.generators):
            if c:
                acc = acc + g.symbolic.scaled(Fraction(c))
        return acc


# ------------------------------------------------------------------
# phases of characters: everything downstream (translations, pushforwards,
# invariance checks) funnels through these three helpers so that the exact
# and numeric decisions stay consistent package-wide.
# ------------------------------------------------------------------


def scaled_symbolic(freq: Frequency, t: RealLike) -> SymbolicReal:
    """The product lambda*t as a symbolic real.

    Shifts may be rationals, rational multiples of pi, or SymbolicReal
    values (e.g. a rational multiple of sqrt2); products that leave the
    exactly decidable class degrade to an opaque term carrying the
    high-precision numeric value.
    """
    sym = freq.symbolic
    if isinstance(t, PiTimes):
        return sym.scaled(t.factor).times_pi()
    if isinstance(t, SymbolicReal):
        return _sym_product(sym, t)
    return sym.scaled(as_fraction(t))


def _sym_product(a: SymbolicReal, b: SymbolicReal) -> SymbolicReal:
    def pure_rational(s: SymbolicReal) -> Fraction | None:
        if all(k == RATIONAL_KEY for k in s.terms):
            return s.terms.get(RATIONAL_KEY, Fraction(0))
        return None

    qa, qb = pure_rational(a), pure_rational(b)
    if qa is not None:
        return b.scaled(qa)
    if qb is not None:
        return a.scaled(qb)
    if set(b.terms) == {PI_KEY}:
        return a.scaled(b.terms[PI_KEY]).times_pi()
    if set(a.terms) == {PI_KEY}:
        return b.scaled(a.terms[PI_KEY]).times_pi()
    if set(a.terms) == set(b.terms) and len(a.terms) == 1:
        tag = next(iter(a.terms))
        if tag.startswith("sqrt") and tag[4:].isdigit():
            n = int(tag[4:])
            return SymbolicReal.rational(a.terms[tag] * b.terms[tag] * n)
    tag = "?(" + "|".join(sorted(a.terms)) + ")x(" + "|".join(sorted(b.terms)) + ")"
    return SymbolicReal({tag: Fraction(1)}, a.approx * b.approx)


def turn_of(freq: Frequency, t: RealLike) -> Fraction | float:
    """lambda*t/(2*pi) mod 1: exact Fraction when lambda*t is a rational
    multiple of pi, float (reduced at working precision) otherwise."""
    x = scaled_symbolic(freq, t)
    if all(k == PI_KEY for k in x.terms):
        return (x.terms.get(PI_KEY, Fraction(0)) / 2) % 1
    return float((x.approx / (2 * mp.pi)) % 1)


def folded_turn_of(freq: Frequency, t: RealLike) -> Fraction | float:
    """Like :func:`turn_of` but folded into (-1/2, 1/2], with the fold done
    at working precision so near-periodic phases keep full accuracy."""
    x = scaled_symbolic(freq, t)
    if all(k == PI_KEY for k in x.terms):
        u = (x.terms.get(PI_KEY, Fraction(0)) / 2) % 1
        return u - 1 if u > Fraction(1, 2) else u
    u = (x.approx / (2 * mp.pi)) % 1
    if u > mp.mpf("0.5"):
        u -= 1
    return float(u)


def phase_of(freq: Frequency, t: RealLike):
    """e^{i*lambda*t} as a coefficient, exact when the turn allows."""
    return phase_from_turn(folded_turn_of(freq, t))


def chord_of(freq: Frequency, t: RealLike) -> float:
    """|e^{i*lambda*t} - 1| = 2|sin(lambda*t/2)|, exactly 0 for periodic shifts."""
    turn = folded_turn_of(freq, t)
    if isinstance(turn, Fraction):
        if turn == 0:
            return 0.0
        turn = float(turn)
    return 2.0 * abs(math.sin(math.pi * turn))


def in_two_pi_z(freq: Frequency, t: RealLike, tol: float = 1e-12) -> bool:
    """Whether lambda*t is an integer multiple of 2*pi.

    Exact for rational/pi/squarefree-root combinations; numeric against
    ``tol`` when opaque symbols are involved.
    """
    return scaled_symbolic(freq, t).in_two_pi_z(tol)


def sub_real(t: RealLike, s: RealLike) -> RealLike:
    """t - s, staying exact when both operands share an exact type."""
    if isinstance(t, PiTimes) and isinstance(s, PiTimes):
        return PiTimes(t.factor - s.factor)
    return as_fraction(t) - as_fraction(s)
