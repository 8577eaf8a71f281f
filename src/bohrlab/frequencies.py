"""Finitely generated frequency groups and exact frequency arithmetic.

A ``FrequencyModule`` is an ordered list of real generators declared
linearly independent over the rationals; a ``Frequency`` is an integer
coordinate vector over those generators.  The module forms the index set
for the characters t -> e^{i*lambda*t} used everywhere else.

Independence is undecidable from decimal data, so construction runs a
bounded integer-relation scan (|n_i| <= 20 against an absolute tolerance
of 1e-9) that catches the practical accidents such as {1, 1/2}.

Every phase e^{i*lambda*t} is read from a ``TurnTable`` of the module and
the shift t.  lambda*t = sum_k c_k (g_k*t) is linear in the coordinates,
so the d per-generator products decide all frequencies at once: an
integer key matrix of their symbolic terms gives the exact decisions
(exact when no opaque term survives; in 2*pi*Z when moreover only a pi
term divisible by 2L survives, L the common denominator), and fixed-point
turns frac(g_k*t/(2*pi)) held with the working precision plus
``TURN_GUARD_BITS`` bits give the numeric turn of everything else, reduced
mod 1 by exact integer wrap-around.  ``turn_of``, ``phase_of``,
``chord_of`` and ``in_two_pi_z`` are one-row calls into the same table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

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
    symbol_kind,
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


# ------------------------------------------------------------------
# phases of characters: everything downstream (translations, pushforwards,
# invariance checks, verdicts) reads them from one turn table per
# (module, shift), so the exact and numeric decisions stay consistent
# package-wide.
# ------------------------------------------------------------------

TURN_GUARD_BITS = 64  # fixed-point turn bits kept beyond the working precision
TURN_TABLE_SIZE = 64  # (module, shift) tables kept; see turn_table


def _generator_product(g: SymbolicReal, t: RealLike) -> SymbolicReal:
    """The product g*t of one generator's one-term value g with a shift.

    Shifts may be rationals (floats convert exactly), rational multiples
    of pi, or SymbolicReal values.  A product that leaves the exactly
    decidable class is an opaque tag carrying g's coefficient and the
    high-precision numeric value, so the product stays linear in g and
    equal tags from different generators add like any other term.
    """
    if isinstance(t, PiTimes):
        return g.scaled(t.factor).times_pi()
    if not isinstance(t, SymbolicReal):
        return g.scaled(as_fraction(t))
    ((tag, q),) = g.terms.items()
    if tag == RATIONAL_KEY:
        return t.scaled(q)
    if all(k == RATIONAL_KEY for k in t.terms):
        return g.scaled(t.terms.get(RATIONAL_KEY, Fraction(0)))
    if set(t.terms) == {PI_KEY}:
        return g.scaled(t.terms[PI_KEY]).times_pi()
    if tag == PI_KEY:
        return t.scaled(q).times_pi()
    if set(t.terms) == {tag} and tag.startswith("sqrt") and tag[4:].isdigit():
        return SymbolicReal.rational(q * t.terms[tag] * int(tag[4:]))
    opaque = "?(" + tag + ")x(" + "|".join(sorted(t.terms)) + ")"
    return SymbolicReal({opaque: q}, g.approx * t.approx)


def _fixed_turn(value: mp.mpf, bits: int) -> int:
    """frac(value/(2*pi)) as an integer numerator over 2**bits."""
    if not value:
        return 0
    with mp.workprec(bits + max(int(mp.mag(value)), 0) + 16):
        return int(mp.nint(mp.ldexp(value / (2 * mp.pi), bits))) % (1 << bits)


class TurnTable:
    """The products lambda*t of one shift t with every frequency lambda of a
    module, from the d per-generator products g_k*t (see the module
    docstring for the rule).

    ``_keys`` is the (d, columns) integer key matrix: each product's term
    coefficients times their common denominator L, the pi column first,
    then the ``_opaque`` opaque columns, then the rationals and square
    roots.  ``_turns`` holds round(frac(g_k*t/(2*pi)) * 2**bits); the
    guard bits in ``bits`` absorb the growth of rounding with the
    coordinates.  Rows are coordinate tuples or an (n, d) integer array,
    and the arithmetic runs on Python integers, so coordinates have no
    size limit.
    """

    __slots__ = ("dim", "bits", "_den", "_keys", "_opaque", "_turns")

    def __init__(self, module: FrequencyModule, t: RealLike):
        products = [_generator_product(g.symbolic, t) for g in module.generators]
        den = math.lcm(*(q.denominator for p in products for q in p.terms.values()))
        tags = sorted({k for p in products for k in p.terms} - {PI_KEY})
        opaque = [k for k in tags if symbol_kind(k) == "opaque"]
        columns = [PI_KEY, *opaque, *(k for k in tags if symbol_kind(k) != "opaque")]
        keys = [[int(p.terms.get(k, 0) * den) for k in columns] for p in products]
        self.dim = module.dim
        self.bits = mp.mp.prec + TURN_GUARD_BITS
        self._den = den
        self._keys = np.array(keys, dtype=object)
        self._opaque = len(opaque)
        self._turns = np.array([_fixed_turn(p.approx, self.bits) for p in products], dtype=object)
        for a in (self._keys, self._turns):
            a.setflags(write=False)  # shared by every caller through the cache

    def _rows(self, rows):
        """(coordinates, pi keys, has an opaque key, has another non-pi key)."""
        c = np.array(rows, dtype=object).reshape(-1, self.dim)
        keys = c @ self._keys
        nonzero = keys[:, 1:] != 0
        opaque = nonzero[:, : self._opaque].any(axis=1)
        rest = nonzero[:, self._opaque :].any(axis=1)
        return c, keys[:, 0], opaque, rest

    def _fixed(self, c: np.ndarray) -> list[int]:
        """The rows' fixed-point turns in [0, 2**bits)."""
        return ((c @ self._turns) % (1 << self.bits)).tolist()

    def exact(self, rows) -> np.ndarray:
        """Whether each row's product is decided exactly (no opaque term)."""
        return ~self._rows(rows)[2]

    def in_two_pi_z(self, rows, tol: float = 1e-12) -> np.ndarray:
        """Whether each row's lambda*t is an integer multiple of 2*pi: exact
        from the keys, or, with an opaque term, whether the turn lies within
        ``tol`` of an integer."""
        c, pi, opaque, rest = self._rows(rows)
        out = ~opaque & ~rest & (pi % (2 * self._den) == 0)
        if opaque.any():
            one = 1 << self.bits
            limit = Fraction(tol) * one if math.isfinite(tol) else tol
            out[opaque] = [min(u, one - u) < limit for u in self._fixed(c[opaque])]
        return out

    def turns(self, rows, folded: bool = False) -> list[Fraction | float]:
        """lambda*t/(2*pi) mod 1 per row: an exact Fraction when the product
        is a rational multiple of pi, else a float rounded from the
        fixed-point turn.  ``folded`` maps the turns into (-1/2, 1/2]."""
        c, pi, opaque, rest = self._rows(rows)
        numeric = (opaque | rest).tolist()
        fixed = self._fixed(c) if any(numeric) else None
        one, two_den = 1 << self.bits, 2 * self._den
        out: list[Fraction | float] = []
        for k, num in enumerate(numeric):
            if num:
                u = fixed[k]
                out.append((u - one if folded and 2 * u > one else u) / one)
            else:
                q = Fraction(pi[k], two_den) % 1
                out.append(q - 1 if folded and 2 * q > 1 else q)
        return out

    def chords(self, rows) -> np.ndarray:
        """|e^{i*lambda*t} - 1| = 2|sin(lambda*t/2)| per row, exactly 0 for
        periodic products."""
        turns = self.turns(rows, folded=True)
        return np.array([2.0 * abs(math.sin(math.pi * float(u))) for u in turns], dtype=np.float64)

    def phases(self, rows) -> list:
        """e^{i*lambda*t} per row as a coefficient, exact on quarter turns."""
        return [phase_from_turn(u) for u in self.turns(rows, folded=True)]


def turn_table(module: FrequencyModule, t: RealLike) -> TurnTable:
    """The :class:`TurnTable` of a module and a shift.

    Tables are cached, keyed on the module, the shift and the working
    precision, for the ``TURN_TABLE_SIZE`` most recent pairs: a verdict, a
    projection and an invariance check over the same shifts share them.
    """
    return _cached_turn_table(module, t, mp.mp.prec)


@lru_cache(maxsize=TURN_TABLE_SIZE)
def _cached_turn_table(module: FrequencyModule, t: RealLike, prec: int) -> TurnTable:
    return TurnTable(module, t)


def turn_of(freq: Frequency, t: RealLike) -> Fraction | float:
    """lambda*t/(2*pi) mod 1: exact Fraction when lambda*t is a rational
    multiple of pi, else a float rounded from the fixed-point turn."""
    return turn_table(freq.module, t).turns([freq.coords])[0]


def phase_of(freq: Frequency, t: RealLike):
    """e^{i*lambda*t} as a coefficient, exact when the turn allows."""
    return turn_table(freq.module, t).phases([freq.coords])[0]


def chord_of(freq: Frequency, t: RealLike) -> float:
    """|e^{i*lambda*t} - 1| = 2|sin(lambda*t/2)|, exactly 0 for periodic shifts."""
    return float(turn_table(freq.module, t).chords([freq.coords])[0])


def in_two_pi_z(freq: Frequency, t: RealLike, tol: float = 1e-12) -> bool:
    """Whether lambda*t is an integer multiple of 2*pi.

    Exact for rational/pi/squarefree-root combinations; numeric against
    ``tol`` when opaque symbols are involved.
    """
    return bool(turn_table(freq.module, t).in_two_pi_z([freq.coords], tol)[0])


def sub_real(t: RealLike, s: RealLike) -> RealLike:
    """t - s, staying exact when both operands share an exact type."""
    if isinstance(t, PiTimes) and isinstance(s, PiTimes):
        return PiTimes(t.factor - s.factor)
    return as_fraction(t) - as_fraction(s)
