"""Finitely generated frequency groups and exact frequency arithmetic.

A ``FrequencyModule`` is an ordered list of real generators declared
linearly independent over the rationals; a ``Frequency`` is an integer
coordinate vector over those generators.  The module forms the index set
for the characters t -> e^{i*lambda*t} used everywhere else.

Independence is undecidable from decimal data, so construction refuses
any float64 integer relation |n . g| < 1e-9 with |n_i| <= 20, which
catches the practical accidents such as {1, 1/2}.  A meet-in-the-middle
search decides the same predicate as a scan of all 41^d vectors, in
milliseconds for the at most ``MAX_GENERATORS`` = 5 generators accepted.
Acceptance does not certify independence: it only rules out relations
that small.

Every phase e^{i*lambda*t} is read from a ``TurnTable`` of the module and
the shift t.  lambda*t = sum_k c_k (g_k*t) is linear in the coordinates,
so the d per-generator products decide all frequencies at once: an
integer key matrix of their symbolic terms gives the exact decisions
(exact when no opaque term survives; in 2*pi*Z when moreover only a pi
term divisible by 2L survives, L the common denominator), and fixed-point
turns frac(g_k*t/(2*pi)) held with the working precision plus
``TURN_GUARD_BITS`` bits give the numeric turn of everything else, reduced
mod 1 by exact integer wrap-around.

The shift is split into terms (tag, n, m), t = sum_j (n_j/m_j) * s_j:
one term for an int, a Fraction, a float (the dyadic rational it holds)
or a ``PiTimes``, one per entry of a ``SymbolicReal``.  Each product
g_k*s_j takes its tag from one rule: 1*s = s and g*1 = g, a pi factor
gives (tag)*pi, sqrtN*sqrtN = N, and any other pair an opaque tag naming
both.  Each fixed-point turn is the sum over the terms of
round(C*n / (m*2**E)), from a constant C = round(g_k*s/(2*pi) *
2**(bits + E)) (g_k/2 for s = pi) cached per module, precision, E and
tag, E being n's size rounded up to 64 bits.  The constants are computed
in mpmath on first use; a table itself is integer arithmetic alone.  A
term whose tag has no ``scalars.symbol_value`` is an ``InputError``.

A table evaluates a list of rows once, into an integer view that all its
readers share; see ``TurnTable``.  ``turn_of`` is a one-row call into the
same table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import mpmath as mp
import numpy as np

from .errors import InputError
from .scalars import (
    PI_KEY,
    PiTimes,
    RATIONAL_KEY,
    RealLike,
    SymbolicReal,
    as_fraction,
    phase_from_turn,
    quarter_phase,
    symbol_kind,
    symbol_value,
)

RELATION_BOUND = 20
RELATION_TOL = 1e-9
MAX_GENERATORS = 5  # from d = 6 on, the fixed window admits spurious near-relations


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
            # relative above 1: ``named`` writes dps significant digits
            tol = mp.mpf(10) ** (-(mp.mp.dps - 5))
            if known is not None and abs(base - known) > tol * max(1, abs(known)):
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


def _half_sums(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every coefficient vector over [-RELATION_BOUND, RELATION_BOUND]^k, one
    per row (the zero vector in the middle row), and its dot product with
    the k values."""
    width = 2 * RELATION_BOUND + 1
    k = values.size
    coefs = np.indices((width,) * k).reshape(k, width**k).T - RELATION_BOUND
    return coefs, coefs @ values


def _scan_dots(coefs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """n . values for each row n, summed left to right as the full scan of
    the relation check sums them, so the tolerance test rounds alike."""
    dots = np.zeros(coefs.shape[0])
    for k in range(values.size):
        dots += coefs[:, k] * values[k]
    return dots


def _integer_relation(values: np.ndarray) -> np.ndarray | None:
    """A nonzero integer vector n with |n_i| <= RELATION_BOUND and
    |n . values| < RELATION_TOL, or None when there is none.

    Meet in the middle (Horowitz and Sahni, J. ACM 21, 1974): n splits into
    a first-half vector a and a second-half vector b.  For each first-half
    sum s, two binary searches find the sorted second-half sums in the
    closed window [-s - tol - pad, -s + tol + pad], where pad bounds the
    rounding of the half sums and of the window's own ends; the trivial
    pair a = b = 0 is left out.  Each candidate is then kept only if its
    full dot product, summed as the scan sums it, is below tol.
    """
    d = values.size
    h = d // 2
    c1, s1 = _half_sums(values[:h])
    c2, s2 = _half_sums(values[h:])
    order = np.argsort(s2)
    s2 = s2[order]
    pad = 4 * d * np.spacing(RELATION_BOUND * np.abs(values).sum())
    lo = np.searchsorted(s2, -s1 - (RELATION_TOL + pad), side="left")
    hi = np.searchsorted(s2, -s1 + (RELATION_TOL + pad), side="right")
    counts = hi - lo
    zero = s1.size // 2
    counts[zero] -= 1
    for i in np.flatnonzero(counts > 0):
        js = order[lo[i] : hi[i]]
        if i == zero:
            js = js[c2[js].any(axis=1)]
        cand = np.hstack([np.broadcast_to(c1[i], (js.size, h)), c2[js]])
        hits = np.flatnonzero(np.abs(_scan_dots(cand, values)) < RELATION_TOL)
        if hits.size:
            return cand[hits[0]]
    return None


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
        if len(gens) > MAX_GENERATORS:
            raise InputError(
                f"{len(gens)} generators exceed the relation-check budget of "
                f"{MAX_GENERATORS}; split the module or canonicalize rationals first"
            )
        rel = _integer_relation(self.float_values)
        if rel is not None:
            rel //= math.gcd(*rel.tolist())
            if rel[np.flatnonzero(rel)[-1]] > 0:
                rel = -rel  # last nonzero coefficient negative
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
_NUMERATOR_STEP = 64  # turn constants come in numerator sizes of this many bits


def require_finite_shift(t: RealLike) -> None:
    """Reject a float shift that is NaN or infinite."""
    if isinstance(t, float) and not math.isfinite(t):
        raise InputError(f"the shift must be finite, got {t!r}")


def require_tolerance(tol) -> None:
    """Reject a tolerance that is not a finite, nonnegative number."""
    if not math.isfinite(tol):
        raise InputError(f"tolerance must be finite, got {tol!r}")
    if tol < 0:
        raise InputError("tolerance must be nonnegative")


def _shift_terms(t: RealLike) -> list[tuple[str, int, int]]:
    """t as terms (tag, n, m), t = sum of n/m times the tag's value: one
    term for an int, a Fraction, a float (the dyadic rational it holds) or
    a ``PiTimes``, one per entry of a ``SymbolicReal``."""
    if isinstance(t, SymbolicReal):
        return [(tag, q.numerator, q.denominator) for tag, q in t.terms.items()]
    if isinstance(t, float):
        return [(RATIONAL_KEY, *t.as_integer_ratio())]
    tag, q = (PI_KEY, t.factor) if isinstance(t, PiTimes) else (RATIONAL_KEY, as_fraction(t))
    return [(tag, q.numerator, q.denominator)]


def _product_tag(g: str, s: str) -> tuple[str, int]:
    """The tag of g*s by the rule of the module docstring, with the integer
    its coefficient gains (N for sqrtN*sqrtN)."""
    if g == RATIONAL_KEY:
        return s, 1
    if s == RATIONAL_KEY:
        return g, 1
    if s == PI_KEY:
        return "(" + g + ")*pi", 1
    if g == PI_KEY:
        return "(" + s + ")*pi", 1
    if g == s and g.startswith("sqrt") and g[4:].isdigit():
        return RATIONAL_KEY, int(g[4:])
    return "?(" + g + ")x(" + s + ")", 1


def _fixed_point(g: mp.mpf, tag: str, bits: int) -> int:
    """round(g*s/(2*pi) * 2**bits), s the value of the symbol ``tag`` (g/2
    when s is pi): the turn of g*s over 2**bits, not reduced.  s and the
    product are taken at this precision with 16 bits to spare, as
    |s/(2*pi)| < 2**(mag(s) - 2)."""
    s = symbol_value(tag)
    if s is None:
        raise InputError(f"the shift has a term in {tag!r}, which has no known value")
    with mp.workprec(bits + max(int(mp.mag(g)), 0) + max(int(mp.mag(s)) - 2, 0) + 16):
        x = g / 2 if tag == PI_KEY else g * symbol_value(tag) / (2 * mp.pi)
        return int(mp.nint(mp.ldexp(x, bits)))


@lru_cache(maxsize=TURN_TABLE_SIZE)
def _term_products(module: FrequencyModule, bits: int, extra: int, s: str) -> tuple[tuple[str, int, int, int], ...]:
    """Per generator g_k, the product g_k*s of one unit of the symbol s:
    its tag, its coefficient as a numerator and a denominator, and its
    turn constant C = round(g_k*s/(2*pi) * 2**(bits + extra))."""
    out = []
    for g in module.generators:
        ((tag, q),) = g.symbolic.terms.items()
        tag, f = _product_tag(tag, s)
        out.append((tag, q.numerator * f, q.denominator, _fixed_point(g.mp_value, s, bits + extra)))
    return tuple(out)


class _RowView:
    """A table's pass over one rows object; see :class:`TurnTable`."""

    __slots__ = ("rows", "opaque", "numeric", "num", "chords")

    def __init__(self, rows, opaque: np.ndarray, numeric: np.ndarray, num: np.ndarray):
        self.rows = rows
        self.opaque = opaque
        self.numeric = numeric
        self.num = num
        self.chords: np.ndarray | None = None


class TurnTable:
    """The products lambda*t of one shift t with every frequency lambda of a
    module, from the d per-generator products g_k*t (see the module
    docstring for the rule).

    ``_keys`` is the (d, columns) integer key matrix: each product's term
    coefficients times their common denominator L, the pi column first,
    then the ``_opaque`` opaque columns, then the rationals and square
    roots.  ``_turns`` holds round(frac(g_k*t/(2*pi)) * 2**bits).  Rows are
    coordinate tuples or an (n, d) integer array, and the arithmetic runs
    on Python integers, so coordinates have no size limit.

    Precision.  Each constant C is within 1/2 + 2**-15 of g_k*s/(2*pi) *
    2**(bits + E), measured against the working-precision g_k and the
    symbol value s at bits + E bits, the product being taken with 16 bits
    to spare.  As |n/m| <= |n| < 2**E, a term's C*n/(m*2**E) is then within
    1/2 + 2**-15 units of 2**-bits of the turn of g_k*(n/m)*s, and its
    rounding within 1.0001 units, for every size of n: floats up to 1.8e308
    have |n| < 2**1024, so E <= 1024.  A shift of J terms gives turns
    within J*1.0001 units.  A row's turn sum c_k*turn_k is then within
    J*1.0001*sum|c_k| units, which the ``TURN_GUARD_BITS`` = 64 guard bits
    absorb while that stays below 2**64.

    One pass per support.  Every reader (``exact``, ``in_two_pi_z``,
    ``turns``, ``chords``, ``phases``) reads one integer view of the rows:
    per row its pi key mod 2L when it is decided exactly, else its
    fixed-point turn mod 2**bits, with the opaque and numeric masks.
    ``in_two_pi_z`` compares the turns with the integer ceil(tol *
    2**bits).  The view of the most recent tuple of rows (a support's
    ``rows``) is kept with its chords, so the projection, invariance check
    and verdict of one shift over one support share one pass; other rows
    objects, which may change between calls, get a fresh view.  The kept
    chords array is read-only and every other result is a fresh object.

    Memory.  A table holds at most one view, so at most
    ``TURN_TABLE_SIZE`` = 64 views are alive.  Each keeps its rows alive
    and holds per row about bits/8 + 45 bytes (74 measured at 50 digits):
    the worst case is 64 views of the largest supports, some 5 GB for
    ``measures.MAX_BOX_SUPPORT`` = 2**20 rows each, 4.7 MB for 1,000.
    """

    __slots__ = ("dim", "bits", "_den", "_keys", "_opaque", "_turns", "_last")

    def __init__(self, module: FrequencyModule, t: RealLike):
        self.dim = module.dim
        self.bits = mp.mp.prec + TURN_GUARD_BITS
        terms: list[dict] = [{} for _ in module.generators]
        turns = [0] * self.dim
        for s, n, m in _shift_terms(t):
            if not n:
                continue
            extra = -(-n.bit_length() // _NUMERATOR_STEP) * _NUMERATOR_STEP
            unit = m << extra
            for k, (tag, a, b, c) in enumerate(_term_products(module, self.bits, extra, s)):
                a, b = a * n, b * m
                r = math.gcd(a, b)
                terms[k][tag] = (a // r, b // r)
                turns[k] += (2 * c * n + unit) // (2 * unit)
        turns = [u % (1 << self.bits) for u in turns]
        den = math.lcm(*(b for p in terms for _, b in p.values()))
        tags = sorted({k for p in terms for k in p} - {PI_KEY})
        opaque = [k for k in tags if symbol_kind(k) == "opaque"]
        columns = [PI_KEY, *opaque, *(k for k in tags if symbol_kind(k) != "opaque")]
        keys = [[a * (den // b) for a, b in (p.get(k, (0, 1)) for k in columns)] for p in terms]
        self._den = den
        self._keys = np.array(keys, dtype=object)
        self._opaque = len(opaque)
        self._turns = np.array(turns, dtype=object)
        for a in (self._keys, self._turns):
            a.setflags(write=False)  # shared by every caller through the cache
        self._last: _RowView | None = None

    def _view(self, rows) -> _RowView:
        view = self._last
        if view is not None and view.rows is rows:
            return view
        c = np.array(rows, dtype=object).reshape(-1, self.dim)
        keys = c @ self._keys
        nonzero = keys[:, 1:] != 0
        opaque = nonzero[:, : self._opaque].any(axis=1)
        numeric = opaque | nonzero[:, self._opaque :].any(axis=1)
        num = keys[:, 0] % (2 * self._den)
        if numeric.any():
            num[numeric] = (c[numeric] @ self._turns) % (1 << self.bits)
        view = _RowView(rows, opaque, numeric, num)
        if type(rows) is tuple:
            self._last = view
        return view

    def _folded(self, view: _RowView) -> list[float]:
        """Each row's turn folded into (-1/2, 1/2], rounded once to a float."""
        one, den, two_den = 1 << self.bits, self._den, 2 * self._den
        return [
            (u - one if 2 * u > one else u) / one if numeric else (u - two_den if u > den else u) / two_den
            for numeric, u in zip(view.numeric.tolist(), view.num.tolist())
        ]

    def exact(self, rows) -> np.ndarray:
        """Whether each row's product is decided exactly (no opaque term)."""
        return ~self._view(rows).opaque

    def in_two_pi_z(self, rows, tol: float = 1e-12) -> np.ndarray:
        """Whether each row's lambda*t is an integer multiple of 2*pi: exact
        from the keys, or, with an opaque term, whether the turn lies within
        ``tol`` of an integer."""
        require_tolerance(tol)
        view = self._view(rows)
        out = ~view.numeric & (view.num == 0)
        if view.opaque.any():
            one = 1 << self.bits
            p, q = tol.as_integer_ratio()
            u = view.num[view.opaque]
            out[view.opaque] = np.minimum(u, one - u) < -((-p << self.bits) // q)  # ceil(tol * one)
        return out

    def turns(self, rows, folded: bool = False) -> list[Fraction | float]:
        """lambda*t/(2*pi) mod 1 per row: an exact Fraction when the product
        is a rational multiple of pi, else a float rounded from the
        fixed-point turn.  ``folded`` maps the turns into (-1/2, 1/2]."""
        view = self._view(rows)
        one, den, two_den = 1 << self.bits, self._den, 2 * self._den
        out: list[Fraction | float] = []
        for numeric, u in zip(view.numeric.tolist(), view.num.tolist()):
            if numeric:
                out.append((u - one if folded and 2 * u > one else u) / one)
            else:
                out.append(Fraction(u - two_den if folded and u > den else u, two_den))
        return out

    def chords(self, rows) -> np.ndarray:
        """|e^{i*lambda*t} - 1| = 2|sin(lambda*t/2)| per row, exactly 0 for
        periodic products."""
        view = self._view(rows)
        if view.chords is None:
            view.chords = np.array([2.0 * abs(math.sin(math.pi * u)) for u in self._folded(view)])
            view.chords.setflags(write=False)
        return view.chords

    def phases(self, rows) -> list:
        """e^{i*lambda*t} per row as a coefficient, exact on quarter turns."""
        view = self._view(rows)
        two_den = 2 * self._den
        out = []
        for numeric, u, x in zip(view.numeric.tolist(), view.num.tolist(), self._folded(view)):
            if numeric:
                out.append(phase_from_turn(x))
            elif 4 * u % two_den == 0:
                out.append(quarter_phase(4 * u // two_den))
            else:
                out.append(phase_from_turn(u / two_den))
        return out


def turn_table(module: FrequencyModule, t: RealLike) -> TurnTable:
    """The :class:`TurnTable` of a module and a shift; a float shift must
    be finite.

    Tables are cached, keyed on the module, the shift and the working
    precision, for the ``TURN_TABLE_SIZE`` most recent pairs: a verdict, a
    projection and an invariance check over the same shifts share them.
    """
    require_finite_shift(t)
    return _cached_turn_table(module, t, mp.mp.prec)


@lru_cache(maxsize=TURN_TABLE_SIZE)
def _cached_turn_table(module: FrequencyModule, t: RealLike, prec: int) -> TurnTable:
    return TurnTable(module, t)


def turn_of(freq: Frequency, t: RealLike) -> Fraction | float:
    """lambda*t/(2*pi) mod 1: exact Fraction when lambda*t is a rational
    multiple of pi, else a float rounded from the fixed-point turn."""
    return turn_table(freq.module, t).turns([freq.coords])[0]


def sub_real(t: RealLike, s: RealLike) -> RealLike:
    """t - s, staying exact when both operands share an exact type."""
    require_finite_shift(t)
    require_finite_shift(s)
    if isinstance(t, PiTimes) and isinstance(s, PiTimes):
        return PiTimes(t.factor - s.factor)
    return as_fraction(t) - as_fraction(s)
