"""Exact scalar arithmetic shared by the whole package.

Three representations cooperate here:

* ``ExactComplex`` -- complex numbers with rational real/imaginary parts,
  used wherever algebraic operations can stay exact.
* ``PiTimes`` -- a rational multiple of pi, used for translation amounts
  whose phases must stay exact (e.g. a shift by pi).
* ``SymbolicReal`` -- a rational linear combination of known constants
  (1, pi, e, square roots of integers, opaque user symbols), kept as a
  canonical mapping from tag to Fraction.  ``symbol_kind`` sorts the tags
  into those the exact multiple-of-2*pi decision of
  ``bohrlab.frequencies.TurnTable`` can use and the opaque rest.

Precision.  ``PRECISION`` is the one working precision of the package:
``dps`` decimal digits, 50 by default or read once, at import, from the
``BOHR_PRECISION`` environment variable, and ``bits`` = round((dps + 1) *
log2(10)) binary digits (169 at 50 digits).  An invalid
value (not an integer, below 15 or above ``MAX_LITERAL_DIGITS``) keeps
the default; ``check_precision()`` raises its ``InputError``, which the
CLI reports as an input error.  ``working_precision(dps)`` switches it
for the length of a ``with`` block.

Constants.  Every value comes from integers: ``symbol_fixed(tag, bits)``
is a known symbol's value times 2**bits within one unit, cached per (tag,
bits), and a user decimal is its exact ``Fraction``.  Floats are rounded
once from these, by integer true division, which rounds correctly.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Union

from .errors import InputError

DEFAULT_DPS = 50
MAX_LITERAL_DIGITS = 4300  # digits plus |exponent| of a decimal literal: CPython's str-to-int limit


def dps_to_bits(dps: int) -> int:
    """Binary digits for ``dps`` decimal digits: round((dps + 1) * log2(10)),
    the test oracle's rule, so that both name the same precision."""
    return round((dps + 1) * math.log2(10))


def _parse_precision(raw: str) -> int:
    if not raw:
        return DEFAULT_DPS
    try:
        dps = int(raw)
    except ValueError:
        raise InputError(f"BOHR_PRECISION must be an integer, got {raw!r}") from None
    if dps < 15:
        raise InputError("BOHR_PRECISION must be at least 15")
    if dps > MAX_LITERAL_DIGITS:
        raise InputError(f"BOHR_PRECISION must be at most MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS}")
    return dps


class Precision:
    """The working precision: ``dps`` decimal digits, ``bits`` binary."""

    __slots__ = ("dps", "bits")

    def __init__(self, dps: int):
        self.dps = dps
        self.bits = dps_to_bits(dps)


try:
    PRECISION = Precision(_parse_precision(os.environ.get("BOHR_PRECISION", "")))
    _PRECISION_ERROR = None
except InputError as exc:
    # A bad value must not fail the import: the CLI could not report it.
    PRECISION, _PRECISION_ERROR = Precision(DEFAULT_DPS), str(exc)


def check_precision() -> None:
    """Raise the ``InputError`` of an invalid ``BOHR_PRECISION``."""
    if _PRECISION_ERROR is not None:
        raise InputError(_PRECISION_ERROR)


@contextmanager
def working_precision(dps: int):
    """Work at ``dps`` decimal digits inside the block."""
    saved = PRECISION.dps, PRECISION.bits
    PRECISION.dps, PRECISION.bits = dps, dps_to_bits(dps)
    try:
        yield PRECISION
    finally:
        PRECISION.dps, PRECISION.bits = saved


TWO_PI = 2 * math.pi


@dataclass(frozen=True)
class ExactComplex:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def from_number(z) -> "ExactComplex":
        if isinstance(z, ExactComplex):
            return z
        if isinstance(z, (int, Fraction)):
            return ExactComplex(Fraction(z))
        if isinstance(z, float):
            return ExactComplex(Fraction(z))
        if isinstance(z, complex):
            return ExactComplex(Fraction(z.real), Fraction(z.imag))
        raise InputError(f"cannot interpret {z!r} as an exact complex number")

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def conj(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        # int true division rounds correctly, as float(Fraction) does
        return complex(self.re.numerator / self.re.denominator, self.im.numerator / self.im.denominator)

    def __abs__(self) -> float:
        return abs(complex(self))


EC_ZERO = ExactComplex()
EC_ONE = ExactComplex(Fraction(1))
EC_I = ExactComplex(Fraction(0), Fraction(1))

# The four exactly representable unit phases e^{2*pi*i*k/4}.
_QUARTER_PHASES = (EC_ONE, EC_I, -EC_ONE, -EC_I)


@dataclass(frozen=True)
class PiTimes:
    """The real number ``factor * pi`` with an exact rational factor."""

    factor: Fraction

    def __post_init__(self):
        object.__setattr__(self, "factor", Fraction(self.factor))

    @property
    def value(self) -> float:
        return float_of_terms(((self.factor, PI_KEY),))

    def __float__(self) -> float:
        return self.value

    def __neg__(self) -> "PiTimes":
        return PiTimes(-self.factor)


# rationals, floats, rational multiples of pi, or SymbolicReal values
RealLike = Union[int, float, Fraction, PiTimes, "SymbolicReal"]


def as_fraction(t: RealLike) -> Fraction:
    """Pin a real-like value to one definite rational (floats convert
    exactly); NaN and infinities are refused."""
    if isinstance(t, Fraction):
        return t
    if isinstance(t, int):
        return Fraction(t)
    try:
        x = float(t)
    except OverflowError:  # a symbolic value past the float range
        x = math.inf
    if not math.isfinite(x):
        raise InputError(f"the value must be finite, got {t!r}")
    return Fraction(x)


# ------------------------------------------------------------------
# symbolic reals
# ------------------------------------------------------------------

RATIONAL_KEY = "1"
PI_KEY = "pi"

SQUAREFREE_LIMIT = 10**12  # sqrtN tags above this are opaque; see symbol_kind


@lru_cache(maxsize=64)
def _is_squarefree(n: int) -> bool:
    """Trial division up to sqrt(n): at most 10**6 steps below the limit."""
    m, d = n, 2
    while d * d <= m:
        if m % (d * d) == 0:
            return False
        if m % d == 0:
            m //= d
        d += 1
    return True


def symbol_kind(tag: str) -> str:
    """Classify a symbol tag: 'rational', 'pi', 'algebraic', or 'opaque'.

    The exact multiple-of-2*pi decision relies on {1, sqrt(n_1), ...} being
    linearly independent over the rationals, which holds for square roots of
    distinct squarefree integers.  Anything else (e, user constants, products
    created by multiplying by pi, square roots of integers above
    ``SQUAREFREE_LIMIT``, which are not factored) is opaque and decided
    numerically.
    """
    if tag == RATIONAL_KEY:
        return "rational"
    if tag == PI_KEY:
        return "pi"
    if tag.startswith("sqrt"):
        try:
            n = int(tag[4:])
        except ValueError:
            return "opaque"
        if 2 <= n <= SQUAREFREE_LIMIT and _is_squarefree(n):
            return "algebraic"
    return "opaque"


def _symbol_base(tag: str) -> str | int | None:
    """The constant a tag names: "1", "pi", "e", the integer N of sqrtN
    (N >= 2), or None."""
    if tag in (RATIONAL_KEY, PI_KEY, "e"):
        return tag
    if tag.startswith("sqrt"):
        try:
            n = int(tag[4:])
        except ValueError:
            return None
        if n >= 2:
            return n
    return None


def known_symbol(tag: str) -> bool:
    """Whether the tag names a built-in constant: 1, pi, e or sqrtN."""
    return _symbol_base(tag) is not None


_GUARD = 32  # bits beyond the target carried by the series for pi and e


def _pi_fixed(bits: int) -> int:
    """pi * 2**bits within one unit, from Machin's formula pi =
    16*atan(1/5) - 4*atan(1/239), summed in fixed point with ``_GUARD``
    guard bits.  Each series term is within 2.1 guard units of its value
    (one floor for x**-(2k+1), whose errors shrink by x**2 per term, and
    one for the division by 2k+1), and the dropped tail is below one, so
    the sum is within 8*(bits + _GUARD) + 130 guard units: below 2**30 for
    bits < 2**26.  The final rounding adds half a unit."""
    one = 1 << (bits + _GUARD)

    def atan_inv(x: int) -> int:
        x2, term, total, k, sign = x * x, one // x, one // x, 1, 1
        while term:
            term //= x2
            k, sign = k + 2, -sign
            total += sign * (term // k)
        return total

    pi = 16 * atan_inv(5) - 4 * atan_inv(239)
    return (pi + (1 << (_GUARD - 1))) >> _GUARD


def _e_fixed(bits: int) -> int:
    """e * 2**bits within one unit, from the series sum 1/k!, summed in
    fixed point with ``_GUARD`` guard bits.  Each of the at most bits +
    _GUARD terms is one floor below its value, and the dropped tail is below
    one, so the sum is within bits + _GUARD + 1 guard units: below 2**30 for
    bits < 2**29.  The final rounding adds half a unit."""
    term = total = 1 << (bits + _GUARD)
    k = 1
    while term:
        term //= k
        total += term
        k += 1
    return (total + (1 << (_GUARD - 1))) >> _GUARD


@lru_cache(maxsize=256)
def symbol_fixed(tag: str, bits: int) -> int | None:
    """A known symbol's value times 2**bits, within one unit, or None for a
    tag without a built-in value.  1 is exact; sqrtN is floor(sqrt(N) *
    2**bits) = math.isqrt(N << 2*bits), in [0, 1) units below; pi and e
    are bounded in ``_pi_fixed`` and ``_e_fixed``."""
    base = _symbol_base(tag)
    if base is None:
        return None
    if base == RATIONAL_KEY:
        return 1 << bits
    if base == PI_KEY:
        return _pi_fixed(bits)
    if base == "e":
        return _e_fixed(bits)
    return math.isqrt(base << (2 * bits))


def _known_fixed(tag: str, bits: int) -> int:
    c = symbol_fixed(tag, bits)
    if c is None:
        raise InputError(f"the value has a term in {tag!r}, which has no known value")
    return c


def float_of_terms(terms) -> float:
    """The float of sum q * value(tag) over (q, tag) pairs, rounded once
    from the tags' constants at the working precision plus 64 bits: within
    sum |q| units of 2**-(bits + 64) before that rounding."""
    bits = PRECISION.bits + 64
    num, den = 0, 1
    for q, tag in terms:
        c = _known_fixed(tag, bits)
        lcm = math.lcm(den, q.denominator)
        num = num * (lcm // den) + q.numerator * (lcm // q.denominator) * c
        den = lcm
    return num / (den << bits)


def symbol_decimal(tag: str, dps: int) -> str:
    """A known symbol's value written with dps significant digits, as the
    test oracle's ``nstr(value, dps)`` writes it, trailing-zero stripping
    included: module equality compares these strings.

    The value is first rounded to nearest at ``dps_to_bits(dps)``
    significant bits, then truncated to dps + 3 decimal digits and rounded
    half up to dps digits.  It is written in fixed point when its leading
    digit's exponent is below dps, else as 'd.ddd' + 'e+exponent'.  The
    symbol's constant is read at 64 bits beyond that precision: sqrtN is
    rounded exactly, pi and e unless their bits come within 2**-63 of a
    tie.  Every known symbol is at least 1 and below 2**3500, the range in
    which that format needs no power-of-ten prescaling.
    """
    prec = dps_to_bits(dps)
    work = prec + 64
    fixed = _known_fixed(tag, work)
    e2 = (fixed >> work).bit_length()  # value in [2**(e2 - 1), 2**e2)
    shift = work - prec + e2
    man = (fixed + (1 << (shift - 1))) >> shift
    if man >> prec:
        man, e2 = man >> 1, e2 + 1
    # dps + 3 digits, truncated: floor(value * 10**fixdps) over 10**fixdps
    bitprec = int((dps + 3) * math.log(10, 2)) + 10
    fixprec = max(bitprec - e2, 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    move = e2 - prec + fixprec
    fixed_value = man << move if move >= 0 else man >> -move
    digits = str((fixed_value * 10**fixdps) >> fixprec)
    exponent = len(digits) - fixdps - 1
    # round half up to dps digits, place the point, strip zeros
    if len(digits) > dps and digits[dps] in "56789":
        digits = digits[:dps]
        i = dps - 1
        while i >= 0 and digits[i] == "9":
            i -= 1
        if i >= 0:
            digits = digits[:i] + str(int(digits[i]) + 1) + "0" * (dps - i - 1)
        else:
            digits = "1" + "0" * (dps - 1)
            exponent += 1
    else:
        digits = digits[:dps]
    if min(-(dps // 3), -5) < exponent < dps:
        split = exponent + 1  # exponent >= 0: every value is at least 1
        if split > dps:
            digits += "0" * (split - dps)
        exponent = 0
    else:
        split = 1
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    if exponent == 0:
        return digits
    return f"{digits}e+{exponent}"


class SymbolicReal:
    """A rational linear combination of tagged constants: a canonical,
    frozen mapping ``terms`` from tag to nonzero Fraction, in tag order.

    Equal combinations compare and hash equal, so equal shifts share a
    turn table.  ``float()`` reads the tags' built-in values.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms):
        items = sorted((k, Fraction(v)) for k, v in terms.items() if v != 0)
        object.__setattr__(self, "terms", MappingProxyType(dict(items)))
        object.__setattr__(self, "_hash", hash(tuple(items)))

    def __setattr__(self, name, value):
        raise AttributeError("SymbolicReal is immutable")

    def __reduce__(self):
        return (SymbolicReal, (dict(self.terms),))

    @staticmethod
    def rational(q: Fraction | int) -> "SymbolicReal":
        return SymbolicReal({RATIONAL_KEY: q})

    @staticmethod
    def of_symbol(tag: str, scale: Fraction) -> "SymbolicReal":
        return SymbolicReal({tag: scale})

    @staticmethod
    def zero() -> "SymbolicReal":
        return SymbolicReal({})

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolicReal):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SymbolicReal({dict(self.terms)!r})"

    def __add__(self, other: "SymbolicReal") -> "SymbolicReal":
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, Fraction(0)) + v
        return SymbolicReal(terms)

    def scaled(self, q: Fraction) -> "SymbolicReal":
        return SymbolicReal({k: v * q for k, v in self.terms.items()})

    def __float__(self) -> float:
        return float_of_terms((q, tag) for tag, q in self.terms.items())


# ------------------------------------------------------------------
# coefficient helpers: ExactComplex | complex
# ------------------------------------------------------------------

Coeff = Union[ExactComplex, complex]

FLOAT_ZERO_TOL = 1e-15


def coeff_of(z) -> Coeff:
    """Normalize a number into a coefficient: exact types stay exact."""
    if isinstance(z, ExactComplex):
        return z
    if isinstance(z, (int, Fraction)):
        return ExactComplex(Fraction(z))
    if isinstance(z, (float, complex)):
        return complex(z)
    raise InputError(f"cannot interpret {z!r} as a coefficient")


def c_add(a: Coeff, b: Coeff) -> Coeff:
    if isinstance(a, ExactComplex) and isinstance(b, ExactComplex):
        return a + b
    return complex(a) + complex(b)


def c_mul(a: Coeff, b: Coeff) -> Coeff:
    if isinstance(a, ExactComplex) and isinstance(b, ExactComplex):
        return a * b
    # exact zero annihilates regardless of the other operand's type
    if isinstance(a, ExactComplex) and a.is_zero():
        return a
    if isinstance(b, ExactComplex) and b.is_zero():
        return b
    return complex(a) * complex(b)


def c_conj(a: Coeff) -> Coeff:
    return a.conj() if isinstance(a, ExactComplex) else complex(a).conjugate()


def c_is_zero(a: Coeff) -> bool:
    if isinstance(a, ExactComplex):
        return a.is_zero()
    return abs(a) < FLOAT_ZERO_TOL


def quarter_phase(k: int) -> ExactComplex:
    """e^{2*pi*i*k/4} = i^k as an exact complex number."""
    return _QUARTER_PHASES[k % 4]


def exact_phase_from_turn(turn: Fraction) -> ExactComplex | None:
    """Exact value of e^{2*pi*i*turn} when it lies in Q(i), else None."""
    t = turn % 1
    if t.denominator in (1, 2, 4):
        return quarter_phase(int(t * 4))
    return None


def phase_from_turn(turn: Fraction | float) -> Coeff:
    """e^{2*pi*i*turn}: exact when the turn permits, complex float otherwise."""
    if isinstance(turn, Fraction):
        exact = exact_phase_from_turn(turn)
        if exact is not None:
            return exact
        turn = float(turn % 1)
    if not -0.5 <= turn <= 0.5:  # fold for accuracy near the periodic point
        turn = turn % 1.0
        if turn > 0.5:
            turn -= 1.0
    angle = TWO_PI * turn
    return complex(math.cos(angle), math.sin(angle))


# ------------------------------------------------------------------
# rational-or-decimal string handling (JSON and parser surfaces)
# ------------------------------------------------------------------


def check_literal_digits(text: str) -> None:
    """Refuse a decimal literal whose digits plus |exponent| exceed
    ``MAX_LITERAL_DIGITS``, from the text alone: '1e10000000' would
    otherwise build a 33-million-bit integer."""
    mantissa, _, exponent = text.lower().partition("e")
    size = sum(ch.isdigit() for ch in mantissa)
    exponent = exponent.strip().lstrip("+-").replace("_", "")
    if len(exponent) > len(str(MAX_LITERAL_DIGITS)):
        size = MAX_LITERAL_DIGITS + 1
    elif exponent.isdigit():
        size += int(exponent)
    if size > MAX_LITERAL_DIGITS:
        raise InputError(
            f"number out of range: more than MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS} "
            f"digits plus exponent in {text[:40]!r}"
        )


def parse_rational(text: str) -> Fraction:
    """Parse '3/4', '-2', '0.25' into an exact Fraction."""
    text = text.strip()
    check_literal_digits(text)
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational number: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Render a Fraction as a decimal string when it terminates, else 'p/q'."""
    den = q.denominator
    while den % 2 == 0:
        den //= 2
    while den % 5 == 0:
        den //= 5
    if den == 1:
        scaled = q
        digits = 0
        while scaled.denominator != 1:
            scaled *= 10
            digits += 1
        s = str(scaled.numerator)
        if digits == 0:
            return s
        sign = "-" if s.startswith("-") else ""
        s = s.lstrip("-").rjust(digits + 1, "0")
        return f"{sign}{s[:-digits]}.{s[-digits:]}"
    return f"{q.numerator}/{q.denominator}"


def real_to_json(x) -> str | float:
    """Exact values render as strings, floats stay numbers."""
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, int):
        return str(x)
    return float(x)


def real_from_json(x) -> Fraction | float:
    if isinstance(x, str):
        return parse_rational(x)
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InputError(f"expected a number or rational string, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if not math.isfinite(x):
        raise InputError(f"expected a finite number, got {x!r}")
    return float(x)


def coeff_to_json_pair(c: Coeff) -> list:
    if isinstance(c, ExactComplex):
        return [real_to_json(c.re), real_to_json(c.im)]
    z = complex(c)
    return [z.real, z.imag]


def coeff_from_json_parts(re, im) -> Coeff:
    rr, ii = real_from_json(re), real_from_json(im)
    if isinstance(rr, Fraction) and isinstance(ii, Fraction):
        return ExactComplex(rr, ii)
    return complex(float(rr), float(ii))
