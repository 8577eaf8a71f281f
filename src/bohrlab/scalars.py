"""Exact scalar arithmetic shared by the whole package.

Three representations cooperate here:

* ``ExactComplex`` -- complex numbers with rational real/imaginary parts,
  used wherever algebraic operations can stay exact.
* ``PiTimes`` -- a rational multiple of pi, used for translation amounts
  whose phases must stay exact (e.g. a shift by pi).
* ``SymbolicReal`` -- a rational linear combination of known constants
  (1, pi, square roots of squarefree integers, opaque user symbols),
  with its high-precision value.  ``symbol_kind`` sorts the terms into
  those the exact multiple-of-2*pi decision of
  ``bohrlab.frequencies.TurnTable`` can use and the opaque rest.

Working precision for numeric constants is 50 decimal digits by default
and can be overridden with the ``BOHR_PRECISION`` environment variable.
An invalid value (not an integer, or below 15) keeps the default at
import; ``working_dps()`` raises the ``InputError`` for it, and the CLI
reports it as an input error.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import mpmath as mp

from .errors import InputError

DEFAULT_DPS = 50


def working_dps() -> int:
    raw = os.environ.get("BOHR_PRECISION", "")
    if not raw:
        return DEFAULT_DPS
    try:
        dps = int(raw)
    except ValueError:
        raise InputError(f"BOHR_PRECISION must be an integer, got {raw!r}")
    if dps < 15:
        raise InputError("BOHR_PRECISION must be at least 15")
    return dps


try:
    mp.mp.dps = working_dps()
except InputError:
    # A bad value must not fail the import: the CLI could not report it.
    # ``cli.main`` calls working_dps() again and reports the error (exit 2).
    mp.mp.dps = DEFAULT_DPS

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

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

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
        return float(mp.pi * mp.mpf(self.factor.numerator) / self.factor.denominator)

    def __float__(self) -> float:
        return self.value

    def __neg__(self) -> "PiTimes":
        return PiTimes(-self.factor)


# rationals, floats, rational multiples of pi, or SymbolicReal values
RealLike = Union[int, float, Fraction, PiTimes, "SymbolicReal"]


def as_float(t: RealLike) -> float:
    if isinstance(t, PiTimes):
        return t.value
    return float(t)


def as_fraction(t: RealLike) -> Fraction:
    """Pin a real-like value to one definite rational (floats convert exactly)."""
    if isinstance(t, Fraction):
        return t
    if isinstance(t, int):
        return Fraction(t)
    if isinstance(t, PiTimes):
        return Fraction(t.value)
    return Fraction(float(t))


# ------------------------------------------------------------------
# symbolic reals
# ------------------------------------------------------------------

RATIONAL_KEY = "1"
PI_KEY = "pi"

_SQUAREFREE_CACHE: dict[int, bool] = {}


def _is_squarefree(n: int) -> bool:
    if n in _SQUAREFREE_CACHE:
        return _SQUAREFREE_CACHE[n]
    m, d, ok = n, 2, True
    while d * d <= m:
        if m % (d * d) == 0:
            ok = False
            break
        if m % d == 0:
            m //= d
        d += 1
    _SQUAREFREE_CACHE[n] = ok
    return ok


def symbol_kind(tag: str) -> str:
    """Classify a symbol tag: 'rational', 'pi', 'algebraic', or 'opaque'.

    The exact multiple-of-2*pi decision relies on {1, sqrt(n_1), ...} being
    linearly independent over the rationals, which holds for square roots of
    distinct squarefree integers.  Anything else (e, user constants, products
    created by multiplying by pi) is opaque and decided numerically.
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
        if n >= 2 and _is_squarefree(n):
            return "algebraic"
    return "opaque"


def symbol_value(tag: str) -> mp.mpf | None:
    """Numeric value for a built-in symbol tag, or None if unknown."""
    if tag == RATIONAL_KEY:
        return mp.mpf(1)
    if tag == PI_KEY:
        return +mp.pi
    if tag.startswith("sqrt"):
        try:
            n = int(tag[4:])
        except ValueError:
            return None
        if n >= 2:
            return mp.sqrt(n)
    if tag == "e":
        return +mp.e
    return None


def _frac_to_mpf(q: Fraction) -> mp.mpf:
    return mp.mpf(q.numerator) / q.denominator


class SymbolicReal:
    """A rational linear combination of tagged constants, with its high
    precision numeric value carried alongside.

    Instances are immutable in use; arithmetic returns new objects.
    """

    __slots__ = ("terms", "approx")

    def __init__(self, terms: dict[str, Fraction], approx: mp.mpf):
        self.terms = {k: v for k, v in terms.items() if v != 0}
        self.approx = approx

    @staticmethod
    def rational(q: Fraction | int) -> "SymbolicReal":
        q = Fraction(q)
        return SymbolicReal({RATIONAL_KEY: q}, _frac_to_mpf(q))

    @staticmethod
    def of_symbol(tag: str, scale: Fraction, approx: mp.mpf) -> "SymbolicReal":
        return SymbolicReal({tag: scale}, _frac_to_mpf(scale) * approx)

    @staticmethod
    def zero() -> "SymbolicReal":
        return SymbolicReal({}, mp.mpf(0))

    def __add__(self, other: "SymbolicReal") -> "SymbolicReal":
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, Fraction(0)) + v
        return SymbolicReal(terms, self.approx + other.approx)

    def scaled(self, q: Fraction) -> "SymbolicReal":
        if q == 0:
            return SymbolicReal.zero()
        return SymbolicReal({k: v * q for k, v in self.terms.items()},
                            self.approx * _frac_to_mpf(q))

    def times_pi(self) -> "SymbolicReal":
        terms: dict[str, Fraction] = {}
        for k, v in self.terms.items():
            if k == RATIONAL_KEY:
                terms[PI_KEY] = terms.get(PI_KEY, Fraction(0)) + v
            else:
                terms["(" + k + ")*pi"] = v  # opaque product
        return SymbolicReal(terms, self.approx * mp.pi)

    def __float__(self) -> float:
        return float(self.approx)


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


def c_neg(a: Coeff) -> Coeff:
    return -a if isinstance(a, ExactComplex) else -complex(a)


def c_conj(a: Coeff) -> Coeff:
    return a.conj() if isinstance(a, ExactComplex) else complex(a).conjugate()


def c_is_zero(a: Coeff) -> bool:
    if isinstance(a, ExactComplex):
        return a.is_zero()
    return abs(a) < FLOAT_ZERO_TOL


def c_eq(a: Coeff, b: Coeff) -> bool:
    if isinstance(a, ExactComplex) and isinstance(b, ExactComplex):
        return a == b
    return complex(a) == complex(b)


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


def parse_rational(text: str) -> Fraction:
    """Parse '3/4', '-2', '0.25' into an exact Fraction."""
    text = text.strip()
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
