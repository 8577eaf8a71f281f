"""Trigonometric polynomials over a frequency module.

An ``APFunction`` is a finite sum  f(t) = sum_lambda c_lambda e^{i*lambda*t}
with coefficients kept exact (rational real/imaginary parts) through the
algebraic operations.  Translation pulls in unit phases, which stay exact
precisely when lambda*t lands on a quarter turn (so shifts by rational
multiples of pi keep rational frequencies exact) and become complex floats
otherwise.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

import numpy as np

from .errors import InputError
from .frequencies import (
    Frequency,
    FrequencyModule,
    require_same_module,
    sub_real,
    turn_table,
)
from .scalars import (
    Coeff,
    EC_ZERO,
    ExactComplex,
    RealLike,
    as_float,
    c_add,
    c_conj,
    c_is_zero,
    c_mul,
    coeff_of,
)


class APFunction:
    """Finite complex linear combination of characters chi_lambda."""

    __slots__ = ("module", "coeffs", "_arrays")

    def __init__(self, module: FrequencyModule, coeffs: dict[Frequency, Coeff]):
        clean: dict[Frequency, Coeff] = {}
        for freq, c in coeffs.items():
            require_same_module(module, freq.module)
            c = coeff_of(c)
            if not c_is_zero(c):
                clean[freq] = c
        self.module = module
        self.coeffs = clean
        self._arrays = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def character(module: FrequencyModule, *coords) -> "APFunction":
        return APFunction(module, {module.frequency(*coords): ExactComplex.from_number(1)})

    @staticmethod
    def constant(module: FrequencyModule, value) -> "APFunction":
        return APFunction(module, {module.zero(): coeff_of(value)})

    @staticmethod
    def zero(module: FrequencyModule) -> "APFunction":
        return APFunction(module, {})

    # -- algebra -----------------------------------------------------

    def __add__(self, other: "APFunction") -> "APFunction":
        require_same_module(self.module, other.module)
        out = dict(self.coeffs)
        for freq, c in other.coeffs.items():
            out[freq] = c_add(out.get(freq, EC_ZERO), c)
        return APFunction(self.module, out)

    def __sub__(self, other: "APFunction") -> "APFunction":
        return self + (-other)

    def __neg__(self) -> "APFunction":
        return self.scaled(-1)

    def scaled(self, z) -> "APFunction":
        z = coeff_of(z)
        return APFunction(
            self.module, {f: c_mul(z, c) for f, c in self.coeffs.items()}
        )

    def __mul__(self, other):
        if isinstance(other, APFunction):
            require_same_module(self.module, other.module)
            out: dict[Frequency, Coeff] = {}
            for fa, ca in self.coeffs.items():
                for fb, cb in other.coeffs.items():
                    key = fa + fb
                    out[key] = c_add(out.get(key, EC_ZERO), c_mul(ca, cb))
            return APFunction(self.module, out)
        return self.scaled(other)

    __rmul__ = __mul__

    def __truediv__(self, z):
        if isinstance(z, (int, Fraction)):
            return self.scaled(Fraction(1, 1) / Fraction(z))
        return self.scaled(1.0 / complex(z))

    def star(self) -> "APFunction":
        """The involution f*(t) = conj(f(t)): c_lambda -> conj(c_{-lambda})."""
        return APFunction(
            self.module, {-f: c_conj(c) for f, c in self.coeffs.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, APFunction):
            return NotImplemented
        if self.module != other.module or self.coeffs.keys() != other.coeffs.keys():
            return False
        return all(
            complex(self.coeffs[f]) == complex(other.coeffs[f]) for f in self.coeffs
        )

    __hash__ = None

    def coeff(self, freq: Frequency) -> Coeff:
        return self.coeffs.get(freq, EC_ZERO)

    def terms(self):
        return self.coeffs.items()

    def __len__(self) -> int:
        return len(self.coeffs)

    # -- evaluation ----------------------------------------------------

    def _term_arrays(self):
        if self._arrays is None:
            freqs = list(self.coeffs)
            vals = np.array([f.value for f in freqs], dtype=np.float64)
            cs = np.array([complex(self.coeffs[f]) for f in freqs], dtype=np.complex128)
            self._arrays = (vals, cs)
        return self._arrays

    def eval(self, t: RealLike) -> complex:
        tf = as_float(t)
        acc = 0j
        for freq, c in self.coeffs.items():
            acc += complex(c) * cmath.exp(1j * freq.value * tf)
        return acc

    def eval_grid(self, ts: np.ndarray) -> np.ndarray:
        if not self.coeffs:
            return np.zeros(len(ts), dtype=np.complex128)
        vals, cs = self._term_arrays()
        return np.exp(1j * np.outer(np.asarray(ts, dtype=np.float64), vals)) @ cs

    def sup_norm_bound(self) -> float:
        """sum |c_lambda|, an upper bound for sup_t |f(t)|."""
        return float(sum(abs(c) for c in self.coeffs.values()))

    # -- means and inner product ---------------------------------------

    def bohr_mean(self) -> Coeff:
        """Limit of (1/2T) int_{-T}^{T} f: the zero-frequency coefficient."""
        return self.coeffs.get(self.module.zero(), EC_ZERO)

    def bohr_mean_numeric(self, T: float) -> complex:
        """(1/2T) int_{-T}^{T} f(t) dt in closed form: the nonzero
        frequencies contribute sin(lambda*T)/(lambda*T) factors."""
        if T <= 0:
            raise InputError("T must be positive")
        acc = 0j
        for freq, c in self.coeffs.items():
            if freq.is_zero():
                acc += complex(c)
            else:
                x = freq.value * T
                acc += complex(c) * (np.sin(x) / x)
        return acc

    def mean_error_bound(self, T: float) -> float:
        """A priori bound |bohr_mean_numeric(T) - bohr_mean| <= sum_{lambda != 0} |c|/(|lambda| T)."""
        return float(
            sum(
                abs(c) / (abs(f.value) * T)
                for f, c in self.coeffs.items()
                if not f.is_zero()
            )
        )

    def inner(self, other: "APFunction") -> Coeff:
        """Bohr-mean inner product <f, g> = sum_lambda c_lambda conj(d_lambda).

        Characters are orthonormal, so this is the mean of f * g^*.
        """
        require_same_module(self.module, other.module)
        acc: Coeff = EC_ZERO
        for freq, c in self.coeffs.items():
            d = other.coeffs.get(freq)
            if d is not None:
                acc = c_add(acc, c_mul(c, c_conj(d)))
        return acc

    # -- translation ----------------------------------------------------

    def translate(self, t: RealLike) -> "APFunction":
        """Pullback under s -> t + s: each coefficient picks up e^{i*lambda*t}."""
        phases = turn_table(self.module, t).phases([f.coords for f in self.coeffs])
        return APFunction(
            self.module,
            {f: c_mul(p, c) for (f, c), p in zip(self.coeffs.items(), phases)},
        )

    def continuity_modulus(self, t: RealLike, s: RealLike) -> float:
        """Upper bound sum |c_lambda| |e^{i lambda t} - e^{i lambda s}| for
        ||translate(t) - translate(s)||_inf; exact for single characters."""
        chords = turn_table(self.module, sub_real(t, s)).chords([f.coords for f in self.coeffs])
        return float(sum(abs(c) * ch for c, ch in zip(self.coeffs.values(), chords.tolist())))

    def __repr__(self) -> str:
        n = len(self.coeffs)
        return f"APFunction({n} term{'s' if n != 1 else ''} over {self.module.dim}-gen module)"
