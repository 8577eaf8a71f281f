"""Points of the compact character group attached to a frequency module.

At a fixed module with d generators the group of characters is a d-torus:
a point is an angle vector, stored in *turns* (angle / 2*pi) so that
rational turns stay exact Fractions through the group operations.  The
dense embedding of the line sends x to the point with turns g_k*x/(2*pi),
and the constructive substitute for denseness is a bounded window sweep
solving the simultaneous approximation problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ap import APFunction
from .errors import InputError
from .frequencies import Frequency, FrequencyModule, require_same_module, turn_of
from .scalars import Coeff, EC_ZERO, RealLike, c_add, c_mul, phase_from_turn

Turn = Fraction | float


def _norm_turn(x: Turn) -> Turn:
    if isinstance(x, Fraction):
        return x % 1
    return float(x) % 1.0


def _turn_add(a: Turn, b: Turn) -> Turn:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return (a + b) % 1
    return (float(a) + float(b)) % 1.0


class BohrPoint:
    """A character of the module, as a turn vector (theta_k / 2*pi)."""

    __slots__ = ("module", "turns")

    def __init__(self, module: FrequencyModule, turns):
        turns = tuple(_norm_turn(x) for x in turns)
        if len(turns) != module.dim:
            raise InputError(f"expected {module.dim} angles, got {len(turns)}")
        self.module = module
        self.turns = turns

    @staticmethod
    def identity(module: FrequencyModule) -> "BohrPoint":
        return BohrPoint(module, (Fraction(0),) * module.dim)

    @staticmethod
    def from_angles(module: FrequencyModule, angles) -> "BohrPoint":
        """Angles in radians; rational multiples of pi stay exact."""
        return BohrPoint(module, tuple(_angle_to_turn(a) for a in angles))

    def __mul__(self, other: "BohrPoint") -> "BohrPoint":
        require_same_module(self.module, other.module)
        return BohrPoint(
            self.module, tuple(_turn_add(a, b) for a, b in zip(self.turns, other.turns))
        )

    def inverse(self) -> "BohrPoint":
        return BohrPoint(
            self.module,
            tuple(-t if isinstance(t, Fraction) else -float(t) for t in self.turns),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, BohrPoint):
            return NotImplemented
        if self.module != other.module:
            return False
        for a, b in zip(self.turns, other.turns):
            if isinstance(a, Fraction) and isinstance(b, Fraction):
                if a != b:
                    return False
            elif float(a) != float(b):
                return False
        return True

    __hash__ = None

    def distance(self, other: "BohrPoint") -> float:
        """Max circular distance between turn vectors (in turns)."""
        require_same_module(self.module, other.module)
        worst = 0.0
        for a, b in zip(self.turns, other.turns):
            d = abs(float(a) - float(b)) % 1.0
            worst = max(worst, min(d, 1.0 - d))
        return worst

    # -- evaluation ------------------------------------------------------

    def char_turn(self, freq: Frequency) -> Turn:
        require_same_module(self.module, freq.module)
        acc: Turn = Fraction(0)
        for n, t in zip(freq.coords, self.turns):
            if n:
                acc = _turn_add(acc, t * n if isinstance(t, Fraction) else float(t) * n)
        return _norm_turn(acc)

    def char_value(self, freq: Frequency) -> Coeff:
        """The point evaluated on chi_lambda; exact on quarter turns."""
        return phase_from_turn(self.char_turn(freq))

    def eval_ap(self, f: APFunction) -> Coeff:
        """sum c_lambda psi(chi_lambda), the dual pairing with a trig polynomial."""
        require_same_module(self.module, f.module)
        acc: Coeff = EC_ZERO
        for freq, c in f.terms():
            acc = c_add(acc, c_mul(c, self.char_value(freq)))
        return acc

    @property
    def angles(self) -> np.ndarray:
        return np.array([2.0 * math.pi * float(t) for t in self.turns])

    def __repr__(self) -> str:
        return f"BohrPoint(turns={self.turns!r})"


def _angle_to_turn(a: RealLike) -> Turn:
    from .scalars import PiTimes

    if isinstance(a, PiTimes):
        return (a.factor / 2) % 1
    if isinstance(a, (int, Fraction)) and a == 0:
        return Fraction(0)
    return (float(a) / (2.0 * math.pi)) % 1.0


def iota(module: FrequencyModule, x: RealLike) -> BohrPoint:
    """The dense embedding of the line: evaluation-at-x as a character.

    Turn k is g_k*x/(2*pi); it is exact whenever g_k*x is a rational
    multiple of pi (e.g. rational generators with shifts that are rational
    multiples of pi).
    """
    return BohrPoint(module, tuple(turn_of(module.unit(k), x) for k in range(module.dim)))


# ------------------------------------------------------------------
# constructive denseness: simultaneous approximation search
# ------------------------------------------------------------------


MAX_WINDOWS = 1 << 22
"""Most pivot windows one search examines.  A range [-t_max, t_max] that
holds more ends the search early, with ``reason="budget"``."""

_CHUNK_FIRST = 64
_CHUNK_MAX = 1 << 16


@dataclass(frozen=True)
class KroneckerResult:
    """Outcome of the approximation search.

    A hit (``found=True``) carries a ``t`` with ``|t| <= t_max`` whose
    residual, re-checked by :func:`kronecker_residual`, is below ``eps``;
    its ``reason`` is None.  A miss has ``t=None``, its ``gap`` is the
    smallest residual among the candidates evaluated, and ``reason`` says
    how the search ended:

    - ``"budget"``: ``MAX_WINDOWS`` windows were examined before the sweep
      covered [-t_max, t_max]; existence in the rest is not refuted.
    - ``"range"``: every window in [-t_max, t_max] was examined in float64
      arithmetic and none held a solution.  This is not a certified
      refutation: a solution set narrower than the rounding error of the
      window arithmetic can be missed.

    ``points_scanned`` counts the windows examined; it is at least 1.
    """

    found: bool
    t: float | None
    gap: float
    points_scanned: int
    eps: float
    t_max: float
    reason: str | None

    def __bool__(self) -> bool:
        return self.found


def kronecker_residual(psi: BohrPoint, t: float) -> float:
    """max_k |e^{i g_k t} - e^{i theta_k}| for a candidate preimage t."""
    gens = psi.module.float_values
    worst = 0.0
    for g, turn in zip(gens, psi.turns):
        theta = 2.0 * math.pi * float(turn)
        worst = max(worst, 2.0 * abs(math.sin(0.5 * (g * t - theta))))
    return worst


def kronecker_approx(psi: BohrPoint, eps: float, t_max: float) -> KroneckerResult:
    """Search [-t_max, t_max] for t with max_k |e^{i g_k t} - e^{i theta_k}| < eps.

    Window sweep: coordinate k meets its target exactly when the angle
    g_k t - theta_k lies within w = 2 asin(eps/2) of a multiple of 2 pi.
    The pivot p, the generator of largest |g_p|, does so on the windows
    t = c_m + s, c_m = (theta_p + 2 pi m)/g_p, |s| < w/|g_p|.  Within a
    window every other angle moves by less than w, so while w <= pi/2 its
    condition is one interval in s, and the window holds a solution exactly
    when these intervals, the pivot's and [-t_max - c_m, t_max - c_m] meet.
    Windows are taken outward from t = 0, in numpy chunks over m; the
    midpoint of the first nonempty intersection whose residual re-checks
    below eps is the answer.  For eps >= sqrt(2), w is capped at pi/2, a
    stricter test, so a hit still satisfies eps.  At most ``MAX_WINDOWS``
    windows are examined.
    """
    if not eps > 0:
        raise InputError("eps must be positive")
    if not t_max > 0:
        raise InputError("t_max must be positive")
    gens = psi.module.float_values
    targets = np.array([2.0 * math.pi * float(t) for t in psi.turns])
    p = int(np.argmax(np.abs(gens)))
    g_p, theta_p = float(gens[p]), float(targets[p])
    rest = np.arange(gens.size) != p
    g_k, theta_k = gens[rest][:, None], targets[rest][:, None]
    w = math.pi / 2 if eps >= math.sqrt(2.0) else 2.0 * math.asin(eps / 2.0)
    half = w / abs(g_p)

    # windows m with c_m in [-t_max, t_max] number about t_max |g_p| / pi;
    # compare in float before any int conversion (t_max may be near 1e308)
    span = t_max * abs(g_p) / math.pi
    if span <= MAX_WINDOWS - 2:
        n_windows, reason = math.ceil(span) + 2, "range"
    else:
        n_windows, reason = MAX_WINDOWS, "budget"
    # the window nearest t = 0, then its neighbours alternately on the
    # nearer side first: offsets 0, +1, -1, +2, -2, ... times `side`
    m_star = -theta_p / (2.0 * math.pi)
    m0 = round(m_star)
    side = 1.0 if m_star >= m0 else -1.0

    best = math.inf
    done, n = 0, _CHUNK_FIRST
    while done < n_windows:
        n = min(n, n_windows - done)
        i = np.arange(done, done + n, dtype=np.float64)
        k = np.ceil(i / 2.0)
        c = (theta_p + 2.0 * math.pi * (m0 + side * np.where(i % 2 == 1, k, -k))) / g_p
        tc = np.clip(c, -t_max, t_max)
        centre_gaps = 2.0 * np.abs(np.sin(0.5 * (np.outer(gens, tc) - targets[:, None])))
        best = min(best, float(centre_gaps.max(axis=0).min()))
        # each other angle at the centre, in [-pi, pi); its interval in s,
        # the pivot's and the range's meet in [lo, hi)
        phi = np.remainder(g_k * c - theta_k + math.pi, 2.0 * math.pi) - math.pi
        a, b = (-w - phi) / g_k, (w - phi) / g_k
        lo = np.maximum(np.minimum(a, b).max(axis=0, initial=-half), -t_max - c)
        hi = np.minimum(np.maximum(a, b).min(axis=0, initial=half), t_max - c)
        for j in np.flatnonzero(lo < hi):
            t = float(c[j] + 0.5 * (lo[j] + hi[j]))
            gap = kronecker_residual(psi, t)
            if gap < eps and abs(t) <= t_max:
                return KroneckerResult(True, t, gap, done + int(j) + 1, eps, t_max, None)
            best = min(best, gap)
        done += n
        n = min(4 * n, _CHUNK_MAX)
    return KroneckerResult(False, None, best, n_windows, eps, t_max, reason)
