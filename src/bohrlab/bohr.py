"""Points of the compact character group attached to a frequency module.

At a fixed module with d generators the group of characters is a d-torus:
a point is an angle vector, stored in *turns* (angle / 2*pi) so that
rational turns stay exact Fractions through the group operations; a
non-finite turn is an input error.  The dense embedding of the line sends
x to the point with turns g_k*x/(2*pi), and the constructive substitute
for denseness is a bounded search of the windows in which the generator
of largest |g_p| meets its target (``kronecker_approx``).

The search evaluates only the windows that can hold a solution.  For the
non-pivot generator of smallest |g_k|, window m can do so only if its
centre angle is within w*(1 + |g_k/g_p|) of 2*pi*Z, w = 2 asin(eps/2).
Float values are dyadic rationals, so that angle, in turns, is an exact
rotation m -> A*m + B of the integers mod 2**80; the passing windows are
its return times to an interval, padded by a written bound on the float64
rounding of the window arithmetic for every |m| the search can reach.
The first return on each side of the start window comes from an
Euclid-style integer step, and each next one in O(1) from the three-gap
theorem.  Every candidate then passes through the window sweep's own
float64 test, so each result equals the sweep's, field for field.
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
    x = float(x)
    if not math.isfinite(x):
        raise InputError(f"turns must be finite, got {x!r}")
    return x % 1.0


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
    multiples of pi).  A non-finite float is an input error.
    """
    return BohrPoint(module, tuple(turn_of(module.unit(k), x) for k in range(module.dim)))


# ------------------------------------------------------------------
# constructive denseness: simultaneous approximation search
# ------------------------------------------------------------------


MAX_WINDOWS = 1 << 22
"""Most pivot windows one search covers.  A range [-t_max, t_max] that
holds more ends the search early, with ``reason="budget"``."""

_CHUNK_FIRST = 64
_CHUNK_MAX = 1 << 16

_TURN_BITS = 80
"""Candidate windows are found on the circle of turns scaled to the
integers mod 2**_TURN_BITS."""

_DENSE_SHARE = 1 / 20
"""Above this share of candidate windows the numpy sweep evaluates every
window itself: on long misses at d = 3 and 4, testing the candidates one
by one costs as much as the sweep at a share of about 4-5%."""


@dataclass(frozen=True)
class KroneckerResult:
    """Outcome of the approximation search.

    A hit (``found=True``) carries a ``t`` with ``|t| <= t_max`` whose
    residual, re-checked by :func:`kronecker_residual`, is below ``eps``;
    its ``reason`` is None.  A miss has ``t=None``, its ``gap`` is the
    smallest residual among the window centres and the candidates
    evaluated, and ``reason`` says how the search ended:

    - ``"budget"``: ``MAX_WINDOWS`` windows were covered before the search
      reached the ends of [-t_max, t_max]; existence in the rest is not
      refuted.
    - ``"range"``: every window in [-t_max, t_max] was covered in float64
      arithmetic and none held a solution.  This is not a certified
      refutation: a solution set narrower than the rounding error of the
      window arithmetic can be missed.

    ``points_scanned`` counts the windows covered, in the sweep's order,
    up to and including the hit; it is at least 1.  Windows that cannot
    hold a solution are covered without being evaluated.
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


def _first_return(a: int, b: int, n: int, l: int) -> int | None:
    """The least j >= 0 with (a*j + b) % n <= l, or None; 0 <= a, b < n.

    Euclid-style: reflecting v -> l - v (a -> n - a) makes 2a <= n, and
    the j that lands in [0, l] just after the y-th wrap past a multiple of
    n exists exactly when a multiple of a lies in [n*y - b, n*y - b + l],
    a problem of the same form in y >= 1 with modulus a.  Each step at
    least halves the modulus, so there are O(log n) of them; the j of
    each level follows from the y of the next.
    """
    levels = []
    while b > l:
        if l < 0 or a == 0:
            return None
        if 2 * a > n:
            a, b = n - a, (l - b) % n
        if l >= a - 1:
            j = (n - b + a - 1) // a
            break
        levels.append((n, b, a))
        n, a, b = a, (-n) % a, (b - n) % a
    else:
        j = 0
    for n, b, a in reversed(levels):
        j = (n * (j + 1) - b + a - 1) // a
    return j


def _returns(a: int, b: int, n: int, l: int, j_max: int):
    """The j in [0, j_max] with (a*j + b) % n <= l, in increasing order;
    0 <= a, b < n and 0 <= 2*l < n.

    After the first, each next j follows in O(1) by Slater's three-gap
    theorem (Proc. Cambridge Philos. Soc. 63, 1967): let n1 >= 1 be the
    least step with (a*n1) % n <= l, a forward move d1, and n2 >= 1 the
    least with (a*n2) % n >= n - l, a backward move d2.  From a value v in
    [0, l], the next return is after n1 if v + d1 <= l, else after n2 if
    v - d2 >= 0, else after n1 + n2.  That needs the interval and its
    mirror [n - l, n) to be disjoint, hence 2*l < n.
    """
    j = _first_return(a, b, n, l)
    if j is None or j > j_max:
        return
    yield j  # the gaps are worked out only when a second return is asked for
    n1 = 1 + _first_return(a, a, n, l)
    d1 = a * n1 % n
    y = _first_return(a, (a + l) % n, n, l - 1)
    # with no backward move, every n1-th step returns (then d1 = 0)
    n2, d2 = (0, n) if y is None else (y + 1, n - a * (y + 1) % n)
    v = (a * j + b) % n
    while True:
        if v + d1 <= l:
            j, v = j + n1, v + d1
        elif v >= d2:
            j, v = j + n2, v - d2
        else:
            j, v = j + n1 + n2, v + d1 - d2
        if j > j_max:
            return
        yield j


def _candidate_windows(gens, targets, p: int, w: float, m0: int, s: int, n_windows: int):
    """The windows i < n_windows that can hold a solution, as (i, m) in
    increasing i, with m = m0 + s*j for i = 2j - 1 and m0 - s*j for i = 2j;
    None when the sweep should take every window.

    Coordinate k's interval in window m meets the pivot's only if its
    centre angle phi_k(m) is within reach = w*(1 + |alpha|) of 2*pi*Z,
    alpha = g_k/g_p; the rule is applied to the non-pivot k of smallest
    |g_k|, whose reach is the narrowest.  With pi_f = math.pi, the sweep's
    phi is the float value of X = alpha*(theta_p + 2*pi_f*m) - theta_k
    reduced mod 2*pi_f, and X/(2*pi_f) = alpha*m + beta mod 1 is a
    rotation: on the integers mod N = 2**_TURN_BITS, A = floor(alpha*N)
    and B = floor(beta*N), computed exactly from the float mantissas, give
    A*m + B within |m| + 1 of N*X/(2*pi_f).

    Rounding bound.  phi takes eight float64 steps (three for c, then
    g_k*c, - theta_k, + pi_f, the remainder and - pi_f).  Each is off by
    at most u = 2**-53 times a value below Q + 4*pi_f, where
    Q = |alpha|*2*pi_f*(|m| + 1) bounds |g_k*c| (0 <= theta < 2*pi_f), so
    together they stay below 8u*(Q + 4*pi_f).  The float interval test
    passes only if |phi| < reach*(1 + 4u).  The rule is padded by
    pad = 2**-48*(Q + 4*pi_f), four times the rounding bound, with |m| up
    to n_windows/2 + 2 >= every window's |m| (so up to MAX_WINDOWS/2 + 2),
    and the float evaluation of the padded width is inflated by 2**-40.
    Subnormal steps err by at most 2**-1074 absolute, far inside the pad.
    A window outside the padded interval fails the sweep's test, so the
    windows kept include every window the sweep would evaluate.
    """
    if len(gens) == 1:
        return None
    two_pi = 2.0 * math.pi
    k = min((j for j in range(len(gens)) if j != p), key=lambda j: abs(gens[j]))
    g_k, g_p, theta_k, theta_p = gens[k], gens[p], targets[k], targets[p]
    (kn, kd), (pn, pd) = g_k.as_integer_ratio(), g_p.as_integer_ratio()
    (an, ad), (bn, bd) = theta_p.as_integer_ratio(), theta_k.as_integer_ratio()
    tn, td = two_pi.as_integer_ratio()
    a = (kn * pd << _TURN_BITS) // (kd * pn)
    b = ((kn * pd * an * bd - bn * kd * pn * ad) * td << _TURN_BITS) // (kd * pn * ad * bd * tn)
    alpha = abs(g_k / g_p)
    m_max = n_windows // 2 + 2
    pad = 2.0**-48 * two_pi * (alpha * (m_max + 1) + 2.0)
    n = 1 << _TURN_BITS
    r = math.ceil((w * (1.0 + alpha) + pad) / two_pi * (1.0 + 2.0**-40) * n) + m_max + 2
    if 2 * r + 1 > _DENSE_SHARE * n:
        return None
    b0 = (a * m0 + b + r) % n  # window 0 is a candidate when (a*m + b + r) % n <= 2r
    minus = _returns(-s * a % n, b0, n, 2 * r, (n_windows - 1) // 2)
    plus = _returns(s * a % n, (b0 + s * a) % n, n, 2 * r, (n_windows - 2) // 2)
    return _in_sweep_order(minus, plus, m0, s)


def _in_sweep_order(minus, plus, m0: int, s: int):
    """(i, m) in increasing i from the returns j of each side: i = 2j and
    m = m0 - s*j on the minus side, i = 2j + 1 and m = m0 + s*(j + 1) on
    the plus side."""
    jm, jp = next(minus, None), next(plus, None)
    while jm is not None or jp is not None:
        if jp is None or jm is not None and jm <= jp:
            yield 2 * jm, m0 - s * jm
            jm = next(minus, None)
        else:
            yield 2 * jp + 1, m0 + s * (jp + 1)
            jp = next(plus, None)


def _sweep(psi: BohrPoint, eps: float, t_max: float, p: int, w: float, m0: int, side: float, n_windows: int, test: bool):
    """Windows i < n_windows in numpy chunks of growing size: the least
    centre residual, and with ``test`` each window's interval test and the
    first hit.  Returns (hit or None, least residual seen)."""
    gens = psi.module.float_values
    targets = np.array([2.0 * math.pi * float(t) for t in psi.turns])
    g_p, theta_p = float(gens[p]), float(targets[p])
    rest = np.arange(gens.size) != p
    g_k, theta_k = gens[rest][:, None], targets[rest][:, None]
    half = w / abs(g_p)
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
        if test:
            # each other angle at the centre, in [-pi, pi); its interval in
            # s, the pivot's and the range's meet in [lo, hi)
            phi = np.remainder(g_k * c - theta_k + math.pi, 2.0 * math.pi) - math.pi
            a, b = (-w - phi) / g_k, (w - phi) / g_k
            lo = np.maximum(np.minimum(a, b).max(axis=0, initial=-half), -t_max - c)
            hi = np.minimum(np.maximum(a, b).min(axis=0, initial=half), t_max - c)
            for j in np.flatnonzero(lo < hi):
                t = float(c[j] + 0.5 * (lo[j] + hi[j]))
                gap = kronecker_residual(psi, t)
                if gap < eps and abs(t) <= t_max:
                    return KroneckerResult(True, t, gap, done + int(j) + 1, eps, t_max, None), best
                best = min(best, gap)
        done += n
        n = min(4 * n, _CHUNK_MAX)
    return None, best


def kronecker_approx(psi: BohrPoint, eps: float, t_max: float) -> KroneckerResult:
    """Search [-t_max, t_max] for t with max_k |e^{i g_k t} - e^{i theta_k}| < eps.

    Coordinate k meets its target exactly when the angle g_k t - theta_k
    lies within w = 2 asin(eps/2) of a multiple of 2 pi.  The pivot p, the
    generator of largest |g_p|, does so on the windows t = c_m + s,
    c_m = (theta_p + 2 pi m)/g_p, |s| < w/|g_p|.  Within a window every
    other angle moves by less than w, so while w <= pi/2 its condition is
    one interval in s, and the window holds a solution exactly when these
    intervals, the pivot's and [-t_max - c_m, t_max - c_m] meet.  Windows
    are taken outward from t = 0 (window i has m = m0 + side*j for
    i = 2j - 1 and m0 - side*j for i = 2j); the midpoint of the first
    nonempty intersection whose residual re-checks below eps is the
    answer.  For eps >= sqrt(2), w is capped at pi/2, a stricter test, so
    a hit still satisfies eps.  At most ``MAX_WINDOWS`` windows are covered.

    Only candidate windows are evaluated: those whose centre angle for the
    non-pivot generator of smallest |g_k| lies within w*(1 + |g_k/g_p|),
    plus a written float64 rounding pad, of 2 pi Z (see
    ``_candidate_windows``).  They are the return times of an integer
    rotation, found by ``_first_return`` and stepped by the three-gap
    theorem on each side of m0 and merged into the sweep's order.  Each
    candidate gets the sweep's own float64 test and midpoint, and every
    window the sweep would evaluate is a candidate, so the result, ``t``,
    ``gap``, ``points_scanned`` and ``reason`` included, equals the
    sweep's.  A miss then takes the centre residuals of all windows in one
    numpy pass for ``gap``.  With d = 1, or when the candidates would be
    more than ``_DENSE_SHARE`` of the windows, the numpy sweep evaluates
    every window itself.
    """
    if not eps > 0:
        raise InputError("eps must be positive")
    if not t_max > 0:
        raise InputError("t_max must be positive")
    gens = psi.module.float_values.tolist()
    targets = [2.0 * math.pi * float(t) for t in psi.turns]
    p = max(range(len(gens)), key=lambda k: abs(gens[k]))
    g_p, theta_p = gens[p], targets[p]
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
    # nearer side first
    m_star = -theta_p / (2.0 * math.pi)
    m0 = round(m_star)
    side = 1.0 if m_star >= m0 else -1.0

    windows = _candidate_windows(gens, targets, p, w, m0, int(side), n_windows)
    if windows is None:
        hit, best = _sweep(psi, eps, t_max, p, w, m0, side, n_windows, test=True)
        if hit is not None:
            return hit
        return KroneckerResult(False, None, best, n_windows, eps, t_max, reason)

    two_pi = 2.0 * math.pi
    others = [(gens[k], targets[k]) for k in range(len(gens)) if k != p]
    best = math.inf
    for i, m in windows:
        # the sweep's test on one window, in the same float64 steps; the
        # range bounds come first, and reject the window when c overflows
        c = (theta_p + two_pi * m) / g_p
        lo, hi = max(-half, -t_max - c), min(half, t_max - c)
        for g, th in others:
            phi = (g * c - th + math.pi) % two_pi - math.pi
            a, b = (-w - phi) / g, (w - phi) / g
            if b < a:
                a, b = b, a
            if a > lo:
                lo = a
            if b < hi:
                hi = b
            if not lo < hi:
                break
        else:
            t = c + 0.5 * (lo + hi)
            gap = kronecker_residual(psi, t)
            if gap < eps and abs(t) <= t_max:
                return KroneckerResult(True, t, gap, i + 1, eps, t_max, None)
            best = min(best, gap)
    best = min(best, _sweep(psi, eps, t_max, p, w, m0, side, n_windows, test=False)[1])
    return KroneckerResult(False, None, best, n_windows, eps, t_max, reason)
