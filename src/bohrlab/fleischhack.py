"""The two-piece configuration space: a real line glued to the character
torus.

Functions on the space are direct sums f0 + f_AP of a compactly supported
piecewise-linear part (an exactly translation-closed model of C0) and a
trigonometric polynomial.  Points are either line points or torus
characters; evaluation sends a line point x to f0(x) + f_AP(x) and a
character psi to psi(f_AP), annihilating the C0 part.

Translation extends to both branches without mixing them, and a finite
measure splits into a line part plus a torus part.  The verifiers here
certify the two halves of the uniqueness argument: a nonzero finite line
part cannot be translation invariant (its window masses would telescope
to infinity), and the torus part is forced to the Haar moments by the
shift analysis in :mod:`bohrlab.measures`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ap import APFunction
from .bohr import BohrPoint, iota
from .errors import InputError
from .frequencies import FrequencyModule, require_tolerance
from .measures import (
    FSMeasure,
    InvarianceReport,
    UniquenessVerdict,
    uniqueness_verdict,
)
from .scalars import (
    Coeff,
    EC_ZERO,
    ExactComplex,
    PiTimes,
    RealLike,
    as_fraction,
    c_add,
)

R_MASS_TOL = 1e-12


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

    def sup_norm(self) -> float:
        # |f| along a segment is convex, so the max sits at a breakpoint
        return max((abs(v) for v in self.values), default=0.0)

    def max_slope(self) -> float:
        worst = 0.0
        for (a, b), (va, vb) in zip(
            zip(self.breakpoints, self.breakpoints[1:]),
            zip(self.values, self.values[1:]),
        ):
            worst = max(worst, abs(vb - va) / float(b - a))
        return worst

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

    @staticmethod
    def pure_c0(c0: C0Function, module: FrequencyModule) -> "ExtendedFunction":
        return ExtendedFunction(c0, APFunction.zero(module))

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


# ------------------------------------------------------------------
# points and the extended action
# ------------------------------------------------------------------


@dataclass(frozen=True)
class RealPoint:
    """A point on the line branch; the coordinate is pinned to a Fraction."""

    x: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", as_fraction(self.x))


QPoint = RealPoint | BohrPoint


def xi_eval(p: QPoint, f: ExtendedFunction) -> Coeff:
    """Evaluate a point of the glued space on a direct-sum function.

    Line points see both parts; torus characters annihilate the C0 part.
    """
    if isinstance(p, RealPoint):
        return f.eval_real(p.x)
    if isinstance(p, BohrPoint):
        return p.eval_ap(f.ap)
    raise InputError(f"not a point of the glued space: {p!r}")


def theta_tilde(t: RealLike, p: QPoint) -> QPoint:
    """Translation extended to both branches; tags never change."""
    if isinstance(p, RealPoint):
        return RealPoint(p.x + as_fraction(t))
    if isinstance(p, BohrPoint):
        return iota(p.module, t) * p
    raise InputError(f"not a point of the glued space: {p!r}")


@dataclass(frozen=True)
class AgreementReport:
    ok: bool
    residual: float
    tol: float

    def __bool__(self) -> bool:
        return self.ok


def extension_agreement_check(
    t: RealLike, p: QPoint, f: ExtendedFunction, tol: float = 1e-10
) -> AgreementReport:
    """Compare evaluating after moving the point against evaluating the
    pulled-back function at the original point.

    The line-point/pure-C0 case is exact rational arithmetic on both
    routes, so its residual is exactly zero.
    """
    require_tolerance(tol)
    a = xi_eval(theta_tilde(t, p), f)
    b = xi_eval(p, f.translate(t))
    if isinstance(a, ExactComplex) and isinstance(b, ExactComplex):
        diff = a - b
        residual = 0.0 if diff.is_zero() else abs(diff)
    else:
        residual = abs(complex(a) - complex(b))
    return AgreementReport(residual <= tol, residual, tol)


# ------------------------------------------------------------------
# topology basis sets
# ------------------------------------------------------------------


@dataclass(frozen=True)
class OpenReal:
    """Finite union of open real intervals, paired with the empty torus set."""

    intervals: tuple[tuple[Fraction, Fraction], ...]


@dataclass(frozen=True)
class CompactComplement:
    """Complement of a finite union of closed intervals, plus the whole torus."""

    intervals: tuple[tuple[Fraction, Fraction], ...]


@dataclass(frozen=True)
class FunctionPreimage:
    """Preimage of a finite union of open complex disks under a function."""

    f: ExtendedFunction
    disks: tuple[tuple[Coeff, RealLike], ...]


BasisSet = OpenReal | CompactComplement | FunctionPreimage


def _intervals_exact(intervals):
    return tuple((as_fraction(a), as_fraction(b)) for a, b in intervals)


def _in_disk(value: Coeff, center, radius) -> bool:
    if (
        isinstance(value, ExactComplex)
        and isinstance(center, ExactComplex)
        and isinstance(radius, (int, Fraction))
    ):
        diff = value - center
        return diff.abs2() < Fraction(radius) ** 2
    return abs(complex(value) - complex(center)) < float(radius)


def topology_membership(p: QPoint, basis: BasisSet) -> bool:
    if isinstance(basis, OpenReal):
        if not isinstance(p, RealPoint):
            return False
        return any(a < p.x < b for a, b in _intervals_exact(basis.intervals))
    if isinstance(basis, CompactComplement):
        if not isinstance(p, RealPoint):
            return True
        return not any(a <= p.x <= b for a, b in _intervals_exact(basis.intervals))
    if isinstance(basis, FunctionPreimage):
        value = xi_eval(p, basis.f)
        return any(_in_disk(value, c, r) for c, r in basis.disks)
    raise InputError(f"not a basis set: {basis!r}")


# ------------------------------------------------------------------
# measures on the glued space
# ------------------------------------------------------------------


class RPart:
    """Finite measure on the line: a nonnegative piecewise-linear density
    plus finitely many atoms."""

    __slots__ = ("density", "atoms")

    def __init__(self, density: C0Function, atoms=()):
        for v in density.values:
            if v.im != 0 or v.re < 0:
                raise InputError("line density must be real and nonnegative")
        cleaned = []
        seen = set()
        for x, m in atoms:
            xq, mq = as_fraction(x), Fraction(m)
            if mq <= 0:
                raise InputError("atom masses must be positive")
            if xq in seen:
                raise InputError("duplicate atom position")
            seen.add(xq)
            cleaned.append((xq, mq))
        self.density = density
        self.atoms = tuple(sorted(cleaned))

    @staticmethod
    def zero() -> "RPart":
        return RPart(C0Function.zero())

    def mass(self) -> Fraction:
        total = self.density.integral().re
        for _, m in self.atoms:
            total += m
        return total

    def interval_mass(self, lo: Fraction, hi: Fraction) -> Fraction:
        """Mass of the half-open interval [lo, hi)."""
        lo, hi = as_fraction(lo), as_fraction(hi)
        if hi <= lo:
            return Fraction(0)
        total = Fraction(0)
        bps, vals = self.density.breakpoints, self.density.values
        for i in range(len(bps) - 1):
            a, b = max(bps[i], lo), min(bps[i + 1], hi)
            if a < b:
                va, vb = self.density.eval_exact(a).re, self.density.eval_exact(b).re
                if a == bps[i]:
                    va = vals[i].re
                if b == bps[i + 1]:
                    vb = vals[i + 1].re
                total += Fraction(va + vb, 2) * (b - a)
        for x, m in self.atoms:
            if lo <= x < hi:
                total += m
        return total

    def support_points(self) -> list[Fraction]:
        pts = list(self.density.breakpoints)
        pts.extend(x for x, _ in self.atoms)
        return sorted(set(pts))


@dataclass(frozen=True)
class RInvarianceReport:
    """Outcome of the line-part shift test over the spanning interval family.

    ``invariant`` certifies equality of interval masses on the family only;
    combined with the telescoping chain this pins any invariant finite
    measure to zero mass.
    """

    invariant: bool
    witness: tuple[Fraction, Fraction] | None
    mass_interval: Fraction
    mass_shifted: Fraction
    max_diff: float
    intervals_checked: int

    def __bool__(self) -> bool:
        return self.invariant


_CHAIN_CAP = 4000


def r_part_invariance_verdict(r: RPart, t: RealLike, tol: float = R_MASS_TOL) -> RInvarianceReport:
    """Compare interval masses against their t-translates over a spanning
    family: breakpoint-aligned intervals, the window chain of width t, and
    its prefixes."""
    require_tolerance(tol)
    tq = abs(as_fraction(t))
    if tq == 0:
        raise InputError("shift must be nonzero")
    pts = r.support_points()
    if not pts or r.mass() == 0:
        return RInvarianceReport(True, None, Fraction(0), Fraction(0), 0.0, 0)
    a, b = pts[0], pts[-1]

    candidates: list[tuple[Fraction, Fraction]] = []
    base = sorted({q for p in pts for q in (p - tq, p, p + tq)})
    candidates.extend((p, q) for p, q in zip(base, base[1:]))
    candidates.append((a, b))
    n_windows = min(int(math.ceil(float((b - a) / tq))) + 1, _CHAIN_CAP)
    for j in range(n_windows):
        candidates.append((a + j * tq, a + (j + 1) * tq))
        candidates.append((a, a + (j + 1) * tq))

    worst = Fraction(0)
    witness = None
    masses = (Fraction(0), Fraction(0))
    for lo, hi in candidates:
        m1 = r.interval_mass(lo, hi)
        m2 = r.interval_mass(lo + tq, hi + tq)
        diff = abs(m1 - m2)
        if diff > worst:
            worst, witness, masses = diff, (lo, hi), (m1, m2)
    if float(worst) > tol:
        return RInvarianceReport(False, witness, masses[0], masses[1], float(worst), len(candidates))
    return RInvarianceReport(True, None, masses[0], masses[1], float(worst), len(candidates))


class QMeasure:
    """Measure on the glued space: a finite line part plus a weighted
    normalized torus part, with total mass 1."""

    __slots__ = ("r_part", "bohr_part", "bohr_weight")

    def __init__(self, r_part: RPart, bohr_part: FSMeasure):
        r_mass = r_part.mass()
        if r_mass < 0 or r_mass > 1:
            raise InputError("line-part mass must lie in [0, 1]")
        self.r_part = r_part
        self.bohr_part = bohr_part
        self.bohr_weight = Fraction(1) - r_mass

    @staticmethod
    def standard(module: FrequencyModule, support) -> "QMeasure":
        """Zero line part plus the Haar moments: the standard choice."""
        return QMeasure(RPart.zero(), FSMeasure.haar(module, support))

    def r_mass(self) -> Fraction:
        return self.r_part.mass()


@dataclass(frozen=True)
class QInvarianceReport:
    verdict: str  # ForcedStandard | Violated | Undetermined
    r_mass: float
    r_witness: tuple[Fraction, Fraction] | None
    bohr_verdict: UniquenessVerdict
    bohr_invariance: InvarianceReport
    haar_distance: float
    gram_identity_defect: float | None

    @property
    def forced_standard(self) -> bool:
        return self.verdict == "ForcedStandard"

    def __bool__(self) -> bool:
        return self.verdict != "Violated"


def q_invariance_verdict(mu: QMeasure, shifts, tol: float = 1e-12) -> QInvarianceReport:
    """Combine the line-part elimination with the torus-moment analysis.

    ``ForcedStandard`` requires: the shifts kill every nonzero support
    frequency, the measure's own parts comply (line part of negligible
    mass and invariant, torus moments invariant), so the measure is the
    zero-line-part Haar pair within tolerance.
    """
    shifts = list(shifts)
    nonzero_shifts = [t for t in shifts if as_fraction(t) != 0]
    if not nonzero_shifts:
        raise InputError("need at least one nonzero shift")

    r_witness = None
    r_ok = True
    for t in nonzero_shifts:
        rep = r_part_invariance_verdict(mu.r_part, t, tol)
        if not rep.invariant:
            r_ok, r_witness = False, rep.witness
            break

    bohr_inv = mu.bohr_part.is_invariant(nonzero_shifts, tol)
    uq = uniqueness_verdict(mu.bohr_part.module, mu.bohr_part.support, nonzero_shifts, tol)
    haar = FSMeasure.haar(mu.bohr_part.module, mu.bohr_part.support)
    haar_distance = mu.bohr_part.max_abs_diff(haar)
    r_mass = float(mu.r_mass())

    if not r_ok or not bohr_inv.ok:
        verdict = "Violated"
    elif uq.forced and r_mass <= tol:
        verdict = "ForcedStandard"
    else:
        verdict = "Undetermined"

    gram_defect = None
    if verdict == "ForcedStandard":
        gram_defect = max(
            float(np.max(np.abs(g - np.eye(g.shape[0]))))
            for _, g in mu.bohr_part.gram_blocks()
        )
    return QInvarianceReport(
        verdict, r_mass, r_witness, uq, bohr_inv, haar_distance, gram_defect
    )


# ------------------------------------------------------------------
# randomized agreement battery (used by the CLI verifier)
# ------------------------------------------------------------------


def extension_battery(
    module: FrequencyModule,
    trials: int = 1000,
    tol: float = 1e-10,
    seed: int = 0,
) -> tuple[bool, float, int]:
    """Run random (t, point, function) agreement checks on both branches.

    Returns (all_passed, worst_residual, exact_zero_count).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    exact_zero = 0
    d = module.dim
    for k in range(trials):
        kind = k % 3
        if kind == 0:
            t: RealLike = float(rng.uniform(-5.0, 5.0))
        elif kind == 1:
            t = Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 12)))
        else:
            t = PiTimes(Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 5))))

        c0 = C0Function.zero()
        for _ in range(int(rng.integers(0, 3))):
            a = Fraction(int(rng.integers(-60, 40)), 8)
            w1 = Fraction(int(rng.integers(1, 17)), 8)
            w2 = Fraction(int(rng.integers(1, 17)), 8)
            peak = Fraction(int(rng.integers(-12, 13)), 4)
            if peak != 0:
                c0 = c0 + C0Function.hat(a, a + w1, a + w1 + w2, peak)
        coeffs = {}
        for _ in range(int(rng.integers(0, 4))):
            coords = tuple(int(c) for c in rng.integers(-3, 4, size=d))
            coeffs[module.frequency(*coords)] = ExactComplex(
                Fraction(int(rng.integers(-8, 9)), 4),
                Fraction(int(rng.integers(-8, 9)), 4),
            )
        f = ExtendedFunction(c0, APFunction(module, coeffs))

        if k % 2 == 0:
            p: QPoint = RealPoint(Fraction(float(rng.uniform(-10.0, 10.0))))
        else:
            turns = [
                Fraction(int(rng.integers(0, 8)), 8) if rng.random() < 0.5
                else float(rng.random())
                for _ in range(d)
            ]
            p = BohrPoint(module, turns)

        rep = extension_agreement_check(t, p, f, tol)
        if rep.residual == 0.0:
            exact_zero += 1
        worst = max(worst, rep.residual)
        if not rep.ok:
            return False, worst, exact_zero
    return True, worst, exact_zero
