"""The two-piece configuration space: a real line glued to the character
torus.

Functions on the space are direct sums f0 + f_AP of a compactly supported
piecewise-linear part (an exactly translation-closed model of C0) and a
trigonometric polynomial.  Points are either line points or torus
characters; evaluation sends a line point x to f0(x) + f_AP(x) and a
character psi to psi(f_AP), annihilating the C0 part.  The functions
themselves live in :mod:`bohrlab.functions`.

Translation extends to both branches without mixing them, and a finite
measure splits into a line part plus a torus part.  The verifiers here
certify the two halves of the uniqueness argument.  A finite line part
invariant under some t != 0 gives every window [x + k|t|, x + (k+1)|t|)
the same mass, so each window has mass 0: the line part is invariant
exactly when its mass is 0, and otherwise one pair of exact interval
masses witnesses the violation.  The torus part is forced to the Haar
moments by the shift analysis in :mod:`bohrlab.measures`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ap import APFunction
from .bohr import BohrPoint, iota
from .errors import InputError
from .frequencies import FrequencyModule, _shift_terms, require_finite_shift, require_tolerance
from .functions import C0Function, ExtendedFunction
from .measures import (
    FSMeasure,
    InvarianceReport,
    UniquenessVerdict,
    uniqueness_verdict,
)
from .scalars import (
    Coeff,
    ExactComplex,
    PiTimes,
    RealLike,
    as_fraction,
)

MAX_TRIALS = 10_000  # extension_battery trials: about 0.5 ms each


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


@dataclass(frozen=True)
class RInvarianceReport:
    """The line-part verdict for one shift t != 0, by the telescoping
    theorem.

    If a finite measure is invariant under t, the disjoint windows
    [x + k|t|, x + (k+1)|t|), k in Z, all have the same mass, and their
    masses sum to at most the total mass, so each window has mass 0 and so
    does the measure.  The line part is therefore invariant exactly when
    its mass is 0.  Otherwise ``witness`` is I = [a - |t|, a) for the
    leftmost support point a, and the exact masses are ``mass_interval`` =
    mu(I) = 0 and ``mass_shifted`` = mu(I + |t|) > 0.
    """

    invariant: bool
    witness: tuple[Fraction, Fraction] | None
    mass_interval: Fraction
    mass_shifted: Fraction

    def __bool__(self) -> bool:
        return self.invariant


def _is_zero_shift(t: RealLike) -> bool:
    """Whether a shift is exactly 0, decided on its exact terms (a
    ``SymbolicReal`` is 0 exactly when it has none), not on its float."""
    require_finite_shift(t)
    return not any(n for _, n, _ in _shift_terms(t))


def r_part_invariance_verdict(r: RPart, t: RealLike) -> RInvarianceReport:
    """Decide whether the line part is invariant under the shift t != 0 by
    the theorem of :class:`RInvarianceReport`, with two interval masses.

    The witness uses tau = |t| pinned to a Fraction, as the line branch
    pins every shift, and the leftmost support point a: an atom, or the
    first breakpoint, after which the density is positive because
    ``C0Function`` trims zero end segments.  Either way [a, a + tau) has
    positive mass.
    """
    if _is_zero_shift(t):
        raise InputError("shift must be nonzero")
    if r.mass() == 0:
        return RInvarianceReport(True, None, Fraction(0), Fraction(0))
    tau = abs(as_fraction(t))
    if tau == 0:
        raise InputError(
            f"shift {t!r} is nonzero but pins to 0 on the line, so it gives no witness interval"
        )
    a = min([x for x, _ in r.atoms[:1]] + list(r.density.breakpoints[:1]))
    return RInvarianceReport(
        False, (a - tau, a), r.interval_mass(a - tau, a), r.interval_mass(a, a + tau)
    )


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

    def __bool__(self) -> bool:
        return self.verdict != "Violated"


def q_invariance_verdict(mu: QMeasure, shifts, tol: float = 1e-12) -> QInvarianceReport:
    """Combine the line-part elimination with the torus-moment analysis.

    ``ForcedStandard`` requires: the shifts kill every nonzero support
    frequency and the measure's own parts comply: the line part has mass
    exactly 0 and the torus moments are invariant within ``tol``.  So the
    measure is the zero-line-part Haar pair.  A line part of positive mass
    is ``Violated``, with its witness.
    """
    nonzero_shifts = [t for t in shifts if not _is_zero_shift(t)]
    if not nonzero_shifts:
        raise InputError("need at least one nonzero shift")
    r_rep = r_part_invariance_verdict(mu.r_part, nonzero_shifts[0])  # any t != 0 decides it

    bohr_inv = mu.bohr_part.is_invariant(nonzero_shifts, tol)
    uq = uniqueness_verdict(mu.bohr_part.module, mu.bohr_part.support, nonzero_shifts, tol)
    # the Haar moments are 0 off the zero frequency and 1 at it
    sizes = mu.bohr_part._moment_sizes().tolist()
    sizes[len(sizes) // 2] = 0.0
    haar_distance = max(sizes)
    r_mass = float(mu.r_mass())

    if not r_rep.invariant or not bohr_inv.ok:
        verdict = "Violated"
    elif uq.forced:
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
        verdict, r_mass, r_rep.witness, uq, bohr_inv, haar_distance, gram_defect
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
    if trials > MAX_TRIALS:
        raise InputError(f"trials must be at most MAX_TRIALS = {MAX_TRIALS}, got {trials}")
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
