"""Shared random generators and independent oracles for the test suite."""

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

from bohrlab import (
    APFunction,
    BohrPoint,
    C0Function,
    ExactComplex,
    FSMeasure,
    Frequency,
    FrequencyModule,
    Generator,
    InputError,
    RPart,
)
from bohrlab.bohr import _CHUNK_FIRST, _CHUNK_MAX, MAX_WINDOWS, KroneckerResult, kronecker_residual
from bohrlab.frequencies import turn_table
from bohrlab.measures import HERMITIAN_TOL, PSD_TOL, _maximal_cliques
from bohrlab.scalars import (
    EC_ONE,
    EC_ZERO,
    PI_KEY,
    PRECISION,
    RATIONAL_KEY,
    Coeff,
    PiTimes,
    RealLike,
    SymbolicReal,
    as_fraction,
    c_add,
    c_conj,
    c_mul,
    coeff_of,
    phase_from_turn,
    quarter_phase,
    symbol_kind,
)

# The mpmath oracles below run at the library's working precision unless
# a test asks for more.
mp.mp.dps = PRECISION.dps


def random_exact_coeff(rng, den=8, span=16):
    return ExactComplex(
        Fraction(int(rng.integers(-span, span + 1)), den),
        Fraction(int(rng.integers(-span, span + 1)), den),
    )


def random_exact_ap(module, rng, max_terms=4, radius=3):
    """Random trig polynomial with exact rational coefficients."""
    coeffs = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        coords = tuple(int(c) for c in rng.integers(-radius, radius + 1, module.dim))
        coeffs[module.frequency(*coords)] = random_exact_coeff(rng)
    f = APFunction(module, coeffs)
    if not f.coeffs:  # all sampled coefficients were zero
        f = APFunction.character(module, *([1] + [0] * (module.dim - 1)))
    return f


def random_point(module, rng, exact_prob=0.5):
    turns = []
    for _ in range(module.dim):
        if rng.random() < exact_prob:
            turns.append(Fraction(int(rng.integers(0, 16)), 16))
        else:
            turns.append(float(rng.random()))
    return BohrPoint(module, turns)


def random_psd_measure(module, support, rng, n_atoms=3, haar_weight=None):
    """Convex mixture of Dirac moments plus a Haar component: PSD by
    construction."""
    n = max(1, n_atoms)
    raw = [Fraction(int(w), 1) for w in rng.integers(1, 10, n + 1)]
    total = sum(raw)
    weights = [w / total for w in raw]
    parts = [(weights[0], FSMeasure.haar(module, support))]
    for w in weights[1:]:
        parts.append((w, FSMeasure.from_point(module, support, random_point(module, rng))))
    if haar_weight is not None:
        parts[0] = (haar_weight, parts[0][1])
        rest = sum(w for w, _ in parts[1:])
        parts[1:] = [((1 - haar_weight) * w / rest, m) for w, m in parts[1:]]
    return FSMeasure.mixture(parts)


def random_hat(rng, lo=-8, hi=8, den=8):
    a = Fraction(int(rng.integers(lo * den, hi * den)), den)
    w1 = Fraction(int(rng.integers(1, 3 * den)), den)
    w2 = Fraction(int(rng.integers(1, 3 * den)), den)
    peak = Fraction(int(rng.integers(1, 4 * den)), den)
    return C0Function.hat(a, a + w1, a + w1 + w2, peak)


def random_rpart(rng, n_hats=2, target_mass=None):
    dens = C0Function.zero()
    for _ in range(max(1, n_hats)):
        dens = dens + random_hat(rng)
    r = RPart(dens)
    if target_mass is not None:
        scale = Fraction(target_mass) / r.mass()
        dens = dens.scaled(scale)
        r = RPart(dens)
    return r


def reference_r_part_verdict(r, t, tol=1e-12):
    """The interval scan the telescoping theorem replaced, as (invariant,
    witness): each interval of a spanning family (breakpoint-aligned
    intervals, the window chain of width |t| from the leftmost support point
    and its prefixes) has its mass compared with its |t|-translate's, and
    the largest difference above ``tol`` is the witness."""
    tq = abs(as_fraction(t))
    pts = sorted(set(r.density.breakpoints) | {x for x, _ in r.atoms})
    if not pts or r.mass() == 0:
        return True, None
    a, b = pts[0], pts[-1]
    base = sorted({q for p in pts for q in (p - tq, p, p + tq)})
    candidates = list(zip(base, base[1:]))
    candidates.append((a, b))
    n_windows = min(int(math.ceil(float((b - a) / tq))) + 1, 4000)
    for j in range(n_windows):
        candidates.append((a + j * tq, a + (j + 1) * tq))
        candidates.append((a, a + (j + 1) * tq))
    worst, witness = Fraction(0), None
    for lo, hi in candidates:
        diff = abs(r.interval_mass(lo, hi) - r.interval_mass(lo + tq, hi + tq))
        if diff > worst:
            worst, witness = diff, (lo, hi)
    if float(worst) > tol:
        return False, witness
    return True, None


# ------------------------------------------------------------------
# independent oracles
# ------------------------------------------------------------------


def quad_mean(f, T, n=200_001):
    """Trapezoid quadrature of (1/2T) int_{-T}^{T} f(t) dt, independent of
    the closed-form route."""
    ts = np.linspace(-T, T, n)
    ys = f.eval_grid(ts)
    return complex(np.trapezoid(ys, ts) / (2.0 * T))


def brute_relation(values, bound, tol, chunk=1 << 20):
    """Plain scan oracle for the integer-relation check: the first nonzero
    integer vector n with |n_i| <= bound and |sum n_i v_i| < tol in
    mixed-radix order (first coordinate fastest), or all zeros."""
    d = values.size
    width = 2 * bound + 1
    total = width**d
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        rem = idx.copy()
        dot = np.zeros(idx.size)
        nonzero = np.zeros(idx.size, dtype=bool)
        coords = np.empty((idx.size, d), np.int64)
        for j in range(d):
            c = rem % width - bound
            rem //= width
            coords[:, j] = c
            nonzero |= c != 0
            dot += c * values[j]
        hits = np.nonzero(nonzero & (np.abs(dot) < tol))[0]
        if hits.size:
            return coords[hits[0]].copy()
    return np.zeros(d, np.int64)


def brute_kronecker(gen_values, target_angles, eps, t_lo, t_hi, step, chunk=1 << 16):
    """Plain scan oracle for the simultaneous approximation problem: the
    first grid point t_lo + j*step <= t_hi whose worst chord distance
    max_k |e^{i g_k t} - e^{i theta_k}| is below eps, or None.  The grid is
    scanned in order, a chunk of points at a time; within a chunk, the
    points still in play are tested one coordinate after another."""
    n_points = int((t_hi - t_lo) // step) + 1
    for start in range(0, n_points, chunk):
        t = t_lo + step * np.arange(start, min(start + chunk, n_points))
        for g, th in zip(gen_values, target_angles):
            t = t[2.0 * np.abs(np.sin(0.5 * (g * t - th))) < eps]
        if t.size:
            return float(t[0])
    return None


def reference_window_sweep(psi, eps, t_max):
    """The window sweep that ``kronecker_approx`` evaluated every window
    with before it enumerated candidate windows; its results are the
    oracle for the new path, field for field.

    Search [-t_max, t_max] for t with max_k |e^{i g_k t} - e^{i theta_k}| < eps.

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


# ------------------------------------------------------------------
# one-row readings of a turn table, and the per-frequency phase oracle:
# lambda*t built as one SymbolicReal per frequency and shift, the way the
# library computed every phase before its turn tables
# ------------------------------------------------------------------


def phase_of(freq, t):
    """e^{i*lambda*t} as a coefficient, exact when the turn allows."""
    return turn_table(freq.module, t).phases([freq.coords])[0]


def chord_of(freq, t):
    """|e^{i*lambda*t} - 1| = 2|sin(lambda*t/2)|, exactly 0 for periodic shifts."""
    return float(turn_table(freq.module, t).chords([freq.coords])[0])


def in_two_pi_z(freq, t, tol=1e-12):
    """Whether lambda*t is an integer multiple of 2*pi, from the table."""
    return bool(turn_table(freq.module, t).in_two_pi_z([freq.coords], tol)[0])


def symbol_value(tag):
    """A built-in symbol's value in mpmath, or None if it has none."""
    if tag == RATIONAL_KEY:
        return mp.mpf(1)
    if tag == PI_KEY:
        return +mp.pi
    if tag == "e":
        return +mp.e
    if tag.startswith("sqrt"):
        try:
            n = int(tag[4:])
        except ValueError:
            return None
        if n >= 2:
            return mp.sqrt(n)
    return None


def _mpf(q):
    return mp.mpf(q.numerator) / q.denominator


def mp_value(x):
    """The value of a generator, a frequency or a shift in mpmath, from its
    tags and decimals alone."""
    if isinstance(x, SymbolicReal):
        return sum((_mpf(q) * symbol_value(k) for k, q in x.terms.items()), mp.mpf(0))
    if isinstance(x, PiTimes):
        return _mpf(x.factor) * mp.pi
    if isinstance(x, Frequency):
        return sum((c * mp_value(g) for c, g in zip(x.coords, x.module.generators) if c), mp.mpf(0))
    if isinstance(x, Generator):
        base = symbol_value(x.symbol) if x.symbol is not None else None
        return (mp.mpf(x.decimal) if base is None else base) * _mpf(x.scale)
    if isinstance(x, float):
        return mp.mpf(x)
    return _mpf(as_fraction(x))


def _reference_times_pi(x):
    """x*pi: the rational term becomes the pi term, and every other term
    an opaque "(tag)*pi"."""
    terms = {}
    for k, v in x.terms.items():
        terms[PI_KEY if k == RATIONAL_KEY else "(" + k + ")*pi"] = v
    return SymbolicReal(terms)


def reference_symbolic(freq):
    acc = SymbolicReal.zero()
    for c, g in zip(freq.coords, freq.module.generators):
        if c:
            acc = acc + g.symbolic.scaled(Fraction(c))
    return acc


def _reference_sym_product(a, b):
    def pure_rational(s):
        if all(k == RATIONAL_KEY for k in s.terms):
            return s.terms.get(RATIONAL_KEY, Fraction(0))
        return None

    qa, qb = pure_rational(a), pure_rational(b)
    if qa is not None:
        return b.scaled(qa)
    if qb is not None:
        return a.scaled(qb)
    if set(b.terms) == {PI_KEY}:
        return _reference_times_pi(a.scaled(b.terms[PI_KEY]))
    if set(a.terms) == {PI_KEY}:
        return _reference_times_pi(b.scaled(a.terms[PI_KEY]))
    if set(a.terms) == set(b.terms) and len(a.terms) == 1:
        tag = next(iter(a.terms))
        if tag.startswith("sqrt") and tag[4:].isdigit():
            n = int(tag[4:])
            return SymbolicReal.rational(a.terms[tag] * b.terms[tag] * n)
    tag = "?(" + "|".join(sorted(a.terms)) + ")x(" + "|".join(sorted(b.terms)) + ")"
    return SymbolicReal({tag: Fraction(1)})


def reference_product(freq, t):
    """lambda*t as one SymbolicReal; products outside the exactly
    decidable class degrade to an opaque tag."""
    sym = reference_symbolic(freq)
    if isinstance(t, PiTimes):
        return _reference_times_pi(sym.scaled(t.factor))
    if isinstance(t, SymbolicReal):
        return _reference_sym_product(sym, t)
    return sym.scaled(as_fraction(t))


def reference_turn(freq, t, folded=False):
    x = reference_product(freq, t)
    if all(k == PI_KEY for k in x.terms):
        u = (x.terms.get(PI_KEY, Fraction(0)) / 2) % 1
        return u - 1 if folded and u > Fraction(1, 2) else u
    u = (mp_value(freq) * mp_value(t) / (2 * mp.pi)) % 1
    if folded and u > mp.mpf("0.5"):
        u -= 1
    return float(u)


def reference_chord(freq, t):
    turn = reference_turn(freq, t, folded=True)
    if isinstance(turn, Fraction):
        if turn == 0:
            return 0.0
        turn = float(turn)
    return 2.0 * abs(math.sin(math.pi * turn))


def reference_phase(freq, t):
    return phase_from_turn(reference_turn(freq, t, folded=True))


def reference_exact(x):
    """Whether a symbolic value is exactly decidable: no opaque term."""
    return all(symbol_kind(k) != "opaque" for k in x.terms)


def reference_in_two_pi_z(freq, t, tol=1e-12):
    """Exact when every term is rational, a rational multiple of pi or of
    a squarefree square root; otherwise the distance of value/(2*pi) to the
    nearest integer against ``tol``."""
    x = reference_product(freq, t)
    if reference_exact(x):
        return all(k == PI_KEY and (v / 2).denominator == 1 for k, v in x.terms.items())
    u = mp_value(freq) * mp_value(t) / (2 * mp.pi)
    return abs(u - mp.nint(u)) < tol


# ------------------------------------------------------------------
# per-entry moment builds: how FSMeasure.mixture and from_point computed
# every moment before their one-pass forms
# ------------------------------------------------------------------


def reference_mixture(parts):
    """sum_k w_k mu_k entry by entry through c_mul/c_add, with each weight
    taken as a coefficient, then the fully checked constructor."""
    parts = list(parts)
    module, support = parts[0][1].module, parts[0][1].support
    weighted = [(coeff_of(w), m.entries) for w, m in parts]
    entries = {}
    for f in support:
        acc = EC_ZERO
        for w, moments in weighted:
            acc = c_add(acc, c_mul(w, moments[f]))
        entries[f] = acc
    entries[module.zero()] = EC_ONE
    return FSMeasure(module, entries)


def reference_dirac_moments(support, psi):
    """The Dirac moments at psi: BohrPoint.char_value on each frequency of
    the positive half, its conjugate on the negative half, 1 at zero."""
    entries = {}
    for f in support:
        if f.is_zero():
            entries[f] = EC_ONE
        elif f.coords > tuple(-c for c in f.coords):
            v = psi.char_value(f)
            entries[f] = v
            entries[-f] = c_conj(v)
    return entries


# ------------------------------------------------------------------
# dict-based moment builds: how FSMeasure held its moments before the
# moment vector, one Frequency-keyed dict per measure on a support checked
# with a set
# ------------------------------------------------------------------


def reference_symmetric_support(freqs):
    """The set-based support check: the distinct frequencies sorted by
    coordinates, or the InputError for an empty set, a missing zero or a
    missing negation (which one is reported follows set order)."""
    fset = set(freqs)
    if not fset:
        raise InputError("support set is empty")
    zero = next(iter(fset)).module.zero()
    if zero not in fset:
        raise InputError("support set must contain the zero frequency")
    for f in fset:
        if -f not in fset:
            raise InputError(f"support set is not symmetric: missing {(-f).coords}")
    return tuple(sorted(fset, key=lambda f: f.coords))


@lru_cache(maxsize=256)
def _reference_cliques(support):
    """The maximal cliques of a support, from pairwise Frequency differences
    tested against the support set."""
    fset = set(support)
    n = len(support)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if support[i] - support[j] in fset:
                adj[i].add(j)
                adj[j].add(i)
    return [[support[i] for i in idx] for idx in _maximal_cliques(n, adj)]


def reference_gram_blocks(support, entries):
    """Gram blocks built entry by entry through Frequency arithmetic, each
    entry looked up as entries[a - b]."""
    return [
        (basis, np.array([[complex(entries[a - b]) for b in basis] for a in basis], dtype=np.complex128))
        for basis in _reference_cliques(tuple(support))
    ]


def reference_psd_defect(blocks):
    worst = 1.0
    for _, g in blocks:
        worst = min(worst, float(np.linalg.eigvalsh(g).min()))
    return worst


def _positive_half(support):
    """(f, -f) for each f of the positive half of a sorted symmetric support."""
    m = len(support) // 2
    return list(zip(support[m + 1 :], reversed(support[:m])))


def _hermitian_entries(support, values):
    entries = {support[len(support) // 2]: EC_ONE}
    for (f, g), v in zip(_positive_half(support), values):
        entries[f] = v
        entries[g] = c_conj(v)
    return entries


class ReferenceMeasure:
    """Moments in a Frequency-keyed dict; every array is rebuilt from it."""

    def __init__(self, module, support, entries):
        self.module, self.support, self.entries = module, tuple(support), entries

    def moment_vector(self):
        return np.array([complex(self.entries[f]) for f in self.support], dtype=np.complex128)

    def moment_sizes(self):
        return np.array([abs(self.entries[f]) for f in self.support], dtype=np.float64)

    def gram_blocks(self):
        return reference_gram_blocks(self.support, self.entries)

    def psd_defect(self):
        return reference_psd_defect(self.gram_blocks())

    def is_invariant(self, shifts, tol=1e-12):
        """(ok, worst, worst frequency, worst shift), as InvarianceReport."""
        rows = [f.coords for f in self.support]
        sizes = self.moment_sizes()
        worst, worst_f, worst_t = 0.0, None, None
        for t in shifts:
            v = np.fmax(sizes * turn_table(self.module, t).chords(rows), 0.0)
            i = int(np.argmax(v))
            if v[i] > worst:
                worst, worst_f, worst_t = float(v[i]), self.support[i], t
        return worst <= tol, worst, worst_f, worst_t


def reference_haar(module, support):
    support = reference_symmetric_support(support)
    return ReferenceMeasure(module, support, {f: EC_ONE if f.is_zero() else EC_ZERO for f in support})


def reference_point(module, support, psi):
    """Dirac moments entry by entry: each turn sum_k c_k * turn_k summed in
    Fractions (a float turn taken exactly) and rounded to float once; exact
    on quarter turns when every nonzero coordinate meets a Fraction turn."""
    support = reference_symmetric_support(support)
    values = []
    for f, _ in _positive_half(support):
        turn = sum((Fraction(t) * c for t, c in zip(psi.turns, f.coords)), Fraction(0)) % 1
        exact = all(isinstance(t, Fraction) for t, c in zip(psi.turns, f.coords) if c)
        if exact and (4 * turn).denominator == 1:
            values.append(quarter_phase(int(4 * turn)))
        else:
            values.append(phase_from_turn(float(turn)))
    return ReferenceMeasure(module, support, _hermitian_entries(support, values))


def reference_mix(parts):
    """sum_k w_k mu_k over (Fraction or float weight, ReferenceMeasure)
    pairs: a complex128 accumulator updated part by part, in order, and an
    exact Fraction sum wherever every term is exact (an exact weight and
    moment, or an exact zero moment)."""
    module, support = parts[0][1].module, parts[0][1].support
    half = [f for f, _ in _positive_half(support)]
    acc = np.zeros(len(half), dtype=np.complex128)
    exact = np.ones(len(half), dtype=bool)
    exact_parts = []
    for w, mu in parts:
        vals = [mu.entries[f] for f in half]
        if isinstance(w, Fraction):
            if w == 0:
                continue
            exact_terms = [isinstance(v, ExactComplex) for v in vals]
            exact_parts.append((w, vals))
        else:
            exact_terms = [isinstance(v, ExactComplex) and v.is_zero() for v in vals]
        exact &= np.array(exact_terms, dtype=bool)
        acc += float(w) * np.array([complex(v) for v in vals], dtype=np.complex128)
    out = acc.tolist()
    for i in np.flatnonzero(exact).tolist():
        re = im = Fraction(0)
        for w, vals in exact_parts:
            re += w * vals[i].re
            im += w * vals[i].im
        out[i] = ExactComplex(re, im)
    return ReferenceMeasure(module, support, _hermitian_entries(support, out))


def identity_point(module):
    """The identity of the character group, with exact zero turns."""
    return BohrPoint(module, (Fraction(0),) * module.dim)


def turn_distance(a, b):
    """Max circular distance between the turn vectors of two points (in turns)."""
    gaps = [abs(float(x) - float(y)) % 1.0 for x, y in zip(a.turns, b.turns)]
    return max(min(d, 1.0 - d) for d in gaps)


def point_mass_identity(module, support):
    """The Dirac measure at the identity: every moment is 1."""
    return FSMeasure.from_point(module, support, identity_point(module))


def pushforward(mu, t):
    """The image of mu under translation by iota(t), mu_hat(lambda) *=
    e^{i*lambda*t}, through the checked constructor."""
    phases = turn_table(mu.module, t).phases(mu.support.rows)
    return FSMeasure(mu.module, {f: c_mul(p, mu.entries[f]) for f, p in zip(mu.support, phases)})


def reference_pushforward(mu, t):
    half = [f for f, _ in _positive_half(mu.support)]
    phases = turn_table(mu.module, t).phases([f.coords for f in half])
    values = [c_mul(p, mu.entries[f]) for f, p in zip(half, phases)]
    return ReferenceMeasure(mu.module, mu.support, _hermitian_entries(mu.support, values))


def reference_project(mu, shifts, tol=1e-12):
    """Killed moments set to an exact zero, then the negative half rebuilt
    as the conjugate of the positive half."""
    rows = [f.coords for f in mu.support]
    killed = np.zeros(len(rows), dtype=bool)
    for t in shifts:
        killed |= ~turn_table(mu.module, t).in_two_pi_z(rows, tol)
    entries = {f: EC_ZERO if dead else mu.entries[f] for f, dead in zip(mu.support, killed)}
    values = [entries[f] for f, _ in _positive_half(mu.support)]
    return ReferenceMeasure(mu.module, mu.support, _hermitian_entries(mu.support, values))


def reference_uniqueness_verdict(module, support, shifts, tol=1e-12):
    """(verdict, surviving, killers), as UniquenessVerdict."""
    support = reference_symmetric_support(support)
    rows = [f.coords for f in support]
    killer_at = [None] * len(support)
    alive = np.array([not f.is_zero() for f in support])
    for t in shifts:
        if not alive.any():
            break
        hit = alive & ~turn_table(module, t).in_two_pi_z(rows, tol)
        for i in np.flatnonzero(hit):
            killer_at[i] = t
        alive &= ~hit
    surviving = tuple(f for f, a in zip(support, alive) if a)
    killers = {f: k for f, k in zip(support, killer_at) if k is not None}
    return ("ForcedHaar" if not surviving else "Undetermined"), surviving, killers


# ------------------------------------------------------------------
# torus densities: an independent, set-level route to moments
# ------------------------------------------------------------------


class TorusDensity:
    """Nonnegative trigonometric density on the torus (d <= 2) integrating
    to 1 against the normalized Haar measure."""

    GRID_POINTS = 10_000

    __slots__ = ("module", "coeffs")

    def __init__(self, module: FrequencyModule, coeffs: dict[tuple[int, ...], Coeff]):
        if module.dim > 2:
            raise InputError("torus densities are limited to d <= 2")
        d = module.dim
        zero = (0,) * d
        clean: dict[tuple[int, ...], Coeff] = {}
        for n, c in coeffs.items():
            n = tuple(int(k) for k in n)
            if len(n) != d:
                raise InputError(f"coefficient index {n} has wrong dimension")
            clean[n] = coeff_of(c)
        norm = clean.get(zero, EC_ZERO)
        if complex(norm) != 1:
            raise InputError("density must integrate to 1 (zero coefficient = 1)")
        canon: dict[tuple[int, ...], Coeff] = {zero: EC_ONE}
        seen: set[tuple[int, ...]] = set()
        for n in clean:
            if n == zero:
                continue
            neg = tuple(-k for k in n)
            rep = max(n, neg)
            if rep in seen:
                continue
            seen.add(rep)
            c = clean.get(rep)
            w = clean.get(tuple(-k for k in rep))
            if c is None:
                c = c_conj(w)
            elif w is not None and abs(complex(w) - complex(c).conjugate()) > HERMITIAN_TOL:
                raise InputError(f"density coefficients not Hermitian at {rep}")
            canon[rep] = c
            canon[tuple(-k for k in rep)] = c_conj(c)
        self.module = module
        self.coeffs = canon
        low = self.min_on_grid()
        if low < -PSD_TOL:
            raise InputError(f"density is negative on the torus (min {low:.3e})")

    @staticmethod
    def uniform(module: FrequencyModule) -> "TorusDensity":
        return TorusDensity(module, {(0,) * module.dim: EC_ONE})

    @staticmethod
    def from_amplitude(module: FrequencyModule, amp: dict[tuple[int, ...], Coeff]) -> "TorusDensity":
        """|q|^2 / mean(|q|^2) for a trig polynomial q: nonnegative by
        construction, exact when the amplitude coefficients are exact."""
        amp = {tuple(n): coeff_of(c) for n, c in amp.items()}
        if not amp:
            raise InputError("amplitude must have at least one coefficient")
        total = EC_ZERO
        for c in amp.values():
            total = c_add(total, c_mul(c, c_conj(c)))
        if complex(total) == 0:
            raise InputError("amplitude is identically zero")
        if isinstance(total, ExactComplex):
            inv = ExactComplex(Fraction(1) / total.re)
        else:
            inv = 1.0 / complex(total)
        coeffs: dict[tuple[int, ...], Coeff] = {}
        for n1, c1 in amp.items():
            for n2, c2 in amp.items():
                n = tuple(a - b for a, b in zip(n1, n2))
                term = c_mul(c_mul(c1, c_conj(c2)), inv)
                coeffs[n] = c_add(coeffs.get(n, EC_ZERO), term)
        return TorusDensity(module, coeffs)

    # -- evaluation ------------------------------------------------------

    def _term_arrays(self):
        ns = list(self.coeffs)
        cs = np.array([complex(self.coeffs[n]) for n in ns], dtype=np.complex128)
        return ns, cs

    def eval_grid(self):
        ns, cs = self._term_arrays()
        if self.module.dim == 1:
            th = np.linspace(0.0, 2.0 * math.pi, self.GRID_POINTS, endpoint=False)
            m = np.array([n[0] for n in ns], dtype=np.float64)
            return np.exp(1j * np.outer(th, m)) @ cs
        side = max(int(math.isqrt(self.GRID_POINTS)), 2)
        th = np.linspace(0.0, 2.0 * math.pi, side, endpoint=False)
        m1 = np.array([n[0] for n in ns], dtype=np.float64)
        m2 = np.array([n[1] for n in ns], dtype=np.float64)
        return (np.exp(1j * np.outer(th, m1)) * cs) @ np.exp(1j * np.outer(m2, th))

    def min_on_grid(self) -> float:
        return float(np.min(self.eval_grid().real))

    # -- measure operations ----------------------------------------------

    def moments(self, support) -> FSMeasure:
        """Character moments: mu_hat(lambda_n) = c_{-n} (missing ones are 0),
        through the checked constructor."""
        entries = {f: self.coeffs.get(tuple(-c for c in f.coords), EC_ZERO) for f in support}
        return FSMeasure(self.module, entries)

    def box_measure(self, box) -> float:
        """Measure of a product of angle intervals (radians, width <= 2*pi)."""
        box = list(box)
        if len(box) != self.module.dim:
            raise InputError(f"box must have {self.module.dim} intervals")
        ivs = []
        for lo, hi in box:
            lo, hi = float(lo), float(hi)
            if hi < lo:
                raise InputError("box interval has negative width")
            if hi - lo > 2.0 * math.pi + 1e-12:
                raise InputError("box interval is wider than a full turn")
            ivs.append((lo, hi))
        acc = 0j
        for n, c in self.coeffs.items():
            term = complex(c)
            for k, (lo, hi) in enumerate(ivs):
                m = n[k]
                if m == 0:
                    term *= (hi - lo) / (2.0 * math.pi)
                else:
                    term *= (cmath.exp(1j * m * hi) - cmath.exp(1j * m * lo)) / (
                        2.0 * math.pi * 1j * m
                    )
            acc += term
        return float(acc.real)

    def shifted(self, t: RealLike) -> "TorusDensity":
        """Pushforward density under translation by iota(t)."""
        phases = turn_table(self.module, t).phases(list(self.coeffs))
        coeffs = {n: c_mul(c, c_conj(p)) for (n, c), p in zip(self.coeffs.items(), phases)}
        return TorusDensity(self.module, coeffs)

    def set_invariance_check(self, box, t: RealLike) -> tuple[float, float]:
        """(measure of box, measure of the box translated back by t): equal
        for translation-invariant densities."""
        tf = float(t)
        gs = self.module.float_values
        moved = [
            (float(lo) - tf * float(gs[k]), float(hi) - tf * float(gs[k]))
            for k, (lo, hi) in enumerate(box)
        ]
        return self.box_measure(box), self.box_measure(moved)

    def __repr__(self) -> str:
        return f"TorusDensity({len(self.coeffs)} coeffs, d={self.module.dim})"
