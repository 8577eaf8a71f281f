"""Measures on the truncated character group, as moment data.

A probability measure on the d-torus attached to a frequency module is
pinned down (on a finite symmetric support set F of frequencies) by its
character moments mu_hat(lambda).  The data must be normalized
(mu_hat(0) = 1), Hermitian, and positive definite: every Gram-type matrix
[mu_hat(lambda_i - lambda_j)] with the differences inside F is PSD.

Every ``FSMeasure`` is checked for that on construction.  The maximal
difference cliques of F, and the support position of each pairwise
difference within them, depend only on F, so ``support_index`` builds
them once per support and keeps them in a small LRU cache
(``SUPPORT_INDEX_SIZE`` supports).  A Gram block is then the moment vector
indexed by a precomputed table, and the PSD check is one batched
``eigvalsh`` per clique size.  The cache is bounded because workloads that
draw a fresh support for nearly every measure reuse nothing from it, and
every entry held costs memory.

``haar`` and ``from_point`` skip the Hermitian and PSD checks: Haar
blocks are the identity and a Dirac point's blocks are the rank-one
v v* up to rounding.  ``__init__``, ``mixture`` and the translation
results keep every check.

Translation by t multiplies mu_hat(lambda) by e^{i*lambda*t}, so a measure
is invariant under a set of shifts exactly when the shifts kill every
nonzero moment.  ``uniqueness_verdict`` decides whether some shift
forces each moment to vanish; when every nonzero frequency is killed the
only surviving moment data is the Haar measure's.  Pushforwards,
invariance reports, projections and verdicts take every phase of a
shift from one :class:`bohrlab.frequencies.TurnTable` pass over the
support's coordinates: exact from integer keys for rational, pi and
square-root products, numeric against ``tol`` from fixed-point turns
when an opaque symbol is involved.

``TorusDensity`` realizes moment data concretely as a trigonometric
density on the torus (d <= 2), giving an independent, set-level view of
the same pushforward arithmetic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import kernels
from .bohr import BohrPoint
from .errors import InputError
from .frequencies import (
    Frequency,
    FrequencyModule,
    require_same_module,
    turn_table,
)
from .scalars import (
    Coeff,
    EC_ONE,
    EC_ZERO,
    ExactComplex,
    RealLike,
    as_float,
    c_add,
    c_conj,
    c_mul,
    coeff_of,
)

PSD_TOL = 1e-10
HERMITIAN_TOL = 1e-12
SUPPORT_INDEX_SIZE = 16  # supports whose clique index is kept; see support_index
_COORD_LIMIT = 2**62  # |coord| below this keeps pairwise differences in int64


# ------------------------------------------------------------------
# support sets
# ------------------------------------------------------------------


def box_support(module: FrequencyModule, radius: int) -> tuple[Frequency, ...]:
    """All frequencies with coordinates in [-radius, radius]^d, sorted."""
    if radius < 0:
        raise InputError("radius must be nonnegative")
    coords = [()]
    for _ in range(module.dim):
        coords = [c + (k,) for c in coords for k in range(-radius, radius + 1)]
    return tuple(module.frequency(*c) for c in sorted(coords))


def cross_support(module: FrequencyModule, radius: int = 1) -> tuple[Frequency, ...]:
    """Zero plus +-k times each single generator, k <= radius."""
    out = {module.zero()}
    for j in range(module.dim):
        for k in range(1, radius + 1):
            u = module.unit(j)
            f = module.frequency(*(k * c for c in u.coords))
            out.add(f)
            out.add(-f)
    return tuple(sorted(out, key=lambda f: f.coords))


def check_symmetric_support(freqs) -> tuple[Frequency, ...]:
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


def _positive_half(freqs) -> list[Frequency]:
    return [f for f in freqs if f.coords > tuple(-c for c in f.coords)]


# ------------------------------------------------------------------
# positive definiteness
# ------------------------------------------------------------------


def _maximal_cliques(n: int, adj: list[set[int]]) -> list[list[int]]:
    out: list[list[int]] = []

    def bk(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            out.append(sorted(r))
            return
        pivot = max(p | x, key=lambda v: len(adj[v] & p))
        for v in list(p - adj[pivot]):
            bk(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    bk(set(), set(range(n)), set())
    return out


def _difference_positions(freqs: tuple[Frequency, ...]) -> np.ndarray:
    """(n, n) intp table: the support position of freqs[i] - freqs[j], or -1
    when that difference lies outside the support.  Built on an int64
    coordinate array, so no ``Frequency`` is created or hashed."""
    if any(abs(c) >= _COORD_LIMIT for f in freqs for c in f.coords):
        raise InputError("frequency coordinates must be below 2**62 in absolute value")
    coords = np.array([f.coords for f in freqs], dtype=np.int64)
    n, d = coords.shape
    diffs = (coords[:, None, :] - coords[None, :, :]).reshape(n * n, d)
    _, ids = np.unique(np.concatenate([coords, diffs]), axis=0, return_inverse=True)
    ids = ids.reshape(-1)
    where = np.full(n + n * n, -1, dtype=np.intp)
    where[ids[:n]] = np.arange(n)
    return where[ids[n:]].reshape(n, n)


def _difference_cliques(pos: np.ndarray) -> list[list[int]]:
    """Maximal index sets whose pairwise frequency differences stay in F,
    from the difference table of :func:`_difference_positions`."""
    n = pos.shape[0]
    inside = pos >= 0
    adj = [set() for _ in range(n)]
    for i, j in zip(*np.nonzero(np.triu(inside, 1))):
        adj[i].add(int(j))
        adj[j].add(int(i))
    return _maximal_cliques(n, adj)


@dataclass(frozen=True)
class SupportIndex:
    """The clique structure of one support, shared by every measure on it.

    ``cliques`` are the maximal difference cliques (index lists into the
    support); ``tables[k]`` is the (m, m) intp table of support positions of
    the pairwise differences within clique k, so a Gram block is a moment
    vector indexed by it; ``stacks`` holds the tables grouped by clique size
    as (count, m, m) arrays, one batched eigenvalue call per size.
    """

    cliques: tuple[tuple[int, ...], ...]
    tables: tuple[np.ndarray, ...]
    stacks: tuple[np.ndarray, ...]


@lru_cache(maxsize=SUPPORT_INDEX_SIZE)
def support_index(support: tuple[Frequency, ...]) -> SupportIndex:
    """The :class:`SupportIndex` of a sorted symmetric support.

    The index depends only on the support, so it is cached.  The cache is
    bounded to ``SUPPORT_INDEX_SIZE`` supports: a caller that sees a new
    support for nearly every measure gets no reuse from it, and a larger
    bound only holds more tables in memory.
    """
    pos = _difference_positions(support)
    cliques = tuple(tuple(c) for c in _difference_cliques(pos))
    tables = tuple(pos[np.ix_(c, c)] for c in cliques)
    by_size: dict[int, list[np.ndarray]] = {}
    for t in tables:
        by_size.setdefault(t.shape[0], []).append(t)
    stacks = tuple(np.stack(ts) for _, ts in sorted(by_size.items()))
    for a in (*tables, *stacks):
        a.setflags(write=False)  # shared by every caller through the cache
    return SupportIndex(cliques, tables, stacks)


def _exact_psd(matrix: list[list[ExactComplex]]) -> bool:
    """Rational LDL-with-pivoting test for a Hermitian exact matrix."""
    n = len(matrix)
    a = [row[:] for row in matrix]
    active = list(range(n))
    while active:
        dmax, p = None, None
        for i in active:
            d = a[i][i]
            if d.im != 0:
                return False
            if dmax is None or d.re > dmax:
                dmax, p = d.re, i
        if dmax < 0:
            return False
        if dmax == 0:
            return all(a[i][j].is_zero() for i in active for j in active)
        active.remove(p)
        inv = ExactComplex(Fraction(1) / dmax)
        for i in active:
            for j in active:
                a[i][j] = a[i][j] - a[i][p] * a[p][j] * inv
    return True


class FSMeasure:
    """Moment data mu_hat on a finite symmetric frequency support."""

    __slots__ = ("module", "entries", "support")

    def __init__(self, module: FrequencyModule, entries: dict[Frequency, Coeff]):
        self._build(module, entries, check_symmetric_support(entries.keys()))

    @classmethod
    def _from_checked(cls, module, entries, support) -> "FSMeasure":
        """Build on a ``support`` already returned by
        :func:`check_symmetric_support`; the keys of ``entries`` must be
        exactly its frequencies."""
        mu = cls.__new__(cls)
        mu._build(module, entries, support)
        return mu

    @classmethod
    def _by_construction(cls, module, entries, support) -> "FSMeasure":
        """Adopt moments that are normalized, Hermitian and positive
        definite by construction (Haar, a Dirac point) on a checked
        ``support``: only the frequencies' module is checked."""
        for f in support:
            require_same_module(module, f.module)
        mu = cls.__new__(cls)
        mu.module, mu.entries, mu.support = module, entries, support
        return mu

    def _build(self, module, entries, support) -> None:
        for f in support:
            require_same_module(module, f.module)
        norm = coeff_of(entries[module.zero()])
        if complex(norm) != 1:
            raise InputError("measure is not normalized: mu_hat(0) must equal 1")
        clean: dict[Frequency, Coeff] = {module.zero(): EC_ONE}
        for f in _positive_half(support):
            v = coeff_of(entries[f])
            w = coeff_of(entries[-f])
            if isinstance(v, ExactComplex) and isinstance(w, ExactComplex):
                if w != v.conj():
                    raise InputError(f"moments not Hermitian at {f.coords}")
            elif abs(complex(w) - complex(v).conjugate()) > HERMITIAN_TOL:
                raise InputError(f"moments not Hermitian at {f.coords}")
            clean[f] = v
            clean[-f] = c_conj(v)
        self.module = module
        self.entries = clean
        self.support = support
        defect = self.psd_defect()
        if defect < -PSD_TOL:
            raise InputError(f"moment data is not positive definite (defect {defect:.3e})")

    # -- constructors --------------------------------------------------

    @staticmethod
    def haar(module: FrequencyModule, support) -> "FSMeasure":
        """Moments delta_{lambda,0}: every Gram block is the identity."""
        support = check_symmetric_support(support)
        entries = {f: EC_ONE if f.is_zero() else EC_ZERO for f in support}
        return FSMeasure._by_construction(module, entries, support)

    @staticmethod
    def point_mass_identity(module: FrequencyModule, support) -> "FSMeasure":
        return FSMeasure(module, {f: EC_ONE for f in support})

    @staticmethod
    def from_point(module: FrequencyModule, support, psi: BohrPoint) -> "FSMeasure":
        """Moments of the Dirac measure at psi: mu_hat(lambda) = psi(chi_lambda).

        Every Gram block is the rank-one v v* with v_i = psi(chi_lambda_i),
        up to rounding of float turns, so no PSD check runs."""
        support = check_symmetric_support(support)
        entries: dict[Frequency, Coeff] = {module.zero(): EC_ONE}
        for f in _positive_half(support):
            v = psi.char_value(f)
            entries[f] = v
            entries[-f] = c_conj(v)
        return FSMeasure._by_construction(module, entries, support)

    @staticmethod
    def mixture(parts) -> "FSMeasure":
        """Convex combination of measures sharing one support set."""
        parts = list(parts)
        if not parts:
            raise InputError("mixture needs at least one component")
        module = parts[0][1].module
        support = parts[0][1].support
        total = sum(Fraction(w) if isinstance(w, (int, Fraction)) else w for w, _ in parts)
        if abs(float(total) - 1.0) > 1e-12:
            raise InputError("mixture weights must sum to 1")
        if any(m.support != support for _, m in parts):
            raise InputError("mixture components must share a support set")
        weighted = [(coeff_of(w), m.entries) for w, m in parts]
        entries: dict[Frequency, Coeff] = {}
        for f in support:
            acc: Coeff = EC_ZERO
            for w, moments in weighted:
                acc = c_add(acc, c_mul(w, moments[f]))
            entries[f] = acc
        entries[module.zero()] = EC_ONE
        return FSMeasure(module, entries)

    # -- access ----------------------------------------------------------

    def value(self, freq: Frequency) -> Coeff:
        try:
            return self.entries[freq]
        except KeyError:
            raise InputError(f"moment {freq.coords} is outside the support") from None

    def max_abs_diff(self, other: "FSMeasure") -> float:
        if self.support != other.support:
            raise InputError("measures live on different supports")
        return max(
            abs(complex(self.entries[f]) - complex(other.entries[f]))
            for f in self.support
        )

    def is_exact(self) -> bool:
        return all(isinstance(v, ExactComplex) for v in self.entries.values())

    # -- positive definiteness -------------------------------------------

    def _moment_vector(self) -> np.ndarray:
        """The moments as complex128, in support order."""
        return np.array([complex(self.entries[f]) for f in self.support], dtype=np.complex128)

    def _moment_sizes(self) -> np.ndarray:
        """|mu_hat(lambda)| in support order, each from Python's complex abs."""
        return np.array([abs(self.entries[f]) for f in self.support], dtype=np.float64)

    def gram_blocks(self) -> list[tuple[list[Frequency], np.ndarray]]:
        """One Gram matrix [mu_hat(a - b)] per maximal difference clique."""
        index = support_index(self.support)
        vals = self._moment_vector()
        return [
            ([self.support[i] for i in clique], vals[table])
            for clique, table in zip(index.cliques, index.tables)
        ]

    def psd_defect(self) -> float:
        """Smallest eigenvalue over all maximal Gram blocks (1.0 if none)."""
        vals = self._moment_vector()
        worst = 1.0
        for stack in support_index(self.support).stacks:
            worst = min(worst, float(np.linalg.eigvalsh(vals[stack]).min()))
        return worst

    def exact_psd(self) -> bool | None:
        """Rational-arithmetic PSD certificate; None when entries are floats."""
        if not self.is_exact():
            return None
        vals = [self.entries[f] for f in self.support]
        for table in support_index(self.support).tables:
            if not _exact_psd([[vals[k] for k in row] for row in table.tolist()]):
                return False
        return True

    # -- translation -------------------------------------------------------

    def pushforward(self, t: RealLike) -> "FSMeasure":
        """Image under translation by iota(t): mu_hat(lambda) *= e^{i*lambda*t}."""
        half = _positive_half(self.support)
        phases = turn_table(self.module, t).phases([f.coords for f in half])
        entries: dict[Frequency, Coeff] = {self.module.zero(): EC_ONE}
        for f, p in zip(half, phases):
            v = c_mul(p, self.entries[f])
            entries[f] = v
            entries[-f] = c_conj(v)
        return FSMeasure._from_checked(self.module, entries, self.support)

    def is_invariant(self, shifts, tol: float = 1e-12) -> "InvarianceReport":
        """Moment form of translation invariance: |mu_hat(lambda)| *
        |e^{i*lambda*t} - 1| <= tol for every support frequency and shift.

        The worst violation is the first largest one, shifts in order and
        the support in order within a shift."""
        if tol < 0:
            raise InputError("tolerance must be nonnegative")
        rows = [f.coords for f in self.support]
        sizes = self._moment_sizes()
        worst, worst_f, worst_t = 0.0, None, None
        for t in shifts:
            # fmax drops NaN products, which never count as a violation
            v = np.fmax(sizes * turn_table(self.module, t).chords(rows), 0.0)
            i = int(np.argmax(v))
            if v[i] > worst:
                worst, worst_f, worst_t = float(v[i]), self.support[i], t
        return InvarianceReport(worst <= tol, worst, worst_f, worst_t, tol)

    def project_to_invariant(self, shifts, tol: float = 1e-12) -> "FSMeasure":
        """Zero the moments killed by the shifts (the orbit average), keeping
        the surviving ones untouched."""
        rows = [f.coords for f in self.support]
        killed = np.zeros(len(rows), dtype=bool)
        for t in shifts:
            killed |= ~turn_table(self.module, t).in_two_pi_z(rows, tol)
        entries = {
            f: EC_ZERO if dead else self.entries[f] for f, dead in zip(self.support, killed)
        }
        entries[self.module.zero()] = EC_ONE
        return FSMeasure._from_checked(self.module, entries, self.support)

    def __repr__(self) -> str:
        return f"FSMeasure({len(self.support)} moments over {self.module.dim}-gen module)"


@dataclass(frozen=True)
class InvarianceReport:
    ok: bool
    worst: float
    worst_freq: Frequency | None
    worst_shift: object
    tol: float

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class UniquenessVerdict:
    """Outcome of the shift-set analysis: 'ForcedHaar' when every nonzero
    support frequency is killed by some shift, else 'Undetermined' with the
    surviving frequencies listed."""

    verdict: str
    surviving: tuple[Frequency, ...]
    killers: dict

    @property
    def forced(self) -> bool:
        return self.verdict == "ForcedHaar"

    def __bool__(self) -> bool:
        return self.forced


def uniqueness_verdict(
    module: FrequencyModule, support, shifts, tol: float = 1e-12
) -> UniquenessVerdict:
    """Decide, frequency by frequency, whether the shifts force the moment
    to vanish (lambda*t not a multiple of 2*pi for some shift t).

    The per-frequency decision is exact for rational/pi/square-root data
    and numeric at ``tol`` otherwise.
    """
    support = check_symmetric_support(support)
    for f in support:
        require_same_module(module, f.module)
    rows = [f.coords for f in support]
    killer_at: list = [None] * len(support)
    alive = np.array([not f.is_zero() for f in support])
    for t in shifts:
        if not alive.any():
            break
        hit = alive & ~turn_table(module, t).in_two_pi_z(rows, tol)
        for i in np.flatnonzero(hit):
            killer_at[i] = t
        alive &= ~hit
    surviving = [f for f, a in zip(support, alive) if a]
    killers = {f: k for f, k in zip(support, killer_at) if k is not None}
    verdict = "ForcedHaar" if not surviving else "Undetermined"
    return UniquenessVerdict(verdict, tuple(surviving), killers)


# ------------------------------------------------------------------
# torus densities: the concrete, set-level cross-check model
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
            return kernels.trig_eval_grid(m, cs, th)
        side = max(int(math.isqrt(self.GRID_POINTS)), 2)
        th = np.linspace(0.0, 2.0 * math.pi, side, endpoint=False)
        m1 = np.array([n[0] for n in ns], dtype=np.float64)
        m2 = np.array([n[1] for n in ns], dtype=np.float64)
        return kernels.torus_eval_grid_2d(m1, m2, cs, th, th)

    def min_on_grid(self) -> float:
        return float(np.min(self.eval_grid().real))

    # -- measure operations ----------------------------------------------

    def moments(self, support) -> FSMeasure:
        """Character moments: mu_hat(lambda_n) = c_{-n} (missing ones are 0)."""
        support = check_symmetric_support(support)
        entries: dict[Frequency, Coeff] = {}
        for f in support:
            neg = tuple(-k for k in f.coords)
            entries[f] = self.coeffs.get(neg, EC_ZERO)
        entries[self.module.zero()] = EC_ONE
        return FSMeasure._from_checked(self.module, entries, support)

    def box_measure(self, box) -> float:
        """Measure of a product of angle intervals (radians, width <= 2*pi)."""
        box = list(box)
        if len(box) != self.module.dim:
            raise InputError(f"box must have {self.module.dim} intervals")
        ivs = []
        for lo, hi in box:
            lo, hi = as_float(lo), as_float(hi)
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
        tf = as_float(t)
        gs = self.module.float_values
        moved = [
            (as_float(lo) - tf * float(gs[k]), as_float(hi) - tf * float(gs[k]))
            for k, (lo, hi) in enumerate(box)
        ]
        return self.box_measure(box), self.box_measure(moved)

    def __repr__(self) -> str:
        return f"TorusDensity({len(self.coeffs)} coeffs, d={self.module.dim})"
