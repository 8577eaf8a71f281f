"""Measures on the truncated character group, as moment data.

A probability measure on the d-torus attached to a frequency module is
pinned down (on a finite symmetric support set F of frequencies) by its
character moments mu_hat(lambda).  The data must be normalized
(mu_hat(0) = 1), Hermitian, and positive definite: every Gram-type matrix
[mu_hat(lambda_i - lambda_j)] with the differences inside F is PSD.

A support is checked once.  ``check_symmetric_support`` returns a
:class:`Support`: the frequencies sorted by coordinates, with their
module, their coordinate rows and a coordinate-to-position map.  Sorted,
a symmetric set's rows read backwards are its negated rows, so the zero
sits in the middle and position n - 1 - i holds -support[i]; the check
compares coordinate tuples only.  A ``Support`` passed back in is
returned as it is, and ``box_support`` and ``cross_support`` build one.

A support also owns what depends on it alone.
``Support.difference_positions`` gives the support position of every
pairwise difference of a list of coordinate rows, looked up in the
position map with Python integers, so coordinates have no size limit;
the Gram blocks here and the Hilbert-space checks both read it.  The
maximal difference cliques of F, with the table of each, form the
support's ``index``, built on first use and kept as long as the support.
A Gram block is then the moment vector indexed by a table, and the PSD
check is one batched ``eigvalsh`` per clique size.

An ``FSMeasure`` keeps its moments in one complex128 vector in support
order, plus an exact sidecar for the positive half: the ``ExactComplex``
value of each entry that is exact, else None.  The negative half is the
conjugate of the positive half, and mu_hat(0) is an exact 1.  An entry is
exact exactly where every term that made it is exact; a float entry in
the vector is the value itself, an exact one is ``complex(v)``, so the
vector and the sidecar agree bit for bit with the per-entry values.
``entries`` is the read-only Frequency-to-moment mapping, built on first
access.

Only ``__init__``, which takes moment data from outside, checks
normalization and Hermitian symmetry; every other construction writes
the positive half and takes the negative half as its conjugate.  One
builder adopts the positive half and runs the PSD check unless the
moments are PSD by construction, which ``FSMeasure.psd_by_construction``
records.  Haar blocks are the identity, and a Dirac point's blocks
(``from_point``, ``point_mass_identity``) are the rank-one v v*.  A
``mixture`` whose parts all carry the flag carries it too: its weights
are checked to be finite, real and nonnegative, so each of its Gram
blocks is a convex combination of the parts' PSD blocks, and its
smallest eigenvalue is at least the weighted sum of theirs.  "By
construction" holds up to the rounding of float Dirac phases and of the
float combination.  ``__init__``, a mixture with any other part, and the
translation and projection results run the PSD check.

Translation by t multiplies mu_hat(lambda) by e^{i*lambda*t}, so a measure
is invariant under a set of shifts exactly when the shifts kill every
nonzero moment.  ``uniqueness_verdict`` decides whether some shift
forces each moment to vanish; when every nonzero frequency is killed the
only surviving moment data is the Haar measure's.  Pushforwards,
invariance reports, projections and verdicts take every phase of a
shift from its :class:`bohrlab.frequencies.TurnTable`, which evaluates
the support's coordinate rows once and keeps that integer view: the
projection, invariance report and verdict of a shift over one support
share one pass.  Decisions are exact from integer keys for rational, pi
and square-root products, and numeric against ``tol`` from fixed-point
turns when an opaque symbol is involved; ``tol`` must be finite and
nonnegative, and a float shift finite.

``TorusDensity`` realizes moment data concretely as a trigonometric
density on the torus (d <= 2), giving an independent, set-level view of
the same pushforward arithmetic.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .bohr import BohrPoint
from .errors import InputError
from .frequencies import (
    Frequency,
    FrequencyModule,
    require_finite_shift,
    require_same_module,
    require_tolerance,
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
    phase_from_turn,
    quarter_phase,
)

PSD_TOL = 1e-10
HERMITIAN_TOL = 1e-12
MAX_BOX_SUPPORT = 2**20  # frequencies a box_support may hold


# ------------------------------------------------------------------
# support sets
# ------------------------------------------------------------------


class Support(tuple):
    """A checked support: frequencies of one module, sorted by coordinates
    and closed under negation, so the zero sits in the middle and
    ``support[n - 1 - i]`` is ``-support[i]``.

    It equals and hashes like the plain tuple of its frequencies.
    ``module`` is their module, ``rows`` their coordinate tuples in order,
    ``position`` maps a coordinate tuple to its index and ``index`` is the
    clique index, built on first use.  Made by
    :func:`check_symmetric_support`, :func:`box_support` and
    :func:`cross_support`.
    """

    def __new__(cls, module: FrequencyModule, freqs, rows: tuple[tuple[int, ...], ...]):
        self = super().__new__(cls, freqs)
        self.module = module
        self.rows = rows
        return self

    @cached_property
    def position(self) -> dict[tuple[int, ...], int]:
        return {r: i for i, r in enumerate(self.rows)}

    def difference_positions(self, rows, strict: bool = False) -> np.ndarray:
        """(k, k) intp table of the support positions of rows[i] - rows[j]
        for k coordinate tuples, -1 where a difference lies outside the
        support; with ``strict``, such a difference is an ``InputError``
        that lists every missing one.  The differences are Python-integer
        tuples looked up in ``position``, so coordinates have no size
        limit."""
        get, sub, k = self.position.get, operator.sub, len(rows)
        pos = [get(tuple(map(sub, a, b)), -1) for a in rows for b in rows]
        table = np.array(pos, dtype=np.intp).reshape(k, k)
        if strict and (table < 0).any():
            missing = {tuple(map(sub, rows[i], rows[j])) for i, j in zip(*np.nonzero(table < 0))}
            raise InputError(f"measure is missing moments for differences: {sorted(missing)}")
        return table

    @cached_property
    def index(self) -> SupportIndex:
        """The :class:`SupportIndex`, shared by every measure on this support."""
        pos = self.difference_positions(self.rows)
        cliques = tuple(tuple(c) for c in _difference_cliques(pos))
        tables = tuple(pos[np.ix_(c, c)] for c in cliques)
        by_size: dict[int, list[np.ndarray]] = {}
        for t in tables:
            by_size.setdefault(t.shape[0], []).append(t)
        stacks = tuple(np.stack(ts) for _, ts in sorted(by_size.items()))
        for a in (*tables, *stacks):
            a.setflags(write=False)  # shared by every measure on the support
        return SupportIndex(cliques, tables, stacks)

    def __reduce__(self):
        # rebuild rather than copy the cached position map and index
        return (check_symmetric_support, (tuple(self),))


def _support(module: FrequencyModule, freqs, rows) -> Support:
    """A :class:`Support` of ``freqs`` sorted by their coordinate ``rows``,
    once the rows read backwards are the negated rows."""
    neg = [tuple(map(operator.neg, r)) for r in rows]
    if neg[::-1] != rows:
        missing = min(set(neg).difference(rows))
        raise InputError(f"support set is not symmetric: missing {missing}")
    return Support(module, freqs, tuple(rows))


def box_support(module: FrequencyModule, radius: int) -> Support:
    """All frequencies with coordinates in [-radius, radius]^d, sorted.

    A box holds (2*radius + 1)^d frequencies; one of more than
    ``MAX_BOX_SUPPORT`` is refused before any is built."""
    if radius < 0:
        raise InputError("radius must be nonnegative")
    if (2 * radius + 1) ** module.dim > MAX_BOX_SUPPORT:
        raise InputError(
            f"a box of radius {radius} over {module.dim} generators exceeds the "
            f"limit of {MAX_BOX_SUPPORT} frequencies"
        )
    rows = list(itertools.product(range(-radius, radius + 1), repeat=module.dim))
    return _support(module, [Frequency(module, r) for r in rows], rows)


def cross_support(module: FrequencyModule, radius: int = 1) -> Support:
    """Zero plus +-k times each single generator, k <= radius."""
    d = module.dim
    rows = {(0,) * d}
    for j in range(d):
        for k in range(1, radius + 1):
            for c in (k, -k):
                rows.add(tuple(c if i == j else 0 for i in range(d)))
    rows = sorted(rows)
    return _support(module, [Frequency(module, r) for r in rows], rows)


def check_symmetric_support(freqs) -> Support:
    """The frequencies as a :class:`Support`; a ``Support`` is returned as
    it is.  Repeats collapse.  The set must be nonempty, share one module,
    hold the zero and be closed under negation; a missing negation is
    reported as the first missing coordinate tuple in sorted order."""
    if isinstance(freqs, Support):
        return freqs
    by_row: dict[tuple[int, ...], Frequency] = {}
    module = None
    for f in freqs:
        if module is None:
            module = f.module
        elif f.module is not module:
            require_same_module(module, f.module)
        by_row[f.coords] = f
    if module is None:
        raise InputError("support set is empty")
    if (0,) * module.dim not in by_row:
        raise InputError("support set must contain the zero frequency")
    rows = sorted(by_row)
    return _support(module, [by_row[r] for r in rows], rows)


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


def _difference_cliques(pos: np.ndarray) -> list[list[int]]:
    """Maximal index sets whose pairwise frequency differences stay in F,
    from a support's own difference table."""
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


# ------------------------------------------------------------------
# the moment vector
# ------------------------------------------------------------------


def _vector(half: np.ndarray, exact: list) -> np.ndarray:
    """The read-only moment vector in support order from its positive
    half: the conjugates reversed, then mu_hat(0) = 1, then ``half``.

    A float conjugate negates the imaginary part, -0.0 included; the
    conjugate of a real exact entry is ``complex(v.conj())``, whose
    imaginary part is +0.0."""
    m = half.size
    vec = np.empty(2 * m + 1, dtype=np.complex128)
    vec[:m] = half[::-1].conj()
    vec[m] = 1.0
    vec[m + 1 :] = half
    vec.imag[[m - 1 - k for k, e in enumerate(exact) if e is not None and not e.im]] = 0.0
    vec.setflags(write=False)
    return vec


def _dirac_moments(turns, coords) -> tuple[np.ndarray, list]:
    """psi(chi_lambda) for each coordinate row, where psi has the given
    turns, as a vector and its exact sidecar: the one-pass form of
    :meth:`BohrPoint.char_value`.

    A float turn is a dyadic rational, so every turn is an exact fraction
    over one common denominator, and the rows' turns sum_k c_k * turn_k
    are one Python-integer product of the coordinate array with the turns'
    numerators (coordinates have no size limit).  Each turn is rounded to
    float once.  As in ``char_value``, a row is exact when its nonzero
    coordinates all meet Fraction turns, and then an ``ExactComplex`` on
    quarter turns; every other phase comes from ``phase_from_turn``.
    """
    ratios = [t.as_integer_ratio() for t in turns]
    den = math.lcm(*(q for _, q in ratios))
    nums = np.array([p * (den // q) for p, q in ratios], dtype=object)
    keys = (np.array(coords, dtype=object).reshape(-1, len(turns)) @ nums) % den
    floats = [k for k, t in enumerate(turns) if isinstance(t, float)]
    values: list[complex] = []
    exact: list[ExactComplex | None] = []
    for row, key in zip(coords, keys.tolist()):
        q, r = divmod(4 * key, den)
        if r or any(row[k] for k in floats):
            values.append(phase_from_turn(key / den))
            exact.append(None)
        else:
            e = quarter_phase(q)
            values.append(complex(e))
            exact.append(e)
    return np.array(values, dtype=np.complex128), exact


def _mixture_weight(w) -> Fraction | float:
    """A mixture weight as a Fraction or a float, checked to be a finite,
    real, nonnegative number."""
    if isinstance(w, (int, Fraction)):
        w = Fraction(w)
    elif not (isinstance(w, float) and math.isfinite(w)):
        raise InputError(f"mixture weight {w!r} is not a finite real number")
    if w < 0:
        raise InputError(f"mixture weight {w!r} is negative")
    return w


def _mixture_half(weights, measures) -> tuple[np.ndarray, list]:
    """sum_k w_k mu_k(lambda) on the positive half of a shared support.

    An entry is exact exactly where every term is: its weight and its
    moment both exact, or its moment an exact zero.  The float entries come
    from a complex128 accumulator updated part by part, in order; the
    exact ones are summed in Fractions and stored as ``complex(v)``.
    """
    m = len(measures[0]._exact)
    half = np.zeros(m, dtype=np.complex128)
    exact_at = np.ones(m, dtype=bool)
    exact_parts = []
    for w, mu in zip(weights, measures):
        if isinstance(w, Fraction):
            if w == 0:
                continue  # every term is an exact zero
            terms = [e is not None for e in mu._exact]
            exact_parts.append((w, mu._exact))
        else:
            terms = [e is not None and e.is_zero() for e in mu._exact]
        exact_at &= np.array(terms, dtype=bool)
        half += float(w) * mu._vec[m + 1 :]
    exact: list[ExactComplex | None] = [None] * m
    for i in np.flatnonzero(exact_at).tolist():
        re = im = Fraction(0)
        for w, vals in exact_parts:
            if vals[i].re:
                re += w * vals[i].re
            if vals[i].im:
                im += w * vals[i].im
        exact[i] = e = ExactComplex(re, im)
        half[i] = complex(e)
    return half, exact


def _coeff_half(values) -> tuple[np.ndarray, list]:
    """The complex128 vector and exact sidecar of a positive half given as
    coefficients."""
    exact = [v if isinstance(v, ExactComplex) else None for v in values]
    return np.array([complex(v) for v in values], dtype=np.complex128), exact


class FSMeasure:
    """Moment data mu_hat on a finite symmetric frequency support.

    ``_vec`` holds the moments as complex128 in support order; ``_exact``
    holds, for each frequency of the positive half in order, its exact
    value or None.
    """

    __slots__ = ("module", "support", "_vec", "_exact", "_psd_by_construction", "_entries")

    def __init__(self, module: FrequencyModule, entries: dict[Frequency, Coeff]):
        """Moment data from outside: mu_hat(0) = 1 and mu_hat(-lambda) =
        conj(mu_hat(lambda)) are checked here, positive definiteness by
        :meth:`_build`; the negative half is then kept as the conjugate of
        the positive half."""
        support = check_symmetric_support(entries.keys())
        m = len(support) // 2
        if complex(coeff_of(entries[support[m]])) != 1:
            raise InputError("measure is not normalized: mu_hat(0) must equal 1")
        half = []
        for f, g in zip(support[m + 1 :], reversed(support[:m])):
            v, w = coeff_of(entries[f]), coeff_of(entries[g])
            if isinstance(v, ExactComplex) and isinstance(w, ExactComplex):
                if w != v.conj():
                    raise InputError(f"moments not Hermitian at {f.coords}")
            elif abs(complex(w) - complex(v).conjugate()) > HERMITIAN_TOL:
                raise InputError(f"moments not Hermitian at {f.coords}")
            half.append(v)
        self._build(module, support, *_coeff_half(half), False)

    def _build(self, module, support: Support, half, exact, by_construction: bool) -> "FSMeasure":
        """Adopt the positive half's complex128 vector ``half`` and exact
        sidecar ``exact`` on a checked support of ``module``, and return the
        measure.  The PSD check runs unless ``by_construction`` is set
        (Haar, a Dirac point, a convex mixture of such measures)."""
        require_same_module(module, support.module)
        self.module = module
        self.support = support
        self._vec = _vector(half, exact)
        self._exact = exact
        self._psd_by_construction = by_construction
        self._entries = None
        if not by_construction:
            defect = self.psd_defect()
            if defect < -PSD_TOL:
                raise InputError(f"moment data is not positive definite (defect {defect:.3e})")
        return self

    @property
    def psd_by_construction(self) -> bool:
        """Whether the moments are positive definite by construction (Haar,
        a Dirac point, or a convex mixture of such measures) rather than by
        the PSD check on this measure's own data."""
        return self._psd_by_construction

    # -- constructors --------------------------------------------------

    @staticmethod
    def haar(module: FrequencyModule, support) -> "FSMeasure":
        """Moments delta_{lambda,0}: every Gram block is the identity."""
        support = check_symmetric_support(support)
        m = len(support) // 2
        half = np.zeros(m, dtype=np.complex128)
        return FSMeasure.__new__(FSMeasure)._build(module, support, half, [EC_ZERO] * m, True)

    @staticmethod
    def point_mass_identity(module: FrequencyModule, support) -> "FSMeasure":
        """The Dirac measure at the identity: every moment, and so every
        entry of every Gram block, is 1."""
        support = check_symmetric_support(support)
        m = len(support) // 2
        half = np.ones(m, dtype=np.complex128)
        return FSMeasure.__new__(FSMeasure)._build(module, support, half, [EC_ONE] * m, True)

    @staticmethod
    def from_point(module: FrequencyModule, support, psi: BohrPoint) -> "FSMeasure":
        """Moments of the Dirac measure at psi: mu_hat(lambda) = psi(chi_lambda).

        Every Gram block is the rank-one v v* with v_i = psi(chi_lambda_i),
        up to rounding of float turns, so no PSD check runs.  The moments
        come from :func:`_dirac_moments` in one pass over the support."""
        support = check_symmetric_support(support)
        require_same_module(module, psi.module)
        half, exact = _dirac_moments(psi.turns, support.rows[len(support) // 2 + 1 :])
        return FSMeasure.__new__(FSMeasure)._build(module, support, half, exact, True)

    @staticmethod
    def mixture(parts) -> "FSMeasure":
        """Convex combination sum_k w_k mu_k of (weight, measure) pairs
        sharing one support set.

        Each weight must be a finite, nonnegative int, Fraction or float,
        and the weights must sum to 1.  When every part is positive
        definite by construction, so is the mixture and no PSD check runs:
        each clique's Gram block is sum_k w_k G_k with PSD blocks G_k, and
        its smallest eigenvalue is at least sum_k w_k times the smallest
        eigenvalue of G_k.  As for ``haar`` and ``from_point``, that holds
        up to the rounding of float Dirac phases and of the float
        combination.  A mixture with any other part gets the PSD check.
        """
        parts = list(parts)
        if not parts:
            raise InputError("mixture needs at least one component")
        weights = [_mixture_weight(w) for w, _ in parts]
        measures = [m for _, m in parts]
        module, support = measures[0].module, measures[0].support
        if abs(float(sum(weights)) - 1.0) > 1e-12:
            raise InputError("mixture weights must sum to 1")
        if any(m.support != support for m in measures):
            raise InputError("mixture components must share a support set")
        half, exact = _mixture_half(weights, measures)
        by_construction = all(m.psd_by_construction for m in measures)
        return FSMeasure.__new__(FSMeasure)._build(module, support, half, exact, by_construction)

    # -- access ----------------------------------------------------------

    def _values(self) -> list[Coeff]:
        """The moments in support order: the exact sidecar's value where
        there is one, else the vector's complex."""
        m = len(self._exact)
        vals = self._vec.tolist()
        for k, e in enumerate(self._exact):
            if e is not None:
                vals[m + 1 + k] = e
                vals[m - 1 - k] = e.conj() if e.im else e
        vals[m] = EC_ONE
        return vals

    @property
    def entries(self) -> MappingProxyType:
        """The moments keyed by frequency, read-only, built on first access."""
        if self._entries is None:
            self._entries = dict(zip(self.support, self._values()))
        return MappingProxyType(self._entries)

    def value(self, freq: Frequency) -> Coeff:
        try:
            return self.entries[freq]
        except KeyError:
            raise InputError(f"moment {freq.coords} is outside the support") from None

    def max_abs_diff(self, other: "FSMeasure") -> float:
        if self.support != other.support:
            raise InputError("measures live on different supports")
        diff = self._vec - other._vec
        return max(np.hypot(diff.real, diff.imag).tolist())

    def is_exact(self) -> bool:
        return all(e is not None for e in self._exact)

    # -- positive definiteness -------------------------------------------

    def _moment_vector(self) -> np.ndarray:
        """The moments as complex128, in support order (read-only)."""
        return self._vec

    def _moment_sizes(self) -> np.ndarray:
        """|mu_hat(lambda)| in support order, as Python's complex abs gives
        them (``np.abs`` on complex128 may differ in the last bit)."""
        return np.hypot(self._vec.real, self._vec.imag)

    def gram_blocks(self) -> list[tuple[list[Frequency], np.ndarray]]:
        """One Gram matrix [mu_hat(a - b)] per maximal difference clique."""
        index = self.support.index
        return [
            ([self.support[i] for i in clique], self._vec[table])
            for clique, table in zip(index.cliques, index.tables)
        ]

    def psd_defect(self) -> float:
        """Smallest eigenvalue over all maximal Gram blocks (1.0 if none)."""
        worst = 1.0
        for stack in self.support.index.stacks:
            worst = min(worst, float(np.linalg.eigvalsh(self._vec[stack]).min()))
        return worst

    def exact_psd(self) -> bool | None:
        """Rational-arithmetic PSD certificate; None when entries are floats."""
        if not self.is_exact():
            return None
        vals = self._values()
        for table in self.support.index.tables:
            if not _exact_psd([[vals[k] for k in row] for row in table.tolist()]):
                return False
        return True

    # -- translation -------------------------------------------------------

    def pushforward(self, t: RealLike) -> "FSMeasure":
        """Image under translation by iota(t): mu_hat(lambda) *= e^{i*lambda*t}."""
        m = len(self._exact)
        phases = turn_table(self.module, t).phases(self.support.rows)[m + 1 :]
        half = [c_mul(p, v) for p, v in zip(phases, self._values()[m + 1 :])]
        mu = FSMeasure.__new__(FSMeasure)
        return mu._build(self.module, self.support, *_coeff_half(half), False)

    def is_invariant(self, shifts, tol: float = 1e-12) -> "InvarianceReport":
        """Moment form of translation invariance: |mu_hat(lambda)| *
        |e^{i*lambda*t} - 1| <= tol for every support frequency and shift.

        The worst violation is the first largest one, shifts in order and
        the support in order within a shift."""
        require_tolerance(tol)
        rows = self.support.rows
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
        the surviving ones untouched, then check the result.

        The result is Hermitian where both frequencies of a pair +-lambda are
        killed or neither is; a pair killed on one side only must carry a
        zero moment (exactly zero, or within ``HERMITIAN_TOL`` for a float)."""
        require_tolerance(tol)
        rows = self.support.rows
        killed = np.zeros(len(rows), dtype=bool)
        for t in shifts:
            killed |= ~turn_table(self.module, t).in_two_pi_z(rows, tol)
        m = len(self._exact)
        pos = killed[m + 1 :]
        half = self._vec[m + 1 :].copy()
        for k in np.flatnonzero(pos != killed[:m][::-1]).tolist():
            e = self._exact[k]
            if abs(complex(half[k])) > HERMITIAN_TOL if e is None else not e.is_zero():
                raise InputError(f"moments not Hermitian at {self.support[m + 1 + k].coords}")
        half[pos] = 0.0
        exact = [EC_ZERO if dead else e for dead, e in zip(pos.tolist(), self._exact)]
        return FSMeasure.__new__(FSMeasure)._build(self.module, self.support, half, exact, False)

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
    require_tolerance(tol)
    shifts = list(shifts)
    for t in shifts:
        require_finite_shift(t)  # the pass below stops once every moment is killed
    support = check_symmetric_support(support)
    require_same_module(module, support.module)
    rows = support.rows
    killer_at: list = [None] * len(support)
    alive = np.ones(len(support), dtype=bool)
    alive[len(support) // 2] = False  # the zero frequency
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
        """Character moments: mu_hat(lambda_n) = c_{-n} (missing ones are 0)."""
        support = check_symmetric_support(support)
        # c_{-lambda} on the positive half: the negative half's rows, read
        # backwards, are the positive half's negated
        negated = reversed(support.rows[: len(support) // 2])
        half = [self.coeffs.get(r, EC_ZERO) for r in negated]
        mu = FSMeasure.__new__(FSMeasure)
        return mu._build(self.module, support, *_coeff_half(half), False)

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
