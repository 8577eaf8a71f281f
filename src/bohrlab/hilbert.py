"""Finite-rank model of the L^2 space of a moment measure.

Characters indexed by a basis list of frequencies span the model space;
the measure enters through the Gram matrix G[i][j] = mu_hat(lambda_i -
lambda_j).  Translation by t acts diagonally with unit phases, and the
equivalence "translations unitary <=> moments invariant" becomes an exact
matrix identity at this rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ap import APFunction
from .errors import InputError
from .frequencies import Frequency, require_same_module, turn_table
from .measures import FSMeasure, PSD_TOL
from .scalars import Coeff, EC_ZERO, RealLike, c_add, c_conj, c_mul


@dataclass(frozen=True)
class GramOperator:
    basis: tuple[Frequency, ...]
    matrix: np.ndarray

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix).min())

    def identity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - np.eye(len(self.basis)))))


def _basis_positions(mu: FSMeasure, basis: tuple[Frequency, ...]) -> np.ndarray:
    """(m, m) table of the support positions of the basis differences
    lambda_i - lambda_j, found by coordinates; every difference must carry
    a moment."""
    if not basis:
        raise InputError("basis must be nonempty")
    for f in basis:
        require_same_module(mu.module, f.module)
    where = {f.coords: k for k, f in enumerate(mu.support)}
    diffs = [tuple(x - y for x, y in zip(a.coords, b.coords)) for a in basis for b in basis]
    missing = sorted({c for c in diffs if c not in where})
    if missing:
        raise InputError(f"measure is missing moments for differences: {missing}")
    return np.array([where[c] for c in diffs], dtype=np.intp).reshape(len(basis), len(basis))


def gram_matrix(mu: FSMeasure, basis) -> GramOperator:
    """Gram matrix of the character basis under mu; every pairwise
    difference must carry a moment."""
    basis = tuple(basis)
    g = mu._moment_vector()[_basis_positions(mu, basis)]
    op = GramOperator(basis, g)
    if np.max(np.abs(g - g.conj().T)) > 1e-12:
        raise InputError("gram matrix is not Hermitian")
    if op.min_eigenvalue() < -PSD_TOL:
        raise InputError("gram matrix is not positive semidefinite")
    return op


def translation_matrix(t: RealLike, basis) -> np.ndarray:
    """diag(e^{i lambda_k t}): the translation operator in the character basis."""
    basis = tuple(basis)
    for f in basis[1:]:
        require_same_module(basis[0].module, f.module)
    phases = turn_table(basis[0].module, t).phases([f.coords for f in basis]) if basis else []
    return np.diag([complex(p) for p in phases])


@dataclass(frozen=True)
class UnitarityReport:
    ok: bool
    defect: float
    worst_pair: tuple[Frequency, Frequency] | None
    tol: float

    def __bool__(self) -> bool:
        return self.ok


def unitarity_check(mu: FSMeasure, basis, t: RealLike, tol: float = 1e-12) -> UnitarityReport:
    """Max-entry norm of D_t^* G D_t - G.

    Entry (i, j) is mu_hat(delta) (e^{-i delta t} - 1) for delta =
    lambda_i - lambda_j, so its magnitude is exactly the moment-invariance
    violation |mu_hat(delta)| |e^{i delta t} - 1|.
    """
    basis = tuple(basis)
    # The basis Gram matrix is a principal submatrix of a clique block the
    # measure's construction already checked, so membership is all to check.
    pos = _basis_positions(mu, basis).reshape(-1)
    chords = turn_table(mu.module, t).chords([f.coords for f in mu.support])
    v = np.fmax(mu._moment_sizes() * chords, 0.0)[pos]  # fmax drops NaN products
    i = int(np.argmax(v))
    worst = float(v[i])
    pair = (basis[i // len(basis)], basis[i % len(basis)]) if worst > 0.0 else None
    return UnitarityReport(worst <= tol, worst, pair, tol)


def unitarity_defect_matrix(mu: FSMeasure, basis, t: RealLike) -> np.ndarray:
    """The full defect D_t^* G D_t - G, for reports."""
    basis = tuple(basis)
    g = gram_matrix(mu, basis).matrix
    d = translation_matrix(t, basis)
    return d.conj().T @ g @ d - g


def l2_inner(mu: FSMeasure, f: APFunction, g: APFunction) -> Coeff:
    """<f, g> under mu: sum c_lambda conj(d_mu) mu_hat(lambda - mu)."""
    require_same_module(f.module, g.module)
    acc: Coeff = EC_ZERO
    for lf, cf in f.terms():
        for lg, cg in g.terms():
            delta = lf - lg
            if delta not in mu.entries:
                raise InputError(
                    f"measure is missing the moment for difference {delta.coords}"
                )
            acc = c_add(acc, c_mul(c_mul(cf, c_conj(cg)), mu.entries[delta]))
    return acc
