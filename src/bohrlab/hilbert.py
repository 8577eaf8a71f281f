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

from .errors import InputError
from .frequencies import Frequency, require_same_module, require_tolerance, turn_table
from .measures import FSMeasure, PSD_TOL
from .scalars import RealLike


@dataclass(frozen=True)
class GramOperator:
    basis: tuple[Frequency, ...]
    matrix: np.ndarray

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix).min())


def _basis_rows(mu: FSMeasure, basis: tuple[Frequency, ...]) -> list[tuple[int, ...]]:
    """The coordinate rows of a nonempty basis over the measure's module."""
    if not basis:
        raise InputError("basis must be nonempty")
    for f in basis:
        require_same_module(mu.module, f.module)
    return [f.coords for f in basis]


def gram_matrix(mu: FSMeasure, basis) -> GramOperator:
    """Gram matrix of the character basis under mu; every pairwise
    difference must carry a moment."""
    basis = tuple(basis)
    pos = mu.support.difference_positions(_basis_rows(mu, basis), strict=True)
    g = mu._vec[pos]
    op = GramOperator(basis, g)
    if np.max(np.abs(g - g.conj().T)) > 1e-12:
        raise InputError("gram matrix is not Hermitian")
    if op.min_eigenvalue() < -PSD_TOL:
        raise InputError("gram matrix is not positive semidefinite")
    return op


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
    require_tolerance(tol)
    basis = tuple(basis)
    # The basis Gram matrix is a principal submatrix of a clique block the
    # measure's construction already checked, so membership is all to check.
    pos = mu.support.difference_positions(_basis_rows(mu, basis), strict=True).reshape(-1)
    chords = turn_table(mu.module, t).chords(mu.support.rows)
    v = np.fmax(mu._moment_sizes() * chords, 0.0)[pos]  # fmax drops NaN products
    i = int(np.argmax(v))
    worst = float(v[i])
    pair = (basis[i // len(basis)], basis[i % len(basis)]) if worst > 0.0 else None
    return UnitarityReport(worst <= tol, worst, pair, tol)

