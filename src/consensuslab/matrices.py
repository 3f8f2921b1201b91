"""Dense primitives for row-stochastic weight matrices and their functionals.

Everything here operates on small dense float64 arrays. Vectors are plain
1-d numpy arrays; the two wrapper classes validate the matrix invariants the
rest of the package relies on. All functions are pure and accept either a
wrapper instance or anything ``np.asarray`` understands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Union

import numpy as np

from .errors import InvalidWeightError, StructureError

# Tolerance for row-sum and nonnegativity checks.
TOL_ROW = 1e-9


def _square(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _freeze(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Row-stochastic weights matrix.

    Invariants, enforced at construction up to ``TOL_ROW``: every entry is
    nonnegative and each row sums to one. The wrapped array is read-only.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = _square(self.entries)
        sums = a.sum(axis=1)
        worst = float(np.max(np.abs(sums - 1.0)))
        if worst > TOL_ROW:
            raise ValueError(f"rows must sum to 1 within {TOL_ROW}, worst deviation {worst:g}")
        if float(a.min()) < -TOL_ROW:
            raise ValueError(f"entries must be nonnegative within {TOL_ROW}, min entry {a.min():g}")
        object.__setattr__(self, "entries", _freeze(a))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.entries)


@dataclass(frozen=True, eq=False)
class RowSumMatrix:
    """Square matrix whose rows all share one sum; entries may be negative."""

    entries: np.ndarray
    common_row_sum: float = field(init=False)

    def __post_init__(self):
        a = _square(self.entries)
        sums = a.sum(axis=1)
        s = float(sums.mean())
        if float(np.max(np.abs(sums - s))) > TOL_ROW:
            raise StructureError(f"row sums must agree within {TOL_ROW}, got {sums}")
        object.__setattr__(self, "entries", _freeze(a))
        object.__setattr__(self, "common_row_sum", s)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


MatrixLike = Union[StochasticMatrix, RowSumMatrix, np.ndarray, Iterable]


def entries_of(mat: MatrixLike) -> np.ndarray:
    """Raw float array behind a matrix wrapper, or the coerced input itself."""
    if isinstance(mat, (StochasticMatrix, RowSumMatrix)):
        return mat.entries
    return np.asarray(mat, dtype=float)


def inf_norm(v) -> float:
    """Max absolute component of a vector."""
    return float(np.max(np.abs(np.asarray(v, dtype=float))))


def matrix_inf_norm(mat: MatrixLike) -> float:
    """Operator infinity norm: the largest absolute row sum.

    Satisfies ``inf_norm(B @ v) <= matrix_inf_norm(B) * inf_norm(v)``.
    """
    a = entries_of(mat)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return float(np.abs(a).sum(axis=1).max())


def weighted_inf_norm(v, beta) -> float:
    """Max of ``|v_i| / beta_i`` for a strictly positive weight vector beta."""
    v = np.asarray(v, dtype=float)
    b = np.asarray(beta, dtype=float)
    if v.shape != b.shape:
        raise ValueError(f"vector and weights must share a shape, got {v.shape} vs {b.shape}")
    if np.any(b <= 0.0) or not np.all(np.isfinite(b)):
        raise InvalidWeightError("weight vector must be strictly positive and finite")
    return float(np.max(np.abs(v) / b))


def oscillation(v) -> float:
    """Spread of a vector: max component minus min component."""
    v = np.asarray(v, dtype=float)
    return float(v.max() - v.min())


def contraction_factor(A: MatrixLike, eps) -> float:
    """Per-step error contraction factor of target-feedback learning.

    Returns ``max_i(|a_ii - eps_i| + 1 - a_ii)``. The value is strictly
    below one exactly when ``0 < eps_i < 2 a_ii`` holds for every agent.
    """
    a = entries_of(A)
    e = np.asarray(eps, dtype=float)
    d = np.diagonal(a)
    if e.shape != d.shape:
        raise ValueError(f"learning rates must have length {d.shape[0]}")
    return float(np.max(np.abs(d - e) + 1.0 - d))


def _max_row_pair_l1(a: np.ndarray) -> float:
    n = a.shape[0]
    if n == 1:
        return 0.0
    worst = 0.0
    for i in range(n - 1):
        d = float(np.abs(a[i + 1 :] - a[i]).sum(axis=1).max())
        if d > worst:
            worst = d
    return worst


def dobrushin(mat: MatrixLike) -> float:
    """Dobrushin coefficient: half the largest L1 distance between two rows.

    Zero exactly when all rows coincide; at most one for a stochastic
    matrix, and strictly below one when all entries are positive. For any
    matrix with equal row sums it contracts the oscillation of a vector:
    ``oscillation(B @ v) <= dobrushin(B) * oscillation(v)``.
    """
    a = entries_of(mat)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    return 0.5 * _max_row_pair_l1(a)


def averaging_map(A: MatrixLike, eps) -> RowSumMatrix:
    """Mean-feedback update matrix ``B = A + E*(mean projector) - E``.

    Parameters
    ----------
    A : row-stochastic weights matrix
    eps : per-agent learning rates toward the current population mean

    Returns
    -------
    RowSumMatrix
        ``B`` with unit row sums. When ``0 < eps_i < n/(n-1) * a_ii`` for
        all agents, ``B`` is additionally stochastic with positive diagonal.
    """
    a = entries_of(A)
    e = np.asarray(eps, dtype=float)
    n = a.shape[0]
    if e.shape != (n,):
        raise ValueError(f"learning rates must have length {n}")
    b = a + e[:, None] / n
    b[np.diag_indices(n)] -= e
    return RowSumMatrix(b)


def product_limit(
    Bs: Union[MatrixLike, Iterable, Callable[[int], MatrixLike]],
    t_max: int,
    rank_one_tol: float = 1e-10,
) -> tuple[RowSumMatrix, bool]:
    """Left-ordered product of update matrices, run until the rows coincide.

    Forms ``P_t = B_t @ ... @ B_1`` (new factors multiply on the left, the
    order in which the dynamics applies them) and stops once the largest
    L1 distance between two rows of ``P_t`` drops below ``rank_one_tol``.

    Parameters
    ----------
    Bs : a single matrix (held fixed), a sequence of matrices, or a
        callable mapping step ``t >= 1`` to a matrix
    t_max : maximum number of factors to absorb
    rank_one_tol : row-coincidence threshold declaring convergence

    Returns
    -------
    (C, converged) : the final product and whether the threshold was met
        before ``t_max`` factors were exhausted. On convergence the rows of
        ``C`` agree numerically and hold the consensus weights.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    steps = t_max
    if callable(Bs) and not isinstance(Bs, (StochasticMatrix, RowSumMatrix)):
        factor = Bs
    elif isinstance(Bs, (StochasticMatrix, RowSumMatrix)) or (
        isinstance(Bs, np.ndarray) and Bs.ndim == 2
    ):
        fixed = entries_of(Bs)
        factor = lambda t: fixed
    else:
        seq = [entries_of(b) for b in Bs]
        if not seq:
            raise ValueError("empty matrix sequence")
        steps = min(t_max, len(seq))
        factor = lambda t, _seq=seq: _seq[t - 1]

    p = None
    converged = False
    for t in range(1, steps + 1):
        b = entries_of(factor(t))
        p = b.copy() if p is None else b @ p
        if _max_row_pair_l1(p) < rank_one_tol:
            converged = True
            break
    return RowSumMatrix(p), converged


def consensus_weights(C: MatrixLike) -> np.ndarray:
    """Consensus functional of a converged product: its first row."""
    return entries_of(C)[0].copy()
