"""Exact Gaussian elimination over the Gaussian rationals.

The right-hand sides may be polynomials: row operations only ever multiply
them by scalars, so the general solution of ``A x = rhs`` is a particular
vector of polynomials plus the scalar kernel of ``A``.

Internally rows are sparse ``{column: coefficient}`` dictionaries; the
systems produced by the derivation solver are large but extremely sparse.
``reduce_rows`` keeps the pivot rows fully reduced with a column index
(each non-pivot column -> the pivot rows that hold it), so a new pivot
reduces only the rows that hold its column, not every pivot row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .poly import ONE, GaussianRational, Inconsistent, MPoly, ScalarLike

SparseRow = dict[int, GaussianRational]


@dataclass
class Echelon:
    """Reduced row echelon data for a sparse system."""

    ncols: int
    pivots: dict[int, SparseRow]          # pivot column -> normalized row
    pivot_rhs: dict[int, MPoly]           # pivot column -> reduced rhs

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def free_columns(self) -> list[int]:
        return [c for c in range(self.ncols) if c not in self.pivots]

    def kernel_vectors(self) -> dict[int, SparseRow]:
        """Sparse kernel basis: free column -> the vector that is 1 there.

        Pivot rows are fully reduced, so besides their pivot they hold free
        columns only.
        """
        basis = {free: {free: ONE} for free in self.free_columns()}
        for piv, row in self.pivots.items():
            for col, coeff in row.items():
                if col != piv:
                    basis[col][piv] = -coeff
        return basis

    def kernel_basis(self) -> list[list[GaussianRational]]:
        zero = GaussianRational.of(0)
        basis = []
        for vec in self.kernel_vectors().values():
            dense = [zero] * self.ncols
            for col, coeff in vec.items():
                dense[col] = coeff
            basis.append(dense)
        return basis

    def particular_solution(self) -> list[MPoly]:
        sol = [MPoly.zero()] * self.ncols
        for piv in self.pivots:
            sol[piv] = self.pivot_rhs[piv]
        return sol


def reduce_rows(
    rows: Sequence[SparseRow],
    rhs: Sequence[MPoly] | None,
    ncols: int,
) -> Echelon:
    """Run sparse Gauss-Jordan elimination; raises Inconsistent on 0 = rhs.

    Rows hold no zero entries.  Pivot rows stay fully reduced: besides its
    pivot a pivot row holds non-pivot columns only.  So one pass over the
    pivot columns an incoming row hits clears them all, and a new pivot
    needs to reduce only the pivot rows that hold its column, which
    ``holders`` (non-pivot column -> pivot columns whose rows hold it)
    lists; it is updated wherever a pivot-row entry is created or cancels.
    With no ``rhs`` no right-hand side arithmetic is done.
    """
    pivots: dict[int, SparseRow] = {}
    pivot_rhs: dict[int, MPoly] = {}
    holders: dict[int, set[int]] = {}
    zero_poly = MPoly.zero()
    for k, incoming in enumerate(rows):
        row = dict(incoming)
        b = rhs[k] if rhs is not None else zero_poly
        for col in [c for c in row if c in pivots]:
            factor = row.pop(col)
            for c2, v2 in pivots[col].items():
                if c2 == col:
                    continue
                acc = row.get(c2)
                s = (-factor * v2) if acc is None else acc - factor * v2
                if s:
                    row[c2] = s
                elif acc is not None:
                    del row[c2]
            pb = pivot_rhs[col]
            if pb:
                b = b - pb.scale(factor)
        if not row:
            if not b.is_zero():
                raise Inconsistent("linear system has no solution")
            continue
        col = min(row)
        lead = row[col]
        if lead != ONE:
            inv = ONE / lead
            row = {c: v * inv for c, v in row.items()}
            if b:
                b = b.scale(inv)
        for c2 in row:
            if c2 != col:
                holders.setdefault(c2, set()).add(col)
        # keep the pivot rows that hold the new pivot column fully reduced
        for piv in holders.pop(col, ()):
            prow = pivots[piv]
            coeff = prow.pop(col)
            for c2, v2 in row.items():
                if c2 == col:
                    continue
                acc = prow.get(c2)
                if acc is None:
                    prow[c2] = -coeff * v2
                    holders[c2].add(piv)
                    continue
                s = acc - coeff * v2
                if s:
                    prow[c2] = s
                else:
                    del prow[c2]
                    holders[c2].discard(piv)
            if b:
                pivot_rhs[piv] = pivot_rhs[piv] - b.scale(coeff)
        pivots[col] = row
        pivot_rhs[col] = b
    return Echelon(ncols=ncols, pivots=pivots, pivot_rhs=pivot_rhs)


def pin_single_entry_rows(rows: Sequence[SparseRow]) -> list[SparseRow]:
    """The rows with each single-entry row made the unit row of its column,
    that column dropped from every other row, in one pass.

    A single-entry row c e_k spans e_k, and subtracting multiples of e_k
    from the other rows clears column k from them, so the row space and
    with it the reduced row echelon form are unchanged; rows that the
    stripping empties lie in the span of the unit rows and are left out.
    The unit rows come first, one per pinned column in column order, and
    so each enters ``reduce_rows`` as a pivot that no later row touches.
    The input rows are not changed; a row that holds no pinned column is
    passed on as it is (``reduce_rows`` copies every row it reads).
    """
    pinned = {next(iter(row)) for row in rows if len(row) == 1}
    out: list[SparseRow] = [{col: ONE} for col in sorted(pinned)]
    for row in rows:
        if len(row) < 2:
            continue
        if not pinned.isdisjoint(row):
            row = {c: v for c, v in row.items() if c not in pinned}
            if not row:
                continue
        out.append(row)
    return out


@dataclass
class LinearSolution:
    """General solution of ``A x = rhs``: particular + span(kernel)."""

    solution: list[MPoly]
    kernel: list[list[GaussianRational]]


def linear_solve(
    matrix: Sequence[Sequence[ScalarLike]],
    rhs: Sequence[object],
) -> LinearSolution:
    """Solve a scalar-matrix system with polynomial right-hand sides.

    Raises Inconsistent when no solution exists.
    """
    if len(matrix) != len(rhs):
        raise ValueError("matrix and rhs size mismatch")
    ncols = max((len(r) for r in matrix), default=0)
    rows: list[SparseRow] = []
    for r in matrix:
        row: SparseRow = {}
        for j, v in enumerate(r):
            c = GaussianRational.of(v)
            if c:
                row[j] = c
        rows.append(row)
    rhs_polys = [MPoly.of(b) for b in rhs]
    ech = reduce_rows(rows, rhs_polys, ncols)
    return LinearSolution(solution=ech.particular_solution(), kernel=ech.kernel_basis())
