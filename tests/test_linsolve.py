import random
from fractions import Fraction

import pytest

from confalg.catalog import build_chv, build_csv
from confalg.derivations import _lzero_blocks, _make_coords, inner_window_vectors
from confalg.linsolve import linear_solve, pin_single_entry_rows, reduce_rows
from confalg.poly import ONE, GaussianRational, Inconsistent, MPoly, parse_poly


def test_single_equation_with_polynomial_rhs():
    # 2*ap = a + 2, the d*l coefficient comparison
    sol = linear_solve([[2]], [parse_poly("a + 2")])
    assert sol.solution[0] == parse_poly("(1/2)*a + 1")
    assert not sol.kernel


def test_identity_zero_system():
    sol = linear_solve([[1, 0], [0, 1]], [MPoly.zero(), MPoly.zero()])
    assert all(p.is_zero() for p in sol.solution)
    assert not sol.kernel


def test_inconsistent():
    with pytest.raises(Inconsistent):
        linear_solve([[1], [1]], [MPoly.const(1), MPoly.const(2)])


def test_inconsistent_with_symbolic_rhs():
    with pytest.raises(Inconsistent):
        linear_solve([[1], [1]], [parse_poly("a"), parse_poly("a + 1")])


def test_kernel_basis():
    sol = linear_solve([[1, 1, 0]], [MPoly.zero()])
    assert len(sol.kernel) == 2
    for vec in sol.kernel:
        assert sum((v * u for v, u in zip(vec, [1, 1, 0])), GaussianRational.of(0)) == GaussianRational.of(0)


def test_random_solutions_satisfy_system():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        x_true = [
            parse_poly(f"{rng.randint(-3, 3)}*a + {rng.randint(0, 3)}") for _ in range(n)
        ]
        matrix = [
            [Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)
        ]
        rhs = []
        for row in matrix:
            acc = MPoly.zero()
            for coeff, xv in zip(row, x_true):
                acc = acc + xv.scale(coeff)
            rhs.append(acc)
        sol = linear_solve(matrix, rhs)
        for row, b in zip(matrix, rhs):
            acc = MPoly.zero()
            for coeff, xv in zip(row, sol.solution):
                acc = acc + xv.scale(coeff)
            assert acc == b


def _row(values):
    return {j: GaussianRational.of(v) for j, v in enumerate(values) if v}


def test_scalar_rank():
    assert reduce_rows([_row([1, 2]), _row([2, 4]), _row([0, 1])], None, 2).rank == 2
    assert reduce_rows([_row([0, 0])], None, 2).rank == 0


def test_kernel_vectors_are_sparse_kernel_basis():
    rows = [_row([1, 0, 2, 0]), _row([0, 1, -1, 3])]
    ech = reduce_rows(rows, None, 4)
    vectors = ech.kernel_vectors()
    assert vectors == {
        2: {2: GaussianRational.of(1), 0: GaussianRational.of(-2), 1: GaussianRational.of(1)},
        3: {3: GaussianRational.of(1), 1: GaussianRational.of(-3)},
    }
    dense = [[vec.get(j, GaussianRational.of(0)) for j in range(4)] for vec in vectors.values()]
    assert ech.kernel_basis() == dense


# ---------------------------------------------------------------------------
# an independent oracle for reduce_rows: literal dense Gauss-Jordan
# ---------------------------------------------------------------------------


def dense_gauss_jordan(rows, rhs, ncols):
    """Rows in order, each dense over ``ncols`` columns and reduced by every
    pivot row; its first nonzero column is the new pivot, which is then
    cleared from every earlier pivot row.  No sparse index.  Returns the
    pivot rows (sparse, in pivot order) and their right-hand sides."""
    zero = GaussianRational.of(0)
    done = {}
    for k, sparse in enumerate(rows):
        row = [sparse.get(c, zero) for c in range(ncols)]
        b = rhs[k] if rhs is not None else MPoly.zero()
        for p, (prow, pb) in done.items():
            f = row[p]
            if f:
                row = [x - f * y for x, y in zip(row, prow)]
                b = b - pb.scale(f)
        lead = next((c for c in range(ncols) if row[c]), None)
        if lead is None:
            if not b.is_zero():
                raise Inconsistent("0 = rhs")
            continue
        inv = GaussianRational.of(1) / row[lead]
        row, b = [x * inv for x in row], b.scale(inv)
        for p, (prow, pb) in done.items():
            f = prow[lead]
            if f:
                done[p] = ([x - f * y for x, y in zip(prow, row)], pb - b.scale(f))
        done[lead] = (row, b)
    pivots = {p: {c: v for c, v in enumerate(prow) if v} for p, (prow, _) in done.items()}
    return pivots, {p: b for p, (_, b) in done.items()}


def _gauss(rng):
    return GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2))


def random_system(rng):
    """Sparse rows with Gaussian entries, some empty, some combinations of
    earlier rows; a polynomial rhs (consistent or not) or none."""
    ncols = rng.randint(1, 10)
    rows = []
    for _ in range(rng.randint(0, 14)):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
            continue
        if kind < 0.4 and rows:
            terms = [(_gauss(rng), rng.choice(rows)) for _ in range(2)]
            cols = {c for _, r in terms for c in r}
            row = {c: sum((x * r[c] for x, r in terms if c in r), GaussianRational.of(0))
                   for c in cols}
        else:
            row = {c: _gauss(rng) for c in range(ncols) if rng.random() < 0.4}
        rows.append({c: v for c, v in sorted(row.items()) if v})
    shape = rng.random()
    if shape < 0.4:
        return rows, None, ncols
    x = [parse_poly(f"{rng.randint(-2, 2)}*a + {rng.randint(-2, 2)}*b*i") for _ in range(ncols)]
    rhs = [sum((x[c].scale(v) for c, v in row.items()), MPoly.zero()) for row in rows]
    if shape < 0.7 and rhs:
        k = rng.randrange(len(rhs))
        rhs[k] = rhs[k] + parse_poly(f"{rng.randint(-1, 1)} + {rng.randint(0, 1)}*a")
    return rows, rhs, ncols


def assert_matches_oracle(rows, rhs, ncols):
    """``reduce_rows`` gives the oracle's pivots (in key order) and rhs, or
    raises ``Inconsistent`` exactly when it does.  Returns True when both
    raised."""
    try:
        want = dense_gauss_jordan(rows, rhs, ncols)
    except Inconsistent:
        with pytest.raises(Inconsistent):
            reduce_rows(rows, rhs, ncols)
        return True
    ech = reduce_rows(rows, rhs, ncols)
    assert list(ech.pivots) == list(want[0])
    assert ech.pivots == want[0]
    assert ech.pivot_rhs == want[1]
    return False


def test_reduce_rows_matches_dense_gauss_jordan_on_seeded_systems():
    rng = random.Random(2021)
    shapes = {"inconsistent": 0, "rank deficient": 0, "no rhs": 0}
    for _ in range(1200):
        rows, rhs, ncols = random_system(rng)
        before = [dict(r) for r in rows]
        if assert_matches_oracle(rows, rhs, ncols):
            shapes["inconsistent"] += 1
        else:
            rank = reduce_rows(rows, None, ncols).rank
            shapes["rank deficient"] += rank < sum(1 for r in rows if r)
        shapes["no rhs"] += rhs is None
        assert rows == before          # the input rows are not changed
    assert all(count >= 100 for count in shapes.values()), shapes


@pytest.mark.parametrize(
    "weights",
    [(1, 0), (GaussianRational(Fraction(1, 2), 1), GaussianRational(2, -1))],
    ids=["a1", "gauss"],
)
@pytest.mark.parametrize("builder", [build_csv, build_chv], ids=["csv", "chv"])
def test_reduce_rows_matches_dense_gauss_jordan_on_criterion_4_blocks(builder, weights):
    # block 0, B and the inner patterns of the degree-0 solve at bound 4
    spec = builder(*weights)
    coords = _make_coords(spec, 0, 4, 0)
    block_0, block_b = _lzero_blocks(spec, coords)
    patterns = inner_window_vectors(spec, coords)
    kernel = list(reduce_rows(block_0, None, coords.n).kernel_vectors().values())
    for rows in (block_0, block_b, patterns, kernel + patterns):
        assert not assert_matches_oracle(rows, None, coords.n)


# ---------------------------------------------------------------------------
# pinning single-entry rows keeps the reduced row echelon form
# ---------------------------------------------------------------------------


def assert_pinning_keeps_the_echelon(rows, ncols):
    """``pin_single_entry_rows`` puts one unit row per column of a
    single-entry row first, and no later row holds such a column; after it
    ``reduce_rows`` gives the same pivot rows, rank and kernel vectors as on
    ``rows``, which are not changed.  Returns the number of pinned columns."""
    before = [dict(r) for r in rows]
    pinned = pin_single_entry_rows(rows)
    singles = sorted({col for row in rows if len(row) == 1 for col in row})
    assert pinned[:len(singles)] == [{col: ONE} for col in singles]
    rest = pinned[len(singles):]
    assert all(row and set(singles).isdisjoint(row) for row in rest)
    assert len(rest) == sum(1 for row in rows if len(row) > 1 and set(row) - set(singles))
    plain, via = reduce_rows(rows, None, ncols), reduce_rows(pinned, None, ncols)
    assert via.pivots == plain.pivots
    assert via.rank == plain.rank
    assert via.kernel_vectors() == plain.kernel_vectors()
    assert rows == before
    return len(singles)


def single_entry_system(rng):
    """Sparse rows rich in single-entry rows: some repeated or rescaled,
    some rows held on pinned columns only (stripping empties them), now
    and then a system of single-entry rows alone."""
    ncols = rng.randint(1, 10)
    only_singles = rng.random() < 0.15
    rows = []
    for _ in range(rng.randint(1, 14)):
        kind = rng.random()
        singles = [row for row in rows if len(row) == 1]
        if only_singles or kind < 0.35:
            rows.append({rng.randrange(ncols): _gauss(rng) or ONE})
        elif kind < 0.5 and singles:
            (col, value), = rng.choice(singles).items()
            rows.append({col: value * (_gauss(rng) or ONE)})
        elif kind < 0.65 and len(singles) > 1:
            cols = {col for row in singles for col in row}
            rows.append({col: _gauss(rng) or ONE for col in cols})
        else:
            row = {c: _gauss(rng) for c in range(ncols) if rng.random() < 0.4}
            rows.append({c: v for c, v in row.items() if v})
    return rows, ncols


def test_pinning_keeps_the_echelon_on_the_seeded_systems():
    rng = random.Random(2021)
    pinned = 0
    for _ in range(1200):
        rows, _, ncols = random_system(rng)
        pinned += assert_pinning_keeps_the_echelon(rows, ncols) > 0
    assert pinned >= 100


def test_pinning_keeps_the_echelon_on_systems_of_single_entry_rows():
    rng = random.Random(27)
    shapes = {"repeated": 0, "emptied": 0, "all single": 0}
    for _ in range(600):
        rows, ncols = single_entry_system(rng)
        singles = [next(iter(row)) for row in rows if len(row) == 1]
        shapes["repeated"] += len(singles) > len(set(singles))
        shapes["emptied"] += any(len(row) > 1 and set(row) <= set(singles) for row in rows)
        shapes["all single"] += all(len(row) == 1 for row in rows)
        assert_pinning_keeps_the_echelon(rows, ncols)
    assert all(count >= 50 for count in shapes.values()), shapes


@pytest.mark.parametrize(
    "weights",
    [(1, 0), (GaussianRational(Fraction(1, 2), 1), GaussianRational(2, -1)), (Fraction(1, 2), 1)],
    ids=["a1", "gauss", "half"],
)
@pytest.mark.parametrize("builder", [build_csv, build_chv], ids=["csv", "chv"])
def test_pinning_keeps_the_echelon_on_criterion_4_blocks(builder, weights):
    spec = builder(*weights)
    coords = _make_coords(spec, 0, 4, 0)
    for rows in _lzero_blocks(spec, coords):
        assert assert_pinning_keeps_the_echelon(rows, coords.n)
