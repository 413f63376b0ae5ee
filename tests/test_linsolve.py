import random
from fractions import Fraction

import pytest

from confalg.linsolve import linear_solve, reduce_rows
from confalg.poly import GaussianRational, Inconsistent, MPoly, parse_poly


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
