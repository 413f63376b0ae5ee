import random
from fractions import Fraction
from itertools import product

import pytest

from confalg.catalog import (
    build_algebra,
    build_chv,
    build_construction,
    build_csv,
    build_cvir,
    build_cw,
    build_hv,
    build_sv,
    build_tsv_lie,
    LieAlgebraSpec,
    lie_jacobi_check,
    lie_symbolic_check,
    restrict_families,
    solve_construction,
    subalgebra_check,
)
from confalg.lca import check_all_axioms, check_jacobi
from confalg.poly import MPoly, parse_poly

P = parse_poly


class TestBuilders:
    def test_csv_loop_schroedinger_virasoro_point(self):
        spec = build_csv(1, 0)
        assert dict(spec.table[("L", "Y")]) == {"Y": P("d + (3/2)*l")}

    def test_csv_lm_at_origin(self):
        assert dict(build_csv(0, 0).table[("L", "M")]) == {"M": P("d")}

    def test_chv_heisenberg_virasoro_point(self):
        spec = build_chv(1, 0)
        assert set(spec.families) == {"L", "M"}
        assert dict(spec.table[("L", "M")]) == {"M": P("d + l")}
        assert dict(spec.table[("L", "L")]) == {"L": P("d + 2*l")}

    def test_cw(self):
        spec = build_cw()
        assert spec.families == ("L",)
        assert dict(spec.table[("L", "L")]) == {"L": P("d + 2*l")}

    def test_construction_specializes_to_csv(self):
        free = build_construction("sym", P("(1/2)*a + 1"), "sym", P("(1/2)*b"))
        csv = build_csv("sym", "sym")
        assert dict(free.table) == dict(csv.table)

    def test_small_algebras_pass_axioms(self):
        for spec in (build_sv("sym", "sym"), build_hv("sym", "sym"), build_cvir()):
            assert check_all_axioms(spec).all_zero

    def test_restrictions_pass_axioms_symbolically(self):
        assert check_all_axioms(build_chv("sym", "sym")).all_zero
        assert check_all_axioms(build_cw()).all_zero

    def test_registry(self):
        for ident in ("csv", "chv", "cw", "sv", "hv", "cvir", "mfam"):
            spec = build_algebra(ident, a=1, b=0)
            assert spec.name == ident
        with pytest.raises(ValueError):
            build_algebra("nope")


class TestSubalgebras:
    def test_cw_inside_csv(self):
        # the L-on-L template is weight-independent, so cw sits in every csv
        assert subalgebra_check(build_csv("sym", "sym"), build_cw()) is True
        assert subalgebra_check(build_csv(0, 0), build_cw()) is True

    def test_chv_inside_csv(self):
        assert subalgebra_check(build_csv("sym", "sym"), build_chv("sym", "sym"))

    def test_my_restriction_closed(self):
        csv = build_csv("sym", "sym")
        sub = restrict_families(csv, ["M", "Y"], "my")
        assert subalgebra_check(csv, sub) is True

    def test_ly_restriction_not_closed(self):
        csv = build_csv("sym", "sym")
        sub = restrict_families(csv, ["L", "Y"], "ly")
        assert subalgebra_check(csv, sub) is False

    def test_cvir_inside_chv(self):
        assert subalgebra_check(build_chv(0, 0), build_cvir()) is True


class TestConstructionSolver:
    def test_unique_weights(self):
        sol = solve_construction()
        assert sol.ap == P("(1/2)*a + 1")
        assert sol.bp == P("(1/2)*b")

    def test_restricted_equations_same_solution(self):
        sol = solve_construction(restrict_to=["d*l", "d"])
        assert sol.ap == P("(1/2)*a + 1")
        assert sol.bp == P("(1/2)*b")

    @pytest.mark.parametrize("names, unmatched", [
        (["d^9"], "['d^9']"),
        (["d*l", "x", "d"], "['x']"),
        ([], "[]"),
    ], ids=["none-match", "one-unmatched", "empty"])
    def test_unmatched_monomials_are_refused(self, names, unmatched):
        with pytest.raises(ValueError) as err:
            solve_construction(restrict_to=names)
        assert str(err.value) == (
            f"restrict_to: monomials {unmatched} match no equation of the (L, Y, Y) "
            "Jacobi residual"
        )

    def test_solution_passes_all_axioms(self):
        sol = solve_construction()
        spec = build_construction("sym", sol.ap, "sym", sol.bp)
        assert check_all_axioms(spec).all_zero

    def test_necessity_sampled(self):
        rng = random.Random(404)
        for _ in range(20):
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            ap = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            bp = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            if ap == a / 2 + 1 and bp == b / 2:
                continue
            spec = build_construction(a, ap, b, bp)
            assert not check_jacobi(spec, "L", "Y", "Y").is_zero()


def _family_tuples(report):
    return (
        {f[0:4:2] for f in report.antisymmetry_failures},
        {f[0:6:2] for f in report.jacobi_failures},
    )


class TestTsvLie:
    def test_small_window_zero(self):
        assert lie_symbolic_check(build_tsv_lie()).all_zero
        assert lie_jacobi_check(build_tsv_lie(), 2).all_zero

    def test_mutated_constant_is_flagged(self):
        # [L_p, Y_q] = (q - p/3) Y_{p+q} in the forward orientation only
        tsv = build_tsv_lie()
        table = dict(tsv.table)
        table[("L", "Y")] = ("Y", P("q - (1/3)*p"))
        mutant = LieAlgebraSpec("mutant", tsv.families, table)
        symbolic = lie_symbolic_check(mutant)
        assert not symbolic.all_zero and symbolic.window is None
        assert {f[1:4:2] for f in symbolic.antisymmetry_failures} == {(P("p"), P("q"))}
        assert {f[1:6:2] for f in symbolic.jacobi_failures} == {(P("p"), P("q"), P("r"))}
        antisymmetry, jacobi = _family_tuples(symbolic)
        assert antisymmetry == {("L", "Y"), ("Y", "L")}
        assert jacobi == {
            t for t in product("LY", repeat=3) if sorted(t) in (list("LLY"), list("LYY"))
        }
        oracle = lie_jacobi_check(mutant, 2)
        assert _family_tuples(oracle) == (antisymmetry, jacobi)
        # [L_i, Y_j] + [Y_j, L_i] = (i/6) Y_{i+j}: nonzero for i in {-2, -1, 1, 2}
        assert len(oracle.antisymmetry_failures) == 2 * 4 * 5

    def test_table_is_read_only_and_polynomial(self):
        tsv = build_tsv_lie()
        assert all(isinstance(c, MPoly) for _, c in tsv.table.values())
        with pytest.raises(TypeError):
            tsv.table[("L", "L")] = ("L", P("q - p"))

    def test_l0_acts_by_index(self):
        tsv = build_tsv_lie()
        for n in (-3, 0, 4):
            got = tsv.bracket_basis("L", 0, "M", n)
            assert got == ({("M", n): Fraction(n)} if n else {})

    def test_equal_y_indices_vanish(self):
        tsv = build_tsv_lie()
        assert tsv.bracket_basis("Y", 3, "Y", 3) == {}

    def test_window_validation(self):
        with pytest.raises(ValueError):
            lie_jacobi_check(build_tsv_lie(), 0)
