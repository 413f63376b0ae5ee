import random
from fractions import Fraction
from itertools import product

import pytest

from confalg import catalog
from confalg.catalog import (
    CATALOG,
    NoClaim,
    build_algebra,
    build_chv,
    build_construction,
    build_csv,
    build_cvir,
    build_cw,
    build_hv,
    build_sv,
    build_tsv_lie,
    claim,
    claimed,
    LieAlgebraSpec,
    lie_symbolic_check,
    solve_construction,
)
from confalg.derivations import check_derivation, d_vec, solve_graded_derivations
from confalg.lca import check_all_axioms, check_jacobi
from confalg.poly import GaussianRational, MPoly, parse_poly
from confalg.suite import expected_extra_dimension

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

    @pytest.mark.parametrize("extra, mono, equation", [
        ("ap^2*d", "d", "ap^2 + b - 2*bp"),
        ("ap*bp*l*m", "l*m", "ap*bp + 2*a - 4*ap + 4"),
        ("3*bp^2*d^5", "d^5", "3*bp^2"),
        ("a*ap*m", "m", "a*ap + 2*b - 4*bp"),
    ], ids=["square-on-d", "product-on-l*m", "square-alone", "parametric-row"])
    def test_equation_off_the_linear_form_is_refused(self, monkeypatch, extra, mono, equation):
        # an ap^2 or ap*bp term would be dropped by the coefficient
        # extraction, and a row in a would not be constant
        residual = catalog.construction_jacobi_residual() + P(extra)
        monkeypatch.setattr(catalog, "construction_jacobi_residual", lambda: residual)
        with pytest.raises(ValueError) as err:
            solve_construction()
        assert str(err.value) == (
            f"the [{mono}] coefficient equation {equation} is not "
            "cap*ap + cbp*bp + rest with constant cap, cbp"
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

    def test_mutated_constant_is_flagged(self):
        # [L_p, Y_q] = (q - p/3) Y_{p+q} in the forward orientation only
        tsv = build_tsv_lie()
        table = dict(tsv.table)
        table[("L", "Y")] = ("Y", P("q - (1/3)*p"))
        mutant = LieAlgebraSpec("mutant", tsv.families, table)
        symbolic = lie_symbolic_check(mutant)
        assert not symbolic.all_zero
        assert {f[1:4:2] for f in symbolic.antisymmetry_failures} == {(P("p"), P("q"))}
        assert {f[1:6:2] for f in symbolic.jacobi_failures} == {(P("p"), P("q"), P("r"))}
        antisymmetry, jacobi = _family_tuples(symbolic)
        assert antisymmetry == {("L", "Y"), ("Y", "L")}
        assert jacobi == {
            t for t in product("LY", repeat=3) if sorted(t) in (list("LLY"), list("LYY"))
        }

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


def _params(a, b):
    """The parameters of the claims test at (a, b); mfam's weights are the
    ones that close its table (``solve_construction``), where its claims
    are csv's."""
    return {"a": a, "b": b, "ap": Fraction(a) / 2 + 1, "bp": Fraction(b) / 2}


CLAIM_A = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2))


class TestCatalogClaims:
    """Each claim the catalog states holds where the suite does not check
    it, and a task on an algebra without a claim of its kind is refused."""

    @pytest.mark.parametrize("ident", claimed("extra_at_a1"))
    def test_derivation_claim_holds(self, ident):
        row = CATALOG[ident]
        for a in CLAIM_A if "a" in row.params else (None,):
            for b in (0, 1):
                spec = build_algebra(ident, **_params(a or 0, b))
                window = 0 if spec.index0_only else 1
                for bound in (2, 4):
                    res = solve_graded_derivations(spec, 0, bound, window)
                    assert res.extra_dimension == expected_extra_dimension(ident, a), (a, b, bound)

    @pytest.mark.parametrize("ident", claimed("m_family"))
    def test_m_family_claim_holds(self, ident):
        for a in CLAIM_A:
            for b in (0, 1):
                spec = build_algebra(ident, **_params(a, b))
                window = 0 if spec.index0_only else 1
                deriv = d_vec(spec, {0: GaussianRational.of(1)}, window)
                assert check_derivation(spec, deriv).all_zero == (a == 1), (a, b)

    def test_claims_by_kind(self):
        assert claimed("extra_at_a1") == ("csv", "chv", "cw", "sv", "hv", "cvir", "mfam")
        assert claimed("m_family") == ("csv", "chv", "sv", "hv", "mfam")
        assert claimed("c4") == claimed("extension_point") == ("csv", "chv")
        assert (claim("csv", "extension_point"), claim("chv", "extension_point")) == (
            (0, 0), (1, 0))
        assert claim("cw", "extra_at_a1") == 0 and expected_extra_dimension("cw") == 0
        assert [i for i, row in CATALOG.items() if row.oracle] == ["csv", "chv"]
        assert [i for i, row in CATALOG.items() if row.lie] == ["tsv"]

    @pytest.mark.parametrize("ident, kind, name", [
        ("cw", "m_family", "M-valued family"),
        ("sv", "c4", "criterion-4 dichotomy"),
        ("hv", "extension_point", "classification extension point"),
        ("tsv", "extra_at_a1", "non-inner derivation dimension"),
        ("nope", "c4", "criterion-4 dichotomy"),
    ])
    def test_a_missing_claim_is_refused_by_name(self, ident, kind, name):
        with pytest.raises(NoClaim) as err:
            claim(ident, kind)
        assert str(err.value) == f"the catalog states no {name} for {ident}"

    def test_the_builder_reads_the_row_parameters(self):
        assert build_algebra("cw", a=3).families == ("L",)
        assert build_algebra("mfam", a=1, b=0, ap=Fraction(3, 2), bp=0).parameters == ()
        with pytest.raises(ValueError, match="tsv is a plain graded Lie algebra"):
            build_algebra("tsv")
