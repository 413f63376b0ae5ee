import copy
import pickle
import random

import pytest

from confalg.catalog import (
    ALGEBRA_IDS,
    build_algebra,
    build_chv,
    build_construction,
    build_csv,
    build_cw,
)
from confalg.lca import (
    GenPoly,
    Generator,
    UnknownFamily,
    bracket,
    check_all_axioms,
    check_jacobi,
    check_skew,
    conformal_bracket,
    grading_project,
    make_algebra,
    parse_algebra,
    serialize_algebra,
    skew_image,
)
from confalg.poly import MPoly, parse_poly

P = parse_poly


def unit(fam, i, coeff=1):
    return GenPoly.unit(fam, i, coeff)


class TestBracket:
    def setup_method(self):
        self.csv = build_csv("sym", "sym")

    def test_ll(self):
        assert bracket(self.csv, unit("L", 0), unit("L", 3)) == GenPoly(
            {Generator("L", 3): P("d + 2*l")}
        )

    def test_sesquilinearity_first_argument(self):
        got = bracket(self.csv, unit("L", 0, P("d")), unit("L", 0))
        assert got == GenPoly({Generator("L", 0): P("-l") * P("d + 2*l")})

    def test_yy(self):
        assert bracket(self.csv, unit("Y", 1), unit("Y", 2)) == GenPoly(
            {Generator("M", 3): P("d + 2*l")}
        )

    def test_absent_pair_is_zero(self):
        assert bracket(self.csv, unit("M", 0), unit("Y", 5)).is_zero()

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            bracket(self.csv, unit("Z", 0), unit("L", 0))

    def test_second_argument_shift(self):
        # [L l (d M_0)] = (d + l) * [L l M_0]
        got = bracket(self.csv, unit("L", 0), unit("M", 0, P("d")))
        want = GenPoly({Generator("M", 0): P("d + l") * P("d + a*l + b")})
        assert got == want

    def test_first_argument_scaling(self):
        # [p(d) x _l y] = p(-l) [x _l y]
        p = P("d^2 - 3*d + 1")
        lhs = bracket(self.csv, unit("L", 1, p), unit("M", 0))
        scale = p.substitute("d", P("-l"))
        rhs = bracket(self.csv, unit("L", 1), unit("M", 0)).map_polys(
            lambda q: q * scale
        )
        assert lhs == rhs

    def test_argument_evaluation_helpers(self):
        # outer shift and first-argument evaluation used by the Jacobi check
        assert P("d + m").shift("d", MPoly.var("l")) == P("d + l + m")
        assert P("d + 2*l").substitute("d", P("-l - m")) == P("l - m")
        assert P("5").substitute("d", P("-l - m")) == P("5")

    def test_nested_first_argument(self):
        inner = bracket(self.csv, unit("L", 0), unit("L", 0))
        got = conformal_bracket(
            self.csv, inner, unit("L", 0), MPoly.var("l") + MPoly.var("m")
        )
        head = P("d + 2*l").substitute("d", P("-l - m"))
        want = GenPoly(
            {Generator("L", 0): head * P("d + 2*l").substitute("l", P("l + m"))}
        )
        assert got == want


class TestSkew:
    def test_ll_self_image(self):
        assert skew_image(P("d + 2*l")) == P("d + 2*l")

    def test_csv_pairs_zero(self):
        csv = build_csv("sym", "sym")
        for pair in (("L", "L"), ("Y", "Y"), ("L", "M"), ("L", "Y"), ("M", "Y")):
            assert check_skew(csv, *pair).is_zero()

    def test_deliberate_violation(self):
        base = build_csv(0, 0)
        broken = dict(base.table)
        target, template = broken[("M", "L")][0]
        broken[("M", "L")] = ((target, template + 1),)
        spec = make_algebra(
            "broken", base.families, broken, close_skew=False
        )
        residual = check_skew(spec, "L", "M")
        assert residual == GenPoly({Generator("M", 0): MPoly.const(1)})


class TestJacobi:
    def test_cw_virasoro(self):
        assert check_jacobi(build_cw(), "L", "L", "L").is_zero()

    def test_lyy_zero_on_csv(self):
        assert check_jacobi(build_csv("sym", "sym"), "L", "Y", "Y").is_zero()

    def test_lyy_matches_hand_expansion(self):
        # independent expansion of the candidate-table residual
        spec = build_construction()
        got = check_jacobi(spec, "L", "Y", "Y")
        t1 = P("d + l + 2*m") * P("d + a*l + b")
        t2 = P("d + 2*l + 2*m") * P("(ap - 1)*l - m + bp")
        t3 = P("d + 2*m") * P("d + ap*l + m + bp")
        assert got == GenPoly({Generator("M", 0): t1 - t2 - t3})

    def test_perturbed_weights_fail(self):
        # ap = a/2 + 2 instead of a/2 + 1
        spec = build_construction("sym", P("(1/2)*a + 2"), "sym", P("(1/2)*b"))
        assert not check_jacobi(spec, "L", "Y", "Y").is_zero()


class TestAllAxioms:
    def test_csv_symbolic(self):
        report = check_all_axioms(build_csv("sym", "sym"))
        assert report.all_zero
        assert len(report.skew) == 6
        assert len(report.jacobi) == 10

    def test_candidate_table_fails_exactly_at_lyy(self):
        report = check_all_axioms(build_construction())
        assert report.nonzero_checks() == ["jacobi L,Y,Y"]


class TestGrading:
    def test_project(self):
        x = unit("L", 1) + unit("M", 2)
        assert grading_project(x, 1) == unit("L", 1)
        assert grading_project(GenPoly.zero(), 3).is_zero()

    def test_projections_partition(self):
        x = unit("L", 1, P("d")) + unit("M", 2) + unit("Y", -1, P("d^2"))
        total = GenPoly.zero()
        for i in range(-3, 4):
            total = total + grading_project(x, i)
        assert total == x

    def test_bracket_weight_additive(self):
        csv = build_csv(1, 2)
        rng = random.Random(5)
        for _ in range(20):
            i, j = rng.randint(-5, 5), rng.randint(-5, 5)
            value = bracket(csv, unit("L", i), unit("M", j))
            assert all(gen.index == i + j for gen in value.terms)


class TestSerialization:
    def test_round_trip(self):
        csv = build_csv("sym", "sym")
        text = serialize_algebra(csv)
        back = parse_algebra(text)
        assert back.families == csv.families
        assert back.table == dict(csv.table)
        assert serialize_algebra(back) == text

    def test_index0_flag(self):
        from confalg.catalog import build_sv

        sv = build_sv(1, 0)
        back = parse_algebra(serialize_algebra(sv))
        assert back.index0_only

    def test_malformed_polynomial_names_the_line(self):
        line = "bracket L L -> L : d +"
        with pytest.raises(ValueError) as err:
            parse_algebra(f"algebra x\nfamilies L\n{line}\n")
        assert str(err.value) == f"bad bracket line: {line!r}: unexpected end of polynomial text"

    @pytest.mark.parametrize("line, family", [
        ("bracket L Q -> Q : 5*d", "Q"),
        ("bracket Q L -> L : 5*d", "Q"),
        ("bracket L L -> Z : 5*d", "Z"),
    ], ids=["partner", "source", "target"])
    @pytest.mark.parametrize("families_first", [True, False], ids=["before", "after"])
    def test_bracket_family_off_the_families_line_is_refused(self, line, family, families_first):
        # the check runs once the whole text is read, so the families line
        # may come before or after the bracket lines
        lines = ["bracket L L -> L : d + 2*l", line]
        lines = ["families L", *lines] if families_first else [*lines, "families L"]
        with pytest.raises(ValueError) as err:
            parse_algebra("algebra t\n" + "\n".join(lines) + "\n")
        assert str(err.value) == (
            f"bad bracket line: {line!r}: family {family} is not on the families line"
        )

    def test_unknown_grading_is_refused(self):
        with pytest.raises(ValueError) as err:
            parse_algebra("algebra t\nfamilies L\ngrading index1\n")
        assert str(err.value) == "bad grading line: 'grading index1': the only grading is index0"

    @pytest.mark.parametrize("ident", [i for i in ALGEBRA_IDS if i != "tsv"])
    def test_every_catalog_algebra_round_trips(self, ident):
        text = serialize_algebra(build_algebra(ident))
        assert serialize_algebra(parse_algebra(text)) == text

    def test_template_in_an_undeclared_variable_is_refused(self):
        # without its parameters line, chv(1, b) would parse with no
        # parameters and reach the derivation solver as a numeric algebra
        text = serialize_algebra(build_chv(1, "sym"))
        edited = text.replace("parameters b\n", "")
        assert edited != text
        with pytest.raises(ValueError) as err:
            parse_algebra(edited)
        assert str(err.value) == (
            "bad bracket line: 'bracket L M -> M : d + l + b': template has a term "
            "in b, which is neither d, l nor on the parameters line"
        )
        # the check runs once the whole text is read, so the parameters line
        # may come last
        moved = parse_algebra(edited + "parameters b\n")
        assert serialize_algebra(moved) == text

    @pytest.mark.parametrize(
        "line", ["algebra u", "families L", "parameters a", "grading index0"]
    )
    def test_repeated_single_valued_line_is_refused(self, line):
        text = "algebra t\nfamilies L\nparameters a\ngrading index0\n"
        with pytest.raises(ValueError) as err:
            parse_algebra(text + line + "\n")
        head = line.split()[0]
        assert str(err.value) == f"bad {head} line: {line!r}: {head} is given twice"


class TestGenPolyValue:
    def test_immutable_with_a_stable_hash(self):
        g = GenPoly({Generator("L", 1): P("d + 2*l"), Generator("M", 0): P("b")})
        before = hash(g)
        with pytest.raises(AttributeError):
            g.terms.clear()
        with pytest.raises(TypeError):
            g.terms[Generator("Y", 0)] = P("d")
        with pytest.raises(AttributeError):
            g.terms = {}
        assert hash(g) == before and len(g.terms) == 2

    def test_copy_and_pickle_round_trip(self):
        g = GenPoly({Generator("L", 1): P("(1/2+i)*d + l")})
        for clone in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert clone == g and hash(clone) == hash(g)
