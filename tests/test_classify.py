import ast
import random
import re
from fractions import Fraction

import pytest

from confalg.catalog import build_chv, build_csv
import confalg
from confalg import classify
from confalg.classify import (
    StepFailed,
    certify_self_commuting_d_free,
    classify_graded,
    classify_rank1,
    materialize,
    weight_equation_kernel,
)
from confalg.lca import DegreeBoundExceeded, WindowTooSmall
from confalg import suite
from confalg.modules import (
    BitSeq,
    build_graded,
    check_module_axioms,
    module_residuals,
    two_action_difference,
    window_reach,
)
from confalg.poly import GaussianRational, MPoly
from conftest import literal_module_residual

GRID = [(0, 0), (1, 0), (0, 1), (2, 5), (1, 1)]


def quotient_action(f, family):
    """L acting by f, ``family`` by dd*T and every other family by 0, with
    T[i,m](d, l + m) = (f[i,m](d + m, l) - f[i,m](d, l)) / m."""
    dd, l, m = MPoly.var("dd"), MPoly.var("l"), MPoly.var("m")

    def act(fam, i, k):
        fik = f(i, k)
        if fam != family:
            return fik if fam == "L" else MPoly.zero()
        quotient = (fik.shift("d", m) - fik).divide_exact(m)
        t = quotient.substitute("l", 0).substitute("m", l)
        assert t.substitute("l", l + m) == quotient
        return dd * t

    return act


def generic_box(dmax, lmax):
    """Generic p = sum u_k_q d^k l^q over [0,dmax] x [0,lmax]."""
    return MPoly({
        ((f"u_{k}_{q}", 1), ("d", k), ("l", q)): 1
        for k in range(dmax + 1) for q in range(lmax + 1)
    })


def uncertified(monkeypatch):
    """Forget every certified bound for the rest of the test."""
    monkeypatch.setattr(classify, "_dfree_cache", 0)


class TestCertificates:
    def test_leading_factorization(self, monkeypatch):
        # raises on failure; covers every profile up to the bound
        uncertified(monkeypatch)
        certify_self_commuting_d_free(4)

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_full_product_oracle(self, bound):
        """The independent encoding of the certificate's identity.

        It forms the whole difference ``two_action_difference(p, p, p, p)``
        and reads its l^(t+s) coefficient, where the certificate proves the
        same coefficient from the leading terms of the factors alone.
        """
        for t in range(1, bound + 1):
            for s in range(bound + 1):
                p = generic_box(t, s)
                diff = two_action_difference(p, p, p, p)
                top = diff.coeff_extract(["l"], {"l": t + s})
                gamma = sum(
                    (MPoly.var(f"u_{t}_{q}") * MPoly.var("m", q) for q in range(s + 1)),
                    MPoly.zero(),
                )
                sigma = sum(
                    (MPoly.var(f"u_{k}_{s}") * MPoly.var("d", k) for k in range(t + 1)),
                    MPoly.zero(),
                )
                assert top == gamma * sigma, (t, s)

    @pytest.mark.parametrize("fact,mutate", [
        ("leading factor", lambda x, y, z, w: (x.scale(2), y, z, w)),
        ("degree bound", lambda x, y, z, w: (x, y * MPoly.var("l"), z, w)),
        ("low-degree side", lambda x, y, z, w: (x, y, z * MPoly.var("l"), w)),
    ])
    def test_mutated_factors_fail_the_certificate(self, monkeypatch, fact, mutate):
        uncertified(monkeypatch)
        factors = classify.two_action_factors
        monkeypatch.setattr(
            classify, "two_action_factors", lambda *args: mutate(*factors(*args))
        )
        with pytest.raises(StepFailed) as info:
            certify_self_commuting_d_free(6)
        (step,) = info.value.steps
        assert (step.name, step.ok) == ("d-free certificate", False)
        assert step.statement.startswith(f"profile (1,0): {fact} fails: ")
        assert classify._dfree_cache == 0
        # a classifier reports the failed certificate as its failed step
        with pytest.raises(StepFailed) as info:
            classify_rank1("csv", 0, 0)
        assert info.value.trace == f"[FAILED] d-free certificate: {step.statement}"
        # and a suite criterion turns it into FAIL records, not a crash
        records = suite.criterion_6()
        assert records and not any(record.passed for record in records)
        assert all(step.statement in record.detail for record in records)

    def test_passing_step_statement(self):
        outcome = classify_rank1("csv", 0, 0)
        assert str(outcome.steps[0]) == (
            "[ok] d-free certificate: self-commuting relations force d-free "
            "coefficients up to degree 6"
        )

    def test_certified_bound_is_cached(self, monkeypatch):
        uncertified(monkeypatch)
        checked = []
        check = classify._dfree_profile_failure
        monkeypatch.setattr(
            classify,
            "_dfree_profile_failure",
            lambda t, s: checked.append((t, s)) or check(t, s),
        )
        certify_self_commuting_d_free(6)
        assert len(checked) == 6 * 7 and classify._dfree_cache == 6
        checked.clear()
        certify_self_commuting_d_free(4)
        certify_self_commuting_d_free(6)
        assert checked == []
        # a larger bound checks only the profiles it adds
        certify_self_commuting_d_free(7)
        assert sorted(checked) == sorted(
            (t, s) for t in range(1, 8) for s in range(8) if max(t, s) == 7
        )

    def test_weight_kernel_zero_off_origin(self):
        for A, B in ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2)),
                     (Fraction(-1, 2), Fraction(1))):
            assert weight_equation_kernel(
                GaussianRational.of(A), GaussianRational.of(B), 6
            ) == []

    def test_weight_kernel_constants_at_origin(self):
        kernel = weight_equation_kernel(
            GaussianRational.of(0), GaussianRational.of(0), 6
        )
        assert len(kernel) == 1 and kernel[0] == MPoly.const(1)

    @pytest.mark.parametrize("bound", range(13))
    def test_weight_kernel_solves_its_equation(self, bound):
        # the equation only has the constants, and only at the origin;
        # each basis vector is checked against the equation written out
        l, m = MPoly.var("l"), MPoly.var("m")
        points = [Fraction(k, 2) for k in range(-3, 4)] + [GaussianRational(Fraction(1, 2), 1)]
        for A in points:
            for B in points:
                a, b = GaussianRational.of(A), GaussianRational.of(B)
                kernel = weight_equation_kernel(a, b, bound)
                for p in kernel:
                    lhs = (l.scale(a) - m + MPoly.const(b)) * p.substitute("l", l + m)
                    assert lhs + m * p.substitute("l", m) == MPoly.zero()
                assert kernel == ([MPoly.const(1)] if A == B == 0 else [])


class TestRank1:
    @pytest.mark.parametrize("a,b", GRID)
    def test_csv_grid(self, a, b):
        outcome = classify_rank1("csv", a, b)
        assert outcome.has_extension == ((a, b) == (0, 0))
        assert outcome.families["M"] == "0"
        if outcome.has_extension:
            assert outcome.families["Y"] == "d*c^i"
        else:
            assert outcome.families["Y"] == "0"

    @pytest.mark.parametrize("a,b", GRID)
    def test_chv_grid(self, a, b):
        outcome = classify_rank1("chv", a, b)
        assert outcome.has_extension == ((a, b) == (1, 0))
        assert outcome.families["M"] == ("d*c^i" if outcome.has_extension else "0")

    def test_round_trip_materialization(self):
        for a, b in ((0, 0), (2, 5)):
            spec = build_csv(a, b)
            outcome = classify_rank1("csv", a, b)
            module = materialize(outcome, spec)
            assert check_module_axioms(spec, module).all_zero

    def test_steps_are_recorded(self):
        outcome = classify_rank1("csv", 0, 0)
        names = [s.name for s in outcome.steps]
        assert "weight equation" in names
        assert all(s.ok for s in outcome.steps)

    def test_failed_step_is_recorded_and_raises_step_failed(self):
        outcome = classify_rank1("csv", 0, 0)
        before = len(outcome.steps)
        with pytest.raises(StepFailed) as info:
            outcome.step("probe", "0 = 1", ok=False)
        assert not isinstance(info.value, DegreeBoundExceeded)
        assert len(outcome.steps) == before + 1
        assert (outcome.steps[-1].name, outcome.steps[-1].ok) == ("probe", False)
        assert confalg.StepFailed is StepFailed

    def test_needs_numeric_weights(self):
        with pytest.raises(ValueError):
            classify_rank1("csv", "sym", 0)


class TestGradedUniformBase:
    @pytest.mark.parametrize("a,b", GRID)
    def test_csv(self, a, b):
        outcome = classify_graded("csv", a, b, "vab")
        assert outcome.families["M"] == "0"
        want = "d" if (a, b) == (0, 0) else "0"
        assert outcome.families["Y"] == want

    @pytest.mark.parametrize("a,b", GRID)
    def test_chv(self, a, b):
        outcome = classify_graded("chv", a, b, "vab")
        want = "d" if (a, b) == (1, 0) else "0"
        assert outcome.families["M"] == want

    def test_round_trip(self):
        spec = build_csv(0, 0)
        outcome = classify_graded("csv", 0, 0, "vab")
        module = materialize(outcome, spec)
        assert check_module_axioms(spec, module, 3, 2).all_zero


class TestGradedCaseSplitBase:
    def test_constant_bits_keep_extension(self):
        for bit in (0, 1):
            bits = BitSeq(-9, (bit,) * 19)
            outcome = classify_graded("csv", 0, 0, "vAb", bitseq=bits)
            assert outcome.families["Y"] == "d"
            assert not outcome.collapsed
            spec = build_csv(0, 0)
            module = materialize(outcome, spec, bitseq=bits)
            assert check_module_axioms(spec, module, 3, 2).all_zero

    def test_mixed_bits_collapse_extension(self):
        # a non-constant sequence admits no flat scalar extension: the
        # classifier must report the collapse the axiom checker confirms
        bits = BitSeq.from_string("0110100010101100000", -9)
        outcome = classify_graded("csv", 0, 0, "vAb", bitseq=bits)
        assert outcome.families["Y"] == "0"
        assert outcome.collapsed

    def test_mixed_bits_chv(self):
        bits = BitSeq.from_string("1001011110000101010", -9)
        outcome = classify_graded("chv", 1, 0, "vAb", bitseq=bits)
        assert outcome.families["M"] == "0"
        assert outcome.collapsed

    @pytest.mark.parametrize(
        "text", ["0010000000000000000", "1011111111111111101"], ids=["one-flip", "two-flips"]
    )
    def test_m_table_not_flat_off_index_zero(self, text):
        # at csv(1, 0) the M weight equation admits constants; with these
        # bits the (M, M) relation holds on the window but the propagated M
        # table is not 1 at some nonzero index the check reads.  The
        # (M_0, Y_0) and (Y_0, Y_0) relations alone still force e = 0.
        bits = BitSeq.from_string(text, -9)
        spec = build_csv(1, 0)
        act = quotient_action(build_graded(spec, "vAb", bits, "sym", 0).coeffs["L"], "M")
        reach = window_reach(3, 2)
        assert any(
            act("M", i, m) != MPoly.var("dd")
            for i in (-2, -1, 1, 2)
            for m in range(-reach, reach + 1)
        )
        outcome = classify_graded("csv", 1, 0, "vAb", bitseq=bits)
        assert outcome.families == {"L": "vAb", "M": "0", "Y": "0"}
        assert any(step.name == "MY/YY contradiction" for step in outcome.steps)

    @pytest.mark.parametrize(
        "algebra, point, base, text, fields",
        [
            ("csv", (1, 0), "vAb", "0110100010101100000",
             ({"L": "vAb", "M": "0", "Y": "0"}, 0, True, "")),
            ("csv", (1, 0), "vAb", "0000000000000001000",
             ({"L": "vAb", "M": "0", "Y": "0"}, 0, False, "")),
            ("csv", (0, 0), "vab", None,
             ({"L": "vab", "M": "0", "Y": "d"}, 1, False,
              "Y-extension survives all relations on the window")),
            ("chv", (1, 0), "vAb", "0" * 19,
             ({"L": "vAb", "M": "d"}, 1, False,
              "M-extension survives all relations on the window")),
            ("chv", (1, 0), "vAb", "1001011110000101010",
             ({"L": "vAb", "M": "0"}, 0, True, "")),
            ("csv", (0, 0), "vAb", "0000000000000010000",
             ({"L": "vAb", "M": "0", "Y": "0"}, 0, True, "")),
            ("chv", (1, 0), "vAb", "0000000000000100000",
             ({"L": "vAb", "M": "0"}, 0, True, "")),
            ("chv", (1, 0), "vAb", "1111100000000011111",
             ({"L": "vAb", "M": "0"}, 0, True, "")),
        ],
        ids=["csv10-collapsed", "csv10-not-collapsed", "csv00-vab", "chv10-flat",
             "chv10-collapsed", "csv00-edge", "chv10-edge", "chv10-edges"],
    )
    def test_outcome_fields(self, algebra, point, base, text, fields):
        # the fields the CLI prints: families in the status, collapsed and
        # note in the detail
        bits = None if text is None else BitSeq.from_string(text, -9)
        outcome = classify_graded(algebra, *point, base, bitseq=bits)
        got = (outcome.families, outcome.extension_dim, outcome.collapsed, outcome.note)
        assert got == fields

    # the first three break inside the window the tables are propagated on;
    # most edge sequences break only past it
    COLLAPSES = [
        ("csv", (0, 0), "0110100010101100000"),
        ("csv", (1, 0), "0110100010101100000"),
        ("chv", (1, 0), "1001011110000101010"),
        ("csv", (0, 0), "0000000000000010000"),
        ("csv", (0, 0), "0000000000000001000"),
        ("chv", (1, 0), "0000000000000100000"),
        ("chv", (1, 0), "1111100000000011111"),
        ("csv", (1, 0), "1000100000000110000"),
        ("csv", (1, 0), "1101111111111111111"),
    ]

    @pytest.mark.parametrize(
        "algebra, point, text", COLLAPSES, ids=[f"{a}{p[0]}{p[1]}-{t}" for a, p, t in COLLAPSES]
    )
    def test_collapse_steps_name_a_nonzero_instance(self, algebra, point, text):
        # each collapse step names (F, G, i, j, m); with L acting by the base
        # f, F by dd*T (T the difference quotient of f) and every other family
        # by 0, the module residual there is nonzero
        bits = BitSeq.from_string(text, -9)
        outcome = classify_graded(algebra, *point, "vAb", bitseq=bits)
        spec = (build_csv if algebra == "csv" else build_chv)(*point)
        f = build_graded(spec, "vAb", bits, "sym", 0).coeffs["L"]
        collapses = [s for s in outcome.steps if s.name.endswith("consistency")]
        assert outcome.collapsed and collapses
        for step in collapses:
            match = re.search(r"\('\w', '\w', -?\d+, -?\d+, -?\d+\)", step.statement)
            assert match, step.statement
            instance = ast.literal_eval(match.group())
            (family,) = set(instance[:2]) - {"L"}
            residual = literal_module_residual(spec, quotient_action(f, family), *instance)
            assert not residual.is_zero(), step

    @pytest.mark.parametrize("algebra, point, text, instance", [
        ("csv", (0, 0), "0110100010101100000", ("L", "Y", -2, -2, -3)),
        ("csv", (1, 0), "0110100010101100000", ("M", "M", -2, -2, 1)),
        ("chv", (1, 0), "1001011110000101010", ("L", "M", -2, -2, -3)),
    ], ids=["csv00-LY", "csv10-MM", "chv10-LM"])
    def test_window_search_names_the_first_break(self, algebra, point, text, instance):
        # the step names the check's first residual key: family pairs in
        # family order, then (i, j, m) in order over the window
        bits = BitSeq.from_string(text, -9)
        outcome = classify_graded(algebra, *point, "vAb", bitseq=bits)
        (step,) = [s for s in outcome.steps if s.name.endswith("consistency")]
        assert f"nonzero at {instance}," in step.statement

    @pytest.mark.parametrize("algebra, point, text, checked", [
        # T not flat on the window the tables are propagated on
        ("csv", (0, 0), "0110100010101100000", [("L", "M", "Y")]),
        # flat on that window, not on the window the check reads
        ("csv", (0, 0), "0000000000000001000", [("L", "M", "Y")]),
        # flat on both
        ("csv", (0, 0), "0000000000000000000", [("L", "M", "Y")]),
        ("chv", (1, 0), "1001011110000101010", [("L", "M")]),
        # the M table is checked alone; the weight equation forces Y to 0
        ("csv", (1, 0), "0110100010101100000", [("M",)]),
        ("csv", (1, 0), "0010000000000000000", [("M",)]),
        # the weight equation forces every table to 0
        ("csv", (2, 5), "0110100010101100000", []),
    ], ids=["csv00-inside", "csv00-past", "csv00-flat", "chv10", "csv10-break",
            "csv10-pass", "csv25"])
    def test_one_check_per_settled_table(self, monkeypatch, algebra, point, text, checked):
        seen = []

        def counted(spec, *args, **kwargs):
            seen.append(spec.families)
            return module_residuals(spec, *args, **kwargs)

        monkeypatch.setattr(classify, "module_residuals", counted)
        classify_graded(algebra, *point, "vAb", bitseq=BitSeq.from_string(text, -9))
        assert seen == checked

    def test_stream_is_read_up_to_the_first_break(self, monkeypatch):
        # the classifier stops at the first nonzero residual: (L, L) and
        # (L, M) are read in full and zero, then (L, Y) breaks at once
        taken = []

        def counted(*args, **kwargs):
            for key, residual in module_residuals(*args, **kwargs):
                taken.append((key, residual))
                yield key, residual

        monkeypatch.setattr(classify, "module_residuals", counted)
        bits = BitSeq.from_string("0110100010101100000", -9)
        classify_graded("csv", 0, 0, "vAb", bitseq=bits)
        per_pair = 5 * 5 * 7
        assert [key for key, _ in taken[-1:]] == [("L", "Y", -2, -2, -3)]
        assert len(taken) == 2 * per_pair + 1 < 9 * per_pair == 1575
        assert not any(residual for _, residual in taken[:-1])

    def test_mixed_only_past_the_propagation_window(self):
        # bits constant on [-5, 5] and mixed only on [-7, 7] \ [-5, 5]: the
        # window the tables are propagated on sees no mixed pattern, the
        # window the check reads does
        rng = random.Random(47)
        outer = (-7, -6, 6, 7)
        for _ in range(6):
            bit = rng.randint(0, 1)
            flips = set(rng.sample(outer, rng.randint(1, len(outer))))
            bits = BitSeq(-9, tuple(1 - bit if k in flips else bit for k in range(-9, 10)))
            for algebra, point in (("csv", (0, 0)), ("csv", (1, 0)), ("chv", (1, 0))):
                outcome = classify_graded(algebra, *point, "vAb", bitseq=bits)
                assert suite.graded_faults(outcome, bits) == [], (algebra, bits)

    def test_non_flat_pass_is_a_failed_step(self, monkeypatch):
        # a table that is not flat yet passes the check contradicts the
        # classification, so the sufficiency step must fail
        monkeypatch.setattr(classify, "module_residuals", lambda *args, **kwargs: iter(()))
        bits = BitSeq.from_string("0000000000000010000", -9)
        with pytest.raises(StepFailed) as info:
            classify_graded("csv", 0, 0, "vAb", bitseq=bits)
        assert (info.value.steps[-1].name, info.value.steps[-1].ok) == ("Y sufficiency", False)

    def test_short_sequence_raises_window_too_small(self):
        # covers the propagation window [-5, 5] but not the check's [-7, 7];
        # the check refuses it before reading any action
        bits = BitSeq.from_string("0" * 11, -5)
        with pytest.raises(WindowTooSmall, match=r"must cover \[-7, 7\]"):
            classify_graded("csv", 0, 0, "vAb", bitseq=bits)

    def test_off_extension_points_zero(self):
        rng = random.Random(23)
        bits = BitSeq.random(rng, -9, 9)
        for a, b in ((1, 0), (0, 1), (1, 1)):
            outcome = classify_graded("csv", a, b, "vAb", bitseq=bits)
            assert outcome.families["Y"] == "0"
            assert outcome.families["M"] == "0"

    def test_classifier_agrees_with_axiom_checker(self):
        # whenever the classifier keeps the extension, the flat family is a
        # module; whenever it collapses, the flat family fails the axioms
        rng = random.Random(31)
        spec = build_csv(0, 0)
        from confalg.modules import build_graded

        for _ in range(6):
            bits = BitSeq.random(rng, -9, 9)
            outcome = classify_graded("csv", 0, 0, "vAb", bitseq=bits)
            flat = build_graded(spec, "vAb", bits, "sym", "sym")
            flat_ok = check_module_axioms(spec, flat, 3, 2).all_zero
            assert flat_ok == (outcome.families["Y"] == "d")


class TestOutcomeJudges:
    def test_faults_name_the_wrong_family(self):
        outcome = classify_graded("csv", 0, 0, "vab")
        assert suite.graded_faults(outcome) == []
        outcome.families["M"] = "d"
        assert suite.graded_faults(outcome) == ["M: 'd', expected '0'"]
        rank1 = classify_rank1("chv", 0, 0)
        assert suite.rank1_faults(rank1) == []
        rank1.families["M"] = "d*c^i"
        rank1.extension_dim = 1
        assert suite.rank1_faults(rank1) == [
            "extension_dim 1, expected 0", "M: 'd*c^i', expected '0'"
        ]

    def test_case_split_judged_on_the_window(self):
        bits = BitSeq.from_string("1001011110000101010", -9)
        outcome = classify_graded("chv", 1, 0, "vAb", bitseq=bits)
        assert suite.graded_faults(outcome, bits) == []
        assert suite.graded_faults(outcome) == [
            "extension_dim 0, expected 1", "M: '0', expected 'd'"
        ]

    def test_failed_step_in_the_suite_is_a_fail_record(self, monkeypatch):
        # one grid point of each classifier stops at a failed step; its
        # record fails, names the point and keeps the trace, and the run
        # goes on to produce every other record
        def failing(classify, algebra, point, base=None):
            def run(name, a, b, *args, **kwargs):
                outcome = classify(name, a, b, *args, **kwargs)
                if (name, (a, b)) == (algebra, point) and (base is None or args[0] == base):
                    outcome.step("forced", "0 = 1", ok=False)
                return outcome
            return run

        monkeypatch.setattr(
            suite, "classify_rank1", failing(classify_rank1, "csv", (2, 5))
        )
        monkeypatch.setattr(
            suite, "classify_graded", failing(classify_graded, "chv", (1, 0), "vab")
        )
        records = suite.criterion_6() + suite.criterion_7()
        failed = [r for r in records if not r.passed]
        assert [r.check_id for r in failed] == ["c6-rank1-csv", "c7-graded-vab-chv"]
        assert [r.check_id for r in records if r.passed] == [
            "c6-rank1-chv", "c7-graded-vab-csv", "c7-graded-vAb-csv",
            "c7-graded-vAb-chv", "c7-oracle-equivalence",
        ]
        rank1, graded = failed
        assert rank1.status == (
            "failures: [(2, 5, 'classification step failed: forced: 0 = 1')]"
        )
        assert graded.status == (
            "failures: [(1, 0, 'vab', 'classification step failed: forced: 0 = 1')]"
        )
        for record in failed:
            steps = record.detail.split("; ")
            assert steps[0].startswith("[ok] d-free certificate")
            assert steps[-1] == "[FAILED] forced: 0 = 1"
