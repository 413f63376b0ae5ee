import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confalg import modules
from confalg.catalog import build_chv, build_csv, build_cw
from confalg.lca import AlgebraSpec, WindowTooSmall
from confalg.modules import (
    BitSeq,
    build_graded,
    build_module,
    build_rank1,
    check_module_axioms,
    graded_from_tables,
    module_residuals,
    parse_module,
    Rank1Module,
    reducibility_witness,
    relations_oracle,
    serialize_module,
)
from confalg.linsolve import linear_solve
from confalg.poly import GaussianRational, Inconsistent, MPoly, parse_poly
from conftest import literal_module_residual

P = parse_poly


class TestBitSeq:
    def test_window_and_lookup(self):
        bits = BitSeq.from_string("0110", -1)
        assert bits.at(-1) == 0 and bits.at(0) == 1 and bits.hi == 2
        with pytest.raises(WindowTooSmall):
            bits.at(3)

    def test_round_trip(self):
        bits = BitSeq.from_string("10101", -2)
        assert BitSeq.from_string(bits.to_string(), bits.lo) == bits

    def test_constant_detection(self):
        assert BitSeq(-1, (1, 1, 1)).is_constant()
        assert not BitSeq(-1, (1, 0, 1)).is_constant()


class TestRank1Builder:
    def test_extension_slot_follows_families(self):
        m_csv = build_rank1(build_csv(0, 0), 1, 0, 2, 3)
        assert m_csv.template("Y") == MPoly.const(3)
        assert m_csv.template("M").is_zero()
        m_chv = build_rank1(build_chv(1, 0), 1, 0, 2, 3)
        assert m_chv.template("M") == MPoly.const(3)

    def test_numeric_action_scaling(self):
        module = build_rank1(build_csv(0, 0), 1, 0, 2, 3)
        assert module.action("Y", 2) == MPoly.const(12)
        assert module.action("L", -1) == P("d + l").scale(Fraction(1, 2))

    def test_zero_scale_base(self):
        module = build_rank1(build_csv(0, 0), 1, 5, 0, 0)
        assert module.action("L", 1).is_zero()
        assert module.action("L", 0) == P("d + l + 5")


class TestRank1Axioms:
    def test_trivial_extension_symbolic(self):
        # d = 0 passes for fully symbolic algebra weights
        spec = build_csv("sym", "sym")
        module = build_rank1(spec, "sym", "sym", "sym", 0)
        assert check_module_axioms(spec, module).all_zero

    def test_extension_at_origin_symbolic(self):
        spec = build_csv(0, 0)
        module = build_rank1(spec, "sym", "sym", "sym", "sym")
        assert check_module_axioms(spec, module).all_zero

    def test_extension_blocked_elsewhere(self):
        spec = build_csv(1, 1)
        module = build_rank1(spec, "sym", "sym", "sym", "sym")
        report = check_module_axioms(spec, module)
        assert not report.all_zero
        assert any("dd" in str(res) for res in report.residuals.values())
        # one index-free instance per ordered family pair, keyed (F, G)
        assert report.checked == len(spec.families) ** 2
        pairs = {(f, g) for f in spec.families for g in spec.families}
        assert set(report.residuals) <= pairs

    def test_chv_extension_point(self):
        spec = build_chv(1, 0)
        module = build_rank1(spec, "sym", "sym", "sym", "sym")
        assert check_module_axioms(spec, module).all_zero

    def test_template_residual_matches_explicit_indices(self):
        # the rank-one check runs once per family pair on the index-free
        # templates; the same module with explicit c^i actions, checked as a
        # graded module on an index window, must reach the same verdict
        cases = (
            (build_csv, 0, 0, True),
            (build_chv, 1, 0, True),
            (build_csv, 1, 1, False),
            (build_chv, 0, 1, False),
        )
        for builder, a, b, is_module in cases:
            spec = builder(a, b)
            r1 = build_rank1(spec, "sym", "sym", Fraction(-3, 2), "sym")
            tables = {
                fam: (lambda i, m, _f=fam: r1.action(_f, i)) for fam in spec.families
            }
            graded = graded_from_tables(spec.families, tables)
            assert check_module_axioms(spec, r1).all_zero is is_module
            assert check_module_axioms(spec, graded, 3, 2).all_zero is is_module

    def test_cw_rank1(self):
        spec = build_cw()
        module = build_rank1(spec, "sym", "sym", "sym")
        assert check_module_axioms(spec, module).all_zero


class TestGradedBuilder:
    def test_vab_action(self):
        spec = build_csv(0, 0)
        module = build_graded(spec, "vab", 2, 1, 0)
        assert module.action("L", 3, 0) == P("d + 2*l + 1")

    def test_vAb_cases(self):
        spec = build_csv(0, 0)
        bits = BitSeq.from_string("0101100", -3)
        module = build_graded(spec, "vAb", bits, "sym", 0)
        # (bits[m], bits[i+m]) selects the action shape
        assert module.action("L", 1, -3) == MPoly.const(1)              # (0, 1)
        assert module.action("L", 2, -2) == P("d + beta + l")           # (1, 1)
        assert module.action("L", 1, 1) == P("(d + beta)*(d + beta + l)")  # (1, 0)
        assert module.action("L", 2, -3) == P("d + beta")               # (0, 0)

    def test_vAb_needs_bits(self):
        with pytest.raises(TypeError):
            build_graded(build_csv(0, 0), "vAb", "sym", "sym", 0)

    def test_window_guard(self):
        spec = build_csv(0, 0)
        bits = BitSeq.from_string("01011", -2)
        module = build_graded(spec, "vAb", bits, "sym", 0)
        with pytest.raises(WindowTooSmall):
            check_module_axioms(spec, module, n_basis=3, k_gen=2)


class TestGradedAxioms:
    def test_uniform_extension_symbolic_at_origin(self):
        spec = build_csv(0, 0)
        module = build_graded(spec, "vab", "sym", "sym", "sym")
        assert check_module_axioms(spec, module, 3, 2).all_zero

    def test_uniform_extension_fails_off_origin(self):
        spec = build_csv(1, 0)
        module = build_graded(spec, "vab", "sym", "sym", "sym")
        assert not check_module_axioms(spec, module, 2, 1).all_zero
        # the full window: one instance per (F, G, i, j, m), keyed that way
        for wide, checked in ((build_csv(1, 0), 1575), (build_chv(0, 1), 700)):
            module = build_graded(wide, "vab", "sym", "sym", "sym")
            report = check_module_axioms(wide, module, 3, 2)
            assert report.checked == checked
            assert not report.all_zero
            for fam_f, fam_g, i, j, m in report.residuals:
                assert {fam_f, fam_g} <= set(wide.families)
                assert max(abs(i), abs(j)) <= 2 and abs(m) <= 3

    @pytest.mark.parametrize("n_basis, k_gen, name", [(-1, 2, "n_basis"), (3, -1, "k_gen")])
    def test_negative_window_is_refused(self, n_basis, k_gen, name):
        # a negative window has no instance, so it would pass by checking
        # nothing; the stream and the oracle refuse it before any instance
        spec = build_csv(1, 0)
        module = build_graded(spec, "vab", "sym", "sym", 1)
        message = f"{name} must be >= 0, got -1"
        with pytest.raises(ValueError, match=message):
            next(module_residuals(spec, module, n_basis, k_gen))
        with pytest.raises(ValueError, match=message):
            check_module_axioms(spec, module, n_basis, k_gen)
        with pytest.raises(ValueError, match=message):
            relations_oracle(module, 1, 0, n_basis, k_gen)

    def test_case_split_flat_extension_needs_constant_bits(self):
        # the flat extension of a case-split base is a module exactly when
        # the bit sequence is constant on the window
        spec = build_csv(0, 0)
        mixed = BitSeq.from_string("0" * 7 + "1" + "0" * 7, -7)
        module = build_graded(spec, "vAb", mixed, "sym", "sym")
        report = check_module_axioms(spec, module, 3, 2)
        assert not report.all_zero
        const = BitSeq(-7, (1,) * 15)
        module2 = build_graded(spec, "vAb", const, "sym", "sym")
        assert check_module_axioms(spec, module2, 3, 2).all_zero

    def test_chv_graded_extension(self):
        spec = build_chv(1, 0)
        module = build_graded(spec, "vab", "sym", "sym", "sym")
        assert check_module_axioms(spec, module, 3, 2).all_zero


#: action polynomials the differential tables pick from; each call returns
#: a fresh copy, so only value equality can match two residual inputs
ACTION_POOL = tuple(
    P(text) for text in ("0", "1", "d + beta", "d + beta + l", "(d + beta)*(d + beta + l)", "dd")
)

#: a table shape (a, b, c) acts by ``ACTION_POOL[(a*i + b*m + c) % len]``
TABLE_SHAPES = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, len(ACTION_POOL) - 1)
)


def _pooled_table(a: int, b: int, c: int):
    return lambda i, m: MPoly(ACTION_POOL[(a * i + b * m + c) % len(ACTION_POOL)].terms)


class TestResidualReuse:
    @pytest.mark.parametrize("build", [build_csv, build_chv], ids=["csv", "chv"])
    @settings(max_examples=30, deadline=None)
    @given(
        grid=st.sampled_from([(0, 0), (1, 0), (0, 1)]),
        shapes=st.lists(TABLE_SHAPES, min_size=2, max_size=2),
        picks=st.lists(st.integers(0, 1), min_size=3, max_size=3),
    )
    def test_matches_literal_loop(self, build, grid, shapes, picks):
        # families share two table shapes, so distinct families (and
        # distinct bracket targets) often see equal action inputs
        spec = build(*grid)
        tables = {
            fam: _pooled_table(*shapes[pick]) for fam, pick in zip(spec.families, picks)
        }
        module = graded_from_tables(spec.families, tables)
        n_basis, k_gen = 2, 1
        literal = {}
        checked = 0
        for fam_f in spec.families:
            for fam_g in spec.families:
                for i in range(-k_gen, k_gen + 1):
                    for j in range(-k_gen, k_gen + 1):
                        for m in range(-n_basis, n_basis + 1):
                            checked += 1
                            residual = literal_module_residual(
                                spec, module.action, fam_f, fam_g, i, j, m
                            )
                            if not residual.is_zero():
                                literal[(fam_f, fam_g, i, j, m)] = residual
        report = check_module_axioms(spec, module, n_basis, k_gen)
        assert report.checked == checked
        assert list(report.residuals.items()) == list(literal.items())

    @pytest.mark.parametrize(
        "base, counts",
        [
            ("vab", {"csv": 9, "chv": 4}),
            ("alternating", {"csv": 44, "chv": 25}),
            ("all-zero", {"csv": 9, "chv": 4}),
        ],
    )
    @pytest.mark.parametrize("build", [build_csv, build_chv], ids=["csv", "chv"])
    def test_each_distinct_input_computed_once(self, monkeypatch, build, base, counts):
        calls = []
        arithmetic = modules.two_action_difference

        def counting(*args):
            calls.append(args)
            return arithmetic(*args)

        monkeypatch.setattr(modules, "two_action_difference", counting)
        spec = build(0, 0)
        if base == "vab":
            module = build_graded(spec, "vab", "sym", "sym", "sym")
        else:
            bits = [k % 2 if base == "alternating" else 0 for k in range(-9, 10)]
            module = build_graded(spec, "vAb", BitSeq(-9, tuple(bits)), "sym", "sym")
        report = check_module_axioms(spec, module, 3, 2)
        assert report.checked == {"csv": 1575, "chv": 700}[spec.name]
        assert len(calls) == counts[spec.name]


def _graded_stream_cases():
    """Seeded ``build_graded`` modules over csv and chv: numeric, Gaussian
    and symbolic beta and d (and alpha for vab); random, constant and
    alternating bits; the default window, (1, 1) and (2, 1), with some bit
    sequences covering exactly ``window_reach``.  Two custom copies of vAb
    tables check that a custom module keeps the by-value key."""
    rng = random.Random(24)
    gauss = GaussianRational(Fraction(1, 2), Fraction(-3, 2))
    cases = []

    def add(name, spec, grid, module, window):
        label = f"{spec.name}({grid[0]},{grid[1]})-{name}-{window[0]},{window[1]}"
        cases.append(pytest.param(spec, module, window, id=label))

    def bits(shape, reach, extra=0):
        lo, n = -reach - extra, 2 * (reach + extra) + 1
        if shape == "random":
            return BitSeq.random(rng, lo, lo + n - 1)
        if shape == "alternating":
            return BitSeq(lo, tuple(k % 2 for k in range(n)))
        return BitSeq(lo, (1,) * n)

    # the default window (3, 2) on bits over [-9, 9]
    spec = build_csv(0, 0)
    add("vAb-random-sym", spec, (0, 0),
        build_graded(spec, "vAb", bits("random", 7, 2), "sym", "sym"), (3, 2))
    spec = build_chv(1, 0)
    add("vAb-alternating-num", spec, (1, 0),
        build_graded(spec, "vAb", bits("alternating", 7, 2), Fraction(1, 2), 3), (3, 2))
    add("vab-num", spec, (1, 0), build_graded(spec, "vab", 2, Fraction(-1, 3), 1), (3, 2))
    # (1, 1) and (2, 1), on bits that cover exactly the window the identity reads
    for build, grid in ((build_csv, (0, 0)), (build_chv, (1, 0)), (build_csv, (1, 0))):
        spec = build(*grid)
        for name, shape, beta, d in (
            ("random-gauss-sym", "random", gauss, "sym"),
            ("constant-sym-gauss", "constant", "sym", gauss),
            ("alternating-gauss", "alternating", gauss, gauss),
            ("random-num", "random", 0, 1),
        ):
            for window in ((1, 1), (2, 1)):
                seq = bits(shape, modules.window_reach(*window))
                add(f"vAb-{name}", spec, grid, build_graded(spec, "vAb", seq, beta, d), window)
        add("vab-sym", spec, grid, build_graded(spec, "vab", "sym", "sym", "sym"), (1, 1))
        add("vab-gauss", spec, grid, build_graded(spec, "vab", gauss, gauss, gauss), (2, 1))
    # custom tables: a vAb module's own tables, and the same with an extension
    # action that reads the generator index, which no bit pattern sees
    spec = build_csv(0, 0)
    seq = bits("random", 3)
    vAb = build_graded(spec, "vAb", seq, "sym", "sym")
    add("custom-vAb", spec, (0, 0), graded_from_tables(spec.families, vAb.coeffs, seq), (1, 1))
    tables = {**vAb.coeffs, "Y": lambda i, m: P(f"{i}*dd + 1")}
    add("custom-indexed", spec, (0, 0), graded_from_tables(spec.families, tables, seq), (1, 1))
    return cases


class TestGradedStream:
    @pytest.mark.parametrize("spec, module, window", _graded_stream_cases())
    def test_matches_literal_loop(self, spec, module, window):
        # every (key, residual) of the stream, zeros included, in order
        n_basis, k_gen = window
        literal = [
            ((fam_f, fam_g, i, j, m),
             literal_module_residual(spec, module.action, fam_f, fam_g, i, j, m))
            for fam_f in spec.families
            for fam_g in spec.families
            for i in range(-k_gen, k_gen + 1)
            for j in range(-k_gen, k_gen + 1)
            for m in range(-n_basis, n_basis + 1)
        ]
        assert list(module_residuals(spec, module, n_basis, k_gen)) == literal
        report = check_module_axioms(spec, module, n_basis, k_gen)
        assert report.checked == len(literal)
        assert list(report.residuals.items()) == [(k, r) for k, r in literal if r]

    @pytest.mark.parametrize(
        "base, counts",
        [
            # the L table takes its 4 case values (1 for vab), Y the constant
            # dd and M is 0; p(d, l+m) is not made for a zero bracket target
            ("alternating", {"_at_m_shifted": 6, "_shifted_by_m": 6, "_at_m": 6,
                             "_at_l_plus_m": 5}),
            ("vab", {"_at_m_shifted": 3, "_shifted_by_m": 3, "_at_m": 3, "_at_l_plus_m": 2}),
        ],
    )
    def test_each_variable_change_made_once_per_stream(self, monkeypatch, base, counts):
        calls = {name: [] for name in counts}

        def counting(name):
            change = getattr(modules, name)

            def counted(value):
                calls[name].append(value)
                return change(value)

            return counted

        for name in counts:
            monkeypatch.setattr(modules, name, counting(name))
        spec = build_csv(0, 0)
        if base == "vab":
            module = build_graded(spec, "vab", "sym", "sym", "sym")
        else:
            module = build_graded(spec, "vAb", BitSeq(-9, tuple(k % 2 for k in range(19))),
                                  "sym", "sym")
        runs = []
        for _ in range(2):
            for made in calls.values():
                made.clear()
            assert check_module_axioms(spec, module, 3, 2).checked == 1575
            for made in calls.values():
                assert len(made) == len(set(made))
            runs.append({name: len(made) for name, made in calls.items()})
        assert runs == [counts, counts]

    def test_stream_stopped_at_its_first_break_computes_no_later_pattern(self, monkeypatch):
        # with [L _l L] = (d + 3l) L the very first instance breaks; a reader
        # that stops there has asked for one bit pattern, not 175
        computed = []

        def counted(module):
            pattern = bit_pattern(module)
            return lambda i, j, m: computed.append((i, j, m)) or pattern(i, j, m)

        bit_pattern = modules._bit_pattern
        monkeypatch.setattr(modules, "_bit_pattern", counted)
        csv = build_csv(0, 0)
        table = {**csv.table, ("L", "L"): (("L", P("d + 3*l")),)}
        spec = AlgebraSpec("csv-ll", csv.families, table)
        bits = BitSeq(-9, tuple(k % 2 for k in range(19)))
        module = build_graded(spec, "vAb", bits, "sym", "sym")
        yielded = []
        for key, residual in module_residuals(spec, module, 3, 2):
            yielded.append(key)
            if residual:
                break
        assert yielded == [("L", "L", -2, -2, -3)]
        assert computed == [(-2, -2, -3)]


def _literal_oracle(module, a, b, n_basis, k_gen):
    """``relations_oracle`` with no memo: every variable change is made
    afresh at every sample (the reference the memoised oracle must match)."""
    from confalg.catalog import as_param

    pa, pb = as_param(a, "a"), as_param(b, "b")
    lvar, mvar = MPoly.var("l"), MPoly.var("m")

    def f(i, m):
        return module.action("L", i, m)

    def g(i, m):
        return module.action("M", i, m)

    def h(i, m):
        return module.action("Y", i, m)

    def at_mu_shift(table, i, m):
        return table(i, m).substitute("l", mvar).shift("d", lvar)

    def at_mu(table, i, m):
        return table(i, m).substitute("l", mvar)

    def at_sum(table, i, m):
        return table(i, m).substitute("l", lvar + mvar)

    w_lm = (pa - 1) * lvar - mvar + pb
    w_ly = pa.scale(Fraction(1, 2)) * lvar - mvar + pb.scale(Fraction(1, 2))
    checked, residuals = 0, {}
    for i in range(-k_gen, k_gen + 1):
        for j in range(-k_gen, k_gen + 1):
            for m in range(-n_basis, n_basis + 1):
                fm_shift = f(i, m).shift("d", mvar)
                rel = {}
                rel["LM"] = (
                    at_mu_shift(g, j, m) * f(i, j + m)
                    - fm_shift * at_mu(g, j, i + m)
                    - w_lm * at_sum(g, i + j, m)
                )
                rel["MM"] = at_mu_shift(g, j, m) * g(i, j + m) - g(i, m).shift(
                    "d", mvar
                ) * at_mu(g, j, i + m)
                if "Y" in module.families:
                    rel["LY"] = (
                        at_mu_shift(h, j, m) * f(i, j + m)
                        - fm_shift * at_mu(h, j, i + m)
                        - w_ly * at_sum(h, i + j, m)
                    )
                    rel["YY"] = (
                        at_mu_shift(h, j, m) * h(i, j + m)
                        - h(i, m).shift("d", mvar) * at_mu(h, j, i + m)
                        - (lvar - mvar) * at_sum(g, i + j, m)
                    )
                    rel["MY"] = at_mu_shift(h, j, m) * g(i, j + m) - g(i, m).shift(
                        "d", mvar
                    ) * at_mu(h, j, i + m)
                for name, residual in rel.items():
                    checked += 1
                    if not residual.is_zero():
                        residuals[(name, i, j, m)] = residual
    return checked, residuals


def _oracle_cases():
    """Seeded (module, a, b) cases: vab and vAb on csv and chv, symbolic a
    and b, and index-dependent tables on which the memo rarely hits."""
    rng = random.Random(17)
    cases = []
    for build in (build_csv, build_chv):
        for a, b in ((0, 0), (1, 0), (0, 1), (rng.randint(-2, 2), Fraction(rng.randint(-3, 3), 2))):
            spec = build(a, b)
            d_val = rng.choice([0, 1, Fraction(rng.randint(-3, 3), 2)])
            module = build_graded(spec, "vab", rng.randint(-2, 2), "sym", d_val)
            cases.append(pytest.param(module, a, b, id=f"{spec.name}-vab-{a},{b}"))
            bits = BitSeq.random(rng, -9, 9)
            module = build_graded(spec, "vAb", bits, rng.randint(-2, 2), d_val)
            cases.append(pytest.param(module, a, b, id=f"{spec.name}-vAb-{a},{b}"))
    for build in (build_csv, build_chv):
        spec = build("sym", "sym")
        module = build_graded(spec, "vab", "sym", "sym", "sym")
        cases.append(pytest.param(module, "sym", "sym", id=f"{spec.name}-vab-sym"))
        bits = BitSeq.from_string("0" * 9 + "1" + "0" * 9, -9)
        module = build_graded(spec, "vAb", bits, "sym", "sym")
        cases.append(pytest.param(module, "sym", "sym", id=f"{spec.name}-vAb-sym"))
    tables = {
        "L": lambda i, m: P(f"d + ({i} + {m})*l"),
        "M": lambda i, m: P(f"{i}*d + {m}*l + 1"),
        "Y": lambda i, m: P(f"d^2 + {i - m}*l"),
    }
    module = graded_from_tables(("L", "M", "Y"), tables)
    cases.append(pytest.param(module, 1, 0, id="indexed-LMY-1,0"))
    cases.append(pytest.param(module, "sym", "sym", id="indexed-LMY-sym"))
    module = graded_from_tables(("L", "M"), {k: tables[k] for k in "LM"})
    cases.append(pytest.param(module, 0, 1, id="indexed-LM-0,1"))
    # equal M and Y tables: LM and LY read the same values, and so do MM, MY
    # and YY, so only the relation name tells their residuals apart
    same = {"L": tables["L"], "M": tables["M"], "Y": tables["M"]}
    module = graded_from_tables(("L", "M", "Y"), same)
    cases.append(pytest.param(module, 1, 0, id="equal-MY-1,0"))
    cases.append(pytest.param(module, "sym", "sym", id="equal-MY-sym"))
    e = MPoly.var("e")
    flat = {"L": lambda i, m: P("d + alpha*l + beta"), "M": lambda i, m: e, "Y": lambda i, m: e}
    module = graded_from_tables(("L", "M", "Y"), flat)
    cases.append(pytest.param(module, 0, 1, id="equal-MY-flat-0,1"))
    # L flat and M, Y read by generator index alone: for fixed j, LM and LY
    # read the same x(j, m), y(i, j+m), z(i, m), w(j, i+m) at every i while
    # t(i+j, m) moves with i
    by_gen = {
        "L": lambda i, m: P("d + l"),
        "M": lambda i, m: P(f"{i}*d + 1"),
        "Y": lambda i, m: P(f"d^2 + {i}*l"),
    }
    module = graded_from_tables(("L", "M", "Y"), by_gen)
    cases.append(pytest.param(module, 1, 0, id="only-t-moves-1,0"))
    cases.append(pytest.param(module, "sym", "sym", id="only-t-moves-sym"))
    return cases


class TestRelationsOracle:
    @pytest.mark.parametrize("module, a, b", _oracle_cases())
    def test_matches_literal_oracle(self, module, a, b):
        checked, residuals = _literal_oracle(module, a, b, 3, 2)
        report = relations_oracle(module, a, b, 3, 2)
        assert report.checked == checked
        assert list(report.residuals.items()) == list(residuals.items())

    def test_no_memo_outlives_a_call(self, monkeypatch):
        # each distinct (change, table value) pays its shift once per call,
        # and a second call on the same module pays it again.  Here f takes
        # its four case values, g is 0 and h the constant dd: the d -> d+m
        # shift meets 4 + 1 + 1 values and p(d+l, m) meets 1 + 1
        calls = []
        shift = MPoly.shift

        def counting(self, name, delta):
            calls.append(name)
            return shift(self, name, delta)

        monkeypatch.setattr(MPoly, "shift", counting)
        bits = BitSeq.from_string("01" * 9 + "0", -9)
        module = build_graded(build_csv(0, 0), "vAb", bits, "sym", "sym")
        counts = []
        for _ in range(2):
            calls.clear()
            relations_oracle(module, 0, 0, 3, 2)
            counts.append(len(calls))
        assert counts == [8, 8]
    def test_each_relation_input_is_computed_once_per_call(self, monkeypatch):
        # flat tables give each relation one input tuple at every sample, so
        # the whole window costs the products of its one sample at
        # (i, j, m) = (0, 0, 0), and a second call pays them again
        products = []
        mul = MPoly.__mul__

        def counting(self, other):
            products.append(1)
            return mul(self, other)

        values = {"L": P("d + 2*l"), "M": P("e"), "Y": P("d + e")}
        module = graded_from_tables(
            ("L", "M", "Y"), {fam: (lambda i, m, _v=v: _v) for fam, v in values.items()}
        )
        monkeypatch.setattr(MPoly, "__mul__", counting)
        runs = []
        for n_basis, k_gen in ((0, 0), (3, 2), (3, 2)):
            products.clear()
            report = relations_oracle(module, 1, 0, n_basis, k_gen)
            runs.append((report.checked, len(products)))
        assert [checked for checked, _ in runs] == [5, 875, 875]
        assert runs[0][1] == runs[1][1] == runs[2][1] > 0

    def test_matches_axioms_on_valid_module(self):
        spec = build_csv(0, 0)
        module = build_graded(spec, "vab", "sym", "sym", "sym")
        assert relations_oracle(module, 0, 0, 3, 2).all_zero

    def test_constant_g_with_d_dependent_h(self):
        e = MPoly.var("e")
        tables = {
            "L": lambda i, m: P("d + alpha*l + beta"),
            "M": lambda i, m: e,
            "Y": lambda i, m: P("d^2 + l"),
        }
        module = graded_from_tables(("L", "M", "Y"), tables)
        report = relations_oracle(module, 1, 0, 2, 1)
        broken = {key[0] for key in report.residuals}
        assert "MY" in broken

    def test_constant_g_flat_h_breaks_yy(self):
        e = MPoly.var("e")
        tables = {
            "L": lambda i, m: P("d + alpha*l + beta"),
            "M": lambda i, m: e,
            "Y": lambda i, m: MPoly.zero(),
        }
        module = graded_from_tables(("L", "M", "Y"), tables)
        report = relations_oracle(module, 1, 0, 2, 1)
        yy = [res for key, res in report.residuals.items() if key[0] == "YY"]
        assert yy and all(res == P("m - l") * e for res in yy)

    def test_all_zero_tables(self):
        tables = {
            "L": lambda i, m: P("d + alpha*l + beta"),
            "M": lambda i, m: MPoly.zero(),
            "Y": lambda i, m: MPoly.zero(),
        }
        module = graded_from_tables(("L", "M", "Y"), tables)
        report = relations_oracle(module, "sym", "sym", 2, 1)
        assert report.all_zero

    def test_equivalence_random_samples(self):
        rng = random.Random(99)
        grid = [(0, 0), (1, 0), (0, 1), (1, 1)]
        for _ in range(12):
            a, b = grid[rng.randrange(len(grid))]
            spec = build_csv(a, b)
            d_val = rng.choice([0, 1, Fraction(rng.randint(-3, 3), 2)])
            if rng.random() < 0.5:
                module = build_graded(spec, "vab", rng.randint(-2, 2), rng.randint(-2, 2), d_val)
            else:
                module = build_graded(
                    spec, "vAb", BitSeq.random(rng, -9, 9), rng.randint(-2, 2), d_val
                )
            axioms = check_module_axioms(spec, module, 3, 2)
            oracle = relations_oracle(module, a, b, 3, 2)
            assert axioms.all_zero == oracle.all_zero


def _bounded_witness_search(module, max_degree=3):
    """The bounded witness search that ``reducibility_witness`` replaced,
    kept as its oracle: for each degree 1..max_degree it writes a monic q
    with unknown lower coefficients, asks that q divide q(d+l) * T_F for
    every acting family by remainder equations, and solves them.  Returns
    ``(witness, degree, trivial_module, all_actions_zero)``, or "undecided"
    when nonlinear equations survive."""
    if module.all_actions_zero() or not module.c_value():
        return None, None, True, module.all_actions_zero()
    acting = [t for t in module.templates.values() if not t.is_zero()]
    for degree in range(1, max_degree + 1):
        wnames = [f"w{k}" for k in range(degree)]
        q = MPoly.var("d", degree)
        for k, name in enumerate(wnames):
            q = q + MPoly.var(name) * MPoly.var("d", k)
        q_shift = q.shift("d", MPoly.var("l"))
        equations = []
        for t in acting:
            _, rem = (q_shift * t).divmod_in(q, "d")
            equations.extend(rem.split_by(["d", "l"]).values())
        solution = _solve_witness_equations(equations, wnames)
        if solution == "undecided":
            return "undecided"
        if solution is None:
            continue
        witness = MPoly.var("d", degree)
        for k, name in enumerate(wnames):
            witness = witness + MPoly.var("d", k).scale(solution[name])
        for t in acting:
            (witness.shift("d", MPoly.var("l")) * t).divide_exact(witness)
        return witness, degree, False, False
    return None, None, False, False


def _solve_witness_equations(equations, wnames):
    """The coefficient values, None when the system is inconsistent, or
    "undecided" when nonlinear equations survive linear propagation."""
    linear_rows, linear_rhs, nonlinear = [], [], []
    for eq in equations:
        if eq.is_zero():
            continue
        if eq.is_constant():
            return None
        if eq.degree() <= 1:
            row = []
            rest = eq
            for name in wnames:
                row.append(eq.coeff_extract([name], {name: 1}).constant_value())
                rest = rest.substitute(name, 0)
            linear_rows.append(row)
            linear_rhs.append(-rest)
        else:
            nonlinear.append(eq)
    if not linear_rows:
        return "undecided" if nonlinear else {
            name: GaussianRational.of(0) for name in wnames
        }
    try:
        sol = linear_solve(linear_rows, linear_rhs)
    except Inconsistent:
        return None
    values = {}
    for name, value in zip(wnames, sol.solution):
        if not value.is_constant():
            return "undecided"
        values[name] = value.constant_value()
    for eq in nonlinear:
        r = eq
        for name, value in values.items():
            r = r.substitute(name, MPoly.const(value))
        if not r.is_zero():
            return "undecided" if sol.kernel else None
    return values


def _gaussian(rng):
    return GaussianRational(
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.5 else 0,
    )


def _witness_cases(algebra, shape, count=100):
    """Seeded rank-one modules over csv or chv: Gaussian alpha, beta, c and
    extension scalar (each zero now and then), alpha = 0, or scale base 0."""
    spec = {"csv": build_csv, "chv": build_chv}[algebra](0, 0)
    rng = random.Random(f"{algebra}-{shape}")
    for _ in range(count):
        alpha = 0 if shape == "alpha-zero" or rng.random() < 0.1 else _gaussian(rng)
        c = 0 if shape == "zero-scale" else _gaussian(rng) or 1
        d = 0 if rng.random() < 0.5 else _gaussian(rng)
        yield build_rank1(spec, alpha, _gaussian(rng), c, d)


class TestWitness:
    def test_alpha_zero_finds_linear_witness(self):
        module = build_rank1(build_csv(0, 0), 0, 5, 1, 0)
        res = reducibility_witness(module)
        assert res.witness == P("d + 5") and res.degree == 1
        # submodule condition verified independently
        shifted = res.witness.shift("d", MPoly.var("l"))
        assert (shifted * module.template("L")).divide_exact(res.witness)

    def test_alpha_nonzero_no_witness(self):
        module = build_rank1(build_csv(0, 0), 1, 0, 1, 0)
        res = reducibility_witness(module)
        assert res.witness is None
        assert res.note == "no witness at any degree"

    def test_nonzero_extension_blocks_witness(self):
        module = build_rank1(build_csv(0, 0), 0, 5, 1, 2)
        res = reducibility_witness(module)
        assert res.witness is None

    def test_zero_scale_base_flagged(self):
        module = build_rank1(build_csv(0, 0), 1, 5, 0, 0)
        res = reducibility_witness(module)
        assert res.trivial_module
        assert not res.all_actions_zero

    def test_symbolic_parameters_rejected(self):
        module = build_rank1(build_csv(0, 0), "sym", 0, 1, 0)
        with pytest.raises(ValueError):
            reducibility_witness(module)

    @pytest.mark.parametrize("algebra", ["csv", "chv"])
    @pytest.mark.parametrize("shape", ["gaussian", "alpha-zero", "zero-scale"])
    def test_gcd_matches_the_bounded_search(self, algebra, shape):
        outcomes = set()
        for module in _witness_cases(algebra, shape):
            res = reducibility_witness(module)
            got = (res.witness, res.degree, res.trivial_module, res.all_actions_zero)
            assert got == _bounded_witness_search(module), serialize_module(module)
            outcomes.add(
                "trivial" if res.trivial_module else "none" if res.witness is None else "found"
            )
        # each shape reaches the outcomes it is there for
        assert outcomes == ({"trivial"} if shape == "zero-scale" else {"found", "none"})

    def test_witness_is_the_whole_monic_gcd(self):
        # the gcd of every l-coefficient of every template, made monic; the
        # bounded search stops at its first degree and cannot solve this
        # one, whose remainder equations are quadratic
        g = P("(d + 1)*(d + 2)")
        module = Rank1Module(
            families=("L", "M"), alpha=P("0"), beta=P("0"), c=P("1"), d=P("0"),
            templates={"L": g * P("2 + 3*i*l"), "M": g * P("d - 1/2")},
        )
        res = reducibility_witness(module)
        assert res.witness == g and res.degree == 2
        assert _bounded_witness_search(module) == "undecided"
        for t in module.templates.values():
            assert (g.shift("d", MPoly.var("l")) * t).divide_exact(g)
        module.templates["M"] = P("(d + 2)*(d - 1/2)")
        assert reducibility_witness(module).witness == P("d + 2")


class TestBuildModule:
    @pytest.mark.parametrize("kind, params, direct", [
        ("rank1", {}, lambda spec, bits: build_rank1(spec)),
        ("rank1", {"alpha": Fraction(1, 2), "c": 2, "d": "sym"},
         lambda spec, bits: build_rank1(spec, Fraction(1, 2), "sym", 2, "sym")),
        ("graded-vab", {}, lambda spec, bits: build_graded(spec, "vab")),
        ("graded-vab", {"alpha": 3, "beta": 1, "d": "sym"},
         lambda spec, bits: build_graded(spec, "vab", 3, 1, "sym")),
        ("graded-vAb", {}, lambda spec, bits: build_graded(spec, "vAb", bits)),
        ("graded-vAb", {"beta": 2, "d": Fraction(1, 3)},
         lambda spec, bits: build_graded(spec, "vAb", bits, 2, Fraction(1, 3))),
    ])
    def test_matches_the_kind_builder(self, kind, params, direct):
        spec = build_csv(0, 0)
        bits = BitSeq.from_string("0110100010101100000", -9)
        built = build_module(spec, kind, params, bits)
        want = direct(spec, bits)
        assert serialize_module(built) == serialize_module(want)
        if kind == "rank1":
            assert built == want
        else:
            assert all(
                built.action(fam, i, m) == want.action(fam, i, m)
                for fam in spec.families
                for i in range(-2, 3)
                for m in range(-3, 4)
            )

    def test_graded_vab_needs_bits(self):
        with pytest.raises(ValueError, match="^a graded-vAb module needs a bitseq$"):
            build_module(build_csv(0, 0), "graded-vAb", {})


class TestSerialization:
    def test_rank1_round_trip(self):
        spec = build_csv(0, 0)
        module = build_rank1(spec, Fraction(1, 2), "sym", 2, "sym")
        text = serialize_module(module)
        back = parse_module(text, spec)
        assert serialize_module(back) == text
        assert back.template("L") == module.template("L")

    def test_graded_round_trip(self):
        spec = build_csv(0, 0)
        bits = BitSeq.from_string("011010", -3)
        module = build_graded(spec, "vAb", bits, "sym", 1)
        text = serialize_module(module)
        back = parse_module(text, spec)
        assert back.bitseq == bits
        assert serialize_module(back) == text

    @pytest.mark.parametrize("line, cause", [
        ("bitseq -9 : 01x0000000000000000", "invalid literal for int() with base 10: 'x'"),
        ("bitseq x : 0100000000000000000", "invalid literal for int() with base 10: 'x '"),
    ])
    def test_malformed_bitseq_line_names_the_line(self, line, cause):
        text = f"module graded-vAb\nfamilies L M Y\n{line}\n"
        with pytest.raises(ValueError) as err:
            parse_module(text, build_csv(0, 0))
        assert str(err.value) == f"bad bitseq line: {line!r}: {cause}"

    def test_malformed_param_polynomial_names_the_line(self):
        line = "param alpha : 1 +"
        with pytest.raises(ValueError) as err:
            parse_module(f"module rank1\nfamilies L M Y\n{line}\n", build_csv(0, 0))
        assert str(err.value) == f"bad param line: {line!r}: unexpected end of polynomial text"

    @pytest.mark.parametrize("kind, line, readable", [
        ("rank1", "param aplha : 2", "alpha, beta, c, d"),
        ("graded-vab", "param c : 2", "alpha, beta, d"),
        ("graded-vAb", "param alpha : 2", "beta, d"),
    ], ids=["rank1-typo", "vab-c", "vAb-alpha"])
    def test_param_the_kind_does_not_read_is_refused(self, kind, line, readable):
        text = f"module {kind}\nfamilies L M Y\n{line}\nbitseq -9 : {'0' * 19}\n"
        with pytest.raises(ValueError) as err:
            parse_module(text, build_csv(0, 0))
        key = line.split()[1]
        assert str(err.value) == (
            f"bad param line: {line!r}: module {kind} has no param {key}; it reads {readable}"
        )

    @pytest.mark.parametrize("kind", ["rank1", "graded-vab"])
    def test_bitseq_line_the_kind_does_not_read_is_refused(self, kind):
        line = f"bitseq -9 : {'0' * 19}"
        with pytest.raises(ValueError) as err:
            parse_module(f"module {kind}\nfamilies L M Y\n{line}\n", build_csv(0, 0))
        assert str(err.value) == f"bad bitseq line: {line!r}: module {kind} reads no bitseq"

    def test_unknown_kind_names_the_module_line(self):
        line = "module graded-vxb"
        with pytest.raises(ValueError) as err:
            parse_module(f"{line}\nfamilies L M Y\n", build_csv(0, 0))
        assert str(err.value) == (
            f"bad module line: {line!r}: unknown module kind 'graded-vxb'; "
            "the kinds are rank1, graded-vab, graded-vAb"
        )

    def test_text_without_module_line_is_refused(self):
        with pytest.raises(ValueError, match="^module text has no module line$"):
            parse_module("families L M Y\nparam alpha : 1\n", build_csv(0, 0))

    def test_families_off_the_algebra_names_the_families_line(self):
        line = "families L M"
        with pytest.raises(ValueError) as err:
            parse_module(f"module rank1\n{line}\n", build_csv(0, 0))
        assert str(err.value) == (
            f"bad families line: {line!r}: module families do not match the algebra's L M Y"
        )

    def test_graded_vAb_text_without_bitseq_is_refused(self):
        with pytest.raises(ValueError, match="^a graded-vAb module needs a bitseq$"):
            parse_module("module graded-vAb\nfamilies L M Y\n", build_csv(0, 0))

    @pytest.mark.parametrize("line", [
        "module graded-vab", "families L M Y", "param alpha : 2", f"bitseq -9 : {'1' * 19}"
    ])
    def test_repeated_single_valued_line_is_refused(self, line):
        text = f"module graded-vAb\nfamilies L M Y\nparam alpha : 1\nbitseq -9 : {'0' * 19}\n"
        with pytest.raises(ValueError) as err:
            parse_module(text + line + "\n", build_csv(0, 0))
        head, _, rest = line.partition(" ")
        tag = f"param {rest.split()[0]}" if head == "param" else head
        assert str(err.value) == f"bad {head} line: {line!r}: {tag} is given twice"

    def test_distinct_param_lines_are_kept(self):
        spec = build_csv(0, 0)
        text = "module rank1\nparam alpha : 1/2\nparam c : 2\n"
        assert serialize_module(parse_module(text, spec)) == serialize_module(
            build_rank1(spec, Fraction(1, 2), "sym", 2, 0)
        )

    def test_vab_round_trip(self):
        spec = build_csv(0, 0)
        module = build_graded(spec, "vab", Fraction(1, 3), "sym", 2)
        text = serialize_module(module)
        assert serialize_module(parse_module(text, spec)) == text
