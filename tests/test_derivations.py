import random
from collections import Counter
from fractions import Fraction

import pytest

from confalg.catalog import build_chv, build_construction, build_csv, build_hv, build_sv
import confalg.derivations
from confalg.derivations import (
    DerivationReport,
    DerivationSpec,
    InnerNotInKernel,
    _inner_patterns,
    _linearization,
    _lzero_blocks,
    _lzero_kernel,
    _make_coords,
    _template_layout,
    inner_window_vectors,
    NotDecomposable,
    StrayVariable,
    ad,
    apply_derivation,
    check_derivation,
    d_vec,
    decompose,
    derivation_degree,
    leibniz_residual,
    parse_derivation,
    serialize_derivation,
    solve_graded_derivations,
)
from confalg.lca import (
    AlgebraSpec, DegreeBoundExceeded, GenPoly, Generator, UnknownFamily, make_algebra,
)
from confalg.linsolve import reduce_rows
from confalg.poly import ZERO, GaussianRational, MPoly, parse_poly
from confalg.suite import DERIVATION_GRID_A, DERIVATION_GRID_B
from conftest import contribution_table, hand_blocks, leibniz_system, ncols, pair_rows

P = parse_poly
ONE = GaussianRational.of(1)
GAUSS_WEIGHTS = (
    GaussianRational(Fraction(1, 2), Fraction(1)),
    GaussianRational(Fraction(2), Fraction(-1)),
)


def full_solve(spec, degree, bound, window, pairs="lzero"):
    """The oracle: the whole ``pairs`` system in one elimination.

    Returns the layout, the kernel and the inner rank, and checks that the
    inner derivations lie in the kernel.
    """
    coords, rows = leibniz_system(spec, degree, bound, window, pairs)
    width = ncols(coords)
    kernel = list(reduce_rows(rows, None, width).kernel_vectors().values())
    inner = inner_window_vectors(spec, coords)
    assert reduce_rows(kernel + inner, None, width).rank == len(kernel)
    return coords, kernel, reduce_rows(inner, None, width).rank


def assert_block_solve_matches_full(spec, degree, bound, window):
    coords, kernel, inner_rank = full_solve(spec, degree, bound, window)
    res = solve_graded_derivations(spec, degree, bound, window)
    assert (res.dimension, res.inner_rank) == (len(kernel), inner_rank)
    block = [coords.vector_of(deriv) for deriv in res.basis]
    assert reduce_rows(block, None, ncols(coords)).rank == len(block) == res.dimension
    union = reduce_rows(block + kernel, None, ncols(coords)).rank
    assert union == res.dimension


def combine(d1: DerivationSpec, d2: DerivationSpec, c1, c2) -> DerivationSpec:
    out = DerivationSpec(
        families=d1.families, window=min(d1.window, d2.window), degree=None
    )
    keys = set(d1.images) | set(d2.images)
    for key in keys:
        if abs(key[1]) > out.window:
            continue
        image = d1.image(*key).scale(MPoly.const(c1)) + d2.image(*key).scale(
            MPoly.const(c2)
        )
        if not image.is_zero():
            out.images[key] = image
    return out


def random_vector(rng, ncols, size):
    """A sparse vector of ``size`` random Gaussian-rational coordinates."""
    return {
        col: GaussianRational(
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3)),
            rng.choice((0, 0, 1, -2)),
        )
        for col in rng.sample(range(ncols), size)
    }


def assert_rows_match_evaluator(spec, degree, sources=("L",), index=0, seed=0):
    """Each row of the pair (x_index, y_j), x over ``sources``, times a random
    vector x is the coefficient of the evaluated Leibniz residual of the
    derivation with coordinates x at the row's (target generator, monomial)."""
    window, bound = 2, 4
    coords = _make_coords(spec, degree, bound, window)
    table = contribution_table(
        spec, bound, [(fx, fy) for fx in sources for fy in spec.families]
    )
    rng = random.Random(seed)
    nonzero = 0
    for _ in range(2):
        x = random_vector(rng, ncols(coords), 80)
        deriv = coords.derivation_of(x)
        for fam_x in sources:
            for fam_y in spec.families:
                for j in range(-window, window + 1):
                    if abs(index + j) > window:
                        continue
                    rows = pair_rows(coords, table[(fam_x, fam_y)], index, j)
                    predicted = {}
                    for key, row in rows.items():
                        value = sum((v * x[col] for col, v in row.items() if col in x), ZERO)
                        if value:
                            predicted[key] = value
                    residual = leibniz_residual(spec, deriv, fam_x, index, fam_y, j)
                    assert {gen.index for gen in residual.terms} <= {index + j + degree}
                    evaluated = {
                        (gen.family, mono): coeff
                        for gen, poly in residual.terms.items()
                        for mono, coeff in poly.terms.items()
                    }
                    assert evaluated == predicted, (fam_x, index, fam_y, j)
                    nonzero += len(evaluated)
    assert nonzero


def literal_inner_vectors(spec, coords):
    """The oracle of ``inner_window_vectors``: ``ad`` evaluated index by index."""
    return [
        coords.vector_of(
            ad(spec, GenPoly.unit(fam, coords.degree, MPoly.var("d", k)), coords.src_window)
        )
        for fam in spec.families
        for k in range(coords.bound)
    ]


class TestBuilders:
    def test_ad_of_l0(self):
        csv = build_csv("sym", "sym")
        deriv = ad(csv, GenPoly.unit("L", 0), window=2)
        assert deriv.image("L", 2) == GenPoly({Generator("L", 2): P("d + 2*l")})

    def test_ad_of_zero(self):
        csv = build_csv(0, 0)
        assert ad(csv, GenPoly.zero(), window=2).is_zero()

    def test_ad_of_m_at_loop_point(self):
        # skew-symmetry applied to the L-on-M bracket at (1, 0) leaves l*M
        csv = build_csv(1, 0)
        deriv = ad(csv, GenPoly.unit("M", 2), window=3)
        assert deriv.image("L", 1) == GenPoly({Generator("M", 3): P("l")})

    def test_dvec_images(self):
        csv = build_csv(1, 0)
        deriv = d_vec(csv, {0: ONE}, window=2)
        assert deriv.image("L", 1) == GenPoly({Generator("M", 1): MPoly.const(1)})
        assert deriv.image("M", 1).is_zero()
        assert deriv.image("Y", 0).is_zero()

    def test_dvec_linear_support(self):
        csv = build_csv(1, 0)
        deriv = d_vec(
            csv, {-1: GaussianRational.of(2), 3: GaussianRational.of(5)}, window=4
        )
        assert deriv.image("L", 0) == GenPoly(
            {Generator("M", -1): MPoly.const(2), Generator("M", 3): MPoly.const(5)}
        )

    def test_dvec_zero(self):
        csv = build_csv(1, 0)
        assert d_vec(csv, {}, window=2).is_zero()

    def test_ad_refuses_negative_window(self):
        with pytest.raises(ValueError, match="^window must be >= 0, got -1"):
            ad(build_csv(1, 0), GenPoly.unit("M", 0), window=-1)

    def test_dvec_refuses_negative_window(self):
        with pytest.raises(ValueError, match="^window must be >= 0, got -1"):
            d_vec(build_csv(1, 0), {0: ONE}, window=-1)


class TestLeibniz:
    def test_dvec_is_derivation_at_a1(self):
        for builder in (build_csv, build_chv):
            spec = builder(1, "sym")
            deriv = d_vec(spec, {0: ONE, 2: GaussianRational.of(-3)}, window=4)
            assert check_derivation(spec, deriv, window=2).all_zero

    def test_dvec_fails_at_a0(self):
        spec = build_csv(0, 0)
        report = check_derivation(spec, d_vec(spec, {0: ONE}, window=2))
        pairs = {(k[0], k[2]) for k in report.residuals}
        assert pairs == {("L", "L")}

    def test_ad_is_derivation(self):
        rng = random.Random(7)
        spec = build_csv(Fraction(1, 2), -2)
        for _ in range(8):
            x = GenPoly.zero()
            for fam in spec.families:
                if rng.random() < 0.7:
                    x = x + GenPoly.unit(
                        fam,
                        rng.randint(-1, 1),
                        P(f"{rng.randint(-2, 2)}*d^2 + {rng.randint(-2, 2)}"),
                    )
            deriv = ad(spec, x, window=3)
            assert check_derivation(spec, deriv, window=1).all_zero

    def test_residual_linearity(self):
        spec = build_csv(0, 0)
        d1 = d_vec(spec, {0: ONE}, window=2)
        d2 = ad(spec, GenPoly.unit("L", 0, P("d")), window=2)
        c1, c2 = GaussianRational.of(3), GaussianRational.of(Fraction(-1, 2))
        mix = combine(d1, d2, c1, c2)
        for fam_x, i, fam_y, j in (("L", 0, "L", 1), ("L", -1, "M", 1), ("Y", 0, "Y", 0)):
            r1 = leibniz_residual(spec, d1, fam_x, i, fam_y, j)
            r2 = leibniz_residual(spec, d2, fam_x, i, fam_y, j)
            rm = leibniz_residual(spec, mix, fam_x, i, fam_y, j)
            assert rm == r1.scale(MPoly.const(c1)) + r2.scale(MPoly.const(c2))

    def test_compatibility_with_module_structure(self):
        # D(p(d) x) = p(d + l) D(x) holds structurally
        spec = build_csv(1, 0)
        deriv = d_vec(spec, {0: ONE}, window=3)
        x = GenPoly.unit("L", 1, P("d^2 + 3"))
        got = apply_derivation(deriv, x)
        assert got == deriv.image("L", 1).scale(P("(d + l)^2 + 3"))


def literal_check(spec, deriv, window=None):
    """The oracle of ``check_derivation``: ``leibniz_residual`` at every pair,
    with no reuse."""
    w = deriv.window if window is None else window
    report = DerivationReport(algebra=spec.name, window=w)
    for fam_x in spec.families:
        for fam_y in spec.families:
            for i in range(-w, w + 1):
                for j in range(-w, w + 1):
                    if abs(i + j) > deriv.window:
                        continue
                    residual = leibniz_residual(spec, deriv, fam_x, i, fam_y, j)
                    report.checked += 1
                    if not residual.is_zero():
                        report.residuals[(fam_x, i, fam_y, j)] = residual
    return report


def gaussian_support(rng):
    return {
        rng.randint(-2, 2): GaussianRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2)
        )
        for _ in range(3)
    }


def edited_dvec(spec, index):
    """The M-valued family with the image of L_index replaced by d * M_index."""
    deriv = d_vec(spec, {0: ONE, 1: GaussianRational(2, -1)}, window=3)
    deriv.images[("L", index)] = GenPoly({Generator("M", index): P("d")})
    return deriv


def reuse_cases():
    """A seeded set of (name, spec, derivation, check window), with nonzero
    residuals and with images that are not one pattern relabelled."""
    rng = random.Random(1414)
    for build in (build_csv, build_chv):
        for a in (1, GaussianRational(Fraction(1, 2), 1), 0):
            spec = build(a, "sym")
            yield f"dvec-{spec.name}-{a}", spec, d_vec(spec, gaussian_support(rng), window=3), None
    spec = build_csv(Fraction(1, 2), -2)
    for trial in range(3):
        x = GenPoly.zero()
        for fam in spec.families:
            x = x + GenPoly.unit(fam, rng.randint(-1, 1), P(f"{rng.randint(1, 3)}*d + {trial}"))
        yield f"ad-mixed-{trial}", spec, ad(spec, x, window=2), None
    for build, a in ((build_csv, 1), (build_chv, 2), (build_csv, GaussianRational(1, 1))):
        spec = build(a, 0)
        coords = _make_coords(spec, rng.randint(-1, 1), 2, 2)
        deriv = coords.derivation_of(random_vector(rng, ncols(coords), 12))
        yield f"coords-{spec.name}-{a}", spec, deriv, None
        yield f"coords-{spec.name}-{a}-w1", spec, deriv, 1
    for build in (build_csv, build_chv):
        for index in (-2, 1):
            spec = build(1, "sym")
            yield f"edited-{spec.name}-{index}", spec, edited_dvec(spec, index), None


class TestLeibnizReuse:
    """``check_derivation`` reuses residuals by relabelled images; these tests
    hold it to the literal loop."""

    @pytest.mark.parametrize(
        "spec, deriv, window",
        [case[1:] for case in reuse_cases()],
        ids=[case[0] for case in reuse_cases()],
    )
    def test_matches_literal_loop(self, spec, deriv, window):
        report = check_derivation(spec, deriv, window)
        oracle = literal_check(spec, deriv, window)
        assert report.checked == oracle.checked
        assert list(report.residuals.items()) == list(oracle.residuals.items())

    def test_seeded_set_has_nonzero_and_non_uniform_cases(self):
        reports = [check_derivation(spec, deriv, w) for _, spec, deriv, w in reuse_cases()]
        assert sum(not rep.all_zero for rep in reports) >= 10
        assert sum(not rep.every_index for rep in reports) >= 8

    @pytest.mark.parametrize("build, calls", [(build_csv, 9), (build_chv, 4)], ids=["csv", "chv"])
    def test_one_residual_per_family_pair_for_dvec(self, build, calls, monkeypatch):
        evaluated = []
        literal = confalg.derivations.leibniz_residual

        def counted(*args):
            evaluated.append(args[2:])
            return literal(*args)

        monkeypatch.setattr(confalg.derivations, "leibniz_residual", counted)
        for a in (1, 0):
            spec = build(a, "sym")
            evaluated.clear()
            report = check_derivation(spec, d_vec(spec, {0: ONE, -2: ONE}, window=3))
            assert len(evaluated) == calls
            assert report.every_index and set(report.patterns.values()) == {1}
            assert report.checked == len(spec.families) ** 2 * 37

    def test_edited_image_is_not_read_at_other_indices(self):
        spec = build_csv(1, "sym")
        report = check_derivation(spec, edited_dvec(spec, 1))
        assert report.patterns == {"L": 2, "M": 1, "Y": 1} and not report.every_index
        # every failing pair reads the edited image, as x, y or bracket target
        assert report.residuals
        for fam_x, i, fam_y, j in report.residuals:
            targets = {tgt for tgt, _ in spec.templates(fam_x, fam_y)}
            reads = {(fam_x, i), (fam_y, j)} | {(tgt, i + j) for tgt in targets}
            assert ("L", 1) in reads

    def test_default_report_has_no_every_index_claim(self):
        assert not DerivationReport(algebra="csv", window=0).every_index


class TestSolver:
    def test_generic_point_inner_only(self):
        res = solve_graded_derivations(build_csv(2, 3), degree=0, bound=4, window=2)
        assert (res.dimension, res.inner_rank, res.extra_dimension) == (12, 12, 0)

    def test_loop_point_extra_line(self):
        res = solve_graded_derivations(build_csv(1, 0), degree=0, bound=4, window=2)
        assert res.extra_dimension == 1

    def test_origin_degree_one_inner(self):
        res = solve_graded_derivations(build_csv(0, 0), degree=1, bound=4, window=2)
        assert res.extra_dimension == 0

    def test_chv_points(self):
        assert (
            solve_graded_derivations(build_chv(1, 0), degree=0, bound=4, window=2)
            .extra_dimension
            == 1
        )
        assert (
            solve_graded_derivations(build_chv(0, 0), degree=0, bound=4, window=2)
            .extra_dimension
            == 0
        )

    def test_pair_sets_agree(self):
        for builder, a in ((build_csv, 1), (build_csv, 2), (build_chv, 1)):
            spec = builder(a, 0)
            lzero = solve_graded_derivations(spec, 0, 3, 1)
            _, kernel, inner_rank = full_solve(spec, 0, 3, 1, "all")
            assert lzero.extra_dimension == len(kernel) - inner_rank

    @pytest.mark.parametrize("degree", [-1, 0, 1])
    @pytest.mark.parametrize(
        "builder, shape",
        [(build_csv, (2245, 675, 4411, 662)), (build_chv, (983, 300, 1955, 291))],
        ids=["csv", "chv"],
    )
    def test_leibniz_system_shape(self, builder, shape, degree):
        # rows, columns, nonzeros and rank at bound 4, window 2; the rows do
        # not depend on the grading degree
        coords, rows = leibniz_system(builder(1, 0), degree, 4, 2, "lzero")
        rank = reduce_rows(rows, None, ncols(coords)).rank
        nnz = sum(len(row) for row in rows)
        assert (len(rows), ncols(coords), nnz, rank) == shape

    @pytest.mark.parametrize(
        "builder, weights",
        [(build_csv, (1, 0)), (build_chv, (1, 0)), (build_csv, GAUSS_WEIGHTS)],
        ids=["csv", "chv", "csv-gauss"],
    )
    def test_lzero_blocks_are_relabelled_copies(self, builder, weights):
        # the block solve rests on this: for j != 0 the rows of the pairs
        # (L_0, y_j) are the j = 1 rows with the index-1 columns moved to
        # index j, in the same order; they touch only the index-0 L-source
        # columns and the index-j columns; and the j = 0 rows are the j = 1
        # rows with the index-1 columns moved onto index 0
        spec = builder(*weights)
        coords = _make_coords(spec, 0, 4, 4)
        table = contribution_table(spec, 4, [("L", fam) for fam in spec.families])

        def rows(j):
            return [row for fam in spec.families
                    for row in pair_rows(coords, table[("L", fam)], 0, j).values()]

        def block(index):
            # the columns of source index ``index``, in layout order
            start = (index + coords.src_window) * coords.n
            return list(range(start, start + coords.n))

        a_cols = {block(0)[k] for (fam, _, _), k in coords.local.items() if fam == "L"}
        first = rows(1)
        for j in (-4, -3, -2, -1, 2, 3, 4):
            move = dict(zip(block(1), block(j)))
            relabelled = [{move.get(col, col): v for col, v in row.items()} for row in first]
            assert rows(j) == relabelled
            allowed = a_cols | set(block(j))
            assert all(set(row) <= allowed for row in rows(j))
        to_zero = dict(zip(block(1), block(0)))
        merged = []
        for row in first:
            out = {}
            for col, v in row.items():
                col = to_zero.get(col, col)
                out[col] = out[col] + v if col in out else v
            out = {col: v for col, v in out.items() if v}
            if out:
                merged.append(out)
        assert rows(0) == merged

    @pytest.mark.parametrize("bound", [1, 2])
    def test_kernel_of_b_enters_once_per_index(self, bound):
        # a central family Z (zero brackets) gives maps Z_j -> Z_j that no
        # pair constrains, so ker B is nonzero and the dimension grows with
        # the window by 2 * dim ker B per step
        csv = build_csv(1, 0)
        spec = AlgebraSpec("csv+Z", csv.families + ("Z",), dict(csv.table))
        dims = []
        for window in (0, 1, 2):
            assert_block_solve_matches_full(spec, 0, bound, window)
            dims.append(solve_graded_derivations(spec, 0, bound, window).dimension)
        assert dims[2] - dims[1] == dims[1] - dims[0] > 0

    @pytest.mark.parametrize("window", [0, 1])
    @pytest.mark.parametrize(
        "builder, weights",
        [(build_csv, (1, 0)), (build_chv, (1, 0)), (build_csv, GAUSS_WEIGHTS)],
        ids=["csv", "chv", "csv-gauss"],
    )
    def test_small_windows_match_full_solve(self, builder, weights, window):
        # window 0 has no j != 0 block; window 1 has one pair of them
        assert_block_solve_matches_full(builder(*weights), 0, 4, window)

    @pytest.mark.parametrize("a", DERIVATION_GRID_A, ids=str)
    @pytest.mark.parametrize("builder", [build_csv, build_chv], ids=["csv", "chv"])
    def test_block_solve_matches_full_solve_on_criterion_4(self, builder, a):
        for b in DERIVATION_GRID_B:
            for degree in (-1, 0, 1):
                assert_block_solve_matches_full(builder(a, b), degree, 4, 2)

    @pytest.mark.parametrize("builder", [build_csv, build_chv], ids=["csv", "chv"])
    def test_degree_c_solve_is_the_degree_0_solve_relabelled(self, builder):
        # the bracket templates are index-free, so tau: x_i -> x_(i+1) maps
        # the degree-0 derivations onto the degree-c ones by D -> tau^c D
        def relabelled(deriv, c):
            out = DerivationSpec(families=deriv.families, window=deriv.window,
                                 degree=deriv.degree + c)
            for key, image in deriv.images.items():
                out.images[key] = GenPoly({Generator(gen.family, gen.index + c): poly
                                           for gen, poly in image.terms.items()})
            return out

        for a in DERIVATION_GRID_A:
            for b in DERIVATION_GRID_B:
                spec = builder(a, b)
                res0 = solve_graded_derivations(spec, 0, 4, 2)
                for c in (-1, 1):
                    res = solve_graded_derivations(spec, c, 4, 2)
                    assert (res.dimension, res.inner_rank, res.kernel0_dimension,
                            res.kernel_b_dimension) == (
                        res0.dimension, res0.inner_rank, res0.kernel0_dimension,
                        res0.kernel_b_dimension)
                    assert res.basis == [relabelled(deriv, c) for deriv in res0.basis]

    @pytest.mark.parametrize("degree", [-1, 0, 1])
    @pytest.mark.parametrize("builder", [build_csv, build_chv], ids=["csv", "chv"])
    def test_block_solve_matches_full_solve_at_non_real_weights(self, builder, degree):
        for weights in (GAUSS_WEIGHTS, (1, GaussianRational(Fraction(0), Fraction(1)))):
            assert_block_solve_matches_full(builder(*weights), degree, 4, 2)

    @pytest.mark.parametrize("pairs", ["lzero", "all"])
    @pytest.mark.parametrize("builder", [build_csv, build_chv], ids=["csv", "chv"])
    def test_non_real_weights(self, builder, pairs):
        generic = builder(
            GaussianRational(Fraction(1, 2), Fraction(1)),
            GaussianRational(Fraction(2), Fraction(-1)),
        )
        loop = builder(1, GaussianRational(Fraction(0), Fraction(1)))

        def extra_dimension(spec):
            if pairs == "lzero":
                return solve_graded_derivations(spec, 0, 3, 1).extra_dimension
            _, kernel, inner_rank = full_solve(spec, 0, 3, 1, pairs)
            return len(kernel) - inner_rank

        assert extra_dimension(generic) == 0
        assert extra_dimension(loop) == 1

    @pytest.mark.parametrize(
        "builder, a", [(build_csv, 1), (build_csv, 2), (build_chv, 1), (build_chv, 0)],
        ids=["csv-a1", "csv-a2", "chv-a1", "chv-a0"],
    )
    def test_index0_answer_matches_the_whole_systems(self, builder, a):
        # the answer read from the index-0 blocks agrees with the lzero
        # system eliminated whole at windows 1-3 and degrees -1..1, and with
        # the all-pairs system (source window 2w, compared with the solve at
        # window 2w on the same layout) on dimension, inner rank and span
        spec = builder(a, 0)
        for window in (1, 2, 3):
            for degree in (-1, 0, 1):
                assert_block_solve_matches_full(spec, degree, 4, window)
            degree = window - 2
            coords, kernel, inner_rank = full_solve(spec, degree, 4, window, "all")
            res = solve_graded_derivations(spec, degree, 4, 2 * window)
            assert (res.dimension, res.inner_rank) == (len(kernel), inner_rank)
            block = [coords.vector_of(deriv) for deriv in res.basis]
            assert reduce_rows(block + kernel, None, ncols(coords)).rank == res.dimension
            assert res.every_window and "every window" in res.scope_note

    def test_nonzero_kernel_of_b_grows_with_the_window(self):
        # an abelian family: no pair constrains anything, so block 0 and B
        # are both the 3 monomials of degree <= 1, and the dimension is
        # 3 + 2w * 3 with no every-window claim
        spec = make_algebra("ab", ["L"], {})
        for window in range(4):
            res = solve_graded_derivations(spec, 0, 1, window)
            assert (res.kernel0_dimension, res.kernel_b_dimension) == (3, 3)
            assert res.dimension == len(res.basis) == 3 + 2 * window * 3
            assert res.inner_rank == 0
            assert not res.every_window
            assert "every window" not in res.scope_note
            assert f"window |i| <= {window}, image degree <= 1" in res.scope_note
            assert_block_solve_matches_full(spec, 0, 1, window)

    def test_every_window_claim_at_window_0(self):
        # the blocks have their own layout, so window 0 gets the claim too
        res = solve_graded_derivations(build_csv(1, 0), 0, 4, 0)
        assert (res.dimension, res.inner_rank, res.kernel_b_dimension) == (13, 12, 0)
        assert res.every_window
        assert res.scope_note.startswith("certified for every window")
        assert "image degree <= 4" in res.scope_note

    @pytest.mark.parametrize(
        "window, bound, name", [(-1, 4, "window"), (1, -1, "bound"), (-2, -1, "window")]
    )
    def test_negative_window_or_bound_is_refused(self, window, bound, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
            solve_graded_derivations(build_csv(1, 0), 0, bound, window)

    def test_negative_check_window_is_refused(self):
        spec = build_csv(1, 0)
        deriv = d_vec(spec, {0: ONE}, window=2)
        with pytest.raises(ValueError, match="^window must be >= 0, got -1"):
            check_derivation(spec, deriv, window=-1)

    def test_basis_elements_are_derivations(self):
        res = solve_graded_derivations(build_csv(1, 0), degree=0, bound=3, window=2)
        spec = build_csv(1, 0)
        for deriv in res.basis:
            assert check_derivation(spec, deriv, window=1).all_zero

    def test_symbolic_parameters_rejected(self):
        with pytest.raises(ValueError):
            solve_graded_derivations(build_csv("sym", 0))

    @pytest.mark.parametrize(
        "builder, dims", [(build_sv, (7, 6)), (build_hv, (5, 4))], ids=["sv", "hv"]
    )
    def test_index0_algebra_solves_only_at_window_0_degree_0(self, builder, dims):
        spec = builder(1, 0)
        res = solve_graded_derivations(spec, 0, 2, 0)
        assert (res.dimension, res.inner_rank) == dims
        # no index 1, so no B and no every-window claim
        assert res.kernel_b_dimension is None and not res.every_window
        assert res.scope_note.startswith("certified at window |i| <= 0, image degree <= 2")
        for degree, window in ((0, 1), (1, 0), (-1, 0)):
            with pytest.raises(ValueError, match="restricted to index 0") as info:
                solve_graded_derivations(spec, degree, 2, window)
            assert not isinstance(info.value, KeyError)


class TestGeneratedRows:
    """The hand oracle's rows are built from factored, relabelled
    polynomials; these tests hold them to ``leibniz_residual`` and the
    inner vectors to ``ad``."""

    @pytest.mark.parametrize("degree", [-1, 0, 1])
    @pytest.mark.parametrize("build", [build_csv, build_chv], ids=["csv", "chv"])
    def test_lzero_rows_match_the_evaluated_residual(self, build, degree):
        for a, b in ((0, 0), (1, 0), (Fraction(1, 2), -3), (-2, 1)):
            assert_rows_match_evaluator(build(a, b), degree, seed=degree + 7)

    @pytest.mark.parametrize("build", [build_csv, build_chv], ids=["csv", "chv"])
    def test_rows_match_the_evaluated_residual_at_non_real_weights(self, build):
        for degree in (-1, 0, 1):
            assert_rows_match_evaluator(build(*GAUSS_WEIGHTS), degree, seed=degree)

    @pytest.mark.parametrize("index", [-1, 1])
    def test_all_family_pairs_match_the_evaluated_residual(self, index):
        # the whole-system oracles use the contributions of every family pair
        spec = build_csv(1, 0)
        assert_rows_match_evaluator(spec, 1, spec.families, index, seed=index)

    @pytest.mark.parametrize("build", [build_csv, build_chv], ids=["csv", "chv"])
    def test_inner_vectors_match_literal_ad_on_criterion_4(self, build):
        for a in DERIVATION_GRID_A:
            for b in DERIVATION_GRID_B:
                spec = build(a, b)
                for degree in (-1, 0, 1):
                    coords = _make_coords(spec, degree, 4, 2)
                    assert inner_window_vectors(spec, coords) == literal_inner_vectors(
                        spec, coords
                    )

    @pytest.mark.parametrize("build", [build_csv, build_chv], ids=["csv", "chv"])
    def test_inner_vectors_match_literal_ad_at_non_real_weights(self, build):
        for weights in (GAUSS_WEIGHTS, (1, GaussianRational(Fraction(0), Fraction(1)))):
            spec = build(*weights)
            for degree in (-1, 0, 1):
                coords = _make_coords(spec, degree, 4, 2)
                assert inner_window_vectors(spec, coords) == literal_inner_vectors(
                    spec, coords
                )

    @pytest.mark.parametrize("degree", [-2, 0, 1])
    def test_inner_vectors_match_literal_ad_on_decompose_coords(self, degree):
        # decompose solves over d^k X_c for k <= bound, on the window of the
        # derivation it is given
        for spec in (build_csv(1, 0), build_chv(*GAUSS_WEIGHTS)):
            coords = _make_coords(spec, degree, 6 + 1, 3)
            assert inner_window_vectors(spec, coords) == literal_inner_vectors(spec, coords)

    @pytest.mark.parametrize("build", [build_sv, build_hv], ids=["sv", "hv"])
    def test_inner_vectors_of_index0_algebra(self, build):
        spec = build(1, 0)
        coords = _make_coords(spec, 0, 2, 0)
        assert inner_window_vectors(spec, coords) == literal_inner_vectors(spec, coords)
        for degree, window in ((0, 1), (1, 0), (-1, 0)):
            coords = _make_coords(spec, degree, 2, window)
            with pytest.raises(ValueError, match="restricted to index 0") as literal:
                literal_inner_vectors(spec, coords)
            with pytest.raises(ValueError, match="restricted to index 0") as relabelled:
                inner_window_vectors(spec, coords)
            assert str(relabelled.value) == str(literal.value)



def numeric_blocks(spec, bound):
    """The oracle of ``_lzero_blocks``: block 0 is the whole lzero system at
    window 0, the rows of the pairs (L_0, y_0); B is the index-1 part of the
    rows of the lzero system at window 1 that reach index 1."""
    _, block_0 = leibniz_system(spec, 0, bound, 0, "lzero")
    coords, rows = leibniz_system(spec, 0, bound, 1, "lzero")
    start = 2 * coords.n
    block_b = [{col - start: v for col, v in row.items() if col >= start} for row in rows]
    return block_0, [row for row in block_b if row]


def row_multiset(rows):
    return Counter(frozenset(row.items()) for row in rows)


def with_yy_template(template: str):
    """csv(1, 0) with [Y _l Y] = ``template`` M: the same (pair, target)
    layout as csv, with another template degree."""
    csv = build_csv(1, 0)
    return AlgebraSpec("csv-yy", csv.families, {**csv.table, ("Y", "Y"): (("M", P(template)),)})


#: the criterion-4 grid (it holds a = 0, a = -2, where a/2 + 1 = 0, and b = 0,
#: where template coefficients vanish) and two non-real points
CACHE_POINTS = [(a, b) for a in DERIVATION_GRID_A for b in DERIVATION_GRID_B] + [
    GAUSS_WEIGHTS, (GaussianRational(Fraction(-2), Fraction(1)), Fraction(0)),
]


def central_z():
    """csv(1, 0) with a family Z that every bracket misses."""
    csv = build_csv(1, 0)
    return AlgebraSpec("csv+Z", csv.families + ("Z",), dict(csv.table))


#: table shapes for the literal build: a non-real point, template
#: coefficients that vanish (chv(0, 0)), four (Y, Y) template degrees, a
#: central family, no bracket at all, and the M family on and off its
#: construction locus (ap = 3/2 at a = 1)
LITERAL_SHAPES = {
    "csv-gauss": lambda: build_csv(*GAUSS_WEIGHTS),
    "chv-0-0": lambda: build_chv(0, 0),
    "yy-3": lambda: with_yy_template("3"),
    "yy-d+2l+l2": lambda: with_yy_template("d + 2*l + l^2"),
    "yy-l2": lambda: with_yy_template("l^2"),
    "yy-d2": lambda: with_yy_template("d^2"),
    "csv+Z": central_z,
    "ab": lambda: make_algebra("ab", ["L"], {}),
    "mfam-on": lambda: build_construction(a=1, b=0, ap=Fraction(3, 2), bp=0),
    "mfam-off": lambda: build_construction(a=1, b=0, ap=1, bp=0),
}


class TestLiteralBuild:
    """``_linearization`` reads its rows off ``leibniz_residual``; the hand
    linearization in ``conftest`` is the oracle it is held to."""

    @pytest.mark.parametrize("shape", list(LITERAL_SHAPES))
    def test_entry_equals_the_hand_oracle(self, shape):
        # as multisets of rows, each entry resolved to its linear form in
        # the template symbols
        spec = LITERAL_SHAPES[shape]()
        for bound in range(7):
            key = (spec.families, _template_layout(spec)[0], bound)
            entry = _linearization(*key)
            literal = tuple(
                Counter(frozenset((col, entry.forms[f]) for col, f in row) for row in block)
                for block in (entry.block_0, entry.block_b))
            assert literal == hand_blocks(*key), bound


class TestLinearizationCache:
    """``_lzero_blocks`` evaluates rows that ``_linearization`` builds once
    per (families, table layout, bound); these tests hold them to the
    numeric lzero system and the cache to its key."""

    @pytest.mark.parametrize("build", [build_csv, build_chv], ids=["csv", "chv"])
    def test_evaluated_blocks_equal_the_numeric_build(self, build):
        for a, b in CACHE_POINTS:
            spec = build(a, b)
            coords = _make_coords(spec, 0, 4, 0)
            want_0, want_b = numeric_blocks(spec, 4)
            got_0, got_b = _lzero_blocks(spec, coords)
            assert row_multiset(got_0) == row_multiset(want_0), (a, b)
            assert row_multiset(got_b) == row_multiset(want_b), (a, b)
            assert all(got_0) and all(got_b) and all(v for row in got_0 + got_b
                                                       for v in row.values())

    @pytest.mark.parametrize("build", [build_csv, build_chv], ids=["csv", "chv"])
    def test_kernels_equal_the_numeric_build(self, build):
        for a, b in CACHE_POINTS:
            res = solve_graded_derivations(build(a, b), 0, 4, 2)
            n = res.coords.n
            want_0, want_b = (list(reduce_rows(rows, None, n).kernel_vectors().values())
                              for rows in numeric_blocks(build(a, b), 4))
            assert (res.kernel_0, res.kernel_b) == (want_0, want_b), (a, b)

    def test_one_entry_per_algebra_on_the_criterion_4_grid(self):
        _linearization.cache_clear()
        for build in (build_csv, build_chv):
            for a in DERIVATION_GRID_A:
                for b in DERIVATION_GRID_B:
                    for degree in (-1, 0, 1):
                        solve_graded_derivations(build(a, b), degree, 4, 2)
        info = _linearization.cache_info()
        assert (info.currsize, info.misses, info.hits) == (2, 2, 88)
        # sv and hv share the tables, and so the entries, of csv and chv
        solve_graded_derivations(build_sv(1, 0), 0, 4, 0)
        solve_graded_derivations(build_hv(2, 1), 0, 4, 0)
        assert _linearization.cache_info().currsize == 2

    def test_the_key_holds_each_template_degree(self):
        # the same (pair, target) layout at template degrees 1, 2 and 0: each
        # gets its own entry, and each evaluates to its own numeric rows
        _linearization.cache_clear()
        for spec in (build_csv(1, 0), with_yy_template("d + 2*l + l^2"),
                     with_yy_template("3"), build_csv(1, 0)):
            want_0, want_b = numeric_blocks(spec, 2)
            got_0, got_b = _lzero_blocks(spec, _make_coords(spec, 0, 2, 0))
            assert (row_multiset(got_0), row_multiset(got_b)) == (
                row_multiset(want_0), row_multiset(want_b)), spec.table[("Y", "Y")]
        assert _linearization.cache_info().currsize == 3

    def test_rows_do_not_depend_on_the_solves_before(self):
        # P, then Q, then P: each evaluation reads only its own spec
        p, q = build_csv(1, 0), build_csv(*GAUSS_WEIGHTS)
        coords = _make_coords(p, 0, 4, 0)
        _linearization.cache_clear()
        first = _lzero_blocks(p, coords)
        entry = _linearization(p.families, _template_layout(p)[0], 4)
        between = _lzero_blocks(q, coords)
        assert _lzero_blocks(p, coords) == first
        assert [row_multiset(rows) for rows in between] == [
            row_multiset(rows) for rows in numeric_blocks(q, 4)]
        # the entry holds no value of either spec: built from Q alone it is
        # the same
        _linearization.cache_clear()
        _lzero_blocks(q, coords)
        assert _linearization(q.families, _template_layout(q)[0], 4) == entry

    def test_cached_rows_are_immutable(self):
        spec = build_chv(1, 0)
        coords = _make_coords(spec, 0, 4, 0)
        block_0, _ = _lzero_blocks(spec, coords)
        # tuples all the way down, so no part of the entry changes in place
        hash(_linearization(spec.families, _template_layout(spec)[0], 4))
        # and each call evaluates rows of its own
        block_0[0].clear()
        assert _lzero_blocks(spec, coords)[0][0]

    def test_template_in_a_stray_variable_is_refused(self):
        csv = build_csv(1, 0)
        spec = AlgebraSpec("csv-x", csv.families, {**csv.table, ("Y", "Y"): (("M", P("d + x")),)})
        with pytest.raises(ValueError, match="Y, Y -> M has a term in x besides d and l"):
            solve_graded_derivations(spec, 0, 2, 0)


class TestCachedPatterns:
    """A solve reads the inner patterns from the same ``_linearization``
    entry as its blocks, and ``decompose`` from their own ``_inner_patterns``
    entry; these tests hold them to ``ad`` and the refusals to those of the
    numeric build."""

    def test_decompose_builds_no_block_rows(self, monkeypatch):
        # both caches empty, as in a fresh process; the block rows are the
        # coefficients of leibniz_residual, so a build shows as its calls
        _linearization.cache_clear()
        _inner_patterns.cache_clear()
        built = []
        monkeypatch.setattr(confalg.derivations, "leibniz_residual",
                            lambda *args: built.append(args) or leibniz_residual(*args))
        spec = build_csv(1, 0)
        dec = decompose(spec, d_vec(spec, {0: ONE}, window=3))
        assert (dec.x, dec.q) == (GenPoly.zero(), ONE)
        assert built == [] and _linearization.cache_info().currsize == 0
        assert _inner_patterns.cache_info().currsize == 1
        # a solve at that bound then starts from the same pattern entry
        res = solve_graded_derivations(spec, 0, 7, 1)
        key = (spec.families, _template_layout(spec)[0], 7)
        entry, inner = _linearization(*key), _inner_patterns(*key)
        assert (entry.patterns, entry.beyond) == (inner.patterns, inner.beyond)
        assert entry.forms[:len(inner.forms)] == inner.forms
        assert built and res.extra_dimension == 1

    @pytest.mark.parametrize("build", [build_csv, build_chv], ids=["csv", "chv"])
    def test_the_patterns_a_solve_reads_are_the_literal_ones(self, build):
        for weights in CACHE_POINTS + [(1, GaussianRational(Fraction(0), Fraction(1)))]:
            spec = build(*weights)
            for degree in (-1, 0, 1):
                coords = _make_coords(spec, degree, 4, 0)
                patterns = _lzero_kernel(spec, coords)[2]
                assert patterns == literal_inner_vectors(spec, coords), (weights, degree)

    @pytest.mark.parametrize("template, monomials", [
        ("d + 2*l + l^2", ({"l": 2}, {"l": 3}, {"l": 4})),
        ("l^2", ({"l": 2}, {"l": 3}, {"l": 4})),
        ("d^2", ({"d": 2}, {"d": 2, "l": 1}, {"d": 2, "l": 2})),
    ])
    def test_a_pattern_past_the_bound_is_refused_as_before(self, template, monomials):
        spec = with_yy_template(template)
        for bound, mono in zip((1, 2, 3), monomials):
            for degree in (-1, 0, 1):
                with pytest.raises(DegreeBoundExceeded) as solved:
                    solve_graded_derivations(spec, degree, bound, 1)
                assert str(solved.value) == (
                    f"image of Y[0] uses monomial {mono} beyond degree {bound}")
                with pytest.raises(DegreeBoundExceeded) as windowed:
                    inner_window_vectors(spec, _make_coords(spec, degree, bound, 2))
                assert str(windowed.value) == (
                    f"image of Y[-2] uses monomial {mono} beyond degree {bound}")


class TestInnerNotInKernel:
    """A table that is not a Lie conformal algebra's breaks the Leibniz rule
    for some ad(d^k X_c); the solve names the first such pattern."""

    def test_mfam_off_the_construction_locus(self):
        spec = build_construction(a=1, b=0, ap=1, bp=0)
        with pytest.raises(InnerNotInKernel, match=r"^ad\(Y\[0\]\) is not in the solved "
                           r"kernel of mfam at image degree <= 3"):
            solve_graded_derivations(spec, 0, 3, 1)

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_table_that_is_not_skew_symmetric(self, bound):
        spec = with_yy_template("3")
        for degree in (-1, 0, 1):
            with pytest.raises(InnerNotInKernel) as info:
                solve_graded_derivations(spec, degree, bound, 0)
            assert str(info.value).startswith(
                f"ad(Y[{degree}]) is not in the solved kernel of csv-yy at image "
                f"degree <= {bound}")
            # the named pattern is the first that the block-0 kernel lacks
            coords = _make_coords(spec, degree, bound, 0)
            ker_0, _, patterns = _lzero_kernel(spec, coords)
            outside = [k for k, p in enumerate(patterns)
                       if reduce_rows(ker_0 + [p], None, coords.n).rank != len(ker_0)]
            assert outside[0] == spec.families.index("Y") * bound


class TestDecompose:
    def test_pure_inner_round_trip(self):
        spec = build_csv(2, 3)
        x = GenPoly.unit("L", 1, P("d^2"))
        dec = decompose(spec, ad(spec, x, window=3), bound=4)
        assert dec.x == x and not dec.q and dec.position == 1

    def test_mixed_round_trip(self):
        spec = build_csv(1, 0)
        x = GenPoly.unit("M", 0)
        deriv = ad(spec, x, window=3)
        for key, img in d_vec(spec, {0: GaussianRational.of(7)}, window=3).images.items():
            deriv.images[key] = deriv.images.get(key, GenPoly.zero()) + img
        dec = decompose(spec, deriv, bound=4)
        assert dec.x == x and dec.q == GaussianRational.of(7)

    def test_pure_family_part(self):
        spec = build_csv(1, 5)
        dec = decompose(spec, d_vec(spec, {2: ONE}, window=3), bound=4)
        assert dec.x.is_zero() and dec.q == ONE and dec.position == 2

    def test_stray_variable_is_refused(self):
        # a term in m has no d/l column; it must not land on the column of
        # its d/l part and leave an inconsistent system
        spec = build_csv(2, 3)
        text = serialize_derivation(ad(spec, GenPoly.unit("L", 1), window=3))
        edited = text.replace("L -3 -> L -2 : d + 2*l\n", "L -3 -> L -2 : d + 2*l + 7*m\n")
        assert edited != text
        with pytest.raises(StrayVariable, match=r"L\[-3\] has a term in m besides d and l"):
            decompose(spec, parse_derivation(edited), bound=6)

    def test_stray_variable_in_a_built_derivation_is_refused(self):
        # the parser refuses such a term at its line; a derivation built in
        # code reaches decompose's own check
        spec = build_csv(2, 3)
        deriv = ad(spec, GenPoly.unit("L", 1), window=3)
        image = deriv.images[("L", -3)]
        deriv.images[("L", -3)] = image + GenPoly.unit("L", -2, P("7*m"))
        with pytest.raises(StrayVariable, match=r"^image of L\[-3\] has a term in m besides d and l$"):
            decompose(spec, deriv, bound=6)

    def test_negative_window_line_is_refused(self):
        spec = build_csv(2, 3)
        text = serialize_derivation(ad(spec, GenPoly.unit("L", 0), window=3))
        edited = text.replace("window 3\n", "window -1\n")
        assert edited != text
        with pytest.raises(ValueError) as err:
            decompose(spec, parse_derivation(edited), bound=6)
        assert str(err.value) == "bad window line: 'window -1': window must be >= 0, got -1"

    def test_image_line_outside_the_window_is_refused(self):
        # the images at |i| > 1 would be unreachable through image() and
        # skipped by every reader
        spec = build_csv(2, 3)
        text = serialize_derivation(ad(spec, GenPoly.unit("L", 0), window=3))
        edited = text.replace("window 3\n", "window 1\n")
        assert edited != text
        with pytest.raises(ValueError) as err:
            parse_derivation(edited)
        assert str(err.value) == (
            "bad image line: 'image L -3 -> L -3 : d + 2*l': L[-3] lies outside the "
            "window 'window 1'"
        )

    def test_image_line_outside_the_default_window_is_refused(self):
        spec = build_csv(2, 3)
        text = serialize_derivation(ad(spec, GenPoly.unit("L", 0), window=3))
        edited = text.replace("window 3\n", "")
        assert edited != text
        with pytest.raises(ValueError) as err:
            parse_derivation(edited)
        assert str(err.value) == (
            "bad image line: 'image L -3 -> L -3 : d + 2*l': L[-3] lies outside the "
            "window 0 (no window line)"
        )

    @pytest.mark.parametrize("run", [check_derivation, decompose])
    def test_image_of_an_unknown_family_is_refused(self, run):
        # the image the text "image Q 0 -> Z 0 : 1" declares, built in code
        # since the parser refuses it; no check would ever read it
        deriv = DerivationSpec(("L", "M"), 1, {("Q", 0): GenPoly.unit("Z", 0)})
        with pytest.raises(UnknownFamily, match="'Q' is not a family of csv"):
            run(build_csv(1, 0), deriv)
        deriv = DerivationSpec(("L", "M"), 1, {("L", 0): GenPoly.unit("Z", 0)})
        with pytest.raises(UnknownFamily, match="'Z' is not a family of csv"):
            run(build_csv(1, 0), deriv)

    def test_negative_bound_is_refused(self):
        spec = build_csv(1, 0)
        with pytest.raises(ValueError, match="^bound must be >= 0, got -1"):
            decompose(spec, ad(spec, GenPoly.unit("M", 0), window=3), bound=-1)

    @pytest.mark.parametrize("name", ["decompose", "solve_graded_derivations"])
    def test_symbolic_parameters_are_refused(self, name):
        # the weights of decompose and the solver's rows need numeric
        # structure constants; b is symbolic here
        spec = build_csv(1, "sym")
        with pytest.raises(ValueError) as err:
            if name == "decompose":
                decompose(spec, d_vec(spec, {0: ONE}, window=3))
            else:
                solve_graded_derivations(spec)
        assert str(err.value) == (
            f"{name} needs numeric algebra parameters; csv has symbolic b"
        )

    def test_family_not_decomposable_off_a1(self):
        spec = build_csv(0, 0)
        with pytest.raises(NotDecomposable):
            decompose(spec, d_vec(spec, {0: ONE}, window=3), bound=4)

    def test_degree_detection(self):
        spec = build_csv(1, 0)
        assert derivation_degree(ad(spec, GenPoly.unit("Y", -2), window=3)) == -2
        mixed = combine(
            ad(spec, GenPoly.unit("L", 0), window=3),
            ad(spec, GenPoly.unit("M", 1), window=3),
            ONE,
            ONE,
        )
        with pytest.raises(NotDecomposable):
            derivation_degree(mixed)


class TestSerialization:
    def test_round_trip(self):
        spec = build_csv(1, 0)
        deriv = ad(spec, GenPoly.unit("M", 0) + GenPoly.unit("L", 0, P("d")), window=2)
        text = serialize_derivation(deriv)
        back = parse_derivation(text)
        assert back.images == deriv.images
        assert serialize_derivation(back) == text

    @pytest.mark.parametrize("line", ["window two", "image L x -> M 0 : 1"])
    def test_malformed_integer_names_the_line(self, line):
        text = f"derivation\nfamilies L M\n{line}\n"
        with pytest.raises(ValueError) as err:
            parse_derivation(text)
        assert str(err.value) == f"bad {line.split()[0]} line: {line!r}"

    def test_negative_window_names_the_line(self):
        line = "window -2"
        with pytest.raises(ValueError) as err:
            parse_derivation(f"derivation\nfamilies L M\n{line}\n")
        assert str(err.value) == f"bad window line: {line!r}: window must be >= 0, got -2"

    def test_malformed_polynomial_names_the_line(self):
        line = "image L 0 -> M 0 : 1 +"
        with pytest.raises(ValueError) as err:
            parse_derivation(f"derivation\nfamilies L M\n{line}\n")
        assert str(err.value) == f"bad image line: {line!r}: unexpected end of polynomial text"

    @pytest.mark.parametrize("line, family", [
        ("image Q 0 -> Z 0 : 1", "Q"), ("image L 0 -> Z 0 : 1", "Z")
    ])
    def test_image_family_off_the_families_line_is_refused(self, line, family):
        with pytest.raises(ValueError) as err:
            parse_derivation(f"families L M\nwindow 1\n{line}\n")
        assert str(err.value) == (
            f"bad image line: {line!r}: family {family} is not on the families line"
        )

    @pytest.mark.parametrize("line, family", [
        ("image Q 0 -> Z 0 : 1", "Q"), ("image L 0 -> Z 0 : 1", "Z")
    ])
    def test_image_family_off_a_later_families_line_is_refused(self, line, family):
        with pytest.raises(ValueError) as err:
            parse_derivation(f"window 1\n{line}\nfamilies L M\n")
        assert str(err.value) == (
            f"bad image line: {line!r}: family {family} is not on the families line"
        )

    def test_lines_parse_in_any_order(self):
        spec = build_csv(1, 0)
        text = serialize_derivation(ad(spec, GenPoly.unit("M", 0), window=1))
        lines = text.splitlines()
        assert lines[:3] == ["derivation", "families L M Y", "window 1"]
        back = parse_derivation("\n".join(lines[3:] + lines[:3]) + "\n")
        assert serialize_derivation(back) == text

    @pytest.mark.parametrize("line", ["families L M", "window 1", "degree 0"])
    def test_repeated_single_valued_line_is_refused(self, line):
        text = "derivation\nfamilies L M\nwindow 1\ndegree 0\n"
        with pytest.raises(ValueError) as err:
            parse_derivation(text + line + "\n")
        head = line.split()[0]
        assert str(err.value) == f"bad {head} line: {line!r}: {head} is given twice"

    @pytest.mark.parametrize("poly, stray", [("m", "m"), ("d + a*l", "a"), ("m*n", "m, n")])
    def test_image_term_in_a_stray_variable_is_refused_at_its_line(self, poly, stray):
        line = f"image L 0 -> M 0 : {poly}"
        with pytest.raises(StrayVariable) as err:
            parse_derivation(f"derivation\nfamilies L M\n{line}\n")
        assert str(err.value) == (
            f"bad image line: {line!r}: image of L[0] has a term in {stray} besides d and l"
        )
