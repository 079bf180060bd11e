"""Core types, metrics, and abundance normalization."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from twolmm import (
    AbundanceMatrix,
    Dsm,
    EndmemberMatrix,
    HapkeGeometry,
    HsiImage,
    MatchResult,
    ProjectionSpec,
    QpProblem,
    ScalingState,
    TwoLmmState,
    align_abundances,
    dsm_to_geometry,
    hapke_invert,
    hapke_relative_reflectance,
    normalize_abundances,
    rmse_a,
    rmse_x,
    sad,
)
from twolmm.core import _BLOCK, _freeze, _squared_error
from twolmm.solvers import solve_least_squares

COMPLEX = "^complex values are not accepted$"
NON_FINITE = "^non-finite values are not accepted$"


class TestHsiImage:
    def test_dimensions_and_grid(self):
        img = HsiImage(np.ones((4, 6)), width=3, height=2)
        assert img.band_count == 4
        assert img.pixel_count == 6
        assert (img.width, img.height) == (3, 2)

    def test_default_grid_is_flat(self):
        img = HsiImage(np.ones((2, 5)))
        assert (img.width, img.height) == (5, 1)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            HsiImage(np.ones((2, 5)), width=2, height=2)

    def test_non_finite_rejected(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            HsiImage(bad)

    @pytest.mark.parametrize("grid", [(-2, -3), (-6, -1), (0, -6)])
    def test_negative_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="nonnegative"):
            HsiImage(np.ones((3, 6)), width=grid[0], height=grid[1])

    @pytest.mark.parametrize("grid", [(2.5, 2), (5, 1.0)], ids=["fractional", "float"])
    def test_non_integer_grid_rejected(self, grid):
        # 2.5 * 2 == 5 passed the pixel-count check and stored a 2x2 grid for
        # five pixels, which load_image then refused after save_image wrote it.
        with pytest.raises(ValueError, match="^grid dimensions must be integers, got "):
            HsiImage(np.ones((2, 5)), width=grid[0], height=grid[1])
        assert HsiImage(np.ones((2, 6)), width=np.int64(3), height=2).width == 3

    def test_data_is_immutable(self):
        img = HsiImage(np.ones((2, 2)))
        with pytest.raises(ValueError):
            img.data[0, 0] = 3.0


class TestFreeze:
    def test_copies_a_writable_array_and_a_view_but_adopts_an_owned_read_only_one(self):
        owned = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        assert _freeze(owned) is not owned
        owned.flags.writeable = False
        assert _freeze(owned) is owned
        view = owned[:, 1:]
        frozen = _freeze(view)
        assert frozen is not view and frozen.flags.owndata
        c_ordered = np.arange(12.0).reshape(3, 4)
        c_ordered.flags.writeable = False
        assert _freeze(c_ordered).flags.f_contiguous
        for frozen in (_freeze(owned), _freeze(view), _freeze(c_ordered)):
            assert not frozen.flags.writeable

    def test_changing_the_source_array_never_changes_an_image(self):
        source = np.asfortranarray(np.ones((3, 4)))
        base = np.asfortranarray(np.ones((3, 4)))
        view = base.view()
        view.flags.writeable = False
        images = [HsiImage(source), HsiImage(view)]
        source[0, 0] = base[0, 0] = 5.0
        for img in images:
            np.testing.assert_array_equal(img.data, np.ones((3, 4)))

    # Valid arrays for every field of each value type that takes arrays
    # from its caller, beside the three containers.
    VALUE_TYPES = {
        "ScalingState": (ScalingState, {"s_e": [1.0, 2.0], "s_x": [0.5, 1.5, 2.0]}),
        "Dsm": (Dsm, {"heights": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]}),
        "HapkeGeometry": (HapkeGeometry, {"mu": [0.5, 0.9], "mu0": [0.7, 0.8]}),
        "ProjectionSpec": (ProjectionSpec, {"v": [1.0, 2.0, 3.0]}),
        "QpProblem": (QpProblem, {"gram": [[2.0, 0.5], [0.5, 1.0]], "linear": [1.0, 0.5]}),
        "TwoLmmState": (
            TwoLmmState, {"a_s": [[0.5, 1.0, 0.0], [0.2, 0.0, 3.0]], "s_e": [1.0, 2.0]}
        ),
    }

    @pytest.mark.parametrize("name", list(VALUE_TYPES))
    def test_every_value_type_owns_its_arrays(self, name):
        cls, fields = self.VALUE_TYPES[name]
        # Writable caller arrays are copied: writing to them later leaves the
        # value as built, and the value's own arrays refuse writes.
        given = {field: np.array(data, order="F") for field, data in fields.items()}
        value = cls(**given)
        for field, array in given.items():
            held = getattr(value, field)
            kept = held.copy()
            array.flat[0] = not array.flat[0] if array.dtype == bool else array.flat[0] + 1.0
            np.testing.assert_array_equal(held, kept)
            with pytest.raises(ValueError, match="read-only"):
                held.flat[0] = held.flat[0]
        # A read-only payload that owns its memory, of the field's dtype and in
        # Fortran order, is adopted without a copy.
        frozen = {field: np.array(data, order="F") for field, data in fields.items()}
        for array in frozen.values():
            array.flags.writeable = False
        value = cls(**frozen)
        for field, array in frozen.items():
            assert getattr(value, field) is array

    # Each column sums to one and the real parts are valid for every type,
    # so only the imaginary parts, or the one NaN or infinite entry, are
    # wrong. The id suffix names the bad entry; complex cases have none.
    BAD_PAYLOADS = {
        "": (np.array([[0.5 + 5j, 0.25], [0.5 - 5j, 0.75]]), COMPLEX),
        "-nan": (np.array([[np.nan, 0.25], [0.5, 0.75]]), NON_FINITE),
        "-inf": (np.array([[np.inf, 0.25], [0.5, 0.75]]), NON_FINITE),
    }
    PAYLOAD_BUILDERS = {
        "HsiImage": HsiImage,
        "EndmemberMatrix": EndmemberMatrix,
        "AbundanceMatrix": AbundanceMatrix,
        "ScalingState": lambda data: ScalingState(s_e=data[0], s_x=data[1], upper=10.0),
        "TwoLmmState": lambda data: TwoLmmState(a_s=data, s_e=[1.0, 1.0]),
        "Dsm": Dsm,
        "ProjectionSpec": ProjectionSpec,
        "QpProblem": lambda data: QpProblem(gram=data, linear=[1.0, 1.0]),
    }

    @pytest.mark.parametrize(
        "name, suffix",
        list(itertools.product(PAYLOAD_BUILDERS, BAD_PAYLOADS)),
        ids=[name + suffix for name, suffix in itertools.product(PAYLOAD_BUILDERS, BAD_PAYLOADS)],
    )
    def test_complex_payload_refused_not_truncated(self, name, suffix):
        data, message = self.BAD_PAYLOADS[suffix]
        with pytest.raises(ValueError, match=message):
            self.PAYLOAD_BUILDERS[name](data)

    # One bad entry ``z`` among otherwise valid arguments, for each function
    # that takes plain arrays, with the complex value of its case. Complex
    # entries used to lose their imaginary part with only a ComplexWarning;
    # a NaN pixel gave solve_least_squares NaN abundances without a word,
    # and a NaN endmember entry numpy's LinAlgError.
    BAD_ARGUMENTS = {
        "sad": (lambda z: sad(np.array([z, 1.0]), np.array([1.0, 1.0])), 1 + 9j),
        "normalize_abundances": (
            lambda z: normalize_abundances(np.array([[z, 0.2], [0.5, 0.8]])), 0.5 + 1j
        ),
        "hapke_relative_reflectance": (
            lambda z: hapke_relative_reflectance(np.array([z, 0.3]), 0.8, 0.9), 0.5 + 0.1j
        ),
        "hapke_invert": (
            lambda z: hapke_invert(np.array([0.5, 0.3]), np.array([z, 0.7]), 0.9), 0.8 + 0.1j
        ),
        "dsm_to_geometry": (
            lambda z: dsm_to_geometry(Dsm(np.zeros((3, 3))), np.array([z, 0.2, 1.0])), 0.3 + 1j
        ),
        "align_abundances": (
            lambda z: align_abundances(
                np.array([[z, 0.5], [0.5, 0.5]]),
                MatchResult(permutation=np.array([1, 0]), scales=np.ones(2), mean_sad_deg=0.0),
            ),
            0.5 + 1j,
        ),
        "solve_least_squares": (
            lambda z: solve_least_squares(
                np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([[1.0], [2.0], [z]])
            ),
            3 + 1j,
        ),
        "solve_least_squares_endmembers": (
            lambda z: solve_least_squares(
                np.array([[1.0, 0.0], [0.0, z], [1.0, 1.0]]), np.array([[1.0], [2.0], [3.0]])
            ),
            1 + 1j,
        ),
        "HapkeGeometry": (lambda z: HapkeGeometry(mu=[0.5, z], mu0=[0.7, 0.8]), 0.5 + 1j),
    }
    BAD_ENTRIES = {"": None, "-nan": np.nan, "-inf": np.inf, "-neg-inf": -np.inf}

    @pytest.mark.parametrize(
        "name, suffix",
        list(itertools.product(BAD_ARGUMENTS, BAD_ENTRIES)),
        ids=[name + suffix for name, suffix in itertools.product(BAD_ARGUMENTS, BAD_ENTRIES)],
    )
    def test_complex_argument_refused_not_truncated(self, name, suffix):
        call, complex_value = self.BAD_ARGUMENTS[name]
        value = self.BAD_ENTRIES[suffix]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=NON_FINITE if suffix else COMPLEX):
                call(complex_value if value is None else value)


class TestEndmemberMatrix:
    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            EndmemberMatrix(np.array([[1.0, -0.1], [1.0, 1.0]]))

    def test_zero_column_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            EndmemberMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_zero_column_named_whatever_the_other_magnitudes(self):
        data = np.full((20, 3), 1e160)
        data[:, 1] = 0.0
        with pytest.raises(ValueError) as caught:
            EndmemberMatrix(data)
        assert str(caught.value) == "endmember columns [1] are identically zero"

    @pytest.mark.parametrize("value", [1e-170, 1e160])
    def test_tiny_or_huge_columns_accepted_without_warning(self, value):
        # Squaring would underflow 1e-170 to zero and overflow 1e160.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            em = EndmemberMatrix(np.full((20, 3), value))
        assert np.all(em.data == value)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
    def test_empty_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="at least one"):
            EndmemberMatrix(np.zeros(shape))


class TestAbundanceMatrix:
    def test_column_sums_checked(self):
        with pytest.raises(ValueError) as caught:
            AbundanceMatrix(np.array([[0.5, 0.5, 0.5], [0.5, 0.6, 0.5 + 2e-9]]))
        assert str(caught.value) == "columns that do not sum to one: 2 (first indices [1, 2])"
        AbundanceMatrix(np.array([[0.5], [0.5 + 1e-10]]))

    def test_tiny_negative_tolerated_and_clipped(self):
        a = AbundanceMatrix(np.array([[1.0], [-1e-13]]))
        assert a.data[1, 0] == 0.0

    def test_degenerate_zero_column_allowed_when_normalized(self):
        data = np.array([[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(AbundanceMatrix(data).data, data)

    @pytest.mark.parametrize("shape", [(0, 5), (3, 0), (0, 0)])
    def test_empty_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="at least one"):
            AbundanceMatrix(np.zeros(shape))

    def test_payload_is_one_fresh_read_only_copy(self):
        source = np.asfortranarray(np.random.default_rng(2).dirichlet(np.ones(6), 100_000).T)
        tracemalloc.start()
        try:
            a = AbundanceMatrix(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The payload itself is one K x N; the column-sum check adds O(N).
        assert peak <= 1.6 * source.nbytes
        assert a.data.flags.f_contiguous and not a.data.flags.writeable
        source[0, 0] = 5.0
        assert a.data[0, 0] != 5.0


class TestScalingState:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError, match="box"):
            ScalingState(s_e=[0.1], s_x=[1.0], lower=0.2, upper=5.0)

    def test_equal_bounds_allowed(self):
        state = ScalingState(s_e=[1.0], s_x=[1.0], lower=1.0, upper=1.0)
        assert state.lower == state.upper == 1.0

    def test_nonpositive_pixel_scale_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ScalingState(s_e=[1.0], s_x=[0.0])


class TestRmseX:
    def test_identical_images_zero(self):
        img = HsiImage(np.random.default_rng(0).uniform(size=(3, 4)))
        assert rmse_x(img, img) == 0.0

    def test_constant_offset(self):
        a = HsiImage(np.zeros((2, 2)))
        b = HsiImage(np.full((2, 2), 0.5))
        assert rmse_x(a, b) == pytest.approx(0.5, abs=0.0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(42)
        xa = rng.uniform(size=(3, 5))
        xb = rng.uniform(size=(3, 5))
        total = 0.0
        for n in range(5):
            for p in range(3):
                total += (xa[p, n] - xb[p, n]) ** 2
        expected = np.sqrt(total / 15.0)
        assert rmse_x(HsiImage(xa), HsiImage(xb)) == pytest.approx(expected, rel=1e-14)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        a = HsiImage(rng.uniform(size=(4, 7)))
        b = HsiImage(rng.uniform(size=(4, 7)))
        assert rmse_x(a, b) == rmse_x(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            rmse_x(HsiImage(np.ones((2, 2))), HsiImage(np.ones((2, 3))))


class TestSquaredError:
    # Blocks of _BLOCK pixels: a lone pixel, one block short by one, exactly
    # one, one and a lone pixel, and two and a 7-pixel tail.
    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7])
    @pytest.mark.parametrize("k", [1, 3, 12])
    def test_matches_the_whole_residual(self, n, k):
        rng = np.random.default_rng(n + k)
        x = np.asfortranarray(rng.uniform(size=(5, n)))
        b = np.asfortranarray(rng.uniform(size=(5, k)))
        c = np.asfortranarray(rng.uniform(size=(k, n)))
        want = float(np.sum((x - b @ c) ** 2))
        # A C-ordered c is the layout of the solvers' Q^T X.
        for xs, cs in ((x, c), (x, np.ascontiguousarray(c)), (np.ascontiguousarray(x), c)):
            assert _squared_error(xs, b, cs) == pytest.approx(want, rel=1e-13, abs=0.0)
        y = np.asfortranarray(rng.uniform(size=(5, n)))
        want = float(np.sum((x - y) ** 2))
        for ys in (y, np.ascontiguousarray(y)):
            assert _squared_error(x, None, ys) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_holds_one_block_buffer(self, order):
        p, k, n = 120, 3, 3 * _BLOCK + 5
        rng = np.random.default_rng(7)
        x = np.asfortranarray(rng.uniform(size=(p, n)))
        b = np.asfortranarray(rng.uniform(size=(p, k)))
        c = np.asarray(rng.uniform(size=(k, n)), order=order)
        tracemalloc.start()
        try:
            _squared_error(x, b, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * _BLOCK * (p + 2 * k) + 4096


class TestRmseA:
    def test_identical_zero(self):
        a = AbundanceMatrix(np.array([[0.4, 0.1], [0.6, 0.9]]))
        assert rmse_a(a, a) == 0.0

    def test_opposite_unit_vectors(self):
        a = AbundanceMatrix(np.array([[1.0], [0.0]]))
        b = AbundanceMatrix(np.array([[0.0], [1.0]]))
        assert rmse_a(a, b) == pytest.approx(1.0, abs=0.0)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(11)
        raw_a = rng.dirichlet([1.0, 1.0, 1.0], size=6).T
        raw_b = rng.dirichlet([1.0, 1.0, 1.0], size=6).T
        total = sum(
            (raw_a[k, n] - raw_b[k, n]) ** 2 for k in range(3) for n in range(6)
        )
        expected = np.sqrt(total / 18.0)
        got = rmse_a(
            AbundanceMatrix(raw_a),
            AbundanceMatrix(raw_b),
        )
        assert got == pytest.approx(expected, rel=1e-14)


# Units whose squares leave float64: spectra of order 2**530 or 2**1000
# overflow when squared, and of order 2**-560 or 2**-1000 underflow to zero.
UNIT_EXPONENTS = [-1000, -560, 530, 1000]


class TestSad:
    def test_scale_invariance(self):
        # In any float64 units: a power-of-two factor keeps the angle's bits,
        # in either argument. Squares of the unscaled spectra gave 90 degrees
        # at 2**530 after numpy's overflow warning, and "zero vector" at 2**-560.
        e = np.array([0.3, 0.5, 0.8])
        assert sad(3.0 * e, e) == pytest.approx(0.0, abs=1e-6)
        rng = np.random.default_rng(5)
        for _ in range(20):
            v1 = rng.uniform(0.1, 1.0, size=8)
            v2 = rng.uniform(0.1, 1.0, size=8)
            c = rng.uniform(0.01, 100.0)
            angle = sad(v1, v2)
            assert sad(c * v1, v2) == pytest.approx(angle, abs=1e-9)
            for unit in 2.0 ** np.array(UNIT_EXPONENTS):
                assert sad(unit * v1, v2) == sad(v1, unit * v2) == angle
                assert sad(3.0 * unit * v1, v2) == pytest.approx(angle, abs=1e-12)
                assert sad(v1, 3.0 * unit * v2) == pytest.approx(angle, abs=1e-12)

    def test_orthogonal_is_ninety(self):
        assert sad([1.0, 0.0], [0.0, 1.0]) == pytest.approx(90.0)

    def test_forty_five_degrees(self):
        assert sad([1.0, 0.0], [1.0, 1.0]) == pytest.approx(45.0)

    def test_zero_vector_rejected(self):
        # Whatever the other spectrum's units; its square used to overflow first.
        for unit in [1.0, 2.0**530, 2.0**1000]:
            with pytest.raises(ValueError, match="zero"):
                sad([0.0, 0.0], [unit, 0.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
    def test_non_finite_spectrum_rejected(self, value, first):
        # NaN used to give nan silently, and inf nan with an "invalid value"
        # warning.
        bad, good = np.array([value, 1.0]), np.array([1.0, 1.0])
        with pytest.raises(ValueError, match=NON_FINITE):
            sad(*((bad, good) if first else (good, bad)))


class TestNormalizeAbundances:
    def test_simple_column(self):
        res = normalize_abundances(np.array([[2.0], [1.0], [1.0]]))
        np.testing.assert_allclose(res.abundances.data[:, 0], [0.5, 0.25, 0.25])
        assert res.s_x[0] == 4.0
        assert res.degenerate_pixels.size == 0

    def test_already_normalized_unchanged(self):
        col = np.array([[0.3], [0.7]])
        res = normalize_abundances(col)
        assert res.s_x[0] == pytest.approx(1.0)
        np.testing.assert_allclose(res.abundances.data, col)

    def test_zero_column_flagged_not_imputed(self):
        res = normalize_abundances(np.array([[0.0, 1.0], [0.0, 1.0]]))
        assert res.degenerate_pixels.tolist() == [0]
        assert res.s_x[0] == 0.0
        np.testing.assert_array_equal(res.abundances.data[:, 0], [0.0, 0.0])

    def test_recombination_identity(self):
        rng = np.random.default_rng(8)
        a_s = rng.uniform(0.0, 3.0, size=(4, 30))
        res = normalize_abundances(a_s)
        recombined = res.abundances.data * res.s_x
        np.testing.assert_allclose(recombined, a_s, atol=1e-12)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(9)
        res = normalize_abundances(rng.uniform(0.1, 2.0, size=(3, 50)))
        np.testing.assert_allclose(res.abundances.data.sum(axis=0), 1.0, atol=1e-12)

    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_entry_refused_before_dividing(self, value):
        # It used to reach the division, which warned for inf, and then fail
        # with a message about the output.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=NON_FINITE):
                normalize_abundances(np.array([[value, 1.0], [1.0, 1.0]]))

    def test_overflowing_column_sum_refused_without_a_warning(self):
        # Every entry is finite, but the first column's sum overflows; it used
        # to warn "overflow encountered in reduce" and then blame the entries.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError, match="^non-normalized abundances overflow their column sums$"
            ):
                normalize_abundances(np.array([[1e308, 1.0], [1e308, 1.0]]))
