"""Core types, metrics, and abundance normalization."""

import numpy as np
import pytest

from twolmm import (
    AbundanceMatrix,
    EndmemberMatrix,
    HsiImage,
    ScalingState,
    normalize_abundances,
    rmse_a,
    rmse_x,
    sad,
)
from twolmm.core import _freeze


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


class TestEndmemberMatrix:
    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            EndmemberMatrix(np.array([[1.0, -0.1], [1.0, 1.0]]))

    def test_zero_column_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            EndmemberMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_labels_checked(self):
        with pytest.raises(ValueError, match="label"):
            EndmemberMatrix(np.ones((3, 2)), labels=("only-one",))

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
    def test_empty_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="at least one"):
            EndmemberMatrix(np.zeros(shape))


class TestAbundanceMatrix:
    def test_normalized_flag_checked(self):
        with pytest.raises(ValueError, match="sum to one"):
            AbundanceMatrix(np.array([[0.5], [0.6]]), normalized=True)

    def test_tiny_negative_tolerated_and_clipped(self):
        a = AbundanceMatrix(np.array([[1.0], [-1e-13]]), normalized=True)
        assert a.data[1, 0] == 0.0

    def test_degenerate_zero_column_allowed_when_normalized(self):
        a = AbundanceMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]), normalized=True)
        assert a.normalized

    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("shape", [(0, 5), (3, 0), (0, 0)])
    def test_empty_matrix_rejected(self, shape, normalized):
        with pytest.raises(ValueError, match="at least one"):
            AbundanceMatrix(np.zeros(shape), normalized=normalized)


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


class TestRmseA:
    def test_identical_zero(self):
        a = AbundanceMatrix(np.array([[0.4, 0.1], [0.6, 0.9]]), normalized=True)
        assert rmse_a(a, a) == 0.0

    def test_opposite_unit_vectors(self):
        a = AbundanceMatrix(np.array([[1.0], [0.0]]), normalized=True)
        b = AbundanceMatrix(np.array([[0.0], [1.0]]), normalized=True)
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
            AbundanceMatrix(raw_a, normalized=True),
            AbundanceMatrix(raw_b, normalized=True),
        )
        assert got == pytest.approx(expected, rel=1e-14)

    def test_unnormalized_rejected(self):
        a = AbundanceMatrix(np.array([[0.4], [0.6]]), normalized=True)
        b = AbundanceMatrix(np.array([[0.4], [0.6]]))
        with pytest.raises(ValueError, match="normalized"):
            rmse_a(a, b)


class TestSad:
    def test_scale_invariance(self):
        e = np.array([0.3, 0.5, 0.8])
        assert sad(3.0 * e, e) == pytest.approx(0.0, abs=1e-6)
        rng = np.random.default_rng(5)
        for _ in range(20):
            v1 = rng.uniform(0.1, 1.0, size=8)
            v2 = rng.uniform(0.1, 1.0, size=8)
            c = rng.uniform(0.01, 100.0)
            assert sad(c * v1, v2) == pytest.approx(sad(v1, v2), abs=1e-9)

    def test_orthogonal_is_ninety(self):
        assert sad([1.0, 0.0], [0.0, 1.0]) == pytest.approx(90.0)

    def test_forty_five_degrees(self):
        assert sad([1.0, 0.0], [1.0, 1.0]) == pytest.approx(45.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            sad([0.0, 0.0], [1.0, 0.0])


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
