"""Domain description and grid function tests."""

import numpy as np
import pytest

from polyspec.grids import DomainSpec, GridError, GridFunction, euclidean_dot


def square(points=12, l=1):
    return DomainSpec.with_points("rectangle", [1.0, 1.0], [points, points], l=l)


class TestDomainSpec:
    def test_interval_basics(self):
        spec = DomainSpec(shape="interval", n=1, extents=(1.0,), h=(0.1,), l=1)
        assert spec.interior_shape == (9,)
        assert spec.interior_count == 9
        assert spec.cell_volume == pytest.approx(0.1)

    def test_with_points(self):
        spec = DomainSpec.with_points("rectangle", [2.0, 1.0], [19, 9])
        assert spec.interior_shape == (19, 9)
        assert spec.h == pytest.approx((0.1, 0.1))

    def test_rejects_unknown_shape(self):
        with pytest.raises(GridError):
            DomainSpec(shape="disc", n=2, extents=(1.0, 1.0), h=(0.1, 0.1))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(GridError):
            DomainSpec(shape="interval", n=2, extents=(1.0, 1.0), h=(0.1, 0.1))

    @pytest.mark.parametrize("extents, h", [((np.inf,), (0.1,)), ((np.nan,), (0.1,)),
                                            ((1.0,), (np.inf,)), ((1.0,), (np.nan,)),
                                            (("one",), (0.1,)), ((1e308,), (1e-308,))])
    def test_rejects_non_finite_extents_and_spacing(self, extents, h):
        # these escaped as OverflowError or ValueError, a crash and not a config error
        with pytest.raises(GridError):
            DomainSpec(shape="interval", n=1, extents=extents, h=h)

    def test_from_dict_rejects_scalar_extents(self):
        with pytest.raises(GridError, match="lists"):
            DomainSpec.from_dict({"shape": "interval", "extents": 1.0, "h": [0.1]})

    def test_rejects_nondividing_spacing(self):
        with pytest.raises(GridError):
            DomainSpec(shape="interval", n=1, extents=(1.0,), h=(0.3,))

    def test_minimum_points_scales_with_order(self):
        # 2l+3 = 9 interior points needed at l=3
        DomainSpec.with_points("interval", [1.0], [9], l=3)
        with pytest.raises(GridError):
            DomainSpec.with_points("interval", [1.0], [8], l=3)

    def test_coordinates(self):
        spec = DomainSpec(shape="interval", n=1, extents=(1.0,), h=(0.125,), l=1)
        assert spec.coordinate(0) == pytest.approx(np.arange(1, 8) * 0.125)

    def test_coordinate_axis_range(self):
        with pytest.raises(GridError):
            square().coordinate(2)

    def test_dict_round_trip(self):
        spec = square(points=10, l=2)
        assert DomainSpec.from_dict(spec.to_dict()) == spec

    def test_mask_round_trip_and_count(self):
        mask = ["11111", "10000", "10000", "10000", "10000"]
        spec = DomainSpec.with_points("masked-rectangle", [1.0, 1.0], [5, 5],
                                      mask=mask)
        assert spec.interior_count == 9
        again = DomainSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.mask_array.sum() == 9

    def test_derived_arrays_cached_read_only(self):
        mask = ["11111", "10000", "10000", "10000", "10000"]
        spec = DomainSpec.with_points("masked-rectangle", [1.0, 1.0], [5, 5],
                                      mask=mask)
        derived = (spec.mask_array, spec.flat_indices(), spec.coordinate(1))
        assert derived[0] is spec.mask_array
        assert derived[1] is spec.flat_indices()
        assert derived[2] is spec.coordinate(1)
        assert spec.coordinate(1) == pytest.approx(
            [0.5 / 3, 1 / 3, 0.5, 2 / 3, 2.5 / 3, 0.5 / 3, 0.5 / 3, 0.5 / 3, 0.5 / 3])
        for arr in derived:
            with pytest.raises(ValueError):
                arr[0] = arr[1]

    def test_mask_shape_validation(self):
        with pytest.raises(GridError):
            DomainSpec.with_points("masked-rectangle", [1.0, 1.0], [5, 5],
                                   mask=["1111", "1000", "1000", "1000", "1000"])
        with pytest.raises(GridError):
            DomainSpec.with_points("masked-rectangle", [1.0, 1.0], [5, 5],
                                   mask=["11112", "10000", "10000", "10000", "10000"])

    def test_mask_only_for_masked_shape(self):
        with pytest.raises(GridError):
            DomainSpec.with_points("rectangle", [1.0, 1.0], [5, 5],
                                   mask=["11111"] * 5)

    def test_box_shape(self):
        spec = DomainSpec.with_points("box", [1.0, 1.0, 1.0], [9, 9, 9])
        assert spec.n == 3
        assert spec.interior_count == 729


class TestGridFunction:
    def test_length_validated(self):
        spec = square()
        with pytest.raises(GridError):
            GridFunction(np.zeros(5), spec)

    def test_embed_restrict_round_trip(self):
        mask = ["11111", "10000", "10000", "10000", "10000"]
        spec = DomainSpec.with_points("masked-rectangle", [1.0, 1.0], [5, 5],
                                      mask=mask)
        u = GridFunction(np.arange(1.0, 10.0), spec)
        box = u.embed()
        assert box.shape == (5, 5)
        assert box[1, 1] == 0.0  # masked-out cell
        again = GridFunction.from_box(box, spec)
        assert np.array_equal(again.values, u.values)

    def test_inner_is_volume_weighted(self):
        spec = DomainSpec(shape="interval", n=1, extents=(1.0,), h=(0.125,), l=1)
        u = GridFunction(np.ones(7), spec)
        assert u.inner(u) == pytest.approx(7 * 0.125)

    def test_normalized(self):
        spec = square()
        rng = np.random.default_rng(0)
        u = GridFunction(rng.standard_normal(spec.interior_count), spec)
        assert u.normalized().norm() == pytest.approx(1.0)

    def test_normalize_zero_rejected(self):
        spec = square()
        with pytest.raises(GridError):
            GridFunction.zeros(spec).normalized()


class TestEuclideanDot:
    @pytest.mark.parametrize("length", [999, 14400, 40401])
    def test_agrees_with_numpy_dot(self, length):
        rng = np.random.default_rng(length)
        a, b = rng.standard_normal(length), rng.standard_normal(length)
        assert euclidean_dot(a, b) == pytest.approx(float(np.dot(a, b)), rel=1e-14)
        assert euclidean_dot(a, a) == pytest.approx(float(np.dot(a, a)), rel=1e-14)

    @pytest.mark.parametrize("length", [999, 14400, 40401])
    def test_bitwise_equal_on_offset_view_and_copy(self, length):
        # the summation order depends only on the length, not on where the data sits
        buf = np.random.default_rng(length).standard_normal(length + 1)
        view = buf[1:]
        copy = view.copy()
        assert euclidean_dot(view, view) == euclidean_dot(copy, copy)
        assert euclidean_dot(view, buf[:-1]) == euclidean_dot(copy, buf[:-1].copy())
        strided = np.repeat(copy, 2)[::2]
        assert euclidean_dot(strided, strided) == euclidean_dot(copy, copy)
