import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrqos.errors import DomainError
from xrqos.geometry import (
    Angle,
    FovSpec,
    PhysicalSize,
    Resolution,
    fov_from_physical,
    ppd_from_cone_density,
    ppd_from_fov,
    ppd_from_physical,
    ppi,
    ppi_from_diagonal,
    scale_resolution,
)


class TestPpi:
    def test_40_inch_tv(self):
        # sqrt(1920^2 + 1080^2) / 40
        assert ppi_from_diagonal(Resolution(1920, 1080), 40.0) == pytest.approx(55, abs=1)

    def test_hmd_panel(self):
        value = ppi(Resolution(1440, 1600), PhysicalSize(5.01, 5.57))
        assert value == pytest.approx(287, abs=0.5)
        # per-axis ratios agree with the diagonal form for this panel
        assert 1440 / 5.01 == pytest.approx(287, abs=0.5)
        assert 1600 / 5.57 == pytest.approx(287, abs=0.5)

    def test_unit_square(self):
        assert ppi(Resolution(100, 100), PhysicalSize(1.0, 1.0)) == pytest.approx(100.0)

    def test_matching_aspect_equals_axis_ratio(self):
        size = PhysicalSize(19.2, 10.8)
        value = ppi(Resolution(1920, 1080), size)
        assert value == pytest.approx(1920 / 19.2, rel=1e-9)
        assert value == pytest.approx(1080 / 10.8, rel=1e-9)

    def test_rejects_bad_size(self):
        with pytest.raises(DomainError):
            PhysicalSize(0.0, 5.0)
        with pytest.raises(DomainError):
            ppi_from_diagonal(Resolution(10, 10), -1.0)


class TestFov:
    def test_hmd_width(self):
        assert fov_from_physical(5.01, 2.5).degrees == pytest.approx(90, abs=0.5)

    def test_hmd_height(self):
        assert fov_from_physical(5.57, 2.5).degrees == pytest.approx(96, abs=0.5)

    def test_extent_twice_distance_is_90(self):
        assert fov_from_physical(5.0, 2.5).degrees == pytest.approx(90.0, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            fov_from_physical(0.0, 2.5)
        with pytest.raises(DomainError):
            fov_from_physical(5.0, 0.0)

    @given(
        extent=st.floats(min_value=0.1, max_value=100.0),
        distance=st.floats(min_value=0.1, max_value=100.0),
    )
    def test_below_180_and_monotone(self, extent, distance):
        fov = fov_from_physical(extent, distance).degrees
        assert 0 < fov < 180
        assert fov_from_physical(extent * 1.5, distance).degrees > fov
        assert fov_from_physical(extent, distance * 1.5).degrees < fov


class TestPpd:
    def test_hmd_16(self):
        assert ppd_from_fov(1440, Angle(90)) == pytest.approx(16.0)

    def test_quest_headline(self):
        assert ppd_from_fov(1648, 97) == pytest.approx(16.99, abs=0.005)

    def test_trivial(self):
        assert ppd_from_fov(60, 60) == pytest.approx(1.0)

    def test_zero_fov_rejected(self):
        with pytest.raises(DomainError):
            ppd_from_fov(100, 0)

    def test_physical_form(self):
        assert ppd_from_physical(1440, 5.01, 2.5) == pytest.approx(16, abs=0.5)

    def test_physical_form_inverted_fov(self):
        # extent chosen so the fov comes out at exactly 97 degrees
        distance = 2.5
        extent = 2 * distance * math.tan(math.radians(97 / 2))
        assert ppd_from_physical(1648, extent, distance) == pytest.approx(1648 / 97, rel=1e-12)

    def test_zero_pixels(self):
        assert ppd_from_physical(0, 5.01, 2.5) == 0.0

    @settings(max_examples=150)
    @given(
        pixels=st.integers(min_value=1, max_value=20000),
        extent=st.floats(min_value=0.05, max_value=50.0),
        distance=st.floats(min_value=0.05, max_value=50.0),
    )
    def test_composition_identity(self, pixels, extent, distance):
        composed = ppd_from_fov(pixels, fov_from_physical(extent, distance))
        assert ppd_from_physical(pixels, extent, distance) == pytest.approx(composed, rel=1e-12)

    @given(pixels=st.integers(min_value=1, max_value=100000), fov=st.floats(min_value=0.01, max_value=360))
    def test_ppd_times_fov_recovers_pixels(self, pixels, fov):
        assert ppd_from_fov(pixels, fov) * fov == pytest.approx(pixels, rel=1e-12)


class TestScaleResolution:
    def test_quest_360_horizontal(self):
        assert scale_resolution(1648, 97, 360) == 6116

    def test_quest_180_vertical(self):
        assert scale_resolution(1664, 98, 180) == 3056

    def test_4k_to_16k(self):
        assert scale_resolution(4096, 90, 360) == 16384

    def test_zero_fov_rejected(self):
        with pytest.raises(DomainError):
            scale_resolution(100, 0, 360)

    @settings(max_examples=200)
    @given(
        pixels=st.integers(min_value=1, max_value=20000),
        viewport=st.floats(min_value=1.0, max_value=180.0),
        expansion=st.floats(min_value=1.0, max_value=8.0),
    )
    def test_round_trip_through_larger_fov(self, pixels, viewport, expansion):
        # Upscale then downscale: rounding in the larger space shrinks on the
        # way back, so the round trip stays within one pixel. (Downscaling
        # first can discard pixels beyond recovery.)
        target = viewport * expansion
        up = scale_resolution(pixels, viewport, target)
        back = scale_resolution(up, target, viewport)
        assert abs(back - pixels) <= 1


class TestConeDensityPpd:
    def test_low_peak(self):
        assert ppd_from_cone_density(100_000, 17.1) == pytest.approx(94, abs=0.5)

    def test_average_peak(self):
        assert ppd_from_cone_density(199_000, 17.1) == pytest.approx(133, abs=0.5)

    def test_high_peak(self):
        # The quoted headline for this density is 200 ppd, reached through
        # aggressive intermediate rounding (0.0059 deg -> 0.005 deg); the
        # formula itself gives just under 170.
        assert ppd_from_cone_density(324_000, 17.1) == pytest.approx(169.9, abs=0.5)

    def test_quadruple_density_doubles_ppd(self):
        base = ppd_from_cone_density(100_000, 17.1)
        assert ppd_from_cone_density(400_000, 17.1) == pytest.approx(2 * base, rel=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            ppd_from_cone_density(0, 17.1)
        with pytest.raises(DomainError):
            ppd_from_cone_density(100_000, 0)

    @given(
        density=st.floats(min_value=1e3, max_value=1e7),
        lens=st.floats(min_value=1.0, max_value=100.0),
    )
    def test_monotone(self, density, lens):
        base = ppd_from_cone_density(density, lens)
        assert ppd_from_cone_density(density * 2, lens) > base
        assert ppd_from_cone_density(density, lens * 2) > base


class TestValueTypes:
    def test_angle_range(self):
        with pytest.raises(DomainError):
            Angle(-1)
        with pytest.raises(DomainError):
            Angle(361)

    def test_resolution_positive(self):
        with pytest.raises(DomainError):
            Resolution(0, 10)

    def test_fovspec_coerces_numbers(self):
        fov = FovSpec(155, 130, 12, 12)
        assert fov.horizontal.degrees == 155
        assert fov.extra_v.degrees == 12

    def test_fovspec_vertical_cap(self):
        with pytest.raises(DomainError):
            FovSpec(100, 181)

    @pytest.mark.parametrize("horizontal, vertical, message", [
        (0, 90, "horizontal fov in degrees must be positive and finite, got 0.0"),
        (90, 0, r"vertical fov in degrees must lie in \(0, 180\], got 0.0"),
    ], ids=["horizontal", "vertical"])
    def test_fovspec_extents_are_positive(self, horizontal, vertical, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            FovSpec(horizontal, vertical)
