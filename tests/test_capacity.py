import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrqos.capacity import (
    BitDepth,
    BitRate,
    CompressionProfile,
    VoxelSpec,
    eye_like_capacity,
    full_sphere_capacity,
    hmd_capacity,
    volumetric_capacity,
)
from xrqos.errors import ConfigError, DomainError
from xrqos.geometry import FovSpec, Resolution

RAW = CompressionProfile("raw", 1.0)
H265 = CompressionProfile("H.265", 600.0)
EYE_FOV = FovSpec(155, 130)
BPP24 = BitDepth(24)


class TestBitDepth:
    @pytest.mark.parametrize("bpc,expected", [(8, 24), (10, 30), (12, 36), (16, 48)])
    def test_full_chroma(self, bpc, expected):
        assert BitDepth.from_bpc(bpc, "4:4:4").bits_per_pixel == expected

    @pytest.mark.parametrize("bpc,expected", [(8, 12), (10, 15), (12, 18), (16, 24)])
    def test_subsampled_chroma(self, bpc, expected):
        assert BitDepth.from_bpc(bpc, "4:2:0").bits_per_pixel == expected

    def test_range(self):
        with pytest.raises(DomainError):
            BitDepth(0)
        with pytest.raises(DomainError):
            BitDepth(65)

    def test_unknown_chroma(self):
        with pytest.raises(DomainError):
            BitDepth.from_bpc(8, "4:2:2")


class TestCompressionProfile:
    def test_factor_below_one_rejected(self):
        with pytest.raises(DomainError):
            CompressionProfile("bad", 0.5)

    def test_iframe_cannot_compress_more_than_pframe(self):
        with pytest.raises(DomainError):
            CompressionProfile("bad", 100, iframe_factor=200, pframe_factor=100)

    def test_require_frame_factors(self):
        with pytest.raises(ConfigError):
            H265.require_frame_factors()
        profile = CompressionProfile("H.265", 600, 38, 165)
        assert profile.require_frame_factors() == (38, 165)


class TestBitRateFormatting:
    def test_binary(self):
        assert BitRate(2.978976e12).format("binary") == "2.71 Tibps"
        assert BitRate(26_325_811.2).format("binary") == "25.11 Mibps"

    def test_decimal(self):
        assert BitRate(91_038_101.0).format("decimal") == "91.04 Mbps"

    def test_small_values(self):
        assert BitRate(1500).format("decimal") == "1.50 Kbps"
        assert BitRate(512).format("decimal") == "512.00 bps"
        assert BitRate(12).format("binary") == "12.00 bps"

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            BitRate(-1.0)


class TestEyeLike:
    def test_uncompressed_matches_published_chain(self):
        rate = eye_like_capacity(EYE_FOV, 200, BPP24, 77, RAW)
        # 2 * (155*200) * (130*200) * 24 * 77
        assert rate.bps == pytest.approx(2.978976e12, rel=1e-12)
        assert rate.format("binary") == "2.71 Tibps"

    def test_h265(self):
        rate = eye_like_capacity(EYE_FOV, 200, BPP24, 77, H265)
        assert rate.bps / 2**30 == pytest.approx(4.62, abs=0.005)

    def test_zero_fps(self):
        assert eye_like_capacity(EYE_FOV, 200, BPP24, 0, RAW).bps == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            eye_like_capacity(EYE_FOV, -1, BPP24, 77, RAW)


class TestFullSphere:
    def test_uncompressed(self):
        rate = full_sphere_capacity(200, BPP24, 77, RAW)
        assert rate.bps == pytest.approx(72000 * 36000 * 24 * 77, rel=1e-12)
        assert rate.bps / 2**40 == pytest.approx(4.36, abs=0.005)

    def test_compressed_tiers(self):
        assert full_sphere_capacity(200, BPP24, 77, H265).bps / 2**30 == pytest.approx(7.44, abs=0.005)
        h266 = CompressionProfile("H.266", 1200.0)
        assert full_sphere_capacity(200, BPP24, 77, h266).bps / 2**30 == pytest.approx(3.72, abs=0.005)

    def test_zero_ppd(self):
        assert full_sphere_capacity(0, BPP24, 77, RAW).bps == 0.0


class TestHmd:
    def test_quest_panel_headline(self):
        rate = hmd_capacity(Resolution(1832, 1920), BPP24, 120, H265, stereo=True)
        assert rate.bps / 2**20 == pytest.approx(32.2, abs=0.05)

    def test_quest_render_target_120(self):
        rate = hmd_capacity(Resolution(1648, 1664), BPP24, 120, H265, stereo=True)
        assert rate.bps / 2**20 == pytest.approx(25.11, abs=0.005)

    def test_quest_full_video_120(self):
        rate = hmd_capacity(Resolution(6116, 3056), BPP24, 120, H265, stereo=False)
        assert rate.bps / 2**20 == pytest.approx(85.56, abs=0.005)

    def test_stereo_doubles_mono(self):
        res = Resolution(1234, 567)
        stereo = hmd_capacity(res, BPP24, 90, H265, stereo=True)
        mono = hmd_capacity(res, BPP24, 90, H265, stereo=False)
        assert stereo.bps == 2 * mono.bps


class TestVolumetric:
    def test_30fps(self):
        rate = volumetric_capacity(VoxelSpec(50_360), 30, RAW)
        assert rate.bps == pytest.approx(50_360 * 72 * 30, rel=1e-12)
        assert rate.bps / 2**20 == pytest.approx(103.74, abs=0.005)

    def test_90fps(self):
        assert volumetric_capacity(VoxelSpec(50_360), 90, RAW).bps / 2**20 == pytest.approx(
            311.22, abs=0.005
        )

    def test_60_is_twice_30(self):
        thirty = volumetric_capacity(VoxelSpec(50_360), 30, RAW)
        sixty = volumetric_capacity(VoxelSpec(50_360), 60, RAW)
        assert sixty.bps == 2 * thirty.bps

    def test_degenerate_equals_mono_hmd(self):
        # color-only voxels over N points == a mono raster of N pixels
        voxel = VoxelSpec(1832 * 1920, color_depth=24, position_depth=0)
        assert volumetric_capacity(voxel, 72, RAW).bps == pytest.approx(
            hmd_capacity(Resolution(1832, 1920), BPP24, 72, RAW, stereo=False).bps, rel=1e-12
        )


_fps = st.floats(min_value=0.0, max_value=500.0)
_scale = st.floats(min_value=0.25, max_value=8.0)
_factor = st.floats(min_value=1.0, max_value=2000.0)


class TestScalingLaws:
    @settings(max_examples=150)
    @given(fps=_fps, k=_scale, factor=_factor)
    def test_linear_in_fps(self, fps, k, factor):
        comp = CompressionProfile("x", factor)
        base = eye_like_capacity(EYE_FOV, 60, BPP24, fps, comp).bps
        scaled = eye_like_capacity(EYE_FOV, 60, BPP24, fps * k, comp).bps
        assert scaled == pytest.approx(base * k, rel=1e-12, abs=1e-9)

    @settings(max_examples=150)
    @given(bpp=st.floats(min_value=1.0, max_value=32.0), k=st.floats(min_value=1.0, max_value=2.0), factor=_factor)
    def test_linear_in_bpp(self, bpp, k, factor):
        comp = CompressionProfile("x", factor)
        base = hmd_capacity(Resolution(640, 480), BitDepth(bpp), 60, comp).bps
        scaled = hmd_capacity(Resolution(640, 480), BitDepth(bpp * k), 60, comp).bps
        assert scaled == pytest.approx(base * k, rel=1e-12)

    @settings(max_examples=150)
    @given(factor=_factor, k=st.floats(min_value=1.0, max_value=10.0))
    def test_inverse_in_factor(self, factor, k):
        base = full_sphere_capacity(30, BPP24, 60, CompressionProfile("x", factor)).bps
        scaled = full_sphere_capacity(30, BPP24, 60, CompressionProfile("x", factor * k)).bps
        assert scaled == pytest.approx(base / k, rel=1e-12)

    @settings(max_examples=100)
    @given(
        fov_h=st.integers(min_value=1, max_value=180),
        fov_v=st.integers(min_value=1, max_value=170),
        ppd=st.integers(min_value=1, max_value=60),
        fps=st.floats(min_value=1.0, max_value=240.0),
    )
    def test_eye_like_consistent_with_hmd(self, fov_h, fov_v, ppd, fps):
        # integral fov*ppd products let the two models describe one display
        fov = FovSpec(fov_h, fov_v)
        res = Resolution(fov_h * ppd, fov_v * ppd)
        assert eye_like_capacity(fov, ppd, BPP24, fps, RAW).bps == pytest.approx(
            hmd_capacity(res, BPP24, fps, RAW, stereo=True).bps, rel=1e-12
        )

    @given(
        voxels=st.integers(min_value=0, max_value=10**6),
        fps=st.floats(min_value=0.0, max_value=240.0),
    )
    def test_nonnegative_and_zero_iff_zero_input(self, voxels, fps):
        rate = volumetric_capacity(VoxelSpec(voxels), fps, RAW)
        assert rate.bps >= 0
        assert (rate.bps == 0) == (voxels == 0 or fps == 0)
