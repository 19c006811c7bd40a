"""Required-bitrate models for XR video delivery.

Four models cover the streaming styles discussed in the docs: an idealized
eye-matching VR view, a concrete HMD panel, a full 360-degree sphere, and a
voxel-based volumetric stream. All arithmetic is carried out in raw bits per
second; binary (Ki/Mi/Gi/Ti) versus decimal (K/M/G/T) prefixes are purely a
formatting decision made at the edge.
"""
from __future__ import annotations

import math

from . import _EXPORTS
from .errors import ConfigError, DomainError, require
from .geometry import FovSpec, Resolution
from .records import record

__all__ = _EXPORTS["capacity"].split()

# Chroma subsampling dictates how many bits a pixel averages per bit of color
# channel depth: 4:4:4 keeps all three channels, 4:2:0 halves the two chroma
# channels (3 -> 1.5 multipliers).
_CHROMA_MULTIPLIER = {"4:4:4": 3.0, "4:2:0": 1.5}

BINARY_PREFIXES = (("Ti", 2**40), ("Gi", 2**30), ("Mi", 2**20), ("Ki", 2**10))
DECIMAL_PREFIXES = (("T", 10**12), ("G", 10**9), ("M", 10**6), ("K", 10**3))


@record
class BitDepth:
    """Bits carried per displayed pixel."""

    bits_per_pixel: float

    def __post_init__(self) -> None:
        require("bits per pixel", self.bits_per_pixel, ge=1, le=64)

    @classmethod
    def from_bpc(cls, bits_per_color: int, chroma: str = "4:4:4") -> "BitDepth":
        """Build from per-channel depth and a chroma subsampling mode.

        8/10/12/16 bpc map to 24/30/36/48 bpp at 4:4:4 and to 12/15/18/24 bpp
        at 4:2:0.
        """
        if chroma not in _CHROMA_MULTIPLIER:
            raise DomainError(f"unknown chroma mode {chroma!r}; expected one of {sorted(_CHROMA_MULTIPLIER)}")
        return cls(require("bits per color", bits_per_color, gt=0) * _CHROMA_MULTIPLIER[chroma])


@record
class CompressionProfile:
    """Codec identity and how much it shrinks the raw stream.

    ``overall_factor`` of 1 means uncompressed. I-frames carry a full image
    and therefore compress less than P-frames, hence the factor ordering
    check when both are given.
    """

    name: str
    overall_factor: float
    iframe_factor: float | None = None
    pframe_factor: float | None = None

    def __post_init__(self) -> None:
        require("compression factor", self.overall_factor, ge=1)
        for label, factor in (("iframe", self.iframe_factor), ("pframe", self.pframe_factor)):
            if factor is not None:
                require(f"{label} factor", factor, ge=1)
        if (
            self.iframe_factor is not None
            and self.pframe_factor is not None
            and self.iframe_factor > self.pframe_factor
        ):
            raise DomainError("iframe factor cannot exceed pframe factor (I-frames compress less)")

    def require_frame_factors(self) -> tuple[float, float]:
        if self.iframe_factor is None or self.pframe_factor is None:
            raise ConfigError(f"profile {self.name!r} lacks per-frame compression factors")
        return self.iframe_factor, self.pframe_factor


UNCOMPRESSED = CompressionProfile("raw", 1.0)


@record
class BitRate:
    """A non-negative rate in raw bits per second."""

    bits_per_second: float

    def __post_init__(self) -> None:
        require("bit rate", self.bits_per_second, ge=0, le=math.inf)

    @property
    def bps(self) -> float:
        return self.bits_per_second

    def format(self, units: str = "binary") -> str:
        """Render to two decimals with the largest prefix that keeps the value at least 1."""
        if units == "binary":
            prefixes = BINARY_PREFIXES
        elif units == "decimal":
            prefixes = DECIMAL_PREFIXES
        else:
            raise DomainError(f"units must be 'binary' or 'decimal', got {units!r}")
        for name, divisor in prefixes:
            if self.bits_per_second >= divisor:
                return f"{self.bits_per_second / divisor:.2f} {name}bps"
        return f"{self.bits_per_second:.2f} bps"


@record
class VoxelSpec:
    """Point-cloud frame description: voxel count and per-voxel bit layout.

    The default layout spends 24 bits on color (8 per RGB channel) and 48 on
    position (16 per axis), 9 bytes per voxel in total.
    """

    voxels_per_frame: int
    color_depth: int = 24
    position_depth: int = 48

    def __post_init__(self) -> None:
        require("voxel count", self.voxels_per_frame, ge=0)
        require("voxel color depth", self.color_depth, ge=0)
        require("voxel position depth", self.position_depth, ge=0)
        if self.color_depth + self.position_depth <= 0:
            raise DomainError("a voxel must carry at least one bit")

    @property
    def bits_per_voxel(self) -> int:
        return self.color_depth + self.position_depth


def eye_like_capacity(
    fov: FovSpec, ppd: float, depth: BitDepth, fps: float, comp: CompressionProfile = UNCOMPRESSED
) -> BitRate:
    """Bitrate for a stereo view matching a given angular resolution.

    Each eye sees (fov_h * ppd) x (fov_v * ppd) pixels; both eyes receive
    their own image, so the pixel budget doubles before the depth, frame
    rate, and compression terms apply.
    """
    require("frame rate", fps, ge=0)
    require("ppd", ppd, ge=0)
    pixels_per_eye = (fov.horizontal.degrees * ppd) * (fov.vertical.degrees * ppd)
    rate = 2.0 * pixels_per_eye * depth.bits_per_pixel * fps / comp.overall_factor
    return BitRate(require("bit rate", rate, ge=0))


def full_sphere_capacity(
    ppd: float, depth: BitDepth, fps: float, comp: CompressionProfile = UNCOMPRESSED
) -> BitRate:
    """Bitrate for one full 360x180-degree sphere at a given angular resolution.

    The sphere is transmitted once and both eyes crop their viewports from
    it, so no stereo doubling applies.
    """
    require("frame rate", fps, ge=0)
    require("ppd", ppd, ge=0)
    pixels = (360.0 * ppd) * (180.0 * ppd)
    rate = pixels * depth.bits_per_pixel * fps / comp.overall_factor
    return BitRate(require("bit rate", rate, ge=0))


def hmd_capacity(
    per_eye: Resolution,
    depth: BitDepth,
    fps: float,
    comp: CompressionProfile = UNCOMPRESSED,
    stereo: bool = True,
) -> BitRate:
    """Bitrate for a concrete panel resolution.

    ``stereo=True`` models per-eye viewport streams (two images per frame);
    ``stereo=False`` models a single shared raster such as a full-view
    360-degree video.
    """
    require("frame rate", fps, ge=0)
    eyes = 2.0 if stereo else 1.0
    rate = eyes * per_eye.pixels * depth.bits_per_pixel * fps / comp.overall_factor
    return BitRate(require("bit rate", rate, ge=0))


def volumetric_capacity(
    voxel: VoxelSpec, fps: float, comp: CompressionProfile = UNCOMPRESSED
) -> BitRate:
    """Bitrate for a point-cloud stream: voxels/frame times bits/voxel times fps."""
    require("frame rate", fps, ge=0)
    rate = voxel.voxels_per_frame * voxel.bits_per_voxel * fps / comp.overall_factor
    return BitRate(require("bit rate", rate, ge=0))
