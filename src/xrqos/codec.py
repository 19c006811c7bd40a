"""GOP-structured frame sizing and the pose-driven (strong-interaction) bitrate model.

A pose-driven VR stream is encoded as one I-frame followed by P-frames per
GOP; B-frames need a future reference and are therefore excluded. Frame sizes
start from the warped render surface (the visible field plus reprojection
margins and an extra-picture allowance), add depth-of-field side data, and
divide by the per-frame-type compression factor.
"""
from __future__ import annotations

import math

from . import _EXPORTS
from .capacity import BitDepth, BitRate, CompressionProfile
from .errors import ConfigError, DomainError, _json, record, require
from .geometry import FovSpec, Resolution

__all__ = _EXPORTS["codec"].split()


@record
class GopConfig:
    """Group-of-pictures timing and overhead parameters.

    ``pattern`` optionally spells the frame-type cycle of one GOP: position 0
    must be 'I' and the remainder repeats to fill the GOP (e.g. "IBBP" gives
    the classic I BBP BBP ... layout). ``None`` means the pose-driven default
    of one I followed by P-frames only.
    """

    gop_time: float = _json("a number", key="gop_time_s")
    fps: float = _json("a number")
    redundancy_fraction: float = _json("a number", 0.10)
    pattern: str | None = _json("a string", None)

    def __post_init__(self) -> None:
        require("gop duration", self.gop_time, gt=0)
        require("frame rate", self.fps, gt=0)
        if not 1 <= self.gop_time * self.fps < math.inf:
            raise DomainError(f"a gop must span at least one frame (and finitely many), got {self.gop_time * self.fps}")
        require("redundancy fraction", self.redundancy_fraction, ge=0, lt=1)
        if self.pattern is not None:
            if not self.pattern or self.pattern[0] != "I" or self.pattern.count("I") != 1:
                raise DomainError("pattern must start with its single 'I' frame")
            if set(self.pattern) - set("IPB"):
                raise DomainError(f"pattern may only contain I/P/B, got {self.pattern!r}")

    @property
    def frames_per_gop(self) -> int:
        return round(self.gop_time * self.fps)

    def frame_type(self, position: int) -> str:
        """Frame type at a position within one GOP."""
        if position == 0:
            return "I"
        if self.pattern is None or len(self.pattern) == 1:
            return "P"
        cycle = self.pattern[1:]
        return cycle[(position - 1) % len(cycle)]


@record
class RenderSurface:
    """What actually gets encoded for one stereo frame.

    The rendered image exceeds the visible field: ``fov.extra_h/extra_v``
    degrees of margin keep late reprojection from exposing unrendered area,
    ``extra_picture_fraction`` pads each axis by a further percentage, and
    ``dof_fraction`` accounts for the depth side data reprojection needs.
    """

    per_eye: Resolution
    fov: FovSpec
    depth: BitDepth
    extra_picture_fraction: float = 0.10
    dof_fraction: float = 0.15

    def __post_init__(self) -> None:
        require("extra picture fraction", self.extra_picture_fraction, ge=0, lt=1)
        require("dof fraction", self.dof_fraction, ge=0, lt=1)


@record
class FrameSizes:
    """Encoded size per frame type, in bits."""

    i_bits: float = _json("a number")
    p_bits: float = _json("a number")
    b_bits: float | None = _json("a number", None)

    def __post_init__(self) -> None:
        require("I-frame size", self.i_bits, gt=0)
        require("P-frame size", self.p_bits, gt=0)
        if self.b_bits is not None:
            require("B-frame size", self.b_bits, ge=0)

    def bits_for(self, frame_type: str) -> float:
        if frame_type == "I":
            return self.i_bits
        if frame_type == "P":
            return self.p_bits
        if frame_type == "B":
            if self.b_bits is None:
                raise ConfigError("trace pattern uses B-frames but no B-frame size is configured")
            return self.b_bits
        raise DomainError(f"unknown frame type {frame_type!r}")


def nb_pixels(surface: RenderSurface) -> float:
    """Pixel count of one rendered stereo frame, margins included.

    2 * W * H * (1 + extra_h/fov_h) * (1 + extra_v/fov_v)
      * (1 + extra_picture_fraction)^2
    """
    fov_h = require("render surface horizontal fov", surface.fov.horizontal.degrees, gt=0)
    fov_v = require("render surface vertical fov", surface.fov.vertical.degrees, gt=0)
    margin_h = 1.0 + surface.fov.extra_h.degrees / fov_h
    margin_v = 1.0 + surface.fov.extra_v.degrees / fov_v
    padding = (1.0 + surface.extra_picture_fraction) ** 2
    return 2.0 * surface.per_eye.pixels * margin_h * margin_v * padding


def frame_size(pixel_count: float, depth: BitDepth, dof_fraction: float, factor: float) -> float:
    """Encoded frame size in bits: pixels * bpp * (1 + dof) / compression factor."""
    require("compression factor", factor, ge=1)
    require("pixel count", pixel_count, ge=0)
    require("dof fraction", dof_fraction, ge=0)
    return pixel_count * depth.bits_per_pixel * (1.0 + dof_fraction) / factor


def frame_sizes(surface: RenderSurface, comp: CompressionProfile) -> FrameSizes:
    """I- and P-frame sizes of one rendered surface under a codec's per-frame factors."""
    i_factor, p_factor = comp.require_frame_factors()
    pixels = nb_pixels(surface)
    return FrameSizes(
        i_bits=frame_size(pixels, surface.depth, surface.dof_fraction, i_factor),
        p_bits=frame_size(pixels, surface.depth, surface.dof_fraction, p_factor),
    )


def p_frame_count(cfg: GopConfig) -> int:
    """P-frames per GOP: every slot but the leading I-frame."""
    return cfg.frames_per_gop - 1


def gop_bitrate(sizes: FrameSizes, n_i: int, n_p: int, cfg: GopConfig) -> BitRate:
    """Average bitrate of one GOP's worth of frames plus redundancy overhead."""
    require("I-frames per gop", n_i, ge=1)
    require("P-frames per gop", n_p, ge=0)
    payload = sizes.i_bits * n_i + sizes.p_bits * n_p
    return BitRate(require("bit rate", payload * (1.0 + cfg.redundancy_fraction) / cfg.gop_time, ge=0))


def strong_interaction_bitrate(
    surface: RenderSurface, cfg: GopConfig, comp: CompressionProfile
) -> BitRate:
    """End-to-end pose-driven bitrate: surface -> frame sizes -> GOP average."""
    if cfg.pattern is not None and "B" in cfg.pattern:
        raise ConfigError("pose-driven streams carry no B-frames (no future reference exists)")
    return gop_bitrate(frame_sizes(surface, comp), 1, p_frame_count(cfg), cfg)
