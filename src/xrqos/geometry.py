"""Display-quality geometry: pixel densities, fields of view, and resolution scaling.

Angular quantities are degrees at every public boundary; radians appear only
inside the trigonometry, converted with the exact ``180/pi`` factor.
"""
from __future__ import annotations

import math

from . import _EXPORTS
from .errors import _json, record, require

__all__ = _EXPORTS["geometry"].split()


@record
class Resolution:
    """A pixel grid, e.g. one eye's panel or render target."""

    width: int = _json("an integer")
    height: int = _json("an integer")

    def __post_init__(self) -> None:
        require("resolution width", self.width, ge=1)
        require("resolution height", self.height, ge=1)
        require("resolution pixel count", self.pixels, ge=1)

    @property
    def pixels(self) -> int:
        return self.width * self.height

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)

    def __str__(self) -> str:
        return f"{self.width}x{self.height}"


@record
class PhysicalSize:
    """Physical extent of a display in inches."""

    width: float
    height: float

    def __post_init__(self) -> None:
        require("physical width", self.width, gt=0)
        require("physical height", self.height, gt=0)

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)


@record
class Angle:
    """An angle in degrees, restricted to [0, 360]."""

    degrees: float

    def __post_init__(self) -> None:
        require("angle in degrees", self.degrees, ge=0, le=360)

    def __float__(self) -> float:
        return float(self.degrees)


@record
class FovSpec:
    """Per-eye field of view plus reprojection margins.

    ``extra_h``/``extra_v`` are the extra rendered degrees kept around the
    visible field so a late pose update can be warped in without exposing
    unrendered area.
    """

    horizontal: Angle = _json("a number", gt=0)
    vertical: Angle = _json("a number", gt=0)
    extra_h: Angle = _json("a number", Angle(0.0))
    extra_v: Angle = _json("a number", Angle(0.0))

    def __post_init__(self) -> None:
        # Coerce bare numbers so FovSpec(155, 130) works.
        for name in ("horizontal", "vertical", "extra_h", "extra_v"):
            value = getattr(self, name)
            if not isinstance(value, Angle):
                object.__setattr__(self, name, Angle(float(value)))
        require("vertical fov in degrees", self.vertical.degrees, ge=0, le=180)


def ppi(res: Resolution, size: PhysicalSize) -> float:
    """Pixels per inch along the diagonal.

    Equals the per-axis ratios width/width_in and height/height_in whenever
    the pixel and physical aspect ratios agree.
    """
    return require("ppi", res.diagonal / size.diagonal, ge=0)


def ppi_from_diagonal(res: Resolution, diagonal_in: float) -> float:
    """Pixels per inch when only the diagonal length is known."""
    return require("ppi", res.diagonal / require("diagonal", diagonal_in, gt=0), ge=0)


def fov_from_physical(extent_in: float, distance_in: float) -> Angle:
    """Field of view subtended by a screen extent viewed from a distance.

    The eye sits on the perpendicular bisector of the extent, so the half
    angle is atan(extent/2 / distance); the result is always below 180 degrees.
    """
    require("extent", extent_in, gt=0)
    require("distance", distance_in, gt=0)
    return Angle(2.0 * math.degrees(math.atan(0.5 * extent_in / distance_in)))


def ppd_from_fov(pixels: int, fov: Angle | float) -> float:
    """Pixels per degree across a field of view."""
    fov_deg = require("fov", float(fov), gt=0)
    return require("ppd", require("pixel count", pixels, ge=0) / fov_deg, ge=0)


def ppd_from_physical(pixels: int, extent_in: float, distance_in: float) -> float:
    """Pixels per degree from physical screen geometry.

    Algebraically the composition ppd_from_fov(pixels, fov_from_physical(...)).
    """
    return ppd_from_fov(pixels, fov_from_physical(extent_in, distance_in))


def scale_resolution(viewport_px: int, viewport_fov: Angle | float, target_fov: Angle | float) -> int:
    """Rescale a pixel count from one angular coverage to another.

    Used to size the full panorama a viewport must be cut from: a 360-degree
    video spans 360 degrees horizontally and 180 vertically, so a viewport of
    ``viewport_px`` pixels over ``viewport_fov`` degrees needs
    ``viewport_px * target/viewport`` pixels over the full span. Rounds to the
    nearest pixel.
    """
    vp_deg = require("viewport fov", float(viewport_fov), gt=0)
    target_deg = require("target fov", float(target_fov), ge=0)
    scaled = require("pixel count", viewport_px, ge=0) * target_deg / vp_deg
    return round(require("scaled pixel count", scaled, ge=0))


def ppd_from_cone_density(peak_density: float, lens_to_fovea: float) -> float:
    """Angular resolution of the eye implied by its foveal cone density.

    Cones at ``peak_density`` per square millimetre sit 1/sqrt(density) mm
    apart; one cone pitch viewed from the lens at ``lens_to_fovea`` mm spans
    2*atan(pitch/2 / distance) degrees, and the reciprocal of that span is the
    eye's pixels-per-degree equivalent.
    """
    require("cone density", peak_density, gt=0)
    require("lens distance", lens_to_fovea, gt=0)
    pitch_mm = 1.0 / math.sqrt(peak_density)
    angular_pitch = 2.0 * math.degrees(math.atan(0.5 * pitch_mm / lens_to_fovea))
    # the pitch is 0 once extreme inputs underflow, and its reciprocal can overflow
    return require("ppd", 1.0 / require("angular cone pitch", angular_pitch, gt=0), ge=0)

