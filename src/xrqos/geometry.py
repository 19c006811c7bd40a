"""Display-quality geometry: pixel densities, fields of view, and resolution scaling.

Angular quantities are degrees at every public boundary; radians appear only
inside the trigonometry, converted with the exact ``180/pi`` factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "Resolution",
    "PhysicalSize",
    "Angle",
    "FovSpec",
    "ppi",
    "ppi_from_diagonal",
    "fov_from_physical",
    "ppd_from_fov",
    "ppd_from_physical",
    "scale_resolution",
    "ppd_from_cone_density",
    "per_eye_fov_from_binocular",
]


@dataclass(frozen=True)
class Resolution:
    """A pixel grid, e.g. one eye's panel or render target."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise DomainError(f"resolution must be at least 1x1, got {self.width}x{self.height}")

    @property
    def pixels(self) -> int:
        return self.width * self.height

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)

    def __str__(self) -> str:
        return f"{self.width}x{self.height}"


@dataclass(frozen=True)
class PhysicalSize:
    """Physical extent of a display in inches."""

    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise DomainError(f"physical size must be positive, got {self.width}x{self.height}")

    @classmethod
    def from_diagonal(cls, diagonal: float, aspect_w: float, aspect_h: float) -> "PhysicalSize":
        """Split a diagonal length into width x height for a given aspect ratio."""
        if diagonal <= 0 or aspect_w <= 0 or aspect_h <= 0:
            raise DomainError("diagonal and aspect ratio must be positive")
        norm = math.hypot(aspect_w, aspect_h)
        return cls(diagonal * aspect_w / norm, diagonal * aspect_h / norm)

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)


@dataclass(frozen=True)
class Angle:
    """An angle in degrees, restricted to [0, 360]."""

    degrees: float

    def __post_init__(self) -> None:
        if not 0 <= self.degrees <= 360:
            raise DomainError(f"angle must be within [0, 360] degrees, got {self.degrees}")

    def __float__(self) -> float:
        return float(self.degrees)


def _deg(angle: "Angle | float") -> float:
    return angle.degrees if isinstance(angle, Angle) else float(angle)


@dataclass(frozen=True)
class FovSpec:
    """Per-eye field of view plus reprojection margins.

    ``extra_h``/``extra_v`` are the extra rendered degrees kept around the
    visible field so a late pose update can be warped in without exposing
    unrendered area.
    """

    horizontal: Angle
    vertical: Angle
    extra_h: Angle = Angle(0.0)
    extra_v: Angle = Angle(0.0)

    def __post_init__(self) -> None:
        # Coerce bare numbers so FovSpec(155, 130) works.
        for name in ("horizontal", "vertical", "extra_h", "extra_v"):
            value = getattr(self, name)
            if not isinstance(value, Angle):
                object.__setattr__(self, name, Angle(float(value)))
        if self.vertical.degrees > 180:
            raise DomainError(f"vertical fov cannot exceed 180 degrees, got {self.vertical.degrees}")


def ppi(res: Resolution, size: PhysicalSize) -> float:
    """Pixels per inch along the diagonal.

    Equals the per-axis ratios width/width_in and height/height_in whenever
    the pixel and physical aspect ratios agree.
    """
    return res.diagonal / size.diagonal


def ppi_from_diagonal(res: Resolution, diagonal_in: float) -> float:
    """Pixels per inch when only the diagonal length is known."""
    if diagonal_in <= 0:
        raise DomainError(f"diagonal must be positive, got {diagonal_in}")
    return res.diagonal / diagonal_in


def fov_from_physical(extent_in: float, distance_in: float) -> Angle:
    """Field of view subtended by a screen extent viewed from a distance.

    The eye sits on the perpendicular bisector of the extent, so the half
    angle is atan(extent/2 / distance); the result is always below 180 degrees.
    """
    if extent_in <= 0:
        raise DomainError(f"extent must be positive, got {extent_in}")
    if distance_in <= 0:
        raise DomainError(f"distance must be positive, got {distance_in}")
    return Angle(2.0 * math.degrees(math.atan(0.5 * extent_in / distance_in)))


def ppd_from_fov(pixels: int, fov: Angle | float) -> float:
    """Pixels per degree across a field of view."""
    fov_deg = _deg(fov)
    if fov_deg <= 0:
        raise DomainError(f"fov must be positive, got {fov_deg}")
    if pixels < 0:
        raise DomainError(f"pixel count cannot be negative, got {pixels}")
    return pixels / fov_deg


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
    vp_deg = _deg(viewport_fov)
    if vp_deg <= 0:
        raise DomainError(f"viewport fov must be positive, got {vp_deg}")
    if viewport_px < 0:
        raise DomainError(f"pixel count cannot be negative, got {viewport_px}")
    return round(viewport_px * _deg(target_fov) / vp_deg)


def ppd_from_cone_density(peak_density: float, lens_to_fovea: float) -> float:
    """Angular resolution of the eye implied by its foveal cone density.

    Cones at ``peak_density`` per square millimetre sit 1/sqrt(density) mm
    apart; one cone pitch viewed from the lens at ``lens_to_fovea`` mm spans
    2*atan(pitch/2 / distance) degrees, and the reciprocal of that span is the
    eye's pixels-per-degree equivalent.
    """
    if peak_density <= 0:
        raise DomainError(f"cone density must be positive, got {peak_density}")
    if lens_to_fovea <= 0:
        raise DomainError(f"lens distance must be positive, got {lens_to_fovea}")
    pitch_mm = 1.0 / math.sqrt(peak_density)
    angular_pitch = 2.0 * math.degrees(math.atan(0.5 * pitch_mm / lens_to_fovea))
    return 1.0 / angular_pitch


def per_eye_fov_from_binocular(binocular: float, overlap: float) -> float:
    """Per-eye horizontal fov from a binocular fov and its stereo overlap.

    Documentation helper: each eye sees the shared ``overlap`` plus half of
    the remaining span, i.e. binocular - (binocular - overlap)/2. A headset
    quoting 104 degrees across both eyes with a 90-degree overlap therefore
    has 97 degrees per eye.
    """
    if overlap > binocular:
        raise DomainError("overlap cannot exceed the binocular fov")
    return binocular - (binocular - overlap) / 2.0
