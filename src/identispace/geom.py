"""Surface parametrizations and the small vector algebra they need.

Angles are degrees throughout.  Trigonometry goes through :func:`cosd` /
:func:`sind`, which reduce the argument modulo 360 before converting to
radians and return exact values at multiples of 90 degrees.  Both choices
matter beyond accuracy: grid evaluations separated by a full period come out
bit-identical, so downstream welding and closure checks see exact
coincidence instead of last-ulp noise.

Every point function takes scalar or numpy-array parameters (i, j); arrays
broadcast and give a :class:`Vec3` of arrays.  Scalars and grids share one
numpy path, so a grid evaluation equals pointwise evaluation bit for bit.
The pinned STL bytes rest on numpy's float64 ``cos``/``sin`` matching the C
library's ``cos``/``sin`` bit for bit; a test checks that against a scalar
``math`` oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "Vec3",
    "SurfaceKind",
    "SurfaceParams",
    "cosd",
    "sind",
    "torus_point",
    "half_lemniscate",
    "klein_point",
    "steiner_map",
    "roman_sphere_point",
    "roman_point",
    "surface_point",
]


def _mod_360(a: float | np.ndarray) -> np.ndarray:
    """``a`` reduced into [0, 360]: ``fmod``, plus 360 for a negative rest
    (so -1e-20 gives 360.0).  Raises for a non-finite angle."""
    a = np.asarray(a, dtype=np.float64)
    finite = np.isfinite(a)
    if not finite.all():
        raise ValueError(f"angle must be finite, got {a[~finite].flat[0]} degrees")
    return np.mod(a, 360.0)


def cosd(a: float | np.ndarray) -> float | np.ndarray:
    """Cosine of an angle in degrees, exact at multiples of 90."""
    r = _mod_360(a)
    exact = [r == 0.0, (r == 90.0) | (r == 270.0), r == 180.0]
    return np.select(exact, [1.0, 0.0, -1.0], np.cos(np.radians(r)))[()]


def sind(a: float | np.ndarray) -> float | np.ndarray:
    """Sine of an angle in degrees, exact at multiples of 90."""
    r = _mod_360(a)
    exact = [(r == 0.0) | (r == 180.0), r == 90.0, r == 270.0]
    return np.select(exact, [0.0, 1.0, -1.0], np.sin(np.radians(r)))[()]


class Vec3(NamedTuple):
    """Point or vector in R^3, coordinates in millimeters.

    Coordinates may also be numpy arrays, making the Vec3 a grid of points.
    """

    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":  # type: ignore[override]
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def scaled(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)


class SurfaceKind(Enum):
    TORUS = "torus"
    KLEIN = "klein"
    ROMAN = "roman"


@dataclass(frozen=True)
class SurfaceParams:
    """Shared parameter block for the three surfaces.

    ``outer_radius``/``inner_radius`` are in millimeters.  ``lat_ribs`` and
    ``long_ribs`` count grid lines in the two parameter directions.
    ``amplitude`` and ``phase_offset`` only affect the Klein bottle: they
    control the oscillation that pulls the two halves of each transversal
    figure-8 fiber apart so the fibers interweave instead of self-intersect.
    """

    kind: SurfaceKind
    outer_radius: float = 30.0
    inner_radius: float = 10.0
    lat_ribs: int = 18
    long_ribs: int = 36
    amplitude: float = 0.25
    phase_offset: float = 90.0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, SurfaceKind):
            raise ValueError(f"kind must be a SurfaceKind, got {self.kind!r}")
        for name in ("outer_radius", "inner_radius", "amplitude", "phase_offset"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lat_ribs < 3:
            raise ValueError(f"lat_ribs must be >= 3, got {self.lat_ribs}")
        if self.long_ribs < 3:
            raise ValueError(f"long_ribs must be >= 3, got {self.long_ribs}")
        if self.outer_radius <= 0:
            raise ValueError(f"outer_radius must be > 0, got {self.outer_radius}")
        if self.kind in (SurfaceKind.TORUS, SurfaceKind.KLEIN):
            if not self.outer_radius > self.inner_radius > 0:
                raise ValueError(
                    "outer_radius > inner_radius > 0 required, got "
                    f"outer_radius={self.outer_radius} inner_radius={self.inner_radius}"
                )
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")


def torus_point(i: float, j: float, p: SurfaceParams) -> Vec3:
    """Torus: circle of radius inner_radius swept around the z axis."""
    if p.kind is not SurfaceKind.TORUS:
        raise ValueError("torus_point requires params of kind TORUS")
    u = i * 360.0 / p.lat_ribs
    v = j * 360.0 / p.long_ribs
    profile = Vec3(p.inner_radius * cosd(u) + p.outer_radius, 0.0, p.inner_radius * sind(u))
    return _rot_z(profile, v)


def half_lemniscate(alpha: float, ampl: float, phase: float = 90.0) -> Vec3:
    """One half of a Gerono figure-8, with an out-of-plane cosine wobble.

    ``alpha`` in [0, 1] walks the half curve; ``ampl`` scales the wobble
    (0 gives the flat lemniscate exactly).
    """
    beta = 90.0 + 180.0 * alpha
    c = cosd(beta)
    return Vec3(c, sind(beta) * c, ampl * cosd(phase + beta))


def _rot_z(v: Vec3, angle: float) -> Vec3:
    c, s = cosd(angle), sind(angle)
    return Vec3(v.x * c - v.y * s, v.x * s + v.y * c, v.z)


def klein_point(i: float, j: float, p: SurfaceParams) -> Vec3:
    """Figure-8 Klein bottle: half-lemniscate fibers swept along a Mobius path.

    The fiber is spun half a turn (a_i/2) while its anchor circles a full turn
    (a_i), so the pattern closes after i has advanced by 2*lat_ribs.
    """
    if p.kind is not SurfaceKind.KLEIN:
        raise ValueError("klein_point requires params of kind KLEIN")
    a_i = 360.0 * i / p.lat_ribs
    a_j = 360.0 * j / p.long_ribs
    fiber = half_lemniscate(a_j / 360.0, p.amplitude, p.phase_offset)
    pt = Vec3(p.outer_radius, 0.0, 0.0) + _rot_z(fiber.scaled(p.inner_radius), a_i / 2.0)
    pt = Vec3(pt.x, -pt.z, pt.y)  # quarter turn about the x axis
    return _rot_z(pt, a_i)


def steiner_map(v: Vec3) -> Vec3:
    """Quadratic map (x,y,z) -> (yz, xz, xy) sending a sphere to the Roman surface."""
    return Vec3(v.y * v.z, v.x * v.z, v.x * v.y)


def roman_sphere_point(i: float, j: float, p: SurfaceParams) -> Vec3:
    u = i * 360.0 / p.lat_ribs
    v = j * 180.0 / p.long_ribs
    cu = cosd(u)
    return Vec3(
        p.outer_radius * cu * cosd(v),
        p.outer_radius * cu * sind(v),
        p.outer_radius * sind(u),
    )


def roman_point(i: float, j: float, p: SurfaceParams) -> Vec3:
    """Roman (Steiner) surface: sphere point pushed through the quadratic map."""
    if p.kind is not SurfaceKind.ROMAN:
        raise ValueError("roman_point requires params of kind ROMAN")
    return steiner_map(roman_sphere_point(i, j, p))


def surface_point(i: float, j: float, p: SurfaceParams) -> Vec3:
    """Evaluate whichever surface ``p`` selects; i and j may be fractional,
    or numpy arrays that broadcast against each other."""
    if p.kind is SurfaceKind.TORUS:
        return torus_point(i, j, p)
    if p.kind is SurfaceKind.KLEIN:
        return klein_point(i, j, p)
    return roman_point(i, j, p)
