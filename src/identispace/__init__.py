"""Printable wireframe models of the three square identification spaces,
with STL output, watertightness validation and integer simplicial homology."""

from .geom import (
    SurfaceKind,
    SurfaceParams,
    Vec3,
    half_lemniscate,
    klein_point,
    roman_point,
    steiner_map,
    surface_point,
    torus_point,
)
from .mesh_io import MeshReport, StlError, TriangleMesh, read_stl, validate, write_stl
from .topology import (
    AbelianGroup,
    ChainComplex,
    SNFResult,
    SpaceName,
    boundary_matrix,
    builtin_complex,
    format_group,
    homology,
    smith_normal_form,
    verify_exact,
)
from .wireframe import (
    WireframeSpec,
    build_wireframe,
    plan_segments,
)

__version__ = "0.1.0"
