"""Command-line front end: generate, validate, homology, sample.

Option values resolve in three layers: built-in defaults, then a config file
(flat ``key = value`` lines using the flag names, ``#`` comments), then
explicit command-line flags.  The config path comes from ``--config`` or the
``IDENTISPACE_CONFIG`` environment variable.

Exit codes: 0 success, 1 validation failed (output still written), 2 invalid
arguments or unreadable input.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .geom import SurfaceKind, SurfaceParams, surface_point
from .mesh_io import STL_TRIANGLE_LIMIT, StlError, read_stl, validate, write_stl
from .topology import SpaceName, builtin_complex, format_group, homology
from .wireframe import (
    WireframeSpec,
    capsule_counts,
    count_degenerate_segments,
    plan_segments,
    segment_count,
    sphere_counts,
    tessellate_segments,
)

CONFIG_ENV_VAR = "IDENTISPACE_CONFIG"

_INT_KEYS = {"lat-ribs", "long-ribs", "outer-density", "inner-density", "resolution", "dim"}
_FLOAT_KEYS = {"outer-radius", "inner-radius", "thickness", "amplitude"}
_BOOL_KEYS = {"ascii", "legacy-overshoot"}
_STR_KEYS = {"surface", "space", "output"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | _STR_KEYS
_CHOICES = {
    "surface": [k.value for k in SurfaceKind],
    "space": [s.value for s in SpaceName],
}


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


@dataclass
class RunConfig:
    """Fully resolved option set for one invocation."""

    surface: str = "torus"
    outer_radius: float = 30.0
    inner_radius: float = 10.0
    lat_ribs: int = 18
    long_ribs: int = 36
    outer_density: int = 8
    inner_density: int = 8
    thickness: float = 1.2
    amplitude: float = 0.25
    resolution: int = 12
    output: str | None = None
    ascii: bool = False
    legacy_overshoot: bool = False
    space: str = "sphere"
    dim: int | None = None

    def surface_params(self) -> SurfaceParams:
        return SurfaceParams(
            kind=SurfaceKind(self.surface),
            outer_radius=self.outer_radius,
            inner_radius=self.inner_radius,
            lat_ribs=self.lat_ribs,
            long_ribs=self.long_ribs,
            amplitude=self.amplitude,
        )

    def wireframe_spec(self) -> WireframeSpec:
        return WireframeSpec(
            surface=self.surface_params(),
            outer_density=self.outer_density,
            inner_density=self.inner_density,
            thickness=self.thickness,
            capsule_resolution=self.resolution,
        )


def _parse_config_value(key: str, raw: str):
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    if key in _BOOL_KEYS:
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if key in _CHOICES and raw not in _CHOICES[key]:
        raise ValueError(f"{raw!r} is not one of {', '.join(_CHOICES[key])}")
    return raw


def load_config_file(path: str) -> dict[str, object]:
    """Parse ``key = value`` lines; unknown keys are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, object] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _parse_config_value(key, value)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overlaid by config file, overlaid by explicit flags."""
    cfg = RunConfig()
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    if path:
        for key, value in load_config_file(path).items():
            setattr(cfg, key.replace("-", "_"), value)
    for key in _ALL_KEYS:
        attr = key.replace("-", "_")
        given = getattr(args, attr, None)
        if given is not None:
            setattr(cfg, attr, given)
    return cfg


def _add_surface_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--surface", choices=_CHOICES["surface"], default=None)
    p.add_argument("--outer-radius", type=float, default=None, metavar="MM")
    p.add_argument("--inner-radius", type=float, default=None, metavar="MM")
    p.add_argument("--lat-ribs", type=int, default=None, metavar="N")
    p.add_argument("--long-ribs", type=int, default=None, metavar="N")
    p.add_argument("--amplitude", type=float, default=None, metavar="A")
    p.add_argument("--config", default=None, metavar="PATH")


def _add_wire_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--outer-density", type=int, default=None, metavar="N")
    p.add_argument("--inner-density", type=int, default=None, metavar="N")
    p.add_argument("--thickness", type=float, default=None, metavar="MM")
    p.add_argument("--resolution", type=int, default=None, metavar="N")
    p.add_argument("--legacy-overshoot", action="store_true", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="identispace",
        description="Printable wireframe surfaces and their homology",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a wireframe model and write an STL file")
    _add_surface_flags(g)
    _add_wire_flags(g)
    g.add_argument("--output", default=None, metavar="PATH")
    g.add_argument("--ascii", action="store_true", default=None)
    g.set_defaults(func=cmd_generate)

    v = sub.add_parser("validate", help="check an STL file for watertightness")
    v.add_argument("path")
    v.set_defaults(func=cmd_validate)

    h = sub.add_parser("homology", help="print homology groups of a built-in space")
    h.add_argument("--space", choices=_CHOICES["space"], default=None)
    h.add_argument("--dim", type=int, default=None, metavar="K")
    h.add_argument("--config", default=None, metavar="PATH")
    h.set_defaults(func=cmd_homology)

    s = sub.add_parser("sample", help="evaluate a surface parametrization at (i, j)")
    _add_surface_flags(s)
    s.add_argument("i", type=float)
    s.add_argument("j", type=float)
    s.set_defaults(func=cmd_sample)

    return parser


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    try:
        spec = cfg.wireframe_spec()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    legacy = bool(cfg.legacy_overshoot)
    res = spec.capsule_resolution
    # a sphere strut has the fewest triangles, so this bounds the count from
    # below before the plan is built
    planned = segment_count(spec, legacy)
    if planned * sphere_counts(res)[1] >= STL_TRIANGLE_LIMIT:
        print(
            f"error: {planned * sphere_counts(res)[1]} to {planned * capsule_counts(res)[1]}"
            " triangles exceed the 32-bit STL limit",
            file=sys.stderr,
        )
        return 2
    segments = plan_segments(spec, legacy)
    if not (np.isfinite(segments.a).all() and np.isfinite(segments.b).all()):
        print(f"error: the {cfg.surface} surface is not finite on this grid", file=sys.stderr)
        return 2
    spheres = count_degenerate_segments(segments)
    triangles = (len(segments) - spheres) * capsule_counts(res)[1] + spheres * sphere_counts(res)[1]
    if triangles >= STL_TRIANGLE_LIMIT:
        print(f"error: {triangles} triangles exceed the 32-bit STL limit", file=sys.stderr)
        return 2
    out_path = cfg.output or f"{cfg.surface}.stl"
    try:
        with open(out_path, "wb") as fh:  # opened first: an unwritable path fails fast
            mesh = tessellate_segments(segments, res)
            report = validate(mesh)
            data = write_stl(mesh, "ascii" if cfg.ascii else "binary")
            fh.write(data)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    print(f"sphere_degenerate_capsules: {spheres}")
    print(f"file: {out_path} ({len(data)} bytes)")
    if not report.all_watertight:
        print("warning: mesh is not watertight; file written anyway", file=sys.stderr)
        return 1
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        with open(args.path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    try:
        mesh = read_stl(data)
    except StlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = validate(mesh)
    for line in report.summary_lines():
        print(line)
    return 0 if report.all_watertight else 1


def cmd_homology(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    space = SpaceName(cfg.space)
    complex_ = builtin_complex(space)
    if cfg.dim is not None and not 0 <= cfg.dim <= complex_.dimension:
        print(
            f"error: --dim {cfg.dim} outside 0..{complex_.dimension} for {space.value}",
            file=sys.stderr,
        )
        return 2
    degrees = [cfg.dim] if cfg.dim is not None else range(complex_.dimension + 1)
    for k in degrees:
        print(f"H_{k}({space.value}) = {format_group(homology(complex_, k))}")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    if not (math.isfinite(args.i) and math.isfinite(args.j)):
        print(f"error: i and j must be finite, got {args.i} {args.j}", file=sys.stderr)
        return 2
    try:
        pt = surface_point(args.i, args.j, cfg.surface_params())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not all(math.isfinite(c) for c in pt):
        print(f"error: point at ({args.i}, {args.j}) is not finite", file=sys.stderr)
        return 2
    print("%g %g %g" % (pt.x, pt.y, pt.z))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
