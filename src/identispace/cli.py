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
from dataclasses import dataclass, fields

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

# Every option, declared once: its argparse settings type a flag and the same
# settings type a config-file value.  ``config`` is a flag only.
_OPTIONS: dict[str, dict] = {
    "surface": {"choices": [k.value for k in SurfaceKind]},
    "outer-radius": {"type": float, "metavar": "MM"},
    "inner-radius": {"type": float, "metavar": "MM"},
    "lat-ribs": {"type": int, "metavar": "N"},
    "long-ribs": {"type": int, "metavar": "N"},
    "amplitude": {"type": float, "metavar": "A"},
    "config": {"metavar": "PATH"},
    "outer-density": {"type": int, "metavar": "N"},
    "inner-density": {"type": int, "metavar": "N"},
    "thickness": {"type": float, "metavar": "MM"},
    "resolution": {"type": int, "metavar": "N"},
    "legacy-overshoot": {"action": "store_true"},
    "output": {"metavar": "PATH"},
    "ascii": {"action": "store_true"},
    "space": {"choices": [s.value for s in SpaceName]},
    "dim": {"type": int, "metavar": "K"},
}
_SURFACE_FLAGS = ("surface", "outer-radius", "inner-radius", "lat-ribs", "long-ribs",
                  "amplitude", "config")
_GENERATE_FLAGS = (*_SURFACE_FLAGS, "outer-density", "inner-density", "thickness",
                   "resolution", "legacy-overshoot", "output", "ascii")
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}

_DEFAULT_SPEC = WireframeSpec(SurfaceParams(SurfaceKind.TORUS))


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


@dataclass
class RunConfig:
    """Fully resolved option set for one invocation."""

    surface: str = _DEFAULT_SPEC.surface.kind.value
    outer_radius: float = _DEFAULT_SPEC.surface.outer_radius
    inner_radius: float = _DEFAULT_SPEC.surface.inner_radius
    lat_ribs: int = _DEFAULT_SPEC.surface.lat_ribs
    long_ribs: int = _DEFAULT_SPEC.surface.long_ribs
    outer_density: int = _DEFAULT_SPEC.outer_density
    inner_density: int = _DEFAULT_SPEC.inner_density
    thickness: float = _DEFAULT_SPEC.thickness
    amplitude: float = _DEFAULT_SPEC.surface.amplitude
    resolution: int = _DEFAULT_SPEC.capsule_resolution
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
    option = _OPTIONS[key]
    if option.get("action") == "store_true":
        if raw.lower() not in _BOOLEANS:
            raise ValueError(f"not a boolean: {raw!r}")
        return _BOOLEANS[raw.lower()]
    choices = option.get("choices")
    if choices and raw not in choices:
        raise ValueError(f"{raw!r} is not one of {', '.join(choices)}")
    return option.get("type", str)(raw)


def load_config_file(path: str) -> dict[str, object]:
    """Parse ``key = value`` lines; unknown keys are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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
        if key not in _OPTIONS or key == "config":
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
    for field in fields(RunConfig):
        given = getattr(args, field.name, None)
        if given is not None:
            setattr(cfg, field.name, given)
    return cfg


def _add_flags(p: argparse.ArgumentParser, keys: tuple[str, ...]) -> None:
    for key in keys:
        p.add_argument(f"--{key}", default=None, **_OPTIONS[key])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="identispace",
        description="Printable wireframe surfaces and their homology",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a wireframe model and write an STL file")
    _add_flags(g, _GENERATE_FLAGS)
    g.set_defaults(func=cmd_generate)

    v = sub.add_parser("validate", help="check an STL file for watertightness")
    v.add_argument("path")
    v.set_defaults(func=cmd_validate)

    h = sub.add_parser("homology", help="print homology groups of a built-in space")
    _add_flags(h, ("space", "dim", "config"))
    h.set_defaults(func=cmd_homology)

    s = sub.add_parser("sample", help="evaluate a surface parametrization at (i, j)")
    _add_flags(s, _SURFACE_FLAGS)
    s.add_argument("i", type=float)
    s.add_argument("j", type=float)
    s.set_defaults(func=cmd_sample)

    return parser


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    try:
        spec = cfg.wireframe_spec()
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    legacy = bool(cfg.legacy_overshoot)
    res = spec.capsule_resolution
    # a sphere strut has the fewest triangles, so this bounds the count from
    # below before the plan is built
    planned = segment_count(spec, legacy)
    if planned * sphere_counts(res)[1] >= STL_TRIANGLE_LIMIT:
        raise CliError(
            f"{planned * sphere_counts(res)[1]} to {planned * capsule_counts(res)[1]}"
            " triangles exceed the 32-bit STL limit"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        segments = plan_segments(spec, legacy)
    if not (np.isfinite(segments.a).all() and np.isfinite(segments.b).all()):
        raise CliError(f"the {cfg.surface} surface is not finite on this grid")
    reach = max(np.abs(segments.a).max(), np.abs(segments.b).max()) + spec.thickness
    if reach > np.finfo(np.float32).max:  # capsule vertices lie within thickness of an end
        raise CliError("the model reaches past the float32 range of STL coordinates")
    spheres = count_degenerate_segments(segments)
    triangles = (len(segments) - spheres) * capsule_counts(res)[1] + spheres * sphere_counts(res)[1]
    if triangles >= STL_TRIANGLE_LIMIT:
        raise CliError(f"{triangles} triangles exceed the 32-bit STL limit")
    out_path = cfg.output or f"{cfg.surface}.stl"
    try:
        with open(out_path, "wb") as fh:  # opened first: an unwritable path fails fast
            mesh = tessellate_segments(segments, res)
            report = validate(mesh)
            data = write_stl(mesh, "ascii" if cfg.ascii else "binary")
            fh.write(data)
    except OSError as exc:
        raise CliError(f"cannot write {out_path}: {exc}") from exc
    except ValueError as exc:  # write_stl found a vertex past the float32 range
        os.remove(out_path)
        raise CliError(str(exc)) from exc
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
        raise CliError(f"cannot read {args.path}: {exc}") from exc
    try:
        mesh = read_stl(data)
    except StlError as exc:
        raise CliError(str(exc)) from exc
    del data  # the welded mesh holds no reference to the file bytes
    report = validate(mesh)
    for line in report.summary_lines():
        print(line)
    return 0 if report.all_watertight else 1


def cmd_homology(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    space = SpaceName(cfg.space)
    complex_ = builtin_complex(space)
    if cfg.dim is not None and not 0 <= cfg.dim <= complex_.dimension:
        raise CliError(f"--dim {cfg.dim} outside 0..{complex_.dimension} for {space.value}")
    degrees = [cfg.dim] if cfg.dim is not None else range(complex_.dimension + 1)
    for k in degrees:
        print(f"H_{k}({space.value}) = {format_group(homology(complex_, k))}")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    if not (math.isfinite(args.i) and math.isfinite(args.j)):
        raise CliError(f"i and j must be finite, got {args.i} {args.j}")
    try:
        pt = surface_point(args.i, args.j, cfg.surface_params())
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if not all(math.isfinite(c) for c in pt):
        raise CliError(f"point at ({args.i}, {args.j}) is not finite")
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
