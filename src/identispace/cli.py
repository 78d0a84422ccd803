"""Command-line front end: generate, validate, homology, sample.

Option values resolve in three layers: built-in defaults, then a config file
(flat ``key = value`` lines using the flag names, ``#`` comments), then
explicit command-line flags.  The config path comes from ``--config`` or the
``IDENTISPACE_CONFIG`` environment variable.  The built-in defaults of the
geometry options are the ``SurfaceParams`` and ``WireframeSpec`` defaults, and a
new option is one ``_OPTIONS`` entry.

Exit codes: 0 success, 1 validation failed (output still written), 2 invalid
arguments, unreadable input or out of memory.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
from dataclasses import fields

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
# settings type a config-file value.  ``config`` is a flag only.  ``dest`` names
# the SurfaceParams or WireframeSpec field an option sets where the names differ.
_OPTIONS: dict[str, dict] = {
    "surface": {"choices": [k.value for k in SurfaceKind], "dest": "kind"},
    "outer-radius": {"type": float, "metavar": "MM"},
    "inner-radius": {"type": float, "metavar": "MM"},
    "lat-ribs": {"type": int, "metavar": "N"},
    "long-ribs": {"type": int, "metavar": "N"},
    "amplitude": {"type": float, "metavar": "A"},
    "config": {"metavar": "PATH"},
    "outer-density": {"type": int, "metavar": "N"},
    "inner-density": {"type": int, "metavar": "N"},
    "thickness": {"type": float, "metavar": "MM"},
    "resolution": {"type": int, "metavar": "N", "dest": "capsule_resolution"},
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


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


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


def _config_path(args: argparse.Namespace) -> str | None:
    """``--config`` if given (even empty), else a non-empty ``IDENTISPACE_CONFIG``, else None."""
    if args.config is not None:
        return args.config
    return os.environ.get(CONFIG_ENV_VAR) or None


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill the options left unset (``None``) from the config file, if any."""
    path = _config_path(args)
    if path is not None:
        given = vars(args)
        for key, value in load_config_file(path).items():
            dest = _OPTIONS[key].get("dest", key.replace("-", "_"))
            if dest in given and given[dest] is None:  # other subcommands' keys are ignored
                given[dest] = value
    return args


def _from_args(cls, args: argparse.Namespace, **fixed):
    """``cls`` from ``fixed`` and the options set in ``args``; the rest keep their defaults."""
    given = vars(args)
    options = {f.name: given[f.name] for f in fields(cls) if given.get(f.name) is not None}
    try:
        return cls(**(options | fixed))
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def surface_params(args: argparse.Namespace) -> SurfaceParams:
    return _from_args(SurfaceParams, args, kind=SurfaceKind(args.kind or SurfaceKind.TORUS))


def wireframe_spec(args: argparse.Namespace) -> WireframeSpec:
    return _from_args(WireframeSpec, args, surface=surface_params(args))


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
    spec = wireframe_spec(resolve_config(args))
    res = spec.capsule_resolution
    # a sphere strut has the fewest triangles, so this bounds the count from
    # below before the plan is built
    planned = segment_count(spec)
    if planned * sphere_counts(res)[1] >= STL_TRIANGLE_LIMIT:
        raise CliError(
            f"{planned * sphere_counts(res)[1]} to {planned * capsule_counts(res)[1]}"
            " triangles exceed the 32-bit STL limit"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        segments = plan_segments(spec)
    if not (np.isfinite(segments.a).all() and np.isfinite(segments.b).all()):
        raise CliError(f"the {spec.surface.kind.value} surface is not finite on this grid")
    reach = max(np.abs(segments.a).max(), np.abs(segments.b).max()) + spec.thickness
    if reach > np.finfo(np.float32).max:  # capsule vertices lie within thickness of an end
        raise CliError("the model reaches past the float32 range of STL coordinates")
    spheres = count_degenerate_segments(segments)
    triangles = (len(segments) - spheres) * capsule_counts(res)[1] + spheres * sphere_counts(res)[1]
    if triangles >= STL_TRIANGLE_LIMIT:
        raise CliError(f"{triangles} triangles exceed the 32-bit STL limit")
    out_path = f"{spec.surface.kind.value}.stl" if args.output is None else args.output
    try:
        with _open_output(out_path) as fh:  # opened first: an unwritable path fails fast
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            try:
                # a full disk or quota fails here, not as SIGBUS on a mapped page
                if regular and not args.ascii:
                    os.posix_fallocate(fh.fileno(), 0, 84 + 50 * triangles)
                mesh = tessellate_segments(segments, res)
                report = validate(mesh)
                size = len(write_stl(mesh, "ascii" if args.ascii else "binary", out=fh))
            except BaseException:  # no half-written file is left behind, whatever stopped it
                if regular:
                    os.remove(out_path)
                raise
    except OSError as exc:
        raise CliError(f"cannot write {out_path}: {exc}") from exc
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    for line in report.summary_lines():
        print(line)
    print(f"sphere_degenerate_capsules: {spheres}")
    print(f"file: {out_path} ({size} bytes)")
    if not report.all_watertight:
        print("warning: mesh is not watertight; file written anyway", file=sys.stderr)
        return 1
    return 0


def _open_output(path: str):
    """``path`` opened for writing: read-write, so that it can be mapped, unless it is special.

    A pipe or a device that exists already is opened write-only, as a reader
    of a FIFO expects, and so is a file that may be written but not read.
    Neither can be mapped, so both are written whole.
    """
    try:
        special = not stat.S_ISREG(os.stat(path).st_mode)
    except OSError:  # no file yet, or a path that open rejects as well
        special = False
    if not special:
        try:
            return open(path, "w+b")
        except PermissionError:
            pass
    return open(path, "wb")


def cmd_validate(args: argparse.Namespace) -> int:
    import mmap

    try:
        with open(args.path, "rb") as fh:
            try:
                data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except (OSError, ValueError):  # empty, a pipe or a device: read it whole
                data = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {args.path}: {exc}") from exc
    try:
        mesh = read_stl(data)
    except StlError as exc:
        raise CliError(str(exc)) from exc
    del data  # the welded mesh holds no reference to the file bytes or their mapping
    report = validate(mesh)
    for line in report.summary_lines():
        print(line)
    return 0 if report.all_watertight else 1


def cmd_homology(args: argparse.Namespace) -> int:
    dim_flag = args.dim is not None
    resolve_config(args)
    space = SpaceName(args.space or SpaceName.SPHERE)
    complex_ = builtin_complex(space)
    if args.dim is not None and not 0 <= args.dim <= complex_.dimension:
        source = "--dim" if dim_flag else f"{_config_path(args)}: dim"
        raise CliError(f"{source} {args.dim} outside 0..{complex_.dimension} for {space.value}")
    degrees = [args.dim] if args.dim is not None else range(complex_.dimension + 1)
    for k in degrees:
        print(f"H_{k}({space.value}) = {format_group(homology(complex_, k))}")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    resolve_config(args)
    if not (math.isfinite(args.i) and math.isfinite(args.j)):
        raise CliError(f"i and j must be finite, got {args.i} {args.j}")
    params = surface_params(args)
    try:
        pt = surface_point(args.i, args.j, params)
    except ValueError:  # the angle i * 360 / lat_ribs overflowed
        pt = None
    if pt is None or not all(math.isfinite(c) for c in pt):
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
