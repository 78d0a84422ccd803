"""Run one identispace CLI command with a span around each layer call it makes.

Usage, from the root of a checkout with ``src`` on ``PYTHONPATH``:

    python3 perfbench/traced_cli.py SPANS.json generate --surface torus ...
    python3 perfbench/traced_cli.py SPANS.json validate model.stl

The names ``identispace.cli`` imported from ``wireframe`` and ``mesh_io`` are
replaced by traced wrappers before ``identispace.cli.main`` runs, so the
program itself carries no tracing.  The spans are written to SPANS.json when
the command ends and the process exits with the command's exit code.
"""

from __future__ import annotations

import sys

import numpy as np

from spans import Tracer

from identispace import cli


def _duplicate_capsules(segments) -> int:
    """Capsules whose (a, b) centre pair equals an earlier one's, coordinate by
    coordinate (IEEE ==, so -0.0 equals 0.0)."""
    if not segments:
        return 0
    ab = np.array([(*s.a, *s.b) for s in segments], dtype=np.float64) + 0.0  # -0.0 -> 0.0
    rows = ab.view(np.dtype((np.void, ab.itemsize * 6))).ravel()
    return len(rows) - len(np.unique(rows))


def _report_counts(report, *_args, **_kw) -> dict:
    return {
        "triangles": report.triangle_count,
        "components": report.component_count,
        "watertight": int(report.watertight_per_component.sum()),
        "edge_manifold": int(report.edge_manifold_per_component.sum()),
    }


def install(tracer: Tracer) -> None:
    """Replace the CLI's layer entry points with traced wrappers."""
    hooks = {
        "plan_segments": (
            "wireframe.plan_segments",
            lambda r, *a, **k: {"segments": len(r), "duplicates": _duplicate_capsules(r)},
        ),
        "count_degenerate_segments": (
            "wireframe.count_degenerate_segments",
            lambda r, *a, **k: {"spheres": int(r)},
        ),
        "tessellate_segments": (
            "wireframe.tessellate_segments",
            lambda r, *a, **k: {"triangles": r.triangle_count},
        ),
        "validate": ("mesh_io.validate", _report_counts),
        "write_stl": ("mesh_io.write_stl", lambda r, *a, **k: {"bytes": len(r)}),
        "read_stl": (
            "mesh_io.read_stl",
            lambda r, data, *a, **k: {
                "bytes": len(data),
                "triangles": r.triangle_count,
                "vertices": len(r.vertices),
            },
        ),
    }
    for attr, (name, after) in hooks.items():
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr), after))


def main(argv: list[str]) -> int:
    spans_path, command = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = tracer.wrap(f"cli.{command[0]}", cli.main)(command)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
