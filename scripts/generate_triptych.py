#!/usr/bin/env python3
"""Generate the full triptych: torus, Klein bottle and Roman surface STLs.

Runs ``identispace generate`` once per surface, writing one binary STL each
and printing its validation report.  Default parameters produce ~300 MB
files; pass --draft for quick small models.  Exits with the worst exit code
of the three runs.
"""

import argparse
import contextlib
import io
import os
import time

from identispace import cli
from identispace.geom import SurfaceKind

DRAFT_FLAGS = ["--lat-ribs", "8", "--long-ribs", "16", "--outer-density", "2",
               "--inner-density", "2", "--resolution", "8"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default=".", help="directory for the STL files")
    parser.add_argument(
        "--draft",
        action="store_true",
        help="small fast models (coarser grid, densities and tessellation)",
    )
    args = parser.parse_args()
    os.makedirs(args.output_dir, exist_ok=True)

    status = 0
    for kind in SurfaceKind:
        start = time.perf_counter()
        path = os.path.join(args.output_dir, f"{kind.value}.stl")
        argv = ["generate", "--surface", kind.value, "--output", path]
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            status = max(status, cli.main(argv + DRAFT_FLAGS if args.draft else argv))
        print(f"== {kind.value} -> {path} [{time.perf_counter() - start:.1f}s]")
        for line in report.getvalue().splitlines():
            print(f"   {line}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
