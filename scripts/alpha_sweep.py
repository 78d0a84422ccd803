#!/usr/bin/env python3
"""Measure how the transversal-fiber oscillation amplitude spaces the wires.

Each transversal fiber of the figure-8 Klein bottle is half of a closed
figure-8 curve; its two ends meet the companion fiber at two junctions.  With
amplitude 0 both junctions collapse to one point (the figure-8 node), so four
wire ends pile onto a single crossing.  The oscillation pulls the junctions
apart by 2 * amplitude * inner_radius, resolving the crossing.

Reported per amplitude: the junction separation, and the minimum distance
between interior samples of the paired fibers.
"""

import argparse
import math

import numpy as np

from identispace.geom import SurfaceKind, SurfaceParams, klein_point
from identispace.wireframe import WireframeSpec


def fiber(params: SurfaceParams, i: int, per_step: int) -> np.ndarray:
    """Samples (long_ribs*per_step+1, 3) of fiber i at j + k/per_step, then long_ribs."""
    steps = np.arange(params.long_ribs)[:, None] + np.arange(per_step) / per_step
    ts = np.append(steps.ravel(), params.long_ribs)
    return np.stack(np.broadcast_arrays(*klein_point(i, ts, params)), axis=-1)


def min_interior_distance(params: SurfaceParams, per_step: int, columns) -> float:
    best = np.inf
    for i in columns:
        a = fiber(params, i, per_step)[1:-1]
        b = fiber(params, i + params.lat_ribs, per_step)[1:-1]
        diff = a[:, None, :] - b[None, :, :]
        best = min(best, float(np.sqrt((diff * diff).sum(axis=2)).min()))
    return best


def junction_separation(params: SurfaceParams) -> float:
    start = klein_point(0, 0, params)
    end = klein_point(0, params.long_ribs, params)
    return math.dist(start, end)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--per-step", type=int, default=WireframeSpec.inner_density,
                        help="samples per grid step (matches inner density)")
    parser.add_argument("--thickness", type=float, default=WireframeSpec.thickness,
                        help="capsule radius used for the overlap note")
    args = parser.parse_args()

    columns = (0, 3, 5, 9, 13)
    print(f"{'amplitude':>9}  {'junction sep (mm)':>17}  {'min sample dist (mm)':>20}  note")
    for amplitude in (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5):
        params = SurfaceParams(SurfaceKind.KLEIN, amplitude=amplitude)
        sep = junction_separation(params)
        d = min_interior_distance(params, args.per_step, columns)
        note = "junction wires overlap" if sep < 2 * args.thickness else ""
        print(f"{amplitude:9.2f}  {sep:17.4f}  {d:20.4f}  {note}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
