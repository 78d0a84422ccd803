import importlib.util
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from identispace import cli
from identispace.cli import CONFIG_ENV_VAR, RunConfig, load_config_file, main, resolve_config
from identispace.geom import SurfaceKind, SurfaceParams
from identispace.mesh_io import TriangleMesh, write_stl
from identispace.wireframe import WireframeSpec, capsule_counts, sphere_counts

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

SMALL = [
    "--lat-ribs", "3", "--long-ribs", "3",
    "--outer-density", "1", "--inner-density", "1",
    "--resolution", "4",
]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def python_path(*dirs: Path) -> dict[str, str]:
    """The environment with ``dirs`` put in front of ``PYTHONPATH``."""
    paths = [str(d) for d in dirs] + [os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def open_tetra_stl() -> bytes:
    vertices = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], float)
    faces = np.array([(0, 2, 1), (0, 1, 3), (0, 3, 2)], np.int32)
    return write_stl(TriangleMesh(vertices, faces))


# --- generate ----------------------------------------------------------------


def test_generate_writes_file_with_size_law(tmp_path, capsys):
    out = tmp_path / "torus.stl"
    code, text, _ = run(["generate", "--surface", "torus", *SMALL, "--output", str(out)], capsys)
    assert code == 0
    data = out.read_bytes()
    n = struct.unpack_from("<I", data, 80)[0]
    assert len(data) == 84 + 50 * n
    assert f"triangles: {n}" in text
    assert "watertight: 56/56" in text


def test_generate_rejects_zero_thickness(tmp_path, capsys):
    code, _, err = run(
        ["generate", "--surface", "klein", "--thickness", "0",
         "--output", str(tmp_path / "x.stl")],
        capsys,
    )
    assert code == 2
    assert "thickness" in err


def test_generate_roman_reports_degenerate_capsules(tmp_path, capsys):
    # pinch circles land on grid columns when lat_ribs is divisible by 4
    out = tmp_path / "roman.stl"
    code, text, _ = run(
        ["generate", "--surface", "roman", "--lat-ribs", "4", "--long-ribs", "4",
         "--outer-density", "1", "--inner-density", "1", "--resolution", "4",
         "--output", str(out)],
        capsys,
    )
    assert code == 0
    fields = dict(l.split(": ", 1) for l in text.splitlines() if ": " in l)
    spheres = int(fields["sphere_degenerate_capsules"])
    assert spheres >= 1
    # every sphere and every remaining capsule shows up in the mesh
    segments = (2 * 4 + 1) * (4 + 1) * (1 + 1)
    assert int(fields["triangles"]) == (
        spheres * sphere_counts(4)[1] + (segments - spheres) * capsule_counts(4)[1]
    )


@pytest.mark.parametrize(
    "argv, config",
    [
        (["generate", "--thickness", "nan"], None),
        (["generate", "--surface", "klein", "--amplitude", "nan"], None),
        (["generate", "--surface", "torus"], "thickness = inf\n"),
        (["sample", "--outer-radius", "inf", "0", "0"], None),
        (["sample", "inf", "0"], None),
        # i is finite but its angle i * 360 / lat_ribs overflows
        (["sample", "--", "-1e308", "0"], None),
        (["sample", "nan", "0"], None),
    ],
)
def test_non_finite_values_rejected(tmp_path, capsys, argv, config):
    out = tmp_path / "x.stl"
    if argv[0] == "generate":
        argv = [*argv, "--output", str(out)]
    if config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    code, text, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error:") and "finite" in err
    assert text == ""
    assert not out.exists()


def test_generate_rejects_spec_past_stl_triangle_limit(tmp_path, capsys, monkeypatch):
    # 56 capsules of 4 * 20000 * 40000 = 3.2e9 triangles each; the check must
    # come before tessellation, which would otherwise allocate them
    def no_tessellation(*_args):
        raise AssertionError("tessellated a spec past the STL limit")

    monkeypatch.setattr(cli, "tessellate_segments", no_tessellation)
    out = tmp_path / "x.stl"
    small = [*SMALL[:-1], "40000"]
    code, text, err = run(["generate", *small, "--output", str(out)], capsys)
    assert code == 2
    assert err.startswith("error:") and "STL limit" in err
    assert str(56 * capsule_counts(40000)[1]) in err
    assert text == ""
    assert not out.exists()


def fail_if_called(name):
    def stage(*_args):
        raise AssertionError(f"{name} ran on a spec that must be rejected first")

    return stage


def test_generate_rejects_huge_grid_before_planning(tmp_path, capsys, monkeypatch):
    # about 3.2e11 segments: planning alone would need terabytes
    monkeypatch.setattr(cli, "plan_segments", fail_if_called("plan_segments"))
    out = tmp_path / "x.stl"
    argv = ["generate", "--lat-ribs", "100000", "--long-ribs", "100000", "--output", str(out)]
    code, text, err = run(argv, capsys)
    segments = 200001 * 100001 * 16
    assert code == 2
    assert err == (
        f"error: {segments * sphere_counts(12)[1]} to {segments * capsule_counts(12)[1]}"
        " triangles exceed the 32-bit STL limit\n"
    )
    assert text == ""
    assert not out.exists()


def test_generate_counts_spheres_before_the_exact_limit_check(tmp_path, capsys, monkeypatch):
    # 98 struts at resolution 4681: as spheres they would fit under 2^32
    # triangles, but these are all capsules, which do not
    monkeypatch.setattr(cli, "tessellate_segments", fail_if_called("tessellate_segments"))
    out = tmp_path / "x.stl"
    argv = ["generate", "--lat-ribs", "3", "--long-ribs", "6", "--outer-density", "1",
            "--inner-density", "1", "--resolution", "4681", "--output", str(out)]
    assert 98 * sphere_counts(4681)[1] < 2**32 <= 98 * capsule_counts(4681)[1]
    code, text, err = run(argv, capsys)
    assert code == 2
    assert err == f"error: {98 * capsule_counts(4681)[1]} triangles exceed the 32-bit STL limit\n"
    assert text == ""
    assert not out.exists()


def test_generate_unwritable_output_fails_before_building(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "tessellate_segments", fail_if_called("tessellate_segments"))
    out = tmp_path / "missing" / "x.stl"
    code, text, err = run(["generate", *SMALL, "--output", str(out)], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write {out}:")
    assert text == ""
    assert not out.exists()


def test_generate_non_finite_surface_rejected(tmp_path, capsys):
    out = tmp_path / "x.stl"
    argv = ["generate", "--surface", "roman", "--outer-radius", "1e200", *SMALL,
            "--output", str(out)]
    code, text, err = run(argv, capsys)
    assert code == 2
    assert err == "error: the roman surface is not finite on this grid\n"
    assert text == ""
    assert not out.exists()


def test_generate_past_float32_range_reports_one_error(tmp_path):
    # a subprocess, so that a numpy warning would show on the real stderr
    for flags in (["--outer-radius", "1e39", "--inner-radius", "1e38"], ["--thickness", "1e200"]):
        argv = ["generate", *flags, *SMALL]
        proc = subprocess.run(
            [sys.executable, "-m", "identispace.cli", *argv],
            cwd=tmp_path,
            env=python_path(ROOT / "src"),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error:") and "float32" in proc.stderr
        assert not (tmp_path / "torus.stl").exists()


@pytest.mark.parametrize(
    "flags",
    [["--thickness", "1e200"], ["--outer-radius", "1e39", "--inner-radius", "1e38"]],
)
def test_generate_past_float32_range_fails_before_building(tmp_path, capsys, monkeypatch, flags):
    monkeypatch.setattr(cli, "tessellate_segments", fail_if_called("tessellate_segments"))
    out = tmp_path / "x.stl"
    code, text, err = run(["generate", *flags, *SMALL, "--output", str(out)], capsys)
    assert code == 2
    assert err == "error: the model reaches past the float32 range of STL coordinates\n"
    assert text == ""
    assert not out.exists()


def test_generate_ascii_mode(tmp_path, capsys):
    out = tmp_path / "t.stl"
    code, text, _ = run(
        ["generate", "--surface", "torus", *SMALL, "--ascii", "--output", str(out)],
        capsys,
    )
    assert code == 0
    assert out.read_bytes().startswith(b"solid identispace-forge")


def test_generate_legacy_overshoot_produces_more_capsules(tmp_path, capsys):
    base = tmp_path / "a.stl"
    legacy = tmp_path / "b.stl"
    run(["generate", "--surface", "torus", *SMALL, "--output", str(base)], capsys)
    run(["generate", "--surface", "torus", *SMALL, "--legacy-overshoot",
         "--output", str(legacy)], capsys)
    n_base = struct.unpack_from("<I", base.read_bytes(), 80)[0]
    n_legacy = struct.unpack_from("<I", legacy.read_bytes(), 80)[0]
    assert n_legacy == 2 * n_base  # 112 vs 56 capsules


def test_generate_deterministic(tmp_path, capsys):
    a = tmp_path / "a.stl"
    b = tmp_path / "b.stl"
    args = ["generate", "--surface", "klein", *SMALL]
    assert run([*args, "--output", str(a)], capsys)[0] == 0
    assert run([*args, "--output", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


# --- validate ----------------------------------------------------------------


def test_validate_own_output(tmp_path, capsys):
    out = tmp_path / "t.stl"
    run(["generate", "--surface", "torus", *SMALL, "--output", str(out)], capsys)
    code, text, _ = run(["validate", str(out)], capsys)
    assert code == 0
    assert "boundary_edges: 0" in text


def test_validate_truncated_file(tmp_path, capsys):
    out = tmp_path / "t.stl"
    run(["generate", "--surface", "torus", *SMALL, "--output", str(out)], capsys)
    data = out.read_bytes()
    out.write_bytes(data[:-1])
    code, _, err = run(["validate", str(out)], capsys)
    assert code == 2
    assert "mismatch" in err or "truncated" in err


def test_validate_open_surface(tmp_path, capsys):
    path = tmp_path / "open.stl"
    path.write_bytes(open_tetra_stl())
    code, text, _ = run(["validate", str(path)], capsys)
    assert code == 1
    assert "boundary_edges: 3" in text


def test_validate_non_finite_file(tmp_path, capsys):
    data = bytearray(open_tetra_stl())
    struct.pack_into("<f", data, 84 + 12, float("-inf"))  # facet 0, corner 0, x
    path = tmp_path / "inf.stl"
    path.write_bytes(bytes(data))
    code, text, err = run(["validate", str(path)], capsys)
    assert code == 2
    assert text == ""
    assert err.startswith("error:") and "non-finite" in err


@pytest.mark.parametrize("vertex_lines,reason", [
    (["vertex 1 2"], "1 facets need 3 vertex rows"),
    (["vertex 1 2", "vertex 1 2 3", "vertex 1 2 3"], "malformed vertex row"),
])
def test_validate_malformed_ascii_reports_the_ascii_error(tmp_path, capsys, vertex_lines, reason):
    # the binary fallback fails too; its length error must not hide the real fault
    lines = ["solid x", "facet normal 0 0 1", "outer loop", *vertex_lines, "endloop", "endfacet",
             "endsolid x"]
    path = tmp_path / "malformed.stl"
    path.write_text("\n".join(lines) + "\n")
    code, text, err = run(["validate", str(path)], capsys)
    assert code == 2
    assert text == ""
    assert err.startswith(f"error: {reason}")
    assert "length mismatch" not in err and "Traceback" not in err


def test_validate_missing_file(capsys):
    code, _, err = run(["validate", "/nonexistent/file.stl"], capsys)
    assert code == 2


# --- homology ----------------------------------------------------------------


def test_homology_sphere(capsys):
    code, text, _ = run(["homology", "--space", "sphere"], capsys)
    assert code == 0
    assert text.splitlines() == [
        "H_0(sphere) = Z",
        "H_1(sphere) = 0",
        "H_2(sphere) = Z",
    ]


def test_homology_klein_h1(capsys):
    code, text, _ = run(["homology", "--space", "klein", "--dim", "1"], capsys)
    assert code == 0
    assert text.strip() == "H_1(klein) = Z + Z/2"


def test_homology_circle_dim1(capsys):
    code, text, _ = run(["homology", "--space", "circle", "--dim", "1"], capsys)
    assert code == 0
    assert text.strip() == "H_1(circle) = Z"


def test_homology_dim_out_of_range(capsys):
    code, _, err = run(["homology", "--space", "circle", "--dim", "5"], capsys)
    assert code == 2
    assert "--dim" in err


def test_homology_rp2(capsys):
    code, text, _ = run(["homology", "--space", "rp2"], capsys)
    assert code == 0
    assert "H_1(rp2) = Z/2" in text


# --- sample ------------------------------------------------------------------


def test_sample_outputs(capsys):
    assert run(["sample", "--surface", "torus", "0", "0"], capsys)[1].strip() == "40 0 0"
    assert run(["sample", "--surface", "roman", "0", "0"], capsys)[1].strip() == "0 0 0"
    assert run(["sample", "--surface", "klein", "0", "0"], capsys)[1].strip() == "30 2.5 0"


# --- argument handling -------------------------------------------------------


def test_unknown_surface_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--surface", "moebius"])
    assert exc.value.code == 2


def test_missing_subcommand_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# --- config file layering ----------------------------------------------------


def test_config_file_overrides_defaults(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "# comment line\n"
        "thickness = 2.5\n"
        "lat-ribs = 6   # trailing comment\n"
        "ascii = true\n"
    )
    values = load_config_file(str(cfg_path))
    assert values == {"thickness": 2.5, "lat-ribs": 6, "ascii": True}


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("lat_ribs = 6\n")  # keys use hyphens, not underscores
    code, _, err = run(
        ["sample", "--surface", "torus", "--config", str(cfg_path), "0", "0"], capsys
    )
    assert code == 2
    assert "unknown config key" in err


def test_flag_precedence_three_layers(tmp_path, monkeypatch):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("thickness = 2.0\nlat-ribs = 6\n")
    import argparse

    ns = argparse.Namespace(config=str(cfg_path), thickness=3.0)
    cfg = resolve_config(ns)
    assert cfg.thickness == 3.0  # flag beats config
    assert cfg.lat_ribs == 6  # config beats default
    assert cfg.long_ribs == RunConfig().long_ribs  # default survives


def test_config_env_var(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "env.cfg"
    cfg_path.write_text("outer-radius = 7\ninner-radius = 2\n")
    monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg_path))
    code, text, _ = run(["sample", "--surface", "torus", "0", "0"], capsys)
    assert code == 0
    assert text.strip() == "9 0 0"  # R + r from the env config


def test_explicit_config_beats_env(tmp_path, monkeypatch, capsys):
    env_cfg = tmp_path / "env.cfg"
    env_cfg.write_text("outer-radius = 7\ninner-radius = 2\n")
    flag_cfg = tmp_path / "flag.cfg"
    flag_cfg.write_text("outer-radius = 20\ninner-radius = 5\n")
    monkeypatch.setenv(CONFIG_ENV_VAR, str(env_cfg))
    code, text, _ = run(
        ["sample", "--surface", "torus", "--config", str(flag_cfg), "0", "0"], capsys
    )
    assert code == 0
    assert text.strip() == "25 0 0"


def test_malformed_config_line(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("thickness 2.0\n")
    code, _, err = run(
        ["sample", "--surface", "torus", "--config", str(cfg_path), "0", "0"], capsys
    )
    assert code == 2
    assert "key = value" in err


def test_bad_config_value(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("ascii = maybe\n")
    code, _, err = run(
        ["sample", "--surface", "torus", "--config", str(cfg_path), "0", "0"], capsys
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, line",
    [
        (["homology"], "space = foo"),
        (["generate"], "surface = cube"),
        (["sample", "0", "0"], "surface = cube"),
    ],
)
def test_config_choice_outside_flag_choices(tmp_path, capsys, argv, line):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(f"# run\n{line}\n")
    out = tmp_path / "x.stl"
    extra = ["--output", str(out)] if argv[0] == "generate" else []
    code, text, err = run([argv[0], "--config", str(cfg_path), *extra, *argv[1:]], capsys)
    key = line.split()[0]
    assert code == 2
    assert err.startswith(f"error: {cfg_path}:2: bad value for {key}")
    assert "Traceback" not in err
    assert text == ""
    assert not out.exists()


def test_undecodable_config_file_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_bytes(b"thickness = 2\xff\n")
    code, text, err = run(["sample", "--config", str(cfg_path), "0", "0"], capsys)
    assert code == 2
    assert text == ""
    assert err.startswith(f"error: cannot read config file {cfg_path}:")
    assert len(err.splitlines()) == 1


# one (command, good value, bad value) per config key; the bad value is None
# where a flag cannot carry one
CONFIG_KEYS = {
    "surface": ("generate", "klein", "cube"),
    "outer-radius": ("generate", "25.5", "wide"),
    "inner-radius": ("generate", "4.5", "x"),
    "lat-ribs": ("generate", "6", "6.5"),
    "long-ribs": ("generate", "9", "many"),
    "amplitude": ("generate", "0.5", "a"),
    "outer-density": ("generate", "3", "1.5"),
    "inner-density": ("generate", "2", "two"),
    "thickness": ("generate", "2", "thick"),
    "resolution": ("generate", "6", "6.0"),
    "legacy-overshoot": ("generate", "true", None),
    "output": ("generate", "m.stl", None),
    "ascii": ("generate", "true", None),
    "space": ("homology", "rp2", "cube"),
    "dim": ("homology", "1", "one"),
}


def test_config_keys_cover_every_option():
    assert set(CONFIG_KEYS) == set(cli._OPTIONS) - {"config"}


@pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
def test_config_line_and_flag_resolve_alike(tmp_path, key):
    command, good, _ = CONFIG_KEYS[key]
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"{key} = {good}\n")
    from_file = resolve_config(cli.build_parser().parse_args([command, "--config", str(cfg_path)]))
    flag = [f"--{key}"] if good == "true" else [f"--{key}", good]
    from_flag = resolve_config(cli.build_parser().parse_args([command, *flag]))
    assert from_file == from_flag != RunConfig()


@pytest.mark.parametrize("key", sorted(k for k, case in CONFIG_KEYS.items() if case[2]))
def test_bad_config_value_and_bad_flag_exit_2(tmp_path, capsys, key):
    command, _, bad = CONFIG_KEYS[key]
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(f"{key} = {bad}\n")
    code, text, err = run([command, "--config", str(cfg_path)], capsys)
    assert code == 2
    assert text == ""
    assert err.startswith(f"error: {cfg_path}:1: bad value for {key}")
    with pytest.raises(SystemExit) as exc:
        main([command, f"--{key}", bad])
    assert exc.value.code == 2


def test_run_config_defaults_are_the_library_defaults():
    assert RunConfig().wireframe_spec() == WireframeSpec(SurfaceParams(SurfaceKind.TORUS))


# --- process contract --------------------------------------------------------


def test_import_leaves_scipy_unloaded():
    # only validate needs scipy, so homology and sample do not pay for its import; the
    # thread pool of validate and write_stl is imported by them alone too
    code = ("import sys, identispace.cli; "
            "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=python_path(ROOT / "src"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "False False\n"), proc.stderr


def load_benchmark():
    """``perfbench/run.py`` as a module, with its sibling modules importable."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        patch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return module


def test_traced_cli_reports_every_layer_once(tmp_path):
    """The benchmark's traced run wraps the ``cli`` names of the layer calls and
    reads one span per layer, plus the byte counts of the written and read file."""
    bench = load_benchmark()
    stl = tmp_path / "probe.stl"
    commands = {
        "generate": ["generate", *bench.PROBE_GEOMETRY.cli_args(), "--output", str(stl)],
        "validate": ["validate", str(stl)],
    }
    spans = {}
    for step, argv in commands.items():
        spans_path = tmp_path / f"{step}.spans.json"
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans_path), *argv],
            env=python_path(ROOT / "src", PERFBENCH),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        spans[step] = json.loads(spans_path.read_text())

    layers = {
        "generate": ["wireframe.plan_segments", "wireframe.count_degenerate_segments",
                     "wireframe.tessellate_segments", "mesh_io.validate", "mesh_io.write_stl"],
        "validate": ["mesh_io.read_stl", "mesh_io.validate"],
    }
    for step, names in layers.items():
        recorded = [span["name"] for span in spans[step]]
        assert {name: recorded.count(name) for name in names} == dict.fromkeys(names, 1)
    size = stl.stat().st_size
    (write,) = (s for s in spans["generate"] if s["name"] == "mesh_io.write_stl")
    (read,) = (s for s in spans["validate"] if s["name"] == "mesh_io.read_stl")
    assert write["counts"]["bytes"] == read["counts"]["bytes"] == size
    # the benchmark's own reader of the spans accepts them
    bench.geometry_layers(bench.Op(spans=spans, detail={"generate_s": 1.0, "validate_s": 1.0}))
