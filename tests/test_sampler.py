import json
import math

import numpy as np
import pytest

from sepsurf.expr import Func1D
from sepsurf.families import preset_box, preset_surface
from sepsurf.geometry import SeparableSurface
from sepsurf.sampler import (
    GridSpec,
    Mesh,
    export_obj,
    export_report,
    marching_cubes,
    sample_points,
    solve_z,
)


def sphere(r=1.0):
    return SeparableSurface(
        Func1D.parse("x^2"), Func1D.parse("y^2", "y"),
        Func1D.parse(f"z^2-{r * r!r}", "z"))


# -- root finding -----------------------------------------------------------------


def test_solve_z_sphere():
    roots = solve_z(sphere(), 0.6, 0.0)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(-0.8, abs=1e-12)
    assert roots[1] == pytest.approx(0.8, abs=1e-12)
    assert roots[0] < roots[1]


def test_solve_z_exp_cylinder():
    surf = preset_surface("paper-fig1-middle")
    roots = solve_z(surf, 1.0, 0.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(math.log(math.e - 1.0), abs=1e-12)


def test_solve_z_outside_sphere_empty():
    assert solve_z(sphere(), 2.0, 0.0) == []


def test_solve_z_residual_contract():
    surf = sphere(1.3)
    for (x, y) in ((0.2, 0.3), (-0.9, 0.1), (0.5, -0.5)):
        target = surf.f.value(x) + surf.g.value(y)
        for z in solve_z(surf, x, y):
            assert abs(surf.h.value(z) + target) <= 1e-12 * (1.0 + abs(target))


def test_solve_z_window_restricts():
    roots = solve_z(sphere(), 0.6, 0.0, window=(0.0, 2.0))
    assert len(roots) == 1 and roots[0] == pytest.approx(0.8, abs=1e-12)


# -- sampling ----------------------------------------------------------------------


def test_sample_points_deterministic():
    grid = GridSpec(box=(-0.9, 0.9, -0.9, 0.9, -1.0, 1.0), nx=12, ny=12, nz=12, seed=9)
    a = sample_points(sphere(), grid)
    b = sample_points(sphere(), grid)
    assert np.array_equal(a, b)
    c = sample_points(sphere(), GridSpec(grid.box, 12, 12, 12, seed=10))
    assert not np.array_equal(a, c)


def test_sample_points_on_surface():
    surf = preset_surface("paper-fig1-left")
    grid = GridSpec(box=preset_box("paper-fig1-left"), nx=20, ny=20, nz=20, seed=1)
    pts = sample_points(surf, grid)
    assert len(pts) >= 200
    assert np.max(np.abs(surf.value_arrays(pts))) <= 1e-9


def test_sample_points_right_cylinder_axis():
    # the z component is constant, so sampling must solve along y
    from sepsurf.families import RightCylinder, build_surface

    surf = build_surface(RightCylinder(
        f=Func1D.parse("cosh(x)"), g=Func1D.parse("y^2", "y"), a=-3.0, plane="z"))
    grid = GridSpec(box=(-1.2, 1.2, -1.6, 1.6, -1.0, 1.0), nx=12, ny=12, nz=12, seed=2)
    pts = sample_points(surf, grid)
    assert len(pts) >= 32
    assert np.max(np.abs(surf.value_arrays(pts))) <= 1e-9


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(box=(1.0, 0.0, 0.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        GridSpec(box=(0.0, 1.0, 0.0, 1.0, 0.0, 1.0), nx=1)


# -- meshing -----------------------------------------------------------------------


def test_mesh_vertices_on_surface():
    surf = preset_surface("paper-fig1-left")
    mesh = marching_cubes(surf, GridSpec(box=preset_box("paper-fig1-left"),
                                         nx=24, ny=24, nz=24))
    assert len(mesh.vertices) > 500
    vals = surf.value_arrays(mesh.vertices)
    assert np.max(np.abs(vals)) <= 1e-6
    assert mesh.triangles.min() >= 0
    assert mesh.triangles.max() < len(mesh.vertices)


def test_mesh_sphere_resolution_64():
    mesh = marching_cubes(sphere(), GridSpec(
        box=(-1.05, 1.05, -1.05, 1.05, -1.05, 1.05), nx=64, ny=64, nz=64))
    K = mesh.vertex_K
    assert np.all(np.isfinite(K))
    assert np.max(np.abs(K - 1.0)) <= 1e-6


def test_mesh_skips_cells_outside_domain():
    surf = preset_surface("paper-fig1-left")  # log charts demand positive bases
    mesh = marching_cubes(surf, GridSpec(box=(-0.2, 2.0, 0.3, 2.0, 0.3, 2.0),
                                         nx=16, ny=16, nz=16))
    assert mesh.skipped_cells > 0
    if len(mesh.vertices):
        assert np.max(np.abs(surf.value_arrays(mesh.vertices))) <= 1e-6


def test_mesh_determinism():
    surf = preset_surface("paper-fig1-middle")
    grid = GridSpec(box=preset_box("paper-fig1-middle"), nx=20, ny=20, nz=20)
    m1 = marching_cubes(surf, grid)
    m2 = marching_cubes(surf, grid)
    assert np.array_equal(m1.vertices, m2.vertices)
    assert np.array_equal(m1.triangles, m2.triangles)


def test_refinement_keeps_curvature_sign():
    # matched nearest vertices keep the sign of K when the grid is refined
    def signs_at(mesh, probes, tol=1e-8):
        out = []
        for p in probes:
            i = int(np.argmin(np.sum((mesh.vertices - p) ** 2, axis=1)))
            k = mesh.vertex_K[i]
            out.append(0 if abs(k) <= tol else (1 if k > 0 else -1))
        return out

    for surf, box in ((sphere(), (-0.9, 0.9, -0.9, 0.9, -1.02, 1.02)),
                      (preset_surface("paper-fig1-left"), preset_box("paper-fig1-left"))):
        coarse = marching_cubes(surf, GridSpec(box=box, nx=16, ny=16, nz=16))
        fine = marching_cubes(surf, GridSpec(box=box, nx=32, ny=32, nz=32))
        probes = coarse.vertices[:: max(1, len(coarse.vertices) // 40)]
        assert signs_at(coarse, probes) == signs_at(fine, probes)


def _edge_defects(mesh, box):
    """(non-manifold edges, boundary edges with an end off every box face)."""
    tris = mesh.triangles
    edges = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    boundary = uniq[counts == 1]
    on_face = np.zeros(len(boundary), dtype=bool)
    for axis in range(3):
        for bound in box[2 * axis: 2 * axis + 2]:
            ends = np.abs(mesh.vertices[boundary, axis] - bound) <= 1e-12 * (1.0 + abs(bound))
            on_face |= ends.all(axis=1)
    return int(np.count_nonzero(counts > 2)), int(np.count_nonzero(~on_face))


def test_meshes_are_manifold_with_boundary_on_box_faces():
    from sepsurf.verify import catalog

    cases = [(preset_surface(n), preset_box(n))
             for n in ("paper-fig1-left", "paper-fig1-middle", "paper-fig1-right")]
    cases += [(e.surface, e.box) for e in catalog()
              if e.name in ("spindle-K1", "rotational-Kneg1")]
    assert len(cases) == 5
    for surf, box in cases:
        mesh = marching_cubes(surf, GridSpec(box=tuple(box), nx=32, ny=32, nz=32))
        assert len(mesh.triangles) > 100
        assert _edge_defects(mesh, box) == (0, 0)


# -- exporters ----------------------------------------------------------------------


def test_export_obj_single_triangle(tmp_path):
    mesh = Mesh(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                np.array([[0, 1, 2]]), np.zeros(3))
    path = tmp_path / "tri.obj"
    export_obj(mesh, str(path))
    assert path.read_bytes() == b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"


def test_export_obj_17_digits(tmp_path):
    v = 0.1234567890123456789
    mesh = Mesh(np.array([[v, v, v]]), np.empty((0, 3), dtype=int), np.zeros(1))
    path = tmp_path / "prec.obj"
    export_obj(mesh, str(path))
    text = path.read_text()
    assert f"{v:.17g}" in text


def test_export_report_schema(tmp_path):
    mesh = Mesh(np.array([[0.0, 0.0, 0.0]]), np.empty((0, 3), dtype=int),
                np.array([float("nan")]), skipped_cells=3,
                grid=GridSpec(box=(0, 1, 0, 1, 0, 1), nx=4, ny=4, nz=4, seed=5))
    path = tmp_path / "mesh.json"
    export_report(mesh, str(path))
    doc = json.loads(path.read_text())
    assert list(doc.keys()) == ["K", "skipped_cells", "grid"]
    assert doc["K"] == [None]  # NaN curvature serializes as null
    assert doc["skipped_cells"] == 3
    assert doc["grid"]["seed"] == 5
