import functools
import hashlib
import json
import math

import numpy as np
import pytest
from conftest import marching_cubes_loop, solve_many_loop, solve_targets_loop

from sepsurf import sampler
from sepsurf._mc_tables import CORNER_OFFSETS, CORNER_PAIRS, EDGE_AXIS, EDGE_LO, TRI_TABLE
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
    solve_axis,
    solve_many,
)
from sepsurf.verify import collect_samples


def sphere(r=1.0):
    return SeparableSurface(
        Func1D.parse("x^2"), Func1D.parse("y^2", "y"),
        Func1D.parse(f"z^2-{r * r!r}", "z"))


# -- root finding -----------------------------------------------------------------


def test_solve_z_sphere():
    roots = solve_axis(sphere(), 2, 0.6, 0.0)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(-0.8, abs=1e-12)
    assert roots[1] == pytest.approx(0.8, abs=1e-12)
    assert roots[0] < roots[1]


def test_solve_z_exp_cylinder():
    surf = preset_surface("paper-fig1-middle")
    roots = solve_axis(surf, 2, 1.0, 0.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(math.log(math.e - 1.0), abs=1e-12)


def test_solve_z_outside_sphere_empty():
    assert solve_axis(sphere(), 2, 2.0, 0.0) == []


def test_solve_z_residual_contract():
    surf = sphere(1.3)
    for (x, y) in ((0.2, 0.3), (-0.9, 0.1), (0.5, -0.5)):
        target = surf.f.value(x) + surf.g.value(y)
        for z in solve_axis(surf, 2, x, y):
            assert abs(surf.h.value(z) + target) <= 1e-12 * (1.0 + abs(target))


def test_solve_z_window_restricts():
    roots = solve_axis(sphere(), 2, 0.6, 0.0, window=(0.0, 2.0))
    assert len(roots) == 1 and roots[0] == pytest.approx(0.8, abs=1e-12)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_engine_matches_loop(surface, c1, c2, window=None, axis=2):
    """solve_many and solve_axis equal the per-target loop bit for bit."""
    expected = solve_many_loop(surface, c1, c2, window, axis)
    assert _same_bits(solve_many(surface, c1, c2, window, axis), expected)
    comps = surface.components
    o1, o2 = (i for i in range(3) if i != axis)
    defined = np.isfinite(comps[o1].value_array(c1) + comps[o2].value_array(c2))
    for a, b in zip(c1[defined], c2[defined]):  # solve_axis raises elsewhere
        mine = expected[(expected[:, o1] == a) & (expected[:, o2] == b), axis]
        assert _same_bits(solve_axis(surface, axis, a, b, window), mine)
    return expected


def _columns(n, seed=0, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)


@pytest.mark.parametrize("name", ["paper-fig1-left", "paper-fig1-middle", "paper-fig1-right"])
def test_root_engine_matches_loop_on_presets(name):
    surf = preset_surface(name)
    x0, x1, y0, y1, z0, z1 = preset_box(name)
    rng = np.random.default_rng(3)
    c1, c2 = rng.uniform(x0, x1, 300), rng.uniform(y0, y1, 300)
    assert len(_assert_engine_matches_loop(surf, c1, c2, (z0, z1))) > 50


def test_root_engine_matches_loop_on_sphere_and_chunks():
    n = 2 * 4096 + 7  # over 8192 columns, not a multiple of a power of two
    c1, c2 = _columns(n, seed=4, lo=-1.1, hi=1.1)
    expected = solve_many_loop(sphere(), c1, c2)
    assert len(expected) > n  # two roots on most columns
    assert _same_bits(solve_many(sphere(), c1, c2), expected)
    _assert_engine_matches_loop(sphere(), c1[:40], c2[:40])


def test_root_engine_matches_loop_on_multi_root_column():
    surf = SeparableSurface(Func1D.parse("x"), Func1D.parse("y", "y"),
                            Func1D.parse("sin(3*z)", "z"))
    c1, c2 = np.array([0.3, -0.7, 0.0, 2.0]), np.array([0.0, 0.1, 0.0, 0.0])
    pts = _assert_engine_matches_loop(surf, c1, c2, (-10.0, 10.0))
    assert np.count_nonzero(pts[:, 0] == 0.3) >= 19
    assert np.count_nonzero(pts[:, 0] == 2.0) == 0  # |sin| <= 1 < 2


def test_root_engine_matches_loop_on_exact_scan_node_hit():
    surf = SeparableSurface(Func1D.parse("x"), Func1D.parse("y", "y"),
                            Func1D.parse("z^3-z", "z"))
    window = (-1.5, 1.5)
    lo, hi = window
    eps = 1e-12 * (abs(lo) + abs(hi) + 1.0)
    nodes = np.linspace(lo + eps, hi - eps, sampler.SCAN_SUBDIVISIONS + 1)
    hit_vals = nodes[[40, 128, 200]] ** 3 - nodes[[40, 128, 200]]
    pts = _assert_engine_matches_loop(surf, -hit_vals, np.zeros(3), window)
    assert set(nodes[[40, 128, 200]]) <= set(pts[:, 2])  # the scan nodes themselves


def test_root_engine_matches_loop_on_non_finite_targets():
    # log(x) is NaN for x <= 0: those columns have no points
    surf = SeparableSurface(Func1D.parse("log(x)"), Func1D.parse("y^2", "y"),
                            Func1D.parse("z^2-1", "z"))
    c1 = np.array([0.5, -0.5, 0.0, 1.5, -2.0, 0.9])
    c2 = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    pts = _assert_engine_matches_loop(surf, c1, c2, (-3.0, 3.0))
    assert len(pts) == 6 and np.all(pts[:, 0] > 0.0)


def test_root_engine_finds_close_root_pair():
    # both roots lie inside one scan interval; the critical point at 0.3 splits it
    surf = SeparableSurface(Func1D.parse("x^2"), Func1D.parse("y^2", "y"),
                            Func1D.parse("(z-0.3)^2-1e-6", "z"))
    roots = solve_axis(surf, 2, 0.0, 0.0, (-1.0, 1.0))
    assert len(roots) == 2
    assert abs(roots[0] - (0.3 - 1e-3)) <= 1e-12
    assert abs(roots[1] - (0.3 + 1e-3)) <= 1e-12


@pytest.mark.parametrize("c, window", [(1.0, (-2.0, 2.0)), (1.0, (0.05, 3.0)),
                                       (0.9, (-1.5, 1.5)), (0.8, (-1.5, 1.5)),
                                       (1.2, (-1.5, 1.5))])
def test_root_engine_finds_every_scan_root_on_deep_expression(c, window):
    # the benchmark pool's deepest expression (c drawn from (0.8, 1.2))
    # oscillates near 0: the engine finds every root the fixed-node scan
    # finds, also where a critical point splits a scan interval holding
    # three roots, plus roots the scan misses because they share an interval
    func = Func1D.parse(f"sin(cos(exp({c!r}*z)*z)/z)", "z")
    targets = np.random.default_rng(5).uniform(-1.0, 1.0, 300)
    col, root = sampler._solve_targets(func, targets, window)
    assert np.max(np.abs(func.value_array(root) - targets[col])) <= 1e-9
    scanned = solve_targets_loop(func, targets, window)
    for j, expected in enumerate(scanned):
        mine = root[col == j]
        for r in expected:
            assert np.min(np.abs(mine - r)) <= 1e-12 * (1.0 + abs(r))
    assert root.size > sum(len(r) for r in scanned)


def test_bisection_retirement_keeps_every_bracket_bit_for_bit():
    # rows retire once converged; a, b (the polish window) must equal the
    # full fixed-count loop's, also for rows with NaN values or no sign change
    func = Func1D.parse("log(z)*z-0.3", "z")  # NaN for z <= 0
    rng = np.random.default_rng(8)
    a = rng.uniform(-0.5, 2.0, 3000)
    b = a + rng.uniform(1e-9, 0.5, 3000)
    target = rng.uniform(-0.5, 0.5, 3000)
    fa = func.value_array(a) - target
    got = sampler._bisect(func.value_array, target, a, b, fa)
    ra, rb, rfa = a, b, fa
    for _ in range(sampler._BISECT_ITERS):
        mid = 0.5 * (ra + rb)
        fm = func.value_array(mid) - target
        left = ((rfa * fm) > 0.0) & np.isfinite(fm)
        ra, rfa, rb = np.where(left, mid, ra), np.where(left, fm, rfa), np.where(left, rb, mid)
    assert _same_bits(got[0], ra) and _same_bits(got[1], rb)


def test_root_engine_empty_window_and_zero_columns():
    surf = SeparableSurface(Func1D.parse("x^2"), Func1D.parse("y^2", "y"),
                            Func1D.parse("z-1", "z", domain=(0.0, 2.0)))
    c1, c2 = _columns(5)
    assert len(_assert_engine_matches_loop(surf, c1, c2, (3.0, 4.0))) == 0
    assert len(_assert_engine_matches_loop(surf, c1, c2, (1.0, 1.0))) == 0
    for pts in (solve_many(surf, np.empty(0), np.empty(0)),
                solve_many_loop(surf, np.empty(0), np.empty(0))):
        assert pts.shape == (0, 3)


def _scan_nodes(window):
    lo, hi = window
    eps = 1e-12 * (abs(lo) + abs(hi) + 1.0)
    return np.linspace(lo + eps, hi - eps, sampler.SCAN_SUBDIVISIONS + 1)


def _assert_targets_match_loop(func, targets, window):
    """_solve_targets equals the dense per-target scan bit for bit."""
    col, root = sampler._solve_targets(func, targets, window)
    with np.errstate(over="ignore"):  # the scan's products may overflow
        expected = solve_targets_loop(func, targets, window)
    assert np.array_equal(col, np.repeat(np.arange(targets.size), [r.size for r in expected]))
    assert _same_bits(root, np.concatenate(expected))
    return col, root


def test_sorted_search_hits_and_grouping_match_loop(monkeypatch):
    # the sorted-key bracket search, the exact hits found from the node
    # side and the grouping by a stable column sort, against the dense scan
    lexsorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: lexsorts.append(1) or lexsort(keys))
    window = (-1.1, 1.3)
    nodes = _scan_nodes(window)
    hit_nodes = [3, 40, 200, 255]
    rng = np.random.default_rng(12)
    # the sphere's h has a decreasing and an increasing run, exp(-z) one
    # decreasing run
    for src, lo_v, hi_v in (("z^2-1", -0.9, 0.6), ("exp(-z)", 0.3, 3.0)):
        func = Func1D.parse(src, "z")
        hits = func.value_array(nodes[hit_nodes])
        plain = rng.uniform(lo_v, hi_v, 300)
        targets = np.concatenate([hits, hits[:2], plain, plain[:50],
                                  [np.nan, np.inf, -np.inf, 1e300, -5.0]])
        rng.shuffle(targets)
        col, root = _assert_targets_match_loop(func, targets, window)
        assert set(nodes[hit_nodes]) <= set(root)
        assert np.all(np.isfinite(targets[col]))
        per_col = np.bincount(col, minlength=targets.size)
        if src == "z^2-1":
            assert np.all(per_col[(targets > -0.9) & (targets < 0.21)] == 2)

    # a critical point splits grid interval k: the root left of it comes
    # from the half interval (a run) and from the whole interval, which is
    # searched after the runs, and the column's other root from the next
    # run, so the column sort leaves it out of order and lexsort runs.  The
    # left half is certified here, the whole interval never is.
    k = 160
    c = float(nodes[k] + 0.7 * (nodes[k + 1] - nodes[k]))
    func = Func1D.parse(f"(z-{c!r})^2", "z")
    assert sampler._critical_points(func, nodes)[1].tolist() == [k]
    left = nodes[k] + np.linspace(0.05, 0.5, 10) * (c - nodes[k])
    targets = np.concatenate([(c - left) ** 2, rng.uniform(0.01, 1.0, 20)])
    brackets = []
    newton = sampler._newton
    monkeypatch.setattr(sampler, "_newton", lambda func, target, a, b, *rest: (
        brackets.append((a, b)) or newton(func, target, a, b, *rest)))
    lexsorts.clear()
    col, root = _assert_targets_match_loop(func, targets, window)
    assert lexsorts
    d1_lo, d1_hi = func._d1_enclosure(*(np.concatenate(v) for v in zip(*brackets)))
    assert np.all((d1_lo > 0.0) | (d1_hi < 0.0))
    assert np.all(np.bincount(col)[:10] == 2)
    assert np.allclose(root[np.searchsorted(col, np.arange(10))], left, rtol=0.0, atol=1e-14)


_SAMPLE_CASES = ["paper-fig1-left", "paper-fig1-middle", "paper-fig1-right", "sphere",
                 "right-cylinder"]


def _sample_case(case):
    """(surface, 70^2-column grid) for the sampling comparisons."""
    if case == "sphere":
        surf, box = sphere(), (-1.1, 1.1, -1.1, 1.1, -1.1, 1.1)
    elif case == "right-cylinder":
        from sepsurf.families import RightCylinder, build_surface

        surf = build_surface(RightCylinder(
            f=Func1D.parse("cosh(x)"), g=Func1D.parse("y^2", "y"), a=-3.0, plane="z"))
        box = (-1.2, 1.2, -1.6, 1.6, -1.0, 1.0)
    else:
        surf, box = preset_surface(case), preset_box(case)
    return surf, GridSpec(box=tuple(box), nx=70, ny=70, nz=70, seed=11)


@pytest.mark.parametrize("case", _SAMPLE_CASES)
def test_sample_points_matches_loop(case, monkeypatch):
    surf, grid = _sample_case(case)
    got = sample_points(surf, grid)
    monkeypatch.setattr(sampler, "solve_many", solve_many_loop)
    assert _same_bits(got, sample_points(surf, grid))
    assert len(got) > 1000


@pytest.mark.parametrize("case", _SAMPLE_CASES)
def test_newton_roots_agree_with_bisection(case, monkeypatch):
    # certified brackets take Newton; against the loop that bisects every
    # bracket, each column keeps its roots, each root moves by about an ulp
    # and the worst residual does not grow
    surf, grid = _sample_case(case)
    got = sample_points(surf, grid)
    monkeypatch.setattr(sampler, "solve_many", functools.partial(solve_many_loop, certify=False))
    ref = sample_points(surf, grid)
    axis = surf.preferred_axis
    o1, o2 = (i for i in range(3) if i != axis)
    assert got.shape == ref.shape and _same_bits(got[:, [o1, o2]], ref[:, [o1, o2]])
    comps = surf.components
    h = comps[axis]
    target = -(comps[o1].value_array(ref[:, o1]) + comps[o2].value_array(ref[:, o2]))
    r, r0 = got[:, axis], ref[:, axis]
    assert not np.array_equal(r, r0)  # the Newton path ran
    # near a critical point an ulp of h moves the root by ulp / |h'|, for
    # both methods (the sphere's roots at |z| ~ 0.013 move by 3.8e-15)
    cond = 2.0 * np.finfo(float).eps * (1.0 + np.abs(target)) / np.abs(h.d1_array(r0))
    assert np.all(np.abs(r - r0) <= 2e-15 * (1.0 + np.abs(r0)) + cond)
    assert np.max(np.abs(h.value_array(r) - target)) <= np.max(np.abs(h.value_array(r0) - target))


def test_deep_expression_bisects_every_uncertified_interval(monkeypatch):
    # brackets are whole node intervals: Newton gets exactly those where the
    # enclosure of h' excludes 0, bisection every interval where it holds 0
    # or is NaN (those around the pole and the oscillation near z = 0)
    func = Func1D.parse("sin(cos(exp(0.9*z)*z)/z)", "z")
    seen = {}

    def spy(name, solve):
        def run(func, target, a, b, fa, *start):
            seen[name] = (a, b)
            return solve(func, target, a, b, fa, *start)
        return run

    monkeypatch.setattr(sampler, "_newton", spy("newton", sampler._newton))
    monkeypatch.setattr(sampler, "_bisect_polished", spy("bisect", sampler._bisect_polished))
    targets = np.random.default_rng(5).uniform(-1.0, 1.0, 300)
    sampler._solve_targets(func, targets, (-1.5, 1.5))
    for name, certified in (("newton", True), ("bisect", False)):
        lo, hi = func._d1_enclosure(*seen[name])
        assert lo.size > 100
        assert np.all(((lo > 0.0) | (hi < 0.0)) == certified)


@pytest.mark.parametrize("case", ["paper-fig1-left", "paper-fig1-middle", "paper-fig1-right",
                                  "sphere"])
def test_newton_walks_about_twice_per_certified_root(case, monkeypatch):
    # from the inverse cubic Hermite start a certified root takes about two
    # value-and-slope walks: rows of h evaluated inside _newton, per root
    if case == "sphere":
        surf, box = sphere(), (-1.0, 1.0, -1.0, 1.0, -1.0, 1.0)
    else:
        surf, box = preset_surface(case), preset_box(case)
    h = surf.components[surf.preferred_axis]
    counts = {"roots": 0, "rows": 0}
    in_newton = []
    newton, walk = sampler._newton, h._masked_cols

    def spy_newton(func, target, *args):
        counts["roots"] += target.size
        in_newton.append(True)
        try:
            return newton(func, target, *args)
        finally:
            in_newton.pop()

    def spy_walk(xs, orders):
        if in_newton:
            counts["rows"] += np.size(xs)
        return walk(xs, orders)

    monkeypatch.setattr(sampler, "_newton", spy_newton)
    monkeypatch.setattr(h, "_masked_cols", spy_walk)
    collect_samples(surf, box, 10000, seed=5)
    assert counts["roots"] > 10000
    assert counts["rows"] <= 2.25 * counts["roots"]


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

    entries = catalog()
    assert len(entries) == 12
    for e in entries:
        mesh = marching_cubes(e.surface, GridSpec(box=tuple(e.box), nx=32, ny=32, nz=32))
        assert len(mesh.triangles) > 100, e.name
        assert _edge_defects(mesh, e.box) == (0, 0), e.name


def _preset_case(name):
    return preset_surface(name), GridSpec(box=preset_box(name), nx=32, ny=32, nz=32)


def _catalog_case(name):
    from sepsurf.verify import catalog

    e = next(e for e in catalog() if e.name == name)
    return e.surface, GridSpec(box=tuple(e.box), nx=24, ny=24, nz=24)


_MESH_CASES = {
    **{n: (lambda n=n: _preset_case(n))
       for n in ("paper-fig1-left", "paper-fig1-middle", "paper-fig1-right")},
    "sphere": lambda: (sphere(), GridSpec(box=(-1.05, 1.05) * 3, nx=24, ny=24, nz=24)),
    # unequal resolutions catch a wrong stride in the global edge ids
    "sphere-13x17x11": lambda: (sphere(), GridSpec(box=(-1.1, 0.9, -1.2, 1.0, -0.7, 1.05),
                                                   nx=13, ny=17, nz=11)),
    "domain-skip": lambda: (preset_surface("paper-fig1-left"),
                            GridSpec(box=(-0.2, 2.0, 0.3, 2.0, 0.3, 2.0), nx=16, ny=16, nz=16)),
    "no-crossing": lambda: (sphere(), GridSpec(box=(2.0, 3.0) * 3, nx=8, ny=8, nz=8)),
    "rotational-Kneg1": lambda: _catalog_case("rotational-Kneg1"),
}


@pytest.mark.parametrize("name", list(_MESH_CASES))
def test_marching_cubes_matches_loop(name):
    surface, grid = _MESH_CASES[name]()
    mesh, expected = marching_cubes(surface, grid), marching_cubes_loop(surface, grid)
    assert mesh.vertices.dtype == np.float64 and mesh.triangles.dtype == np.int64
    assert _same_bits(mesh.vertices, expected.vertices)
    assert _same_bits(mesh.triangles, expected.triangles)
    assert _same_bits(mesh.vertex_K, expected.vertex_K)
    assert mesh.skipped_cells == expected.skipped_cells
    if name == "no-crossing":
        assert mesh.vertices.shape == (0, 3) and mesh.triangles.shape == (0, 3)
    else:
        assert len(mesh.triangles) > 20
    if name == "domain-skip":
        assert mesh.skipped_cells > 0


def test_triangle_table_rows_cut_their_case():
    corners = np.array(CORNER_OFFSETS)
    ends = np.array(CORNER_PAIRS)
    assert TRI_TABLE.shape == (256, 16)
    assert np.array_equal(EDGE_LO, corners[ends].min(axis=1))
    assert np.array_equal(corners[ends[:, 1]] - corners[ends[:, 0]] != 0,
                          np.eye(3, dtype=bool)[EDGE_AXIS])
    for c, row in enumerate(TRI_TABLE):
        used = row[row >= 0]
        assert len(used) % 3 == 0 and np.all(row[len(used):] == -1), c
        inside = [(c >> bit) & 1 for bit in range(8)]
        for e in used:
            a, b = CORNER_PAIRS[e]
            assert inside[a] != inside[b], (c, e)
    assert np.all(TRI_TABLE[[0, 255]] == -1) and np.all(TRI_TABLE[1:255, 0] >= 0)
    # the standard table itself, pinned: 2460 used slots
    assert np.count_nonzero(TRI_TABLE >= 0) == 2460
    assert hashlib.sha256(TRI_TABLE.astype("<i8").tobytes()).hexdigest() == (
        "82ede6f8851e2effa39ae5f7fc5997f7d8e40adb5710b50dc9090fd04c026c94")


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


def test_export_obj_bytes_match_per_row_formatter(tmp_path):
    vertices = np.array([[-0.0, 1e-300, 1e300], [0.1, -2.5, 3.0],
                         [-1e-300, -1e300, 0.0], [1.0 / 3.0, 2.0 ** -1074, 12345.678]])
    triangles = np.array([[0, 1, 2], [1, 3, 2], [3, 0, 1]])
    path = tmp_path / "m.obj"
    export_obj(Mesh(vertices, triangles, np.zeros(4)), str(path))
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in triangles]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert path.read_text().startswith("v -0 1e-300 1.0000000000000001e+300\n")


def test_export_obj_empty_mesh(tmp_path):
    path = tmp_path / "empty.obj"
    export_obj(Mesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64), np.empty(0)),
               str(path))
    assert path.read_bytes() == b""


@pytest.mark.parametrize("K", [
    [-0.0, 1e-300, 1e300, -1e-300, 2.0 ** -1074, 2.0 ** -1030, 0.1, -2.5, float("nan"),
     float("inf"), -float("inf"), 1.0 / 3.0, 12345.678, 1e16, 1e-5],
    [],
    [float("nan"), float("inf"), float("nan")],
])
def test_export_report_bytes_match_json_dumps(tmp_path, K):
    grid = GridSpec(box=(-1.0, 1.0, -0.0, 2.5, 0.0, 1e-300), nx=4, ny=5, nz=6, seed=5)
    for g in (grid, None):
        mesh = Mesh(np.zeros((len(K), 3)), np.empty((0, 3), dtype=int), np.array(K),
                    skipped_cells=7, grid=g)
        path = tmp_path / "mesh.json"
        export_report(mesh, str(path))
        doc = {"K": [k if math.isfinite(k) else None for k in K], "skipped_cells": 7,
               "grid": g.to_json() if g is not None else None}
        assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()


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
