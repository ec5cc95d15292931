"""On-surface sampling and isosurface meshing.

Roots along a coordinate axis are located by a fixed scan (256 subdivisions
of the window) followed by bisection to 1e-13 and one Newton polish; the
same engine backs the scalar ``solve_z`` and the batched samplers, so both
produce bit-identical roots.  Meshes come from the standard 256-case
marching-cubes tables (Lorensen & Cline 1987) with vertices re-projected
onto the zero set along their grid edge, all vertices of a mesh in one
batched pass.  Everything is deterministic given the grid spec (seed
included); columns and cells are processed in a fixed order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._mc_tables import CORNER_OFFSETS, CORNER_PAIRS, TRI_TABLE
from .geometry import SeparableSurface, curvature_batch

__all__ = [
    "GridSpec",
    "Mesh",
    "SCAN_SUBDIVISIONS",
    "solve_z",
    "solve_axis",
    "solve_many",
    "sample_points",
    "marching_cubes",
    "export_obj",
    "export_report",
]

# fixed number of scan subdivisions; bounds how many roots per column are
# detectable, in exchange for determinism
SCAN_SUBDIVISIONS = 256
_BISECT_ITERS = 60  # halves a window of <= 1e5 down to <= 1e-13
_DEFAULT_SPAN = 16.0  # scan window for unbounded domains


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid: box bounds, per-axis resolution, jitter seed."""

    box: tuple[float, float, float, float, float, float]
    nx: int = 16
    ny: int = 16
    nz: int = 16
    seed: int = 42

    def __post_init__(self):
        x0, x1, y0, y1, z0, z1 = self.box
        if not (x0 < x1 and y0 < y1 and z0 < z1):
            raise ValueError(f"empty box {self.box}")
        if min(self.nx, self.ny, self.nz) < 2:
            raise ValueError("resolution must be >= 2 per axis")

    def to_json(self) -> dict:
        return {
            "box": list(self.box),
            "nx": self.nx,
            "ny": self.ny,
            "nz": self.nz,
            "seed": self.seed,
        }


@dataclass
class Mesh:
    vertices: np.ndarray  # (N, 3)
    triangles: np.ndarray  # (M, 3) int, indices into vertices
    vertex_K: np.ndarray  # (N,), NaN at singular vertices
    skipped_cells: int = 0
    grid: Optional[GridSpec] = None


# -- column root engine ---------------------------------------------------------


def _axis_window(func, window: Optional[tuple[float, float]]) -> tuple[float, float]:
    lo, hi = func.domain
    if window is not None:
        lo, hi = max(lo, window[0]), min(hi, window[1])
    if math.isinf(lo):
        lo = -_DEFAULT_SPAN if math.isinf(hi) else hi - 2 * _DEFAULT_SPAN
    if math.isinf(hi):
        hi = lo + 2 * _DEFAULT_SPAN
    if not lo < hi:
        return (0.0, 0.0)  # empty window
    return (lo, hi)


def _solve_targets(func, targets: np.ndarray,
                   window: Optional[tuple[float, float]]) -> list[np.ndarray]:
    """All roots of func(t) = target_j inside the window, per target.

    Scan with SCAN_SUBDIVISIONS intervals, bracket sign changes, bisect a
    fixed 60 times (window/2^60 < 1e-13 for any window used here), then one
    Newton polish.  Vectorized over all brackets of all targets at once.
    """
    targets = np.asarray(targets, dtype=float)
    lo, hi = _axis_window(func, window)
    if not lo < hi:
        return [np.empty(0) for _ in targets]
    eps = 1e-12 * (abs(lo) + abs(hi) + 1.0)
    nodes = np.linspace(lo + eps, hi - eps, SCAN_SUBDIVISIONS + 1)
    vals = func.value_array(nodes)

    # brackets: consecutive finite nodes with a sign change of f - target
    resid = vals[None, :] - targets[:, None]  # (T, S+1)
    finite = np.isfinite(resid)
    sign_change = (resid[:, :-1] * resid[:, 1:] < 0.0) & finite[:, :-1] & finite[:, 1:]
    exact_hit = (resid[:, :-1] == 0.0) & finite[:, :-1]
    t_idx, s_idx = np.nonzero(sign_change)

    a = nodes[s_idx].copy()
    b = nodes[s_idx + 1].copy()
    fa = resid[t_idx, s_idx].copy()
    tgt = targets[t_idx]
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (a + b)
        fm = func.value_array(mid) - tgt
        left = (fa * fm) > 0.0  # root in the right half (NaN mid keeps left)
        left &= np.isfinite(fm)
        a = np.where(left, mid, a)
        fa = np.where(left, fm, fa)
        b = np.where(left, b, mid)
    root = 0.5 * (a + b)

    # one derivative polish step
    _, d1, _, _ = func.jet3_array(root)
    fr = func.value_array(root) - tgt
    with np.errstate(all="ignore"):
        stepped = root - fr / d1
    ok = np.isfinite(stepped) & (stepped > a - (b - a)) & (stepped < b + (b - a))
    root = np.where(ok, stepped, root)

    out: list[np.ndarray] = []
    for j in range(targets.size):
        mine = root[t_idx == j]
        hits = nodes[:-1][exact_hit[j]]
        allr = np.sort(np.concatenate([mine, hits]))
        if allr.size > 1:  # drop duplicates within scan resolution
            keep = np.concatenate([[True], np.diff(allr) > 1e-11 * (1.0 + np.abs(allr[1:]))])
            allr = allr[keep]
        out.append(allr)
    return out


def solve_axis(surface: SeparableSurface, axis: int, c1: float, c2: float,
               window: Optional[tuple[float, float]] = None) -> list[float]:
    """Roots along coordinate ``axis`` with the other two held at (c1, c2).

    (c1, c2) are the remaining coordinates in x, y, z order.
    """
    comps = surface.components
    others = [i for i in range(3) if i != axis]
    target = -(comps[others[0]].value(c1) + comps[others[1]].value(c2))
    roots = _solve_targets(comps[axis], np.array([target]), window)[0]
    return [float(r) for r in roots]


def solve_z(surface: SeparableSurface, x: float, y: float,
            window: Optional[tuple[float, float]] = None) -> list[float]:
    """All z with h(z) = -(f(x) + g(y)) inside h's domain, ascending."""
    return solve_axis(surface, 2, x, y, window)


def solve_many(surface: SeparableSurface, c1: np.ndarray, c2: np.ndarray,
               window: Optional[tuple[float, float]] = None,
               axis: int = 2) -> np.ndarray:
    """Batched solve over many columns; returns an (N, 3) point array.

    Points are ordered by (column index, ascending root), matching repeated
    scalar ``solve_axis`` calls bit for bit.
    """
    comps = surface.components
    others = [i for i in range(3) if i != axis]
    v1 = comps[others[0]].value_array(np.asarray(c1, dtype=float))
    v2 = comps[others[1]].value_array(np.asarray(c2, dtype=float))
    targets = -(v1 + v2)
    good = np.isfinite(targets)
    targets_checked = np.where(good, targets, np.inf)
    per_col = _solve_targets(comps[axis], targets_checked, window)
    pts = []
    for j, roots in enumerate(per_col):
        if not good[j]:
            continue
        for r in roots:
            p = [0.0, 0.0, 0.0]
            p[others[0]] = float(c1[j])
            p[others[1]] = float(c2[j])
            p[axis] = float(r)
            pts.append(p)
    if not pts:
        return np.empty((0, 3))
    return np.array(pts)


def sample_points(surface: SeparableSurface, grid: GridSpec,
                  axis: Optional[int] = None) -> np.ndarray:
    """On-surface points from jittered cell centers of the grid's base plane.

    For each (nx x ny) cell a jittered center is drawn (deterministic in the
    seed) and every root along the solving axis inside the box is kept.
    """
    if axis is None:
        axis = getattr(surface, "preferred_axis", 2)
    x0, x1, y0, y1, z0, z1 = grid.box
    spans = {0: (x0, x1), 1: (y0, y1), 2: (z0, z1)}
    others = [i for i in range(3) if i != axis]
    (a0, a1), (b0, b1) = spans[others[0]], spans[others[1]]
    na, nb = (grid.nx, grid.ny) if axis == 2 else (
        (grid.nx, grid.nz) if axis == 1 else (grid.ny, grid.nz))
    rng = np.random.default_rng(grid.seed)
    jit = rng.random((na, nb, 2))
    ia = np.repeat(np.arange(na), nb)
    ib = np.tile(np.arange(nb), na)
    da, db = (a1 - a0) / na, (b1 - b0) / nb
    c1 = a0 + (ia + jit[ia, ib, 0]) * da
    c2 = b0 + (ib + jit[ia, ib, 1]) * db
    return solve_many(surface, c1, c2, spans[axis], axis=axis)


# -- marching cubes ---------------------------------------------------------------


def _polish_on_edges(func, t: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     flo: np.ndarray, target: np.ndarray) -> np.ndarray:
    """<=5 safeguarded Newton steps for func(t) = target on [lo, hi], per row.

    ``flo`` is func(lo).  A row stops once its residual is within 1e-12 or
    its jet is undefined; a Newton step leaving the bracket is replaced by
    bisection.
    """
    t, a, b = t.copy(), lo.copy(), hi.copy()
    fa = flo - target
    rows = np.flatnonzero(np.isfinite(fa))
    for _ in range(5):
        if not rows.size:
            break
        jet = func.jet3_array(t[rows])
        r = jet[0] - target[rows]
        go = np.all(np.isfinite(jet), axis=0) & (np.abs(r) > 1e-12)
        rows, r, d1, tr = rows[go], r[go], jet[1][go], t[rows][go]
        right = r * fa[rows] > 0
        a[rows] = np.where(right, tr, a[rows])
        fa[rows] = np.where(right, r, fa[rows])
        b[rows] = np.where(right, b[rows], tr)
        with np.errstate(all="ignore"):
            nt = tr - r / d1
        inside = (d1 != 0.0) & (a[rows] < nt) & (nt < b[rows])
        t[rows] = np.where(inside, nt, 0.5 * (a[rows] + b[rows]))
    return t


def marching_cubes(surface: SeparableSurface, grid: GridSpec) -> Mesh:
    """Triangulate the zero set inside the grid box.

    Cells whose corners fail to evaluate (domain edges) are skipped and
    counted.  The per-cell pass numbers the cut-edge vertices by first
    occurrence; all vertices are then placed at once, per axis: linear
    interpolation on their grid edge, then a batched Newton projection onto
    the zero set along that edge.  Per-vertex curvature comes from the
    batched separable formula (NaN where singular).
    """
    x0, x1, y0, y1, z0, z1 = grid.box
    nodes = (np.linspace(x0, x1, grid.nx + 1),
             np.linspace(y0, y1, grid.ny + 1),
             np.linspace(z0, z1, grid.nz + 1))
    comps = surface.components
    vals = [c.value_array(n) for c, n in zip(comps, nodes)]
    F = vals[0][:, None, None] + vals[1][None, :, None] + vals[2][None, None, :]

    inside = F < 0.0  # NaN compares False, poisoning the cells it touches
    finite = np.isfinite(F)

    # case index per cell, corners per the table layout
    case = np.zeros((grid.nx, grid.ny, grid.nz), dtype=np.int32)
    ok = np.ones_like(case, dtype=bool)
    for bit, (dx, dy, dz) in enumerate(CORNER_OFFSETS):
        sub = inside[dx:grid.nx + dx, dy:grid.ny + dy, dz:grid.nz + dz]
        fin = finite[dx:grid.nx + dx, dy:grid.ny + dy, dz:grid.nz + dz]
        case |= sub.astype(np.int32) << bit
        ok &= fin

    active = ok & (case != 0) & (case != 255)
    skipped = int(np.count_nonzero(~ok))
    cells = np.argwhere(active)

    # edge e of a cell: its lower corner's offset and its axis
    edge_lo = []
    for a, b in CORNER_PAIRS:
        oa, ob = CORNER_OFFSETS[a], CORNER_OFFSETS[b]
        edge_lo.append((tuple(min(u, v) for u, v in zip(oa, ob)),
                        next(i for i in range(3) if oa[i] != ob[i])))
    vert_ids: dict[tuple[int, int, int, int], int] = {}
    tris: list[tuple[int, int, int]] = []

    def edge_vertex(ci: int, cj: int, ck: int, edge: int) -> int:
        (dx, dy, dz), axis = edge_lo[edge]
        return vert_ids.setdefault((ci + dx, cj + dy, ck + dz, axis), len(vert_ids))

    for ci, cj, ck in cells:
        tri_row = TRI_TABLE[case[ci, cj, ck]]
        for k in range(0, 16, 3):
            if tri_row[k] < 0:
                break
            ids = tuple(edge_vertex(ci, cj, ck, tri_row[k + o]) for o in range(3))
            if len(set(ids)) == 3:
                tris.append(ids)

    keys = np.array(list(vert_ids), dtype=np.int64).reshape(-1, 4)
    vertices = np.column_stack([nodes[i][keys[:, i]] for i in range(3)])
    for axis in range(3):
        rows = np.flatnonzero(keys[:, 3] == axis)
        lo = keys[rows, :3]
        hi = lo.copy()
        hi[:, axis] += 1
        va, vb = F[tuple(lo.T)], F[tuple(hi.T)]
        ta, tb = nodes[axis][lo[:, axis]], nodes[axis][hi[:, axis]]
        with np.errstate(all="ignore"):
            t = np.where(vb == va, ta, ta + (tb - ta) * (0.0 - va) / (vb - va))
        t = np.minimum(np.maximum(t, ta), tb)
        o1, o2 = (i for i in range(3) if i != axis)
        target = -(vals[o1][lo[:, o1]] + vals[o2][lo[:, o2]])
        vertices[rows, axis] = _polish_on_edges(
            comps[axis], t, ta, tb, vals[axis][lo[:, axis]], target)
    triangles = np.array(tris, dtype=np.int64) if tris else np.empty((0, 3), dtype=np.int64)

    return Mesh(vertices, triangles, curvature_batch(surface, vertices),
                skipped_cells=skipped, grid=grid)


# -- exporters ----------------------------------------------------------------------


def export_obj(mesh: Mesh, path: str) -> None:
    """OBJ with v/f records: 1-based indices, LF endings, 17 significant digits."""
    lines = []
    for x, y, z in mesh.vertices:
        lines.append(f"v {x:.17g} {y:.17g} {z:.17g}")
    for a, b, c in mesh.triangles:
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")


def export_report(mesh: Mesh, path) -> None:
    """JSON sidecar carrying per-vertex K (OBJ has no scalar attributes)."""
    doc = {
        "K": [None if not math.isfinite(k) else k for k in mesh.vertex_K],
        "skipped_cells": mesh.skipped_cells,
        "grid": mesh.grid.to_json() if mesh.grid is not None else None,
    }
    text = json.dumps(doc, indent=2, allow_nan=False)
    if hasattr(path, "write"):
        path.write(text + "\n")
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text + "\n")
