"""On-surface sampling and isosurface meshing.

Every column along a coordinate axis solves h(t) = target for the same
one-variable h; only the target changes.  So the root engine builds one
node set per call, independent of the targets: 257 evenly spaced nodes plus
the critical points of h (bisected on h') where h' changes sign between
them.  Each monotone run of node values brackets a target at most once.
The targets are sorted once, and one binary search of the sorted targets
per run finds that bracket for all columns at once; exact hits on nodes
come from searching the sorted node values in the sorted targets.  An
evenly spaced interval that a critical point split is also searched whole,
so every root a scan of the 257 nodes finds is kept.  An interval
enclosure of h' over each node interval (``expr.enclose``) that excludes 0
proves h strictly monotone there, so a bracket in such a certified interval
holds exactly one root: all of those take a bracketed Newton together.  It
starts from the inverse cubic Hermite interpolant of the bracket's node
values and slopes, and most roots converge after two steps, each one walk
of h for value and slope.  Every other bracket (a tabulated h, an
enclosure holding 0 or NaN, a split interval searched whole) is bisected
to 1e-13 and takes one Newton polish.  Both end one Newton step from a
point within an ulp or two of the root, so they agree to about an ulp
where the root is well conditioned.  A stable sort of the column index
then groups the roots (a ``lexsort`` runs only where a column's roots do
not already ascend), and duplicates are dropped.  Time is O(columns * log
columns + runs * columns * log nodes + roots), memory O(columns + roots).
The same engine backs the one-column ``solve_axis`` and the batched
samplers, so both produce bit-identical roots.

Meshes come from the standard 256-case marching-cubes tables (Lorensen &
Cline 1987), applied to all cells at once through global grid-edge ids,
with vertices re-projected onto the zero set along their grid edge in one
batched pass.  Everything is deterministic given the grid spec (seed
included); columns and cells are processed in a fixed order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._mc_tables import CORNER_OFFSETS, EDGE_AXIS, EDGE_LO, TRI_TABLE
from .geometry import SeparableSurface, curvature_batch

__all__ = [
    "GridSpec",
    "Mesh",
    "SCAN_SUBDIVISIONS",
    "solve_axis",
    "solve_many",
    "sample_points",
    "marching_cubes",
    "export_obj",
    "export_report",
]

# evenly spaced intervals of the root engine's window.  Critical points of h
# are found where h' changes sign between neighbouring nodes, so an interval
# holding two critical points is not split and may hide a root pair; a
# tangency (double root) is found only when its critical value equals the
# target exactly
SCAN_SUBDIVISIONS = 256
_BISECT_ITERS = 60  # halves a window of <= 1e5 down to <= 1e-13
_RETIRE_EVERY = 4  # bisection iterations between retirement checks
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


def _bisect(fn, target: np.ndarray, a: np.ndarray, b: np.ndarray,
            fa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Halve every bracket [a, b] of fn(t) = target, _BISECT_ITERS times.

    ``fa`` is fn(a) - target per row.  A non-finite midpoint value keeps the
    left half.  Every _RETIRE_EVERY-th iteration, rows that it left with the
    same a, b and fa retire: that state is a fixed point of the update, so
    the result stays bit for bit the same.
    """
    a, b = a.copy(), b.copy()
    rows = np.arange(a.size)
    al, bl, fal, tl = a, b, fa, target
    for i in range(_BISECT_ITERS):
        if not rows.size:
            break
        mid = 0.5 * (al + bl)
        fm = fn(mid) - tl
        left = (fal * fm) > 0.0  # root in the right half (NaN mid keeps left)
        left &= np.isfinite(fm)
        check = i % _RETIRE_EVERY == _RETIRE_EVERY - 1
        if check:
            moved = np.where(left, (mid != al) | (fm != fal), mid != bl)
        al = np.where(left, mid, al)
        fal = np.where(left, fm, fal)
        bl = np.where(left, bl, mid)
        if check and not moved.all():
            done = ~moved
            a[rows[done]], b[rows[done]] = al[done], bl[done]
            rows, al, bl, fal, tl = (v[moved] for v in (rows, al, bl, fal, tl))
    a[rows], b[rows] = al, bl
    return a, b


def _bisect_polished(func, target: np.ndarray, a: np.ndarray, b: np.ndarray,
                     fa: np.ndarray) -> np.ndarray:
    """Roots of func(t) = target in [a, b]: _bisect, then one Newton polish
    from the midpoint, kept where it stays within one bracket width."""
    a, b = _bisect(func.value_array, target, a, b, fa)
    root = 0.5 * (a + b)
    fr = func.value_array(root) - target
    with np.errstate(all="ignore"):
        stepped = root - fr / func.d1_array(root)
    ok = np.isfinite(stepped) & (stepped > a - (b - a)) & (stepped < b + (b - a))
    return np.where(ok, stepped, root)


def _newton(func, target: np.ndarray, a: np.ndarray, b: np.ndarray,
            fa: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Roots of func(t) = target by bracketed Newton, for brackets [a, b]
    that each hold exactly one root.

    This is ``rtsafe`` (Press et al., *Numerical Recipes*, 3rd ed., 9.4) on
    all rows at once.  ``fa`` is func(a) - target per row; each row starts
    at ``x``, a point inside its bracket.  Each step takes the value and
    slope at the point from one walk of the expression.  A row converges
    where its value is 0 or its Newton step is at most one ulp of the
    point, and then returns that step's end.  This is tested before the
    bracket is consulted: at the root the point is about to become a
    bracket end, so the step could not land strictly inside.  (Stopping at
    two ulps instead ends on the far neighbour of the root more often than
    the bisection does.)  Converged rows retire there.  Every other row
    moves the bracket end on the point's side up to the point (a
    non-finite value keeps the left half, as in _bisect), then takes the
    Newton step where it is finite, lands strictly inside the bracket and
    is at most half the step before last; else it bisects, and stops once
    bisection no longer moves it.  After _BISECT_ITERS steps the rest keep
    their last point.  Each row's result depends on that row alone.  From
    _hermite_start's point most rows converge on the second step, so a
    root costs about two walks.
    """
    out = np.empty(target.size)
    rows = np.arange(target.size)
    dx = b - a
    dx_old = dx
    for _ in range(_BISECT_ITERS):
        if not rows.size:
            break
        f, d = func._masked_cols(x, (0, 1))
        f -= target
        with np.errstate(all="ignore"):
            step = f / d
        xn = x - step
        converged = (f == 0.0) | (np.abs(step) <= np.spacing(np.abs(x)))
        if converged.any():
            out[rows[converged]] = np.where(f == 0.0, x, xn)[converged]
            keep = ~converged
            rows, x, f, d, step, xn, a, b, fa, target, dx, dx_old = (
                v[keep] for v in (rows, x, f, d, step, xn, a, b, fa, target, dx, dx_old))
        right = f * fa > 0.0  # x on a's side: the root is in (x, b)
        a, fa, b = np.where(right, x, a), np.where(right, f, fa), np.where(right, b, x)
        newton = (np.isfinite(xn) & (xn > a) & (xn < b)
                  & (np.abs(2.0 * f) <= np.abs(dx_old * d)))
        nxt = np.where(newton, xn, 0.5 * (a + b))
        dx_old, dx = dx, np.where(newton, step, 0.5 * (b - a))
        stuck = nxt == x
        if stuck.any():
            out[rows[stuck]] = nxt[stuck]
            keep = ~stuck
            rows, nxt, a, b, fa, target, dx, dx_old = (
                v[keep] for v in (rows, nxt, a, b, fa, target, dx, dx_old))
        x = nxt
    out[rows] = x
    return out


def _hermite_start(target: np.ndarray, a: np.ndarray, b: np.ndarray, va: np.ndarray,
                   vb: np.ndarray, da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Newton start in each bracket [a, b] of a strictly monotone func.

    The inverse of func runs from (va, a) to (vb, b) with slopes 1 / da and
    1 / db, where va, vb are func's values and da, db its slopes at a and b;
    the start is that inverse's cubic Hermite interpolant at the target:
    with s = (target - va) / (vb - va) and h = b - a, the secant point
    a + s h plus s (1 - s) ((vb - va) ((1 - s) / da - s / db) - h (1 - 2 s)).
    Where that point is not finite or not strictly inside (a, b), the
    secant point is taken, and where that fails too, the midpoint.
    """
    with np.errstate(all="ignore"):
        h = b - a
        s = (target - va) / (vb - va)
        secant = a + s * h
        x = secant + s * (1.0 - s) * ((vb - va) * ((1.0 - s) / da - s / db)
                                      - h * (1.0 - 2.0 * s))
    x = np.where(np.isfinite(x) & (x > a) & (x < b), x, secant)
    return np.where(np.isfinite(x) & (x > a) & (x < b), x, 0.5 * (a + b))


def _critical_points(func, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """func' at the nodes, and the critical points of func between
    neighbouring nodes as (k, point).

    Nodes k and k + 1 whose derivatives have strictly opposite signs (NaN
    has none) hold a critical point; it is bisected on func' and kept where
    it lies strictly inside the interval.  A node where func' is exactly 0
    already bounds the monotone runs on either side of it and adds nothing.
    """
    d1 = func.d1_array(nodes)
    k = np.flatnonzero(np.sign(d1[:-1]) * np.sign(d1[1:]) < 0.0)
    a, b = _bisect(func.d1_array, np.zeros(k.size), nodes[k], nodes[k + 1], d1[k])
    crit = 0.5 * (a + b)
    inside = (crit > nodes[k]) & (crit < nodes[k + 1])
    return d1, k[inside], crit[inside]


def _solve_targets(func, targets: np.ndarray,
                   window: Optional[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    """All roots of func(t) = target_j inside the window, as flat arrays.

    Returns ``(column, root)``: the target index and the root, ordered by
    column, then ascending root.  The node set does not depend on the
    targets: SCAN_SUBDIVISIONS + 1 evenly spaced nodes plus the critical
    points of func where func' changes sign between them.  The finite node
    values split into strictly monotone runs.  The targets are sorted once
    (NaN last); in each run one ``searchsorted`` of the sorted targets
    (negated and reversed on a decreasing run) names the only interval that
    can bracket each target, and the sign-change test, back in column
    order, accepts or rejects it.  Exact hits on nodes (all but the last)
    come from a search of the sorted finite node values in the sorted
    targets.  On the same node set, brackets and hits equal those of a
    dense sign-change scan of every node pair for every target.  An evenly
    spaced interval that a critical point split is searched whole as well:
    its bracket, bisected as before, gives the root a scan of the evenly
    spaced nodes alone finds, which the halves may miss when the interval
    holds three roots.  A bracket in a node interval where the enclosure of
    func' excludes 0 holds exactly one root and goes to _newton.  Every
    other bracket (that whole split interval included, which is never
    certified) is bisected a fixed 60 times (window/2^60 < 1e-13 for any
    window used here) and takes one Newton polish, as _bisect_polished.
    Newton starts at _hermite_start's point, from the bracket's node values
    and slopes (func' at the evenly spaced nodes, 0 at a critical point,
    where the start falls back to the secant).  On a certified bracket both
    find the same root, to about an ulp, and Newton takes about two steps
    instead of about 48 halvings.

    The brackets arrive run by run, each run in column order, and the hits
    last, so a stable sort of the column index groups them by column.  The
    roots then ascend within each column unless a split interval's root or
    a hit lies left of a run's root (or a root is NaN); only then does a
    ``lexsort`` order them by root as well.  Roots within 1e-11 (relative)
    of the previous one in their column are dropped.
    """
    targets = np.asarray(targets, dtype=float)
    lo, hi = _axis_window(func, window)
    if not lo < hi or not targets.size:
        return np.empty(0, dtype=np.intp), np.empty(0)
    eps = 1e-12 * (abs(lo) + abs(hi) + 1.0)
    grid = np.linspace(lo + eps, hi - eps, SCAN_SUBDIVISIONS + 1)
    grid_vals = func.value_array(grid)
    grid_d1, split, crit = _critical_points(func, grid)
    nodes = np.insert(grid, split + 1, crit)
    vals = np.insert(grid_vals, split + 1, func.value_array(crit))
    slopes = np.insert(grid_d1, split + 1, 0.0)  # func' vanishes at a critical point
    # an enclosure of func' that excludes 0 proves func strictly monotone on
    # the interval, so a bracket there holds exactly one root
    d1_lo, d1_hi = func._d1_enclosure(nodes[:-1], nodes[1:])
    certified = (d1_lo > 0.0) | (d1_hi < 0.0)

    # monotone runs, as the indices of their nodes: maximal stretches of
    # finite node pairs stepping the same strict direction (equal neighbours
    # bracket nothing and join no run)
    finite = np.isfinite(vals)
    with np.errstate(invalid="ignore"):
        step = np.where(finite[:-1] & finite[1:], np.sign(np.diff(vals)), 0.0)
    edges = np.flatnonzero(np.diff(step, prepend=0.0, append=0.0))
    runs = [np.arange(i0, i1 + 1)
            for i0, i1 in zip(edges[:-1].tolist(), edges[1:].tolist()) if step[i0] != 0.0]
    # a grid interval split by a critical point is also searched whole (the
    # j-th split interval starts at node k + j and ends two nodes on)
    runs += [np.array([k + j, k + j + 2]) for j, k in enumerate(split.tolist())]

    # brackets: per run, the one interval where f - target may change sign,
    # searched for the sorted targets and tested in column order
    order = np.argsort(targets)
    st = targets[order]
    st_desc = (-st)[::-1]
    pos = np.empty(targets.size, dtype=np.intp)
    parts = [(np.empty(0, dtype=np.intp),) * 3]
    for idx in runs:
        vs = vals[idx]
        if vs[1] > vs[0]:
            pos[order] = np.searchsorted(vs, st)
        else:
            pos[order] = np.searchsorted(-vs, st_desc)[::-1]
        k = np.clip(pos - 1, 0, vs.size - 2)
        ra, rb = vs[k] - targets, vs[k + 1] - targets
        with np.errstate(over="ignore"):  # an overflowed product keeps its sign
            t = np.flatnonzero((ra * rb < 0.0) & np.isfinite(ra) & np.isfinite(rb))
        k = k[t]
        parts.append((t, idx[k], idx[k + 1]))
    t_idx, left, right = (np.concatenate(p) for p in zip(*parts))
    cert = certified[left] & (right == left + 1)

    # exact hits: the finite values of nodes[:-1] equal to a target, found
    # by searching the sorted node values in the sorted targets
    ids = np.flatnonzero(finite[:-1])
    ids = ids[np.argsort(vals[ids], kind="stable")]
    first = np.searchsorted(st, vals[ids], side="left")
    count = np.searchsorted(st, vals[ids], side="right") - first
    hit_s = np.repeat(ids, count)
    offset = np.arange(hit_s.size) - np.repeat(np.cumsum(count) - count, count)
    hit_t = order[np.repeat(first, count) + offset]

    tgt = targets[t_idx]
    fa = vals[left] - tgt
    root = np.empty(t_idx.size)
    rows = np.flatnonzero(cert)
    lr, rr = left[rows], right[rows]
    start = _hermite_start(tgt[rows], nodes[lr], nodes[rr], vals[lr], vals[rr],
                           slopes[lr], slopes[rr])
    root[rows] = _newton(func, tgt[rows], nodes[lr], nodes[rr], fa[rows], start)
    rows = np.flatnonzero(~cert)
    root[rows] = _bisect_polished(func, tgt[rows], nodes[left[rows]], nodes[right[rows]],
                                  fa[rows])

    # group by column, ascending; drop duplicates within scan resolution
    col = np.concatenate([t_idx, hit_t])
    root = np.concatenate([root, nodes[hit_s]])
    by_col = np.argsort(col, kind="stable")
    col, root = col[by_col], root[by_col]
    new_col = col[1:] != col[:-1]
    if not np.all(new_col | (root[1:] >= root[:-1])):  # a NaN root fails too
        by_root = np.lexsort((root, col))  # keeps col, and so new_col, as is
        col, root = col[by_root], root[by_root]
    keep = np.ones(col.size, dtype=bool)
    keep[1:] = new_col | (np.diff(root) > 1e-11 * (1.0 + np.abs(root[1:])))
    return col[keep], root[keep]


def solve_axis(surface: SeparableSurface, axis: int, c1: float, c2: float,
               window: Optional[tuple[float, float]] = None) -> list[float]:
    """Roots along coordinate ``axis`` with the other two held at (c1, c2).

    (c1, c2) are the remaining coordinates in x, y, z order.  A one-row
    view of the batched engine; raises EvalDomainError where c1 or c2 is
    outside its component's domain.
    """
    comps = surface.components
    others = [i for i in range(3) if i != axis]
    target = -(comps[others[0]].value(c1) + comps[others[1]].value(c2))
    return _solve_targets(comps[axis], np.array([target]), window)[1].tolist()


def solve_many(surface: SeparableSurface, c1: np.ndarray, c2: np.ndarray,
               window: Optional[tuple[float, float]] = None,
               axis: int = 2) -> np.ndarray:
    """Batched solve over many columns; returns an (N, 3) point array.

    Points are ordered by (column index, ascending root), matching repeated
    scalar ``solve_axis`` calls bit for bit.  Columns where c1 or c2 is
    outside its component's domain have no points.
    """
    comps = surface.components
    others = [i for i in range(3) if i != axis]
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    targets = -(comps[others[0]].value_array(c1) + comps[others[1]].value_array(c2))
    col, root = _solve_targets(comps[axis], targets, window)  # non-finite targets bracket nothing
    pts = np.empty((col.size, 3))
    pts[:, others[0]] = c1[col]
    pts[:, others[1]] = c2[col]
    pts[:, axis] = root
    return pts


def sample_points(surface: SeparableSurface, grid: GridSpec,
                  axis: Optional[int] = None) -> np.ndarray:
    """On-surface points from jittered cell centers of the grid's base plane.

    For each (nx x ny) cell a jittered center is drawn (deterministic in the
    seed) and every root along the solving axis inside the box is kept.
    """
    if axis is None:
        axis = surface.preferred_axis
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
    its value or slope is undefined; a Newton step leaving the bracket is
    replaced by bisection.
    """
    t, a, b = t.copy(), lo.copy(), hi.copy()
    fa = flo - target
    rows = np.flatnonzero(np.isfinite(fa))
    for _ in range(5):
        if not rows.size:
            break
        tr = t[rows]
        v, d1 = func.value_array(tr), func.d1_array(tr)
        r = v - target[rows]
        go = np.isfinite(v) & np.isfinite(d1) & (np.abs(r) > 1e-12)
        rows, r, d1, tr = rows[go], r[go], d1[go], tr[go]
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
    counted.  Each table slot of each active cell names the global id of
    the grid edge it cuts; vertices are numbered by the first slot, in cell
    then slot order, that names their edge.  All vertices are then placed
    at once, per axis: linear interpolation on their grid edge, then a
    batched Newton projection onto the zero set along that edge.  Per-vertex
    curvature comes from the batched separable formula (NaN where singular).
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
    case = np.zeros((grid.nx, grid.ny, grid.nz), dtype=np.uint8)
    ok = np.ones_like(case, dtype=bool)
    for bit, (dx, dy, dz) in enumerate(CORNER_OFFSETS):
        sub = inside[dx:grid.nx + dx, dy:grid.ny + dy, dz:grid.nz + dz]
        fin = finite[dx:grid.nx + dx, dy:grid.ny + dy, dz:grid.nz + dz]
        case |= sub.astype(np.uint8) << bit
        ok &= fin

    active = ok & (case != 0) & (case != 255)
    skipped = int(np.count_nonzero(~ok))

    # every table slot of every active cell, in cell-then-slot order, as
    # its edge's lower grid corner and axis; three slots make a triangle
    table = TRI_TABLE[case[active]]
    cell, slot = np.nonzero(table >= 0)
    edge = table[cell, slot]
    corner = np.argwhere(active)[cell] + EDGE_LO[edge]
    axes = EDGE_AXIS[edge]
    gid = ((corner[:, 0] * (grid.ny + 1) + corner[:, 1]) * (grid.nz + 1)
           + corner[:, 2]) * 3 + axes
    _, first, inv = np.unique(gid, return_index=True, return_inverse=True)
    triangles = np.argsort(np.argsort(first))[inv].reshape(-1, 3)
    v_slot = np.sort(first)
    v_lo, v_axis = corner[v_slot], axes[v_slot]

    vertices = np.column_stack([nodes[i][v_lo[:, i]] for i in range(3)])
    for axis in range(3):
        rows = np.flatnonzero(v_axis == axis)
        lo = v_lo[rows]
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

    return Mesh(vertices, triangles, curvature_batch(surface, vertices),
                skipped_cells=skipped, grid=grid)


# -- exporters ----------------------------------------------------------------------


def export_obj(mesh: Mesh, path: str) -> None:
    """OBJ with v/f records: 1-based indices, LF endings, 17 significant digits."""
    coords = np.asarray(mesh.vertices, dtype=float).ravel().tolist()
    corners = (np.asarray(mesh.triangles) + 1).ravel().tolist()
    text = ("v %.17g %.17g %.17g\n" * (len(coords) // 3)) % tuple(coords)
    text += ("f %d %d %d\n" * (len(corners) // 3)) % tuple(corners)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def export_report(mesh: Mesh, path) -> None:
    """JSON sidecar carrying per-vertex K (OBJ has no scalar attributes).

    The layout is ``json.dumps(doc, indent=2)``'s; the K list, the bulk of
    the file, is written as one join of ``float.__repr__`` (json's own float
    form) with ``null`` for non-finite K.
    """
    K = np.asarray(mesh.vertex_K, dtype=float)
    items = list(map(float.__repr__, K.tolist()))
    for i in np.flatnonzero(~np.isfinite(K)).tolist():
        items[i] = "null"
    k_text = "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"
    rest = json.dumps({
        "skipped_cells": mesh.skipped_cells,
        "grid": mesh.grid.to_json() if mesh.grid is not None else None,
    }, indent=2, allow_nan=False)
    text = '{\n  "K": ' + k_text + ",\n" + rest[2:]
    if hasattr(path, "write"):
        path.write(text + "\n")
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text + "\n")
