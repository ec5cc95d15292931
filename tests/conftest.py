"""Shared test helpers: random expression trees and five oracles.

``eval_math`` is a scalar evaluator over the ``math`` module, written apart
from the library's numpy evaluator so that the two can be compared.

``eval_array_recursive`` is the array evaluator as it was before constants
became scalars: every constant is a full array, so ``pow`` by a constant
takes numpy's array-exponent loop.  Wherever a tree has no ``pow``, the
two agree bit for bit.

``solve_many_loop`` is the column root engine as a per-target loop: a dense
sign-change scan of the 257 evenly spaced nodes for every target, then the
same root method per bracket as ``sampler._solve_targets``.  A bracket in
a node interval where the enclosure of h' excludes 0 goes to the engine's
bracketed Newton kernel, started where the engine starts it (the inverse
cubic Hermite point of the bracket's node values and slopes); every other
bracket takes a plain loop of the same bisection and Newton polish.  The
roots of each column are picked out, sorted and de-duplicated one column
at a time, and the points are built one by one.  Wherever the engine
inserts no critical point into a bracketing interval, the two agree bit
for bit.  With ``certify=False`` every bracket is bisected: that is the
accuracy reference for the Newton kernel.

``marching_cubes_loop`` is marching cubes as a per-cell loop: each active
cell's table row is walked slot by slot and a dict keyed by (grid corner,
axis) numbers the vertices by first occurrence; degenerate triangles are
dropped.  Vertex placement and curvature reuse the library's batched pass.

The finite-difference oracle is pure central differencing of the expression
itself, evaluated in extended precision so that stencil roundoff stays far
below the 1e-6 comparison tolerance; the second/third derivatives use
Richardson-combined central stencils.  It never touches the symbolic
derivative trees it checks.
"""

import math

import numpy as np

from sepsurf import sampler
from sepsurf._mc_tables import CORNER_OFFSETS, CORNER_PAIRS, TRI_TABLE
from sepsurf.geometry import curvature_batch
from sepsurf.expr import (
    Binary,
    Const,
    EvalDomainError,
    Func1D,
    Unary,
    Var,
    eval_array,
    simplify,
)

_UNARY_OPS = ("neg", "sin", "cos", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "abs")
_POW_EXPONENTS = (2.0, 3.0, -1.0, -2.0, 0.5, 1.5)

_L = np.longdouble


def eval_math(node, x: float) -> float:
    """Reference scalar evaluation with the ``math`` module.

    Raises EvalDomainError outside the real domain, like ``evaluate``.
    """
    try:
        v = _eval_math(node, float(x))
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise EvalDomainError(str(exc)) from exc
    if not math.isfinite(v):
        raise EvalDomainError(f"non-finite value {v!r}")
    return v


def _eval_math(node, x: float) -> float:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Unary):
        a = _eval_math(node.arg, x)
        if node.op == "neg":
            return -a
        if node.op in ("log", "sqrt") and a <= 0.0:
            raise EvalDomainError(f"{node.op} of non-positive {a!r}")
        if node.op == "abs":
            return abs(a)
        return getattr(math, node.op)(a)
    a = _eval_math(node.lhs, x)
    b = _eval_math(node.rhs, x)
    if node.op == "add":
        return a + b
    if node.op == "sub":
        return a - b
    if node.op == "mul":
        return a * b
    if node.op == "div":
        if b == 0.0:
            raise EvalDomainError("division by zero")
        return a / b
    if b == int(b):
        if a == 0.0 and b < 0:
            raise EvalDomainError("zero base with negative integer exponent")
        return a ** int(b)
    if a <= 0.0:
        raise EvalDomainError(f"non-positive base {a!r} with non-integer exponent {b!r}")
    return a ** b


def eval_array_recursive(node, xs: np.ndarray) -> np.ndarray:
    """Reference array evaluation by recursion, constants as full arrays."""
    with np.errstate(all="ignore"):
        out = _eval_recursive(node, xs)
        return np.where(np.isfinite(out), out, np.nan)


def _eval_recursive(node, xs):
    if isinstance(node, Const):
        return np.full(xs.shape, node.value, dtype=xs.dtype)
    if isinstance(node, Var):
        return xs.copy()
    if isinstance(node, Unary):
        a = _eval_recursive(node.arg, xs)
        if node.op == "neg":
            return -a
        if node.op in ("log", "sqrt"):
            return np.where(a > 0.0, getattr(np, node.op)(np.where(a > 0.0, a, 1.0)), np.nan)
        return getattr(np, node.op)(a)
    a = _eval_recursive(node.lhs, xs)
    b = _eval_recursive(node.rhs, xs)
    if node.op == "add":
        return a + b
    if node.op == "sub":
        return a - b
    if node.op == "mul":
        return a * b
    if node.op == "div":
        return np.where(b != 0.0, a / np.where(b != 0.0, b, 1.0), np.nan)
    return np.power(a, b)


def random_tree(rng: np.random.Generator, depth: int = 4, with_pow: bool = True):
    """Random expression tree of bounded depth over the full grammar, or
    over all of it but ``^`` when ``with_pow`` is false."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var("x")
        return Const(float(np.round(rng.uniform(-2, 2), 3)))
    r = rng.random()
    if r < 0.45:
        op = ("add", "sub", "mul", "div")[int(rng.integers(4))]
        return Binary(op, random_tree(rng, depth - 1, with_pow),
                      random_tree(rng, depth - 1, with_pow))
    if r < 0.62 and with_pow:
        p = float(_POW_EXPONENTS[int(rng.integers(len(_POW_EXPONENTS)))])
        return Binary("pow", random_tree(rng, depth - 1), Const(p))
    op = _UNARY_OPS[int(rng.integers(len(_UNARY_OPS)))]
    return Unary(op, random_tree(rng, depth - 1, with_pow))


def _stencil(f: Func1D, x: float, offsets) -> np.ndarray:
    xs = np.array([_L(x) + _L(o) for o in offsets], dtype=_L)
    v = eval_array(f.ast, xs)
    if not np.all(np.isfinite(v)):
        raise EvalDomainError("stencil point out of domain")
    return v


def fd_d1(f: Func1D, x: float, h: float = 1e-5) -> float:
    v = _stencil(f, x, (-h, h))
    return float((v[1] - v[0]) / (2 * _L(h)))


def _fd_d2_plain(f, x, h):
    v = _stencil(f, x, (-h, 0.0, h))
    return (v[2] - 2 * v[1] + v[0]) / _L(h) ** 2


def _fd_d3_plain(f, x, h):
    v = _stencil(f, x, (-2 * h, -h, h, 2 * h))
    return (v[3] - 2 * v[2] + 2 * v[1] - v[0]) / (2 * _L(h) ** 3)


def fd_d2(f: Func1D, x: float, h: float = 1e-4) -> float:
    return float((4 * _fd_d2_plain(f, x, 0.5 * h) - _fd_d2_plain(f, x, h)) / 3)


def fd_d3(f: Func1D, x: float, h: float = 1e-3) -> float:
    return float((4 * _fd_d3_plain(f, x, 0.5 * h) - _fd_d3_plain(f, x, h)) / 3)


def fd_jets(f: Func1D, x: float) -> tuple[float, float, float]:
    return (fd_d1(f, x), fd_d2(f, x), fd_d3(f, x))


def draw_fd_case(rng: np.random.Generator, depth: int = 4):
    """A random (Func1D, x, fd-jets) triple the oracle certifies as reliable.

    Rejection: domain errors anywhere on the stencils, huge magnitudes, and
    step-halving disagreement (which filters kinks and near-singularities
    inside the stencil window).
    """
    while True:
        tree = simplify(random_tree(rng, depth))
        x = float(rng.uniform(-3, 3))
        try:
            f = Func1D(tree)
            jet = f.jet3(x)
            if any(abs(v) > 1e6 for v in jet.as_tuple()):
                continue
            a = (fd_d1(f, x, 1e-5), fd_d2(f, x, 1e-4), fd_d3(f, x, 1e-3))
            b = (fd_d1(f, x, 7e-6), fd_d2(f, x, 7e-5), fd_d3(f, x, 7e-4))
        except (EvalDomainError, OverflowError):
            continue
        if any(abs(ai - bi) > 1e-7 * (1 + abs(ai)) for ai, bi in zip(a, b)):
            continue
        return f, x, jet, a


def solve_targets_loop(func, targets, window, certify=True):
    """Roots of func(t) = target_j in the window, one ascending array per target."""
    targets = np.asarray(targets, dtype=float)
    lo, hi = sampler._axis_window(func, window)
    if not lo < hi:
        return [np.empty(0) for _ in targets]
    eps = 1e-12 * (abs(lo) + abs(hi) + 1.0)
    nodes = np.linspace(lo + eps, hi - eps, sampler.SCAN_SUBDIVISIONS + 1)
    vals = func.value_array(nodes)
    resid = vals[None, :] - targets[:, None]
    finite = np.isfinite(resid)
    sign_change = (resid[:, :-1] * resid[:, 1:] < 0.0) & finite[:, :-1] & finite[:, 1:]
    exact_hit = (resid[:, :-1] == 0.0) & finite[:, :-1]
    t_idx, s_idx = np.nonzero(sign_change)

    d1_lo, d1_hi = func._d1_enclosure(nodes[:-1], nodes[1:])
    newton = ((d1_lo > 0.0) | (d1_hi < 0.0))[s_idx] & certify
    root = np.empty(t_idx.size)
    n_idx = np.flatnonzero(newton)
    t_n, s_n = t_idx[n_idx], s_idx[n_idx]
    d1 = func.d1_array(nodes)
    start = sampler._hermite_start(targets[t_n], nodes[s_n], nodes[s_n + 1], vals[s_n],
                                   vals[s_n + 1], d1[s_n], d1[s_n + 1])
    root[n_idx] = sampler._newton(func, targets[t_n], nodes[s_n], nodes[s_n + 1],
                                  resid[t_n, s_n], start)

    t_b, s_b = t_idx[~newton], s_idx[~newton]
    a = nodes[s_b].copy()
    b = nodes[s_b + 1].copy()
    fa = resid[t_b, s_b].copy()
    tgt = targets[t_b]
    for _ in range(sampler._BISECT_ITERS):
        mid = 0.5 * (a + b)
        fm = func.value_array(mid) - tgt
        left = ((fa * fm) > 0.0) & np.isfinite(fm)
        a = np.where(left, mid, a)
        fa = np.where(left, fm, fa)
        b = np.where(left, b, mid)
    mid = 0.5 * (a + b)
    _, d1, _, _ = func.jet3_array(mid)
    fr = func.value_array(mid) - tgt
    with np.errstate(all="ignore"):
        stepped = mid - fr / d1
    ok = np.isfinite(stepped) & (stepped > a - (b - a)) & (stepped < b + (b - a))
    root[~newton] = np.where(ok, stepped, mid)

    out = []
    for j in range(targets.size):
        allr = np.sort(np.concatenate([root[t_idx == j], nodes[:-1][exact_hit[j]]]))
        if allr.size > 1:
            keep = np.concatenate([[True], np.diff(allr) > 1e-11 * (1.0 + np.abs(allr[1:]))])
            allr = allr[keep]
        out.append(allr)
    return out


def solve_many_loop(surface, c1, c2, window=None, axis=2, certify=True):
    """(N, 3) points column by column, ascending roots within a column."""
    comps = surface.components
    others = [i for i in range(3) if i != axis]
    v1 = comps[others[0]].value_array(np.asarray(c1, dtype=float))
    v2 = comps[others[1]].value_array(np.asarray(c2, dtype=float))
    targets = -(v1 + v2)
    good = np.isfinite(targets)
    per_col = solve_targets_loop(comps[axis], np.where(good, targets, np.inf), window, certify)
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
    return np.array(pts) if pts else np.empty((0, 3))


def marching_cubes_loop(surface, grid):
    """``sampler.marching_cubes`` with the per-cell loop and dict vertex cache."""
    x0, x1, y0, y1, z0, z1 = grid.box
    nodes = (np.linspace(x0, x1, grid.nx + 1),
             np.linspace(y0, y1, grid.ny + 1),
             np.linspace(z0, z1, grid.nz + 1))
    comps = surface.components
    vals = [c.value_array(n) for c, n in zip(comps, nodes)]
    F = vals[0][:, None, None] + vals[1][None, :, None] + vals[2][None, None, :]
    inside = F < 0.0
    finite = np.isfinite(F)

    case = np.zeros((grid.nx, grid.ny, grid.nz), dtype=np.int32)
    ok = np.ones_like(case, dtype=bool)
    for bit, (dx, dy, dz) in enumerate(CORNER_OFFSETS):
        case |= inside[dx:grid.nx + dx, dy:grid.ny + dy, dz:grid.nz + dz].astype(np.int32) << bit
        ok &= finite[dx:grid.nx + dx, dy:grid.ny + dy, dz:grid.nz + dz]
    active = ok & (case != 0) & (case != 255)
    skipped = int(np.count_nonzero(~ok))

    edge_lo = []
    for a, b in CORNER_PAIRS:
        oa, ob = CORNER_OFFSETS[a], CORNER_OFFSETS[b]
        edge_lo.append((tuple(min(u, v) for u, v in zip(oa, ob)),
                        next(i for i in range(3) if oa[i] != ob[i])))
    vert_ids = {}
    tris = []
    for ci, cj, ck in np.argwhere(active):
        tri_row = TRI_TABLE[case[ci, cj, ck]]
        for k in range(0, 16, 3):
            if tri_row[k] < 0:
                break
            ids = []
            for o in range(3):
                (dx, dy, dz), axis = edge_lo[tri_row[k + o]]
                key = (ci + dx, cj + dy, ck + dz, axis)
                ids.append(vert_ids.setdefault(key, len(vert_ids)))
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
        vertices[rows, axis] = sampler._polish_on_edges(
            comps[axis], t, ta, tb, vals[axis][lo[:, axis]], target)
    triangles = np.array(tris, dtype=np.int64) if tris else np.empty((0, 3), dtype=np.int64)
    return sampler.Mesh(vertices, triangles, curvature_batch(surface, vertices),
                        skipped_cells=skipped, grid=grid)
