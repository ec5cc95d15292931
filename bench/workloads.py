"""Seeded workload definitions for the sepsurf benchmark.

Every input is generated here from the run's seed with Python's own
``random`` and ``math`` modules.  The generator never calls into sepsurf:
family specs are written as the JSON documents the public family classes
read (``{"family": tag, "params": {...}}``), and expressions come from the
benchmark's own pool below, so a change to the library cannot change the
inputs.  Each generated box is checked, with the formulas written out here,
to contain a regular point of its surface.

A workload is a list of rounds; round ``r`` of seed ``s`` is always the same
list of CLI jobs.  A run executes whole rounds, so every run of a workload
sees the same mix of job kinds.  A workload may also have a fixed set of
probe jobs that run once per run, untimed: the degenerate inputs that trip
known defects, so that their failures show in every run in the same number.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

# label the classifier must return for a well-formed instance of each family
EXPECTED_LABEL = {
    "right-cylinder": "right-cylinder",
    "translation": "translation",
    "rotational-parabolic": "rotational-flat",
    "generalized-cone": "generalized-cone",
    "exp-cylinder": "exp-cylinder",
    "conical-power": "conical-power",
    "rotational-cgc": "rotational-cgc",
}
TAGS = tuple(EXPECTED_LABEL)

# every label the classifier may return on valid input
VALID_LABELS = frozenset(EXPECTED_LABEL.values()) | {"not-constant-curvature"}

PRESET_BOXES = {
    "paper-fig1-left": (0.5, 2.0, 0.5, 2.0, 0.5, 2.0),
    "paper-fig1-middle": (-1.0, 1.0, -1.0, 1.0, -1.0, 1.0),
    "paper-fig1-right": (0.5, 2.0, 0.5, 2.0, -1.0, -0.26),
}
PRESET_LABEL = {
    "paper-fig1-left": "generalized-cone",
    "paper-fig1-middle": "exp-cylinder",
    "paper-fig1-right": "conical-power",
}
# a regular point of each preset surface, from its closed form:
# x^2/y = z, -e^x + e^y + e^z = 0, 1/x + 1/y + 1/z = 0
PRESET_POINT = {
    "paper-fig1-left": (1.0, 1.0, 1.0),
    "paper-fig1-middle": (math.log(2.0), 0.0, 0.0),
    "paper-fig1-right": (1.0, 1.0, -0.5),
}
PRESET_F = {
    "paper-fig1-left": lambda x, y, z: 2.0 * math.log(x) - math.log(y) - math.log(z),
    "paper-fig1-middle": lambda x, y, z: -math.exp(x) + math.exp(y) + math.exp(z),
    "paper-fig1-right": lambda x, y, z: 1.0 / x + 1.0 / y + 1.0 / z,
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus what its output must satisfy.

    ``argv`` never names output files: jobs with ``writes_mesh`` get
    ``--mesh``/``--report`` paths appended by the runner.
    """

    argv: tuple[str, ...]
    kind: str  # "curvature" | "classify" | "family" | "verify"
    label: Optional[str] = None  # expected classifier label, if known
    K: Optional[float] = None  # expected constant curvature, if known
    n: int = 0  # minimum number of sampled points
    writes_mesh: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_round: Callable[[random.Random], list]
    trace_rounds: int  # rounds the traced run covers
    make_probes: Optional[Callable[[random.Random], list]] = None
    counts_points: bool = False
    counts_triangles: bool = False


def round_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"sepsurf-bench:{workload}:{seed}:{index}")


def make_round(workload: str, seed: int, index: int) -> list:
    return WORKLOADS[workload].make_round(round_rng(seed, workload, index))


def make_probes(workload: str, seed: int) -> list:
    make = WORKLOADS[workload].make_probes
    return make(round_rng(seed, workload, "probes")) if make else []


# -- own arithmetic -------------------------------------------------------------


def _safe(fn, *args) -> float:
    try:
        v = fn(*args)
    except (ValueError, ZeroDivisionError, OverflowError):
        return math.nan
    return v if math.isfinite(v) else math.nan


def _grad_norm(F, p, h=1e-6) -> float:
    total = 0.0
    for i in range(3):
        a, b = list(p), list(p)
        a[i] -= h
        b[i] += h
        d = (_safe(F, *b) - _safe(F, *a)) / (2 * h)
        total += d * d
    return math.sqrt(total)


def check_regular_point(F, p, box, scale: float = 1.0) -> None:
    """Raise unless p lies in the box, on F = 0 and away from singular points."""
    x0, x1, y0, y1, z0, z1 = box
    x, y, z = p
    if not (x0 < x < x1 and y0 < y < y1 and z0 < z < z1):
        raise AssertionError(f"point {p} outside box {box}")
    v = _safe(F, *p)
    if not abs(v) <= 1e-9 * scale:
        raise AssertionError(f"point {p} is off the surface (F = {v!r})")
    g = _grad_norm(F, p)
    if not g > 1e-3:
        raise AssertionError(f"point {p} is singular (|grad F| = {g!r})")


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.uniform(lo, hi) * (1.0 if rng.random() < 0.5 else -1.0)


def _box_arg(box) -> str:
    # "--box=..." keeps argparse from reading a leading minus as an option
    return "--box=" + ",".join(repr(float(v)) for v in box)


# -- expression pool --------------------------------------------------------------
#
# From degree-1 polynomials to nested exp/cosh/sin compositions.  Each entry
# returns the source text for the CLI and a math-module evaluator for the
# benchmark's own checks.


def _lin(rng, v):
    a, b = _signed(rng, 0.5, 1.5), rng.uniform(-0.5, 0.5)
    return f"{a!r}*{v}+({b!r})", lambda t: a * t + b


def _quad(rng, v):
    a, b = _signed(rng, 0.5, 1.5), rng.uniform(-1.0, 1.0)
    return f"{a!r}*{v}^2+({b!r})*{v}", lambda t: a * t * t + b * t


def _cubic(rng, v):
    a, b = _signed(rng, 0.3, 1.0), rng.uniform(-1.0, 1.0)
    return f"{a!r}*{v}^3+({b!r})*{v}", lambda t: a * t ** 3 + b * t


def _exp(rng, v):
    c = _signed(rng, 0.5, 1.2)
    return f"exp({c!r}*{v})", lambda t: math.exp(c * t)


def _cosh(rng, v):
    c = rng.uniform(0.7, 1.3)
    return f"cosh({c!r}*{v})", lambda t: math.cosh(c * t)


def _sin(rng, v):
    a, c, d = _signed(rng, 0.5, 1.5), rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
    return f"{a!r}*sin({c!r}*{v}+({d!r}))", lambda t: a * math.sin(c * t + d)


def _exp_sin(rng, v):
    a, c = _signed(rng, 0.5, 1.5), rng.uniform(0.5, 2.0)
    return f"{a!r}*exp(sin({c!r}*{v}))", lambda t: a * math.exp(math.sin(c * t))


def _cosh_sin(rng, v):
    a, c = _signed(rng, 0.5, 1.5), rng.uniform(0.5, 2.0)
    return f"{a!r}*cosh(sin({c!r}*{v})+1)", lambda t: a * math.cosh(math.sin(c * t) + 1)


def _deep(rng, v):
    c = rng.uniform(0.8, 1.2)
    return (f"sin(cos(exp({c!r}*{v})*{v})/{v})",
            lambda t: math.sin(math.cos(math.exp(c * t) * t) / t))


EXPR_POOL = (_lin, _quad, _cubic, _exp, _cosh, _sin, _exp_sin, _cosh_sin, _deep)
# family components must be smooth over the box; _deep is singular at 0
SMOOTH_POOL = EXPR_POOL[:-1]
# a family whose components are all affine is a plane, which the classifier
# reports with an infinite kappa_agreement; the timed rounds' classify jobs
# leave planes to the probe jobs
CURVED_POOL = SMOOTH_POOL[1:]


def pick_expr(rng: random.Random, var: str, pool=EXPR_POOL):
    return rng.choice(pool)(rng, var)


def _bracket(hz: list, t: float):
    """Index k of the first node interval where hz - t changes sign, or None."""
    for k in range(len(hz) - 1):
        if (hz[k] - t) * (hz[k + 1] - t) < 0.0:
            return k
    return None


def _column_coverage(F1, F2, F3, box, n_cols: int = 16, n_nodes: int = 64) -> float:
    """Share of (x, y) columns along which F1(x) + F2(y) + F3(z) changes sign."""
    x0, x1, y0, y1, z0, z1 = box
    xs = [x0 + (i + 0.5) * (x1 - x0) / n_cols for i in range(n_cols)]
    ys = [y0 + (i + 0.5) * (y1 - y0) / n_cols for i in range(n_cols)]
    hz = [_safe(F3, z0 + k * (z1 - z0) / n_nodes) for k in range(n_nodes + 1)]
    hits = sum(_bracket(hz, -(_safe(F1, x) + _safe(F2, y))) is not None
               for x in xs for y in ys)
    return hits / (n_cols * n_cols)


def _range(fn, lo: float, hi: float, n: int = 64) -> tuple:
    vals = [_safe(fn, lo + k * (hi - lo) / n) for k in range(n + 1)]
    vals = [v for v in vals if v == v]
    return (min(vals), max(vals)) if vals else (math.nan, math.nan)


def expression_surface(rng: random.Random, makers):
    """(f, g, h) sources from the given pool entries and a box.

    h is scaled up, when needed, so that its range over the z side of the box
    exceeds the spread of -(f + g) over the x/y side by a quarter, then
    shifted to centre one in the other.  By the intermediate value
    theorem nearly every column of the box then crosses the surface, so the
    sampler's number of passes depends on the pool entries, not on the draw.
    A draw is kept once 90 % of a coarse column grid crosses the surface and
    a regular surface point is found in the box.
    """
    while True:
        (fs, f), (gs, g), (hs, h) = (make(rng, v) for make, v in zip(makers, "xyz"))
        c = [rng.uniform(-0.3, 0.3) for _ in range(3)]
        w = [rng.uniform(0.6, 1.2) for _ in range(3)]
        box = tuple(v for ci, wi in zip(c, w) for v in (ci - wi, ci + wi))
        flo, fhi = _range(f, box[0], box[1])
        glo, ghi = _range(g, box[2], box[3])
        hlo, hhi = _range(h, box[4], box[5])
        if not hhi - hlo > 1e-6 or not (fhi - flo) + (ghi - glo) < math.inf:
            continue
        scale = max(1.0, 1.25 * ((fhi - flo) + (ghi - glo)) / (hhi - hlo))
        shift = -0.5 * (flo + fhi + glo + ghi) - 0.5 * scale * (hlo + hhi)

        def h_total(z, h=h, scale=scale, shift=shift):
            return scale * h(z) + shift

        if _column_coverage(f, g, h_total, box) < 0.9:
            continue
        nodes = [box[4] + k * (box[5] - box[4]) / 64 for k in range(65)]
        hz = [_safe(h_total, z) for z in nodes]
        t = -(_safe(f, c[0]) + _safe(g, c[1]))
        k = _bracket(hz, t)
        if k is None:
            continue
        a, b = nodes[k], nodes[k + 1]
        for _ in range(60):
            mid = 0.5 * (a + b)
            if (_safe(h_total, a) - t) * (_safe(h_total, mid) - t) <= 0.0:
                b = mid
            else:
                a = mid
        p = (c[0], c[1], 0.5 * (a + b))

        def F(x, y, z, h_total=h_total):
            return f(x) + g(y) + h_total(z)

        if _grad_norm(F, p) <= 1e-3:
            continue
        check_regular_point(F, p, box, scale=1.0 + abs(t))
        return (fs, gs, f"{scale!r}*({hs})+({shift!r})"), box


# -- family specs -------------------------------------------------------------------


def _right_cylinder(rng, flat: bool = False):
    """A cylinder over a curve; with ``flat``, over a line, i.e. a plane."""
    plane = rng.choice("xyz")
    c1, c2 = [c for c in "xyz" if c != plane]
    while True:
        makers = (_lin, _lin) if flat else (rng.choice(SMOOTH_POOL), rng.choice(SMOOTH_POOL))
        if not flat and makers == (_lin, _lin):
            continue
        fs, f = makers[0](rng, c1)
        gs, g = makers[1](rng, c2)
        t0, s0 = rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)
        ft, gt = _safe(f, t0), _safe(g, s0)
        if ft != ft or gt != gt:
            continue
        a = -(ft + gt)
        half = rng.uniform(0.6, 1.0)
        lim = {c1: (t0 - half, t0 + half), c2: (s0 - half, s0 + half), plane: (-1.0, 1.0)}
        box = tuple(v for c in "xyz" for v in lim[c])
        p3 = {c1: t0, c2: s0, plane: 0.1}
        p = (p3["x"], p3["y"], p3["z"])

        def F(x, y, z):
            q = {"x": x, "y": y, "z": z}
            return f(q[c1]) + g(q[c2]) + a

        if _grad_norm(F, p) <= 0.3:
            continue
        # the sampler solves along the second present axis
        if _column_coverage(lambda t: 0.0, f, lambda t: g(t) + a,
                            (0.0, 1.0) + lim[c1] + lim[c2]) < 0.25:
            continue
        check_regular_point(F, p, box)
        doc = {"family": "right-cylinder",
               "params": {"f": fs, "g": gs, "a": a, "plane": plane}}
        return doc, box


def _translation(rng, flat: bool = False):
    """z = a x + g(y); with ``flat``, g is affine and the surface a plane."""
    a = _signed(rng, 0.5, 2.0)
    while True:
        gs, g = pick_expr(rng, "y", (_lin,) if flat else CURVED_POOL)
        y0 = rng.uniform(-0.3, 0.3)
        half = rng.uniform(0.6, 1.0)
        xs = [-1.0 + 2.0 * i / 12 for i in range(13)]
        ys = [y0 - half + 2.0 * half * i / 12 for i in range(13)]
        zs = [a * x + _safe(g, y) for x in xs for y in ys]
        zs = [z for z in zs if z == z]
        if len(zs) < 0.8 * 169:
            continue
        pad = 0.05 * (max(zs) - min(zs) + 1.0)
        box = (-1.0, 1.0, y0 - half, y0 + half, min(zs) - pad, max(zs) + pad)
        p = (0.1, ys[7], a * 0.1 + _safe(g, ys[7]))
        if p[2] != p[2]:
            continue
        check_regular_point(lambda x, y, z: a * x + g(y) - z, p, box)
        return {"family": "translation", "params": {"a": a, "g": gs}}, box


def _rotational_parabolic(rng):
    a, b = rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)
    alpha = _signed(rng, 0.6, 1.4)
    beta = rng.uniform(2.5, 4.0)
    c0 = (a * a + b * b) / 4.0
    # h absorbs the completed squares, leaving the exact cone
    # (x + a/2)^2 + (y + b/2)^2 = (alpha z + beta)^2
    hs = f"({alpha!r}*z+{beta!r})^2-{c0!r}"
    w = 0.85 * (beta + abs(alpha))
    box = (-w, w, -w, w, -1.0, 1.0)
    p = (-a / 2 + beta / math.sqrt(2.0), -b / 2 + beta / math.sqrt(2.0), 0.0)

    def F(x, y, z):
        return x * x + a * x + y * y + b * y - ((alpha * z + beta) ** 2 - c0)

    check_regular_point(F, p, box, scale=10.0)
    doc = {"family": "rotational-parabolic",
           "params": {"a": a, "b": b, "c": 0.0, "h": hs}}
    return doc, box


def _base_window(m, n, side, lo, hi):
    a, b = (side * lo - n) / m, (side * hi - n) / m
    return (min(a, b), max(a, b))


def _generalized_cone(rng):
    while True:
        p = rng.uniform(-3.0, 3.0)
        if abs(p) > 0.15 and abs(p - 1.0) > 0.15:
            break
    q = 1.0 - p
    m = [_signed(rng, 0.5, 2.0) for _ in range(3)]
    n = [rng.uniform(-0.4, 0.4) for _ in range(3)]
    lo, hi = rng.uniform(0.45, 0.6), rng.uniform(1.8, 2.2)
    wins = [_base_window(mi, ni, 1, lo, hi) for mi, ni in zip(m, n)]
    box = tuple(v for w in wins for v in w)
    # all bases equal to 1 satisfy s1^p s2^q = s3
    pt = tuple((1.0 - ni) / mi for mi, ni in zip(m, n))

    def F(x, y, z):
        return (p * math.log(m[0] * x + n[0]) + q * math.log(m[1] * y + n[1])
                - math.log(m[2] * z + n[2]))

    check_regular_point(F, pt, box)
    return {"family": "generalized-cone", "params": {"p": p, "m": m, "n": n}}, box


def _exp_cylinder(rng):
    while True:
        m = [_signed(rng, 0.5, 1.5) for _ in range(3)]
        mags = [rng.uniform(0.5, 2.0) for _ in range(3)]
        minority = rng.randrange(3)
        n = [mags[i] * (-1.0 if i == minority else 1.0) for i in range(3)]
        probe = [-1.2 + 2.4 * i / 16 for i in range(17)]
        zs = []
        for x in probe:
            for y in probe:
                t = -(n[0] * math.exp(m[0] * x) + n[1] * math.exp(m[1] * y)) / n[2]
                if t > 0.0:
                    zs.append((x, y, math.log(t) / m[2]))
        inner = [pt for pt in zs if abs(pt[0]) < 1.19 and abs(pt[1]) < 1.19]
        if len(zs) >= 0.25 * 17 * 17 and inner:
            break
    zvals = [z for _, _, z in zs]
    pad = 0.05 * (max(zvals) - min(zvals) + 0.2)
    box = (-1.2, 1.2, -1.2, 1.2, min(zvals) - pad, max(zvals) + pad)
    pt = inner[len(inner) // 2]

    def F(x, y, z):
        return n[0] * math.exp(m[0] * x) + n[1] * math.exp(m[1] * y) + n[2] * math.exp(m[2] * z)

    check_regular_point(F, pt, box, scale=10.0)
    return {"family": "exp-cylinder", "params": {"m": m, "n": n}}, box


def _conical_k(rng) -> float:
    """k in [-3, 3] away from 0, 1 and from even-exponent degeneracies."""
    while True:
        k = rng.uniform(-3.0, 3.0)
        if abs(k) < 0.15 or abs(k - 1.0) < 0.15:
            continue
        alpha = 1.0 / (1.0 - k)
        near = round(alpha)
        if abs(alpha - near) < 0.1 and near % 2 == 0:
            continue
        return k


def _conical_power(rng):
    k = _conical_k(rng)
    m = [_signed(rng, 0.5, 2.0) for _ in range(3)]
    n = [rng.uniform(-0.4, 0.4) for _ in range(3)]
    alpha = 1.0 / (1.0 - k)
    near = round(alpha)
    odd = abs(alpha - near) <= 1e-9 and abs(near) >= 1
    # odd integer exponents take the last axis on the negative chart; other
    # exponents carry an explicit minus sign on the last term
    side3, eps3 = (-1, 1) if odd else (1, -1)
    lo3, hi3 = sorted((0.5 * 2.0 ** (1 / alpha), 2.0 * 2.0 ** (1 / alpha)))
    wins = [_base_window(m[0], n[0], 1, 0.5, 2.0),
            _base_window(m[1], n[1], 1, 0.5, 2.0),
            _base_window(m[2], n[2], side3, 0.98 * lo3, 1.02 * hi3)]
    box = tuple(v for w in wins for v in w)
    s3 = 2.0 ** (1 / alpha)  # s1 = s2 = 1 gives s3^alpha = 2
    pt = ((1.0 - n[0]) / m[0], (1.0 - n[1]) / m[1], (side3 * s3 - n[2]) / m[2])

    def term(b):
        return math.copysign(abs(b) ** alpha, b) if odd else b ** alpha

    def F(x, y, z):
        return (term(m[0] * x + n[0]) + term(m[1] * y + n[1])
                + eps3 * term(m[2] * z + n[2]))

    check_regular_point(F, pt, box, scale=10.0)
    return {"family": "conical-power", "params": {"k": k, "m": m, "n": n}}, box


def profile_extent(K: float, r0: float, dr0: float, half: float = 1.5):
    """Closed-form r(s), r'(s) of r'' = -K r; z(s) by the trapezoid rule.

    Returns (z_lo, z_hi, r_max) over the arclength window where the profile
    stays valid (r >= 0.05 r0 and 1 - r'^2 >= 0.01), mirroring the
    documented stopping rule of the library's profile integration.
    """
    w = math.sqrt(abs(K))

    def r_dr(s):
        if K > 0:
            c, sn = math.cos(w * s), math.sin(w * s)
            return r0 * c + dr0 / w * sn, -r0 * w * sn + dr0 * c
        c, sh = math.cosh(w * s), math.sinh(w * s)
        return r0 * c + dr0 / w * sh, r0 * w * sh + dr0 * c

    ext = []
    r_max = r0
    for sign in (1.0, -1.0):
        z, steps = 0.0, 400
        ds = half / steps
        prev = math.sqrt(1.0 - dr0 * dr0)
        for i in range(1, steps + 1):
            r, p = r_dr(sign * i * ds)
            if r < 0.05 * r0 or 1.0 - p * p < 0.01:
                break
            q = math.sqrt(1.0 - p * p)
            z += sign * 0.5 * (prev + q) * ds
            prev = q
            r_max = max(r_max, r)
        ext.append(z)
    return ext[1], ext[0], r_max


def _rotational_cgc_params(rng):
    return {"K": _signed(rng, 0.5, 1.5), "r0": rng.uniform(0.4, 0.7),
            "dr0": rng.uniform(-0.2, 0.2)}


def _rotational_cgc(rng):
    params = _rotational_cgc_params(rng)
    z_lo, z_hi, r_max = profile_extent(params["K"], params["r0"], params["dr0"])
    w = 0.72 * r_max
    box = (-w, w, -w, w, 0.9 * z_lo, 0.9 * z_hi)
    r0 = params["r0"]
    pt = (r0 / math.sqrt(2.0), r0 / math.sqrt(2.0), 0.0)
    # at arclength 0 the profile sits at z = 0 with radius r0
    check_regular_point(lambda x, y, z: x * x + y * y - r0 * r0 + 0.0 * z, pt, box)
    return {"family": "rotational-cgc", "params": params}, box


FAMILY_BUILDERS = {
    "right-cylinder": _right_cylinder,
    "translation": _translation,
    "rotational-parabolic": _rotational_parabolic,
    "generalized-cone": _generalized_cone,
    "exp-cylinder": _exp_cylinder,
    "conical-power": _conical_power,
    "rotational-cgc": _rotational_cgc,
}


def _spec_arg(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


# -- the four workloads --------------------------------------------------------------


def _classify_stream_round(rng: random.Random) -> list:
    jobs = []
    for tag in TAGS:
        for _ in range(3):
            doc, box = FAMILY_BUILDERS[tag](rng)
            jobs.append(Job(("classify", "--spec", _spec_arg(doc), _box_arg(box),
                             "--seed", str(rng.randrange(10 ** 6))),
                            "classify", label=EXPECTED_LABEL[tag], n=400))
    # every pool entry once per axis; h's entry also fixes the job kind, so
    # each round has the same mix of root counts per column and job sizes
    fx, gy = list(EXPR_POOL), list(EXPR_POOL)
    rng.shuffle(fx)
    rng.shuffle(gy)
    for i, hz in enumerate(EXPR_POOL):
        (fs, gs, hs), box = expression_surface(rng, (fx[i], gy[i], hz))
        kind = "curvature" if i % 2 == 0 else "classify"
        argv = [kind, f"--f={fs}", f"--g={gs}", f"--h={hs}", _box_arg(box),
                "--seed", str(rng.randrange(10 ** 6))]
        n = 400
        if kind == "curvature":
            argv += ["--n", "1000"]
            n = 1000
        jobs.append(Job(tuple(argv), kind, n=n))
    rng.shuffle(jobs)
    return jobs


def _plane_probes(rng: random.Random) -> list:
    """Planes, which the classifier reports with "kappa_agreement": Infinity.

    A plane belongs to several families, so any valid label is accepted.
    """
    jobs = []
    for build in (_right_cylinder, _translation):
        doc, box = build(rng, flat=True)
        jobs.append(Job(("classify", "--spec", _spec_arg(doc), _box_arg(box),
                         "--seed", str(rng.randrange(10 ** 6))), "classify", n=400))
    (fs, gs, hs), box = expression_surface(rng, (_lin, _lin, _lin))
    jobs.append(Job(("classify", f"--f={fs}", f"--g={gs}", f"--h={hs}", _box_arg(box),
                     "--seed", str(rng.randrange(10 ** 6))), "classify", n=400))
    return jobs


def _sample_dense_round(rng: random.Random) -> list:
    targets = [(("--preset", p), PRESET_LABEL[p], 0.0) for p in sorted(PRESET_BOXES)]
    targets.append((("--f=x^2", "--g=y^2", "--h=z^2-1"), "rotational-cgc", 1.0))
    jobs = []
    for src, label, K in targets:
        for kind in ("curvature", "classify"):
            argv = (kind, *src, "--n", "10000", "--seed", str(rng.randrange(10 ** 6)))
            jobs.append(Job(argv, kind, label=label if kind == "classify" else None,
                            K=K, n=10000))
    rng.shuffle(jobs)
    return jobs


def jitter_box(rng: random.Random, box, share: float = 0.02):
    out = []
    for i in range(0, 6, 2):
        lo, hi = box[i], box[i + 1]
        span = hi - lo
        out += [lo + rng.uniform(-share, share) * span, hi + rng.uniform(-share, share) * span]
    return tuple(out)


def _mesh_gallery_round(rng: random.Random) -> list:
    jobs = []
    for name in sorted(PRESET_BOXES):
        box = jitter_box(rng, PRESET_BOXES[name])
        check_regular_point(PRESET_F[name], PRESET_POINT[name], box)
        jobs.append(Job(("family", "--preset", name, "--res", "96", _box_arg(box)),
                        "family", writes_mesh=True))
    doc = {"family": "rotational-cgc", "params": _rotational_cgc_params(rng)}
    jobs.append(Job(("family", "--spec", _spec_arg(doc), "--res", "48"),
                    "family", writes_mesh=True))
    rng.shuffle(jobs)
    return jobs


def _verify_suite_round(rng: random.Random) -> list:
    return [Job(("verify", "--suite", "all", "--seed", str(rng.randrange(10 ** 6))),
                "verify")]


WORKLOADS = {
    # Defined and runnable by name, but not among BENCHMARK.json's workloads:
    # its spreads were the lowest of the three (0.05-0.14 over four ten-seed
    # sets of 30 s runs), but the driver's time budget allows longer runs
    # only for two workloads, and its layers are all reached by the other two.
    "classify-stream": Workload(
        "classify-stream",
        "many short classify/curvature jobs (30-300 ms): per-call overhead, family "
        "builds incl. the RK4 profile, small root-engine calls, deep expressions; no meshing",
        _classify_stream_round, trace_rounds=3, make_probes=_plane_probes, counts_points=True),
    "sample-dense": Workload(
        "sample-dense",
        "curvature/classify at n=10000 on presets and the sphere: 9k-36k-column "
        "root-engine calls and batched curvature; no meshing, no profile ODE",
        _sample_dense_round, trace_rounds=1, make_probes=_plane_probes, counts_points=True),
    "mesh-gallery": Workload(
        "mesh-gallery",
        "res-96 preset meshes and a res-48 tabulated mesh: per-cell marching "
        "cubes, scalar vertex polish and OBJ/JSON export; no root engine",
        _mesh_gallery_round, trace_rounds=1, counts_triangles=True),
    # Defined and runnable by name, but not among BENCHMARK.json's workloads:
    # with three or four ~6 s jobs in a 15 s run, its job-time spreads over
    # ten seeds on a shared 2-vCPU VM were 0.21-0.39, above the 0.25 bound,
    # and some of its seeds fail (see CHANGES.md).
    "verify-suite": Workload(
        "verify-suite",
        "verify --suite all: the suites' scalar geometry loops, duplicate "
        "catalog sampling and 140 classifier instances",
        _verify_suite_round, trace_rounds=1),
}
