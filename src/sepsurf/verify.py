"""Numerical verification suites and the constant-curvature classifier.

``check_constant_K`` measures whether the Gaussian curvature is constant
over a sample; ``estimate_structure`` collects the degeneracy evidence
(vanishing squared slopes, vanishing or pairwise-equal rates, the branch
constant kappa); ``classify`` walks the decision tree over that evidence
and returns one of the family labels, falling through to a falsification
sentinel that must never fire on valid inputs.

``run_theorem_suite`` executes the full battery of identity and family
checks over a built-in catalog plus randomized family instances, and
aggregates worst-case magnitudes into a deterministic JSON-able report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import families as fam
from .expr import Func1D
from .geometry import (
    SeparableSurface,
    _curvature_cols,
    _curvature_implicit,
    _implicit_jet_cols,
    _level_state_cols,
    _rotate_jet,
    _shift_level_cols,
    curvature_batch,
    k2_residual_batch,
    level_state_batch,
)
from .sampler import GridSpec, sample_points

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "TooFewPointsError",
    "ConstancyReport",
    "StructureEvidence",
    "ClassificationResult",
    "check_constant_K",
    "estimate_structure",
    "classify",
    "collect_samples",
    "catalog",
    "random_family",
    "FAMILY_TAGS",
    "TheoremCheckReport",
    "run_theorem_suite",
]

# the classifier suite draws its random families in this order
_EXPECTED_LABEL = {
    "right-cylinder": "right-cylinder",
    "translation": "translation",
    "rotational-parabolic": "rotational-flat",
    "generalized-cone": "generalized-cone",
    "exp-cylinder": "exp-cylinder",
    "conical-power": "conical-power",
    "rotational-cgc": "rotational-cgc",
}

FAMILY_TAGS = tuple(_EXPECTED_LABEL)


class TooFewPointsError(ValueError):
    """Fewer than the required number of regular sample points."""


@dataclass(frozen=True)
class Tolerances:
    """Decision thresholds; a decade above observed double-precision noise."""

    constancy: float = 1e-8
    constancy_tabulated: float = 1e-4  # tabulation-limited rotational profiles
    structure: float = 1e-7
    kappa: float = 1e-6

    def to_json(self) -> dict:
        return {
            "constancy": self.constancy,
            "constancy_tabulated": self.constancy_tabulated,
            "structure": self.structure,
            "kappa": self.kappa,
        }


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class ConstancyReport:
    n_samples: int
    K_mean: float
    K_max_dev: float
    is_constant: bool
    is_zero: bool
    tol: float

    def to_json(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "K_mean": self.K_mean,
            "K_max_dev": self.K_max_dev,
            "is_constant": self.is_constant,
            "is_zero": self.is_zero,
            "tol": self.tol,
        }


@dataclass(frozen=True)
class StructureEvidence:
    """Max magnitudes over the sample; small is degenerate.

    *_zero: the squared slope itself (a vanishing one means a constant
    component, i.e. a right cylinder).
    *_const: its rate against the level value (vanishing means a linear
    component, i.e. a translation surface).
    *_lin: spread of that rate (vanishing means the component is quadratic).
    pair_*: pointwise differences of the rates (all-equal constants mean a
    rotational surface).
    kappa_estimate: median branch constant over samples and axes.
    kappa_agreement: spread (max - min) of the available branch constants.
    Both are None where no branch constant is defined (all f'' = 0).
    scale / scale_rate: normalization magnitudes the flags are judged against.
    """

    X_zero: float
    Y_zero: float
    Z_zero: float
    X_const: float
    Y_const: float
    Z_const: float
    X_lin: float
    Y_lin: float
    Z_lin: float
    pair_XY: float
    pair_XZ: float
    pair_YZ: float
    kappa_estimate: Optional[float]
    kappa_agreement: Optional[float]
    scale: float
    scale_rate: float

    def to_json(self) -> dict:
        return {
            "X_zero": self.X_zero, "Y_zero": self.Y_zero, "Z_zero": self.Z_zero,
            "X_const": self.X_const, "Y_const": self.Y_const, "Z_const": self.Z_const,
            "X_lin": self.X_lin, "Y_lin": self.Y_lin, "Z_lin": self.Z_lin,
            "pair_XY": self.pair_XY, "pair_XZ": self.pair_XZ, "pair_YZ": self.pair_YZ,
            "kappa_estimate": self.kappa_estimate,
            "kappa_agreement": self.kappa_agreement,
            "scale": self.scale, "scale_rate": self.scale_rate,
        }


@dataclass(frozen=True)
class ClassificationResult:
    label: str
    parameters: dict
    evidence: Optional[StructureEvidence]
    report: ConstancyReport

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "params": self.parameters,
            "evidence": None if self.evidence is None else self.evidence.to_json(),
            "constancy": self.report.to_json(),
        }


def _regular_curvatures(surface: SeparableSurface, points: np.ndarray) -> np.ndarray:
    K = curvature_batch(surface, np.asarray(points, dtype=float))
    return K[np.isfinite(K)]


def check_constant_K(surface: SeparableSurface, points: np.ndarray,
                     tol: float = 1e-8) -> ConstancyReport:
    """Measure K over the sample and judge constancy at the given tolerance."""
    return _constancy(_regular_curvatures(surface, points), tol)


def _constancy(K: np.ndarray, tol: float) -> ConstancyReport:
    """check_constant_K on the finite curvatures of the sample."""
    if K.size < 32:
        raise TooFewPointsError(f"need >= 32 regular points, got {K.size}")
    mean = float(np.mean(K))
    max_dev = float(np.max(np.abs(K - mean)))
    is_constant = max_dev <= tol * (1.0 + abs(mean))
    is_zero = is_constant and abs(mean) <= tol
    return ConstancyReport(int(K.size), mean, max_dev, is_constant, is_zero, tol)


def estimate_structure(surface: SeparableSurface, points: np.ndarray,
                       tols: Tolerances = DEFAULT_TOLERANCES) -> StructureEvidence:
    """Degeneracy magnitudes of the squared-slope functions over the sample."""
    return _structure(level_state_batch(surface, np.asarray(points, dtype=float)))


def _structure(st: dict) -> StructureEvidence:
    """estimate_structure on the sample's level-state columns."""
    core = np.column_stack([st[k] for k in ("X", "Y", "Z", "dX", "dY", "dZ")])
    good = np.all(np.isfinite(core), axis=1)
    if int(np.count_nonzero(good)) < 32:
        raise TooFewPointsError(
            f"need >= 32 regular points, got {int(np.count_nonzero(good))}")
    X, Y, Z, dX, dY, dZ = (core[good, i] for i in range(6))

    kappas = np.concatenate([st[k][good] for k in ("kappa_x", "kappa_y", "kappa_z")])
    kappas = kappas[np.isfinite(kappas)]
    if kappas.size:
        kappa_est: Optional[float] = float(np.median(kappas))
        kappa_agree: Optional[float] = float(np.max(kappas) - np.min(kappas))
    else:
        kappa_est = kappa_agree = None

    def spread(col: np.ndarray) -> float:
        return float(np.max(col) - np.min(col))

    return StructureEvidence(
        X_zero=float(np.max(np.abs(X))),
        Y_zero=float(np.max(np.abs(Y))),
        Z_zero=float(np.max(np.abs(Z))),
        X_const=float(np.max(np.abs(dX))),
        Y_const=float(np.max(np.abs(dY))),
        Z_const=float(np.max(np.abs(dZ))),
        X_lin=spread(dX), Y_lin=spread(dY), Z_lin=spread(dZ),
        pair_XY=float(np.max(np.abs(dX - dY))),
        pair_XZ=float(np.max(np.abs(dX - dZ))),
        pair_YZ=float(np.max(np.abs(dY - dZ))),
        kappa_estimate=kappa_est,
        kappa_agreement=kappa_agree,
        scale=1.0 + float(np.max(X + Y + Z)),
        scale_rate=1.0 + float(np.max(np.abs(np.concatenate([dX, dY, dZ])))),
    )


def _has_tabulated(surface: SeparableSurface) -> bool:
    return any(c.tabulated for c in surface.components)


def classify(surface: SeparableSurface, points: np.ndarray,
             tols: Tolerances = DEFAULT_TOLERANCES) -> ClassificationResult:
    """Decision tree over the constancy report and the structure evidence.

    Constant zero curvature walks the degeneracy cases in their canonical
    order (vanishing slope, vanishing rate, pairwise-equal rates) before the
    branch constant picks the cone/cylinder/power label; constant nonzero
    curvature must be rotational, anything else raises the contradiction
    sentinel label.
    """
    ctol = tols.constancy_tabulated if _has_tabulated(surface) else tols.constancy
    # one jet evaluation feeds both the curvature and the level state
    jets = surface.jet_arrays(np.asarray(points, dtype=float))
    K = _curvature_cols(*jets)
    report = _constancy(K[np.isfinite(K)], ctol)
    if not report.is_constant:
        return ClassificationResult("not-constant-curvature", {}, None, report)

    ev = _structure(_level_state_cols(*jets))
    s = tols.structure
    zero_flags = [m <= s * ev.scale for m in (ev.X_zero, ev.Y_zero, ev.Z_zero)]
    const_flags = [m <= s * ev.scale_rate for m in (ev.X_const, ev.Y_const, ev.Z_const)]
    pair_flags = [m <= s * ev.scale_rate for m in (ev.pair_XY, ev.pair_XZ, ev.pair_YZ)]

    if report.is_zero:
        if any(zero_flags):
            return ClassificationResult("right-cylinder", {}, ev, report)
        if any(const_flags):
            return ClassificationResult("translation", {}, ev, report)
        if any(pair_flags):
            return ClassificationResult("rotational-flat", {}, ev, report)
        if ev.kappa_estimate is None:
            raise TooFewPointsError("no branch-constant data on a flat surface")
        kappa = ev.kappa_estimate
        if abs(kappa) <= tols.kappa:
            return ClassificationResult(
                "generalized-cone", {"kappa": kappa, "k": 0.0}, ev, report)
        k = 1.0 / (2.0 * kappa)
        if abs(k - 1.0) <= tols.kappa:
            return ClassificationResult(
                "exp-cylinder", {"kappa": kappa, "k": 1.0}, ev, report)
        return ClassificationResult(
            "conical-power", {"kappa": kappa, "k": k}, ev, report)

    if any(pair_flags):
        return ClassificationResult(
            "rotational-cgc", {"K": report.K_mean}, ev, report)
    return ClassificationResult(
        "contradiction-with-theorem-2", {"K": report.K_mean}, ev, report)


def collect_samples(surface: SeparableSurface, box, n_min: int, seed: int = 42,
                    axis: Optional[int] = None) -> np.ndarray:
    """At least n_min on-surface points in the box, deterministic in the seed.

    Two-phase sampling (Cochran, *Sampling Techniques*, ch. 12): ``full``
    is the side of a square grid of columns sized for about 1.1 points per
    column.  The first grid is a pilot of side ``min(full, 32)``, which is
    ``full`` itself for n_min <= 1137.  A short grid with k > 0 points sizes
    the next side from its yield, ``ceil(side * sqrt(1.1 * n_min / k))``,
    at least ``ceil(1.1 * side)``; a grid with no points goes straight to
    the largest side, ``8 * full``, as does the last of the four attempts.
    The points of a short grid are dropped, and a short ``8 * full`` grid
    raises TooFewPointsError.
    """
    full = max(10, int(math.ceil(math.sqrt(n_min * 0.9))))
    last = 8 * full
    side = min(full, 32)
    for attempt in range(4):
        grid = GridSpec(box=tuple(box), nx=side, ny=side, nz=side, seed=seed)
        pts = sample_points(surface, grid, axis=axis)
        k = len(pts)
        if k >= n_min:
            return pts
        if side == last:
            break
        if k == 0 or attempt == 2:
            side = last
        else:
            side = min(last, max(math.ceil(1.1 * side),
                                 math.ceil(side * math.sqrt(1.1 * n_min / k))))
    raise TooFewPointsError(
        f"could not gather {n_min} points on {surface!r} in {box}")


# -- catalog and random instances -------------------------------------------------


def _surface(fsrc, gsrc, hsrc, name, domains=((-math.inf, math.inf),) * 3):
    f = Func1D.parse(fsrc, "x", domains[0])
    g = Func1D.parse(gsrc, "y", domains[1])
    h = Func1D.parse(hsrc, "z", domains[2])
    return SeparableSurface(f, g, h, name=name)


@dataclass
class CatalogEntry:
    name: str
    surface: SeparableSurface
    box: tuple
    K: Optional[float]  # known constant curvature, None if non-constant
    axis: Optional[int] = None


def catalog(seed: int = 42) -> list[CatalogEntry]:
    """Deterministic roster of closed-form and tabulated reference surfaces."""
    entries: list[CatalogEntry] = []

    for r in (0.5, 1.0, 2.0):
        s = _surface("x^2", "y^2", f"z^2-{r * r!r}", f"sphere-r{r:g}")
        w = 0.62 * r
        entries.append(CatalogEntry(
            f"sphere-r{r:g}", s, (-w, w, -w, w, -r * 0.999, r * 0.999), 1.0 / r ** 2))

    for name in ("paper-fig1-left", "paper-fig1-middle", "paper-fig1-right"):
        entries.append(CatalogEntry(
            name, fam.preset_surface(name), fam.preset_box(name), 0.0))

    rc = fam.RightCylinder(
        f=Func1D.parse("cosh(x)", "x"), g=Func1D.parse("y^2", "y"), a=-3.0, plane="z")
    entries.append(CatalogEntry(
        "right-cylinder-cosh", fam.build_surface(rc),
        (-1.6, 1.6, -1.6, 1.6, -1.0, 1.0), 0.0, axis=1))

    tr = fam.Translation(a=0.75, g=Func1D.parse("y^2+sin(y)", "y"))
    entries.append(CatalogEntry("translation-quadratic", *fam.surface_and_box(tr), 0.0))

    # h absorbs the completed squares so F = (x+a/2)^2 + (y+b/2)^2 - (0.8z+2)^2
    rp = fam.RotationalParabolic(
        a=0.4, b=-0.2, c=0.0,
        h=Func1D.parse(f"(0.8*z+2)^2-{(0.4 ** 2 + 0.2 ** 2) / 4.0!r}", "z"))
    entries.append(CatalogEntry(
        "rotational-cone", fam.build_surface(rp), (-2.4, 2.4, -2.4, 2.4, -1.0, 1.0), 0.0))

    for K, r0, tagname in ((1.0, 0.55, "spindle-K1"), (-1.0, 0.5, "rotational-Kneg1")):
        spec = fam.RotationalCGC(K=K, r0=r0, dr0=0.0)
        entries.append(CatalogEntry(tagname, *fam.surface_and_box(spec), K))

    entries.append(CatalogEntry(
        "catenoid", _surface("x^2", "y^2", "-cosh(z)^2", "catenoid"),
        (-1.4, 1.4, -1.4, 1.4, -1.0, 1.0), None))
    return entries


_POOL_QUAD = ("quad", "exp", "cosh")


def _random_func(rng: np.random.Generator, var: str) -> Func1D:
    kind = _POOL_QUAD[int(rng.integers(len(_POOL_QUAD)))]
    if kind == "quad":
        c = float(rng.uniform(0.5, 1.5)) * (1 if rng.random() < 0.5 else -1)
        d = float(rng.uniform(-1.0, 1.0))
        return Func1D.parse(f"{c!r}*{var}^2+{d!r}*{var}", var)
    if kind == "exp":
        c = float(rng.uniform(0.5, 1.2)) * (1 if rng.random() < 0.5 else -1)
        return Func1D.parse(f"exp({c!r}*{var})", var)
    c = float(rng.uniform(0.7, 1.3))
    return Func1D.parse(f"cosh({c!r}*{var})", var)


def random_family(tag: str, rng: np.random.Generator):
    """A random admissible FamilySpec of the given tag, its surface and its
    sampling box, from one build."""
    if tag == "right-cylinder":
        plane = "xyz"[int(rng.integers(3))]
        present = [c for c in "xyz" if c != plane]
        f = _random_func(rng, present[0])
        g = _random_func(rng, present[1])
        while True:
            t0, s0 = rng.uniform(-0.8, 0.8, size=2)
            if abs(f.deriv_value(float(t0))) + abs(g.deriv_value(float(s0))) > 0.3:
                break
        a = -(f.value(float(t0)) + g.value(float(s0)))
        spec = fam.RightCylinder(f=f, g=g, a=float(a), plane=plane)
    elif tag == "translation":
        a = float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
        spec = fam.Translation(a=a, g=_random_func(rng, "y"))
    elif tag == "rotational-parabolic":
        a, b = (float(v) for v in rng.uniform(-0.8, 0.8, size=2))
        alpha = float(rng.uniform(0.6, 1.4)) * (1 if rng.random() < 0.5 else -1)
        beta = float(rng.uniform(2.5, 4.0))
        # h absorbs the completed squares, leaving an exact cone
        c0 = (a * a + b * b) / 4.0
        spec = fam.RotationalParabolic(
            a=a, b=b, c=0.0,
            h=Func1D.parse(f"({alpha!r}*z+{beta!r})^2-{c0!r}", "z"))
        w = 0.85 * (beta + abs(alpha))  # box wide enough to reach the cone radius
        return spec, fam.build_surface(spec), (-w, w, -w, w, -1.0, 1.0)
    elif tag == "generalized-cone":
        while True:
            p = float(rng.uniform(-3.0, 3.0))
            if abs(p) > 0.15 and abs(p - 1.0) > 0.15:
                break
        m = tuple(float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
                  for _ in range(3))
        n = tuple(float(v) for v in rng.uniform(-0.4, 0.4, size=3))
        spec = fam.GeneralizedCone(p=p, m=m, n=n)
    elif tag == "exp-cylinder":
        # redraw slivers: a quarter of the box's probe columns must be solvable
        while True:
            m = tuple(float(rng.uniform(0.5, 1.5)) * (1 if rng.random() < 0.5 else -1)
                      for _ in range(3))
            mags = rng.uniform(0.5, 2.0, size=3)
            minority = int(rng.integers(3))
            n = tuple(float(mags[i]) * (-1 if i == minority else 1) for i in range(3))
            spec = fam.ExpCylinder(m=m, n=n)
            if np.mean(np.isfinite(spec._probe_z())) >= 0.25:
                break
    elif tag == "conical-power":
        spec = fam.ConicalPower(k=_draw_conical_k(rng), m=tuple(
            float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
            for _ in range(3)), n=tuple(float(v) for v in rng.uniform(-0.4, 0.4, size=3)))
    elif tag == "rotational-cgc":
        K = float(rng.uniform(0.5, 1.5)) * (1 if rng.random() < 0.5 else -1)
        r0 = float(rng.uniform(0.4, 0.7))
        dr0 = float(rng.uniform(-0.2, 0.2))
        spec = fam.RotationalCGC(K=K, r0=r0, dr0=dr0)
    else:
        raise ValueError(f"unknown family tag {tag!r}")
    return (spec, *fam.surface_and_box(spec))


def _draw_conical_k(rng: np.random.Generator) -> float:
    """k in [-3,3] away from 0, 1 and from even-exponent degeneracies."""
    while True:
        k = float(rng.uniform(-3.0, 3.0))
        if abs(k) < 0.15 or abs(k - 1.0) < 0.15:
            continue
        alpha = 1.0 / (1.0 - k)
        near = round(alpha)
        if abs(alpha - near) < 0.1 and near % 2 == 0:
            continue
        return k


# -- the theorem suite --------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float
    count: int

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "worst": self.worst,
            "tol": self.tol,
            "count": self.count,
        }


@dataclass
class TheoremCheckReport:
    suite: str
    seed: int
    checks: list
    passed: bool = True

    def add(self, name: str, worst: float, tol: float, count: int) -> None:
        ok = bool(worst <= tol)
        self.checks.append(CheckResult(name, ok, float(worst), tol, count))
        self.passed = self.passed and ok

    def add_flag(self, name: str, ok: bool, count: int) -> None:
        self.checks.append(CheckResult(name, bool(ok), 0.0 if ok else 1.0, 0.0, count))
        self.passed = self.passed and bool(ok)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _random_rotations(n: int, rng: np.random.Generator) -> np.ndarray:
    """n seeded orthogonal matrices, the Q factors of Gaussian matrices."""
    return np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]


def _curvature_rotated(jets: tuple, rng: np.random.Generator) -> np.ndarray:
    """K by the general cofactor route on randomly rotated full Hessians,
    from a surface's ``jet_arrays``.

    The rotation fills every off-diagonal Hessian entry, so this shares no
    arithmetic with the separable short form of ``curvature_batch``.
    """
    _, grad, hess = _implicit_jet_cols(*jets)
    return _curvature_implicit(*_rotate_jet(grad, hess, _random_rotations(len(grad), rng)))


def _worst_rel(K1: np.ndarray, K0: np.ndarray) -> tuple[float, int]:
    """max |K1 - K0| / (1 + |K0|) over the rows where both are finite, and their count."""
    good = np.isfinite(K1) & np.isfinite(K0)
    d = np.abs(K1[good] - K0[good]) / (1.0 + np.abs(K0[good]))
    return float(np.max(d, initial=0.0)), int(np.count_nonzero(good))


def _constant_K_entries(entries):
    return [e for e in entries if e.K is not None]


def _suite_geometry(report: TheoremCheckReport, seed: int, entries, samples) -> None:
    rng = np.random.default_rng(seed)
    # each sample's jets, evaluated once; the checks below share only these
    jets = {e.name: e.surface.jet_arrays(samples[e.name]) for e in entries}

    # two curvature routes agree
    worst, count = 0.0, 0
    for e in entries:
        w, c = _worst_rel(_curvature_rotated(jets[e.name], rng),
                          _curvature_cols(*jets[e.name]))
        worst = max(worst, w)
        count += c
    report.add("curvature-formula-agreement", worst, 1e-10, count)

    # invariance of the implicit route under rotations and under F -> lambda F
    rot_worst, rot_count, scale_worst, scale_count = 0.0, 0, 0.0, 0
    for e in entries:
        head = (tuple(col[:40] for col in ja) for ja in jets[e.name])
        _, grad, hess = _implicit_jet_cols(*head)
        K0 = _curvature_implicit(grad, hess)
        for _ in range(3):
            R = _random_rotations(len(grad), rng)
            w, c = _worst_rel(_curvature_implicit(*_rotate_jet(grad, hess, R)), K0)
            rot_worst = max(rot_worst, w)
            rot_count += c
        for lam in (-2.0, 0.5, 10.0):
            w, c = _worst_rel(_curvature_implicit(lam * grad, lam * hess), K0)
            scale_worst = max(scale_worst, w)
            scale_count += c
    report.add("rigid-motion-invariance", rot_worst, 1e-10, rot_count)
    report.add("scaling-invariance", scale_worst, 1e-10, scale_count)

    # squared-slope identity residual at measured K
    worst, count = 0.0, 0
    for e in entries:
        r = k2_residual_batch(_level_state_cols(*jets[e.name]),
                              _curvature_cols(*jets[e.name]))
        good = np.isfinite(r)
        worst = max(worst, float(np.max(np.abs(r[good]))))
        count += int(np.count_nonzero(good))
    report.add("squared-slope-residual", worst, 1e-8, count)

    # equal tangential derivatives of the vanishing residual.  Constant-K
    # closed forms only: tabulated jets carry ~1e-9 interpolation noise,
    # which the 1e-4 difference step would amplify past the tolerance.
    worst, count = 0.0, 0
    for e in _constant_K_entries(entries):
        if _has_tabulated(e.surface):
            continue
        w, c = _lemma_directional_check(e.surface, samples[e.name], e.K)
        worst = max(worst, w)
        count += c
    report.add("tangential-derivative-equality", worst, 1e-5, count)

    # branch-constant consistency across axes on flat surfaces
    worst, count = 0.0, 0
    for e in entries:
        if e.K != 0.0 or _has_tabulated(e.surface):
            continue
        st = _level_state_cols(*jets[e.name])
        kx, ky, kz = st["kappa_x"], st["kappa_y"], st["kappa_z"]
        good = np.isfinite(kx) & np.isfinite(ky) & np.isfinite(kz)
        if not np.any(good):
            continue
        worst = max(
            worst,
            float(np.max(np.abs(kx[good] - ky[good]))),
            float(np.max(np.abs(ky[good] - kz[good]))),
        )
        count += int(np.count_nonzero(good))
    report.add("branch-constant-consistency", worst, 1e-7, count)


def _lemma_directional_check(surface: SeparableSurface, pts: np.ndarray,
                             K: float, delta: float = 1e-4,
                             max_points: int = 24) -> tuple[float, int]:
    """|Q_u - Q_v| and |Q_v - Q_w| by centered differences along the section.

    Taken over the first ``max_points`` points whose slopes are all at least
    0.2 and where every shifted jet is defined.
    """

    def q_value(x, y, z) -> np.ndarray:
        jets = np.stack(surface.jet_arrays(np.stack([x, y, z], axis=-1)))
        X, Y, Z = jets[0, 1] ** 2, jets[1, 1] ** 2, jets[2, 1] ** 2
        dX, dY, dZ = 2 * jets[0, 2], 2 * jets[1, 2], 2 * jets[2, 2]
        q = (X * dY * dZ + Y * dX * dZ + Z * dX * dY
             - 4.0 * K * (X + Y + Z) ** 2)
        return np.where(np.isnan(jets).any(axis=(0, 1)), np.nan, q)

    pts = np.asarray(pts, dtype=float)
    jets = np.stack(surface.jet_arrays(pts))
    keep = (np.min(np.abs(jets[:, 1]), axis=0) >= 0.2) & ~np.isnan(jets).any(axis=(0, 1))
    x, y, z = pts[keep].T
    xp, xm = (_shift_level_cols(surface.f, x, d)[0] for d in (delta, -delta))
    yp, ym = (_shift_level_cols(surface.g, y, d)[0] for d in (delta, -delta))
    zp, zm = (_shift_level_cols(surface.h, z, d)[0] for d in (delta, -delta))
    quv = (q_value(xp, ym, z) - q_value(xm, yp, z)) / (2.0 * delta)
    qvw = (q_value(x, yp, zm) - q_value(x, ym, zp)) / (2.0 * delta)
    err = np.maximum(np.abs(quv), np.abs(qvw))
    err = err[~np.isnan(err)][:max_points]
    return float(np.max(err, initial=0.0)), len(err)


def _suite_families(report: TheoremCheckReport, seed: int, entries, samples) -> None:
    rng = np.random.default_rng(seed + 1)

    # every sampled point satisfies the implicit equation
    worst, count = 0.0, 0
    for e in entries:
        vals = e.surface.value_arrays(samples[e.name])
        worst = max(worst, float(np.max(np.abs(vals))))
        count += len(vals)
    report.add("on-surface-residual", worst, 1e-9, count)

    # the flat families are flat
    worst, count = 0.0, 0
    for tag in ("right-cylinder", "translation", "generalized-cone",
                "exp-cylinder", "conical-power"):
        for _ in range(5):
            spec, surf, box = random_family(tag, rng)
            pts = collect_samples(surf, box, 1000, seed=seed)
            K = _regular_curvatures(surf, pts)
            worst = max(worst, float(np.max(np.abs(K))))
            count += K.size
    report.add("flat-family-curvature", worst, 1e-8, count)

    # rotational profiles hit their target curvature
    worst, count = 0.0, 0
    for _ in range(4):
        spec, surf, box = random_family("rotational-cgc", rng)
        pts = collect_samples(surf, box, 600, seed=seed)
        K = _regular_curvatures(surf, pts)
        worst = max(worst, float(np.max(np.abs(K - spec.K))))
        count += K.size
    report.add("rotational-curvature-recovery", worst, 1e-4, count)

    # profile energy integral is conserved at the nodes
    worst, count = 0.0, 0
    for K0, r0, dr0 in ((1.0, 0.55, 0.0), (1.0, 0.5, 0.2), (-1.0, 0.5, 0.0),
                        (-0.7, 0.6, -0.15)):
        tab = fam.rotational_profile(K0, r0, dr0)
        r, p = tab.profile_nodes["r"], tab.profile_nodes["dr"]
        e0 = dr0 * dr0 + K0 * r0 * r0
        worst = max(worst, float(np.max(np.abs(p * p + K0 * r * r - e0))))
        count += r.size
    report.add("profile-energy-conservation", worst, 1e-8, count)

    # cones stay on the zero set when scaled about their apex
    worst, count = 0.0, 0
    for tag in ("generalized-cone", "conical-power"):
        for _ in range(5):
            spec, surf, box = random_family(tag, rng)
            pts = collect_samples(surf, box, 200, seed=seed)[:120]
            apex = np.array(spec.apex)
            for t in (0.5, 2.0):
                q = apex + t * (pts - apex)
                vals = surf.value_arrays(q)
                good = np.isfinite(vals)
                if np.any(good):
                    worst = max(worst, float(np.max(np.abs(vals[good]))))
                    count += int(np.count_nonzero(good))
    report.add("cone-apex-scaling", worst, 1e-9, count)

    # exponential cylinders are ruled along the generator direction
    worst, count = 0.0, 0
    for _ in range(5):
        spec, surf, box = random_family("exp-cylinder", rng)
        pts = collect_samples(surf, box, 200, seed=seed)[:120]
        d = np.array(spec.generator)
        for t in (-1.0, -0.5, 0.5, 1.0):
            vals = surf.value_arrays(pts + t * d)
            good = np.isfinite(vals)
            worst = max(worst, float(np.max(np.abs(vals[good]))))
            count += int(np.count_nonzero(good))
    report.add("cylinder-ruling-invariance", worst, 1e-9, count)


def _suite_classifier(report: TheoremCheckReport, seed: int,
                      per_tag: int = 20) -> None:
    rng = np.random.default_rng(seed + 2)
    mislabels = 0
    contradictions = 0
    total = 0
    k_worst = 0.0
    k_count = 0
    for tag in FAMILY_TAGS:
        for _ in range(per_tag):
            spec, surf, box = random_family(tag, rng)
            pts = collect_samples(surf, box, 220, seed=seed)
            result = classify(surf, pts)
            total += 1
            if result.label != _EXPECTED_LABEL[tag]:
                mislabels += 1
            if result.label == "contradiction-with-theorem-2":
                contradictions += 1
            if tag == "conical-power" and result.label == "conical-power":
                k_fit = result.parameters["k"]
                k_worst = max(k_worst, abs(k_fit - spec.k) / abs(spec.k))
                k_count += 1
    report.add("classifier-round-trip-mislabels", float(mislabels), 0.0, total)
    report.add("contradiction-sentinel-fires", float(contradictions), 0.0, total)
    report.add("conical-parameter-recovery", k_worst, 1e-6, k_count)

    # negative control: the catenoid is not constant-curvature
    entries = {e.name: e for e in catalog(seed)}
    cat = entries["catenoid"]
    pts = collect_samples(cat.surface, cat.box, 220, seed=seed)
    res = classify(cat.surface, pts)
    report.add_flag("catenoid-negative-control",
                    res.label == "not-constant-curvature", len(pts))

    # loosening tolerances never flips pass into fail
    sph = entries["sphere-r1"]
    pts = collect_samples(sph.surface, sph.box, 220, seed=seed)
    monotone = True
    previous = False
    for mult in (1e-3, 1.0, 1e3, 1e6):
        rep = check_constant_K(sph.surface, pts, tol=1e-9 * mult)
        if previous and not rep.is_constant:
            monotone = False
        previous = previous or rep.is_constant
    report.add_flag("tolerance-monotonicity", monotone, 4)


def run_theorem_suite(suite: str = "all", seed: int = 42) -> TheoremCheckReport:
    """Run the named suite(s) and aggregate pass/fail with worst magnitudes."""
    if suite not in ("all", "geometry", "families", "classifier"):
        raise ValueError(f"unknown suite {suite!r}")
    report = TheoremCheckReport(suite=suite, seed=seed, checks=[])
    if suite != "classifier":
        # the geometry and families suites check the same catalog samples
        entries = catalog(seed)
        samples = {e.name: collect_samples(e.surface, e.box, 1000, seed=seed, axis=e.axis)
                   for e in entries}
    if suite in ("all", "geometry"):
        _suite_geometry(report, seed, entries, samples)
    if suite in ("all", "families"):
        _suite_families(report, seed, entries, samples)
    if suite in ("all", "classifier"):
        _suite_classifier(report, seed)
    return report
