"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

import time

import numpy as np
import pytest

from conftest import draw_fd_case
from sepsurf.cli import main
from sepsurf.expr import Func1D
from sepsurf.families import (
    RotationalCGC,
    admissible_box,
    build_surface,
    preset_box,
    preset_surface,
    rotational_profile,
)
from sepsurf.geometry import SeparableSurface, curvature_batch, k2_residual_batch, level_state_batch
from sepsurf.verify import (
    catalog,
    classify,
    collect_samples,
    estimate_structure,
    random_family,
    run_theorem_suite,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _sphere(r: float) -> SeparableSurface:
    return SeparableSurface(
        Func1D.parse("x^2"), Func1D.parse("y^2", "y"),
        Func1D.parse(f"z^2-{r * r!r}", "z"))


def test_criterion_1_fig1_trio_flatness():
    t0 = time.perf_counter()
    worst = 0.0
    counts = []
    for name in ("paper-fig1-left", "paper-fig1-middle", "paper-fig1-right"):
        surf = preset_surface(name)
        pts = collect_samples(surf, preset_box(name), 1000, seed=42)
        K = curvature_batch(surf, pts)
        K = K[np.isfinite(K)]
        counts.append(int(K.size))
        worst = max(worst, float(np.max(np.abs(K))))
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-8 and min(counts) >= 1000 and elapsed < 5.0,
            f"max|K|={worst:.3e} (tol 1e-8), samples={counts}, {elapsed:.2f}s (<5s)")


def test_criterion_2_sphere_family():
    worst_rel = 0.0
    worst_fit = 0.0
    for r in (0.5, 1.0, 2.0):
        surf = _sphere(r)
        w = 0.62 * r
        box = (-w, w, -w, w, -0.999 * r, 0.999 * r)
        pts = collect_samples(surf, box, 1000, seed=42)
        K = curvature_batch(surf, pts)
        K = K[np.isfinite(K)]
        target = 1.0 / r ** 2
        worst_rel = max(worst_rel, float(np.max(np.abs(K - target))) / (1.0 + target))
        res = classify(surf, pts)
        assert res.label == "rotational-cgc"
        worst_fit = max(worst_fit, abs(res.parameters["K"] - target) / target)
    _report(2, worst_rel <= 1e-9 and worst_fit <= 1e-8,
            f"max|K-1/r^2| rel={worst_rel:.3e} (tol 1e-9), "
            f"fitted-K rel={worst_fit:.3e} (tol 1e-8)")


def test_criterion_3_formula_cross_agreement():
    from sepsurf.verify import _curvature_rotated

    rng = np.random.default_rng(42)
    entries = catalog(42)
    picks = rng.choice(len(entries), size=10, replace=False)
    worst, total = 0.0, 0
    for i in picks:
        e = entries[i]
        pts = collect_samples(e.surface, e.box, 1000, seed=42, axis=e.axis)
        Ks = curvature_batch(e.surface, pts)
        Ki = _curvature_rotated(e.surface.jet_arrays(pts), rng)
        good = np.isfinite(Ks) & np.isfinite(Ki)
        d = np.abs(Ks[good] - Ki[good]) / (1.0 + np.abs(Ks[good]))
        worst = max(worst, float(np.max(d)))
        total += int(np.count_nonzero(good))
    _report(3, worst <= 1e-10 and total >= 10_000,
            f"max disagreement={worst:.3e} (tol 1e-10) over {total} points")


def test_criterion_4_residual_identity():
    worst, total = 0.0, 0
    for e in catalog(42):
        pts = collect_samples(e.surface, e.box, 1000, seed=42, axis=e.axis)
        st = level_state_batch(e.surface, pts)
        K = curvature_batch(e.surface, pts)
        r = k2_residual_batch(st, K)
        good = np.isfinite(r)
        worst = max(worst, float(np.max(np.abs(r[good]))))
        total += int(np.count_nonzero(good))
    _report(4, worst <= 1e-8,
            f"max normalized residual={worst:.3e} (tol 1e-8) over {total} points")


def test_criterion_5_branch_constant_recovery():
    expected = {
        "paper-fig1-left": 0.0,
        "paper-fig1-middle": 0.5,
        "paper-fig1-right": 0.25,
    }
    worst_kappa = 0.0
    for name, kappa in expected.items():
        surf = preset_surface(name)
        pts = collect_samples(surf, preset_box(name), 400, seed=42)
        ev = estimate_structure(surf, pts)
        worst_kappa = max(worst_kappa, abs(ev.kappa_estimate - kappa))

    rng = np.random.default_rng(4242)
    worst_k = 0.0
    for _ in range(20):
        spec, surf, box = random_family("conical-power", rng)
        res = classify(surf, collect_samples(surf, box, 260, seed=42))
        assert res.label == "conical-power"
        worst_k = max(worst_k, abs(res.parameters["k"] - spec.k) / abs(spec.k))
    _report(5, worst_kappa <= 1e-6 and worst_k <= 1e-6,
            f"kappa dev={worst_kappa:.3e}, fitted-k rel dev={worst_k:.3e} (tol 1e-6)")


def test_criterion_6_classifier_round_trip():
    rep = run_theorem_suite("classifier", seed=42)
    by_name = {c.name: c for c in rep.checks}
    mis = by_name["classifier-round-trip-mislabels"]
    sen = by_name["contradiction-sentinel-fires"]
    _report(6, mis.worst == 0.0 and sen.worst == 0.0 and mis.count >= 140,
            f"mislabels={int(mis.worst)}/{mis.count}, sentinel fires={int(sen.worst)}")


def test_criterion_7_rotational_profiles():
    worst_K = 0.0
    worst_E = 0.0
    for K0, r0 in ((1.0, 0.55), (-1.0, 0.5)):
        spec = RotationalCGC(K=K0, r0=r0, dr0=0.0)
        surf = build_surface(spec)
        pts = collect_samples(surf, admissible_box(spec), 600, seed=42)
        K = curvature_batch(surf, pts)
        K = K[np.isfinite(K)]
        worst_K = max(worst_K, float(np.max(np.abs(K - K0))))
        tab = rotational_profile(K0, r0, 0.0)
        r, p = tab.profile_nodes["r"], tab.profile_nodes["dr"]
        worst_E = max(worst_E, float(np.max(np.abs(p * p + K0 * r * r - K0 * r0 * r0))))
    _report(7, worst_K <= 1e-4 and worst_E <= 1e-8,
            f"max|K-K0|={worst_K:.3e} (tol 1e-4), energy drift={worst_E:.3e} (tol 1e-8)")


def test_criterion_8_derivative_correctness():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        f, x, jet, fd = draw_fd_case(rng)
        for sym, num in zip((jet.d1, jet.d2, jet.d3), fd):
            worst = max(worst, abs(sym - num) / (1.0 + abs(sym)))
    _report(8, worst <= 1e-6,
            f"max rel error symbolic vs central differences={worst:.3e} (tol 1e-6)")


def test_criterion_9_catenoid_negative_control():
    surf = SeparableSurface(
        Func1D.parse("x^2"), Func1D.parse("y^2", "y"),
        Func1D.parse("-cosh(z)^2", "z"))
    pts = collect_samples(surf, (-1.4, 1.4, -1.4, 1.4, -1.0, 1.0), 260, seed=42)
    res = classify(surf, pts)
    _report(9, res.label == "not-constant-curvature", f"label={res.label}")


def test_criterion_10_verify_determinism(tmp_path):
    t0 = time.perf_counter()
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    rc1 = main(["verify", "--suite", "all", "--seed", "42", "--report", str(a)])
    rc2 = main(["verify", "--suite", "all", "--seed", "42", "--report", str(b)])
    elapsed = time.perf_counter() - t0
    identical = a.read_bytes() == b.read_bytes()
    _report(10, rc1 == 0 and rc2 == 0 and identical and elapsed < 60.0,
            f"exit codes=({rc1},{rc2}), byte-identical={identical}, "
            f"{elapsed:.1f}s (<60s)")
