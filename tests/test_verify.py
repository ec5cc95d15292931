import math

import numpy as np
import pytest

from sepsurf import verify
from sepsurf.expr import Func1D
from sepsurf.families import (
    PRESETS,
    ExpCylinder,
    Translation,
    admissible_box,
    build_surface,
    preset_box,
    preset_surface,
)
from sepsurf.geometry import SeparableSurface
from sepsurf.sampler import GridSpec, sample_points
from sepsurf.verify import (
    TooFewPointsError,
    catalog,
    check_constant_K,
    classify,
    collect_samples,
    estimate_structure,
    random_family,
    run_theorem_suite,
)


def _samples(surface, box, n=260, seed=42, axis=None):
    return collect_samples(surface, box, n, seed=seed, axis=axis)


@pytest.fixture(scope="module")
def entries():
    return {e.name: e for e in catalog(42)}


# -- constancy ---------------------------------------------------------------------


def test_flat_cone_is_zero(entries):
    e = entries["paper-fig1-left"]
    rep = check_constant_K(e.surface, _samples(e.surface, e.box))
    assert rep.is_zero and rep.is_constant


def test_sphere_is_constant_one(entries):
    e = entries["sphere-r1"]
    rep = check_constant_K(e.surface, _samples(e.surface, e.box))
    assert rep.is_constant and not rep.is_zero
    assert rep.K_mean == pytest.approx(1.0, abs=1e-9)


def test_catenoid_not_constant(entries):
    e = entries["catenoid"]
    rep = check_constant_K(e.surface, _samples(e.surface, e.box))
    assert not rep.is_constant and not rep.is_zero


def test_too_few_points():
    s = preset_surface("paper-fig1-left")
    pts = _samples(s, preset_box("paper-fig1-left"))[:10]
    with pytest.raises(TooFewPointsError):
        check_constant_K(s, pts)


def test_zero_implies_constant(entries):
    for e in entries.values():
        rep = check_constant_K(e.surface, _samples(e.surface, e.box, axis=e.axis),
                               tol=1e-4)
        assert not rep.is_zero or rep.is_constant


# -- structure evidence --------------------------------------------------------------


def test_translation_sets_rate_flag():
    surf = build_surface(Translation(a=1.0, g=Func1D.parse("y^2", "y")))
    ev = estimate_structure(surf, _samples(surf, admissible_box(
        Translation(a=1.0, g=Func1D.parse("y^2", "y")))))
    # both the x and z components are linear here
    assert ev.X_const <= 1e-12 and ev.Z_const <= 1e-12
    assert ev.Y_const > 1.0


def test_sphere_pairwise_rates_equal(entries):
    e = entries["sphere-r1"]
    ev = estimate_structure(e.surface, _samples(e.surface, e.box))
    assert ev.pair_XY <= 1e-12 and ev.pair_XZ <= 1e-12 and ev.pair_YZ <= 1e-12
    assert ev.X_const == pytest.approx(4.0)


def test_exp_cylinder_branch_constant(entries):
    e = entries["paper-fig1-middle"]
    ev = estimate_structure(e.surface, _samples(e.surface, e.box))
    assert ev.kappa_estimate == pytest.approx(0.5, abs=1e-12)
    assert ev.kappa_agreement <= 1e-9


# -- classification -------------------------------------------------------------------


def test_classify_presets(entries):
    expected = {
        "paper-fig1-left": ("generalized-cone", 0.0),
        "paper-fig1-middle": ("exp-cylinder", 1.0),
        "paper-fig1-right": ("conical-power", 2.0),
    }
    for name, (label, k) in expected.items():
        e = entries[name]
        res = classify(e.surface, _samples(e.surface, e.box))
        assert res.label == label
        assert res.parameters["k"] == pytest.approx(k, abs=1e-9)


def test_classify_sphere(entries):
    e = entries["sphere-r2"]
    res = classify(e.surface, _samples(e.surface, e.box))
    assert res.label == "rotational-cgc"
    assert res.parameters["K"] == pytest.approx(0.25, rel=1e-8)


def test_classify_cylinder_translation_rotational(entries):
    cases = (
        ("right-cylinder-cosh", "right-cylinder"),
        ("translation-quadratic", "translation"),
        ("rotational-cone", "rotational-flat"),
        ("spindle-K1", "rotational-cgc"),
        ("catenoid", "not-constant-curvature"),
    )
    for name, label in cases:
        e = entries[name]
        res = classify(e.surface, _samples(e.surface, e.box, axis=e.axis))
        assert res.label == label, name


def test_classify_conical_k_recovery():
    rng = np.random.default_rng(99)
    for _ in range(5):
        spec, surf, box = random_family("conical-power", rng)
        res = classify(surf, _samples(surf, box))
        assert res.label == "conical-power"
        assert res.parameters["k"] == pytest.approx(spec.k, rel=1e-6)


def test_classification_json_shape(entries):
    e = entries["paper-fig1-right"]
    res = classify(e.surface, _samples(e.surface, e.box))
    doc = res.to_json()
    assert set(doc) == {"label", "params", "evidence", "constancy"}
    assert doc["constancy"]["is_zero"] is True


def test_tolerance_monotone(entries):
    e = entries["sphere-r1"]
    pts = _samples(e.surface, e.box)
    seen_pass = False
    for tol in (1e-14, 1e-11, 1e-8, 1e-5, 1e-2):
        rep = check_constant_K(e.surface, pts, tol=tol)
        if seen_pass:
            assert rep.is_constant
        seen_pass = seen_pass or rep.is_constant
    assert seen_pass


# -- suite plumbing ---------------------------------------------------------------------


def test_random_families_build_and_sample():
    rng = np.random.default_rng(4)
    for tag in ("right-cylinder", "translation", "rotational-parabolic",
                "generalized-cone", "exp-cylinder", "conical-power",
                "rotational-cgc"):
        spec, surf, box = random_family(tag, rng)
        pts = _samples(surf, box, n=80, seed=3)
        assert len(pts) >= 80
        assert np.max(np.abs(surf.value_arrays(pts))) <= 1e-9


def test_exp_cylinder_slivers_are_redrawn():
    # this draw leaves 16 % of the 17 x 17 probe columns solvable; the
    # classifier suite for seed 791266 drew it and could not gather 220 points
    sliver = ExpCylinder(m=(-0.5406822690611995, 0.5297667429202542, 0.8505297796637973),
                         n=(-0.6018278430620743, 1.9129666098937812, 0.6265461150445824))
    with pytest.raises(TooFewPointsError):
        collect_samples(build_surface(sliver), admissible_box(sliver), 220, seed=791266)
    rep = run_theorem_suite("classifier", seed=791266)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]


def test_classifier_suite_passes():
    rep = run_theorem_suite("classifier", seed=202)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]
    names = [c.name for c in rep.checks]
    assert "classifier-round-trip-mislabels" in names
    assert "contradiction-sentinel-fires" in names


def test_suite_report_json_deterministic():
    a = run_theorem_suite("classifier", seed=7).to_json()
    b = run_theorem_suite("classifier", seed=7).to_json()
    assert a == b


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_theorem_suite("everything")


def test_suite_all_samples_the_catalog_once(monkeypatch):
    from sepsurf import verify

    calls, seen = [], []
    real = verify.collect_samples
    monkeypatch.setattr(verify, "collect_samples",
                        lambda *a, **k: calls.append(a[2]) or real(*a, **k))
    for name in ("_suite_geometry", "_suite_families"):
        monkeypatch.setattr(verify, name, lambda report, seed, entries, samples:
                            seen.append((len(entries), samples)))
    monkeypatch.setattr(verify, "_suite_classifier", lambda report, seed: None)
    run_theorem_suite("all", seed=42)
    assert calls == [1000] * 12
    assert len(seen) == 2 and seen[0][1] is seen[1][1] and seen[0][0] == 12


# -- the grid schedule of collect_samples ------------------------------------------


def _unit_sphere():
    return SeparableSurface(Func1D.parse("x^2", "x"), Func1D.parse("y^2", "y"),
                            Func1D.parse("z^2-1", "z"), name="sphere")


# the sample-dense targets: the three Fig. 1 presets and the unit sphere
_DENSE = {name: (preset_surface(name), preset_box(name)) for name in sorted(PRESETS)}
_DENSE["sphere"] = (_unit_sphere(), (-1.0, 1.0, -1.0, 1.0, -1.0, 1.0))


def _full(n_min):
    return max(10, math.ceil(math.sqrt(0.9 * n_min)))


@pytest.fixture
def sides(monkeypatch):
    """The side of every grid collect_samples solves, in order."""
    seen = []
    real = verify.sample_points

    def counted(surface, grid, axis=None):
        seen.append(grid.nx)
        return real(surface, grid, axis=axis)

    monkeypatch.setattr(verify, "sample_points", counted)
    return seen


def _fake_yields(monkeypatch, yields):
    """sample_points stand-in that returns yields(side) points; records sides."""
    seen = []

    def fake(surface, grid, axis=None):
        seen.append(grid.nx)
        return np.zeros((yields(grid.nx), 3))

    monkeypatch.setattr(verify, "sample_points", fake)
    return seen


@pytest.mark.parametrize("name", sorted(_DENSE))
def test_dense_collection_keeps_about_what_was_asked(name, sides):
    surface, box = _DENSE[name]
    for seed in range(1, 6):
        sides.clear()
        pts = collect_samples(surface, box, 10_000, seed=seed)
        assert 10_000 <= len(pts) <= 13_000, (seed, sides, len(pts))
        assert len(sides) <= 2 and sides[0] == 32, (seed, sides)


@pytest.mark.parametrize("n_min", [200, 400, 1000, 1137])
def test_small_collection_is_the_first_grid(n_min, sides):
    surface, box = _DENSE["sphere"]
    for seed in (1, 42):
        sides.clear()
        pts = collect_samples(surface, box, n_min, seed=seed)
        full = _full(n_min)
        assert sides == [full]
        grid = GridSpec(box=box, nx=full, ny=full, nz=full, seed=seed)
        assert pts.tobytes() == sample_points(surface, grid).tobytes()
    for name in sorted(PRESETS):
        sides.clear()
        collect_samples(*_DENSE[name], n_min, seed=3)
        assert sides[0] == _full(n_min)


def test_short_grid_sizes_the_next_from_its_yield(monkeypatch):
    seen = _fake_yields(monkeypatch, lambda side: 10_000 if side > 32 else 500)
    assert len(collect_samples(None, (0, 1, 0, 1, 0, 1), 10_000)) == 10_000
    assert seen == [32, math.ceil(32 * math.sqrt(1.1 * 10_000 / 500))]


def test_zero_yield_goes_straight_to_the_last_grid(monkeypatch):
    last = 8 * _full(10_000)
    seen = _fake_yields(monkeypatch, lambda side: 10_000 if side == last else 0)
    collect_samples(None, (0, 1, 0, 1, 0, 1), 10_000)
    assert seen == [32, last]


def test_slow_growth_still_tries_the_last_grid(monkeypatch):
    # a yield just short of n_min grows the side by the 1.1 floor only; the
    # fourth attempt is the last grid whatever the third one gave
    seen = _fake_yields(monkeypatch, lambda side: 9_999)
    with pytest.raises(TooFewPointsError):
        collect_samples(None, (0, 1, 0, 1, 0, 1), 10_000)
    assert seen == [32, 36, 40, 8 * _full(10_000)]


@pytest.mark.parametrize("n_min", [400, 10_000])
def test_empty_box_raises_after_the_last_grid(n_min, sides):
    surface, _ = _DENSE["sphere"]
    with pytest.raises(TooFewPointsError):
        collect_samples(surface, (2.0, 3.0, 2.0, 3.0, 2.0, 3.0), n_min, seed=5)
    assert sides == [min(_full(n_min), 32), 8 * _full(n_min)]


def test_collection_is_deterministic_in_the_seed():
    for name in sorted(_DENSE):
        a = collect_samples(*_DENSE[name], 10_000, seed=4)
        b = collect_samples(*_DENSE[name], 10_000, seed=4)
        assert a.tobytes() == b.tobytes()
