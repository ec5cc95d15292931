import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from sepsurf.expr import EvalDomainError, Func1D
from sepsurf.families import (
    ConicalPower,
    DegenerateSurfaceError,
    ExpCylinder,
    GeneralizedCone,
    InvalidFamilyError,
    PRESETS,
    RightCylinder,
    RotationalCGC,
    RotationalParabolic,
    TabulatedFunc1D,
    Translation,
    admissible_box,
    build_surface,
    family_from_json,
    family_to_json,
    preset_box,
    preset_surface,
    rotational_profile,
)
from sepsurf.geometry import SeparableSurface, curvature_batch
from sepsurf.verify import FAMILY_TAGS, collect_samples, random_family


# -- construction of the showcase surfaces ------------------------------------------


def test_generalized_cone_is_product_surface():
    # p=2, q=-1, unit coefficients: the zero set is x^2 = y z on the positive chart
    surf = build_surface(GeneralizedCone(p=2.0, m=(1, 1, 1)))
    for x, y in ((1.2, 0.9), (0.7, 1.4), (1.0, 1.0)):
        z = x * x / y
        assert abs(surf.value((x, y, z))) <= 1e-12


def test_exp_cylinder_equation():
    surf = build_surface(ExpCylinder(m=(1, 1, 1), n=(-1, 1, 1)))
    x, y = 1.0, 0.3
    z = math.log(math.exp(x) - math.exp(y))
    assert abs(surf.value((x, y, z))) <= 1e-12


def test_conical_power_reciprocal_sum():
    # k=2 gives exponent -1: 1/x + 1/y + 1/z = 0 with z on the negative chart
    surf = build_surface(ConicalPower(k=2.0, m=(1, 1, 1)))
    for x, y in ((1.0, 1.0), (0.8, 1.6)):
        z = -1.0 / (1.0 / x + 1.0 / y)
        assert abs(surf.value((x, y, z))) <= 1e-12
    assert surf.h.contains(-0.5) and not surf.h.contains(0.5)


def test_conical_power_non_integer_exponent():
    # k=-1 gives exponent 1/2: sqrt(x) + sqrt(y) = sqrt(z), a flat cone
    spec = ConicalPower(k=-1.0, m=(1, 1, 1))
    surf = build_surface(spec)
    x, y = 1.0, 0.25
    z = (math.sqrt(x) + math.sqrt(y)) ** 2
    assert abs(surf.value((x, y, z))) <= 1e-12


def test_right_cylinder_constant_component():
    spec = RightCylinder(
        f=Func1D.parse("cosh(x)"), g=Func1D.parse("y^2", "y"), a=-3.0, plane="z")
    surf = build_surface(spec)
    jet = surf.h.jet3(0.37)
    assert jet.as_tuple() == (-3.0, 0.0, 0.0, 0.0)
    y = math.sqrt(3.0 - math.cosh(0.5))
    assert abs(surf.value((0.5, y, 123.0))) <= 1e-12


def test_right_cylinder_other_planes():
    spec = RightCylinder(
        f=Func1D.parse("y^2", "y"), g=Func1D.parse("z^2", "z"), a=-1.0, plane="x")
    surf = build_surface(spec)
    assert abs(surf.value((99.0, 0.6, 0.8))) <= 1e-12


def test_translation_surface_graph():
    surf = build_surface(Translation(a=0.75, g=Func1D.parse("y^2", "y")))
    x, y = 0.4, -1.1
    assert abs(surf.value((x, y, 0.75 * x + y * y))) <= 1e-12


def test_rotational_parabolic_completing_square():
    spec = RotationalParabolic(a=1.0, b=0.0, c=2.0, h=Func1D.parse("z^4+3", "z"))
    surf = build_surface(spec)
    x, y, z = 0.5, 1.0, 0.9
    expected = x * x + x + y * y + 2.0 - (z ** 4 + 3)
    assert surf.value((x, y, z)) == pytest.approx(expected, abs=1e-12)


# -- parameter validation --------------------------------------------------------------


def test_exp_cylinder_same_sign_rejected():
    with pytest.raises(InvalidFamilyError):
        ExpCylinder(m=(1, 1, 1), n=(1, 2, 3))


def test_translation_zero_slope_rejected():
    with pytest.raises(InvalidFamilyError):
        Translation(a=0.0, g=Func1D.parse("y^2", "y"))


def test_generalized_cone_degenerate_powers_rejected():
    with pytest.raises(InvalidFamilyError):
        GeneralizedCone(p=0.0, m=(1, 1, 1))
    with pytest.raises(InvalidFamilyError):
        GeneralizedCone(p=1.0, m=(1, 1, 1))
    with pytest.raises(InvalidFamilyError):
        GeneralizedCone(p=2.0, m=(1, 0, 1))


def test_conical_power_k_validation():
    with pytest.raises(InvalidFamilyError):
        ConicalPower(k=0.0, m=(1, 1, 1))
    with pytest.raises(InvalidFamilyError):
        ConicalPower(k=1.0, m=(1, 1, 1))
    with pytest.raises(InvalidFamilyError):
        ConicalPower(k=2.0, m=(1, 1, 1), signs=(1, 1, 1))


def test_conical_power_even_exponent_degenerates():
    # k = (2n-1)/(2n) makes the exponent an even integer: only the apex
    with pytest.raises(DegenerateSurfaceError):
        build_surface(ConicalPower(k=0.5, m=(1, 1, 1)))
    # negative even exponent: empty zero set
    with pytest.raises(DegenerateSurfaceError):
        build_surface(ConicalPower(k=1.5, m=(1, 1, 1)))


def test_conical_power_even_exponent_with_signs_is_a_cone():
    # explicit mixed signs rescue the even exponent: x^2 + y^2 = z^2
    spec = ConicalPower(k=0.5, m=(1, 1, 1), signs=(1, 1, -1))
    surf = build_surface(spec)
    assert abs(surf.value((0.6, 0.8, 1.0))) <= 1e-12


def test_rotational_cgc_validation():
    with pytest.raises(InvalidFamilyError):
        RotationalCGC(K=0.0, r0=1.0)
    with pytest.raises(InvalidFamilyError):
        RotationalCGC(K=1.0, r0=-1.0)
    with pytest.raises(InvalidFamilyError):
        RotationalCGC(K=1.0, r0=1.0, dr0=1.0)


def test_profile_step_bound_enforced():
    with pytest.raises(InvalidFamilyError):
        rotational_profile(1.0, 1.0, 0.0, arc_span=3.0, step=0.01)


# -- the rotational profile -------------------------------------------------------------


def test_profile_recovers_the_sphere():
    tab = rotational_profile(1.0, 1.0, 0.0)
    zs = np.linspace(tab.domain[0] + 1e-6, tab.domain[1] - 1e-6, 500)
    worst = np.max(np.abs(tab.value_array(zs) - (zs * zs - 1.0)))
    assert worst <= 1e-6
    assert tab.truncated  # |r'| -> 1 at the poles before the arc span ends


def test_profile_energy_conserved():
    for K, r0, dr0 in ((1.0, 0.5, 0.0), (-1.0, 0.5, 0.0), (0.8, 0.6, 0.15)):
        tab = rotational_profile(K, r0, dr0)
        r, p = tab.profile_nodes["r"], tab.profile_nodes["dr"]
        e0 = dr0 * dr0 + K * r0 * r0
        assert np.max(np.abs(p * p + K * r * r - e0)) <= 1e-8


def test_profile_negative_curvature_band():
    spec = RotationalCGC(K=-1.0, r0=0.5, dr0=0.0)
    surf = build_surface(spec)
    pts = collect_samples(surf, admissible_box(spec), 400, seed=11)
    K = curvature_batch(surf, pts)
    K = K[np.isfinite(K)]
    assert np.max(np.abs(K - (-1.0))) <= 1e-4


def test_tabulated_jets_match_differences():
    tab = rotational_profile(-1.0, 0.5, 0.0)
    zs = np.linspace(tab.domain[0] * 0.8, tab.domain[1] * 0.8, 40)
    h = 1e-5
    for z in zs:
        j = tab.jet3(float(z))
        d1 = (tab.value(z + h) - tab.value(z - h)) / (2 * h)
        d2 = (tab.value(z + h) - 2 * tab.value(z) + tab.value(z - h)) / h ** 2
        assert j.d1 == pytest.approx(d1, rel=1e-7, abs=1e-7)
        assert j.d2 == pytest.approx(d2, rel=1e-4, abs=1e-4)


def test_tabulated_outside_domain_errors():
    tab = rotational_profile(1.0, 1.0, 0.0)
    with pytest.raises(EvalDomainError):
        tab.value(tab.domain[1] + 1.0)


def test_tabulated_breakpoints_must_increase():
    with pytest.raises(ValueError):
        TabulatedFunc1D(np.array([0.0, 0.0, 1.0]), np.zeros(3), np.zeros(3), np.zeros(3))


# -- admissible boxes ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_boxes_contain_points(name):
    surf = preset_surface(name)
    pts = collect_samples(surf, preset_box(name), 200, seed=5)
    assert len(pts) >= 200
    assert np.max(np.abs(surf.value_arrays(pts))) <= 1e-9


def test_admissible_box_generalized_cone_unit_chart():
    box = admissible_box(GeneralizedCone(p=2.0, m=(1, 1, 1)))
    assert box == (0.5, 2.0, 0.5, 2.0, 0.5, 2.0)


def test_admissible_box_conical_chart_signs():
    # x and y bases positive, the z chart on the negative side
    box = admissible_box(ConicalPower(k=2.0, m=(1, 1, 1)))
    assert box[0] > 0 and box[2] > 0
    assert box[5] < 0


def test_admissible_box_fallback_families():
    spec = RotationalCGC(K=1.0, r0=0.55, dr0=0.0)
    box = admissible_box(spec)
    surf = build_surface(spec)
    pts = collect_samples(surf, box, 100, seed=5)
    assert len(pts) >= 100


# -- serialization ------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    RightCylinder(f=Func1D.parse("cosh(x)"), g=Func1D.parse("y^2", "y"), a=-3.0, plane="z"),
    Translation(a=0.75, g=Func1D.parse("y^2+sin(y)", "y")),
    RotationalParabolic(a=0.4, b=-0.2, c=0.0, h=Func1D.parse("(0.8*z+2)^2-0.05", "z")),
    RotationalCGC(K=-1.0, r0=0.5, dr0=0.1),
    GeneralizedCone(p=2.0, m=(1, 1, 1)),
    ExpCylinder(m=(1, 1, 1), n=(-1, 1, 1)),
    ConicalPower(k=2.0, m=(1, 1, 1)),
    ConicalPower(k=-0.7, m=(1.5, -1.0, 2.0), n=(0.1, 0.0, -0.2), signs=(1, -1, 1)),
])
def test_family_json_round_trip(spec):
    doc = json.loads(json.dumps(family_to_json(spec)))
    again = family_from_json(doc)
    assert family_to_json(again) == family_to_json(spec)


def _box_bits(box):
    return [float(v).hex() for v in box]


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_family_json_round_trip_random_draws(tag):
    rng = np.random.default_rng(20)
    for _ in range(3):
        spec, _, _ = random_family(tag, rng)
        doc = family_to_json(spec)
        again = family_from_json(json.loads(json.dumps(doc)))
        assert family_to_json(again) == doc
        assert list(family_to_json(again)["params"]) == list(doc["params"])  # key order
        assert _box_bits(admissible_box(again)) == _box_bits(admissible_box(spec))


@pytest.mark.parametrize("fn", [build_surface, admissible_box, family_to_json])
def test_non_spec_objects_rejected(fn):
    lookalike = SimpleNamespace(tag="exp-cylinder", m=(1.0, 1.0, 1.0), n=(-1.0, 1.0, 1.0))
    doc = {"family": "exp-cylinder", "params": {"m": [1, 1, 1], "n": [-1, 1, 1]}}
    for obj in (None, "exp-cylinder", doc, lookalike):
        with pytest.raises(InvalidFamilyError):
            fn(obj)


def test_family_json_validation():
    with pytest.raises(InvalidFamilyError):
        family_from_json({"family": "no-such-family", "params": {}})
    with pytest.raises(InvalidFamilyError):
        family_from_json({"family": "generalized-cone",
                          "params": {"p": 2.0, "q": 0.5, "m": [1, 1, 1]}})


# -- geometric family properties -------------------------------------------------------------


def test_cone_apex_scaling():
    spec = GeneralizedCone(p=2.0, m=(1, 1, 1), n=(0.2, -0.1, 0.3))
    surf = build_surface(spec)
    pts = collect_samples(surf, admissible_box(spec), 100, seed=3)[:50]
    apex = np.array(spec.apex)
    for t in (0.5, 2.0):
        q = apex + t * (pts - apex)
        vals = surf.value_arrays(q)
        good = np.isfinite(vals)
        assert np.any(good)
        assert np.max(np.abs(vals[good])) <= 1e-9


def test_exp_cylinder_ruling():
    spec = ExpCylinder(m=(1.0, 0.8, -1.2), n=(-0.9, 1.4, 0.7))
    surf = build_surface(spec)
    pts = collect_samples(surf, admissible_box(spec), 100, seed=3)[:50]
    d = np.array(spec.generator)
    for t in (-1.0, -0.5, 0.5, 1.0):
        vals = surf.value_arrays(pts + t * d)
        assert np.max(np.abs(vals)) <= 1e-9


@pytest.mark.parametrize("params", [
    {"k": 2.0, "m": [1, 1, 1], "signs": [1.7, -1, 1]},
    {"k": 2.0, "m": [1, 1, 1], "signs": "1-1"},
    {"k": 2.0, "m": [1, 1, 1], "signs": [True, -1, 1]},
    {"k": 2.0, "m": "111"},
    {"k": 2.0, "m": ["1", "1", "1"]},
    {"k": 2.0, "m": {"a": 1, "b": 1, "c": 1}},
], ids=["sign-fraction", "signs-string", "sign-bool", "m-string", "m-strings", "m-object"])
def test_family_from_json_rejects_non_numeric_triples(params):
    with pytest.raises(InvalidFamilyError):
        family_from_json({"family": "conical-power", "params": params})


def test_family_from_json_accepts_integral_float_signs():
    spec = family_from_json({"family": "conical-power",
                             "params": {"k": 2.0, "m": [1, 1, 1], "signs": [1.0, -1, 1]}})
    assert spec.signs == (1, -1, 1) and all(type(s) is int for s in spec.signs)


def test_surfaces_own_preferred_axis_and_family_spec():
    plain = SeparableSurface(Func1D.parse("x"), Func1D.parse("y", "y"), Func1D.parse("z", "z"))
    assert plain.preferred_axis == 2 and plain.family_spec is None
    for plane, axis in (("x", 2), ("y", 2), ("z", 1)):
        spec = RightCylinder(f=Func1D.parse("cosh(x)"), g=Func1D.parse("x^2"), a=-3.0,
                             plane=plane)
        surf = build_surface(spec)
        assert surf.preferred_axis == axis and surf.family_spec is spec
    for name, spec in PRESETS.items():
        surf = preset_surface(name)
        assert surf.preferred_axis == 2 and surf.family_spec == spec


def test_d1_array_is_jet3_arrays_derivative_column():
    # the root engine bisects and polishes on d1_array alone; it must equal
    # jet3_array's d1 bit for bit, NaN outside the domain included.  Both
    # component kinds share one protocol: the scalar calls are rows of
    # jet3_array and raise EvalDomainError at and beyond the domain ends
    xs = np.linspace(-0.5, 3.0, 301)
    f = Func1D.parse("sin(cos(exp(0.9*x)*x)/x)+log(x)", "x", (0.0, 2.5))
    tab = rotational_profile(1.0, 1.0, 0.0)
    assert f.tabulated is False and tab.tabulated is True
    for func, pts in ((f, xs), (tab, np.linspace(*tab.domain, 301)[1:-1])):
        pts = np.concatenate([pts, [func.domain[0], func.domain[1]]])
        jets = func.jet3_array(pts)
        assert func.d1_array(pts).tobytes() == jets[1].tobytes()
        assert func.value_array(pts).tobytes() == jets[0].tobytes()
        lo, hi = func.domain
        for i in np.flatnonzero((pts > lo) & (pts < hi))[::10]:
            x = float(pts[i])
            row = [float(col[i]).hex() for col in jets]
            assert float(func.value(x)).hex() == float(func(x)).hex() == row[0]
            assert [float(v).hex() for v in func.jet3(x).as_tuple()] == row
            assert [float(func.deriv_value(x, k)).hex() for k in range(4)] == row
        for x in (lo, hi, hi + 1.0):
            for call in (func.value, func.jet3, func.deriv_value):
                with pytest.raises(EvalDomainError):
                    call(x)
