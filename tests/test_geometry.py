import math

import numpy as np
import pytest

from sepsurf import geometry
from sepsurf.expr import Func1D
from sepsurf.geometry import (
    ImplicitJet2,
    SeparableSurface,
    SingularPointError,
    curvature_batch,
    gauss_curvature_implicit,
    gauss_curvature_separable,
    implicit_jet,
    k2_residual,
    level_state,
    level_state_batch,
    k2_residual_batch,
    shift_level,
    transform_jet,
)


def sphere(r=1.0):
    return SeparableSurface(
        Func1D.parse("x^2"),
        Func1D.parse("y^2", "y"),
        Func1D.parse(f"z^2-{r * r!r}", "z"),
        name=f"sphere-{r}",
    )


def log_cone():
    # the positive chart of x^2 = y z
    return SeparableSurface(
        Func1D.parse("-2*log(x)", "x", (0, math.inf)),
        Func1D.parse("log(y)", "y", (0, math.inf)),
        Func1D.parse("log(z)", "z", (0, math.inf)),
    )


def exp_surface():
    return SeparableSurface(
        Func1D.parse("-exp(x)"),
        Func1D.parse("exp(y)", "y"),
        Func1D.parse("exp(z)", "z"),
    )


def reciprocal_cone():
    return SeparableSurface(
        Func1D.parse("x^-1", "x", (0, math.inf)),
        Func1D.parse("y^-1", "y", (0, math.inf)),
        Func1D.parse("z^-1", "z", (-math.inf, 0)),
    )


# -- implicit jets ----------------------------------------------------------------


def test_jet_unit_sphere():
    jet = implicit_jet(sphere(), (1.0, 0.0, 0.0))
    assert jet.F == 0.0
    assert np.array_equal(jet.grad, [2.0, 0.0, 0.0])
    assert np.array_equal(jet.hess, np.diag([2.0, 2.0, 2.0]))


def test_jet_log_cone():
    jet = implicit_jet(log_cone(), (1.0, 1.0, 1.0))
    assert jet.F == 0.0
    assert np.array_equal(jet.grad, [-2.0, 1.0, 1.0])
    assert np.array_equal(jet.hess, np.diag([2.0, -1.0, -1.0]))


def test_jet_plane():
    plane = SeparableSurface(
        Func1D.parse("x"), Func1D.parse("y", "y"), Func1D.parse("z", "z"))
    jet = implicit_jet(plane, (0.0, 0.0, 0.0))
    assert np.array_equal(jet.grad, [1.0, 1.0, 1.0])
    assert np.all(jet.hess == 0.0)
    assert gauss_curvature_implicit(jet) == 0.0


# -- curvature --------------------------------------------------------------------


def test_curvature_unit_sphere_is_one():
    jet = implicit_jet(sphere(), (1.0, 0.0, 0.0))
    assert gauss_curvature_implicit(jet) == 1.0
    assert gauss_curvature_separable(sphere(), (0.6, 0.0, 0.8)) == pytest.approx(1.0, abs=1e-12)


def test_curvature_log_cone_is_zero():
    jet = implicit_jet(log_cone(), (1.0, 1.0, 1.0))
    assert gauss_curvature_implicit(jet) == 0.0
    assert gauss_curvature_separable(log_cone(), (1.3, 0.9, 1.69 / 0.9)) == pytest.approx(0.0, abs=1e-14)


def test_curvature_sphere_radius_law():
    for r in (0.5, 1.0, 2.0):
        s = sphere(r)
        p = (r * 0.6, 0.0, r * 0.8)
        assert gauss_curvature_separable(s, p) == pytest.approx(1 / r ** 2, rel=1e-12)


def test_curvature_exp_surface_zero():
    assert gauss_curvature_separable(exp_surface(), (math.log(2), 0.0, 0.0)) == 0.0


def test_singular_point_raises():
    s = sphere()
    with pytest.raises(SingularPointError):
        gauss_curvature_separable(s, (0.0, 0.0, 0.0))


# -- the change of variables --------------------------------------------------------


def test_level_sum_vanishes_on_surface():
    st = level_state(log_cone(), (1.3, 0.9, 1.69 / 0.9))
    assert abs(st.u + st.v + st.w) <= 1e-12


def test_branch_constants_log_cone():
    st = level_state(log_cone(), (1.3, 0.9, 1.69 / 0.9))
    for kappa in st.kappas:
        assert kappa == pytest.approx(0.0, abs=1e-12)


def test_branch_constants_exp_surface():
    st = level_state(exp_surface(), (math.log(2), 0.0, 0.0))
    assert st.kappas == (0.5, 0.5, 0.5)


def test_branch_constants_reciprocal_cone():
    st = level_state(reciprocal_cone(), (1.0, 1.0, -0.5))
    assert st.kappas == (0.25, 0.25, 0.25)


def test_branch_constant_absent_where_flat():
    plane = SeparableSurface(
        Func1D.parse("x"), Func1D.parse("y^2", "y"), Func1D.parse("z", "z"))
    st = level_state(plane, (0.3, 0.4, -0.46))
    assert st.kappa_x is None and st.kappa_z is None
    assert st.kappa_y is not None


def test_squared_slopes_nonnegative():
    st = level_state(log_cone(), (0.7, 1.1, 0.49 / 1.1))
    assert st.X >= 0 and st.Y >= 0 and st.Z >= 0


# -- the residual -------------------------------------------------------------------


def test_residual_sphere():
    s = sphere()
    st = level_state(s, (0.6, 0.0, 0.8))
    assert abs(k2_residual(st, 1.0)) <= 1e-10


def test_residual_log_cone():
    st = level_state(log_cone(), (1.3, 0.9, 1.69 / 0.9))
    assert abs(k2_residual(st, 0.0)) <= 1e-10


def test_residual_direct_arithmetic():
    from sepsurf.geometry import LevelState

    st = LevelState(0, 0, 0, 1, 1, 1, 0, 0, 0, None, None, None)
    assert k2_residual(st, 1.0) == -4.0


# -- jet transforms ------------------------------------------------------------------


def test_transform_identity():
    jet = implicit_jet(log_cone(), (1.0, 1.0, 1.0))
    out = transform_jet(jet, np.eye(3))
    assert np.array_equal(out.grad, jet.grad)
    assert np.array_equal(out.hess, jet.hess)


def test_transform_rotation_preserves_curvature():
    jet = implicit_jet(sphere(), (0.6, 0.0, 0.8))
    rng = np.random.default_rng(3)
    for _ in range(10):
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        K = gauss_curvature_implicit(transform_jet(jet, Q, rng.normal(size=3)))
        assert K == pytest.approx(1.0, rel=1e-12)


def test_transform_quarter_turn_permutes_hessian():
    jet = implicit_jet(log_cone(), (1.0, 1.0, 1.0))
    Rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    out = transform_jet(jet, Rz)
    assert np.allclose(np.diag(out.hess), [-1.0, 2.0, -1.0], atol=1e-15)


def test_transform_rejects_non_orthogonal():
    jet = implicit_jet(sphere(), (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        transform_jet(jet, np.eye(3) * 1.001)


def test_transform_rejects_a_stack_of_rotations_for_one_jet():
    jet = implicit_jet(sphere(), (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        transform_jet(jet, np.stack([np.eye(3)] * 2))


def test_batched_rotation_matches_transform_jet():
    # verify's rotated cross-check runs the same kernel on many rows at once
    s = exp_surface()
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1.0, 1.0, size=(12, 3))
    R = np.linalg.qr(rng.normal(size=(12, 3, 3)))[0]
    _, grad, hess = geometry._implicit_jet_cols(*s.jet_arrays(pts))
    grads, hesss = geometry._rotate_jet(grad, hess, R)
    K = geometry._curvature_implicit(grads, hesss)
    for i, p in enumerate(pts):
        out = transform_jet(implicit_jet(s, p), R[i])
        np.testing.assert_allclose(out.grad, grads[i], rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(out.hess, hesss[i], rtol=1e-15, atol=1e-15)
        assert K[i] == pytest.approx(gauss_curvature_implicit(out), rel=1e-14)


def test_scaling_leaves_curvature_unchanged():
    jet = implicit_jet(sphere(2.0), (1.2, 0.0, 1.6))
    K0 = gauss_curvature_implicit(jet)
    for lam in (-3.0, 0.25, 40.0):
        scaled = ImplicitJet2(lam * jet.F, lam * jet.grad, lam * jet.hess)
        assert gauss_curvature_implicit(scaled) == pytest.approx(K0, rel=1e-12)


# -- batch agreement ------------------------------------------------------------------


def test_batch_matches_scalar():
    s = sphere()
    pts = np.array([[0.6, 0.0, 0.8], [0.0, 0.6, -0.8], [0.5, 0.5, math.sqrt(0.5)]])
    K = curvature_batch(s, pts)
    for p, k in zip(pts, K):
        assert k == gauss_curvature_separable(s, p)
    st = level_state_batch(s, pts)
    r = k2_residual_batch(st, K)
    assert np.max(np.abs(r)) <= 1e-10


def test_shift_level_moves_the_level_value():
    f = Func1D.parse("-2*log(x)", domain=(0, math.inf))
    x1 = shift_level(f, 1.3, 0.05)
    assert f.value(x1) == pytest.approx(f.value(1.3) + 0.05, abs=1e-12)


def test_shift_level_rows_stop_on_their_own():
    f = Func1D.parse("x^2")
    x0 = np.array([1.3, 0.0, 2.0, -0.7])
    x, zero_slope = geometry._shift_level_cols(f, x0, 0.05)
    assert zero_slope.tolist() == [False, True, False, False]
    assert math.isnan(x[1])
    for i in (0, 2, 3):
        assert x[i] == shift_level(f, x0[i], 0.05)
    with pytest.raises(SingularPointError):
        shift_level(f, 0.0, 0.05)


# -- closed-form cross-checks of the implicit formula ---------------------------------


def test_implicit_curvature_ellipsoid_closed_form():
    # x^2/a^2 + y^2/b^2 + z^2/c^2 = 1 has K = 1/(a^2 b^2 c^2 (x^2/a^4 + y^2/b^4 + z^2/c^4)^2)
    a, b, c = 1.3, 0.8, 2.1
    rng = np.random.default_rng(5)
    for _ in range(25):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        x, y, z = a * u[0], b * u[1], c * u[2]
        grad = np.array([2 * x / a ** 2, 2 * y / b ** 2, 2 * z / c ** 2])
        hess = np.diag([2 / a ** 2, 2 / b ** 2, 2 / c ** 2])
        K = gauss_curvature_implicit(ImplicitJet2(0.0, grad, hess))
        expected = 1.0 / (a * a * b * b * c * c
                          * (x * x / a ** 4 + y * y / b ** 4 + z * z / c ** 4) ** 2)
        assert K == pytest.approx(expected, rel=1e-12)


def test_implicit_curvature_hyperboloid_closed_form():
    # x^2 + y^2 - z^2 = 1 has K = -1/(x^2 + y^2 + z^2)^2 (negative everywhere)
    rng = np.random.default_rng(6)
    for _ in range(25):
        z = float(rng.uniform(-1.5, 1.5))
        phi = float(rng.uniform(0, 2 * math.pi))
        r = math.sqrt(1 + z * z)
        x, y = r * math.cos(phi), r * math.sin(phi)
        grad = np.array([2 * x, 2 * y, -2 * z])
        hess = np.diag([2.0, 2.0, -2.0])
        K = gauss_curvature_implicit(ImplicitJet2(0.0, grad, hess))
        assert K == pytest.approx(-1.0 / (x * x + y * y + z * z) ** 2, rel=1e-12)


def test_implicit_curvature_nonfinite_hessian_is_not_singular():
    # a regular gradient is not a singular point, whatever the Hessian holds
    jet = ImplicitJet2(0.0, [1.0, 0.0, 0.0], np.diag([0.0, math.inf, 0.0]))
    assert math.isnan(gauss_curvature_implicit(jet))


def test_branch_constant_matches_level_derivative():
    # kappa is the derivative of (squared slope / its rate) against the level
    # value; check the closed form against a centered difference in the level
    def kappa_fd(func, x0, delta=1e-4):
        def ratio(x):
            j = func.jet3(x)
            return (j.d1 ** 2) / (2.0 * j.d2)

        xp = shift_level(func, x0, delta)
        xm = shift_level(func, x0, -delta)
        return (ratio(xp) - ratio(xm)) / (2.0 * delta)

    cases = [
        (Func1D.parse("-2*log(x)", domain=(0, math.inf)), 1.3, 0.0),
        (Func1D.parse("exp(x)"), 0.4, 0.5),
        (Func1D.parse("x^-1", domain=(0, math.inf)), 0.8, 0.25),
        (Func1D.parse("-cosh(x)^2"), 0.7, None),  # varies: compare to formula only
    ]
    for func, x0, known in cases:
        j = func.jet3(x0)
        formula = 1.0 - j.d1 * j.d3 / (2.0 * j.d2 ** 2)
        assert kappa_fd(func, x0) == pytest.approx(formula, abs=1e-6)
        if known is not None:
            assert formula == pytest.approx(known, abs=1e-12)
