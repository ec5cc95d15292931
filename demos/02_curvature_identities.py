"""Gaussian curvature of separable surfaces, two ways, plus the identities.

A surface f(x) + g(y) + h(z) = 0 has Gaussian curvature computable either
from the general implicit cofactor expansion (works for any implicit jet)
or from the separable short form.  Both must agree to machine precision;
rigid motions and rescalings of F must leave K unchanged; and the
squared-slope form of the identity must have vanishing residual.
"""

import numpy as np

from sepsurf import (
    Func1D,
    SeparableSurface,
    gauss_curvature_implicit,
    gauss_curvature_separable,
    implicit_jet,
    k2_residual,
    level_state,
    transform_jet,
)
from sepsurf.verify import collect_samples
from sepsurf.geometry import curvature_batch

sphere = SeparableSurface(
    Func1D.parse("x^2"), Func1D.parse("y^2", "y"), Func1D.parse("z^2-1", "z"),
    name="unit sphere")
log_cone = SeparableSurface(
    Func1D.parse("-2*log(x)", "x", (0, np.inf)),
    Func1D.parse("log(y)", "y", (0, np.inf)),
    Func1D.parse("log(z)", "z", (0, np.inf)),
    name="x^2 = y z (positive chart)")

print("== the two routes agree ==")
for surf, p in ((sphere, (0.6, 0.0, 0.8)), (log_cone, (1.3, 0.9, 1.69 / 0.9))):
    jet = implicit_jet(surf, p)
    Ki = gauss_curvature_implicit(jet)
    Ks = gauss_curvature_separable(surf, p)
    print(f"{surf.name:28s} K_implicit={Ki:+.15f}  K_separable={Ks:+.15f}")

print("\n== rigid motions leave K alone ==")
jet = implicit_jet(sphere, (0.6, 0.0, 0.8))
rng = np.random.default_rng(1)
for i in range(3):
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    moved = transform_jet(jet, Q)
    print(f"random rotation {i}: K = {gauss_curvature_implicit(moved):.15f}")

print("\n== the squared-slope identity ==")
st = level_state(sphere, (0.6, 0.0, 0.8))
print("level values sum to", st.u + st.v + st.w, "(zero on the surface)")
print("residual at K=1 :", k2_residual(st, 1.0))
print("residual at K=0 :", k2_residual(st, 0.0), "(nonzero: wrong K)")

print("\n== branch constants per axis ==")
for surf, p in ((log_cone, (1.3, 0.9, 1.69 / 0.9)),):
    st = level_state(surf, p)
    print(f"{surf.name}: kappa = {st.kappas}")

print("\n== statistics over a thousand on-surface samples ==")
pts = collect_samples(sphere, (-0.62, 0.62, -0.62, 0.62, -0.999, 0.999), 1000, seed=42)
K = curvature_batch(sphere, pts)
K = K[np.isfinite(K)]
print(f"unit sphere: n={K.size}  mean K={np.mean(K):.12f}  "
      f"max |K-1|={np.max(np.abs(K - 1)):.3e}")
