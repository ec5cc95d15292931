"""Gaussian curvature of implicit and separable surfaces.

A separable surface is the zero set of F(x,y,z) = f(x) + g(y) + h(z).
Curvature comes in two independently computed flavors:

* ``gauss_curvature_implicit`` works on any second-order implicit jet
  (value, gradient, Hessian) through the cofactor expansion of the
  Hessian, so it also accepts rotated jets and tabulated components.
* ``gauss_curvature_separable`` uses the separable short form,
  K = (f'^2 g'' h'' + g'^2 f'' h'' + h'^2 f'' g'') / (f'^2+g'^2+h'^2)^2.

``level_state`` evaluates the change of variables in which each squared
slope X = f'^2 becomes a function of its own level value u = f(x); the
per-axis constant kappa = (X/X')' = 1 - f' f''' / (2 f''^2) labels the
flat branches downstream.

Each formula has one implementation, on jet columns or on (N, 3) gradients
and (N, 3, 3) Hessians.  The scalar functions (``implicit_jet``,
``transform_jet``, ``gauss_curvature_implicit``, ``gauss_curvature_separable``,
``level_state``, ``k2_residual``, ``shift_level``) are one-row views of the
batch ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .expr import EvalDomainError, Func1D, Jet3

__all__ = [
    "REGULARITY_EPS",
    "SingularPointError",
    "SeparableSurface",
    "ImplicitJet2",
    "LevelState",
    "implicit_jet",
    "gauss_curvature_implicit",
    "gauss_curvature_separable",
    "level_state",
    "k2_residual",
    "transform_jet",
    "curvature_batch",
    "level_state_batch",
    "k2_residual_batch",
    "shift_level",
]

# points with |grad F| at or below this are reported singular, not extrapolated
REGULARITY_EPS = 1e-9


class SingularPointError(Exception):
    """The gradient vanishes (within REGULARITY_EPS) at the requested point."""


class SeparableSurface:
    """The zero set of f(x) + g(y) + h(z).

    Components only need ``value``, ``jet3``, ``value_array``, ``jet3_array``
    and ``domain``; both expression-backed Func1D and tabulated functions
    qualify.  Immutable; safe for concurrent shared reads.
    """

    def __init__(self, f, g, h, name: str = ""):
        self.f = f
        self.g = g
        self.h = h
        self.name = name

    @property
    def components(self) -> tuple:
        return (self.f, self.g, self.h)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"SeparableSurface{tag}({self.f!r}, {self.g!r}, {self.h!r})"

    def value(self, p: Sequence[float]) -> float:
        x, y, z = p
        return self.f.value(x) + self.g.value(y) + self.h.value(z)

    def jets(self, p: Sequence[float]) -> tuple[Jet3, Jet3, Jet3]:
        x, y, z = p
        return (self.f.jet3(x), self.g.jet3(y), self.h.jet3(z))

    def on_surface(self, p: Sequence[float], tol: float = 1e-9) -> bool:
        try:
            return abs(self.value(p)) <= tol
        except EvalDomainError:
            return False

    def jet_arrays(self, pts: np.ndarray) -> tuple:
        """Per-axis jet columns for an (N, 3) point array.

        Returns ((f,f',f'',f'''), (g,...), (h,...)) with NaN outside domains.
        """
        pts = np.asarray(pts, dtype=float)
        return (
            self.f.jet3_array(pts[:, 0]),
            self.g.jet3_array(pts[:, 1]),
            self.h.jet3_array(pts[:, 2]),
        )

    def value_arrays(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return (
            self.f.value_array(pts[:, 0])
            + self.g.value_array(pts[:, 1])
            + self.h.value_array(pts[:, 2])
        )


@dataclass(frozen=True)
class ImplicitJet2:
    """Second-order data of a trivariate implicit function at a point."""

    F: float
    grad: np.ndarray  # (3,)
    hess: np.ndarray  # (3, 3), symmetric

    def __post_init__(self):
        object.__setattr__(self, "grad", np.asarray(self.grad, dtype=float))
        hess = np.asarray(self.hess, dtype=float)
        if not np.array_equal(hess, hess.T):
            raise ValueError("Hessian must be symmetric")
        object.__setattr__(self, "hess", hess)


def implicit_jet(surface: SeparableSurface, p: Sequence[float]) -> ImplicitJet2:
    """Jet of F = f+g+h at p: diagonal Hessian diag(f'', g'', h'')."""
    F, grad, hess = _implicit_jet_cols(*_row_jets(surface, p))
    return ImplicitJet2(float(F[0]), grad[0], hess[0])


def _cofactor_quadratic(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """grad^T . cofactor(hess) . grad, expanded in the six 2x2 determinants.

    Takes one jet, (3,) and (3, 3), or a batch, (N, 3) and (N, 3, 3).
    """
    gx, gy, gz = grad[..., 0], grad[..., 1], grad[..., 2]
    hxx, hxy, hxz = hess[..., 0, 0], hess[..., 0, 1], hess[..., 0, 2]
    hyy, hyz, hzz = hess[..., 1, 1], hess[..., 1, 2], hess[..., 2, 2]
    return (
        gx * gx * (hyy * hzz - hyz * hyz)
        + gy * gy * (hxx * hzz - hxz * hxz)
        + gz * gz * (hxx * hyy - hxy * hxy)
        + 2.0 * gx * gy * (hyz * hxz - hxy * hzz)
        + 2.0 * gy * gz * (hxy * hxz - hyz * hxx)
        + 2.0 * gx * gz * (hxy * hyz - hxz * hyy)
    )


def gauss_curvature_implicit(jet: ImplicitJet2, eps: float = REGULARITY_EPS) -> float:
    """K of the level set from an arbitrary implicit jet.

    Even in the gradient, so no normal orientation is involved; homogeneous
    of degree zero under F -> lambda F.
    """
    g = float(np.linalg.norm(jet.grad))
    if g <= eps:
        raise SingularPointError(f"|grad F| = {g:.3e} <= {eps:.0e}")
    return float(_curvature_implicit(jet.grad, jet.hess, eps))


def _row_jets(surface: SeparableSurface, p: Sequence[float]) -> tuple:
    """Jet columns of the single point p; EvalDomainError where any is NaN."""
    jets = surface.jet_arrays(np.asarray(p, dtype=float).reshape(1, 3))
    if np.isnan(jets).any():
        raise EvalDomainError(f"jets undefined at {tuple(p)!r}")
    return jets


def gauss_curvature_separable(
    surface: SeparableSurface, p: Sequence[float], eps: float = REGULARITY_EPS
) -> float:
    """K from the separable short form of the cofactor expansion."""
    K = float(_curvature_cols(*_row_jets(surface, p), eps)[0])
    if math.isnan(K):
        raise SingularPointError(f"|grad F| <= {eps:.0e} at {tuple(p)!r}")
    return K


@dataclass(frozen=True)
class LevelState:
    """Change-of-variables data at a surface point.

    u, v, w   level values f(x), g(y), h(z); u+v+w ~ 0 on the surface.
    X, Y, Z   squared slopes f'^2, g'^2, h'^2 (always >= 0).
    dX, ...   rates of the squared slopes w.r.t. their own level value,
              dX/du = 2 f''(x).
    kappa_*   the per-axis branch constant 1 - f' f''' / (2 f''^2);
              None where the second derivative vanishes.
    """

    u: float
    v: float
    w: float
    X: float
    Y: float
    Z: float
    dX: float
    dY: float
    dZ: float
    kappa_x: Optional[float]
    kappa_y: Optional[float]
    kappa_z: Optional[float]

    @property
    def kappas(self) -> tuple[Optional[float], Optional[float], Optional[float]]:
        return (self.kappa_x, self.kappa_y, self.kappa_z)


def level_state(surface: SeparableSurface, p: Sequence[float]) -> LevelState:
    row = {k: float(col[0]) for k, col in _level_state_cols(*_row_jets(surface, p)).items()}
    for k in ("kappa_x", "kappa_y", "kappa_z"):
        if math.isnan(row[k]):
            row[k] = None
    return LevelState(**row)


def k2_residual(state: LevelState, K: float) -> float:
    """Normalized residual of the squared-slope curvature identity.

    (X dY dZ + Y dX dZ + Z dX dY - 4 K (X+Y+Z)^2) / max(1, (X+Y+Z)^2)
    """
    return float(k2_residual_batch(vars(state), K))


def transform_jet(
    jet: ImplicitJet2,
    rotation: np.ndarray,
    translation: Sequence[float] = (0.0, 0.0, 0.0),
) -> ImplicitJet2:
    """Jet of F composed with the rigid motion q -> R q + t, at the preimage.

    grad -> R^T grad, hess -> R^T hess R; the value and the translation do
    not enter.  The rotation must be orthogonal to 1e-12.
    """
    np.asarray(translation, dtype=float)  # shape check only
    grad, hess = _rotate_jet(jet.grad, jet.hess, rotation)
    return ImplicitJet2(jet.F, grad, hess)


# -- batch kernels ------------------------------------------------------------
#
# The ``*_cols`` kernels take per-axis jet columns (value, d1, d2, d3);
# points that are singular or out of domain come back as NaN and are
# filtered by the callers.


def _implicit_jet_cols(fa, ga, ha) -> tuple:
    """Values (N,), gradients (N, 3) and diagonal Hessians (N, 3, 3) of F."""
    grad = np.stack([fa[1], ga[1], ha[1]], axis=-1)
    hess = np.zeros(grad.shape + (3,))
    for i, ja in enumerate((fa, ga, ha)):
        hess[:, i, i] = ja[2]
    return fa[0] + ga[0] + ha[0], grad, hess


def _rotate_jet(grad: np.ndarray, hess: np.ndarray, rotation: np.ndarray) -> tuple:
    """grad -> R^T grad, hess -> R^T hess R, symmetrised.

    Takes one jet and a (3, 3) rotation, or (N, 3) gradients, (N, 3, 3)
    Hessians and one rotation per row.  Each rotation must be orthogonal
    to 1e-12.
    """
    R = np.asarray(rotation, dtype=float)
    if R.shape != np.shape(grad)[:-1] + (3, 3):
        raise ValueError("rotation must be 3x3")
    Rt = np.swapaxes(R, -1, -2)
    if np.max(np.abs(Rt @ R - np.eye(3)), initial=0.0) > 1e-12:
        raise ValueError("rotation is not orthogonal within 1e-12")
    grad = (Rt @ np.asarray(grad, dtype=float)[..., None])[..., 0]
    hess = Rt @ np.asarray(hess, dtype=float) @ R
    return grad, 0.5 * (hess + np.swapaxes(hess, -1, -2))  # kill round-off asymmetry


def _curvature_implicit(grad: np.ndarray, hess: np.ndarray,
                        eps: float = REGULARITY_EPS) -> np.ndarray:
    """K from gradients and Hessians, one jet or a batch; NaN where singular."""
    g2 = np.sum(grad * grad, axis=-1)
    with np.errstate(all="ignore"):
        K = _cofactor_quadratic(grad, hess) / (g2 * g2)
        return np.where(np.sqrt(g2) > eps, K, np.nan)


def _curvature_cols(fa, ga, ha, eps: float = REGULARITY_EPS) -> np.ndarray:
    X, Y, Z = fa[1] ** 2, ga[1] ** 2, ha[1] ** 2
    s = X + Y + Z
    num = X * ga[2] * ha[2] + Y * fa[2] * ha[2] + Z * fa[2] * ga[2]
    with np.errstate(all="ignore"):
        K = num / (s * s)
        return np.where(np.sqrt(s) > eps, K, np.nan)


def curvature_batch(surface: SeparableSurface, pts: np.ndarray,
                    eps: float = REGULARITY_EPS) -> np.ndarray:
    return _curvature_cols(*surface.jet_arrays(pts), eps)


def _level_state_cols(fa, ga, ha) -> dict:
    out = {
        "u": fa[0], "v": ga[0], "w": ha[0],
        "X": fa[1] ** 2, "Y": ga[1] ** 2, "Z": ha[1] ** 2,
        "dX": 2.0 * fa[2], "dY": 2.0 * ga[2], "dZ": 2.0 * ha[2],
    }
    for key, ja in (("kappa_x", fa), ("kappa_y", ga), ("kappa_z", ha)):
        d1, d2, d3 = ja[1], ja[2], ja[3]
        with np.errstate(all="ignore"):
            k = 1.0 - d1 * d3 / (2.0 * d2 * d2)
        out[key] = np.where(d2 != 0.0, k, np.nan)
    return out


def level_state_batch(surface: SeparableSurface, pts: np.ndarray) -> dict:
    """Columns of LevelState fields; kappa columns hold NaN where absent."""
    return _level_state_cols(*surface.jet_arrays(pts))


def k2_residual_batch(state: dict, K: np.ndarray) -> np.ndarray:
    s = state["X"] + state["Y"] + state["Z"]
    lhs = state["X"] * state["dY"] * state["dZ"] \
        + state["Y"] * state["dX"] * state["dZ"] \
        + state["Z"] * state["dX"] * state["dY"]
    return (lhs - 4.0 * K * s * s) / np.maximum(1.0, s * s)


def _shift_level_cols(func, x0: np.ndarray, du: float, steps: int = 12) -> tuple:
    """``shift_level`` on an array of start points: (x, zero_slope).

    Each row runs the same Newton iteration and stops on its own; x is NaN
    where a jet is undefined, the slope vanishes or the level is missed.
    """
    x = np.array(x0, dtype=float)
    target = func.value_array(x) + du
    zero_slope = np.zeros(x.shape, dtype=bool)
    ok = ~np.isnan(target)
    live = ok.copy()
    for _ in range(steps):
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        jet = np.stack(func.jet3_array(x[idx]))
        undefined = np.isnan(jet).any(axis=0)
        flat = ~undefined & (jet[1] == 0.0)
        zero_slope[idx[flat]] = True
        stop = undefined | flat
        ok[idx[stop]] = False
        go = idx[~stop]
        with np.errstate(all="ignore"):
            step = (jet[0][~stop] - target[go]) / jet[1][~stop]
            x[go] = x[go] - step
        live[idx[stop]] = False
        live[go[np.abs(step) <= 1e-15 * (1.0 + np.abs(x[go]))]] = False
    with np.errstate(all="ignore"):
        ok &= np.abs(func.value_array(x) - target) <= 1e-10 * (1.0 + np.abs(target))
    return np.where(ok, x, np.nan), zero_slope


def shift_level(func, x0: float, du: float, steps: int = 12) -> float:
    """x near x0 with func(x) = func(x0) + du, by Newton on the level value.

    Needs a nonzero slope at x0; used to probe the squared-slope functions
    at displaced level values.
    """
    x, zero_slope = _shift_level_cols(func, np.array([float(x0)]), du, steps)
    if zero_slope[0]:
        raise SingularPointError("zero slope during level inversion")
    if math.isnan(x[0]):
        raise EvalDomainError("level inversion left the domain or did not converge")
    return float(x[0])
