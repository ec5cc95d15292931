"""Constructors for the classified surface families.

Each family is a small frozen parameter class (``FamilySpec``) that carries
its own rules: ``_build`` makes the ``SeparableSurface`` (domains restricted
so every component expression is real and regular), ``_box(surf)`` the
default sampling box, and ``_params``/``_from_params`` the JSON params.
Box rules that read the built surface take it as ``surf`` and build it
only when given None, so ``surface_and_box`` builds once.
``build_surface``, ``admissible_box``, ``surface_and_box``,
``family_to_json`` and ``family_from_json`` reach them through one tag
registry.  The families:

* right cylinders, translation surfaces, rotational surfaces (the three
  elementary shapes),
* the flat log-product cones ("generalized cone"),
* the flat exponential cylinders,
* the flat power-law cones ("conical power"),
* rotational surfaces of constant nonzero curvature, built by integrating
  the profile equation r'' = -K r, z' = sqrt(1 - r'^2) in arclength and
  tabulating h(z) = -r(z)^2 as a ``TabulatedFunc1D``, the piecewise-quintic
  ``expr.Component`` beside the expression-backed ``Func1D``.

Specs serialize to and from JSON documents ``{"family": tag, "params": {...}}``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, get_args

import numpy as np

from .expr import Binary, Component, Const, Func1D
from .geometry import SeparableSurface

__all__ = [
    "InvalidFamilyError",
    "DegenerateSurfaceError",
    "RightCylinder",
    "Translation",
    "RotationalParabolic",
    "RotationalCGC",
    "GeneralizedCone",
    "ExpCylinder",
    "ConicalPower",
    "FamilySpec",
    "TabulatedFunc1D",
    "build_surface",
    "rotational_profile",
    "admissible_box",
    "surface_and_box",
    "family_to_json",
    "family_from_json",
    "PRESETS",
    "preset_surface",
    "preset_box",
]

Box = tuple[float, float, float, float, float, float]


class InvalidFamilyError(ValueError):
    """Parameters violate a family's admissibility conditions."""


class DegenerateSurfaceError(InvalidFamilyError):
    """The zero set degenerates to a point or is empty."""


def _func_field(value, var: str) -> Func1D:
    if isinstance(value, Func1D):
        return value
    if isinstance(value, str):
        return Func1D.parse(value, var)
    if isinstance(value, dict):
        dom = value.get("domain")
        if dom is None:
            dom = (-math.inf, math.inf)
        else:
            lo = -math.inf if dom[0] is None else float(dom[0])
            hi = math.inf if dom[1] is None else float(dom[1])
            dom = (lo, hi)
        return Func1D.parse(value["expr"], var, dom)
    raise InvalidFamilyError(f"cannot interpret {value!r} as a one-variable function")


def _func_json(f: Func1D) -> dict:
    lo, hi = f.domain
    return {
        "expr": f.source(),
        "domain": [None if math.isinf(lo) else lo, None if math.isinf(hi) else hi],
    }


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidFamilyError(message)


def _triple(spec, name: str, cast=float) -> None:
    """Store field ``name`` of a frozen spec as a tuple of three ``cast`` values.

    The field must be a list or tuple of three real numbers (booleans and
    strings are not numbers); for ``cast=int`` each must be integral.
    """
    raw = getattr(spec, name)
    _require(isinstance(raw, (list, tuple)), f"{name} must be a list of 3 numbers")
    _require(len(raw) == 3, f"{name} must have exactly 3 entries")
    _require(all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in raw),
             f"{name} entries must be numbers")
    _require(cast is not int or all(float(v).is_integer() for v in raw),
             f"{name} entries must be integers")
    object.__setattr__(spec, name, tuple(cast(v) for v in raw))


def _check_profile_args(K: float, r0: float, dr0: float, arc_span: float) -> None:
    _require(K != 0.0, "K must be nonzero")
    _require(r0 > 0.0, "r0 must be positive")
    # |dr0| = 1 makes the profile vertical at the start, so strictly below
    _require(abs(dr0) < 1.0, "|dr0| must be < 1")
    _require(arc_span > 0.0, "arc_span must be positive")


@dataclass(frozen=True)
class RightCylinder:
    """f(c1) + g(c2) + a = 0 over the two coordinates present in ``plane``'s
    complement; the absent coordinate's function is the constant a."""

    f: Func1D
    g: Func1D
    a: float = 0.0
    plane: str = "z"  # the absent coordinate

    tag = "right-cylinder"

    def __post_init__(self):
        _require(self.plane in ("x", "y", "z"), "plane must be one of x, y, z")

    def _build(self) -> SeparableSurface:
        present = [c for c in "xyz" if c != self.plane]
        parts = {}
        parts[present[0]] = _rebind(self.f, present[0])
        parts[present[1]] = _rebind(self.g, present[1])
        parts[self.plane] = Func1D(Const(float(self.a)), var=self.plane)
        return SeparableSurface(parts["x"], parts["y"], parts["z"],
                                name=f"right-cylinder[{self.plane} absent]",
                                preferred_axis={"z": 1, "y": 2, "x": 2}[self.plane])

    def _box(self, surf: Optional[SeparableSurface]) -> Box:
        surf = surf or build_surface(self)
        wins = [
            _window(comp.domain, -1.5, 1.5, 1e-6) for comp in surf.components
        ]
        return tuple(v for w in wins for v in w)

    def _params(self) -> dict:
        return {"f": _func_json(self.f), "g": _func_json(self.g),
                "a": self.a, "plane": self.plane}

    @classmethod
    def _from_params(cls, params: dict) -> RightCylinder:
        plane = params.get("plane", "z")
        present = [c for c in "xyz" if c != plane]
        return cls(
            f=_func_field(params["f"], present[0]),
            g=_func_field(params["g"], present[1]),
            a=float(params.get("a", 0.0)),
            plane=plane,
        )


@dataclass(frozen=True)
class Translation:
    """The graph z = a x + g(y) with a != 0."""

    a: float
    g: Func1D

    tag = "translation"

    def __post_init__(self):
        _require(self.a != 0.0, "slope a must be nonzero (a = 0 is a right cylinder)")

    def _build(self) -> SeparableSurface:
        f = Func1D.parse(f"{_r(self.a)}*x", "x")
        g = _rebind(self.g, "y")
        h = Func1D.parse("-z", "z")
        return SeparableSurface(f, g, h, name=f"translation[a={self.a:g}]")

    def _box(self, surf: Optional[SeparableSurface]) -> Box:
        surf = surf or build_surface(self)
        gx = _window(surf.g.domain, -1.2, 1.2, 1e-6)
        xs = np.linspace(-1.2, 1.2, 13)
        ys = np.linspace(gx[0], gx[1], 13)
        zs = self.a * xs[:, None] + surf.g.value_array(ys)[None, :]
        zs = zs[np.isfinite(zs)]
        if zs.size == 0:
            raise InvalidFamilyError("translation surface has no graph over the window")
        pad = 0.05 * (zs.max() - zs.min() + 1.0)
        return (-1.2, 1.2, gx[0], gx[1], float(zs.min() - pad), float(zs.max() + pad))

    def _params(self) -> dict:
        return {"a": self.a, "g": _func_json(self.g)}

    @classmethod
    def _from_params(cls, params: dict) -> Translation:
        return cls(a=float(params["a"]), g=_func_field(params["g"], "y"))


@dataclass(frozen=True)
class RotationalParabolic:
    """Axis-parallel rotational surface h(z) = x^2 + y^2 + a x + b y + c."""

    a: float
    b: float
    c: float
    h: Func1D

    tag = "rotational-parabolic"

    def _build(self) -> SeparableSurface:
        f = Func1D.parse(f"x^2+{_r(self.a)}*x", "x")
        g = Func1D.parse(f"y^2+{_r(self.b)}*y", "y")
        hz = _rebind(self.h, "z")
        # h-component of F is c - h(z)
        h = Func1D(Binary("sub", Const(float(self.c)), hz.ast), hz.domain, "z")
        return SeparableSurface(f, g, h, name="rotational-parabolic")

    def _box(self, surf: Optional[SeparableSurface]) -> Box:
        surf = surf or build_surface(self)
        hz = _window(surf.h.domain, -1.0, 1.0, 1e-9)
        return (-2.0, 2.0, -2.0, 2.0, hz[0], hz[1])

    def _params(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "h": _func_json(self.h)}

    @classmethod
    def _from_params(cls, params: dict) -> RotationalParabolic:
        return cls(
            a=float(params.get("a", 0.0)), b=float(params.get("b", 0.0)),
            c=float(params.get("c", 0.0)), h=_func_field(params["h"], "z"),
        )


@dataclass(frozen=True)
class RotationalCGC:
    """Rotational surface of constant curvature K != 0 about the z axis.

    The profile starts at radius r0 with slope dr0 against arclength and is
    integrated over ``arc_span`` (centered); the surface is
    x^2 + y^2 - r(z)^2 = 0 with h tabulated.
    """

    K: float
    r0: float
    dr0: float = 0.0
    arc_span: float = 3.0
    step: Optional[float] = None

    tag = "rotational-cgc"

    def __post_init__(self):
        _check_profile_args(self.K, self.r0, self.dr0, self.arc_span)

    def _build(self) -> SeparableSurface:
        tab = rotational_profile(self.K, self.r0, self.dr0, self.arc_span, self.step)
        f = Func1D.parse("x^2", "x")
        g = Func1D.parse("y^2", "y")
        return SeparableSurface(f, g, tab, name=f"rotational-cgc[K={self.K:g}]")

    def _box(self, surf: Optional[SeparableSurface]) -> Box:
        surf = surf or build_surface(self)
        tab = surf.h
        zlo, zhi = tab.domain
        dz = 0.02 * (zhi - zlo)
        rmax = float(np.max(tab.profile_nodes["r"]))
        w = 0.72 * rmax
        return (-w, w, -w, w, zlo + dz, zhi - dz)

    def _params(self) -> dict:
        return {"K": self.K, "r0": self.r0, "dr0": self.dr0,
                "arc_span": self.arc_span, "step": self.step}

    @classmethod
    def _from_params(cls, params: dict) -> RotationalCGC:
        return cls(
            K=float(params["K"]), r0=float(params["r0"]),
            dr0=float(params.get("dr0", 0.0)),
            arc_span=float(params.get("arc_span", 3.0)),
            step=None if params.get("step") is None else float(params["step"]),
        )


@dataclass(frozen=True)
class GeneralizedCone:
    """The flat cone (m1 x + n1)^p (m2 y + n2)^q = (m3 z + n3) with p + q = 1,
    built through logarithms on the positive chart."""

    p: float
    m: tuple[float, float, float]
    n: tuple[float, float, float] = (0.0, 0.0, 0.0)

    tag = "generalized-cone"

    def __post_init__(self):
        _triple(self, "m")
        _triple(self, "n")
        _require(all(v != 0.0 for v in self.m), "all m coefficients must be nonzero")
        _require(self.p not in (0.0, 1.0), "p (and q = 1 - p) must be nonzero")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def apex(self) -> tuple[float, float, float]:
        return tuple(-n / m for m, n in zip(self.m, self.n))

    def _build(self) -> SeparableSurface:
        a, b, c = self.p, self.q, -1.0
        comps = []
        for coeff, m, n, var in zip((a, b, c), self.m, self.n, "xyz"):
            src = f"{_r(-coeff)}*log({_affine_src(m, n, var)})"
            comps.append(Func1D.parse(src, var, _chart_domain(m, n, +1)))
        return SeparableSurface(*comps, name=f"generalized-cone[p={self.p:g}]")

    def _box(self, surf: Optional[SeparableSurface]) -> Box:
        # all bases over [0.5, 2]: the z base s1^p s2^q passes through 1
        # when s1 = s2 = 1, so the box always contains a patch
        wins = [_base_window(m, n, +1) for m, n in zip(self.m, self.n)]
        return tuple(v for w in wins for v in w)

    def _params(self) -> dict:
        return {"p": self.p, "q": self.q, "m": list(self.m), "n": list(self.n)}

    @classmethod
    def _from_params(cls, params: dict) -> GeneralizedCone:
        spec = cls(p=float(params["p"]), m=params["m"], n=params.get("n", (0.0, 0.0, 0.0)))
        if "q" in params and float(params["q"]) != spec.q:
            raise InvalidFamilyError("q must equal 1 - p")
        return spec


@dataclass(frozen=True)
class ExpCylinder:
    """The flat cylinder n1 e^{m1 x} + n2 e^{m2 y} + n3 e^{m3 z} = 0 with
    generators parallel to (1/m1, 1/m2, 1/m3)."""

    m: tuple[float, float, float]
    n: tuple[float, float, float]

    tag = "exp-cylinder"

    def __post_init__(self):
        _triple(self, "m")
        _triple(self, "n")
        _require(all(v != 0.0 for v in self.m), "all m coefficients must be nonzero")
        _require(all(v != 0.0 for v in self.n), "all n coefficients must be nonzero")
        _require(
            min(self.n) < 0.0 < max(self.n),
            "coefficients n must not all share one sign (zero set would be empty)",
        )

    @property
    def generator(self) -> tuple[float, float, float]:
        return (1.0 / self.m[0], 1.0 / self.m[1], 1.0 / self.m[2])

    def _build(self) -> SeparableSurface:
        comps = []
        for m, n, var in zip(self.m, self.n, "xyz"):
            comps.append(Func1D.parse(f"{_r(n)}*exp({_r(m)}*{var})", var))
        return SeparableSurface(*comps, name="exp-cylinder")

    def _probe_z(self) -> np.ndarray:
        """z over a 17 x 17 probe grid of columns on [-1.2, 1.2]^2; NaN where none."""
        xs = np.linspace(-1.2, 1.2, 17)
        m1, m2, m3 = self.m
        n1, n2, n3 = self.n
        t = -(n1 * np.exp(m1 * xs[:, None]) + n2 * np.exp(m2 * xs[None, :]))
        with np.errstate(all="ignore"):
            return np.log(t / n3) / m3

    def _box(self, surf: Optional[SeparableSurface]) -> Box:
        # solve the z term analytically over a probe grid to bound the window
        z = self._probe_z()
        z = z[np.isfinite(z)]
        if z.size == 0:
            raise InvalidFamilyError("no solvable columns over the probe window")
        pad = 0.05 * (float(z.max()) - float(z.min()) + 0.2)
        return (-1.2, 1.2, -1.2, 1.2, float(z.min()) - pad, float(z.max()) + pad)

    def _params(self) -> dict:
        return {"m": list(self.m), "n": list(self.n)}

    @classmethod
    def _from_params(cls, params: dict) -> ExpCylinder:
        return cls(m=params["m"], n=params["n"])


@dataclass(frozen=True)
class ConicalPower:
    """The flat cone sum_i eps_i (m_i t + n_i)^alpha = 0 with alpha = 1/(1-k).

    For odd integer alpha the default build mixes charts (last axis on the
    negative side) so the canonical equation keeps all term signs implicit;
    for non-integer alpha the last term carries an explicit minus sign, the
    sign freedom the profile integration leaves open.  Even positive integer
    alpha degenerates: the canonical zero set is a single point (the apex).
    """

    k: float
    m: tuple[float, float, float]
    n: tuple[float, float, float] = (0.0, 0.0, 0.0)
    signs: Optional[tuple[int, int, int]] = None

    tag = "conical-power"

    def __post_init__(self):
        _triple(self, "m")
        _triple(self, "n")
        if self.signs is not None:
            _triple(self, "signs", int)
            _require(all(s in (-1, 1) for s in self.signs), "signs must be +-1")
            _require(
                min(self.signs) < max(self.signs),
                "term signs must not all be equal (zero set would be empty)",
            )
        _require(all(v != 0.0 for v in self.m), "all m coefficients must be nonzero")
        _require(self.k not in (0.0, 1.0), "k must avoid 0 and 1")
        _require(math.isfinite(self.k), "k must be finite")

    @property
    def exponent(self) -> float:
        return 1.0 / (1.0 - self.k)

    @property
    def apex(self) -> tuple[float, float, float]:
        return tuple(-n / m for m, n in zip(self.m, self.n))

    def _layout(self) -> list[tuple[int, int]]:
        """Per-axis (eps term sign, chart side)."""
        alpha = self.exponent
        near = round(alpha)
        is_int = abs(alpha - near) <= 1e-9 and abs(near) >= 1
        if self.signs is not None:
            return [(s, +1) for s in self.signs]
        if is_int:
            if near % 2 == 0:
                if near > 0:
                    raise DegenerateSurfaceError(
                        "even positive exponent: the canonical zero set is only the apex point"
                    )
                raise DegenerateSurfaceError(
                    "even negative exponent: the canonical zero set is empty"
                )
            # odd exponent: negative chart on the last axis supplies the sign
            return [(+1, +1), (+1, +1), (+1, -1)]
        # non-integer exponent: explicit minus sign on the last term
        return [(+1, +1), (+1, +1), (-1, +1)]

    def _build(self) -> SeparableSurface:
        alpha = self.exponent
        layout = self._layout()
        comps = []
        for (eps, side), m, n, var in zip(layout, self.m, self.n, "xyz"):
            base = f"({_affine_src(m, n, var)})^({_r(alpha)})"
            src = base if eps > 0 else f"-{base}"
            comps.append(Func1D.parse(src, var, _chart_domain(m, n, side)))
        return SeparableSurface(*comps, name=f"conical-power[k={self.k:g}]")

    def _box(self, surf: Optional[SeparableSurface]) -> Box:
        # same idea as the generalized cone: the third term's magnitude
        # equals the sum of the first two
        layout = self._layout()
        alpha = self.exponent
        t_lo, t_hi = sorted((0.5 ** alpha, 2.0 ** alpha))
        s_lo, s_hi = sorted(((2 * t_lo) ** (1 / alpha), (2 * t_hi) ** (1 / alpha)))
        wins = [
            _base_window(self.m[0], self.n[0], layout[0][1]),
            _base_window(self.m[1], self.n[1], layout[1][1]),
            _base_window(self.m[2], self.n[2], layout[2][1], 0.98 * s_lo, 1.02 * s_hi),
        ]
        return tuple(v for w in wins for v in w)

    def _params(self) -> dict:
        params = {"k": self.k, "m": list(self.m), "n": list(self.n)}
        if self.signs is not None:
            params["signs"] = list(self.signs)
        return params

    @classmethod
    def _from_params(cls, params: dict) -> ConicalPower:
        return cls(
            k=float(params["k"]), m=params["m"],
            n=params.get("n", (0.0, 0.0, 0.0)), signs=params.get("signs"),
        )


FamilySpec = (
    RightCylinder
    | Translation
    | RotationalParabolic
    | RotationalCGC
    | GeneralizedCone
    | ExpCylinder
    | ConicalPower
)

_TAGS = {cls.tag: cls for cls in get_args(FamilySpec)}


# -- tabulated functions --------------------------------------------------------


class TabulatedFunc1D(Component):
    """Piecewise-quintic function from breakpoint jets (value, d1, d2).

    The interpolant matches value and two derivatives at both ends of every
    interval, so it is C^2 across breakpoints; the third derivative comes
    from the quintic.  A ``Component`` that evaluates only the polynomials
    a call asks for.  Immutable after construction.
    """

    tabulated = True

    def __init__(self, breakpoints: np.ndarray, values: np.ndarray,
                 d1: np.ndarray, d2: np.ndarray):
        z = np.asarray(breakpoints, dtype=float)
        if z.ndim != 1 or z.size < 2:
            raise ValueError("need at least two breakpoints")
        if not np.all(np.diff(z) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        self.breakpoints = z
        self.node_values = np.asarray(values, dtype=float)
        self.node_d1 = np.asarray(d1, dtype=float)
        self.node_d2 = np.asarray(d2, dtype=float)
        self.domain = (float(z[0]), float(z[-1]))
        self.var = "z"
        self.truncated = False
        self._coeffs = self._build_coeffs()

    def _build_coeffs(self) -> np.ndarray:
        z, p, m, s = self.breakpoints, self.node_values, self.node_d1, self.node_d2
        d = np.diff(z)
        n = d.size
        c = np.zeros((n, 6))
        c[:, 0] = p[:-1]
        c[:, 1] = m[:-1]
        c[:, 2] = 0.5 * s[:-1]
        A = np.zeros((n, 3, 3))
        A[:, 0, 0], A[:, 0, 1], A[:, 0, 2] = d ** 3, d ** 4, d ** 5
        A[:, 1, 0], A[:, 1, 1], A[:, 1, 2] = 3 * d ** 2, 4 * d ** 3, 5 * d ** 4
        A[:, 2, 0], A[:, 2, 1], A[:, 2, 2] = 6 * d, 12 * d ** 2, 20 * d ** 3
        rhs = np.stack(
            [
                p[1:] - (c[:, 0] + c[:, 1] * d + c[:, 2] * d ** 2),
                m[1:] - (c[:, 1] + 2 * c[:, 2] * d),
                s[1:] - 2 * c[:, 2],
            ],
            axis=1,
        )
        c[:, 3:] = np.linalg.solve(A, rhs[..., None])[..., 0]
        return c

    def __repr__(self) -> str:
        lo, hi = self.domain
        return f"TabulatedFunc1D({self.breakpoints.size} nodes on ({lo:.4g}, {hi:.4g}))"

    def source(self) -> str:
        return repr(self)

    def _cols(self, xs: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
        idx = np.searchsorted(self.breakpoints, xs, side="right") - 1
        idx = np.clip(idx, 0, self.breakpoints.size - 2)
        t = xs - self.breakpoints[idx]
        c = self._coeffs[idx].T
        return [_QUINTIC_HORNER[k](c, t) for k in orders]


# the quintic c0 + c1 t + ... + c5 t^5 and its first three derivatives, in
# Horner form
_QUINTIC_HORNER = (
    lambda c, t: c[0] + t * (c[1] + t * (c[2] + t * (c[3] + t * (c[4] + t * c[5])))),
    lambda c, t: c[1] + t * (2 * c[2] + t * (3 * c[3] + t * (4 * c[4] + t * 5 * c[5]))),
    lambda c, t: 2 * c[2] + t * (6 * c[3] + t * (12 * c[4] + t * 20 * c[5])),
    lambda c, t: 6 * c[3] + t * (24 * c[4] + t * 60 * c[5]),
)


# -- the rotational profile ODE -------------------------------------------------

_Q2_FLOOR = 0.01  # stop when the profile slope approaches vertical
_R_FLOOR_REL = 0.05  # stop when the radius approaches the axis


def rotational_profile(K: float, r0: float, dr0: float, arc_span: float = 3.0,
                       step: Optional[float] = None) -> TabulatedFunc1D:
    """Integrate r'' = -K r, z' = sqrt(1 - r'^2) and tabulate h(z) = -r(z)^2.

    Classical fixed-step 4th-order integration in arclength, centered on the
    start point; the run stops early (and flags ``truncated``) where the
    slope approaches vertical or the radius approaches the axis.  Node jets
    of h are computed in closed form from (r, r'), so only the interpolant
    between nodes is approximate.
    """
    _check_profile_args(K, r0, dr0, arc_span)
    if step is None:
        step = 1e-3 * arc_span
    if step > 1e-3 * arc_span * (1 + 1e-12):
        raise InvalidFamilyError("step must be <= 1e-3 * arc_span")

    half = 0.5 * arc_span
    n_steps = max(2, int(math.ceil(half / step)))
    ds = half / n_steps
    r_floor = max(1e-9, _R_FLOOR_REL * r0)

    def rhs(state):
        r, p, _ = state
        q = math.sqrt(max(0.0, 1.0 - p * p))
        return (p, -K * r, q)

    def rk4(state, h):
        k1 = rhs(state)
        k2 = rhs(tuple(s + 0.5 * h * k for s, k in zip(state, k1)))
        k3 = rhs(tuple(s + 0.5 * h * k for s, k in zip(state, k2)))
        k4 = rhs(tuple(s + h * k for s, k in zip(state, k3)))
        return tuple(
            s + (h / 6.0) * (a + 2 * b + 2 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)
        )

    def valid(state):
        r, p, _ = state
        return r >= r_floor and (1.0 - p * p) >= _Q2_FLOOR

    start = (r0, dr0, 0.0)
    if not valid(start):
        raise InvalidFamilyError("profile start violates validity bounds")

    truncated = False
    branches = []
    for sign in (+1.0, -1.0):
        states = []
        cur = start
        for _ in range(n_steps):
            nxt = rk4(cur, sign * ds)
            if not valid(nxt):
                truncated = True
                break
            states.append(nxt)
            cur = nxt
        branches.append(states)

    fwd, back = branches
    chain = list(reversed(back)) + [start] + fwd
    if len(chain) < 8:
        raise InvalidFamilyError("profile band too short; adjust r0/dr0/arc_span")

    r = np.array([st[0] for st in chain])
    p = np.array([st[1] for st in chain])
    z = np.array([st[2] for st in chain])
    q = np.sqrt(1.0 - p * p)

    h = -r * r
    h1 = -2.0 * r * p / q
    h2 = (-2.0 * p * p + 2.0 * K * r * r) / q ** 2 + 2.0 * K * r * r * p * p / q ** 4

    tab = TabulatedFunc1D(z, h, h1, h2)
    tab.truncated = truncated
    tab.profile_nodes = {"z": z, "r": r, "dr": p}
    return tab


# -- expression helpers ----------------------------------------------------------


def _r(value: float) -> str:
    """Literal source for a float; parses back to the same double."""
    return repr(float(value))


def _affine_src(m: float, n: float, var: str) -> str:
    if n == 0.0:
        return f"{_r(m)}*{var}"
    return f"{_r(m)}*{var}+{_r(n)}"


def _chart_domain(m: float, n: float, side: int) -> tuple[float, float]:
    """Open interval where side*(m t + n) > 0."""
    edge = -n / m
    if (m > 0) == (side > 0):
        return (edge, math.inf)
    return (-math.inf, edge)


def _rebind(f: Func1D, var: str) -> Func1D:
    if f.var == var:
        return f
    return Func1D(f.ast, f.domain, var)


# -- box helpers ------------------------------------------------------------------


def _window(dom: tuple[float, float], lo: float, hi: float,
            margin: float = 0.0) -> tuple[float, float]:
    a = max(dom[0], lo)
    b = min(dom[1], hi)
    if margin:
        a, b = a + margin, b - margin
    if not a < b:
        raise InvalidFamilyError("domain window collapsed")
    return (a, b)


def _base_window(m: float, n: float, side: int, lo: float = 0.5,
                 hi: float = 2.0) -> tuple[float, float]:
    """t interval where side*(m t + n) runs over [lo, hi]."""
    a = (side * lo - n) / m
    b = (side * hi - n) / m
    return (min(a, b), max(a, b))


# -- dispatch through the tag registry ---------------------------------------------


def _checked(spec) -> FamilySpec:
    if type(spec) not in _TAGS.values():
        raise InvalidFamilyError(f"unknown family spec {spec!r}")
    return spec


def build_surface(spec: FamilySpec) -> SeparableSurface:
    """Realize a family spec as a SeparableSurface with admissible domains."""
    surf = _checked(spec)._build()
    surf.family_spec = spec
    return surf


def admissible_box(spec: FamilySpec) -> Box:
    """Default sampling box: interior to the charts, containing a regular patch."""
    return _checked(spec)._box(None)


def surface_and_box(spec: FamilySpec) -> tuple[SeparableSurface, Box]:
    """``build_surface`` and ``admissible_box`` from one build."""
    surf = build_surface(spec)
    return surf, spec._box(surf)


def family_to_json(spec: FamilySpec) -> dict:
    return {"family": _checked(spec).tag, "params": spec._params()}


def family_from_json(doc: dict) -> FamilySpec:
    """Parse ``{"family": tag, "params": {...}}``; every malformed document,
    missing or mistyped fields included, raises InvalidFamilyError."""
    try:
        tag = doc["family"]
        params = dict(doc["params"])
        if tag not in _TAGS:
            raise InvalidFamilyError(f"unknown family tag {tag!r}")
        return _TAGS[tag]._from_params(params)
    except (KeyError, TypeError, IndexError) as exc:
        raise InvalidFamilyError(f"malformed family document: {exc!r}") from exc


# -- presets -----------------------------------------------------------------------

PRESETS: dict[str, FamilySpec] = {
    "paper-fig1-left": GeneralizedCone(p=2.0, m=(1.0, 1.0, 1.0)),
    "paper-fig1-middle": ExpCylinder(m=(1.0, 1.0, 1.0), n=(-1.0, 1.0, 1.0)),
    "paper-fig1-right": ConicalPower(k=2.0, m=(1.0, 1.0, 1.0)),
}

_PRESET_BOXES: dict[str, Box] = {
    "paper-fig1-left": (0.5, 2.0, 0.5, 2.0, 0.5, 2.0),
    "paper-fig1-middle": (-1.0, 1.0, -1.0, 1.0, -1.0, 1.0),
    "paper-fig1-right": (0.5, 2.0, 0.5, 2.0, -1.0, -0.26),
}


def _preset(name: str) -> str:
    if name not in PRESETS:
        raise InvalidFamilyError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return name


def preset_surface(name: str) -> SeparableSurface:
    return build_surface(PRESETS[_preset(name)])


def preset_box(name: str) -> Box:
    return _PRESET_BOXES[_preset(name)]
