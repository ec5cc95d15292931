"""Shared test helpers: random expression trees and two oracles.

``eval_math`` is a scalar evaluator over the ``math`` module, written apart
from the library's numpy evaluator so that the two can be compared.

The finite-difference oracle is pure central differencing of the expression
itself, evaluated in extended precision so that stencil roundoff stays far
below the 1e-6 comparison tolerance; the second/third derivatives use
Richardson-combined central stencils.  It never touches the symbolic
derivative trees it checks.
"""

import math

import numpy as np

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


def random_tree(rng: np.random.Generator, depth: int = 4):
    """Random expression tree of bounded depth over the full grammar."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var("x")
        return Const(float(np.round(rng.uniform(-2, 2), 3)))
    r = rng.random()
    if r < 0.45:
        op = ("add", "sub", "mul", "div")[int(rng.integers(4))]
        return Binary(op, random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if r < 0.62:
        p = float(_POW_EXPONENTS[int(rng.integers(len(_POW_EXPONENTS)))])
        return Binary("pow", random_tree(rng, depth - 1), Const(p))
    op = _UNARY_OPS[int(rng.integers(len(_UNARY_OPS)))]
    return Unary(op, random_tree(rng, depth - 1))


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
