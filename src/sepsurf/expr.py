"""One-variable closed-form expressions with exact derivatives.

Expressions are immutable trees over a small grammar (see ``parse_expr``)
and are differentiated symbolically.  Finite differences are never used
here; they exist only as an independent oracle in the test suite.  Third
derivatives stay exact, which is what the curvature branch constants
downstream require.

Grammar (whitespace insignificant)::

    expr  := term (('+'|'-') term)*
    term  := unary (('*'|'/') unary)*
    unary := '-' unary | power
    power := atom ('^' unary)?          # right-associative
    atom  := number | ident | ident '(' expr ')' | '(' expr ')'

``ident`` is the declared variable or one of sin, cos, sinh, cosh, tanh,
exp, log, sqrt, abs.  Numbers are decimal literals with an optional
exponent.  Parentheses, calls, unary minus and ``^`` chains nest at most
``MAX_NESTING`` deep together; deeper input is a ParseError.

Evaluation has one implementation, the array evaluator ``eval_array``.
The scalar calls (``evaluate``, ``Func1D.value``, ``jet3`` and
``deriv_value``) are one-row views of it that raise EvalDomainError where
the row comes back NaN.  numpy's elementary functions may differ from the
``math`` module's by an ulp.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "Ast",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Func1D",
    "Jet3",
    "ExprError",
    "ParseError",
    "EvalDomainError",
    "MAX_NESTING",
    "parse_expr",
    "print_expr",
    "differentiate",
    "simplify",
    "evaluate",
    "eval_array",
    "eval_jet3",
]


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    """Malformed source text; ``offset`` is the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalDomainError(ExprError):
    """Evaluation left the real domain (log/sqrt of non-positive, etc.)."""


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str = "x"


@dataclass(frozen=True)
class Unary:
    op: str  # neg sin cos sinh cosh tanh exp log sqrt abs
    arg: "Ast"


@dataclass(frozen=True)
class Binary:
    op: str  # add sub mul div pow
    lhs: "Ast"
    rhs: "Ast"


Ast = Union[Const, Var, Unary, Binary]

_FUNCTIONS = ("sin", "cos", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "abs")

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()])
    )""",
    re.VERBOSE,
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            # only whitespace may remain un-matched
            rest = src[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ParseError(f"unexpected character {src[bad]!r}", bad)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


# bounds the parser's recursion and the nesting depth of the tree; the
# derivative trees of nested calls and powers grow fast with that depth
MAX_NESTING = 32


class _Parser:
    def __init__(self, src: str, var_name: str):
        self.src = src
        self.var = var_name
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0

    def nest(self, off: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", off)

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> None:
        kind, val, off = self.peek()
        if kind != "op" or val != text:
            raise ParseError(f"expected {text!r}", off)
        self.next()

    def expression(self) -> Ast:
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            _, op, _ = self.next()
            node = Binary("add" if op == "+" else "sub", node, self.term())
        return node

    def term(self) -> Ast:
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            _, op, _ = self.next()
            node = Binary("mul" if op == "*" else "div", node, self.unary())
        return node

    def unary(self) -> Ast:
        if self.peek()[:2] == ("op", "-"):
            self.nest(self.next()[2])
            node = Unary("neg", self.unary())
            self.depth -= 1
            return node
        return self.power()

    def power(self) -> Ast:
        node = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.nest(self.next()[2])
            node = Binary("pow", node, self.unary())
            self.depth -= 1
        return node

    def atom(self) -> Ast:
        kind, val, off = self.next()
        if kind == "num":
            return Const(float(val))
        if kind == "ident":
            if val in _FUNCTIONS:
                k2, v2, o2 = self.peek()
                if (k2, v2) != ("op", "("):
                    raise ParseError(f"function {val!r} needs an argument list", o2)
                self.nest(self.next()[2])
                arg = self.expression()
                k3, v3, o3 = self.peek()
                if (k3, v3) != ("op", ")"):
                    # a ',' here would be an arity mismatch: every function is unary
                    raise ParseError(f"expected ')' closing {val!r}", o3)
                self.next()
                self.depth -= 1
                return Unary(val, arg)
            if val == self.var:
                return Var(self.var)
            raise ParseError(f"unknown identifier {val!r}", off)
        if (kind, val) == ("op", "("):
            self.nest(off)
            node = self.expression()
            self.expect_op(")")
            self.depth -= 1
            return node
        raise ParseError("expected a number, identifier or '('", off)


def parse_expr(src: str, var_name: str = "x") -> Ast:
    """Parse ``src`` into an Ast; folds constant subtrees.

    Raises ParseError (with byte offset) on malformed input or unknown
    identifiers.
    """
    p = _Parser(src, var_name)
    node = p.expression()
    kind, val, off = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing {val!r}", off)
    return simplify(node)


# -- evaluation ---------------------------------------------------------------


def evaluate(node: Ast, x: float) -> float:
    """Strict scalar evaluation: ``eval_array`` on one element.

    Raises EvalDomainError where that element comes back NaN (outside the
    real domain, or not finite).
    """
    return _one(eval_array(node, np.array([float(x)])), x)


def _one(col: np.ndarray, x: float) -> float:
    v = float(col[0])
    if math.isnan(v):
        raise EvalDomainError(f"undefined or non-finite at {x!r}")
    return v


def eval_array(node: Ast, xs: np.ndarray) -> np.ndarray:
    """Vectorized evaluation; out-of-domain entries come back as NaN.

    Works in the dtype of ``xs`` (float64 normally; longdouble inputs stay
    longdouble, which the finite-difference test oracle relies on).
    """
    xs = np.asarray(xs)
    if xs.dtype.kind != "f":
        xs = xs.astype(float)
    with np.errstate(all="ignore"):
        out = _eval_vec(node, xs)
        out = np.where(np.isfinite(out), out, np.nan)
    return out


def _eval_vec(node: Ast, xs: np.ndarray) -> np.ndarray:
    if isinstance(node, Const):
        return np.full(xs.shape, node.value, dtype=xs.dtype)
    if isinstance(node, Var):
        return xs.copy()
    if isinstance(node, Unary):
        a = _eval_vec(node.arg, xs)
        op = node.op
        if op == "neg":
            return -a
        if op == "log":
            return np.where(a > 0.0, np.log(np.where(a > 0.0, a, 1.0)), np.nan)
        if op == "sqrt":
            return np.where(a > 0.0, np.sqrt(np.where(a > 0.0, a, 1.0)), np.nan)
        if op == "abs":
            return np.abs(a)
        return getattr(np, op)(a)
    a = _eval_vec(node.lhs, xs)
    b = _eval_vec(node.rhs, xs)
    op = node.op
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return np.where(b != 0.0, a / np.where(b != 0.0, b, 1.0), np.nan)
    # pow: numpy keeps the sign for integral exponents on negative bases
    # and yields nan for fractional ones
    return np.power(a, b)


# -- differentiation ----------------------------------------------------------


def differentiate(node: Ast) -> Ast:
    """Exact derivative tree; total on the grammar.

    abs differentiates to u/|u| (the sign), so the derivative errors at the
    kink under evaluation rather than here.
    """
    return simplify(_diff(node))


def _diff(node: Ast) -> Ast:
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0)
    if isinstance(node, Unary):
        u = node.arg
        du = _diff(u)
        op = node.op
        if op == "neg":
            return Unary("neg", du)
        if op == "sin":
            return Binary("mul", Unary("cos", u), du)
        if op == "cos":
            return Unary("neg", Binary("mul", Unary("sin", u), du))
        if op == "sinh":
            return Binary("mul", Unary("cosh", u), du)
        if op == "cosh":
            return Binary("mul", Unary("sinh", u), du)
        if op == "tanh":
            sech2 = Binary("sub", Const(1.0), Binary("pow", Unary("tanh", u), Const(2.0)))
            return Binary("mul", sech2, du)
        if op == "exp":
            return Binary("mul", Unary("exp", u), du)
        if op == "log":
            return Binary("div", du, u)
        if op == "sqrt":
            return Binary("div", du, Binary("mul", Const(2.0), Unary("sqrt", u)))
        if op == "abs":
            sign = Binary("div", u, Unary("abs", u))
            return Binary("mul", sign, du)
        raise ValueError(f"unknown unary op {op!r}")
    u, v = node.lhs, node.rhs
    du, dv = _diff(u), _diff(v)
    op = node.op
    if op in ("add", "sub"):
        return Binary(op, du, dv)
    if op == "mul":
        return Binary("add", Binary("mul", du, v), Binary("mul", u, dv))
    if op == "div":
        num = Binary("sub", Binary("mul", du, v), Binary("mul", u, dv))
        return Binary("div", num, Binary("pow", v, Const(2.0)))
    # pow
    if isinstance(v, Const):
        p = v.value
        if p == 0.0:
            return Const(0.0)
        stem = Binary("mul", Const(p), Binary("pow", u, Const(p - 1.0)))
        return Binary("mul", stem, du)
    # general exponent: u^v * (dv*log(u) + v*du/u); real only for u > 0
    inner = Binary(
        "add",
        Binary("mul", dv, Unary("log", u)),
        Binary("mul", v, Binary("div", du, u)),
    )
    return Binary("mul", Binary("pow", u, v), inner)


# -- simplification -----------------------------------------------------------
#
# Deliberately small: 0/1 identities, constant subtree folding, double
# negation.  Enough to keep three rounds of differentiation tractable
# without turning into a CAS.  Folds preserve the value wherever the
# unfolded tree evaluates.


def simplify(node: Ast) -> Ast:
    if isinstance(node, (Const, Var)):
        return node
    if isinstance(node, Unary):
        a = simplify(node.arg)
        if node.op == "neg":
            if isinstance(a, Const):
                return Const(-a.value)
            if isinstance(a, Unary) and a.op == "neg":
                return a.arg
        if isinstance(a, Const):
            folded = _try_fold(Unary(node.op, a))
            if folded is not None:
                return folded
        return Unary(node.op, a)
    a = simplify(node.lhs)
    b = simplify(node.rhs)
    op = node.op
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _try_fold(Binary(op, a, b))
        if folded is not None:
            return folded
    if op == "add":
        if _is_const(a, 0.0):
            return b
        if _is_const(b, 0.0):
            return a
    elif op == "sub":
        if _is_const(b, 0.0):
            return a
        if _is_const(a, 0.0):
            return simplify(Unary("neg", b))
    elif op == "mul":
        if _is_const(a, 0.0) or _is_const(b, 0.0):
            return Const(0.0)
        if _is_const(a, 1.0):
            return b
        if _is_const(b, 1.0):
            return a
        if _is_const(a, -1.0):
            return simplify(Unary("neg", b))
        if _is_const(b, -1.0):
            return simplify(Unary("neg", a))
    elif op == "div":
        if _is_const(b, 1.0):
            return a
    elif op == "pow":
        if _is_const(b, 1.0):
            return a
        if _is_const(b, 0.0):
            return Const(1.0)
    return Binary(op, a, b)


def _is_const(node: Ast, value: float) -> bool:
    return isinstance(node, Const) and node.value == value


def _try_fold(node: Ast) -> Optional[Const]:
    try:
        return Const(evaluate(node, 0.0))
    except EvalDomainError:
        return None


# -- printing -----------------------------------------------------------------

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}


def print_expr(node: Ast) -> str:
    """Render to grammar source; parse(print_expr(t)) == t for folded trees."""
    return _fmt(node)


def _is_atom(node: Ast) -> bool:
    # things the grammar's `atom` rule can produce verbatim; negative
    # constants count because _fmt self-parenthesizes them
    return (
        isinstance(node, (Const, Var))
        or (isinstance(node, Unary) and node.op != "neg")
    )


def _fmt(node: Ast) -> str:
    if isinstance(node, Const):
        v = node.value
        if v == int(v) and abs(v) < 1e16:
            s = repr(int(v))
        else:
            s = repr(v)
        return s if v >= 0 else f"({s})"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = _fmt(node.arg)
            # after '-', only a unary or power may follow
            if isinstance(node.arg, Binary) and node.arg.op != "pow":
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({_fmt(node.arg)})"
    a, b, op = node.lhs, node.rhs, node.op
    if op == "pow":
        base = _fmt(a) if _is_atom(a) else f"({_fmt(a)})"
        # the exponent slot accepts any unary (so neg and pow chains are fine)
        expo = _fmt(b)
        if isinstance(b, Binary) and b.op != "pow":
            expo = f"({expo})"
        return f"{base}^{expo}"
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[op]
    left = _fmt(a)
    if _prec_of(a) < _PREC[op]:
        left = f"({left})"
    right = _fmt(b)
    # binary ops are left-associative: parenthesize an equal-precedence rhs
    if _prec_of(b) <= _PREC[op]:
        right = f"({right})"
    return f"{left}{sym}{right}"


def _prec_of(node: Ast) -> int:
    if isinstance(node, Binary):
        return _PREC[node.op]
    if isinstance(node, Unary) and node.op == "neg":
        return _PREC["neg"]
    return 5


# -- jets ---------------------------------------------------------------------


@dataclass(frozen=True)
class Jet3:
    """Value and first three derivatives at a point."""

    v: float
    d1: float
    d2: float
    d3: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.v, self.d1, self.d2, self.d3)


class Func1D:
    """A one-variable function: expression tree plus an open domain interval.

    Immutable after construction; derivative trees are built once, up front,
    so concurrent shared reads are safe.
    """

    def __init__(self, ast: Ast, domain: tuple[float, float] = (-math.inf, math.inf),
                 var: str = "x"):
        lo, hi = float(domain[0]), float(domain[1])
        if not lo < hi:
            raise ValueError(f"empty domain ({lo}, {hi})")
        self.ast = simplify(ast)
        self.domain = (lo, hi)
        self.var = var
        self._d1 = differentiate(self.ast)
        self._d2 = differentiate(self._d1)
        self._d3 = differentiate(self._d2)

    @classmethod
    def parse(cls, src: str, var: str = "x",
              domain: tuple[float, float] = (-math.inf, math.inf)) -> "Func1D":
        return cls(parse_expr(src, var), domain, var)

    def __repr__(self) -> str:
        return f"Func1D({print_expr(self.ast)!r}, domain={self.domain})"

    def source(self) -> str:
        return print_expr(self.ast)

    def contains(self, x: float) -> bool:
        lo, hi = self.domain
        return lo < x < hi

    def _check(self, x: float) -> None:
        if not self.contains(x):
            raise EvalDomainError(
                f"{x!r} outside domain ({self.domain[0]}, {self.domain[1]})")

    def value(self, x: float) -> float:
        self._check(x)
        return _one(self.value_array(np.array([float(x)])), x)

    __call__ = value

    def jet3(self, x: float) -> Jet3:
        self._check(x)
        return Jet3(*(_one(col, x) for col in self.jet3_array(np.array([float(x)]))))

    def value_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        out = eval_array(self.ast, xs)
        lo, hi = self.domain
        out[(xs <= lo) | (xs >= hi)] = np.nan
        return out

    def jet3_array(self, xs: np.ndarray) -> tuple[np.ndarray, ...]:
        """(value, d1, d2, d3) arrays; NaN outside the domain."""
        xs = np.asarray(xs, dtype=float)
        lo, hi = self.domain
        bad = (xs <= lo) | (xs >= hi)
        cols = []
        for tree in (self.ast, self._d1, self._d2, self._d3):
            col = eval_array(tree, xs)
            col[bad] = np.nan
            cols.append(col)
        return tuple(cols)

    def deriv_value(self, x: float, order: int = 1) -> float:
        self._check(x)
        tree = (self.ast, self._d1, self._d2, self._d3)[order]
        return evaluate(tree, x)


def eval_jet3(f: Func1D, x: float) -> Jet3:
    """Jet of f at x: (f, f', f'', f''')."""
    return f.jet3(x)
