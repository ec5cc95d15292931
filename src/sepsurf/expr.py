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
exponent; one that overflows to infinity is a ParseError.  Parentheses,
calls, unary minus and ``^`` chains nest at most ``MAX_NESTING`` deep
together, and an expression has at most ``MAX_TOKENS`` tokens; deeper or
longer input is a ParseError.  So is a derivative tree of more than
``MAX_DERIV_NODES`` nodes: products and quotient chains grow theirs about
as n^4 over three orders.

Evaluation has one implementation, the array evaluator ``eval_array``.
It keeps every constant a scalar of the input's dtype, never an array, so
longdouble input stays longdouble and numpy's ``power`` takes its
scalar-exponent paths: ``^-1``, ``^0.5`` and ``^2`` are the correctly
rounded ``1/x``, ``sqrt(x)`` and ``x*x``.  Other exponents go through
numpy's pow and may differ from ``math.pow`` by an ulp, as numpy's
elementary functions may differ from the ``math`` module's.  The scalar
calls (``evaluate``, and ``value``, ``jet3`` and ``deriv_value`` of every
``Component``) are one-row views of the array calls that raise
EvalDomainError where the row comes back NaN.

``enclose`` bounds a tree over arrays of intervals: the natural interval
extension, widened outward by a few ulps, so each row holds every value the
tree takes on its interval.  NaN marks a row it cannot bound (a pole or a
domain edge inside the interval, a non-constant exponent).  The root engine
uses the enclosure of f' to prove an interval monotone; a NaN row proves
nothing, and a ``Component`` that is not a closed form encloses nothing.
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
    "Component",
    "Func1D",
    "Jet3",
    "ExprError",
    "ParseError",
    "EvalDomainError",
    "MAX_NESTING",
    "MAX_TOKENS",
    "MAX_DERIV_NODES",
    "parse_expr",
    "print_expr",
    "differentiate",
    "simplify",
    "evaluate",
    "eval_array",
    "enclose",
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
# bounds the length of flat operator chains, which build left-leaning trees
# as deep as the chain is long
MAX_TOKENS = 256
# bounds each derivative tree as differentiation builds it, before it is
# simplified; evaluation time grows with tree size
MAX_DERIV_NODES = 50_000


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
        if self.i > MAX_TOKENS:
            raise ParseError(f"expression longer than {MAX_TOKENS} tokens", tok[2])
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
            value = float(val)
            if not math.isfinite(value):
                raise ParseError("number out of range", off)
            return Const(value)
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
    longdouble, which the finite-difference test oracle relies on).  The
    result is a fresh array of the shape of ``xs``.
    """
    xs = np.asarray(xs)
    if xs.dtype.kind != "f":
        xs = xs.astype(float)
    with np.errstate(all="ignore"):
        out = _eval_vec(node, xs)
        out = np.where(np.isfinite(out), out, np.nan)
    if out.shape != xs.shape:  # a constant tree, e.g. an unfolded log(-1)
        out = np.full(xs.shape, out, dtype=xs.dtype)
    return out


def _eval_vec(node: Ast, xs: np.ndarray) -> np.ndarray:
    # constants stay scalars; no op writes into its operands, so xs itself
    # stands for the variable
    if isinstance(node, Const):
        return xs.dtype.type(node.value)
    if isinstance(node, Var):
        return xs
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


# -- interval enclosure -------------------------------------------------------

# outward widening of every rounded endpoint, relative: at least four ulps,
# then one more by nextafter.  numpy's vectorized exp, log and sin are not
# correctly rounded, so one ulp would not be enough
_WIDEN = 4 * 2.0 ** -52


def enclose(node: Ast, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interval enclosure of the tree over each interval [lo_i, hi_i].

    The natural interval extension (Moore, Kearfott & Cloud, *Introduction
    to Interval Analysis*, 2009, ch. 5): every operation maps enclosures of
    its operands to an interval holding all the values it takes on them,
    widened outward by a few ulps.  So each row ``[elo, ehi]`` holds the
    tree's real values on its interval, and ``eval_array``'s.  A NaN row is
    "not enclosed": division by an interval holding 0, a negative power of
    an interval holding 0, a fractional power, log or sqrt of an interval
    reaching 0 or below, a non-constant exponent, or a NaN on the way.
    Rows come back as float64 arrays of the shape of ``lo``.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    with np.errstate(all="ignore"):
        elo, ehi = _enclose(node, lo, hi)
    # constant subtrees enclose as scalars: broadcast to the rows
    elo, ehi = np.broadcast_to(elo, lo.shape), np.broadcast_to(ehi, lo.shape)
    bad = np.isnan(elo) | np.isnan(ehi)
    return np.where(bad, np.nan, elo), np.where(bad, np.nan, ehi)


def _out(lo, hi) -> tuple:
    return (np.nextafter(lo - np.abs(lo) * _WIDEN, -np.inf),
            np.nextafter(hi + np.abs(hi) * _WIDEN, np.inf))


def _even(lo, hi, flo, fhi, fmin) -> tuple:
    """Range of an even function rising in |x| with minimum fmin at 0."""
    holds0 = (lo <= 0.0) & (hi >= 0.0)
    return np.where(holds0, fmin, np.minimum(flo, fhi)), np.maximum(flo, fhi)


def _sin_cos(op: str, lo, hi) -> tuple:
    fn = getattr(np, op)
    flo, fhi = fn(lo), fn(hi)
    rlo, rhi = np.minimum(flo, fhi), np.maximum(flo, fhi)
    # a full period, or arguments too large to place a peak reliably (every
    # test here is False on a NaN end, so NaN stays NaN)
    wide = (hi - lo >= 2.0 * np.pi) | (np.maximum(np.abs(lo), np.abs(hi)) >= 1e6)
    peak = 0.5 * np.pi if op == "sin" else 0.0

    def holds(phase):  # some phase + 2k*pi in [lo, hi], with slack to spare
        k_lo = np.ceil((lo - phase) / (2.0 * np.pi) - 1e-9)
        return k_lo <= np.floor((hi - phase) / (2.0 * np.pi) + 1e-9)

    return (np.where(wide | holds(peak + np.pi), -1.0, rlo),
            np.where(wide | holds(peak), 1.0, rhi))


def _pow_const(lo, hi, p: float) -> tuple:
    plo, phi = np.power(lo, p), np.power(hi, p)
    rlo, rhi = np.minimum(plo, phi), np.maximum(plo, phi)
    if not p.is_integer():  # real and monotone only on positive bases
        pos = lo > 0.0
        return np.where(pos, rlo, np.nan), np.where(pos, rhi, np.nan)
    if p < 0.0:  # monotone on either side of its pole at 0
        holds0 = (lo <= 0.0) & (hi >= 0.0)
        return np.where(holds0, np.nan, rlo), np.where(holds0, np.nan, rhi)
    if p % 2.0 == 0.0:
        return _even(lo, hi, plo, phi, 0.0)
    return rlo, rhi  # odd: increasing


def _enclose(node: Ast, lo, hi) -> tuple:
    # a NaN in either end of an operand makes at least one end of the
    # result NaN; ``enclose`` then blanks the whole row
    if isinstance(node, Const):
        return node.value, node.value
    if isinstance(node, Var):
        return lo, hi
    if isinstance(node, Unary):
        a, b = _enclose(node.arg, lo, hi)
        op = node.op
        if op == "neg":
            return -b, -a
        if op == "abs":
            return _even(a, b, np.abs(a), np.abs(b), 0.0)
        if op == "cosh":
            return _out(*_even(a, b, np.cosh(a), np.cosh(b), 1.0))
        if op in ("sin", "cos"):
            return _out(*_sin_cos(op, a, b))
        if op in ("log", "sqrt"):
            a = np.where(a > 0.0, a, np.nan)
        # exp sinh tanh log sqrt: increasing
        fn = getattr(np, op)
        return _out(fn(a), fn(b))
    a, b = _enclose(node.lhs, lo, hi)
    op = node.op
    if op == "pow":
        if not isinstance(node.rhs, Const):
            return math.nan, math.nan
        return _out(*_pow_const(a, b, float(node.rhs.value)))
    c, d = _enclose(node.rhs, lo, hi)
    if op == "add":
        return _out(a + c, b + d)
    if op == "sub":
        return _out(a - d, b - c)
    if op == "div":
        holds0 = (c <= 0.0) & (d >= 0.0)
        c, d = np.where(holds0, np.nan, c), np.where(holds0, np.nan, d)
        ends = (a / c, a / d, b / c, b / d)
    else:  # mul
        ends = (a * c, a * d, b * c, b * d)
    return _out(np.minimum(np.minimum(ends[0], ends[1]), np.minimum(ends[2], ends[3])),
                np.maximum(np.maximum(ends[0], ends[1]), np.maximum(ends[2], ends[3])))


# -- differentiation ----------------------------------------------------------


def differentiate(node: Ast) -> Ast:
    """Exact derivative tree.

    abs differentiates to u/|u| (the sign), so the derivative errors at the
    kink under evaluation rather than here.  Raises ParseError when the
    unsimplified derivative has more than MAX_DERIV_NODES nodes.
    """
    d = _diff(node)
    if _tree_size(d) > MAX_DERIV_NODES:
        raise ParseError(f"derivative tree larger than {MAX_DERIV_NODES} nodes", 0)
    return simplify(d)


def _tree_size(root: Ast) -> int:
    """Node count of the tree, without recursion; a subtree object shared by
    several parents is sized once and counted once per parent."""
    size: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Binary):
            a, b = size.get(id(node.lhs)), size.get(id(node.rhs))
            if a is None or b is None:
                stack += (node, node.lhs, node.rhs)
                continue
            size[id(node)] = 1 + a + b
        elif isinstance(node, Unary):
            a = size.get(id(node.arg))
            if a is None:
                stack += (node, node.arg)
                continue
            size[id(node)] = 1 + a
        else:
            size[id(node)] = 1
    return size[id(root)]


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


class Component:
    """A one-variable component of a separable surface on an open domain.

    A subclass provides ``domain`` and ``_cols(xs, orders)``: the columns
    f^(k) for each k in ``orders`` (0 to 3) on a float array, as fresh
    arrays.  The rest is implemented here once: NaN outside the domain, the
    array calls, and the scalar calls as one-row views of them that raise
    EvalDomainError outside the domain or where the row comes back NaN.
    ``tabulated`` marks components that interpolate rather than evaluate a
    closed form.
    """

    domain: tuple[float, float]
    tabulated = False

    def _cols(self, xs: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
        raise NotImplementedError

    def contains(self, x: float) -> bool:
        lo, hi = self.domain
        return lo < x < hi

    def _check(self, x: float) -> None:
        if not self.contains(x):
            raise EvalDomainError(
                f"{x!r} outside domain ({self.domain[0]}, {self.domain[1]})")

    def _masked_cols(self, xs: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
        xs = np.asarray(xs, dtype=float)
        cols = self._cols(xs, orders)
        lo, hi = self.domain
        bad = (xs <= lo) | (xs >= hi)
        for col in cols:
            col[bad] = np.nan
        return cols

    def value_array(self, xs: np.ndarray) -> np.ndarray:
        """f array; NaN outside the domain."""
        return self._masked_cols(xs, (0,))[0]

    def d1_array(self, xs: np.ndarray) -> np.ndarray:
        """f' array, equal to jet3_array's d1; NaN outside the domain."""
        return self._masked_cols(xs, (1,))[0]

    def jet3_array(self, xs: np.ndarray) -> tuple[np.ndarray, ...]:
        """(value, d1, d2, d3) arrays; NaN outside the domain."""
        return tuple(self._masked_cols(xs, (0, 1, 2, 3)))

    def _d1_enclosure(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Enclosure of f' over each [lo_i, hi_i], as ``enclose`` gives it.

        NaN rows are not enclosed; here that is every row.
        """
        nan = np.full(np.shape(lo), np.nan)
        return nan, nan.copy()

    def _row(self, x: float, orders: tuple[int, ...]) -> list[float]:
        self._check(x)
        return [_one(col, x) for col in self._masked_cols(np.array([float(x)]), orders)]

    def value(self, x: float) -> float:
        return self._row(x, (0,))[0]

    __call__ = value

    def jet3(self, x: float) -> Jet3:
        return Jet3(*self._row(x, (0, 1, 2, 3)))

    def deriv_value(self, x: float, order: int = 1) -> float:
        return self._row(x, (order,))[0]


class Func1D(Component):
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
        d1 = differentiate(self.ast)
        d2 = differentiate(d1)
        self._trees = (self.ast, d1, d2, differentiate(d2))

    @classmethod
    def parse(cls, src: str, var: str = "x",
              domain: tuple[float, float] = (-math.inf, math.inf)) -> "Func1D":
        return cls(parse_expr(src, var), domain, var)

    def __repr__(self) -> str:
        return f"Func1D({print_expr(self.ast)!r}, domain={self.domain})"

    def source(self) -> str:
        return print_expr(self.ast)

    def _cols(self, xs: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
        return [eval_array(self._trees[k], xs) for k in orders]

    def _d1_enclosure(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return enclose(self._trees[1], lo, hi)
