"""One-variable closed-form expressions with exact derivatives.

Expressions are immutable nodes over a small grammar (see ``parse_expr``)
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
longer input is a ParseError.

Nodes are interned.  One build (a parse, ``simplify``, ``differentiate``
or a ``Func1D``) simplifies each node as it makes it and keeps one node per
operator and operands, so equal subtrees are one object.  Each node is
differentiated once, from its operands' derivatives, so a chain of n
products or quotients needs about linearly many nodes over three orders.
``MAX_DERIV_NODES`` bounds the distinct nodes of one build; more is a
ParseError.  Written out as a tree, the third derivative of such a chain
has about 4e8 nodes: ``print_expr`` refuses more than ``MAX_DERIV_NODES``,
and the nodes' own ``repr``, ``==`` and ``hash`` recurse over that tree,
so they are not meant for such derivatives.

Evaluation has one implementation: a walk over the expression's nodes,
children first, each computed once and dropped after its last use.  It
keeps every constant a scalar of the input's dtype, never an array, so
longdouble input stays longdouble and numpy's ``power`` takes its
scalar-exponent paths: ``^-1``, ``^0.5`` and ``^2`` are the correctly
rounded ``1/x``, ``sqrt(x)`` and ``x*x``.  Other exponents go through
numpy's pow and may differ from ``math.pow`` by an ulp, as numpy's
elementary functions may differ from the ``math`` module's.  The scalar
calls (``evaluate``, and ``value``, ``jet3`` and ``deriv_value`` of every
``Component``) are one-row views of the array calls that raise
EvalDomainError where the row comes back NaN.

``enclose`` bounds an expression over arrays of intervals by the same walk:
the natural interval extension, widened outward by a few ulps, so each row
holds every value the expression takes on its interval.  NaN marks a row
it cannot bound (a pole or a domain edge inside the interval, a
non-constant exponent).  The root engine uses the enclosure of f' to prove
an interval monotone; a NaN row proves nothing, and a ``Component`` that is
not a closed form encloses nothing.
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
# bounds the distinct nodes of one build, counted as differentiation makes
# them: a value and three derivatives share one table, and evaluation time
# grows with its size
MAX_DERIV_NODES = 50_000


class _Parser:
    def __init__(self, src: str, var_name: str):
        self.src = src
        self.var = var_name
        self.tokens = _tokenize(src)
        self.dag = _Dag()
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
            node = self.dag.binary("add" if op == "+" else "sub", node, self.term())
        return node

    def term(self) -> Ast:
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            _, op, _ = self.next()
            node = self.dag.binary("mul" if op == "*" else "div", node, self.unary())
        return node

    def unary(self) -> Ast:
        if self.peek()[:2] == ("op", "-"):
            self.nest(self.next()[2])
            node = self.dag.unary("neg", self.unary())
            self.depth -= 1
            return node
        return self.power()

    def power(self) -> Ast:
        node = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.nest(self.next()[2])
            node = self.dag.binary("pow", node, self.unary())
            self.depth -= 1
        return node

    def atom(self) -> Ast:
        kind, val, off = self.next()
        if kind == "num":
            value = float(val)
            if not math.isfinite(value):
                raise ParseError("number out of range", off)
            return self.dag.const(value)
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
                return self.dag.unary(val, arg)
            if val == self.var:
                return self.dag.var(self.var)
            raise ParseError(f"unknown identifier {val!r}", off)
        if (kind, val) == ("op", "("):
            self.nest(off)
            node = self.expression()
            self.expect_op(")")
            self.depth -= 1
            return node
        raise ParseError("expected a number, identifier or '('", off)


def parse_expr(src: str, var_name: str = "x") -> Ast:
    """Parse ``src`` into an Ast, simplified as ``simplify`` leaves it.

    Raises ParseError (with byte offset) on malformed input or unknown
    identifiers.
    """
    p = _Parser(src, var_name)
    node = p.expression()
    kind, val, off = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing {val!r}", off)
    return node


# -- the expression DAG -------------------------------------------------------


class _Dag:
    """The table of one build: constructors that simplify, then intern.

    Each constructor applies the simplification rules first: constant
    folding, 0/1 identities, double negation and -1*u -> -u.  That is enough
    to keep three rounds of differentiation small without turning into a
    CAS, and folds preserve the value wherever the unfolded expression
    evaluates.  Then it returns the table's one node for (op, operands), so
    equal subtrees are one object.  Operands enter keys by id(): each is a
    node of the table, which keeps it alive.
    """

    def __init__(self):
        self._table: dict = {}
        self._deriv: dict[int, Ast] = {}  # id(node) -> its derivative

    def _intern(self, key, kind: type, *fields) -> Ast:
        node = self._table.get(key)
        if node is None:
            node = self._table[key] = kind(*fields)
        return node

    def const(self, value: float) -> Ast:
        # the hex form keeps -0.0 apart from 0.0
        return self._intern(float(value).hex(), Const, value)

    def var(self, name: str) -> Ast:
        return self._intern(("var", name), Var, name)

    def unary(self, op: str, a: Ast) -> Ast:
        if op == "neg":
            if isinstance(a, Const):
                return self.const(-a.value)
            if isinstance(a, Unary) and a.op == "neg":
                return a.arg
        if isinstance(a, Const):
            folded = _try_fold(op, a.value)
            if folded is not None:
                return self.const(folded)
        return self._intern((op, id(a)), Unary, op, a)

    def binary(self, op: str, a: Ast, b: Ast) -> Ast:
        if isinstance(a, Const) and isinstance(b, Const):
            folded = _try_fold(op, a.value, b.value)
            if folded is not None:
                return self.const(folded)
        if op == "add":
            if _is_const(a, 0.0):
                return b
            if _is_const(b, 0.0):
                return a
        elif op == "sub":
            if _is_const(b, 0.0):
                return a
            if _is_const(a, 0.0):
                return self.unary("neg", b)
        elif op == "mul":
            if _is_const(a, 0.0) or _is_const(b, 0.0):
                return self.const(0.0)
            if _is_const(a, 1.0):
                return b
            if _is_const(b, 1.0):
                return a
            if _is_const(a, -1.0):
                return self.unary("neg", b)
            if _is_const(b, -1.0):
                return self.unary("neg", a)
        elif op == "div":
            if _is_const(b, 1.0):
                return a
        elif op == "pow":
            if _is_const(b, 1.0):
                return a
            if _is_const(b, 0.0):
                return self.const(1.0)
        return self._intern((op, id(a), id(b)), Binary, op, a, b)

    def rebuild(self, root: Ast, var: Optional[str] = None) -> Ast:
        """``root`` made through the constructors, its variable named ``var``
        when that is given."""
        def make(node: Ast, args: list) -> Ast:
            if isinstance(node, Const):
                return self.const(node.value)
            if isinstance(node, Var):
                return self.var(var or node.name)
            return (self.unary if isinstance(node, Unary) else self.binary)(node.op, *args)

        return _walk(_plan([root]), make)[0]

    def derive(self, root: Ast) -> Ast:
        """Derivative of a node of this table.

        Derives every node not derived yet, in creation order, which puts
        operands first: so each node is derived once, from its operands'
        derivatives, without recursion.  Raises ParseError once the table
        holds more than MAX_DERIV_NODES nodes.
        """
        for node in list(self._table.values()):
            if id(node) not in self._deriv:
                dargs = [self._deriv[id(kid)] for kid in _kids(node)]
                self._deriv[id(node)] = self._rule(node, *dargs)
                if len(self._table) > MAX_DERIV_NODES:
                    raise ParseError(f"derivatives larger than {MAX_DERIV_NODES} nodes", 0)
        return self._deriv[id(root)]

    def _rule(self, node: Ast, du: Optional[Ast] = None, dv: Optional[Ast] = None) -> Ast:
        B, U, C = self.binary, self.unary, self.const
        if isinstance(node, Const):
            return C(0.0)
        if isinstance(node, Var):
            return C(1.0)
        if isinstance(node, Unary):
            u, op = node.arg, node.op
            if op == "neg":
                return U("neg", du)
            if op == "sin":
                return B("mul", U("cos", u), du)
            if op == "cos":
                return U("neg", B("mul", U("sin", u), du))
            if op == "sinh":
                return B("mul", U("cosh", u), du)
            if op == "cosh":
                return B("mul", U("sinh", u), du)
            if op == "tanh":
                sech2 = B("sub", C(1.0), B("pow", U("tanh", u), C(2.0)))
                return B("mul", sech2, du)
            if op == "exp":
                return B("mul", U("exp", u), du)
            if op == "log":
                return B("div", du, u)
            if op == "sqrt":
                return B("div", du, B("mul", C(2.0), U("sqrt", u)))
            if op == "abs":
                sign = B("div", u, U("abs", u))
                return B("mul", sign, du)
            raise ValueError(f"unknown unary op {op!r}")
        u, v, op = node.lhs, node.rhs, node.op
        if op in ("add", "sub"):
            return B(op, du, dv)
        if op == "mul":
            return B("add", B("mul", du, v), B("mul", u, dv))
        if op == "div":
            num = B("sub", B("mul", du, v), B("mul", u, dv))
            return B("div", num, B("pow", v, C(2.0)))
        # pow
        if isinstance(v, Const):
            p = v.value
            if p == 0.0:
                return C(0.0)
            stem = B("mul", C(p), B("pow", u, C(p - 1.0)))
            return B("mul", stem, du)
        # general exponent: u^v * (dv*log(u) + v*du/u); real only for u > 0
        inner = B("add", B("mul", dv, U("log", u)), B("mul", v, B("div", du, u)))
        return B("mul", B("pow", u, v), inner)


def _is_const(node: Ast, value: float) -> bool:
    return isinstance(node, Const) and node.value == value


def _try_fold(op: str, *values: float) -> Optional[float]:
    """``op`` on constant operands as evaluation computes it; None where the
    result is not a finite real."""
    with np.errstate(all="ignore"):
        v = float(_APPLY[op](*map(np.float64, values)))
    return v if math.isfinite(v) else None


def simplify(node: Ast) -> Ast:
    """``node`` rebuilt through the simplification rules, equal subtrees shared."""
    return _Dag().rebuild(node)


def differentiate(node: Ast) -> Ast:
    """Exact derivative of ``simplify(node)``.

    abs differentiates to u/|u| (the sign), so the derivative errors at the
    kink under evaluation rather than here.  Raises ParseError when the
    expression and its derivative need more than MAX_DERIV_NODES distinct
    nodes.
    """
    dag = _Dag()
    return dag.derive(dag.rebuild(node))


# -- node lists ---------------------------------------------------------------


def _kids(node: Ast) -> tuple:
    if isinstance(node, Binary):
        return (node.lhs, node.rhs)
    if isinstance(node, Unary):
        return (node.arg,)
    return ()


def _plan(roots: list) -> tuple:
    """The node list that building, evaluation and enclosure walk.

    One step per node under ``roots``, children first: the node, its
    operands' positions, and the positions it uses for the last time (the
    roots' excepted); then the roots' positions.  Made without recursion:
    the derivatives of long chains nest deeper than Python's recursion limit.
    """
    steps: list[tuple] = []
    at: dict[int, int] = {}  # id(node) -> position, once its step is made
    stack: list[tuple] = [(root, None) for root in roots]
    while stack:
        node, kids = stack.pop()
        if kids is not None:  # the operands have their steps
            at[id(node)] = len(steps)
            steps.append((node, [at[id(kid)] for kid in kids], []))
        elif id(node) not in at:
            kids = _kids(node)
            stack.append((node, kids))
            stack += [(kid, None) for kid in kids]
    outs = [at[id(root)] for root in roots]
    used = set(outs)  # walking back, a position's first use is its last
    for _, args, drops in reversed(steps):
        for j in args:
            if j not in used:
                used.add(j)
                drops.append(j)
    return steps, outs


def _walk(plan: tuple, visit) -> list:
    """``visit(node, operand results)`` along the plan; the roots' results.

    A result is dropped after its last use, so peak memory does not grow
    with the plan's length.
    """
    steps, outs = plan
    vals: list = []
    for node, args, drops in steps:
        vals.append(visit(node, [vals[j] for j in args]))
        for j in drops:
            vals[j] = None
    return [vals[j] for j in outs]


# -- evaluation ---------------------------------------------------------------


def _real_on_positive(fn):
    return lambda a: np.where(a > 0.0, fn(np.where(a > 0.0, a, 1.0)), np.nan)


def _div(a, b):
    return np.where(b != 0.0, a / np.where(b != 0.0, b, 1.0), np.nan)


# each operator on evaluated operands, arrays or scalars.  pow: numpy keeps
# the sign for integral exponents on negative bases and yields nan for
# fractional ones
_APPLY = {
    "neg": np.negative, "sin": np.sin, "cos": np.cos, "sinh": np.sinh,
    "cosh": np.cosh, "tanh": np.tanh, "exp": np.exp, "abs": np.abs,
    "log": _real_on_positive(np.log), "sqrt": _real_on_positive(np.sqrt),
    "add": np.add, "sub": np.subtract, "mul": np.multiply, "div": _div,
    "pow": np.power,
}


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
    return _evaluate(_plan([node]), xs)[0]


def _evaluate(plan: tuple, xs: np.ndarray) -> list[np.ndarray]:
    """The plan's root columns on ``xs``, as ``eval_array`` describes them."""
    xs = np.asarray(xs)
    if xs.dtype.kind != "f":
        xs = xs.astype(float)

    def visit(node: Ast, args: list):
        # constants stay scalars; no op writes into its operands, so xs
        # itself stands for the variable
        if isinstance(node, Const):
            return xs.dtype.type(node.value)
        return xs if isinstance(node, Var) else _APPLY[node.op](*args)

    with np.errstate(all="ignore"):
        cols = [np.where(np.isfinite(col), col, np.nan) for col in _walk(plan, visit)]
    # a constant root (e.g. an unfolded log(-1)) comes back a scalar
    return [col if col.shape == xs.shape else np.full(xs.shape, col, dtype=xs.dtype)
            for col in cols]


# -- interval enclosure -------------------------------------------------------

# outward widening of every rounded endpoint, relative: at least four ulps,
# then one more by nextafter.  numpy's vectorized exp, log and sin are not
# correctly rounded, so one ulp would not be enough
_WIDEN = 4 * 2.0 ** -52


def enclose(node: Ast, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interval enclosure of the expression over each interval [lo_i, hi_i].

    The natural interval extension (Moore, Kearfott & Cloud, *Introduction
    to Interval Analysis*, 2009, ch. 5): every operation maps enclosures of
    its operands to an interval holding all the values it takes on them,
    widened outward by a few ulps.  So each row ``[elo, ehi]`` holds the
    expression's real values on its interval, and ``eval_array``'s.  A NaN
    row is "not enclosed": division by an interval holding 0, a negative
    power of an interval holding 0, a fractional power, log or sqrt of an
    interval reaching 0 or below, a non-constant exponent, or a NaN on the
    way.  Rows come back as float64 arrays of the shape of ``lo``.
    """
    return _enclosure(_plan([node]), lo, hi)


def _enclosure(plan: tuple, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Enclosure of the plan's one root, as ``enclose`` describes it."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    with np.errstate(all="ignore"):
        [(elo, ehi)] = _walk(plan, lambda node, args: _enclose_node(node, args, lo, hi))
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


def _enclose_node(node: Ast, args: list, lo, hi) -> tuple:
    # a NaN in either end of an operand makes at least one end of the
    # result NaN; ``_enclosure`` then blanks the whole row
    if isinstance(node, Const):
        return node.value, node.value
    if isinstance(node, Var):
        return lo, hi
    op = node.op
    a, b = args[0]
    if isinstance(node, Unary):
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
    if op == "pow":
        if not isinstance(node.rhs, Const):
            return math.nan, math.nan
        return _out(*_pow_const(a, b, float(node.rhs.value)))
    c, d = args[1]
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


# -- printing -----------------------------------------------------------------

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}


def print_expr(node: Ast) -> str:
    """Render to grammar source; parse(print_expr(t)) == t for folded trees.

    The text writes a shared node once per use, so an expression of more
    than MAX_DERIV_NODES nodes as a tree raises ExprError, counted over the
    shared nodes before any text is made.
    """
    plan = _plan([node])
    if _walk(plan, lambda _, sizes: 1 + sum(sizes))[0] > MAX_DERIV_NODES:
        raise ExprError(f"expression larger than {MAX_DERIV_NODES} nodes as a tree")
    return _walk(plan, _fmt)[0]


def _is_atom(node: Ast) -> bool:
    # things the grammar's `atom` rule can produce verbatim; negative
    # constants count because _fmt self-parenthesizes them
    return (
        isinstance(node, (Const, Var))
        or (isinstance(node, Unary) and node.op != "neg")
    )


def _fmt(node: Ast, args: list) -> str:
    """The source of ``node`` from its operands' sources."""
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
            inner = args[0]
            # after '-', only a unary or power may follow
            if isinstance(node.arg, Binary) and node.arg.op != "pow":
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({args[0]})"
    a, b, op = node.lhs, node.rhs, node.op
    left, right = args
    if op == "pow":
        base = left if _is_atom(a) else f"({left})"
        # the exponent slot accepts any unary (so neg and pow chains are fine)
        if isinstance(b, Binary) and b.op != "pow":
            right = f"({right})"
        return f"{base}^{right}"
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[op]
    if _prec_of(a) < _PREC[op]:
        left = f"({left})"
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
    """A one-variable function: an expression in ``var`` plus an open domain
    interval.

    The value and its three derivatives are built once, up front, in one
    table of shared nodes.  Each set of columns gets its node list on first
    use and keeps it; two readers at once at worst make the same list twice,
    so concurrent shared reads are safe.
    """

    def __init__(self, ast: Ast, domain: tuple[float, float] = (-math.inf, math.inf),
                 var: str = "x"):
        lo, hi = float(domain[0]), float(domain[1])
        if not lo < hi:
            raise ValueError(f"empty domain ({lo}, {hi})")
        dag = _Dag()
        trees = [dag.rebuild(ast, var)]
        for _ in range(3):
            trees.append(dag.derive(trees[-1]))
        self.ast = trees[0]
        self.domain = (lo, hi)
        self.var = var
        self._trees = tuple(trees)
        self._plans: dict[tuple, tuple] = {}  # orders -> node list

    @classmethod
    def parse(cls, src: str, var: str = "x",
              domain: tuple[float, float] = (-math.inf, math.inf)) -> "Func1D":
        return cls(parse_expr(src, var), domain, var)

    def __repr__(self) -> str:
        return f"Func1D({print_expr(self.ast)!r}, domain={self.domain})"

    def source(self) -> str:
        return print_expr(self.ast)

    def _plan_of(self, orders: tuple[int, ...]) -> tuple:
        if orders not in self._plans:
            self._plans[orders] = _plan([self._trees[k] for k in orders])
        return self._plans[orders]

    def _cols(self, xs: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
        return _evaluate(self._plan_of(orders), xs)

    def _d1_enclosure(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _enclosure(self._plan_of((1,)), lo, hi)
