import hashlib
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_fd_case, eval_array_recursive, eval_math, fd_jets, random_tree
from sepsurf import expr
from sepsurf.expr import (
    Binary,
    Const,
    EvalDomainError,
    ExprError,
    MAX_NESTING,
    MAX_TOKENS,
    Func1D,
    ParseError,
    Unary,
    Var,
    differentiate,
    enclose,
    eval_array,
    evaluate,
    parse_expr,
    print_expr,
    simplify,
)


# -- parsing -------------------------------------------------------------------


def test_parse_power():
    assert parse_expr("x^2") == Binary("pow", Var("x"), Const(2.0))


def test_parse_scaled_log():
    assert parse_expr("-2*log(x)") == Binary(
        "mul", Const(-2.0), Unary("log", Var("x")))


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse_expr("1+*x")
    assert err.value.offset == 2


@pytest.mark.parametrize("src,var,offset", [
    ("1e400*x", "x", 0), ("z^2-1e400", "z", 4), ("x+ 2.5e308", "x", 3)])
def test_parse_rejects_overflowing_literal(src, var, offset):
    with pytest.raises(ParseError, match="number out of range") as err:
        parse_expr(src, var)
    assert err.value.offset == offset


def test_parse_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_expr("x + y")


def test_parse_declared_variable():
    assert parse_expr("t^2", "t") == Binary("pow", Var("t"), Const(2.0))


def test_parse_function_needs_arguments():
    with pytest.raises(ParseError):
        parse_expr("sin + 1")
    with pytest.raises(ParseError):
        parse_expr("sin(x, x)")  # every function is unary


def test_parse_precedence():
    # 1+2*x^2 == 1+(2*(x^2))
    tree = parse_expr("1+2*x^2")
    assert tree == Binary(
        "add", Const(1.0),
        Binary("mul", Const(2.0), Binary("pow", Var("x"), Const(2.0))))


def test_parse_right_associative_power():
    # 2^3^2 folds to 2^(3^2) = 512, not (2^3)^2 = 64
    assert parse_expr("2^3^2") == Const(512.0)
    assert parse_expr("x^2^3") == Binary("pow", Var("x"), Const(8.0))


def test_parse_unary_minus_binds_power():
    # -x^2 is -(x^2)
    assert parse_expr("-x^2+0*x") == Binary(
        "add", Unary("neg", Binary("pow", Var("x"), Const(2.0))), Const(0.0)
    ) or parse_expr("-x^2") == Unary("neg", Binary("pow", Var("x"), Const(2.0)))


_DEEP_FORMS = {
    "parentheses": lambda d: "(" * d + "x" + ")" * d,
    "calls": lambda d: "sin(" * d + "x" + ")" * d,
    "unary minus": lambda d: "-" * d + "x",
    "power chain": lambda d: "2^" * d + "x",
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_DEEP_FORMS)), st.integers(MAX_NESTING + 1, 3000))
def test_parse_rejects_nesting_past_the_bound(form, depth):
    with pytest.raises(ParseError, match="nesting"):
        parse_expr(_DEEP_FORMS[form](depth))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(sorted(_DEEP_FORMS)), min_size=1, max_size=MAX_NESTING))
def test_parse_accepts_mixed_nesting_up_to_the_bound(forms):
    src = "x"
    for form in forms:
        src = _DEEP_FORMS[form](1).replace("x", src)
    parse_expr(src)
    with pytest.raises(ParseError, match="nesting"):
        parse_expr(_DEEP_FORMS[forms[0]](MAX_NESTING + 1 - len(forms)).replace("x", src))


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_parse_bounds_flat_chains_by_token_count(op):
    chain = op.join(["x"] * (MAX_TOKENS // 2))  # MAX_TOKENS - 1 tokens
    parse_expr("-" + chain)
    for src in ("--" + chain, op.join(["x"] * 3000)):
        with pytest.raises(ParseError, match="tokens"):
            parse_expr(src)


_CHAIN = "x" + "{op}x" * (MAX_TOKENS // 2 - 1)  # 128 factors, MAX_TOKENS - 1 tokens


@pytest.mark.parametrize("op", ["*", "/"])
def test_derivative_trees_are_bounded(op, monkeypatch):
    # interned derivatives of a chain of n factors need about linearly many
    # nodes over three orders, so the longest chain the parser takes fits
    f = Func1D.parse(_CHAIN.format(op=op))
    p = 128.0 if op == "*" else -126.0
    for x in (0.8, 1.1, 1.4):
        exact = (p * x ** (p - 1), p * (p - 1) * x ** (p - 2),
                 p * (p - 1) * (p - 2) * x ** (p - 3))
        jet = f.jet3(x).as_tuple()[1:]
        # the oracle's truncation error grows with the exponent: 4.4e-6 at
        # worst here for d3
        for sym, num, ref in zip(jet, fd_jets(f, x), exact):
            assert abs(sym - num) <= 1e-5 * abs(num)
            assert abs(sym - ref) <= 1e-13 * abs(ref)
    monkeypatch.setattr(expr, "MAX_DERIV_NODES", 300)
    with pytest.raises(ParseError, match="larger than 300 nodes"):
        Func1D.parse(_CHAIN.format(op=op))


def test_deep_derivatives_need_no_recursion():
    # the third derivative of the 128-factor quotient chain nests 1 267
    # levels deep, past the default recursion limit
    src = _CHAIN.format(op="/")
    d3 = parse_expr(src)
    for _ in range(3):
        d3 = differentiate(d3)
    f = Func1D.parse(src)
    xs = np.linspace(0.6, 1.4, 33)
    jets = f.jet3_array(xs)
    assert all(np.all(np.isfinite(col)) for col in jets)
    assert eval_array(d3, xs).tobytes() == jets[3].tobytes()
    elo, ehi = f._d1_enclosure(xs[:-1], xs[1:])
    assert np.all(elo <= jets[1][1:]) and np.all(jets[1][:-1] <= ehi)
    lo, hi = enclose(d3, xs[:-1], xs[1:])
    assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
    # written out as a tree, d3 has about 4e8 nodes: printing refuses it
    # after counting them over the shared nodes
    assert parse_expr(print_expr(f._trees[0])) == f._trees[0]
    with pytest.raises(ExprError, match=f"larger than {expr.MAX_DERIV_NODES} nodes"):
        print_expr(d3)


def _reference_funcs(monkeypatch) -> list:
    """The closed-form components of the benchmark's expression pool, the
    presets, the catalog and random draws of every family."""
    from sepsurf.families import PRESETS, build_surface
    from sepsurf.verify import FAMILY_TAGS, catalog, random_family

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import EXPR_POOL

    funcs = []
    rng = random.Random(0)
    for _ in range(10):
        for make in EXPR_POOL:
            for var in "xyz":
                funcs.append(Func1D.parse(make(rng, var)[0], var))
    surfaces = [build_surface(spec) for spec in PRESETS.values()]
    surfaces += [e.surface for e in catalog()]
    np_rng = np.random.default_rng(0)
    for tag in FAMILY_TAGS:
        for _ in range(3):
            surfaces.append(build_surface(random_family(tag, np_rng)[0]))
    return funcs + [c for s in surfaces for c in s.components if isinstance(c, Func1D)]


def test_reference_expressions_fit_the_derivative_budget(monkeypatch):
    assert len(_reference_funcs(monkeypatch)) == 373


def test_reference_derivative_trees_are_pinned(monkeypatch):
    # a simplification or derivative rule that moves changes these bytes
    digest = hashlib.sha256()
    for f in _reference_funcs(monkeypatch):
        for tree in f._trees[1:]:
            digest.update(print_expr(tree).encode() + b"\n")
    assert digest.hexdigest() == (
        "ec75ba123aa189b08b6301f99bca2f63824a9be3b99adcc6deaee89c45ca687e")


# -- evaluation -----------------------------------------------------------------


def test_eval_square():
    assert evaluate(parse_expr("x^2"), 3.0) == 9.0


def test_eval_exp():
    assert evaluate(parse_expr("exp(x)"), 1.0) == 2.718281828459045


def test_eval_log_domain_error():
    with pytest.raises(EvalDomainError):
        evaluate(parse_expr("log(x)"), -1.0)


def test_eval_sqrt_nonpositive_errors():
    with pytest.raises(EvalDomainError):
        evaluate(parse_expr("sqrt(x)"), -4.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse_expr("sqrt(x)"), 0.0)


def test_eval_division_by_zero():
    with pytest.raises(EvalDomainError):
        evaluate(parse_expr("1/x"), 0.0)


def test_pow_integer_exponent_keeps_sign():
    assert evaluate(parse_expr("x^3"), -2.0) == -8.0
    assert evaluate(parse_expr("x^-2"), -2.0) == 0.25


def test_pow_fractional_negative_base_rejected():
    with pytest.raises(EvalDomainError):
        evaluate(parse_expr("x^0.5"), -2.0)


def test_abs_derivative_errors_at_kink_only():
    d = differentiate(parse_expr("abs(x)"))
    assert evaluate(d, 2.0) == 1.0
    assert evaluate(d, -2.0) == -1.0
    with pytest.raises(EvalDomainError):
        evaluate(d, 0.0)


def test_eval_array_nan_semantics():
    vals = eval_array(parse_expr("log(x)"), np.array([-1.0, 0.0, 1.0, math.e]))
    assert np.isnan(vals[0]) and np.isnan(vals[1])
    assert vals[2] == 0.0 and abs(vals[3] - 1.0) < 1e-15


# -- interval enclosure -------------------------------------------------------------

# every unary op, mul, div and pow by -2, -1, 0.5, 2 and 3, each mapped to the
# intervals on which the enclosure must be NaN (None: never)
_ENCLOSE_FORMS = {
    "-x": None,
    "sin(x)": None,
    "cos(x)": None,
    "sin(3*x-1)": None,
    "sinh(x)": None,
    "cosh(x)": None,
    "tanh(x)": None,
    "exp(x)": None,
    "log(x)": lambda lo, hi: lo <= 0.0,
    "sqrt(x)": lambda lo, hi: lo <= 0.0,
    "abs(x)": None,
    "(x-0.5)*(x+1.5)": None,
    "(x-0.5)*exp(x)": None,
    "sin(x)/(x-0.25)": lambda lo, hi: lo <= 0.25 <= hi,
    "1/x": lambda lo, hi: lo <= 0.0 <= hi,
    "x^(-2)": lambda lo, hi: lo <= 0.0 <= hi,
    "x^(-1)": lambda lo, hi: lo <= 0.0 <= hi,
    "x^0.5": lambda lo, hi: lo <= 0.0,
    "x^2": None,
    "x^3": None,
}


@pytest.mark.parametrize("form", sorted(_ENCLOSE_FORMS))
@settings(max_examples=40, deadline=None)
@given(lo=st.floats(-8.0, 8.0), width=st.floats(0.0, 8.0))
def test_enclosure_holds_every_value_or_is_nan(form, lo, width):
    tree, hi = parse_expr(form), lo + width
    elo, ehi = enclose(tree, np.array([lo]), np.array([hi]))
    vals = eval_array(tree, np.linspace(lo, hi, 257))
    nan_rule = _ENCLOSE_FORMS[form]
    assert np.isnan(elo[0]) == np.isnan(ehi[0])
    if nan_rule is not None and nan_rule(lo, hi):
        assert np.isnan(elo[0])
    elif np.all(np.isfinite(vals)):  # otherwise a value overflowed
        assert not np.isnan(elo[0])
    if not np.isnan(elo[0]):
        vals = vals[np.isfinite(vals)]
        assert np.all((elo[0] <= vals) & (vals <= ehi[0]))


@pytest.mark.parametrize("form, lo, hi", [
    ("log(x)", 0.0, 1.0), ("log(x)", -1.0, 2.0), ("sqrt(x)", -0.5, 0.5),
    ("sqrt(x)", 0.0, 3.0), ("1/x", -1.0, 1.0), ("1/(x-1)", 0.0, 1.0),
    ("x^(-2)", -1.0, 0.0), ("x^(-1)", 0.0, 2.0), ("x^0.5", 0.0, 1.0),
    ("x^1.5", -1.0, 1.0), ("2^x", 1.0, 2.0), ("exp(log(x))", -1.0, 1.0),
])
def test_enclosure_is_nan_where_it_cannot_bound(form, lo, hi):
    elo, ehi = enclose(parse_expr(form), np.array([lo]), np.array([hi]))
    assert np.isnan(elo[0]) and np.isnan(ehi[0])


def test_enclosure_widens_outward_and_brackets_extrema():
    lo, hi = np.array([0.5, -1.0, 1.0, 0.0]), np.array([2.0, 1.0, 2.0, 7.0])
    elo, ehi = enclose(parse_expr("exp(x)"), lo, hi)
    assert np.all(elo < np.exp(lo)) and np.all(ehi > np.exp(hi))
    elo, ehi = enclose(parse_expr("sin(x)"), lo, hi)
    assert ehi[2] >= 1.0 and elo[2] > 0.8  # pi/2 inside, no trough
    assert elo[3] <= -1.0 and ehi[3] >= 1.0  # a full period
    elo, ehi = enclose(parse_expr("x^2"), lo, hi)
    assert -1e-300 < elo[1] <= 0.0 and ehi[1] > 1.0  # even power over 0
    # negative integer powers of a negative interval stay bounded
    elo, ehi = enclose(parse_expr("x^(-2)"), np.array([-2.0]), np.array([-1.0]))
    assert 0.0 < elo[0] < 0.25 and 1.0 < ehi[0] < 1.0 + 1e-14


def test_enclosure_of_constant_trees_broadcasts():
    lo, hi = np.linspace(0.0, 1.0, 5), np.linspace(0.5, 1.5, 5)
    elo, ehi = enclose(Const(2.0), lo, hi)
    assert elo.shape == ehi.shape == (5,) and np.all(elo == 2.0) and np.all(ehi == 2.0)
    # a linear component has a constant derivative tree
    elo, ehi = Func1D.parse("3*z+1", "z")._d1_enclosure(lo, hi)
    assert elo.shape == (5,) and np.all(elo == 3.0) and np.all(ehi == 3.0)


# -- differentiation --------------------------------------------------------------


def test_diff_constant():
    assert differentiate(Const(5.0)) == Const(0.0)


def test_diff_power_rule():
    d = differentiate(parse_expr("x^2"))
    for x in (0.0, 1.5, -2.0):
        assert evaluate(d, x) == 2 * x


def test_diff_exp_chain_rule():
    d = differentiate(parse_expr("exp(3*x)"))
    for x in (0.0, 0.7):
        assert abs(evaluate(d, x) - 3 * math.exp(3 * x)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_diff_is_linear(seed):
    rng = np.random.default_rng(seed)
    a = simplify(random_tree(rng, 3))
    b = simplify(random_tree(rng, 3))
    summed = differentiate(Binary("add", a, b))
    split = Binary("add", differentiate(a), differentiate(b))
    hits = 0
    for x in rng.uniform(-3, 3, size=100):
        try:
            lhs = evaluate(summed, float(x))
            rhs = evaluate(split, float(x))
        except EvalDomainError:
            continue
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))
        hits += 1
    # fine if most points were rejected; linearity must hold wherever defined


# -- printing ---------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_print_parse_round_trip(seed):
    rng = np.random.default_rng(seed)
    tree = simplify(random_tree(rng, 4))
    assert parse_expr(print_expr(tree)) == tree


def test_print_examples():
    assert parse_expr(print_expr(parse_expr("-2*log(x)"))) == parse_expr("-2*log(x)")
    assert parse_expr(print_expr(parse_expr("x^-2"))) == parse_expr("x^-2")
    assert parse_expr(print_expr(parse_expr("(x+1)*(x-1)"))) == parse_expr("(x+1)*(x-1)")


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_print_parse_round_trip_exotic_powers(seed):
    # exercise power chains, expression exponents, and negated exponents,
    # which the generic generator rarely produces
    rng = np.random.default_rng(seed)
    base = simplify(random_tree(rng, 2))
    expo = simplify(random_tree(rng, 2))
    for tree in (
        Binary("pow", base, expo),
        Binary("pow", base, Unary("neg", expo)),
        Binary("pow", Binary("pow", base, Const(2.0)), expo),
        Binary("pow", base, Binary("pow", expo, Const(2.0))),
        Unary("neg", Binary("pow", base, expo)),
    ):
        folded = simplify(tree)
        assert parse_expr(print_expr(folded)) == folded


# -- jets ---------------------------------------------------------------------------


def test_jet_polynomial():
    f = Func1D.parse("x^2")
    assert f.jet3(3.0).as_tuple() == (9.0, 6.0, 2.0, 0.0)


def test_jet_scaled_log():
    f = Func1D.parse("-2*log(x)", domain=(0.0, math.inf))
    v, d1, d2, d3 = f.jet3(1.0).as_tuple()
    assert (v, d1, d2, d3) == (0.0, -2.0, 2.0, -4.0)


def test_jet_exp():
    f = Func1D.parse("exp(x)")
    assert f.jet3(0.0).as_tuple() == (1.0, 1.0, 1.0, 1.0)


def test_jet_outside_domain():
    f = Func1D.parse("log(x)", domain=(0.0, math.inf))
    with pytest.raises(EvalDomainError):
        f.jet3(-1.0)


def test_jets_match_finite_differences():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(300):
        f, x, jet, fd = draw_fd_case(rng)
        for sym, num in zip((jet.d1, jet.d2, jet.d3), fd):
            worst = max(worst, abs(sym - num) / (1 + abs(sym)))
    assert worst <= 1e-6


def test_func1d_rejects_empty_domain():
    with pytest.raises(ValueError):
        Func1D.parse("x", domain=(1.0, 1.0))


def test_vector_scalar_consistency():
    # numpy against the math-module oracle, which may differ by an ulp;
    # the scalar API is a one-row view of the array path, so bit-equal to it
    for src, signs in [
        ("sqrt(x)*exp(-x^2)+tanh(x)/x", (1.0,)),
        ("x^(-2)", (1.0, -1.0)), ("x^(-1)", (1.0, -1.0)), ("x^2", (1.0, -1.0)),
        ("x^3", (1.0, -1.0)), ("x^0.5", (1.0, -1.0)), ("3*(x+0.25)^(-1)-x^3/2", (1.0, -1.0)),
    ]:
        tree = parse_expr(src)
        for xs in (sign * np.linspace(0.3, 2.5, 9) for sign in signs):
            for x, v in zip(xs, eval_array(tree, xs)):
                if np.isnan(v):  # x^0.5 of a negative base
                    with pytest.raises(EvalDomainError):
                        evaluate(tree, float(x))
                    with pytest.raises(EvalDomainError):
                        eval_math(tree, float(x))
                    continue
                assert abs(eval_math(tree, float(x)) - v) <= 1e-15 * (1 + abs(v))
                assert evaluate(tree, float(x)).hex() == float(v).hex()


def test_reciprocal_and_square_are_correctly_rounded():
    xs = np.random.default_rng(11).uniform(-3.0, 3.0, 20_001)
    assert np.array_equal(eval_array(parse_expr("x^(-1)"), xs), 1.0 / xs)
    assert np.array_equal(eval_array(parse_expr("x^2"), xs), xs * xs)
    assert np.array_equal(Func1D.parse("x^(-1)").jet3_array(xs)[0], 1.0 / xs)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_scalar_constants_match_array_constants_without_pow(seed):
    # constants are scalars, not full arrays; without pow that may not move
    # a bit, on any column whose tree has no pow
    rng = np.random.default_rng(seed)
    xs = np.concatenate([rng.uniform(-3.0, 3.0, 64), [0.0, -0.0, 1.0, -1.0]])
    tree = simplify(random_tree(rng, 4, with_pow=False))
    assert eval_array(tree, xs).tobytes() == eval_array_recursive(tree, xs).tobytes()
    try:
        f = Func1D(tree)
    except ParseError:  # derivative tree over the budget
        return
    trees = [f.ast]
    for _ in range(3):
        trees.append(differentiate(trees[-1]))
    for tree, col in zip(trees, f.jet3_array(xs)):
        if "pow" not in repr(tree):
            assert col.tobytes() == eval_array_recursive(tree, xs).tobytes()


def test_eval_array_keeps_dtype_and_shape_and_never_aliases():
    xs = np.linspace(0.5, 2.0, 7)
    for src in ("x^(-1)+0.1*x^2", "sqrt(x)/3"):
        lo = eval_array(parse_expr(src), xs.astype(np.longdouble))
        assert lo.dtype == np.longdouble
        assert np.max(np.abs(lo - eval_array(parse_expr(src), xs))) < 1e-15
    out = eval_array(Var("x"), xs)
    assert out is not xs and not np.shares_memory(out, xs)
    out[:] = 0.0
    assert xs[0] == 0.5
    # a constant tree the fold left alone is NaN of the input's shape
    grid = np.ones((2, 3))
    col = eval_array(Unary("log", Const(-1.0)), grid)
    assert col.shape == (2, 3) and col.flags.writeable and np.all(np.isnan(col))
    assert eval_array(Const(2.5), grid).tolist() == [[2.5] * 3] * 2
