import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_fd_case, eval_math, random_tree
from sepsurf.expr import (
    Binary,
    Const,
    EvalDomainError,
    MAX_NESTING,
    Func1D,
    ParseError,
    Unary,
    Var,
    differentiate,
    eval_array,
    eval_jet3,
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
    assert eval_jet3(f, 3.0).as_tuple() == (9.0, 6.0, 2.0, 0.0)


def test_jet_scaled_log():
    f = Func1D.parse("-2*log(x)", domain=(0.0, math.inf))
    v, d1, d2, d3 = eval_jet3(f, 1.0).as_tuple()
    assert (v, d1, d2, d3) == (0.0, -2.0, 2.0, -4.0)


def test_jet_exp():
    f = Func1D.parse("exp(x)")
    assert eval_jet3(f, 0.0).as_tuple() == (1.0, 1.0, 1.0, 1.0)


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
    tree = parse_expr("sqrt(x)*exp(-x^2)+tanh(x)/x")
    xs = np.linspace(0.3, 2.5, 9)
    vec = eval_array(tree, xs)
    for x, v in zip(xs, vec):
        assert abs(eval_math(tree, float(x)) - v) <= 1e-15 * (1 + abs(v))
        assert evaluate(tree, float(x)) == v
