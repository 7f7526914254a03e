"""Expression parser: grammar, diagnostics, evaluation, differentiation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magweyl.expressions import (FUNCTIONS, EvalError, Node, ParseError, degree, evaluate,
                                 parse_expression)


def ev(text, n=1, **bindings):
    ast = parse_expression(text, n_dim=n)
    x = np.array([bindings.get(f"x{j+1}", 0.0) for j in range(n)])
    xi = np.array([bindings.get(f"xi{j+1}", 0.0) for j in range(n)])
    return complex(evaluate(ast, x=x, xi=xi))


def test_basic_evaluation():
    assert ev("xi1^2 + arctan(x1)", x1=1.0, xi1=1.0) == pytest.approx(1.0 + np.arctan(1.0))
    assert ev("1/(1+x1^2)", x1=0.0) == pytest.approx(1.0)
    assert ev("2+3*4") == pytest.approx(14.0)
    assert ev("pi") == pytest.approx(np.pi)
    assert ev("e") == pytest.approx(np.e)
    assert ev("jap(2)") == pytest.approx(np.sqrt(5.0))


def test_precedence_and_associativity():
    # ^ is right-associative and binds above unary minus
    assert ev("2^3^2") == pytest.approx(512.0)
    assert ev("-2^2") == pytest.approx(-4.0)
    assert ev("2-3-4") == pytest.approx(-5.0)
    assert ev("8/4/2") == pytest.approx(1.0)
    assert ev("1+2*3^2") == pytest.approx(19.0)


def test_parse_error_diagnostics():
    with pytest.raises(ParseError) as info:
        parse_expression("sin(x1", n_dim=1)
    assert info.value.offset == 7
    assert ")" in str(info.value.expected) or ")" in info.value.expected

    with pytest.raises(ParseError):
        parse_expression("bogus(x1)", n_dim=1)
    with pytest.raises(ParseError):
        parse_expression("x3", n_dim=2)  # out-of-range variable
    with pytest.raises(ParseError):
        parse_expression("1 + ", n_dim=1)


def test_division_guard():
    ast = parse_expression("1/x1", n_dim=1)
    with pytest.raises(ValueError):
        evaluate(ast, x=np.array([0.0]), xi=np.array([0.0]))


def test_round_trip_fixed_point():
    texts = ["xi1^2 + arctan(x1)", "1/(1+x1^2)", "-x1*sin(xi1) + 2^x1^2",
             "jap(xi1)*(1-exp(-x1^2))", "pi*e - abs(x1)"]
    for text in texts:
        ast = parse_expression(text, n_dim=1)
        printed = ast.to_string()
        reparsed = parse_expression(printed, n_dim=1)
        assert reparsed.to_string() == printed
        x = np.array([0.37])
        xi = np.array([-1.21])
        np.testing.assert_allclose(evaluate(ast, x=x, xi=xi),
                                   evaluate(reparsed, x=x, xi=xi), rtol=1e-14)


def test_variables():
    ast = parse_expression("x1*xi2 + sin(x2)", n_dim=2)
    assert ast.variables() == {"x1", "x2", "xi2"}


def test_diff_against_finite_differences():
    texts = ["sin(x1)*x1^2", "jap(x1)", "arctan(x1)/(2+cos(x1))",
             "exp(-x1^2)*tanh(x1)", "log(2+x1^2)", "sqrt(1+x1^2)"]
    h = 1e-6
    for text in texts:
        ast = parse_expression(text, n_dim=1)
        d = ast.diff("x1")
        for x0 in (-1.3, 0.2, 2.7):
            xp = np.array([x0 + h])
            xm = np.array([x0 - h])
            fd = (evaluate(ast, x=xp, xi=xp) - evaluate(ast, x=xm, xi=xm)) / (2 * h)
            an = evaluate(d, x=np.array([x0]), xi=np.array([x0]))
            np.testing.assert_allclose(an, fd, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("text, expect", [
    ("-1.03*x2/2", 1),
    ("x1*x2^3", 4),
    ("3", 0),
    ("pi - 2*e", 0),
    ("-(x1 + xi2)^2", 2),
    ("x1^2 - x2^3 + 1", 3),
    ("(1 + x1)^0", 0),
    ("2^3 * x1", 1),
    ("sin(2)*x1", 1),
    ("exp(x1)", None),
    ("1/(1+x1^2)", None),
    ("x1^-1", None),
    ("2^x1", None),
    ("x1^2.5", None),
    ("x1*arctan(x2)", None),
])
def test_polynomial_degree(text, expect):
    assert degree(parse_expression(text, n_dim=2)) == expect


def test_vectorized_evaluation_broadcasts():
    ast = parse_expression("x1 + xi1^2", n_dim=1)
    x = np.zeros((5, 1))
    xi = np.linspace(-1, 1, 5)[:, None]
    out = evaluate(ast, x=x, xi=xi)
    np.testing.assert_allclose(out, xi[:, 0] ** 2, atol=1e-15)


_DIVISORS = {
    "scalar": 3.0,
    "scalar-zero": 0.0,
    "0-d": np.array(1e-301),
    "empty": np.array([]),
    "nan-only": np.array([np.nan, np.nan]),
    "nan-next-to-0": np.array([np.nan, 0.0, 2.0]),
    "negative-zero": np.array([1.0, -0.0]),
    "complex": np.array([1.0 + 1.0j, 1e-301j]),
    "complex-nonzero": np.array([1.0 + 1.0j, -2.0j]),
    "broadcast-view": np.broadcast_to(np.array([[1.0], [0.0]]), (2, 5)),
    "broadcast-view-nonzero": np.broadcast_to(np.array([0.5, -4.0]), (3, 2)),
}


@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("name", sorted(_DIVISORS))
def test_the_divisor_check_decides_as_the_elementwise_test(name):
    b = _DIVISORS[name]
    # the elementwise test the reduction replaced: any |b| below 1e-300
    near_zero = bool(np.any(np.abs(b) < 1e-300))
    assert (np.fmin.reduce(np.abs(b), axis=None, initial=np.inf) < 1e-300) == near_zero
    ast = parse_expression("1/x1", n_dim=1)
    if near_zero:
        with pytest.raises(EvalError):
            evaluate(ast, x=(b,))
    else:
        assert np.array_equal(evaluate(ast, x=(b,)), 1.0 / b, equal_nan=True)


def test_a_coordinate_tuple_evaluates_each_term_along_the_axes_it_reads():
    ast = parse_expression("1 + 0.5/(1+x1^2)", n_dim=2)
    x1 = np.linspace(-2.0, 2.0, 5)[:, None]
    x2 = np.linspace(-1.0, 1.0, 3)[None, :]
    values = evaluate(ast, x=(x1, x2))
    assert values.shape == (5, 1)
    stacked = np.stack(np.broadcast_arrays(x1, x2), axis=-1)
    assert np.array_equal(np.broadcast_to(values, (5, 3)), evaluate(ast, x=stacked))
    both = parse_expression("x1*x2 + xi2", n_dim=2)
    assert np.array_equal(evaluate(both, x=(x1, x2), xi=(0.0, 1.0)),
                          evaluate(both, x=stacked, xi=np.array([0.0, 1.0])))


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-3, max_value=3, allow_nan=False),
       st.floats(min_value=-3, max_value=3, allow_nan=False))
def test_parse_print_parse_property(a, b):
    text = f"({a}) * sin(x1) + ({b}) / (2 + x1^2)"
    ast = parse_expression(text, n_dim=1)
    printed = ast.to_string()
    assert parse_expression(printed, n_dim=1).to_string() == printed


# the numpy call each function has always evaluated by
_NUMPY_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
                "arctan": np.arctan, "tanh": np.tanh, "abs": np.abs,
                "jap": lambda t: np.sqrt(1.0 + t * t)}


@pytest.mark.parametrize("name", sorted(_NUMPY_CALLS))
def test_each_function_evaluates_by_its_numpy_call_bit_for_bit(name):
    assert set(FUNCTIONS) == set(_NUMPY_CALLS)
    t = np.linspace(0.05, 3.0, 37) if name in ("log", "sqrt") else np.linspace(-3.0, 3.0, 37)
    for arg in (t, t * (1 + 0.5j), 0.7):
        value = evaluate(parse_expression(f"{name}(x1)", n_dim=1), x=(arg,))
        assert np.array_equal(value, _NUMPY_CALLS[name](arg))


def test_an_integral_power_of_a_reflected_base_is_reflected_to_the_bit():
    from magweyl.grid import make_grid
    from magweyl.magnetics import VectorPotential
    from magweyl.quantize import Gauge, quantize
    from magweyl.symbols import Symbol
    g = make_grid(1, 20.0, 64)
    f = Symbol.from_expression("xi1^4 + 1", 1, m=4, real=True)
    xi = g.xi_mesh()
    F = f(np.zeros_like(xi), xi)
    # node k against its reflection (-k) mod N; np.power alone rounds 9.6^4
    # and (-9.6)^4 apart here
    assert np.array_equal(F, F[-np.arange(g.N) % g.N])
    assert quantize(f, Gauge(VectorPotential.zero(1), g)).matrix.dtype == float

    u = np.linspace(0.1, 3.1, 31)
    t = np.concatenate([-u[::-1], u])  # t[::-1] == -t exactly
    for b in (2, 3, 4, -3):
        value = evaluate(parse_expression(f"x1^{b}" if b > 0 else f"x1^({b})", n_dim=1), x=(t,))
        assert np.array_equal(value, (-1.0) ** b * value[::-1])
        # a nonnegative base keeps np.power's bits
        assert np.array_equal(value[t >= 0], np.power(t[t >= 0], float(b)))
    # a non-integral exponent, and a complex base, are np.power itself
    for text, arg, ref in (("x1^2.5", u, np.power(u, 2.5)),
                           ("x1^3", t * (1 + 0.5j), np.power(t * (1 + 0.5j), 3.0)),
                           ("x1^4", t * (1 + 0.5j), np.power(t * (1 + 0.5j), 4.0))):
        assert np.array_equal(evaluate(parse_expression(text, n_dim=1), x=(arg,)), ref)


@pytest.mark.parametrize("text, bad, message", [
    ("log(x1)", [1.0, 0.0], "log of a nonpositive value"),
    ("log(x1)", [-2.0], "log of a nonpositive value"),
    ("sqrt(x1)", [4.0, -1e-300], "sqrt of a negative value"),
])
def test_log_and_sqrt_raise_eval_error_off_their_domain(text, bad, message):
    with pytest.raises(EvalError, match=message):
        evaluate(parse_expression(text, n_dim=1), x=(np.array(bad),))
    assert evaluate(parse_expression("sqrt(x1)", n_dim=1), x=(np.array([0.0]),))[0] == 0.0


@pytest.mark.parametrize("name, text", [
    ("sin", "cos(x1^2)*(2*x1)"),
    ("cos", "-sin(x1^2)*(2*x1)"),
    ("exp", "exp(x1^2)*(2*x1)"),
    ("log", "1/x1^2*(2*x1)"),
    ("sqrt", "0.5/sqrt(x1^2)*(2*x1)"),
    ("arctan", "1/(1 + x1^2*x1^2)*(2*x1)"),
    ("tanh", "(1 - tanh(x1^2)*tanh(x1^2))*(2*x1)"),
    ("abs", "x1^2/abs(x1^2)*(2*x1)"),
    ("jap", "x1^2/jap(x1^2)*(2*x1)"),
])
def test_each_derivative_rule_prints_the_chain_rule_term(name, text):
    assert str(parse_expression(f"{name}(x1^2)", 1).diff("x1")) == text


@pytest.mark.parametrize("text, offset", [
    ("1.2.3", 4), ("1..5", 3), ("1e+", 2), ("2e3e4", 4), ("x1²", 3), ("٣ + x1", 1),
    ("xi1^2 + 1.2.3", 12),
])
def test_a_malformed_number_or_a_non_ascii_character_is_a_parse_error(text, offset):
    with pytest.raises(ParseError) as info:
        parse_expression(text, n_dim=1)
    assert info.value.offset == offset
    assert info.value.text == text


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789.eE+-*/^()xiabcjnopqrst²٣ \t", max_size=16))
def test_any_text_parses_to_a_node_or_raises_parse_error(text):
    try:
        node = parse_expression(text, n_dim=2)
    except ParseError:
        return
    assert isinstance(node, Node)
