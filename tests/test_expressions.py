"""Expression parser: grammar, diagnostics, evaluation, differentiation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magweyl.expressions import ParseError, degree, evaluate, parse_expression


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


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-3, max_value=3, allow_nan=False),
       st.floats(min_value=-3, max_value=3, allow_nan=False))
def test_parse_print_parse_property(a, b):
    text = f"({a}) * sin(x1) + ({b}) / (2 + x1^2)"
    ast = parse_expression(text, n_dim=1)
    printed = ast.to_string()
    assert parse_expression(printed, n_dim=1).to_string() == printed
