"""Arithmetic expression parser and evaluator for symbols, fields, potentials.

Grammar (standard precedence, ``^`` right-associative and binding tighter
than unary minus, which binds tighter than ``* /``, which bind tighter than
``+ -``)::

    expr   :=  term (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  '-' unary | power
    power  :=  atom ('^' unary)?
    atom   :=  number | 'pi' | 'e' | variable | function '(' expr ')'
            |  '(' expr ')'

Variables are ``x1..xn`` (position) and ``xi1..xin`` (momentum).  Supported
functions: sin, cos, exp, log, sqrt, arctan, tanh, abs and the japanese
bracket ``jap(t) = sqrt(1 + t^2)``.

Evaluation is vectorized over numpy arrays and total on the declared domain;
division by a value with modulus below 1e-300 raises EvalError.  Every AST
can be differentiated symbolically to any order with respect to any variable,
and printed back to a string such that parse(print(parse(s))) is a fixed
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "arctan", "tanh", "abs", "jap")
CONSTANTS = {"pi": math.pi, "e": math.e}


class ParseError(ValueError):
    """Syntax error with the 1-based byte offset and the expected-token set;
    :func:`parse_expression` also sets ``text``, the expression parsed."""

    text: str | None = None

    def __init__(self, message: str, offset: int, expected=()):
        self.offset = offset + 1
        self.expected = tuple(expected)
        detail = f"{message} at offset {self.offset}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class EvalError(ValueError):
    """Evaluation failure (division by ~zero, log of a nonpositive value...)."""


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------


class Node:
    def __call__(self, env: dict) -> np.ndarray:
        raise NotImplementedError

    def diff(self, var: str) -> "Node":
        raise NotImplementedError

    def to_string(self, parent_prec: int = 0) -> str:
        raise NotImplementedError

    def variables(self) -> set:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_string()


@dataclass(frozen=True)
class Num(Node):
    value: float

    def __call__(self, env):
        return self.value

    def diff(self, var):
        return Num(0.0)

    def to_string(self, parent_prec=0):
        if self.value == int(self.value) and abs(self.value) < 1e16:
            s = str(int(self.value))
        else:
            s = repr(self.value)
        if self.value < 0 and parent_prec > 0:
            return f"({s})"
        return s

    def variables(self):
        return set()


@dataclass(frozen=True)
class Const(Node):
    name: str

    def __call__(self, env):
        return CONSTANTS[self.name]

    def diff(self, var):
        return Num(0.0)

    def to_string(self, parent_prec=0):
        return self.name

    def variables(self):
        return set()


@dataclass(frozen=True)
class Var(Node):
    name: str

    def __call__(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise EvalError(f"variable {self.name} not bound") from None

    def diff(self, var):
        return Num(1.0) if var == self.name else Num(0.0)

    def to_string(self, parent_prec=0):
        return self.name

    def variables(self):
        return {self.name}


# precedence levels: add=1, mul=2, unary minus=3, pow=4, atom=5
@dataclass(frozen=True)
class BinOp(Node):
    op: str
    left: Node
    right: Node

    _PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}

    def __call__(self, env):
        a = self.left(env)
        b = self.right(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            if np.any(np.abs(b) < 1e-300):
                raise EvalError("division by (near-)zero denominator")
            return a / b
        # power: use complex-safe rules only for integer exponents on negatives
        return np.power(a, b)

    def diff(self, var):
        f, g = self.left, self.right
        df, dg = f.diff(var), g.diff(var)
        if self.op == "+":
            return _add(df, dg)
        if self.op == "-":
            return _sub(df, dg)
        if self.op == "*":
            return _add(_mul(df, g), _mul(f, dg))
        if self.op == "/":
            return _div(_sub(_mul(df, g), _mul(f, dg)), _mul(g, g))
        # f^g: support the common cases f^const and const^g
        if isinstance(g, Num):
            # d f^c = c * f^(c-1) * df
            return _mul(_mul(g, _pow(f, Num(g.value - 1.0))), df)
        if not f.variables():
            # c^g: d = c^g * log(c) * dg
            return _mul(_mul(self, Func("log", f)), dg)
        # general case: f^g = exp(g log f)
        return _mul(self, _add(_mul(dg, Func("log", f)), _div(_mul(g, df), f)))

    def to_string(self, parent_prec=0):
        p = self._PREC[self.op]
        left_s = self.left.to_string(p)
        # left-assoc for +-*/: right operand needs strictly higher precedence;
        # right-assoc for ^: left operand needs strictly higher precedence.
        if self.op == "^":
            left_s = self.left.to_string(p + 1)
            right_s = self.right.to_string(p)
        else:
            right_s = self.right.to_string(p + 1)
        s = f"{left_s} {self.op} {right_s}" if self.op in "+-" else f"{left_s}{self.op}{right_s}"
        if p < parent_prec:
            return f"({s})"
        return s

    def variables(self):
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True)
class Neg(Node):
    arg: Node

    def __call__(self, env):
        return -self.arg(env)

    def diff(self, var):
        return _neg(self.arg.diff(var))

    def to_string(self, parent_prec=0):
        s = f"-{self.arg.to_string(3)}"
        if parent_prec > 2:
            return f"({s})"
        return s

    def variables(self):
        return self.arg.variables()


@dataclass(frozen=True)
class Func(Node):
    name: str
    arg: Node

    def __call__(self, env):
        t = self.arg(env)
        if self.name == "sin":
            return np.sin(t)
        if self.name == "cos":
            return np.cos(t)
        if self.name == "exp":
            return np.exp(t)
        if self.name == "log":
            if np.any(np.real(t) <= 0):
                raise EvalError("log of a nonpositive value")
            return np.log(t)
        if self.name == "sqrt":
            if np.any(np.real(t) < 0):
                raise EvalError("sqrt of a negative value")
            return np.sqrt(t)
        if self.name == "arctan":
            return np.arctan(t)
        if self.name == "tanh":
            return np.tanh(t)
        if self.name == "abs":
            return np.abs(t)
        if self.name == "jap":
            return np.sqrt(1.0 + t * t)
        raise EvalError(f"unknown function {self.name}")

    def diff(self, var):
        t = self.arg
        dt = t.diff(var)
        if self.name == "sin":
            d = Func("cos", t)
        elif self.name == "cos":
            d = _neg(Func("sin", t))
        elif self.name == "exp":
            d = self
        elif self.name == "log":
            d = _div(Num(1.0), t)
        elif self.name == "sqrt":
            d = _div(Num(0.5), self)
        elif self.name == "arctan":
            d = _div(Num(1.0), _add(Num(1.0), _mul(t, t)))
        elif self.name == "tanh":
            d = _sub(Num(1.0), _mul(self, self))
        elif self.name == "abs":
            d = _div(t, self)  # sign(t); undefined at 0
        elif self.name == "jap":
            d = _div(t, self)
        else:
            raise EvalError(f"unknown function {self.name}")
        return _mul(d, dt)

    def to_string(self, parent_prec=0):
        return f"{self.name}({self.arg.to_string(0)})"

    def variables(self):
        return self.arg.variables()


# ---------------------------------------------------------------------------
# simplifying constructors (constant folding + unit elimination)
# ---------------------------------------------------------------------------


def _is_num(node, value=None):
    return isinstance(node, Num) and (value is None or node.value == value)


def _add(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return BinOp("+", a, b)


def _sub(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return BinOp("*", a, b)


def _div(a, b):
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b) and b.value != 0:
        return Num(a.value / b.value)
    return BinOp("/", a, b)


def _pow(a, b):
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    if _is_num(a) and _is_num(b):
        return Num(a.value**b.value)
    return BinOp("^", a, b)


def _neg(a):
    if _is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # 'num', 'name', 'op', 'lparen', 'rparen', 'end'
    text: str
    offset: int


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_exp = False
            while j < n and (
                text[j].isdigit()
                or text[j] == "."
                or (text[j] in "eE" and j + 1 < n and (text[j + 1].isdigit() or text[j + 1] in "+-"))
                or (seen_exp and text[j] in "+-" and text[j - 1] in "eE")
            ):
                if text[j] in "eE":
                    seen_exp = True
                j += 1
            tokens.append(Token("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], i))
            i = j
            continue
        if c in "+-*/^":
            tokens.append(Token("op", c, i))
            i += 1
            continue
        if c == "(":
            tokens.append(Token("lparen", c, i))
            i += 1
            continue
        if c == ")":
            tokens.append(Token("rparen", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, n_dim: int | None = None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n_dim = n_dim

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.offset, [repr(want)])
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.offset, ["operator", "end of input"])
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "lparen":
            self.advance()
            node = self.expr()
            self.expect("rparen", ")")
            return node
        if tok.kind == "name":
            self.advance()
            name = tok.text
            if name in CONSTANTS:
                return Const(name)
            if name in FUNCTIONS:
                self.expect("lparen", "(")
                arg = self.expr()
                self.expect("rparen", ")")
                return Func(name, arg)
            if _valid_variable(name, self.n_dim):
                return Var(name)
            raise ParseError(
                f"unknown identifier {name!r}",
                tok.offset,
                ["x1..xn", "xi1..xin", "function name", "pi", "e"],
            )
        raise ParseError(
            f"unexpected {tok.text or 'end of input'!r}",
            tok.offset,
            ["number", "variable", "function", "'('"],
        )


def _valid_variable(name: str, n_dim: int | None) -> bool:
    for prefix in ("xi", "x"):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            idx = int(name[len(prefix):])
            if idx >= 1 and (n_dim is None or idx <= n_dim):
                return True
    return False


def parse_expression(text: str, n_dim: int | None = None) -> Node:
    """Parse an expression string into an AST.

    Raises ParseError (with byte offset and expected-token set) on failure.
    If ``n_dim`` is given, variable indices above it are rejected.
    """
    try:
        return _Parser(text, n_dim).parse()
    except ParseError as exc:
        exc.text = text
        raise


def degree(node: Node) -> int | None:
    """Total polynomial degree of an AST, or None if it is not a polynomial.

    Conservative: an AST whose value is a polynomial but whose form is not
    (``exp(0*x1)``, ``x1^(1+1)``) gets None.
    """
    if isinstance(node, (Num, Const)):
        return 0
    if isinstance(node, Var):
        return 1
    if isinstance(node, Neg):
        return degree(node.arg)
    if isinstance(node, Func):
        return 0 if degree(node.arg) == 0 else None
    a, b = degree(node.left), degree(node.right)
    if node.op in "+-":
        return None if a is None or b is None else max(a, b)
    if node.op == "*":
        return None if a is None or b is None else a + b
    if node.op == "/":
        return a if b == 0 else None
    # power
    k = float(node.right.value) if isinstance(node.right, Num) else -1.0
    if a is not None and k >= 0 and k.is_integer():
        return a * int(k)
    return 0 if a == 0 and b == 0 else None


def evaluate(node: Node, x=None, xi=None) -> np.ndarray:
    """Evaluate an AST with position array x and momentum array xi.

    Both arrays have shape (..., n); variable x{j} binds to x[..., j-1] and
    xi{j} to xi[..., j-1].
    """
    env = {}
    if x is not None:
        x = np.asarray(x)
        for j in range(x.shape[-1]):
            env[f"x{j + 1}"] = x[..., j]
    if xi is not None:
        xi = np.asarray(xi)
        for j in range(xi.shape[-1]):
            env[f"xi{j + 1}"] = xi[..., j]
    return node(env)
