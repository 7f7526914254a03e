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

Numbers (``2``, ``.5``, ``1.e-3``) and names are ASCII.  Variables are
``x1..xn`` (position) and ``xi1..xin`` (momentum).  The functions are the
keys of :data:`FUNCTIONS`: sin, cos, exp, log, sqrt, arctan, tanh, abs and
the japanese bracket ``jap(t) = sqrt(1 + t^2)``.  Every malformed expression
raises :class:`ParseError`, with the offset of the first token that does not
fit.

Evaluation is vectorized over numpy arrays and total on the declared domain;
division by a value with modulus below 1e-300 raises EvalError.  Every AST
can be differentiated symbolically to any order with respect to any variable,
rewritten by substituting nodes for variables (:func:`substitute`), and
printed back to a string such that parse(print(parse(s))) is a fixed point.  Each function and each operator is one row of a table
(:data:`FUNCTIONS`, ``_OPS``) that holds its evaluation and its derivative
rule.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, replace

import numpy as np

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


@dataclass(frozen=True)
class BinOp(Node):
    op: str
    left: Node
    right: Node

    def __call__(self, env):
        return _OPS[self.op][1](self.left(env), self.right(env))

    def diff(self, var):
        f, g = self.left, self.right
        return _OPS[self.op][2](self, f, g, f.diff(var), g.diff(var))

    def to_string(self, parent_prec=0):
        p = _OPS[self.op][0]
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
        fn, domain, _ = FUNCTIONS[self.name]
        if domain and np.any(domain[1](np.real(t), 0)):
            raise EvalError(f"{self.name} of a {domain[0]} value")
        return fn(t)

    def diff(self, var):
        return _mul(FUNCTIONS[self.name][2](self.arg, self), self.arg.diff(var))

    def to_string(self, parent_prec=0):
        return f"{self.name}({self.arg.to_string(0)})"

    def variables(self):
        return self.arg.variables()


# name -> (numpy evaluation, (what it rejects, the test of the real part
# against 0) or None, derivative d f / d t of the call f = name(t))
FUNCTIONS = {
    "sin": (np.sin, None, lambda t, f: Func("cos", t)),
    "cos": (np.cos, None, lambda t, f: _neg(Func("sin", t))),
    "exp": (np.exp, None, lambda t, f: f),
    "log": (np.log, ("nonpositive", np.less_equal), lambda t, f: _div(Num(1.0), t)),
    "sqrt": (np.sqrt, ("negative", np.less), lambda t, f: _div(Num(0.5), f)),
    "arctan": (np.arctan, None, lambda t, f: _div(Num(1.0), _add(Num(1.0), _mul(t, t)))),
    "tanh": (np.tanh, None, lambda t, f: _sub(Num(1.0), _mul(f, f))),
    "abs": (np.abs, None, lambda t, f: _div(t, f)),  # sign(t); undefined at 0
    "jap": (lambda t: np.sqrt(1.0 + t * t), None, lambda t, f: _div(t, f)),
}


def _divide(a, b):
    if np.fmin.reduce(np.abs(b), axis=None, initial=np.inf) < 1e-300:
        raise EvalError("division by (near-)zero denominator")
    return a / b


def _power(a, b):
    """np.power(a, b), but sign(a)^b |a|^b for a real base and an integral
    scalar exponent, so that -a gives +-(a^b) to the bit."""
    if np.ndim(b) == 0 and np.isrealobj(b) and float(b).is_integer() and np.isrealobj(a):
        return np.power(np.sign(a), b) * np.power(np.abs(a), b)
    return np.power(a, b)


def _power_rule(h, f, g, df, dg):
    """d(f^g) for h = f^g: the cases f^const and const^g, else exp(g log f)."""
    if isinstance(g, Num):
        return _mul(_mul(g, _pow(f, Num(g.value - 1.0))), df)
    if not f.variables():
        return _mul(_mul(h, Func("log", f)), dg)
    return _mul(h, _add(_mul(dg, Func("log", f)), _div(_mul(g, df), f)))


# op -> (precedence, evaluation, derivative of h = f op g given df and dg);
# precedence levels: add=1, mul=2, unary minus=3, pow=4, atom=5
_OPS = {
    "+": (1, operator.add, lambda h, f, g, df, dg: _add(df, dg)),
    "-": (1, operator.sub, lambda h, f, g, df, dg: _sub(df, dg)),
    "*": (2, operator.mul, lambda h, f, g, df, dg: _add(_mul(df, g), _mul(f, dg))),
    "/": (2, _divide,
          lambda h, f, g, df, dg: _div(_sub(_mul(df, g), _mul(f, dg)), _mul(g, g))),
    "^": (4, _power, _power_rule),
}


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


# one token after optional whitespace, named by its kind; digits and letters
# are ASCII, and any other non-space character is ``bad``
_TOKEN = re.compile(r"""\s*(?:
    (?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^]) | (?P<lparen>\() | (?P<rparen>\)) | (?P<end>\Z) | (?P<bad>\S))""",
                    re.VERBOSE)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append(Token(kind, m[kind], m.start(kind)))
        if kind == "end":
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


def substitute(node: Node, values: dict) -> Node:
    """``node`` with each variable named in ``values`` replaced by the node
    it maps to; the rest of the tree is rebuilt as it is, unsimplified."""
    if isinstance(node, Var):
        return values.get(node.name, node)
    if isinstance(node, BinOp):
        return BinOp(node.op, substitute(node.left, values), substitute(node.right, values))
    if isinstance(node, (Neg, Func)):
        return replace(node, arg=substitute(node.arg, values))
    return node


def evaluate(node: Node, x=None, xi=None) -> np.ndarray:
    """Evaluate an AST with position x and momentum xi.

    Each is an array of shape (..., n), where x{j} binds to x[..., j-1], or
    a tuple of n arrays that broadcast together, where x{j} binds to x[j-1];
    xi{j} binds the same way.  A term then has the broadcast shape of the
    coordinates it reads, so a tuple of per-axis arrays evaluates a term that
    reads x1 only along the axes of x1.
    """
    env = {}
    for prefix, coords in (("x", x), ("xi", xi)):
        if coords is None:
            continue
        if not isinstance(coords, tuple):
            coords = np.asarray(coords)
            coords = tuple(coords[..., j] for j in range(coords.shape[-1]))
        for j, c in enumerate(coords):
            env[f"{prefix}{j + 1}"] = c
    return node(env)
