"""The sigma expression language: its parser and its evaluator.

An ``expr:`` spec is arithmetic in the index ``i`` and the dimension ``n``.
`_ExprParser` turns its text into a tree of tuples, and `_eval_node`
evaluates the tree in any arithmetic that supplies exp, log and power: on
`_Floats`, the C library's math mapped over many points, for sigma at n
points and the quadrature's float midpoint check, and on one mpf for a
quadrature node.  `sigma_model` imports this module only where it parses or
evaluates an expression, so parsing a constant or ``file:`` sigma and
taking its values never compile it; `quadrature` imports it for its nodes.
"""

from __future__ import annotations

import math
import operator
from itertools import repeat
from types import SimpleNamespace

from .sigma_model import SpecSyntaxError

# ---------------------------------------------------------------------------
# expression AST
#
# Grammar:
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := atom ('^' atom)?
#   atom   := number | 'i' | 'n' | 'exp(' expr ')' | 'log(' expr ')'
#           | '(' expr ')' | '-' atom
# ---------------------------------------------------------------------------

Node = tuple
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class _ExprParser:
    """Recursive-descent parser.  ``offset`` shifts reported columns so errors
    point into the full spec string (including the ``expr:`` prefix)."""

    def __init__(self, source: str, offset: int):
        self.src = source
        self.pos = 0
        self.offset = offset

    def fail(self, message: str) -> "SpecSyntaxError":
        return SpecSyntaxError(message, self.offset + self.pos + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, ch: str, what: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise self.fail(what)
        self.pos += 1

    def parse(self) -> Node:
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            raise self.fail(f"unexpected character {self.src[self.pos]!r}")
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            self.skip_ws()
            op = self.peek()
            if op not in ("+", "-"):
                return node
            self.pos += 1
            node = (op, node, self.term())

    def term(self) -> Node:
        node = self.factor()
        while True:
            self.skip_ws()
            op = self.peek()
            if op not in ("*", "/"):
                return node
            self.pos += 1
            node = (op, node, self.factor())

    def factor(self) -> Node:
        node = self.atom()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            node = ("^", node, self.atom())
        return node

    def atom(self) -> Node:
        self.skip_ws()
        ch = self.peek()
        if ch == "":
            raise self.fail("unexpected end of expression")
        if ch == "-":
            self.pos += 1
            return ("neg", self.atom())
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")", "unbalanced parenthesis")
            return node
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha():
            return self.name()
        raise self.fail(f"unexpected character {ch!r}")

    def number(self) -> Node:
        start = self.pos
        src = self.src
        while self.pos < len(src) and (src[self.pos].isdigit() or src[self.pos] == "."):
            self.pos += 1
        if self.pos < len(src) and src[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(src) and src[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(src) and src[self.pos].isdigit():
                while self.pos < len(src) and src[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # 'e' belonged to something else; not a valid exponent
        text = src[start:self.pos]
        try:
            return ("num", float(text))
        except ValueError:
            self.pos = start
            raise self.fail(f"invalid number {text!r}") from None

    def name(self) -> Node:
        start = self.pos
        src = self.src
        while self.pos < len(src) and src[self.pos].isalpha():
            self.pos += 1
        word = src[start:self.pos]
        if word == "i":
            return ("i",)
        if word == "n":
            return ("n",)
        if word in ("exp", "log"):
            self.expect("(", f"expected '(' after {word}")
            node = self.expr()
            self.expect(")", "unbalanced parenthesis")
            return (word, node)
        self.pos = start
        raise self.fail(f"unknown identifier {word!r}")


def _odd(b: float) -> bool:
    return b.is_integer() and b % 2 == 1


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log(x: float) -> float:
    if x > 0:
        return math.log(x)
    return -math.inf if x == 0 else math.nan


def _power(a: float, b: float) -> float:
    try:
        return math.pow(a, b)
    except ValueError:  # a negative base to a fraction, or 0 to a power < 0
        if a != 0:
            return math.nan
        return math.copysign(math.inf, a) if _odd(b) else math.inf
    except OverflowError:
        return math.copysign(math.inf, a) if _odd(b) else math.inf


def _divide(a: float, b: float) -> float:
    try:
        return a / b
    except ZeroDivisionError:
        if a == 0 or a != a:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _elementwise(fast, careful):
    """``fast`` over the elements of its `_Floats` arguments (a float
    argument is every element's), or ``careful`` where ``fast`` raises."""
    def apply(*args):
        if not any(isinstance(a, _Floats) for a in args):
            return careful(*args)
        try:
            return _Floats(map(fast, *(a if isinstance(a, _Floats) else repeat(a) for a in args)))
        except (ArithmeticError, ValueError):
            return _Floats(map(careful, *(a if isinstance(a, _Floats) else repeat(a)
                                          for a in args)))
    return apply


class _Floats(tuple):
    """Floats with numpy's elementwise arithmetic: each operation maps over
    all of them in C, some twenty times faster than `_eval_node` called
    point by point.  Where math raises or Python leaves the reals the
    values are numpy's: NaN off the reals and for 0/0, a signed inf on
    overflow or division by zero, and -inf for log(0)."""

    __slots__ = ()
    __add__ = __radd__ = _elementwise(operator.add, operator.add)
    __mul__ = __rmul__ = _elementwise(operator.mul, operator.mul)
    __sub__ = _sub = _elementwise(operator.sub, operator.sub)
    __truediv__ = _div = _elementwise(operator.truediv, _divide)

    def __rsub__(self, a):
        return _Floats._sub(a, self)

    def __rtruediv__(self, a):
        return _Floats._div(a, self)

    def __neg__(self):
        return _Floats(map(operator.neg, self))


# the `_eval_node` namespace of `_Floats`
_FLOAT = SimpleNamespace(exp=_elementwise(math.exp, _exp), log=_elementwise(math.log, _log),
                         power=_elementwise(math.pow, _power))


def _eval_node(node: Node, i, n, ns):
    """Evaluate a parsed expression at index i and dimension n.  ``ns``
    supplies exp, log and power: `_FLOAT` for `_Floats`, mpmath's ``mp`` for
    one mpf point (numpy, on arrays, serves as well)."""
    op = node[0]
    if op == "num":
        return node[1]
    if op == "i":
        return i
    if op == "n":
        return n
    if op == "neg":
        return -_eval_node(node[1], i, n, ns)
    if op in ("exp", "log"):
        return getattr(ns, op)(_eval_node(node[1], i, n, ns))
    a = _eval_node(node[1], i, n, ns)
    b = _eval_node(node[2], i, n, ns)
    if op == "^":
        return ns.power(a, b)
    return _BINARY[op](a, b)
