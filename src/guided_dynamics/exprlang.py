"""Scalar expression language: parsing, evaluation, symbolic differentiation.

Grammar (EBNF), with ``t`` the default variable name:

    expr   := term (("+"|"-") term)* ;
    term   := factor (("*"|"/") factor)* ;
    factor := ("-" factor) | power ;
    power  := atom ("^" factor)? ;
    atom   := NUMBER | "pi" | "e" | IDENT "(" expr ")" | IDENT | "(" expr ")" ;

Precedence is ^ above unary minus above * / above + -, with ^
right-associative. A source may nest at most MAX_DEPTH levels (each
operator, function call and pair of parentheses is one level); `parse`
refuses deeper ones with ExprSyntaxError. The parser runs on an explicit
stack, and printing, compiling, differentiating, comparing, hashing and
pickling walk trees on one, so every accepted tree goes through each of
them and differentiates twice.

Trees are immutable; evaluation is pure and accepts floats or numpy
arrays, through one numpy function generated from the tree on its first
evaluation: one statement per distinct subexpression (equal subtrees are
computed once), each temporary released after its last use, so an
evaluation holds a few arrays at a time rather than one per node. A float
x runs it as the array [x], so a float and a one-element array give the
same value or the same error (overflow to +-inf included). ``sign`` is accepted
as a function so that printed derivatives of ``abs`` re-parse; sign(0)
evaluates to 0 by convention.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExprSyntaxError

__all__ = [
    "Expression", "Num", "Var", "Const", "Neg", "Add", "Sub", "Mul", "Div",
    "Pow", "Call", "FUNCTIONS", "parse", "to_source", "differentiate",
    "as_callable",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs", "tanh", "sign")

_CONSTANTS = {"pi": math.pi, "e": math.e}


class Expression:
    """Base class for AST nodes. Subclasses are frozen dataclasses."""

    precedence = 5  # atoms; overridden by operator nodes
    _compiled = None  # set on the instance by the first eval

    def __call__(self, x):
        return self.eval(x)

    def eval(self, x):
        """Evaluate at a float (returns a float) or at an array (returns a
        new float array of the same shape), with numpy semantics in both
        cases. The tree is compiled into one numpy function on the first
        call and the function is kept."""
        fn = self._compiled
        if fn is None:
            fn = _compile(self)
            object.__setattr__(self, "_compiled", fn)
        return fn(x)

    def __str__(self):
        return to_source(self)

    def __repr__(self):
        # the constructor call, e.g. Call('sin', Var('t')), at any depth
        return _fold(self, lambda node, *kids: "{}({})".format(
            node.__class__.__name__,
            ", ".join([*map(repr, _own(node)), *kids])), {})

    # Equality, hashing and pickling (copying too) walk the tree on an
    # explicit stack, as printing, repr and compiling do: the dataclass
    # versions recursed, and failed on trees a few hundred levels deep.
    def __eq__(self, other):
        if not isinstance(other, Expression):
            return NotImplemented
        # a pair of shared subtrees is compared once
        pairs, seen = [(self, other)], set()
        while pairs:
            a, b = pairs.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            if a.__class__ is not b.__class__ or _own(a) != _own(b):
                return False
            seen.add((id(a), id(b)))
            pairs.extend(zip(_children(a), _children(b)))
        return True

    def __hash__(self):
        return _fold(self, lambda node, *kids: hash(
            (node.__class__, _own(node), kids)), {})

    def __reduce__(self):
        # a flat post-order table of (class, own values, child rows); the
        # compiled function is rebuilt on demand, never pickled
        table = []

        def row(node, *kids):
            table.append((node.__class__, _own(node), kids))
            return len(table) - 1
        _fold(self, row, {})
        return _from_table, (tuple(table),)

    # Symbolic construction sugar: bvp builds omega = n*alpha1 - m*alpha2.
    def __add__(self, other):
        return Add(self, _coerce(other))

    def __radd__(self, other):
        return Add(_coerce(other), self)

    def __sub__(self, other):
        return Sub(self, _coerce(other))

    def __rsub__(self, other):
        return Sub(_coerce(other), self)

    def __mul__(self, other):
        return Mul(self, _coerce(other))

    def __rmul__(self, other):
        return Mul(_coerce(other), self)

    def __truediv__(self, other):
        return Div(self, _coerce(other))

    def __rtruediv__(self, other):
        return Div(_coerce(other), self)

    def __pow__(self, other):
        return Pow(self, _coerce(other))

    def __neg__(self):
        return Neg(self)


def _coerce(value):
    if isinstance(value, Expression):
        return value
    return Num(float(value))


@dataclass(frozen=True, repr=False, eq=False)
class Num(Expression):
    value: float

    @property
    def precedence(self):
        return 5 if self.value >= 0 else 3


@dataclass(frozen=True, repr=False, eq=False)
class Var(Expression):
    name: str = "t"


@dataclass(frozen=True, repr=False, eq=False)
class Const(Expression):
    name: str


@dataclass(frozen=True, repr=False, eq=False)
class Neg(Expression):
    arg: Expression
    precedence = 3


class _BinOp(Expression):
    op = "?"


@dataclass(frozen=True, repr=False, eq=False)
class Add(_BinOp):
    lhs: Expression
    rhs: Expression
    precedence = 1
    op = "+"


@dataclass(frozen=True, repr=False, eq=False)
class Sub(_BinOp):
    lhs: Expression
    rhs: Expression
    precedence = 1
    op = "-"


@dataclass(frozen=True, repr=False, eq=False)
class Mul(_BinOp):
    lhs: Expression
    rhs: Expression
    precedence = 2
    op = "*"


@dataclass(frozen=True, repr=False, eq=False)
class Div(_BinOp):
    lhs: Expression
    rhs: Expression
    precedence = 2
    op = "/"


@dataclass(frozen=True, repr=False, eq=False)
class Pow(_BinOp):
    lhs: Expression
    rhs: Expression
    precedence = 4
    op = "^"


@dataclass(frozen=True, repr=False, eq=False)
class Call(Expression):
    func: str
    arg: Expression


# --------------------------------------------------------------------------
# Tokenizer / parser
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)


def _tokenize(source):
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == m.start():
            # skip over whitespace-only tail
            rest = source[pos:]
            if rest.strip() == "":
                break
            offset = pos + len(rest) - len(rest.lstrip())
            raise ExprSyntaxError(
                f"unexpected character {source[offset]!r}", offset,
                expected=("NUMBER", "IDENT", "operator"))
        kind = m.lastgroup
        text = m.group(kind)
        tokens.append((kind, text, m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", n))
    return tokens


# Sources nested deeper than this many levels are refused by `parse`. No
# walk in this module is bounded by the interpreter's stack, so this is a
# limit on input: it admits sums of a few hundred terms.
MAX_DEPTH = 350


# binary operator -> (precedence, node class); unary minus binds tighter
# than * and / and looser than ^, which is right-associative
_BINARY = {"+": (1, Add), "-": (1, Sub), "*": (2, Mul), "/": (2, Div),
           "^": (4, Pow)}
_NEG = 3


class _Parser:
    """Operator-precedence parser for the grammar above, on two explicit
    stacks (no recursion, so no nesting reaches the interpreter's stack).

    ``operands`` holds ``(node, depth)``: the source's nesting depth, where
    each operator, function call and pair of parentheses is one level
    above what it holds. ``pending`` holds ``(precedence, operator,
    offset)``; an open parenthesis or function call has precedence 0 and
    its function name (or "(") as operator.
    """

    def __init__(self, tokens, var):
        self.tokens = tokens
        self.var = var
        self.i = 0
        self.operands = []
        self.pending = []

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected):
        kind, text, offset = self.peek()
        got = text if text else "end of input"
        raise ExprSyntaxError(f"unexpected {got!r}", offset, expected=expected)

    def level(self, offset, *depths):
        """The depth one level above ``depths``, refused past MAX_DEPTH."""
        depth = 1 + max(depths)
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels", offset)
        return depth

    def reduce(self, bound):
        """Apply the pending operators of precedence ``bound`` or more."""
        operands, pending = self.operands, self.pending
        while pending and pending[-1][0] >= bound:
            prec, op, offset = pending.pop()
            node, depth = operands.pop()
            if prec == _NEG:
                # fold a negated literal so printed negative constants
                # round-trip to the same tree
                node = Num(-node.value) if isinstance(node, Num) else \
                    Neg(node)
            else:
                lhs, ldepth = operands.pop()
                node = _BINARY[op][1](lhs, node)
                depth = max(depth, ldepth)
            operands.append((node, self.level(offset, depth)))

    def operand(self):
        """Read prefix minuses and opening parentheses or calls up to an
        atom, and push the atom."""
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "-(":
                self.advance()
                self.pending.append((_NEG, "-", offset) if text == "-" else
                                    (0, "(", offset))
                continue
            if kind == "number":
                self.advance()
                self.operands.append((Num(float(text)), 1))
                return
            if kind != "ident":
                self.fail(("NUMBER", "IDENT", "(", "-"))
            self.advance()
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise ExprSyntaxError(
                        f"unknown function {text!r}", offset,
                        expected=FUNCTIONS)
                self.advance()
                self.pending.append((0, text, offset))
                continue
            if text == self.var:
                node = Var(text)
            elif text in _CONSTANTS:
                node = Const(text)
            else:
                raise ExprSyntaxError(
                    f"unknown identifier {text!r}", offset,
                    expected=(self.var, "pi", "e") + FUNCTIONS)
            self.operands.append((node, 1))
            return

    def parse(self):
        while True:
            self.operand()
            while True:
                kind, text, offset = self.peek()
                if kind == "op" and text in _BINARY:
                    prec = _BINARY[text][0]
                    # ^ is right-associative: an equal one stays pending
                    self.reduce(prec + 1 if text == "^" else prec)
                    self.advance()
                    self.pending.append((prec, text, offset))
                    break
                self.reduce(1)
                if not self.pending:
                    if kind != "eof":
                        self.fail(("operator", "end of input"))
                    return self.operands[0][0]
                if not (kind == "op" and text == ")"):
                    self.fail((")",))
                self.advance()
                _, opener, opened = self.pending.pop()
                node, depth = self.operands.pop()
                if opener != "(":
                    node = Call(opener, node)
                self.operands.append((node, self.level(opened, depth)))


def parse(source: str, var: str = "t") -> Expression:
    """Parse ``source`` into an expression tree over the variable ``var``.
    A source nested deeper than MAX_DEPTH levels is an ExprSyntaxError."""
    return _Parser(_tokenize(source), var).parse()


# --------------------------------------------------------------------------
# Tree walks shared by printing, compiling, ==, hashing and pickling
# --------------------------------------------------------------------------

def _children(node):
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    if isinstance(node, _BinOp):
        return (node.lhs, node.rhs)
    return ()


def _own(node):
    """The node's fields other than its children, in field order (they
    come first)."""
    if isinstance(node, Num):
        return (node.value,)
    if isinstance(node, (Var, Const)):
        return (node.name,)
    if isinstance(node, Call):
        return (node.func,)
    return ()


def _from_table(table):
    """The tree that `Expression.__reduce__` flattened into ``table``."""
    built = []
    for cls, own, kids in table:
        built.append(cls(*own, *(built[k] for k in kids)))
    return built[-1]


def _fold(root, visit, memo=None):
    """Post-order walk returning ``visit(node, *child_results)``, children
    left to right, on an explicit stack (any depth). With a ``memo`` dict,
    a subtree shared by identity is visited once."""
    results = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.__class__ is tuple:
            # (node, k): the results of its k children are on top
            node, k = node
            args = results[-k:]
            del results[-k:]
            out = visit(node, *args)
        elif memo is not None and id(node) in memo:
            results.append(memo[id(node)])
            continue
        else:
            children = _children(node)
            if children:
                stack.append((node, len(children)))
                stack.extend(reversed(children))
                continue
            out = visit(node)
        if memo is not None:
            memo[id(node)] = out
        results.append(out)
    return results[0]


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------

def _render(node, *parts):
    if isinstance(node, Num):
        return repr(float(node.value))
    if isinstance(node, (Var, Const)):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({parts[0]})"
    if isinstance(node, Neg):
        inner = parts[0]
        if node.arg.precedence < Neg.precedence:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, _BinOp):
        lp, rp = node.lhs.precedence, node.rhs.precedence
        if isinstance(node, Pow):
            # right-associative
            left_needs = lp <= node.precedence
            right_needs = rp < node.precedence
        else:
            left_needs = lp < node.precedence
            right_needs = rp <= node.precedence
        left, right = parts
        if left_needs:
            left = f"({left})"
        if right_needs:
            right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an expression node: {node!r}")


def to_source(node: Expression) -> str:
    """Render a tree as parseable source. Parenthesization is conservative
    enough that parse(to_source(e)) rebuilds exactly the same tree."""
    return _fold(node, _render)


# --------------------------------------------------------------------------
# Compilation
# --------------------------------------------------------------------------

# t^k with integral 0 <= k <= this exponent is evaluated as products
MAX_PRODUCT_POWER = 8

# func -> (comparison with 0.0 that is out of domain, message)
_CALL_GUARDS = {"log": ("<=", "log of a non-positive number"),
                "sqrt": ("<", "sqrt of a negative number")}


def _pow_error(node, base, expo, x):
    """DomainError of ``base ** expo`` at ``node``; zero to a negative
    power takes precedence over a negative base."""
    zero_neg = np.any((np.asarray(base) == 0.0) & (np.asarray(expo) < 0.0))
    return DomainError("zero raised to a negative power" if zero_neg else
                       "negative base with non-integer exponent",
                       subexpression=node, x=x)


def _fresh(value, x):
    """``value`` as a new float array shaped like the array input ``x``."""
    if type(value) is np.ndarray and value is not x and \
            value.shape == x.shape:
        return value
    return np.full(x.shape, value, dtype=float)


# the local names of the compiled body's values
_VALUE_NAME = re.compile(r"\bv\d+\b")


class _Emitter:
    """Tree-walk visitor writing one straight-line statement per distinct
    subexpression.

    Visiting returns ``(operand, varies)``: the operand is a literal or a
    local name, ``varies`` says whether it depends on the variable. A
    varying operand is a numpy array or numpy scalar computed from ``xa``;
    everything else is a Python float. Guarded nodes emit one check raising
    the node's DomainError, reduced with ``.any()`` when the operand varies.
    A statement or check whose text was already emitted is not repeated:
    its operands are the same immutable values, so it would compute the
    same bits (or pass again).
    """

    def __init__(self, env):
        self.env = env
        self.lines = []
        self.names = {}  # statement text -> the name it was bound to
        self.tested = set()
        self.uses_var = False

    def bind(self, value):
        name = f"k{len(self.env)}"
        self.env[name] = value
        return name

    def let(self, text, varies):
        name = self.names.get(text)
        if name is None:
            name = self.names[text] = f"v{len(self.names)}"
            self.lines.append(f"{name} = {text}")
        return name, varies

    def guard(self, varies, cond, error, *args):
        """Raise ``error(*args)`` (source text) when ``cond`` holds
        anywhere."""
        test = f"({cond}).any()" if varies else cond
        if test not in self.tested:
            self.tested.add(test)
            self.lines.append(f"if {test}: raise {error(*args)}")

    def freed(self, keep):
        """The lines with a ``del`` of each value name after the last line
        that reads it (guards included); ``keep`` is never freed."""
        last = {}
        for i, line in enumerate(self.lines):
            for name in _VALUE_NAME.findall(line):
                last[name] = i
        last.pop(keep, None)
        frees = {}
        for name, i in last.items():
            frees.setdefault(i, []).append(name)
        lines = []
        for i, line in enumerate(self.lines):
            lines.append(line)
            if i in frees:
                lines.append("del " + ", ".join(frees[i]))
        return lines

    def domain_error(self, message, node):
        return (f"DomainError({message!r}, subexpression={self.bind(node)}, "
                f"x=x)")

    def pow_error(self, node, a, b):
        return f"pow_error({self.bind(node)}, {a}, {b}, x)"

    def const(self, value):
        value = float(value)
        if not math.isfinite(value):
            return self.bind(value), False
        text = repr(value)
        return (f"({text})" if text.startswith("-") else text), False

    def __call__(self, node, *args):
        if isinstance(node, Num):
            return self.const(node.value)
        if isinstance(node, Const):
            return self.const(_CONSTANTS[node.name])
        if isinstance(node, Var):
            self.uses_var = True
            return "xa", True
        if isinstance(node, Neg):
            a, varies = args[0]
            return self.let(f"-{a}", varies)
        if isinstance(node, Call):
            return self.call(node, *args[0])
        (a, av), (b, bv) = args
        if isinstance(node, Pow):
            return self.power(node, a, av, b, bv)
        if isinstance(node, Div):
            self.guard(bv, f"{b} == 0.0",
                       self.domain_error, "division by zero", node)
        if isinstance(node, _BinOp):
            return self.let(f"{a} {node.op} {b}", av or bv)
        raise TypeError(f"not an expression node: {node!r}")

    def call(self, node, a, varies):
        if node.func in _CALL_GUARDS:
            op, message = _CALL_GUARDS[node.func]
            self.guard(varies, f"{a} {op} 0.0",
                       self.domain_error, message, node)
        text = f"np_{node.func}({a})"
        return self.let(text if varies else f"float({text})", varies)

    def power(self, node, a, av, b, bv):
        """Out of domain: a zero base with a negative exponent, a negative
        base with a non-integer one."""
        expo = float(node.rhs.value) if isinstance(node.rhs, Num) else None
        if expo is not None and math.isfinite(expo):
            integral = expo.is_integer()
            if integral and 0.0 <= expo <= MAX_PRODUCT_POWER:
                return self.product(a, av, int(expo))
            if not integral or expo < 0.0:
                op = "==" if integral else "<=" if expo < 0.0 else "<"
                self.guard(av, f"{a} {op} 0.0", self.pow_error, node, a, b)
            varies = av
        else:
            varies = av or bv
            self.guard(varies,
                       f"(({a} == 0.0) & ({b} < 0.0)) | "
                       f"(({a} < 0.0) & ({b} != np_floor({b})))",
                       self.pow_error, node, a, b)
        if varies:
            return self.let(f"np_power({a}, {b})", varies)
        return self.let(f"{a} ** {b}", varies)

    def product(self, a, varies, k):
        """a^k by repeated squaring."""
        if k == 0:
            return "1.0", False
        result, square = None, a
        while True:
            if k & 1:
                result = square if result is None else \
                    self.let(f"{result} * {square}", varies)[0]
            k >>= 1
            if not k:
                return result, varies
            square = self.let(f"{square} * {square}", varies)[0]


@functools.lru_cache(maxsize=512)
def _bytecode(source):
    # trees of the same shape and constants generate the same source
    return compile(source, "<expression>", "exec")


def _compile(node):
    """One Python function evaluating ``node`` with numpy on an array x,
    or on ``[x]`` for anything else (NumPy may round otherwise on scalars):
    a new float array shaped like an array ``x``, or a float."""
    env = {"DomainError": DomainError, "ndarray": np.ndarray,
           "asarray": np.asarray, "fresh": _fresh, "pow_error": _pow_error,
           "np_floor": np.floor, "np_power": np.power}
    env.update({f"np_{f}": getattr(np, f) for f in FUNCTIONS})
    emit = _Emitter(env)
    result, varies = _fold(node, emit, {})
    lines = ["def evaluate(x):"]
    if emit.uses_var:
        lines.append("    xa = asarray(x if isinstance(x, ndarray) else [x], "
                     "dtype=float)")
    lines += ["    " + line for line in emit.freed(result)]
    lines += [f"    if isinstance(x, ndarray): return fresh({result}, x)",
              f"    return float({result}{'[0]' if varies else ''})"]
    exec(_bytecode("\n".join(lines)), env)
    return env["evaluate"]


# --------------------------------------------------------------------------
# Differentiation
# --------------------------------------------------------------------------

def _is_num(node, value=None):
    return isinstance(node, Num) and (value is None or node.value == value)


def _add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    return Add(a, b)


def _sub(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _negate(b)
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    return Sub(a, b)


def _mul(a, b):
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    return Mul(a, b)


def _divide(a, b):
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b) and b.value != 0.0:
        return Num(a.value / b.value)
    return Div(a, b)


def _negate(a):
    if _is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _pow(a, b):
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    if _is_num(a) and _is_num(b) and (a.value > 0.0 or b.value == math.floor(b.value)):
        return Num(a.value ** b.value)
    return Pow(a, b)


def contains_var(node: Expression) -> bool:
    return _fold(node, lambda n, *parts: isinstance(n, Var) or any(parts),
                 {})


def differentiate(node: Expression) -> Expression:
    """Exact symbolic derivative with light constant folding.

    d(abs)/dx is rendered as sign(x); sign itself differentiates to 0
    (both conventions hold off the kink, which is all the numeric layers
    rely on).
    """
    return _fold(node, _derivative, {})


def _derivative(node, *d):
    """The derivative of ``node`` from its children's derivatives ``d``."""
    if isinstance(node, (Num, Const)):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0)
    if isinstance(node, Neg):
        return _negate(d[0])
    if isinstance(node, Add):
        return _add(*d)
    if isinstance(node, Sub):
        return _sub(*d)
    if isinstance(node, Mul):
        da, db = d
        return _add(_mul(da, node.rhs), _mul(node.lhs, db))
    if isinstance(node, Div):
        da, db = d
        num = _sub(_mul(da, node.rhs), _mul(node.lhs, db))
        return _divide(num, _pow(node.rhs, Num(2.0)))
    if isinstance(node, Pow):
        f, g = node.lhs, node.rhs
        df, dg = d
        if not contains_var(g):
            # g * f^(g-1) * f'
            expo = _sub(g, Num(1.0)) if _is_num(g) else Sub(g, Num(1.0))
            return _mul(_mul(g, _pow(f, expo)), df)
        if not contains_var(f):
            # f^g * log(f) * g'
            return _mul(_mul(node, Call("log", f)), dg)
        # f^g * (g' log f + g f'/f)
        return _mul(node, _add(_mul(dg, Call("log", f)),
                               _divide(_mul(g, df), f)))
    if isinstance(node, Call):
        (da,) = d
        u = node.arg
        if node.func == "sin":
            outer = Call("cos", u)
        elif node.func == "cos":
            outer = _negate(Call("sin", u))
        elif node.func == "tan":
            outer = _divide(Num(1.0), _pow(Call("cos", u), Num(2.0)))
        elif node.func == "exp":
            outer = node
        elif node.func == "log":
            return _divide(da, u)
        elif node.func == "sqrt":
            return _divide(da, _mul(Num(2.0), node))
        elif node.func == "abs":
            outer = Call("sign", u)
        elif node.func == "tanh":
            outer = _sub(Num(1.0), _pow(node, Num(2.0)))
        elif node.func == "sign":
            return Num(0.0)
        else:  # pragma: no cover
            raise ValueError(f"no derivative rule for {node.func}")
        return _mul(outer, da)
    raise TypeError(f"not an expression node: {node!r}")


def as_callable(expr):
    """Expression -> vectorized callable; callables pass through."""
    if isinstance(expr, Expression):
        return expr.eval
    if callable(expr):
        return expr
    raise TypeError(f"expected Expression or callable, got {type(expr)!r}")


def _scalar(f, x, *args):
    """The vectorized callable ``f`` at the single point ``x`` (further
    arguments passed through), as a float."""
    return float(np.atleast_1d(f(np.array([x]), *args))[0])
