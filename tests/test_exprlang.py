import copy
import dis
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from guided_dynamics.errors import DomainError, ExprSyntaxError
from guided_dynamics.exprlang import (FUNCTIONS, MAX_DEPTH,
                                      MAX_PRODUCT_POWER, Add, Call, Const,
                                      Div, Mul, Neg, Num, Pow, Sub, Var,
                                      contains_var, differentiate, parse,
                                      to_source)

GOLDEN_TREES = {
    "(t+1)/2": "Div(Add(Var('t'), Num(1.0)), Num(2.0))",
    "sin(t)^2": "Pow(Call('sin', Var('t')), Num(2.0))",
    "t^2^3": "Pow(Var('t'), Pow(Num(2.0), Num(3.0)))",
    "-t^2": "Neg(Pow(Var('t'), Num(2.0)))",
    "2*t - t/3": "Sub(Mul(Num(2.0), Var('t')), Div(Var('t'), Num(3.0)))",
    "tanh(abs(t))": "Call('tanh', Call('abs', Var('t')))",
    "pi*e": "Mul(Const('pi'), Const('e'))",
    "1e-3 + t": "Add(Num(0.001), Var('t'))",
    "sin(t) + 2*t^2":
        "Add(Call('sin', Var('t')), Mul(Num(2.0), Pow(Var('t'), Num(2.0))))",
}


def test_golden_parse_trees_stable():
    for source, tree in GOLDEN_TREES.items():
        assert repr(parse(source)) == tree


def test_parse_examples():
    assert repr(parse("(t+1)/2")) == "Div(Add(Var('t'), Num(1.0)), Num(2.0))"
    assert repr(parse("sin(t)^2")) == "Pow(Call('sin', Var('t')), Num(2.0))"
    with pytest.raises(ExprSyntaxError) as exc:
        parse("2*+3")
    assert exc.value.offset == 2
    assert "NUMBER" in exc.value.expected


def test_parse_error_reports_expected_tokens():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("sin(t")
    assert ")" in exc.value.expected
    with pytest.raises(ExprSyntaxError) as exc:
        parse("frob(t)")
    assert "sin" in exc.value.expected
    with pytest.raises(ExprSyntaxError):
        parse("x + 1")  # unknown identifier under default variable "t"


def test_precedence_and_associativity():
    assert parse("2+3*t")(1.0) == 5.0
    assert parse("-2^2")(0.0) == -4.0
    assert parse("(-2)^2")(0.0) == 4.0
    assert parse("2^3^2")(0.0) == 512.0  # right-associative
    assert parse("2^-1")(0.0) == 0.5
    assert parse("--t")(3.0) == 3.0


def test_eval_examples():
    assert parse("(t+1)/2")(0.0) == 0.5
    assert abs(parse("sin(t)^2 + cos(t)^2")(0.7) - 1.0) < 1e-15
    with pytest.raises(DomainError):
        parse("log(t)")(-1.0)
    with pytest.raises(DomainError):
        parse("sqrt(t)")(-0.5)
    with pytest.raises(DomainError):
        parse("1/t")(0.0)


def test_domain_error_carries_subexpression():
    expr = parse("1 + log(t)")
    with pytest.raises(DomainError) as exc:
        expr(-2.0)
    assert isinstance(exc.value.subexpression, Call)
    assert exc.value.subexpression.func == "log"


def test_eval_vectorized_matches_scalar():
    expr = parse("sin(t)^2 + exp(t)/3 - tanh(t)")
    xs = np.linspace(-2, 2, 17)
    vec = expr(xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert expr(float(x)) == v


def test_eval_deterministic():
    expr = parse("sin(t)*exp(t) - t^3/7")
    vals = {expr(0.8125) for _ in range(50)}
    assert len(vals) == 1


def test_differentiate_examples():
    d = differentiate(parse("(t+1)/2"))
    assert d == Num(0.5)
    d2 = differentiate(parse("sin(t)^2"))
    assert d2 == Mul(Mul(Num(2.0), Call("sin", Var("t"))),
                     Call("cos", Var("t")))
    assert differentiate(parse("t^3"))(2.0) == 12.0


def test_differentiate_abs_is_sign():
    d = differentiate(parse("abs(t)"))
    assert d == Call("sign", Var("t"))
    assert d(2.0) == 1.0
    assert d(-3.0) == -1.0
    assert d(0.0) == 0.0  # fixed convention
    assert differentiate(d) == Num(0.0)


def test_differentiate_function_table():
    cases = {
        "tan(t)": lambda t: 1.0 / math.cos(t) ** 2,
        "exp(2*t)": lambda t: 2.0 * math.exp(2 * t),
        "log(1 + t^2)": lambda t: 2 * t / (1 + t * t),
        "sqrt(1 + t^2)": lambda t: t / math.sqrt(1 + t * t),
        "tanh(t)": lambda t: 1.0 - math.tanh(t) ** 2,
        "t^t": lambda t: t ** t * (math.log(t) + 1.0),
        "2^t": lambda t: 2.0 ** t * math.log(2.0),
    }
    for src, want in cases.items():
        d = differentiate(parse(src))
        for x in (0.3, 0.9, 1.7):
            assert d(x) == pytest.approx(want(x), rel=1e-12)


ROUNDTRIP_CORPUS = [
    "(t+1)/2", "sin(t)^2", "t^3 - 2*t + 1", "-t^2 + 4/(1+t^2)",
    "exp(-t^2)*cos(3*t)", "t^2^t", "1 - 2 - 3", "2/(3/(4+t))",
    "tanh(abs(t)) + sign(t)", "pi + e*t", "sqrt(1+t^2)", "--t - -t",
]


def test_print_parse_roundtrip_exact_tree():
    for source in ROUNDTRIP_CORPUS:
        tree = parse(source)
        again = parse(to_source(tree))
        assert again == tree


def test_roundtrip_evaluates_identically():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-2.0, 2.0, 100)
    for source in ROUNDTRIP_CORPUS:
        tree = parse(source)
        again = parse(to_source(tree))
        for x in xs:
            try:
                v1 = tree(float(x))
            except DomainError:
                continue
            assert again(float(x)) == v1


def test_derivative_of_derivative_roundtrips():
    for source in ROUNDTRIP_CORPUS:
        d = differentiate(parse(source))
        assert parse(to_source(d)) == d


@st.composite
def polynomials(draw):
    degree = draw(st.integers(min_value=0, max_value=5))
    coeffs = [draw(st.floats(min_value=-1.0, max_value=1.0)) for _ in
              range(degree + 1)]
    return np.polynomial.Polynomial(coeffs)


@given(polynomials(), st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=200, deadline=None)
def test_polynomial_derivative_matches_central_difference(poly, x):
    source = " + ".join(f"({float(c)!r})*t^{k}"
                        for k, c in enumerate(poly.coef))
    expr = parse(source)
    d = differentiate(expr)
    h = 1e-6
    fd = (expr(x + h) - expr(x - h)) / (2 * h)
    dv = d(x)
    assert abs(dv - fd) < 1e-5 * (1.0 + abs(dv))


# --------------------------------------------------------------------------
# compiled evaluation against a reference tree-walk interpreter
# --------------------------------------------------------------------------

def _product(b, k):
    """b^k by repeated squaring, the order the compiler uses."""
    result, square = 1.0, b
    while k:
        if k & 1:
            result *= square
        k >>= 1
        if k:
            square *= square
    return result


def reference_eval(node, x):
    """Node-by-node evaluation with NumPy at a float or an array x (a
    float as a 0-d array), subtrees free of the variable in Python floats:
    the semantics compiled evaluation must keep."""
    array = contains_var(node)
    if isinstance(node, Num):
        return float(node.value)
    if isinstance(node, Const):
        return {"pi": math.pi, "e": math.e}[node.name]
    if isinstance(node, Var):
        return np.array(x, dtype=float)
    if isinstance(node, Neg):
        return -reference_eval(node.arg, x)
    if isinstance(node, Call):
        v = reference_eval(node.arg, x)
        if (node.func == "log" and np.any(v <= 0.0)) or (
                node.func == "sqrt" and np.any(v < 0.0)):
            raise DomainError(node.func, subexpression=node, x=x)
        out = getattr(np, node.func)(v)
        return out if array else float(out)
    a = reference_eval(node.lhs, x)
    b = reference_eval(node.rhs, x)
    if isinstance(node, Add):
        return a + b
    if isinstance(node, Sub):
        return a - b
    if isinstance(node, Mul):
        return a * b
    if isinstance(node, Div):
        if np.any(b == 0.0):
            raise DomainError("division", subexpression=node, x=x)
        return a / b
    if isinstance(node.rhs, Num) and float(node.rhs.value).is_integer() \
            and 0.0 <= node.rhs.value <= MAX_PRODUCT_POWER:
        return _product(a, int(node.rhs.value))
    if np.any((a == 0.0) & (b < 0.0)):
        raise DomainError("zero power", subexpression=node, x=x)
    if np.any((a < 0.0) & (b != np.floor(b))):
        raise DomainError("negative base", subexpression=node, x=x)
    return np.power(a, b) if array else a ** b


def _outcome(tree, x):
    try:
        return reference_eval(tree, x)
    except (ArithmeticError, ValueError) as exc:  # DomainError included
        return exc


def _ulp_close(got, want, n=4):
    if math.isnan(want) or math.isinf(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= n * np.spacing(max(abs(got), abs(want)))


_EXPONENTS = [0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 9.0, -1.0, -2.0, 0.5, 1.5, -0.5]


def _grow(children):
    return st.one_of(
        children.map(Neg),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
        st.builds(lambda op, a, b: op(a, b),
                  st.sampled_from([Add, Sub, Mul, Div]), children, children),
        st.builds(Pow, children, st.sampled_from(_EXPONENTS).map(Num)),
        st.builds(Pow, children, children),
        # a subtree repeated by value (an equal copy, not the same object)
        st.builds(lambda op, a: op(a, copy.deepcopy(a)),
                  st.sampled_from([Add, Sub, Mul, Div, Pow]), children))


expression_trees = st.recursive(
    st.one_of(st.just(Var("t")),
              st.sampled_from([0.0, 1.0, 2.0, 0.5, 3.0, -2.0]).map(Num),
              st.sampled_from(["pi", "e"]).map(Const)),
    _grow, max_leaves=8)
points = st.lists(st.one_of(st.sampled_from([0.0, -2.0, 1.0, 0.5]),
                            st.floats(min_value=-3.0, max_value=3.0)),
                  min_size=1, max_size=5)


@given(expression_trees, points)
@settings(max_examples=400, deadline=None)
@example(parse("(-2)^3"), [0.0])
@example(parse("0^-1"), [1.0])
@example(parse("(-2)^0.5"), [1.0])
@example(parse("sign(t)"), [0.0, -1.0])
@example(parse("t"), [0.5, -1.0])
@example(parse("3"), [0.5])
@example(parse("(t^-2)^0"), [7.1e-299])
def test_compiled_eval_matches_reference(tree, xs):
    arr = np.array(xs)
    before = arr.copy()
    with np.errstate(all="ignore"):
        for x in list(xs) + [arr]:
            want = _outcome(tree, x)
            if isinstance(want, Exception):
                with pytest.raises(type(want)) as exc:
                    tree.eval(x)
                if isinstance(want, DomainError):
                    assert exc.value.subexpression is want.subexpression
                continue
            got = tree.eval(x)
            if x is arr:
                assert type(got) is np.ndarray and got.dtype == float
                assert got.shape == arr.shape
                assert not np.shares_memory(got, arr)
                want = np.broadcast_to(want, arr.shape).tolist()
                assert all(map(_ulp_close, got.tolist(), want))
            else:
                assert type(got) is float
                assert _ulp_close(got, float(want))
    assert np.array_equal(arr, before)


@given(expression_trees, st.floats())
@settings(max_examples=400, deadline=None)
@example(parse("(t^-2)^0"), 7.1e-299)
@example(parse("t^t"), 500.0)
@example(parse("(0-2)^t"), math.inf)
@example(parse("(0-2)^t"), math.nan)
# NumPy's power rounds (-2 + 2^-52)^-1 one way on scalars, another on arrays
@example(parse("-((t-2)^(-cos(t)))"), 2.220446049250313e-16)
def test_scalar_eval_matches_one_element_array(tree, x):
    """A float and a one-element array run the same body: the same value
    or the same exception type."""
    with np.errstate(all="ignore"):
        try:
            want = float(tree.eval(np.array([x]))[0])
        except (ArithmeticError, ValueError) as exc:
            with pytest.raises(type(exc)):
                tree.eval(x)
            return
        got = tree.eval(x)
    assert type(got) is float
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_compiled_eval_examples():
    assert parse("(-2)^3")(0.0) == -8.0
    assert parse("t^3")(np.array([-2.0])).tolist() == [-8.0]
    assert parse("sign(t)")(0.0) == 0.0
    assert parse("sign(t)")(np.array([0.0, -3.0])).tolist() == [0.0, -1.0]
    zero_neg = "zero raised to a negative power"
    neg_base = "negative base with non-integer exponent"
    for source, x, message in (
            ("0^-1", 1.0, zero_neg), ("t^-1", np.array([1.0, 0.0]), zero_neg),
            ("(-2)^0.5", 1.0, neg_base),
            ("t^0.5", np.array([1.0, -2.0]), neg_base),
            ("t^-0.5", np.array([-1.0, 0.0]), zero_neg),
            ("t^-0.5", 0.0, zero_neg),
            ("t^(t-2)", np.array([-0.5, 0.0]), zero_neg),
            ("t^(t-2)", -0.5, neg_base)):
        tree = parse(source)
        with pytest.raises(DomainError, match=message) as exc:
            tree(x)
        assert exc.value.subexpression is tree
        assert exc.value.x is x


def test_compiled_eval_shapes_and_copies():
    grid = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    for source in ("3", "pi", "t", "t^1", "(t+1)/2"):
        tree = parse(source)
        out = tree(grid)
        assert type(out) is np.ndarray and out.shape == grid.shape
        assert out.dtype == float and not np.shares_memory(out, grid)
        assert type(tree(0.25)) is float
    ints = np.arange(3)
    assert parse("t")(ints).dtype == float
    assert type(parse("t + 1")(np.float64(2.0))) is float


def test_evaluated_tree_pickles():
    tree = parse("sin(t)^2 + 1/t")
    tree(0.5)
    again = pickle.loads(pickle.dumps(tree))
    assert again == tree and again(0.5) == tree(0.5)


def _funceq_h(coefs, a, b):
    """The shape of the grid-solve workload's h: f - a f((t+1)/2) -
    b f((t-1)/2) for a cubic f."""
    def poly(var):
        return " + ".join(f"({c!r})*({var})^{k}" if k else f"({c!r})"
                          for k, c in enumerate(coefs))
    return (f"{poly('t')} - ({a!r})*({poly('(t+1)/2')}) "
            f"- ({b!r})*({poly('(t-1)/2')})")


def test_compiled_eval_frees_temporaries():
    """Equal subexpressions are computed once and every temporary is freed
    after its last use: a grid evaluation holds a few arrays at a time,
    not one per node."""
    tree = parse(_funceq_h([0.3, -0.7, 0.2, 0.9], 0.25, 0.2))
    xs = np.linspace(-1.0, 1.0, 2 ** 18 + 1)
    tree(xs[:3])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = tree(xs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * xs.nbytes
    assert got[::4096].tolist() == [tree(float(x)) for x in xs[::4096]]


def test_equal_subtrees_share_one_statement():
    tree = parse("((t+1)/2)*((t+1)/2) + sin((t+1)/2) - (t+1)")
    tree(0.5)
    stores = [ins for ins in dis.get_instructions(tree._compiled)
              if ins.opname == "STORE_FAST" and ins.argval.startswith("v")]
    # t+1, /2, the product, sin, the sum, the difference
    assert len(stores) == 6
    # Num(-0.0) == Num(0.0), but -0*t and 0*t are different statements
    assert math.copysign(1.0, parse("-0*t - 0*t")(1.0)) == -1.0


DEEPEST = {  # sources exactly MAX_DEPTH levels deep
    "sum": " + ".join(["t"] * MAX_DEPTH),
    "product": "*".join(["t"] * MAX_DEPTH),
    "quotient": "/".join(["t"] * MAX_DEPTH),
    "power": "^".join(["t"] * MAX_DEPTH),
    "calls": "sin(" * (MAX_DEPTH - 1) + "t" + ")" * (MAX_DEPTH - 1),
    "parentheses": "(" * (MAX_DEPTH - 1) + "t" + ")" * (MAX_DEPTH - 1),
}


@pytest.mark.parametrize("source", DEEPEST.values(), ids=DEEPEST)
def test_deepest_source_compiles_prints_and_differentiates_twice(source):
    with pytest.raises(ExprSyntaxError, match="nested deeper"):
        parse(f"({source})")
    tree = parse(source)
    printed = to_source(tree)
    assert to_source(parse(printed)) == printed
    d = differentiate(tree)
    d2 = differentiate(d)
    with np.errstate(all="ignore"):
        for expr in (tree, d, d2):
            assert expr(np.linspace(0.5, 0.9, 3)).shape == (3,)
            assert type(expr(0.7)) is float


@pytest.mark.parametrize("source", DEEPEST.values(), ids=DEEPEST)
def test_deepest_source_compares_hashes_and_pickles(source):
    tree, again = parse(source), parse(source)
    assert tree == again and hash(tree) == hash(again)
    # a left-associative chain holds its deepest leaf first, a
    # right-associative one last
    for changed in (source.replace("t", "2", 1),
                    source[::-1].replace("t", "2", 1)[::-1]):
        assert tree != parse(changed)
    d = differentiate(tree)
    for expr in (tree, d):
        for copied in (pickle.loads(pickle.dumps(expr)), copy.deepcopy(expr)):
            assert copied == expr and hash(copied) == hash(expr)
    assert to_source(pickle.loads(pickle.dumps(tree))) == to_source(tree)


@pytest.mark.parametrize("source", DEEPEST.values(), ids=DEEPEST)
def test_deepest_source_and_derivative_repr(source):
    tree = parse(source)
    d = differentiate(tree)
    # one Var leaf per t of the source, and a copy prints the same
    assert repr(tree).count("Var('t')") == source.count("t")
    for expr in (tree, d):
        text = repr(expr)
        assert text.startswith(f"{type(expr).__name__}(")
        assert text.count("(") == text.count(")")
        assert repr(pickle.loads(pickle.dumps(expr))) == text


def test_parse_refuses_deep_sources_at_the_level_past_the_bound():
    with pytest.raises(ExprSyntaxError, match="nested deeper") as exc:
        parse("(" * 400 + "t" + ")" * 400)
    assert exc.value.offset == 400 - MAX_DEPTH
    source = " + ".join(["t"] * 2000)
    with pytest.raises(ExprSyntaxError, match="nested deeper") as exc:
        parse(source)
    # the operator that makes the sum MAX_DEPTH + 1 levels deep
    assert exc.value.offset == source.index("+") + 4 * (MAX_DEPTH - 1)
