"""Expression language: parsing, bound certification, compilation."""

from fractions import Fraction

import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from coinfactory import (
    analyze_bounds,
    compile_to_plan,
    monte_carlo,
    parse,
    plan_bias_interval,
    plan_hash,
    report_to_json,
    unparse,
)
from coinfactory.errors import CompileBlocked, ExprSyntaxError, InvalidParams
from coinfactory.lang import (
    Add,
    Div,
    Interval,
    Mul,
    NumberLiteral,
    Paren,
    Pow,
    Sub,
    VarP,
    _isolate_roots,
    _pderiv,
    _peval_interval,
    _sharp_ratio_range,
)
from coinfactory.numerics import poly_eval, poly_mul, poly_sub

DOM = Interval(Fraction(1, 10), Fraction(2, 5))


# --- parsing -------------------------------------------------------------------


def test_parse_power():
    assert parse("p^2") == Pow(VarP(), 2)
    assert parse("p^2").span == (0, 3)


def test_parse_quotient_shape_and_spans():
    ast = parse("p / (p + 1/5)")
    assert ast == Div(VarP(), Paren(Add(VarP(), NumberLiteral(Fraction(1, 5)))))
    assert ast.span == (0, 13)
    assert ast.right.span == (4, 13)
    assert ast.right.inner.span == (5, 12)
    assert ast.right.inner.right.span == (9, 12)


def test_parse_spans_cover_operands():
    ast = parse("p + 1/5")
    assert ast.span == (0, 7)
    assert ast.right.span == (4, 7)


def test_slash_munching():
    # num/den with no spaces is one literal; a spaced slash divides
    assert parse("1/5") == NumberLiteral(Fraction(1, 5))
    assert parse("1 / 5") == Div(NumberLiteral(Fraction(1)), NumberLiteral(Fraction(5)))


def test_decimal_literal():
    assert parse("0.25") == NumberLiteral(Fraction(1, 4))


def test_unparse_round_trips():
    for text in ("p + 1/5", "1 / 5", "p^2", "(p + 1/5) * p"):
        assert unparse(parse(text)) == text


def test_syntax_error_positions():
    with pytest.raises(ExprSyntaxError) as info:
        parse("p + * 2")
    assert info.value.offset == 4
    assert info.value.found == "*"

    with pytest.raises(ExprSyntaxError) as info:
        parse("p +")
    assert info.value.offset == 3
    assert info.value.found == "end of input"

    with pytest.raises(ExprSyntaxError) as info:
        parse("1/0")
    assert info.value.offset == 0
    assert info.value.expected == {"nonzero denominator"}

    with pytest.raises(ExprSyntaxError) as info:
        parse("p ^ p")
    assert info.value.offset == 4

    with pytest.raises(ExprSyntaxError) as info:
        parse("(p")
    assert info.value.found == "end of input"

    with pytest.raises(ExprSyntaxError) as info:
        parse("q")
    assert info.value.offset == 0


# parse(unparse(.)) is the identity on trees whose composite children are
# explicitly parenthesized; precedence re-association cannot occur there

def _wrap(node):
    if isinstance(node, (VarP, NumberLiteral)):
        return node
    return Paren(node)


_leaves = st.one_of(
    st.builds(VarP),
    st.fractions(min_value=0, max_value=1, max_denominator=8).map(NumberLiteral),
)


def _composites(inner):
    binary = st.builds(
        lambda cls, left, right: cls(_wrap(left), _wrap(right)),
        st.sampled_from([Add, Sub, Mul, Div]),
        inner,
        inner,
    )
    power = st.builds(lambda base, e: Pow(_wrap(base), e), inner, st.integers(1, 3))
    return binary | power


_asts = st.recursive(_leaves, _composites, max_leaves=8)


@given(_asts)
def test_parse_unparse_round_trip(ast):
    assert parse(unparse(ast)) == ast


# --- bound analysis ---------------------------------------------------------------


def test_analysis_sum_margin():
    annot, diags = analyze_bounds(parse("p + 1/5"), DOM)
    ast = parse("p + 1/5")
    assert annot[ast] == Interval(Fraction(3, 10), Fraction(3, 5))
    assert annot[ast.left] == Interval(Fraction(1, 10), Fraction(2, 5))
    assert annot[ast.right] == Interval(Fraction(1, 5), Fraction(1, 5))
    assert diags.ok
    assert any(d.severity == "info" and d.message == "sum margin to 1 is 2/5"
               for d in diags.entries)


def test_analysis_flags_sum_reaching_one():
    ok_annot, ok_diags = analyze_bounds(parse("p + p"), Interval(Fraction(1, 10), Fraction(9, 20)))
    assert ok_diags.ok and ok_annot[parse("p + p")].hi == Fraction(9, 10)

    _, diags = analyze_bounds(parse("p + p"), Interval(Fraction(1, 10), Fraction(1, 2)))
    assert not diags.ok
    err = diags.errors[0]
    assert err.span == (0, 5)
    assert err.interval.hi == 1


def test_analysis_sharp_quotient_range():
    # naive interval division would give [1/6, 4/3] and block compilation;
    # the sharp range of an increasing Moebius function is its endpoints
    annot, diags = analyze_bounds(parse("p / (p + 1/5)"), DOM)
    assert diags.ok
    assert annot[parse("p / (p + 1/5)")] == Interval(Fraction(1, 3), Fraction(2, 3))


def test_analysis_difference_and_scaling_guards():
    _, diags = analyze_bounds(parse("1/5 - p"), DOM)
    assert not diags.ok and "difference" in diags.errors[0].message

    _, diags = analyze_bounds(parse("3 * p"), Interval(Fraction(1, 10), Fraction(1, 2)))
    assert not diags.ok and "scaling by 3" in diags.errors[0].message


def test_analysis_nested_zero_denominator_degrades_gracefully():
    ast = parse("(1 / (p - p)) / (p + 1/5)")
    _, diags = analyze_bounds(ast, DOM)
    assert not diags.ok
    assert any("denominator interval" in d.message for d in diags.errors)
    with pytest.raises(CompileBlocked):
        compile_to_plan(ast, DOM)


def test_analysis_domain_validation():
    with pytest.raises(InvalidParams):
        analyze_bounds(parse("p"), Interval(Fraction(0), Fraction(1, 2)))
    with pytest.raises(InvalidParams):
        Interval(Fraction(2, 5), Fraction(1, 10))


def test_analysis_domain_must_lie_inside_unit_interval():
    # the domain check once parsed as (not 0 < lo) and hi < 1, so an upper
    # end past 1 slipped through
    for lo, hi in ((Fraction(1, 10), Fraction(3, 2)), (Fraction(0), Fraction(1, 2))):
        with pytest.raises(InvalidParams):
            analyze_bounds(parse("p / 2"), Interval(lo, hi))
        with pytest.raises(InvalidParams):
            compile_to_plan(parse("p / 2"), Interval(lo, hi))


def test_sharp_ratio_fallback_bounds_whole_sliver():
    # den = K (p - 1/4)^2 + 1 is at least 1, but its Horner enclosure on the
    # sliver around the critical point of p / den near 1/4 dips below 0; the
    # range must still cover p / den at p = 1/4, which is 1/4
    K = Fraction(1 << 52)
    num = (Fraction(0), Fraction(1))
    den = (K / 16 + 1, -K / 2, K)
    lo, hi = Fraction(1, 8), Fraction(1, 2)
    outer = Interval(Fraction(0), hi)  # 0 <= p / den <= p on [lo, hi]
    crit = poly_sub(poly_mul(_pderiv(num), den), poly_mul(num, _pderiv(den)))
    slivers = [(a, b) for a, b in _isolate_roots(crit, lo, hi, (hi - lo) / (1 << 45))
               if a < b and _peval_interval(den, a, b)[0] <= 0]
    assert slivers  # the fallback branch runs
    iv = _sharp_ratio_range(num, den, lo, hi, outer)
    assert iv.lo <= lo / poly_eval(den, lo)
    assert iv.hi >= Fraction(1, 4)


def test_sharp_ratio_range_brackets_an_interior_critical_point():
    # p / (2p^2 + 1/4) rises to 1/sqrt(2) at p = 1/sqrt(8), inside the
    # domain: the maximum comes from the enclosure of a sliver around that
    # irrational root, the minimum from the end p = 1/10
    ast = parse("p / (2*p^2 + 1/4)")
    annot, diags = analyze_bounds(ast, DOM)
    assert diags.ok
    iv = annot[ast]
    assert iv.lo == Fraction(10, 27)
    # 1/sqrt(2) <= hi <= 1/sqrt(2) + 2**-40
    assert iv.hi ** 2 >= Fraction(1, 2) >= (iv.hi - Fraction(1, 1 << 40)) ** 2
    plan = compile_to_plan(ast, DOM, backend=("exact",))
    assert plan_bias_interval(plan, Fraction(1, 5)) == (Fraction(20, 33), Fraction(20, 33))


def test_sharp_ratio_range_takes_a_critical_point_at_the_domain_end_exactly():
    # p / (8p^2 + 2/25) peaks at p = 1/10, the domain's lower end, where the
    # critical polynomial 2/25 - 8p^2 has a rational root: the range is
    # exactly [f(1/4), f(1/10)]
    dom = Interval(Fraction(1, 10), Fraction(1, 4))
    ast = parse("p / (8*p^2 + 2/25)")
    annot, diags = analyze_bounds(ast, dom)
    assert diags.ok
    assert annot[ast] == Interval(Fraction(25, 58), Fraction(5, 8))
    plan = compile_to_plan(ast, dom, backend=("exact",))
    assert plan_bias_interval(plan, Fraction(1, 5)) == (Fraction(1, 2), Fraction(1, 2))


def _eval(node, p: Fraction) -> Fraction:
    if isinstance(node, NumberLiteral):
        return node.value
    if isinstance(node, VarP):
        return p
    if isinstance(node, Paren):
        return _eval(node.inner, p)
    if isinstance(node, Pow):
        return _eval(node.base, p) ** node.exponent
    left, right = _eval(node.left, p), _eval(node.right, p)
    if isinstance(node, Add):
        return left + right
    if isinstance(node, Sub):
        return left - right
    if isinstance(node, Mul):
        return left * right
    return left / right


@given(_asts)
def test_certified_intervals_are_sound(ast):
    try:
        annot, diags = analyze_bounds(ast, DOM)
    except ZeroDivisionError:
        pytest.fail("analysis must not crash on any expression")
    if not diags.ok:
        return
    top = annot[ast]
    lo, hi = DOM.lo, DOM.hi
    for i in range(5):
        p = lo + (hi - lo) * Fraction(i, 4)
        assert top.lo <= _eval(ast, p) <= top.hi


# --- compilation -------------------------------------------------------------------


def test_compile_sum_uses_doubled_average():
    plan = compile_to_plan(parse("p + 1/5"), DOM)
    assert plan.kind == "double"
    assert plan.children[0].kind == "average"
    assert plan.range_iv.lo == Fraction(3, 10)
    assert plan.range_iv.hi == Fraction(3, 5)
    assert plan.range_iv.source == "declared"


def test_compile_shapes():
    cases = [
        ("p / 3", "product", ("const", "identity")),
        ("1 - p", "complement", ("identity",)),
        ("2 * p", "scalar_mul", ("identity",)),
        ("p^2", "product", ("identity", "identity")),
        ("1/3", "const", ()),
    ]
    for text, kind, child_kinds in cases:
        plan = compile_to_plan(parse(text), DOM)
        assert plan.kind == kind, text
        assert tuple(c.kind for c in plan.children) == child_kinds, text


def test_compile_difference():
    plan = compile_to_plan(parse("p - 1/5"), Interval(Fraction(3, 10), Fraction(2, 5)))
    assert plan.kind == "difference"
    assert plan.get("margin") == Fraction(1, 10)


def test_compile_blocks_non_coin_targets():
    with pytest.raises(CompileBlocked):
        compile_to_plan(parse("3/2"), DOM)
    with pytest.raises(CompileBlocked) as info:
        compile_to_plan(parse("p + p"), Interval(Fraction(1, 10), Fraction(1, 2)))
    assert info.value.diagnostics[0].span == (0, 5)


def test_compile_quotient_certified_by_exact_backend():
    ast = parse("p / (p + 1/5)")
    plan = compile_to_plan(ast, DOM, backend=("exact",))
    assert plan.kind == "quotient"
    assert plan_bias_interval(plan, Fraction(1, 5)) == (Fraction(1, 2), Fraction(1, 2))


def test_compile_quotient_approx_backend_brackets_target():
    plan = compile_to_plan(parse("p / (p + 1/5)"), DOM, backend=("approx", 2000))
    # the race tosses only the exact numerator p and an exact h-coin, so no
    # walk undershoot lies on the executed path and the bracket is a point
    assert plan_bias_interval(plan, Fraction(1, 5)) == (Fraction(1, 2), Fraction(1, 2))


def test_quotient_plan_hashes_are_frozen():
    # the raced executor lives in the node cache; the node's JSON must not move
    expected = {
        ("exact",): "1419c854d5828f1c6326ff35cfcd3c8f475da97da112038932a5dc04c2309bae",
        ("approx", 2000): "0f8c3d632a5f201c48a71bd2dd18bf7e9f631a722d0b77549f5b4d97987ae0f2",
    }
    for backend, digest in expected.items():
        plan = compile_to_plan(parse("p / (p + 1/5)"), DOM, backend=backend)
        assert plan_hash(plan) == digest, backend


def test_scalar_multiple_plan_hashes_are_frozen():
    # literal products fold, c <= 1 becomes a product with a constant coin,
    # c > 1 a scalar multiple; x / c takes the same paths as x * (1/c)
    expected = {
        "2 * 1/5": "b05db18f1195a4ac0b56215798e0574fccb5759f6ec98b302176e157d565333f",
        "1/2 * p": "456e985ecce9ba57fd90d6e6518c00a8f3336759753b961580b686ad4a97d713",
        "p / 2": "456e985ecce9ba57fd90d6e6518c00a8f3336759753b961580b686ad4a97d713",
        "p * 3/2": "09f7f4d0fcb692b4cb5c9a6f56fb92a84b22ef5b2b524f6a667092007f8fd456",
        "p / 1/2": "6115b18289267214429a26b5dc7d22802d2515731f354535dd8ef73879717956",
    }
    for expr, digest in expected.items():
        plan = compile_to_plan(parse(expr), DOM, backend=("exact",))
        assert plan_hash(plan) == digest, expr


def test_literal_numerator_above_one_blocks_at_the_literal():
    with pytest.raises(CompileBlocked) as info:
        compile_to_plan(parse("3/2 / (2 - p)"), DOM)
    (diag,) = info.value.diagnostics
    assert diag.span == (0, 3)
    assert diag.message == "constant must lie in [0, 1]"


def test_quotient_race_with_polynomial_h_coin():
    # h = (1/2 + p^2) - p has Bernstein coefficients (1/2, 0, 1/2) at degree 2
    target = Fraction(10, 27)
    for backend in (("exact",), ("approx", 2000)):
        plan = compile_to_plan(parse("p / (1/2 + p^2)"), DOM, backend=backend)
        assert plan_bias_interval(plan, Fraction(1, 5)) == (target, target), backend
    runs = 10 ** 4
    estimate = monte_carlo(plan, Fraction(1, 5), runs, 1).estimate
    assert (estimate - target) ** 2 <= 9 * target * (1 - target) / runs


def test_quotient_race_interval_where_neither_coin_can_show_one():
    # h = p^2 and f = p both vanish at p = 0, so the race never stops there
    plan = compile_to_plan(parse("p / (p + p^2)"), DOM, backend=("exact",))
    assert plan_bias_interval(plan, Fraction(1, 5)) == (Fraction(5, 6), Fraction(5, 6))
    assert plan_bias_interval(plan, Fraction(0)) == (Fraction(0), Fraction(1))


def test_quotient_without_bernstein_h_keeps_chain():
    # h = (p + 1/2) - 2p is negative at p = 1, so no Bernstein coin exists and
    # the node runs the rescaling chain with its walk-bias interval
    exact = compile_to_plan(parse("2*p / (p + 1/2)"), DOM, backend=("exact",))
    assert plan_bias_interval(exact, Fraction(1, 5)) == (Fraction(4, 7), Fraction(4, 7))
    walk = compile_to_plan(parse("2*p / (p + 1/2)"), DOM, backend=("approx", 2000))
    assert plan_bias_interval(walk, Fraction(1, 5)) == (
        Fraction(25679052553854598511621128706903286857945028317282106804893,
                 44938341969245555480221736264017116280224171611258083082240),
        Fraction(18446744073709551616, 32281802128991715323),
    )


@pytest.mark.parametrize("text, digest", [
    ("p / (1/2 + p^2)", "bb89e27227281c20b0697e61934407d7eaa09edb7055ff4cba7d21fa9e27c59a"),
    ("p / (p + 1/5)", "86f4bdf313ab0c39bec94b688849ce84a75b1b048520c6cd3a0b9266e42ea928"),
], ids=["h_degree_2", "h_degree_1"])
def test_raced_quotient_reports_frozen(text, digest):
    # the race's h-coin is a bernstein node that draws as the inline coin
    # it replaced: degree raw tosses, then the constant coin of their ones
    plan = compile_to_plan(parse(text), DOM, backend=("exact",))
    doc = report_to_json(monte_carlo(plan, Fraction(1, 5), 1500, 501))
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
    assert hashlib.sha256(blob).hexdigest() == digest


def test_quotient_races_over_a_bernstein_denominator():
    # the denominator compiles to one bernstein node; its polynomial still
    # gives h = p(1-p)/2 + 1/4, so the quotient races with the same stream
    plan = compile_to_plan(parse("(p*(1-p)/2) / (p*(1-p) + 1/4)"), DOM, backend=("exact",))
    assert plan.children[1].kind == "bernstein"
    assert "impl" not in plan._cache
    assert plan._cache["h"].get("b") == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    target = Fraction(8, 41)
    assert plan_bias_interval(plan, Fraction(1, 5)) == (target, target)
    # the report with its plan hash left out, as captured before the
    # denominator became a bernstein node
    doc = report_to_json(monte_carlo(plan, Fraction(1, 5), 1500, 501))
    del doc["plan_hash"]
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
    assert hashlib.sha256(blob).hexdigest() == \
        "c21b3122d65358c035307d629bfecc331a971ce2db26347a2a686b53fa0591eb"


@pytest.mark.parametrize("text, b, target", [
    ("p*(1-p) + 1/4", (Fraction(1, 4), Fraction(3, 4), Fraction(1, 4)), Fraction(41, 100)),
    ("(1 - p)^3 + p/2", (1, Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
     Fraction(153, 250)),
])
def test_polynomial_sums_compile_to_one_bernstein_coin(text, b, target):
    for backend in (("exact",), None):
        plan = compile_to_plan(parse(text), DOM, backend=backend)
        assert plan.kind == "bernstein" and plan.children == ()
        assert plan.get("b") == b
        assert plan_bias_interval(plan, Fraction(1, 5)) == (target, target)
    runs = 10 ** 4
    report = monte_carlo(plan, Fraction(1, 5), runs, 1)
    assert (report.estimate - target) ** 2 <= 9 * target * (1 - target) / runs
    assert report.toss_mean < 20


def test_a_bernstein_range_keeps_the_certified_interval():
    # p - 0 is the coin (0, 1), whose coefficients span [0, 1]; parents see
    # the certified [1/10, 2/5] as before
    plan = compile_to_plan(parse("(p - 0) * 1/2"), DOM)
    child = plan.children[1]
    assert child.kind == "bernstein"
    assert (child.range_iv.lo, child.range_iv.hi) == (Fraction(1, 10), Fraction(2, 5))


def test_walk_bias_interval_holds_with_a_literal_difference_in_the_sum():
    # p - 0 compiles to the exact coin (0, 1), so the walk doubler of
    # 1/2 + (p - 0) sees a child of bias 3/10 at p = 1/10 and its interval
    # returns; 1/2 + (p - 1/20) still raises there, as p - 1/20 has no
    # Bernstein form and keeps its own walk
    plan = compile_to_plan(parse("1/2 + (p - 0)"), DOM, backend=("approx", 200))
    lo, hi = plan_bias_interval(plan, Fraction(1, 10))
    assert lo <= Fraction(3, 5) <= hi


def test_compile_is_deterministic():
    a = compile_to_plan(parse("p / (p + 1/5)"), DOM, backend=("exact",))
    b = compile_to_plan(parse("p / (p + 1/5)"), DOM, backend=("exact",))
    assert plan_hash(a) == plan_hash(b)


@given(_asts)
def test_compiled_bias_intervals_contain_the_target(ast):
    # wherever exact compilation succeeds, the plan's bias interval holds
    # the expression's value, and a bernstein root gives it as a point
    try:
        plan = compile_to_plan(ast, DOM, backend=("exact",))
    except CompileBlocked:
        return
    for p in (DOM.lo, (DOM.lo + DOM.hi) / 2, DOM.hi):
        lo, hi = plan_bias_interval(plan, p)
        assert lo <= _eval(ast, p) <= hi
        if plan.kind == "bernstein":
            assert lo == hi
