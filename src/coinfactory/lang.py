"""A miniature compiler from arithmetic in p to factory plans.

parse builds a small AST; analyze_bounds certifies every node's value
range over the declared domain and collects diagnostics; compile_to_plan
maps operators to combinators, threading the certified margins into the
constructors. Interval arithmetic is deliberately conservative, with one
exception: a quotient node's range is computed sharply from the rational
function it denotes (critical-point analysis with exact arithmetic),
because naive division intervals are useless for targets like
p / (p + 1/5). A sum, difference or scale-up whose exact value is a
polynomial with a Bernstein form in [0, 1] compiles to one bernstein node,
which needs no doubler and so no backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .combinators import (
    BERNSTEIN_MAX_DEGREE,
    FactoryPlan,
    PlanBounds,
    bernstein_plan,
    complement,
    constant_plan,
    difference_plan,
    identity_plan,
    product,
    quotient_plan,
    scalar_mul_plan,
    sum_plan,
    with_range,
)
from .errors import CompileBlocked, ExprSyntaxError, InvalidParams
from .numerics import bernstein_coeffs, poly_add, poly_eval, poly_mul, poly_norm, poly_sub

# --- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class NumberLiteral:
    value: Fraction
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class VarP:
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Add:
    left: "Ast"
    right: "Ast"
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Sub:
    left: "Ast"
    right: "Ast"
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Mul:
    left: "Ast"
    right: "Ast"
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Div:
    left: "Ast"
    right: "Ast"
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Pow:
    base: "Ast"
    exponent: int
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Paren:
    inner: "Ast"
    span: tuple = field(default=(0, 0), compare=False)


Ast = Union[NumberLiteral, VarP, Add, Sub, Mul, Div, Pow, Paren]


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise InvalidParams(f"empty interval [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # error | info
    span: tuple
    message: str
    interval: Optional[Interval]


@dataclass(frozen=True)
class CompileDiagnostics:
    entries: tuple

    @property
    def errors(self) -> tuple:
        return tuple(e for e in self.entries if e.severity == "error")

    @property
    def ok(self) -> bool:
        return not self.errors


# --- tokenizer ---------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str
    value: object
    start: int
    end: int


_OPS = {"+": "plus", "-": "minus", "*": "star", "/": "slash",
        "^": "caret", "(": "lparen", ")": "rparen"}


def _lex(text: str) -> list[_Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            # num/den with no interior spaces lexes as one rational literal;
            # a spaced slash stays the division operator
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                den = int(text[j + 1:k])
                if den == 0:
                    raise ExprSyntaxError(i, {"nonzero denominator"}, text[i:k])
                out.append(_Token("number", Fraction(int(text[i:j]), den), i, k))
                i = k
                continue
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                whole = int(text[i:j])
                frac = text[j + 1:k]
                value = whole + Fraction(int(frac), 10 ** len(frac))
                out.append(_Token("number", value, i, k))
                i = k
                continue
            out.append(_Token("number", Fraction(int(text[i:j])), i, j))
            i = j
            continue
        if ch == "p":
            out.append(_Token("p", None, i, i + 1))
            i += 1
            continue
        if ch in _OPS:
            out.append(_Token(_OPS[ch], None, i, i + 1))
            i += 1
            continue
        raise ExprSyntaxError(i, {"number", "p", "operator", "parenthesis"}, ch)
    out.append(_Token("end", None, n, n))
    return out


# --- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, expected: set) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(tok.start, expected, self.text[tok.start:tok.end] or "end of input")
        return self.take()

    def parse(self) -> Ast:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(tok.start, {"operator", "end of input"},
                                  self.text[tok.start:tok.end])
        return node

    def expr(self) -> Ast:
        node = self.term()
        while self.peek().kind in ("plus", "minus"):
            op = self.take()
            right = self.term()
            cls = Add if op.kind == "plus" else Sub
            node = cls(node, right, (node.span[0], right.span[1]))
        return node

    def term(self) -> Ast:
        node = self.factor()
        while self.peek().kind in ("star", "slash"):
            op = self.take()
            right = self.factor()
            cls = Mul if op.kind == "star" else Div
            node = cls(node, right, (node.span[0], right.span[1]))
        return node

    def factor(self) -> Ast:
        node = self.primary()
        while self.peek().kind == "caret":
            self.take()
            tok = self.peek()
            if tok.kind != "number" or Fraction(tok.value).denominator != 1 or tok.value < 1:
                raise ExprSyntaxError(tok.start, {"positive integer exponent"},
                                      self.text[tok.start:tok.end] or "end of input")
            self.take()
            node = Pow(node, int(tok.value), (node.span[0], tok.end))
        return node

    def primary(self) -> Ast:
        tok = self.peek()
        if tok.kind == "number":
            self.take()
            return NumberLiteral(Fraction(tok.value), (tok.start, tok.end))
        if tok.kind == "p":
            self.take()
            return VarP((tok.start, tok.end))
        if tok.kind == "lparen":
            start = self.take().start
            inner = self.expr()
            close = self.expect("rparen", {"')'"})
            return Paren(inner, (start, close.end))
        raise ExprSyntaxError(tok.start, {"number", "'p'", "'('"},
                              self.text[tok.start:tok.end] or "end of input")


def parse(text: str) -> Ast:
    return _Parser(text).parse()


def unparse(ast: Ast) -> str:
    """Inverse of parse up to spans; emits spaced operators."""
    if isinstance(ast, NumberLiteral):
        return str(ast.value)
    if isinstance(ast, VarP):
        return "p"
    if isinstance(ast, Paren):
        return f"({unparse(ast.inner)})"
    if isinstance(ast, Pow):
        return f"{unparse(ast.base)}^{ast.exponent}"
    ops = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
    op = ops[type(ast)]
    return f"{unparse(ast.left)} {op} {unparse(ast.right)}"


# --- exact polynomial machinery for sharp quotient ranges ---------------------
# Polynomials are coefficient tuples, low degree first (see numerics).


def _pderiv(a):
    return poly_norm(tuple(Fraction(i) * a[i] for i in range(1, len(a))))


def _peval_interval(a, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    # Horner with interval coefficients; outer enclosure
    alo = ahi = Fraction(0)
    for c in reversed(a):
        cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(cands) + c, max(cands) + c
    return alo, ahi


def _prem(a, b):
    # remainder of a by b, b nonzero
    a = list(a)
    while len(a) >= len(b) and poly_norm(a):
        if a and a[-1] == 0:
            a.pop()
            continue
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i in range(len(b)):
            a[shift + i] -= q * b[i]
        a.pop()
    return poly_norm(a)


def _sturm_chain(poly):
    chain = [poly_norm(poly), _pderiv(poly)]
    while chain[-1]:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(tuple(-v for v in r))
    return [c for c in chain if c]


def _sign_changes(chain, x: Fraction) -> int:
    signs = []
    for c in chain:
        v = poly_eval(c, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count_roots(chain, a: Fraction, b: Fraction) -> int:
    # distinct real roots in (a, b]
    return _sign_changes(chain, a) - _sign_changes(chain, b)


def _isolate_roots(poly, lo: Fraction, hi: Fraction, width: Fraction) -> list:
    """Rational brackets, each containing all roots of one cluster, of
    width at most `width`."""
    poly = poly_norm(poly)
    if not poly or len(poly) == 1:
        return []
    chain = _sturm_chain(poly)
    out = []

    def rec(a: Fraction, b: Fraction):
        cnt = _count_roots(chain, a, b)
        if cnt == 0:
            return
        if b - a <= width:
            out.append((a, b))
            return
        mid = (a + b) / 2
        rec(a, mid)
        rec(mid, b)

    # nudge the left end so a root exactly at lo is still counted
    if poly_eval(poly, lo) == 0:
        out.append((lo, lo))
    rec(lo, hi)
    return out


def _sharp_ratio_range(num, den, lo: Fraction, hi: Fraction, outer: Interval) -> Interval:
    """Exact-or-outer range of num/den over [lo, hi]; den must be positive
    throughout, and outer is a certified (naive) range of num/den there."""
    cand_lo = []
    cand_hi = []
    for x in (lo, hi):
        v = poly_eval(num, x) / poly_eval(den, x)
        cand_lo.append(v)
        cand_hi.append(v)
    crit = poly_sub(poly_mul(_pderiv(num), den), poly_mul(num, _pderiv(den)))
    width = (hi - lo) / (1 << 45) if hi > lo else Fraction(1)
    for a, b in _isolate_roots(crit, lo, hi, width):
        if a == b:
            v = poly_eval(num, a) / poly_eval(den, a)
            cand_lo.append(v)
            cand_hi.append(v)
            continue
        nlo, nhi = _peval_interval(num, a, b)
        dlo, dhi = _peval_interval(den, a, b)
        if dlo <= 0:
            # den's enclosure is too loose on this sliver to divide by; the
            # certified outer range holds everywhere on [lo, hi]
            cand_lo.append(outer.lo)
            cand_hi.append(outer.hi)
            continue
        cands = (nlo / dlo, nlo / dhi, nhi / dlo, nhi / dhi)
        cand_lo.append(min(cands))
        cand_hi.append(max(cands))
    return Interval(min(cand_lo), max(cand_hi))


def _polyfrac(ast: Ast) -> tuple[tuple, tuple]:
    """The exact rational function an AST denotes: (num, den) polys in p."""
    if isinstance(ast, NumberLiteral):
        return (ast.value,) if ast.value != 0 else (), (Fraction(1),)
    if isinstance(ast, VarP):
        return (Fraction(0), Fraction(1)), (Fraction(1),)
    if isinstance(ast, Paren):
        return _polyfrac(ast.inner)
    if isinstance(ast, Pow):
        n, d = _polyfrac(ast.base)
        rn, rd = (Fraction(1),), (Fraction(1),)
        for _ in range(ast.exponent):
            rn, rd = poly_mul(rn, n), poly_mul(rd, d)
        return rn, rd
    ln, ld = _polyfrac(ast.left)
    rn, rd = _polyfrac(ast.right)
    if isinstance(ast, Add):
        return poly_add(poly_mul(ln, rd), poly_mul(rn, ld)), poly_mul(ld, rd)
    if isinstance(ast, Sub):
        return poly_sub(poly_mul(ln, rd), poly_mul(rn, ld)), poly_mul(ld, rd)
    if isinstance(ast, Mul):
        return poly_mul(ln, rn), poly_mul(ld, rd)
    if isinstance(ast, Div):
        return poly_mul(ln, rd), poly_mul(ld, rn)
    raise InvalidParams(f"unknown AST node {type(ast).__name__}")


# --- bounds analysis -----------------------------------------------------------


def _literal_value(ast: Ast) -> Optional[Fraction]:
    if isinstance(ast, NumberLiteral):
        return ast.value
    if isinstance(ast, Paren):
        return _literal_value(ast.inner)
    return None


def analyze_bounds(ast: Ast, domain: Interval) -> tuple[dict, CompileDiagnostics]:
    """Bottom-up interval annotation plus diagnostics.

    Standard interval arithmetic everywhere except Div, whose interval is
    the sharp range of the quotient's rational function; margin info
    entries record the certified gaps the compiler will use.
    """
    if not (0 < domain.lo and domain.hi < 1):
        raise InvalidParams("domain must be a closed rational interval inside (0, 1)")
    annot: dict = {}
    entries: list = []

    def note(severity, node, message, iv):
        entries.append(Diagnostic(severity, node.span, message, iv))

    def visit(node: Ast) -> Interval:
        if isinstance(node, NumberLiteral):
            iv = Interval(node.value, node.value)
        elif isinstance(node, VarP):
            iv = Interval(domain.lo, domain.hi)
        elif isinstance(node, Paren):
            iv = visit(node.inner)
        elif isinstance(node, Pow):
            base = visit(node.base)
            cands = [base.lo ** node.exponent, base.hi ** node.exponent]
            if base.lo < 0 < base.hi:
                cands.append(Fraction(0))
            iv = Interval(min(cands), max(cands))
        elif isinstance(node, Add):
            l, r = visit(node.left), visit(node.right)
            iv = Interval(l.lo + r.lo, l.hi + r.hi)
            if iv.hi >= 1:
                note("error", node, f"sum can reach {iv.hi} >= 1 on the domain", iv)
            else:
                note("info", node, f"sum margin to 1 is {1 - iv.hi}", iv)
        elif isinstance(node, Sub):
            l, r = visit(node.left), visit(node.right)
            iv = Interval(l.lo - r.hi, l.hi - r.lo)
            if iv.lo <= 0:
                note("error", node, f"difference can reach {iv.lo} <= 0 on the domain", iv)
            else:
                note("info", node, f"difference margin above 0 is {iv.lo}", iv)
        elif isinstance(node, Mul):
            l, r = visit(node.left), visit(node.right)
            cands = (l.lo * r.lo, l.lo * r.hi, l.hi * r.lo, l.hi * r.hi)
            iv = Interval(min(cands), max(cands))
            for const_side, other in ((node.left, r), (node.right, l)):
                a = _literal_value(const_side)
                if a is not None and a * other.hi >= 1:
                    note("error", node,
                         f"scaling by {a} can reach {a * other.hi} >= 1 on the domain", iv)
                    break
        elif isinstance(node, Div):
            l, r = visit(node.left), visit(node.right)
            if r.lo <= 0:
                note("error", node,
                     f"denominator interval [{r.lo}, {r.hi}] contains values <= 0", r)
                iv = Interval(Fraction(0), Fraction(1))
            else:
                # the naive quotient is sound because r.lo > 0
                cands = (l.lo / r.lo, l.lo / r.hi, l.hi / r.lo, l.hi / r.hi)
                iv = Interval(min(cands), max(cands))
                # a breakdown elsewhere may have poisoned the polynomial form
                # (zero denominators); the earlier error blocks compilation
                # regardless, so the naive quotient stands in that case
                if not any(e.severity == "error" for e in entries):
                    num, den = _polyfrac(node)
                    iv = _sharp_ratio_range(num, den, domain.lo, domain.hi, iv)
                if iv.hi >= 1:
                    note("error", node, f"quotient can reach {iv.hi} >= 1 on the domain", iv)
                else:
                    note("info", node,
                         f"quotient margins: denominator >= {r.lo}, gap to 1 is {1 - iv.hi}", iv)
        else:
            raise InvalidParams(f"unknown AST node {type(node).__name__}")
        annot[node] = iv
        return iv

    top = visit(ast)
    if top.lo < 0 or top.hi > 1:
        note("error", ast,
             f"expression range [{top.lo}, {top.hi}] is not a coin bias", top)
    return annot, CompileDiagnostics(tuple(entries))


# --- compilation ----------------------------------------------------------------


def compile_to_plan(ast: Ast, domain: Interval, backend=None) -> FactoryPlan:
    """Emit a plan; margins come from the certified node intervals."""
    annot, diags = analyze_bounds(ast, domain)
    if not diags.ok:
        raise CompileBlocked(diags.errors)
    dom_bounds = PlanBounds(domain.lo, domain.hi, "declared")

    def build(node: Ast) -> FactoryPlan:
        # a constructor refusing its parameters, such as an exact doubler
        # whose margin admits no first checkpoint, blocks at this node
        try:
            return build_node(node)
        except InvalidParams as e:
            raise CompileBlocked((Diagnostic("error", node.span, str(e), annot[node]),)) from None

    def scaled(node: Ast, a: Fraction, other: Ast) -> FactoryPlan:
        # c * x, x * c and x / c: the multiple a * x of the other operand
        if a > 1:
            return (polynomial(node)
                    or scalar_mul_plan(a, build(other), 1 - annot[node].hi, backend))
        return product(constant_plan(a, domain=dom_bounds), build(other))

    def polynomial(node: Ast) -> Optional[FactoryPlan]:
        # the one Bernstein coin of the node's exact polynomial, or None; its
        # range is the certified interval cut to the coefficients' span
        num, den = _polyfrac(node)
        if len(den) != 1:
            return None
        b = bernstein_coeffs(poly_mul(num, (1 / den[0],)), BERNSTEIN_MAX_DEGREE)
        if b is None:
            return None
        iv = annot[node]
        return with_range(bernstein_plan(b, domain=dom_bounds),
                          max(iv.lo, min(b)), min(iv.hi, max(b)))

    def build_node(node: Ast) -> FactoryPlan:
        if isinstance(node, NumberLiteral):
            return constant_plan(node.value, domain=dom_bounds)
        if isinstance(node, VarP):
            return identity_plan(dom_bounds)
        if isinstance(node, Paren):
            return build(node.inner)
        if isinstance(node, Pow):
            base = build(node.base)
            out = base
            for _ in range(node.exponent - 1):
                out = product(out, base)
            return out
        if isinstance(node, Add):
            eps = 1 - annot[node].hi
            return polynomial(node) or sum_plan(build(node.left), build(node.right), eps, backend)
        if isinstance(node, Sub):
            if _literal_value(node.left) == 1:
                return complement(build(node.right))
            margin = annot[node].lo
            return (polynomial(node)
                    or difference_plan(build(node.left), build(node.right), margin, backend))
        if isinstance(node, Mul):
            la = _literal_value(node.left)
            ra = _literal_value(node.right)
            if la is not None and ra is not None:
                return constant_plan(la * ra, domain=dom_bounds)
            if la is not None:
                return scaled(node, la, node.right)
            if ra is not None:
                return scaled(node, ra, node.left)
            return product(build(node.left), build(node.right))
        if isinstance(node, Div):
            ra = _literal_value(node.right)
            if ra is not None:
                return scaled(node, 1 / ra, node.left)
            den_iv = annot[node.right]
            quot_iv = annot[node]
            eps = min(den_iv.lo, 1 - quot_iv.hi)
            return quotient_plan(build(node.left), build(node.right), eps, den_iv.hi, backend,
                                 quot_range=(quot_iv.lo, quot_iv.hi))
        raise InvalidParams(f"unknown AST node {type(node).__name__}")

    plan = build(ast)
    top = annot[ast]
    return with_range(plan, max(Fraction(0), top.lo), min(Fraction(1), top.hi))
