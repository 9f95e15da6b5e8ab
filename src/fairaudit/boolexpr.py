"""Boolean expressions over named finite-domain features.

Concrete syntax is a small S-expression language:

    true | false | <feature>
    (not E) | (and E E+) | (or E E+) | (implies E E) | (iff E E)
    (= <feature> <const>) | (le <feature> <const>) | (lt <feature> <const>)

A bare feature name abbreviates "that boolean feature is true".
Constants are `true`, `false`, or decimal integers, and comparison
constants must belong to the compared feature's declared domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, is_, or_
from typing import Iterator, Mapping, Sequence, Union

from .errors import ExprSyntaxError, ModelSemanticError

Value = Union[bool, int]

RESERVED_WORDS = frozenset(
    {"true", "false", "not", "and", "or", "implies", "iff", "le", "lt"}
)


@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class Var:
    feature: int


@dataclass(frozen=True)
class Not:
    arg: "BoolExpr"


@dataclass(frozen=True)
class And:
    args: tuple["BoolExpr", ...]


@dataclass(frozen=True)
class Or:
    args: tuple["BoolExpr", ...]


@dataclass(frozen=True)
class Implies:
    lhs: "BoolExpr"
    rhs: "BoolExpr"


@dataclass(frozen=True)
class Iff:
    lhs: "BoolExpr"
    rhs: "BoolExpr"


@dataclass(frozen=True)
class Eq:
    feature: int
    value: Value


@dataclass(frozen=True)
class Le:
    feature: int
    bound: int


@dataclass(frozen=True)
class Lt:
    feature: int
    bound: int


BoolExpr = Union[Const, Var, Not, And, Or, Implies, Iff, Eq, Le, Lt]


# ---------------------------------------------------------------------------
# Tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # "(" | ")" | "word" | "int"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> Iterator[_Token]:
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in "()":
            yield _Token(ch, ch, line, col)
            col += 1
            i += 1
            continue
        start, start_col = i, col
        # ASCII digits only: str.isdigit also takes "²", which int() refuses
        if ch == "-" or "0" <= ch <= "9":
            i += 1
            while i < n and "0" <= text[i] <= "9":
                i += 1
            word = text[start:i]
            if word == "-":
                raise ExprSyntaxError("dangling '-'", line, start_col)
            col += i - start
            yield _Token("int", word, line, start_col)
            continue
        if ch == "=" :
            yield _Token("word", "=", line, col)
            col += 1
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            i += 1
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            col += i - start
            yield _Token("word", text[start:i], line, start_col)
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)


# ---------------------------------------------------------------------------
# Parser

_BINARY = {"implies": Implies, "iff": Iff}
_COMPARISONS = {"=", "le", "lt"}
# evaluation, printing and CNF encoding also recurse once per level, so
# the limit stays far below Python's recursion limit
_MAX_DEPTH = 200


class _Parser:
    def __init__(self, text: str, space):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.depth = 0
        self.space = space

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", "", 1, 1)
            raise ExprSyntaxError("unexpected end of expression", last.line, last.column)
        self.pos += 1
        return tok

    def parse(self) -> BoolExpr:
        expr = self._expr()
        trailing = self._peek()
        if trailing is not None:
            raise ExprSyntaxError(
                f"unexpected trailing {trailing.text!r}", trailing.line, trailing.column
            )
        return expr

    def _feature(self, tok: _Token):
        feat = self.space.feature_named(tok.text)
        if feat is None:
            raise ModelSemanticError(
                f"unknown feature {tok.text!r} (line {tok.line}, column {tok.column})"
            )
        return feat

    def _expr(self) -> BoolExpr:
        tok = self._next()
        if tok.kind == "word":
            if tok.text == "true":
                return Const(True)
            if tok.text == "false":
                return Const(False)
            if tok.text in RESERVED_WORDS or tok.text == "=":
                raise ExprSyntaxError(
                    f"operator {tok.text!r} outside parentheses", tok.line, tok.column
                )
            feat = self._feature(tok)
            if not feat.is_boolean:
                raise ModelSemanticError(
                    f"feature {feat.name!r} is not boolean and cannot stand alone "
                    f"(line {tok.line}, column {tok.column})"
                )
            return Var(feat.index)
        if tok.kind == "int":
            raise ExprSyntaxError("bare integer is not a formula", tok.line, tok.column)
        if tok.kind == ")":
            raise ExprSyntaxError("unexpected ')'", tok.line, tok.column)
        # tok.kind == "("
        if self.depth == _MAX_DEPTH:
            raise ExprSyntaxError("expression nested too deeply", tok.line, tok.column)
        self.depth += 1
        head = self._next()
        if head.kind != "word":
            raise ExprSyntaxError("expected an operator after '('", head.line, head.column)
        op = head.text
        if op in _COMPARISONS:
            expr = self._comparison(op, head)
        elif op == "not":
            expr = Not(self._expr())
        elif op in ("and", "or"):
            args = [self._expr(), self._expr()]
            while self._peek() is not None and self._peek().kind != ")":
                args.append(self._expr())
            expr = (And if op == "and" else Or)(tuple(args))
        elif op in _BINARY:
            expr = _BINARY[op](self._expr(), self._expr())
        else:
            raise ExprSyntaxError(f"unknown operator {op!r}", head.line, head.column)
        closing = self._next()
        if closing.kind != ")":
            raise ExprSyntaxError("expected ')'", closing.line, closing.column)
        self.depth -= 1
        return expr

    def _comparison(self, op: str, head: _Token) -> BoolExpr:
        name = self._next()
        if name.kind != "word" or name.text in RESERVED_WORDS or name.text == "=":
            raise ExprSyntaxError(
                f"{op!r} expects a feature name", name.line, name.column
            )
        feat = self._feature(name)
        const = self._next()
        if const.kind == "int":
            value: Value = int(const.text)
        elif const.kind == "word" and const.text in ("true", "false"):
            value = const.text == "true"
        else:
            raise ExprSyntaxError(
                f"{op!r} expects a constant", const.line, const.column
            )
        if op == "=":
            if feat.is_boolean != (type(value) is bool):
                raise ModelSemanticError(
                    f"constant {_render_value(value)} does not match the domain kind of "
                    f"feature {feat.name!r} (line {const.line}, column {const.column})"
                )
            if value not in feat.domain:
                raise ModelSemanticError(
                    f"constant {_render_value(value)} is outside the domain of "
                    f"feature {feat.name!r} (line {const.line}, column {const.column})"
                )
            return Eq(feat.index, value)
        # le / lt compare integers only
        if feat.is_boolean or type(value) is bool:
            raise ModelSemanticError(
                f"{op!r} compares integer features only "
                f"(line {const.line}, column {const.column})"
            )
        if value not in feat.domain:
            raise ModelSemanticError(
                f"constant {value} is outside the domain of feature {feat.name!r} "
                f"(line {const.line}, column {const.column})"
            )
        return (Le if op == "le" else Lt)(feat.index, value)


def parse_expr(text: str, space) -> BoolExpr:
    """Parse an expression against a feature space.

    Raises ExprSyntaxError with line/column on bad syntax and
    ModelSemanticError on unknown features or constant/domain mismatches.
    """
    return _Parser(text, space).parse()


# ---------------------------------------------------------------------------
# Evaluation, scope, printing


def evaluate(expr: BoolExpr, values: Sequence[Value]) -> bool:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return bool(values[expr.feature])
    if isinstance(expr, Not):
        return not evaluate(expr.arg, values)
    if isinstance(expr, And):
        return all(evaluate(a, values) for a in expr.args)
    if isinstance(expr, Or):
        return any(evaluate(a, values) for a in expr.args)
    if isinstance(expr, Implies):
        return (not evaluate(expr.lhs, values)) or evaluate(expr.rhs, values)
    if isinstance(expr, Iff):
        return evaluate(expr.lhs, values) == evaluate(expr.rhs, values)
    if isinstance(expr, Eq):
        return values[expr.feature] == expr.value
    if isinstance(expr, Le):
        return values[expr.feature] <= expr.bound
    if isinstance(expr, Lt):
        return values[expr.feature] < expr.bound
    raise TypeError(f"not a BoolExpr: {expr!r}")


def evaluate_mask(
    expr: BoolExpr, masks: Sequence[Mapping[Value, int]], ones: int
) -> int:
    """`evaluate` on many instances at once, one bit each.

    masks[i][v] has bit r set when instance r gives feature i value v;
    ones has a bit set for every instance. Bit r of the result is
    evaluate(expr, instance r).
    """

    def values(feature: int, test) -> int:
        return reduce(or_, (m for v, m in masks[feature].items() if test(v)), 0)

    def ev(e: BoolExpr) -> int:
        if isinstance(e, Const):
            return ones if e.value else 0
        if isinstance(e, Var):
            return values(e.feature, bool)
        if isinstance(e, Not):
            return ones ^ ev(e.arg)
        if isinstance(e, And):
            return reduce(and_, map(ev, e.args), ones)
        if isinstance(e, Or):
            return reduce(or_, map(ev, e.args), 0)
        if isinstance(e, Implies):
            return (ones ^ ev(e.lhs)) | ev(e.rhs)
        if isinstance(e, Iff):
            return ones ^ ev(e.lhs) ^ ev(e.rhs)
        if isinstance(e, Eq):
            return masks[e.feature].get(e.value, 0)
        if isinstance(e, Le):
            return values(e.feature, lambda v: v <= e.bound)
        if isinstance(e, Lt):
            return values(e.feature, lambda v: v < e.bound)
        raise TypeError(f"not a BoolExpr: {e!r}")

    return ev(expr)


def scope(expr: BoolExpr) -> frozenset[int]:
    """Set of feature indices syntactically occurring in the expression."""
    if isinstance(expr, Const):
        return frozenset()
    if isinstance(expr, (Var, Eq, Le, Lt)):
        return frozenset((expr.feature,))
    if isinstance(expr, Not):
        return scope(expr.arg)
    if isinstance(expr, (And, Or)):
        out: frozenset[int] = frozenset()
        for a in expr.args:
            out |= scope(a)
        return out
    if isinstance(expr, (Implies, Iff)):
        return scope(expr.lhs) | scope(expr.rhs)
    raise TypeError(f"not a BoolExpr: {expr!r}")


def _render_value(v: Value) -> str:
    if type(v) is bool:
        return "true" if v else "false"
    return str(v)


def pretty(expr: BoolExpr, names: Sequence[str]) -> str:
    """Render in the same S-expression syntax the parser accepts."""
    if isinstance(expr, Const):
        return "true" if expr.value else "false"
    if isinstance(expr, Var):
        return names[expr.feature]
    if isinstance(expr, Not):
        return f"(not {pretty(expr.arg, names)})"
    if isinstance(expr, And):
        return "(and " + " ".join(pretty(a, names) for a in expr.args) + ")"
    if isinstance(expr, Or):
        return "(or " + " ".join(pretty(a, names) for a in expr.args) + ")"
    if isinstance(expr, Implies):
        return f"(implies {pretty(expr.lhs, names)} {pretty(expr.rhs, names)})"
    if isinstance(expr, Iff):
        return f"(iff {pretty(expr.lhs, names)} {pretty(expr.rhs, names)})"
    if isinstance(expr, Eq):
        return f"(= {names[expr.feature]} {_render_value(expr.value)})"
    if isinstance(expr, Le):
        return f"(le {names[expr.feature]} {expr.bound})"
    if isinstance(expr, Lt):
        return f"(lt {names[expr.feature]} {expr.bound})"
    raise TypeError(f"not a BoolExpr: {expr!r}")


def simplify(expr: BoolExpr) -> BoolExpr:
    """Constant folding only; never changes the value on any instance.
    A subformula with nothing to fold is returned as it is, not rebuilt."""
    if isinstance(expr, (Const, Var, Eq, Le, Lt)):
        return expr
    if isinstance(expr, Not):
        arg = simplify(expr.arg)
        if isinstance(arg, Const):
            return Const(not arg.value)
        return expr if arg is expr.arg else Not(arg)
    if isinstance(expr, (And, Or)):
        absorbing = isinstance(expr, Or)
        args = []
        for a in expr.args:
            s = simplify(a)
            if isinstance(s, Const):
                if s.value == absorbing:
                    return Const(absorbing)
                continue
            args.append(s)
        if not args:
            return Const(not absorbing)
        if len(args) == 1:
            return args[0]
        if len(args) == len(expr.args) and all(map(is_, args, expr.args)):
            return expr
        return (Or if absorbing else And)(tuple(args))
    if isinstance(expr, Implies):
        lhs, rhs = simplify(expr.lhs), simplify(expr.rhs)
        if isinstance(lhs, Const):
            return rhs if lhs.value else Const(True)
        if isinstance(rhs, Const):
            return Const(True) if rhs.value else simplify(Not(lhs))
        return expr if lhs is expr.lhs and rhs is expr.rhs else Implies(lhs, rhs)
    if isinstance(expr, Iff):
        lhs, rhs = simplify(expr.lhs), simplify(expr.rhs)
        if isinstance(lhs, Const):
            return rhs if lhs.value else simplify(Not(rhs))
        if isinstance(rhs, Const):
            return lhs if rhs.value else simplify(Not(lhs))
        return expr if lhs is expr.lhs and rhs is expr.rhs else Iff(lhs, rhs)
    raise TypeError(f"not a BoolExpr: {expr!r}")
