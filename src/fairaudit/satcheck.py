"""Propositional counterexample search for constrained FTU.

encode_ftu_counterexample builds a CNF over two instance copies x and y
that is satisfiable exactly when some pair in the constrained space
agrees on the unprotected features but receives different labels.
search() is a deterministic chronological-backtracking solver with unit
propagation; it is the internal engine, and export_dimacs lets any
external solver answer the same query.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from . import boolexpr
from .boolexpr import And, BoolExpr, Const, Eq, Not, Or
from .classifier import (
    Classifier,
    ExpressionClassifier,
    TableClassifier,
    TreeClassifier,
    TreeLeaf,
)
from .errors import CapacityError, DocumentError, ModelSemanticError
from .model import ConstrainedSpace, Instance

TABLE_LIMIT = 4096
# the declared classes each get one formula per copy, and a table one
# selector per copy with a pairwise at-most-one over them, so a table's
# clauses grow with the square of the class count (1,200 classes took
# 2 s and 277 MB on a 2-CPU host), and 10^9 would exhaust memory before
# any clause exists
CLASS_LIMIT = 256


@dataclass(frozen=True)
class CnfFormula:
    variable_count: int
    clauses: tuple[tuple[int, ...], ...]
    comment_map: dict[int, str]

    def __post_init__(self):
        for clause in self.clauses:
            if not clause:
                raise ModelSemanticError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.variable_count:
                    raise ModelSemanticError(f"literal {lit} out of range")


@dataclass(frozen=True)
class SearchResult:
    satisfiable: bool
    model: dict[int, bool] | None
    nodes: int
    seconds: float


class _Builder:
    def __init__(self):
        self.count = 0
        self.clauses: list[tuple[int, ...]] = []
        self.names: dict[int, str] = {}
        self._true_var: int | None = None

    def new_var(self, name: str) -> int:
        self.count += 1
        self.names[self.count] = name
        return self.count

    def add(self, *lits: int) -> None:
        self.clauses.append(tuple(dict.fromkeys(lits)))

    def const(self, value: bool) -> int:
        if self._true_var is None:
            self._true_var = self.new_var("const.true")
            self.add(self._true_var)
        return self._true_var if value else -self._true_var

    def and_gate(self, lits: list[int]) -> int:
        g = self.new_var(f"gate.{self.count + 1}")
        for lit in lits:
            self.add(-g, lit)
        self.add(g, *[-lit for lit in lits])
        return g

    def or_gate(self, lits: list[int]) -> int:
        g = self.new_var(f"gate.{self.count + 1}")
        for lit in lits:
            self.add(g, -lit)
        self.add(-g, *lits)
        return g

    def iff_gate(self, a: int, b: int) -> int:
        g = self.new_var(f"gate.{self.count + 1}")
        self.add(-g, -a, b)
        self.add(-g, a, -b)
        self.add(g, a, b)
        self.add(g, -a, -b)
        return g

    def build(self) -> CnfFormula:
        return CnfFormula(self.count, tuple(self.clauses), dict(self.names))


class _Copy:
    """Feature variables for one instance copy (x or y)."""

    def __init__(self, builder: _Builder, cs: ConstrainedSpace, tag: str):
        self.builder = builder
        self.cs = cs
        self.tag = tag
        self.bool_var: dict[int, int] = {}
        self.onehot: dict[int, dict] = {}
        self._gate_cache: dict[BoolExpr, int] = {}
        for f in cs.space.features:
            if f.is_boolean and len(f.domain) == 2:
                self.bool_var[f.index] = builder.new_var(f"{tag}.{f.name}")
            else:
                vals = {
                    v: builder.new_var(f"{tag}.{f.name}={boolexpr._render_value(v)}")
                    for v in f.domain
                }
                self.onehot[f.index] = vals
                lits = list(vals.values())
                builder.add(*lits)
                for a, b in itertools.combinations(lits, 2):
                    builder.add(-a, -b)

    def value_literal(self, feature: int, value) -> int:
        if feature in self.bool_var:
            var = self.bool_var[feature]
            return var if value else -var
        lit = self.onehot[feature].get(value)  # None for a value off the domain
        return self.builder.const(False) if lit is None else lit

    def encode(self, expr: BoolExpr) -> int:
        expr = boolexpr.simplify(expr)
        return self._encode(expr)

    def _encode(self, expr: BoolExpr) -> int:
        cached = self._gate_cache.get(expr)
        if cached is not None:
            return cached
        lit = self._encode_uncached(expr)
        self._gate_cache[expr] = lit
        return lit

    def _encode_uncached(self, expr: BoolExpr) -> int:
        b = self.builder
        if isinstance(expr, Const):
            return b.const(expr.value)
        if isinstance(expr, boolexpr.Var):
            return self.value_literal(expr.feature, True)
        if isinstance(expr, Not):
            return -self._encode(expr.arg)
        if isinstance(expr, And):
            return b.and_gate([self._encode(a) for a in expr.args])
        if isinstance(expr, Or):
            return b.or_gate([self._encode(a) for a in expr.args])
        if isinstance(expr, boolexpr.Implies):
            return b.or_gate([-self._encode(expr.lhs), self._encode(expr.rhs)])
        if isinstance(expr, boolexpr.Iff):
            return b.iff_gate(self._encode(expr.lhs), self._encode(expr.rhs))
        if isinstance(expr, Eq):
            return self.value_literal(expr.feature, expr.value)
        if isinstance(expr, (boolexpr.Le, boolexpr.Lt)):
            domain = self.cs.space.features[expr.feature].domain
            if isinstance(expr, boolexpr.Le):
                hits = [v for v in domain if v <= expr.bound]
            else:
                hits = [v for v in domain if v < expr.bound]
            if not hits:
                return b.const(False)
            if len(hits) == len(domain):
                return b.const(True)
            return b.or_gate([self.value_literal(expr.feature, v) for v in hits])
        raise TypeError(f"not a BoolExpr: {expr!r}")


def _class_formulas(k: Classifier, space) -> list[BoolExpr]:
    """One formula per class, true exactly when the classifier answers
    that class; used for expression and tree forms."""
    if isinstance(k, ExpressionClassifier):
        return [Not(k.expr), k.expr]
    if isinstance(k, TreeClassifier):
        paths: dict[int, list[BoolExpr]] = {c: [] for c in range(k.class_count)}
        # depth first, true branch first, with an explicit stack: a chain
        # of tests can be deeper than the recursion limit
        stack: list[tuple[int, tuple[BoolExpr, ...]]] = [(k.root, ())]
        while stack:
            node_id, conds = stack.pop()
            node = k._by_id[node_id]
            if isinstance(node, TreeLeaf):
                paths[node.label].append(
                    And(conds) if len(conds) > 1 else (conds[0] if conds else Const(True))
                )
                continue
            test = Eq(node.feature, node.value)
            stack.append((node.if_false, conds + (Not(test),)))
            stack.append((node.if_true, conds + (test,)))
        out = []
        for c in range(k.class_count):
            if not paths[c]:
                out.append(Const(False))
            elif len(paths[c]) == 1:
                out.append(paths[c][0])
            else:
                out.append(Or(tuple(paths[c])))
        return out
    raise TypeError(f"no class formulas for {type(k).__name__}")


def encode_ftu_counterexample(cs: ConstrainedSpace, k: Classifier) -> CnfFormula:
    """CNF satisfiable iff constrained FTU fails for the classifier."""
    if k.class_count > CLASS_LIMIT:
        raise CapacityError(
            f"classifier with {k.class_count} classes exceeds the encoding "
            f"limit {CLASS_LIMIT}"
        )
    builder = _Builder()
    copy_x = _Copy(builder, cs, "x")
    copy_y = _Copy(builder, cs, "y")
    for copy in (copy_x, copy_y):
        for c in cs.constraints:
            builder.add(copy.encode(c.expr))
    for i in sorted(cs.space.unprotected):
        f = cs.space.features[i]
        if i in copy_x.bool_var:
            a, b = copy_x.bool_var[i], copy_y.bool_var[i]
            builder.add(-a, b)
            builder.add(a, -b)
        else:
            for v in f.domain:
                a, b = copy_x.onehot[i][v], copy_y.onehot[i][v]
                builder.add(-a, b)
                builder.add(a, -b)
    if isinstance(k, TableClassifier):
        _encode_table_labels(builder, k, copy_x, copy_y)
    else:
        formulas = [boolexpr.simplify(f) for f in _class_formulas(k, cs.space)]
        for formula in formulas:
            if formula == Const(False):
                continue
            a = copy_x.encode(formula)
            b = copy_y.encode(formula)
            builder.add(-a, -b)
    return builder.build()


def _encode_table_labels(
    builder: _Builder, k: TableClassifier, copy_x: _Copy, copy_y: _Copy
) -> None:
    size = len(k.labels)
    if size > TABLE_LIMIT:
        raise CapacityError(
            f"table classifier with {size} rows exceeds the clause-expansion "
            f"limit {TABLE_LIMIT}"
        )
    selectors = {}
    for tag, copy in (("x", copy_x), ("y", copy_y)):
        sel = [builder.new_var(f"sel.{tag}.{c}") for c in range(k.class_count)]
        for a, b in itertools.combinations(sel, 2):
            builder.add(-a, -b)
        for inst, label in zip(itertools.product(*k.domains), k.labels):
            lits = [-copy.value_literal(i, v) for i, v in enumerate(inst)]
            builder.add(*lits, sel[label])
        selectors[tag] = sel
    for c in range(k.class_count):
        builder.add(-selectors["x"][c], -selectors["y"][c])


def search(formula: CnfFormula) -> SearchResult:
    """Deterministic DPLL: unit propagation plus chronological
    backtracking, branching on the lowest unassigned variable with
    false first. Only clauses containing a freshly falsified literal
    are re-examined. Models are total and checked against every clause
    before being returned."""
    start = time.perf_counter()
    nvars = formula.variable_count
    clauses = formula.clauses
    # occurrence lists indexed by literal + nvars
    occurs: list[list[int]] = [[] for _ in range(2 * nvars + 1)]
    for ci, clause in enumerate(clauses):
        for lit in clause:
            occurs[lit + nvars].append(ci)
    assign: list[bool | None] = [None] * (nvars + 1)
    trail: list[int] = []
    decisions: list[tuple[int, bool, int]] = []  # (var, tried_true, trail_len)
    nodes = 0
    qhead = 0
    cursor = 1

    def propagate() -> bool:
        """Process newly assigned vars on the trail; True on conflict."""
        nonlocal qhead
        while qhead < len(trail):
            var = trail[qhead]
            qhead += 1
            falsified = -var if assign[var] else var
            for ci in occurs[falsified + nvars]:
                unit = 0
                open_count = 0
                satisfied = False
                for lit in clauses[ci]:
                    v = assign[lit if lit > 0 else -lit]
                    if v is None:
                        open_count += 1
                        if open_count > 1:
                            break
                        unit = lit
                    elif v == (lit > 0):
                        satisfied = True
                        break
                if satisfied or open_count > 1:
                    continue
                if open_count == 0:
                    return True
                uv = unit if unit > 0 else -unit
                assign[uv] = unit > 0
                trail.append(uv)
        return False

    def undo_to(length: int) -> None:
        nonlocal cursor, qhead
        while len(trail) > length:
            v = trail.pop()
            assign[v] = None
            if v < cursor:
                cursor = v
        qhead = len(trail)

    for clause in clauses:  # seed unit clauses
        if len(clause) == 1:
            lit = clause[0]
            var = lit if lit > 0 else -lit
            if assign[var] is None:
                assign[var] = lit > 0
                trail.append(var)
            elif assign[var] != (lit > 0):
                return SearchResult(False, None, nodes, time.perf_counter() - start)

    while True:
        conflict = propagate()
        if conflict:
            while decisions and decisions[-1][1]:
                var, _, length = decisions.pop()
                undo_to(length)
            if not decisions:
                return SearchResult(False, None, nodes, time.perf_counter() - start)
            var, _, length = decisions.pop()
            undo_to(length)
            decisions.append((var, True, length))
            assign[var] = True
            trail.append(var)
            nodes += 1
            continue
        while cursor <= nvars and assign[cursor] is not None:
            cursor += 1
        if cursor > nvars:
            model = {v: bool(assign[v]) for v in range(1, nvars + 1)}
            for clause in clauses:
                if not any(model[abs(lit)] == (lit > 0) for lit in clause):
                    raise AssertionError("search returned a non-model")
            return SearchResult(True, model, nodes, time.perf_counter() - start)
        decisions.append((cursor, False, len(trail)))
        assign[cursor] = False
        trail.append(cursor)
        nodes += 1


def decode_model(
    formula: CnfFormula,
    model: dict[int, bool],
    cs: ConstrainedSpace,
    k: Classifier | None = None,
) -> tuple[Instance, Instance]:
    """Read the witness pair back out of a satisfying assignment."""
    values: dict[str, dict[int, object]] = {"x": {}, "y": {}}
    for var, name in formula.comment_map.items():
        tag, _, rest = name.partition(".")
        if tag not in values:
            continue
        feature_name, eq, raw = rest.partition("=")
        feat = cs.space.feature_named(feature_name)
        if feat is None:
            continue
        if eq:
            if model[var]:
                values[tag][feat.index] = _parse_value(raw)
        else:
            values[tag][feat.index] = bool(model[var])
    out = []
    for tag in ("x", "y"):
        got = values[tag]
        inst = tuple(
            got.get(f.index, f.domain[0]) for f in cs.space.features
        )
        if not cs.contains(inst):
            raise AssertionError(f"decoded {tag} falls outside the constrained space")
        out.append(inst)
    x, y = out
    for i in cs.space.unprotected:
        if x[i] != y[i]:
            raise AssertionError("decoded pair disagrees on an unprotected feature")
    if k is not None and k.evaluate(x) == k.evaluate(y):
        raise AssertionError("decoded pair has equal labels")
    return x, y


def _parse_value(raw: str):
    if raw == "true":
        return True
    if raw == "false":
        return False
    return int(raw)


def export_dimacs(formula: CnfFormula) -> str:
    """Canonical DIMACS text: comments, header, clauses in build order."""
    lines = [f"c {var} {name}" for var, name in sorted(formula.comment_map.items())]
    lines.append(f"p cnf {formula.variable_count} {len(formula.clauses)}")
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfFormula:
    variable_count = None
    expected = None
    clauses: list[tuple[int, ...]] = []
    comments: dict[int, str] = {}
    pending: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("c"):
            parts = line.split(maxsplit=2)
            if len(parts) == 3 and parts[1].isdigit():
                comments[int(parts[1])] = parts[2]
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DocumentError(f"bad DIMACS header on line {lineno}")
            variable_count = int(parts[2])
            expected = int(parts[3])
            continue
        if variable_count is None:
            raise DocumentError(f"clause before header on line {lineno}")
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                if pending:
                    clauses.append(tuple(pending))
                    pending = []
            else:
                pending.append(lit)
    if pending:
        clauses.append(tuple(pending))
    if variable_count is None:
        raise DocumentError("missing DIMACS header")
    if expected is not None and expected != len(clauses):
        raise DocumentError(
            f"header promises {expected} clauses, found {len(clauses)}"
        )
    return CnfFormula(variable_count, tuple(clauses), comments)
