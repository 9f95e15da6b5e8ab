"""Propositional counterexample search for constrained FTU.

encode_ftu_counterexample builds a CNF over two instance copies x and y
that is satisfiable exactly when some pair in the constrained space
agrees on the unprotected features but receives different labels.
search() is the internal engine, a deterministic conflict-driven
clause-learning (CDCL) solver: two watched literals, 1-UIP learning,
non-chronological backjumping and an activity order on decisions. The
same formula, searched twice, gives the same model and decision count.
export_dimacs lets any external solver answer the same query.
"""

from __future__ import annotations

import heapq
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
    """Decide the formula by deterministic CDCL (see _Solver): unit
    propagation over two watched literals, 1-UIP clause learning with
    non-chronological backjumping, and decisions that set false the
    unassigned variable of highest activity, lowest index on ties.
    Repeated literals are merged and tautologies dropped first.
    ``nodes`` counts decisions. A model is total and checked against
    every original clause before it is returned."""
    start = time.perf_counter()
    solver = _Solver(formula)
    if not solver.solve():
        return SearchResult(False, None, solver.nodes, time.perf_counter() - start)
    value = solver.value
    model = {v: value[v] == 1 for v in range(1, formula.variable_count + 1)}
    for clause in formula.clauses:
        if not any(model[abs(lit)] == (lit > 0) for lit in clause):
            raise AssertionError("search returned a non-model")
    return SearchResult(True, model, solver.nodes, time.perf_counter() - start)


class _Solver:
    """Conflict-driven clause learning over the formula's own signed
    literals. Every per-literal array has 2n + 1 slots and is indexed by
    the literal itself, so l and -l (a negative index, counted from the
    end) never share a slot. Per-variable facts (level, reason, analysis
    mark) sit in the slot of the variable's true literal.

    * Binary clauses live in implication lists: ``implied[l]`` holds the
      literals that l being false forces.
    * Longer clauses are kept as the formula's own tuples, learned ones
      appended, in ``clauses``. Clause i watches two of its literals,
      ``watch[i]`` and ``spare[i]``; a watch that turns false moves to
      ``spare[i]`` and is replaced there by a literal not false, if any.
      ``watches[l]`` holds the numbers of the clauses that watch l,
      revisited when l turns false.
    * A literal's reason is None for a decision or a level-0 unit, the
      other literal of a binary clause, or the longer clause that forced
      it.
    * A conflict is resolved back to its first unique implication point
      (1-UIP). The search jumps back to the second-highest level in the
      learned clause, where the clause asserts its first literal.
    * Each decision sets false the unassigned variable of highest
      activity, ties to the lowest index. Activities are bumped for
      every variable a conflict analysis meets and decay by raising the
      bump; a heap of (-activity, variable) entries, pruned lazily,
      picks the next one.
    """

    DECAY = 0.95

    def __init__(self, formula: CnfFormula):
        n = formula.variable_count
        self.n = n
        self.value = [0] * (2 * n + 1)  # 1 true, -1 false, 0 unassigned
        self.level = [0] * (2 * n + 1)
        self.reason: list = [None] * (2 * n + 1)
        self.seen = [False] * (2 * n + 1)
        self.implied: list[list[int]] = [[] for _ in range(2 * n + 1)]
        self.watches: list[list[int]] = [[] for _ in range(2 * n + 1)]
        self.clauses: list[tuple[int, ...]] = []
        self.watch: list[int] = []
        self.spare: list[int] = []
        self.trail: list[int] = []
        self.limits: list[int] = []  # trail length at each decision
        self.qhead = 0
        self.activity = [0.0] * (n + 1)
        self.bump = 1.0
        self.heap = [(0.0, v) for v in range(1, n + 1)]
        self.queued = [True] * (n + 1)  # the heap holds an entry at the current activity
        self.nodes = 0
        self.units: list[int] = []
        for clause in formula.clauses:
            if len(set(map(abs, clause))) < len(clause):
                # repeated literals are merged; a clause with both l and
                # -l always holds and is dropped
                clause = tuple(dict.fromkeys(clause))
                if len(clause) > 1 and len(set(map(abs, clause))) < len(clause):
                    continue
            if len(clause) == 1:
                self.units.append(clause[0])
            else:
                self._attach(clause)

    def _attach(self, clause: tuple[int, ...]):
        """Watch the first two literals of a clause of two or more; the
        reason to record when the clause forces its first literal."""
        a, b = clause[0], clause[1]
        if len(clause) == 2:
            self.implied[a].append(b)
            self.implied[b].append(a)
            return b
        number = len(self.clauses)
        self.clauses.append(clause)
        self.watch.append(a)
        self.spare.append(b)
        self.watches[a].append(number)
        self.watches[b].append(number)
        return clause

    def solve(self) -> bool:
        value = self.value
        for lit in self.units:
            if value[lit] == -1:
                return False
            if not value[lit]:
                self._assign(lit, None)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if not self.limits:
                    return False
                learnt = self._analyze(conflict)
                self._backjump(self.level[-learnt[1]] if len(learnt) > 1 else 0)
                self._assign(learnt[0], self._attach(learnt) if len(learnt) > 1 else None)
                continue
            var = self._next_variable()
            if var is None:
                return True
            self.nodes += 1
            self.limits.append(len(self.trail))
            self._assign(-var, None)

    def _assign(self, lit: int, reason) -> None:
        self.value[lit] = 1
        self.value[-lit] = -1
        self.level[lit] = len(self.limits)
        self.reason[lit] = reason
        self.trail.append(lit)

    def _propagate(self) -> tuple[int, ...] | None:
        """Assign what the trail forces; return a falsified clause or None."""
        value, level, reason = self.value, self.level, self.reason
        implied, watches, trail = self.implied, self.watches, self.trail
        clauses, watch, spare = self.clauses, self.watch, self.spare
        depth = len(self.limits)
        qhead = self.qhead
        while qhead < len(trail):
            false = -trail[qhead]
            qhead += 1
            for q in implied[false]:
                vq = value[q]
                if vq == 1:
                    continue
                if vq == -1:
                    self.qhead = len(trail)
                    return (q, false)
                value[q] = 1
                value[-q] = -1
                level[q] = depth
                reason[q] = false
                trail.append(q)
            ws = watches[false]
            i = j = 0
            end = len(ws)
            while i < end:
                c = ws[i]
                i += 1
                other = watch[c]
                if other == false:
                    other = watch[c] = spare[c]
                    spare[c] = false
                if value[other] == 1:
                    ws[j] = c
                    j += 1
                    continue
                for lit in clauses[c]:
                    if value[lit] != -1 and lit != other:
                        spare[c] = lit
                        watches[lit].append(c)
                        break
                else:
                    ws[j] = c
                    j += 1
                    if value[other] == -1:
                        del ws[j:i]
                        self.qhead = len(trail)
                        return clauses[c]
                    value[other] = 1
                    value[-other] = -1
                    level[other] = depth
                    reason[other] = clauses[c]
                    trail.append(other)
            del ws[j:]
        self.qhead = qhead
        return None

    def _analyze(self, conflict: tuple[int, ...]) -> tuple[int, ...]:
        """The 1-UIP clause of a conflict: the asserting literal first,
        then, when there are more, one of the highest remaining level."""
        level, reason, seen, trail = self.level, self.reason, self.seen, self.trail
        activity, queued, bump = self.activity, self.queued, self.bump
        depth = len(self.limits)
        learnt = [0]
        pending = 0  # marked literals of the conflict level not yet resolved
        index = len(trail) - 1
        lits = conflict
        t = 0  # the literal whose reason is resolved; a reason holds it true
        while True:
            for q in lits:
                if q == t:
                    continue
                if not seen[-q] and level[-q] > 0:
                    seen[-q] = True
                    v = abs(q)
                    activity[v] += bump
                    queued[v] = False
                    if level[-q] == depth:
                        pending += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index]]:
                index -= 1
            t = trail[index]
            index -= 1
            seen[t] = False
            pending -= 1
            if not pending:
                break
            r = reason[t]
            lits = (r,) if r.__class__ is int else r
        learnt[0] = -t
        for q in learnt[1:]:
            seen[-q] = False
        if len(learnt) > 2:
            top = max(range(1, len(learnt)), key=lambda i: level[-learnt[i]])
            learnt[1], learnt[top] = learnt[top], learnt[1]
        self.bump = bump / self.DECAY
        if self.bump > 1e100:
            for v in range(1, self.n + 1):
                activity[v] *= 1e-100
            self.bump *= 1e-100
            self._rebuild_heap()
        return tuple(learnt)

    def _backjump(self, depth: int) -> None:
        value, activity, queued, heap = self.value, self.activity, self.queued, self.heap
        mark = self.limits[depth]
        for lit in self.trail[mark:]:
            value[lit] = value[-lit] = 0
            v = abs(lit)
            if not queued[v]:
                heapq.heappush(heap, (-activity[v], v))
                queued[v] = True
        del self.trail[mark:]
        del self.limits[depth:]
        self.qhead = mark

    def _next_variable(self) -> int | None:
        """The unassigned variable of highest activity, lowest index on
        ties; None when every variable is assigned."""
        if len(self.heap) > 2 * self.n + 64:
            self._rebuild_heap()
        heap, activity, queued, value = self.heap, self.activity, self.queued, self.value
        while heap:
            key, v = heapq.heappop(heap)
            if -key != activity[v]:
                continue  # stale: bumped since it was pushed
            queued[v] = False
            if not value[v]:
                return v
        return None

    def _rebuild_heap(self) -> None:
        """One entry per unassigned variable, at its current activity."""
        value, activity, queued = self.value, self.activity, self.queued
        self.heap[:] = [(-activity[v], v) for v in range(1, self.n + 1) if not value[v]]
        heapq.heapify(self.heap)
        for v in range(1, self.n + 1):
            queued[v] = not value[v]


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
