"""Propositional counterexample search for constrained FTU.

encode_ftu builds a CNF over two instance copies x and y that is
satisfiable exactly when some pair satisfying the constraints agrees on
the unprotected features but receives different labels; it reads the
feature space and the constraints only, so no space is enumerated
(encode_ftu_counterexample takes them from a ConstrainedSpace). The
copies agree on the unprotected features by construction: y has
variables for the protected features only and reads x's for the rest.
Each constraint, and an expression's class formulas, is simplified once
and numbered into one hash-consed circuit (_Circuit), one node per
distinct subformula; both copies then emit the same nodes in the same
order, one literal per node and a Tseitin gate for each connective and
for each comparison that splits its feature's domain, except that y
reuses x's literal for a node whose scope holds no protected feature.
A table or a tree is a cover of cubes (_cover). Its free region, the
instances whose label no change of the protected features alone can
alter, is covered by cubes with no label and no protected test, each
ruled out by one clause: such a cube holds in both copies or in
neither. The rest is covered by cubes of one label each, prime
implicants over the table's own domains (explain._prime_cubes, at most
TABLE_LIMIT rows) or the tree's leaves' paths; each gives a clause per
copy ending in its label's selector, and a clause per class keeps the
copies off the same selector.
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
from dataclasses import dataclass, replace

from . import boolexpr, explain
from .boolexpr import And, BoolExpr, Const, Eq, Iff, Implies, Le, Lt, Not, Or, Var
from .classifier import (
    Classifier,
    ExpressionClassifier,
    TableClassifier,
    TreeClassifier,
    TreeLeaf,
    TreeNode,
    same_domains,
)
from .errors import CapacityError, DocumentError, ModelSemanticError
from .model import ConstrainedSpace, ConstraintSet, FeatureSpace, Instance, unconstrained

TABLE_LIMIT = 4096
# the declared classes each get a formula or a selector per copy, so
# the query grows with the class count, and 10^9 would exhaust memory
# before any clause exists
CLASS_LIMIT = 256


@dataclass(frozen=True)
class CnfFormula:
    variable_count: int
    clauses: tuple[tuple[int, ...], ...]
    comment_map: dict[int, str]

    def __post_init__(self):
        n = self.variable_count
        lits = set(itertools.chain.from_iterable(self.clauses))
        if (
            all(self.clauses)
            and 0 not in lits
            and -n <= min(lits, default=0)
            and max(lits, default=0) <= n
        ):
            return
        for clause in self.clauses:  # name the first fault
            if not clause:
                raise ModelSemanticError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > n:
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

    # a gate's two-literal clauses pair a fresh variable with an older
    # literal, so they never repeat one; only the long clause can

    def and_gate(self, lits: list[int]) -> int:
        g = self.new_var(f"gate.{self.count + 1}")
        self.clauses += [(-g, lit) for lit in lits]
        self.add(g, *[-lit for lit in lits])
        return g

    def or_gate(self, lits: list[int]) -> int:
        g = self.new_var(f"gate.{self.count + 1}")
        self.clauses += [(g, -lit) for lit in lits]
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


class _Circuit:
    """Every distinct subformula of the query, numbered once.

    A node is a flat tuple, its own key: ``(op, child numbers...)`` for a
    connective and ``(op, fields...)`` at a leaf, ``op`` being the
    BoolExpr class. So no BoolExpr is ever hashed, and keys compare as
    the dataclasses they stand for: ``Var(f)`` and ``Eq(f, True)`` are
    distinct nodes, while ``Eq(f, True)`` and ``Eq(f, 1)`` are one.
    Nodes are numbered in post-order of first visit, so a formula's new
    nodes come in the order a recursive walk that caches every
    subformula meets them.
    """

    def __init__(self):
        self.nodes: list[tuple] = []
        self._numbers: dict[tuple, int] = {}

    def add(self, expr: BoolExpr) -> tuple[list[tuple], int]:
        """Number a simplified formula; its new nodes, in numbering
        order, and its root."""
        start = len(self.nodes)
        root = self._node(expr)
        return self.nodes[start:], root

    def _node(self, expr: BoolExpr) -> int:
        op = expr.__class__
        if op is Eq:  # value tests come from constraints and expressions only
            key = (Eq, expr.feature, expr.value)
        elif op is Not:
            key = (Not, self._node(expr.arg))
        elif op is And or op is Or:
            key = (op, *map(self._node, expr.args))
        elif op is Implies or op is Iff:
            key = (op, self._node(expr.lhs), self._node(expr.rhs))
        elif op in _LEAVES:
            key = (op, *vars(expr).values())
        else:
            raise TypeError(f"not a BoolExpr: {expr!r}")
        number = self._numbers.get(key)
        if number is None:
            number = self._numbers[key] = len(self.nodes)
            self.nodes.append(key)
        return number


_LEAVES = frozenset((Const, Var, Eq, Le, Lt))


class _Copy:
    """One instance copy (x or y): its feature variables, and one literal
    per circuit node, ``lits[node]``, emitted in node order.

    A copy made with a ``base`` (y, with x as base) has variables of its
    own for the protected features only: it takes the base's variable,
    or one-hot group, for every unprotected feature, and the base's
    literal for every node whose scope holds no protected feature, so
    such a node gets no gate of its own. ``scoped[node]`` says whether
    the node's scope holds a protected feature; the base copy sets it as
    it emits, always before the other copy emits the same node."""

    def __init__(
        self, builder: _Builder, space: FeatureSpace, tag: str, base: _Copy | None = None
    ):
        self.builder = builder
        self.space = space
        self.base = base
        self.bool_var: dict[int, int] = {}
        self.onehot: dict[int, dict] = {}
        self.lits: list[int] = []
        self.scoped: list[bool] = [] if base is None else base.scoped
        for f in space.features:
            if base is not None and not f.protected:
                if f.index in base.bool_var:
                    self.bool_var[f.index] = base.bool_var[f.index]
                else:
                    self.onehot[f.index] = base.onehot[f.index]
            elif f.is_boolean and len(f.domain) == 2:
                self.bool_var[f.index] = builder.new_var(f"{tag}.{f.name}")
            else:
                vals = {
                    v: builder.new_var(f"{tag}.{f.name}={boolexpr._render_value(v)}")
                    for v in f.domain
                }
                self.onehot[f.index] = vals
                lits = list(vals.values())
                builder.add(*lits)
                builder.clauses += [(-a, -b) for a, b in itertools.combinations(lits, 2)]

    def value_literal(self, feature: int, value) -> int:
        if feature in self.bool_var:
            var = self.bool_var[feature]
            return var if value else -var
        lit = self.onehot[feature].get(value)  # None for a value off the domain
        return self.builder.const(False) if lit is None else lit

    def outside(self, held, failed) -> tuple[int, ...]:
        """The clause that the copy lies outside the cube of ``held``
        (tests passed) and ``failed`` (tests failed)."""
        lit = self.value_literal
        return (*[-lit(i, v) for i, v in held], *[lit(i, v) for i, v in failed])

    def emit(self, nodes: list[tuple], root: int) -> int:
        """Give each new circuit node its literal, adding its gate's
        clauses; the root's literal."""
        b, lits, scoped = self.builder, self.lits, self.scoped
        shared = None if self.base is None else self.base.lits
        protected = self.space.protected
        for key in nodes:
            op = key[0]
            if shared is not None and not scoped[len(lits)]:
                lits.append(shared[len(lits)])
                continue
            if op is Eq:
                lit = self.value_literal(key[1], key[2])
            elif op is Not:
                lit = -lits[key[1]]
            elif op is And:
                lit = b.and_gate([lits[c] for c in key[1:]])
            elif op is Or:
                lit = b.or_gate([lits[c] for c in key[1:]])
            elif op is Var:
                lit = self.value_literal(key[1], True)
            elif op is Implies:
                lit = b.or_gate([-lits[key[1]], lits[key[2]]])
            elif op is Iff:
                lit = b.iff_gate(lits[key[1]], lits[key[2]])
            elif op is Const:
                lit = b.const(key[1])
            else:  # Le, Lt: an or over the values the comparison keeps
                _, feature, bound = key
                domain = self.space.features[feature].domain
                hits = [v for v in domain if (v <= bound if op is Le else v < bound)]
                if not hits or len(hits) == len(domain):
                    lit = b.const(bool(hits))
                else:
                    lit = b.or_gate([self.value_literal(feature, v) for v in hits])
            if shared is None:  # a leaf's key names its feature, a connective's its children
                if op in _LEAVES:
                    scoped.append(op is not Const and key[1] in protected)
                else:
                    scoped.append(any(scoped[c] for c in key[1:]))
            lits.append(lit)
        return lits[root]


def encode_ftu(
    space: FeatureSpace, constraints: ConstraintSet, k: Classifier
) -> CnfFormula:
    """CNF satisfiable iff constrained FTU fails for the classifier: two
    copies of the space, both satisfying the constraints, equal on the
    unprotected features, with different labels. The copies are equal
    there because y reuses x's variables for the unprotected features,
    so the DIMACS legend names y's protected variables only. A table's
    or a tree's labels are a cover of cubes, and the copies' selectors
    of class c are ``sel.x.c`` and ``sel.y.c``."""
    if k.class_count > CLASS_LIMIT:
        raise CapacityError(
            f"classifier with {k.class_count} classes exceeds the encoding "
            f"limit {CLASS_LIMIT}"
        )
    builder = _Builder()
    circuit = _Circuit()
    copy_x = _Copy(builder, space, "x")
    copy_y = _Copy(builder, space, "y", base=copy_x)
    # each formula is simplified and numbered once; both copies emit the
    # same nodes in the same order, each copy's gates in numbering order,
    # and a root the copies share is asserted once
    roots = [circuit.add(boolexpr.simplify(c.expr)) for c in constraints]
    asserted = [copy.emit(nodes, root) for copy in (copy_x, copy_y) for nodes, root in roots]
    builder.clauses += [(lit,) for lit in dict.fromkeys(asserted)]
    if isinstance(k, ExpressionClassifier):
        for formula in (Not(k.expr), k.expr):
            formula = boolexpr.simplify(formula)
            if formula == Const(False):
                continue
            nodes, root = circuit.add(formula)
            a = copy_x.emit(nodes, root)
            b = copy_y.emit(nodes, root)
            builder.add(-a, -b)  # one literal when the copies share the formula
        return builder.build()
    selectors = [
        [builder.new_var(f"sel.{tag}.{c}") for c in range(k.class_count)] for tag in "xy"
    ]
    # a selector occurs positively in cube clauses and negatively in the
    # copies' exclusion clauses only, so no at-most-one is needed: setting
    # an unforced one true satisfies nothing. A cube with no protected
    # test holds in both copies or in neither, so it holds no witness
    # pair: one clause, written once, rules it out
    for c, held, failed in _cover(k, space):
        if not any(i in space.protected for i, _ in held + failed):
            builder.clauses.append(copy_x.outside(held, failed) or (builder.const(False),))
            continue
        for copy, sel in zip((copy_x, copy_y), selectors):
            builder.clauses.append((*copy.outside(held, failed), sel[c]))
    builder.clauses += [(-a, -b) for a, b in zip(*selectors)]
    return builder.build()


def encode_ftu_counterexample(cs: ConstrainedSpace, k: Classifier) -> CnfFormula:
    """encode_ftu over the constrained space's features and constraints."""
    return encode_ftu(cs.space, cs.constraints, k)


def _cover(k: TableClassifier | TreeClassifier, space: FeatureSpace) -> list[tuple]:
    """Cubes ``(label, held, failed)``: ``held`` lists the (feature,
    value) tests the cube's instances pass, ``failed`` those they fail,
    and a value off the space's domain reads the false constant. The
    free region, the instances whose label no change of the protected
    features alone can alter, is covered by cubes with no label (None)
    and no protected test; an instance outside it lies in a cube of its
    own label and in none of another, and every such cube tests a
    protected feature.

    A table's free region is every rank whose projection off the
    protected features gets one label over the table's own domains (at
    most TABLE_LIMIT rows); its cubes are the region's prime implicants
    (explain._prime_cubes), and label c's are the primes of its rows and
    the free region that meet c's rows outside it. Such a prime tests a
    protected feature, for leaving them all free would reach a row of
    another label outside the free region. A free instance may lie in a
    prime of another label too; a free cube rules it out all the same.
    When the table's domains are the space's, type for type
    (classifier.same_domains), the space is the table's own and is used
    as it is; a table with wider or differently typed domains gets a
    space of its own domains.

    A tree's free region is cut where its walk, depth first and true
    branch first, reaches a node with no protected test on its path or
    below it: that node's path is one cube, for two instances equal off
    the protected features both reach it and then pass the same tests
    to the same leaf. Every other path ends in a leaf and carries its
    label. The nodes with a protected test at or below them are found
    first, in one pass over the reachable nodes with children before
    parents (TreeClassifier._order reversed): a test is one when it
    tests a protected feature or either child is one. The walk uses an
    explicit stack, since a chain of tests can be deeper than the
    recursion limit. A path's failed tests on a
    feature it passes a test on drop out: the value it passes implies
    them (by a one-hot group's at-most-one), and a chain of failed tests
    would make long clauses."""
    protected = space.protected
    if isinstance(k, TableClassifier):
        size = len(k.labels)
        if size > TABLE_LIMIT:
            raise CapacityError(
                f"table classifier with {size} rows exceeds the clause-expansion "
                f"limit {TABLE_LIMIT}"
            )
        # a space value the table lacks is an instance it gives no label
        if len(k.domains) != space.n or any(
            v not in d for f, d in zip(space.features, k.domains) for v in f.domain
        ):
            raise ModelSemanticError("table domains differ from the space's")
        if not same_domains([f.domain for f in space.features], k.domains):
            space = FeatureSpace(
                [replace(f, domain=d) for f, d in zip(space.features, k.domains)]
            )
        table = unconstrained(space)
        by_label = table.label_masks(k)
        seen = mixed = 0  # mixed: the ranks whose projection has two labels
        for rows in by_label.values():
            projection = table.exists(rows, protected)
            mixed |= seen & projection
            seen |= projection
        free = table.sel & ~mixed
        return [(None, cube, ()) for cube in explain._prime_cubes(table, free, free)] + [
            (c, cube, ())
            for c, rows in by_label.items()
            for cube in explain._prime_cubes(table, rows | free, rows & mixed)
        ]
    scoped: set[int] = set()  # the nodes with a protected test at or below them
    for node_id in reversed(k._order):
        node = k._by_id[node_id]
        if isinstance(node, TreeNode) and (
            node.feature in protected or node.if_true in scoped or node.if_false in scoped
        ):
            scoped.add(node_id)
    cover = []
    walk: list[tuple[int, tuple, tuple, bool]] = [(k.root, (), (), False)]
    while walk:
        node_id, held, failed, tested = walk.pop()  # tested: the path tests a protected feature
        node = k._by_id[node_id]
        if isinstance(node, TreeLeaf) or not (tested or node_id in scoped):
            passed = {f for f, _ in held}
            failed = tuple(t for t in failed if t[0] not in passed)
            cover.append((node.label if tested else None, held, failed))
            continue
        test = (node.feature, node.value)
        tested = tested or node.feature in protected
        walk.append((node.if_false, held, failed + (test,), tested))
        walk.append((node.if_true, held + (test,), failed, tested))
    return cover


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
        implied = self.implied
        for clause in formula.clauses:
            if len(clause) == 2:
                a, b = clause
                if a == b:
                    self.units.append(a)
                elif a != -b:  # a clause with both l and -l is dropped
                    implied[a].append(b)
                    implied[b].append(a)
                continue
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
    """Read the witness pair back out of a satisfying assignment; y
    takes x's value on each feature it has no variable for, which
    encode_ftu gives it for the unprotected ones only."""
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
    x = tuple(values["x"].get(f.index, f.domain[0]) for f in cs.space.features)
    y = tuple(values["y"].get(i, v) for i, v in enumerate(x))
    for tag, inst in (("x", x), ("y", y)):
        if not cs.contains(inst):
            raise AssertionError(f"decoded {tag} falls outside the constrained space")
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


def _ascii_int(token: str) -> int:
    """token as an int when it is [0-9]+, else ValueError: int() alone
    would also read a sign, underscores and other scripts' digits. A
    token longer than int()'s digit limit raises ValueError too."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(token)
    return int(token)


def parse_dimacs(text: str) -> CnfFormula:
    """Read DIMACS CNF: literals are -?[0-9]+ and the header's counts
    [0-9]+. A comment whose second word is a variable number names it."""
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
            if len(parts) == 3:
                try:
                    comments[_ascii_int(parts[1])] = parts[2]
                except ValueError:
                    pass  # a comment of plain text
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DocumentError(f"bad DIMACS header on line {lineno}")
            try:
                variable_count = _ascii_int(parts[2])
                expected = _ascii_int(parts[3])
            except ValueError:
                raise DocumentError(f"bad DIMACS header on line {lineno}") from None
            continue
        if variable_count is None:
            raise DocumentError(f"clause before header on line {lineno}")
        for tok in line.split():
            try:
                lit = -_ascii_int(tok[1:]) if tok.startswith("-") else _ascii_int(tok)
            except ValueError:
                raise DocumentError(f"bad literal {tok!r} on line {lineno}") from None
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
