"""Seeded model families for the benchmark workloads.

Every model exists twice: as the JSON document fairaudit reads
(constraints as S-expressions, the classifier as an expression, a table
or a tree) and as plain Python predicates over instance tuples. The
output checks in checks.py read only the predicates.

All features are boolean. A seed never changes feature counts,
constraint families or classifier forms, so |F| and |F[C]| are the same
for every seed. What it does change is said for each family below.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Sequence

BOOL = (False, True)

Instance = tuple
Literal = tuple  # (feature index, polarity)


@dataclass(frozen=True)
class Constraint:
    text: str
    scope: frozenset
    holds: Callable[[Instance], bool]


@dataclass
class Model:
    name: str
    names: tuple  # feature names, in index order
    domains: tuple  # one tuple of values per feature
    protected: frozenset
    constraints: tuple  # of Constraint
    classifier: dict  # the document's classifier section
    label: Callable[[Instance], int]
    instance: Instance | None = None  # the decision explain-onehot asks about
    ftu: bool | None = None  # known by construction, when it is

    @property
    def n(self) -> int:
        return len(self.domains)

    @property
    def unprotected(self) -> tuple:
        return tuple(i for i in range(self.n) if i not in self.protected)

    @property
    def crossing(self) -> bool:
        """Some constraint's scope meets both sides of the partition."""
        return any(
            c.scope & self.protected and c.scope - self.protected
            for c in self.constraints
        )

    def satisfied(self, x: Instance) -> bool:
        return all(c.holds(x) for c in self.constraints)

    def full_size(self) -> int:
        size = 1
        for d in self.domains:
            size *= len(d)
        return size

    def document(self) -> str:
        return json.dumps(
            {
                "features": [
                    {"name": name, "domain": list(d), "protected": i in self.protected}
                    for i, (name, d) in enumerate(zip(self.names, self.domains))
                ],
                "constraints": [c.text for c in self.constraints],
                "classifier": self.classifier,
            }
        )

    def instance_arg(self) -> str:
        """The --instance argument naming self.instance."""
        return ",".join("1" if v else "0" for v in self.instance)


# ---------------------------------------------------------------------------
# Constraints


def _lit_text(lit: Literal) -> str:
    i, positive = lit
    return f"f{i}" if positive else f"(not f{i})"


def clause(lits: Sequence[Literal]) -> Constraint:
    """At least one literal holds."""
    lits = tuple(lits)
    return Constraint(
        "(or " + " ".join(_lit_text(l) for l in lits) + ")",
        frozenset(i for i, _ in lits),
        lambda x: any(x[i] == p for i, p in lits),
    )


def implies(a: Literal, b: Literal) -> Constraint:
    return Constraint(
        f"(implies {_lit_text(a)} {_lit_text(b)})",
        frozenset((a[0], b[0])),
        lambda x: x[a[0]] != a[1] or x[b[0]] == b[1],
    )


def exactly_one(group: Sequence[int]) -> Constraint:
    """One-hot group: exactly one of the features is true."""
    group = tuple(group)
    at_most = " ".join(
        f"(not (and f{a} f{b}))" for a, b in itertools.combinations(group, 2)
    )
    return Constraint(
        "(and (or " + " ".join(f"f{i}" for i in group) + ") " + at_most + ")",
        frozenset(group),
        lambda x: sum(x[i] for i in group) == 1,
    )


def _random_pair(rng: random.Random, pool: list) -> list:
    """Two literals on features drawn (and removed) from pool."""
    return [(pool.pop(rng.randrange(len(pool))), rng.random() < 0.5) for _ in range(2)]


# ---------------------------------------------------------------------------
# Classifiers


def random_dnf(rng: random.Random, features: Sequence[int], terms: int, width: int):
    return [
        tuple((i, rng.random() < 0.5) for i in rng.sample(list(features), width))
        for _ in range(terms)
    ]


def read_once_dnf(rng: random.Random, features: Sequence[int], widths: Sequence[int]):
    """Terms on disjoint features: the function's shape is fixed and only
    which features, and their polarities, vary."""
    order = rng.sample(list(features), sum(widths))
    terms, start = [], 0
    for w in widths:
        terms.append(tuple((i, rng.random() < 0.5) for i in order[start:start + w]))
        start += w
    return terms


def dnf_text(dnf) -> str:
    return "(or " + " ".join(
        "(and " + " ".join(_lit_text(l) for l in term) + ")" for term in dnf
    ) + ")"


def dnf_label(dnf) -> Callable[[Instance], int]:
    return lambda x: int(any(all(x[i] == p for i, p in term) for term in dnf))


def expression_form(dnf) -> dict:
    return {"form": "expression", "expr": dnf_text(dnf)}


def table_form(domains, label) -> dict:
    rows = [list(x) + [label(x)] for x in itertools.product(*domains)]
    return {"form": "table", "rows": rows, "classes": 2}


def tree_form(reads: Sequence[int], leaf, twist=None) -> dict:
    """A complete tree testing `reads` in order, each node `f = true`.

    leaf(projection) labels the leaf reached by that projection onto
    `reads`. twist = (projection, p) replaces that one leaf with a node
    testing protected feature p, whose true branch flips the label.
    """
    nodes: list = []

    def build(depth: int, proj: tuple) -> int:
        nid = len(nodes)
        nodes.append(None)
        if depth == len(reads):
            label = leaf(proj)
            if twist is not None and proj == twist[0]:
                nodes[nid] = {
                    "id": nid, "feature": f"f{twist[1]}", "value": True,
                    "if_true": nid + 1, "if_false": nid + 2,
                }
                nodes.append({"id": nid + 1, "label": 1 - label})
                nodes.append({"id": nid + 2, "label": label})
            else:
                nodes[nid] = {"id": nid, "label": label}
            return nid
        if_true = build(depth + 1, proj + (True,))
        if_false = build(depth + 1, proj + (False,))
        nodes[nid] = {
            "id": nid, "feature": f"f{reads[depth]}", "value": True,
            "if_true": if_true, "if_false": if_false,
        }
        return nid

    build(0, ())
    return {"form": "tree", "nodes": nodes, "classes": 2}


def _projection(x: Instance, features: Sequence[int]) -> tuple:
    return tuple(x[i] for i in features)


# ---------------------------------------------------------------------------
# Workload families


def _names(n: int) -> tuple:
    return tuple(f"f{i}" for i in range(n))


def every_fourth_protected(n: int) -> frozenset:
    return frozenset(range(0, n, 4))


def audit_fair(seed: int, n: int = 11) -> list[Model]:
    """One model in expression, table and tree form.

    Every 4th feature is protected. One clause pairs two protected
    features and two clauses pair unprotected ones, so no constraint
    crosses the partition. The classifier is a read-once DNF over
    unprotected features only, hence FTU, and by the collapse for
    non-crossing constraints also existentially and universally fair.

    A seed draws an isomorphic copy of one base model: it permutes the
    protected features among themselves and the unprotected ones among
    themselves, and flips each feature's polarity. Every seed has the
    same AXps up to renaming, hence the same work. With a random model
    per seed, the number of weak subsets the lattice scan meets swung by
    half from one seed to another.
    """
    base = random.Random("audit-fair:base")
    protected = every_fourth_protected(n)
    unprotected = [i for i in range(n) if i not in protected]
    p_pool, n_pool = sorted(protected), list(unprotected)
    pairs = [_random_pair(base, p_pool), _random_pair(base, n_pool), _random_pair(base, n_pool)]
    widths = [min(3, len(unprotected) - s) for s in range(0, len(unprotected), 3)]
    terms = read_once_dnf(base, unprotected, widths)

    rng = random.Random(f"audit-fair:{seed}")
    perm = {}
    for side in (sorted(protected), unprotected):
        perm.update(zip(side, rng.sample(side, len(side))))
    flip = {i: rng.random() < 0.5 for i in range(n)}

    def rename(lits):
        return tuple((perm[i], p != flip[i]) for i, p in lits)

    constraints = tuple(clause(rename(pair)) for pair in pairs)
    dnf = [rename(term) for term in terms]
    label = dnf_label(dnf)
    domains = (BOOL,) * n
    forms = {
        "expression": expression_form(dnf),
        "table": table_form(domains, label),
        "tree": tree_form(unprotected, lambda proj: label(_lift(proj, unprotected, n))),
    }
    return [
        Model(f"audit-fair/{form}", _names(n), domains, protected, constraints, k, label, ftu=True)
        for form, k in forms.items()
    ]


def _lift(proj: tuple, features: Sequence[int], n: int) -> Instance:
    """An instance with proj on `features` and false elsewhere."""
    x = [False] * n
    for i, v in zip(features, proj):
        x[i] = v
    return tuple(x)


def onehot(seed: int, n: int) -> Model:
    """One-hot groups of 4 (the last absorbs the remainder); the first
    group is protected, and one implication crosses from it into the
    second group. |F[C]| is a small fraction of |F|."""
    rng = random.Random(f"onehot-{n}:{seed}")
    bounds = list(range(0, n - n % 4, 4))
    groups = [list(range(s, s + 4)) for s in bounds[:-1]]
    groups.append(list(range(bounds[-1], n)))
    protected = frozenset(groups[0])
    constraints = tuple(exactly_one(g) for g in groups) + (
        implies((rng.choice(groups[0]), True), (rng.choice(groups[1]), True)),
    )
    dnf = random_dnf(rng, range(n), terms=6, width=3)
    model = Model(
        f"explain-onehot/onehot-{n}", _names(n), (BOOL,) * n, protected, constraints,
        expression_form(dnf), dnf_label(dnf),
    )
    while True:
        hot = {rng.choice(g) for g in groups}
        x = tuple(i in hot for i in range(n))
        if model.satisfied(x):
            model.instance = x
            return model


def loose(seed: int, n: int) -> Model:
    """Every 4th feature protected; three clauses on disjoint random
    pairs, so |F[C]| = (3/4)^3 |F|, a large fraction of |F|.

    The decision explained has its first four features true. Coverage
    masks are ints over canonical positions, so their size, and the
    dense lattice's memory, follow the instance's leading values; fixing
    those keeps peak memory and AND costs the same for every seed."""
    rng = random.Random(f"loose-{n}:{seed}")
    pool = list(range(4, n))
    constraints = tuple(clause(_random_pair(rng, pool)) for _ in range(3))
    dnf = random_dnf(rng, range(n), terms=6, width=3)
    model = Model(
        f"explain-onehot/loose-{n}", _names(n), (BOOL,) * n, every_fourth_protected(n),
        constraints, expression_form(dnf), dnf_label(dnf),
    )
    while True:
        x = (True,) * 4 + tuple(rng.random() < 0.5 for _ in range(n - 4))
        if model.satisfied(x):
            model.instance = x
            return model


def explain_onehot(seed: int) -> list[Model]:
    """Both families on each side of the dense/sparse lattice switch at
    16 features."""
    return [onehot(seed, 16), loose(seed, 16), onehot(seed, 17), loose(seed, 17)]


def _ftu_model(rng: random.Random, name: str, n: int, form: str, fair: bool) -> Model:
    """Fixed constraint structure (only polarities vary): one protected
    clause on f0, f4 and clauses on consecutive unprotected pairs.
    Labels are random over the unprotected features. An unfair model
    flips the label where f8, a free protected feature, is true at one
    unprotected projection: the first-occurring projection nearest the
    middle of the canonical order, so the search stops about half way."""
    protected = every_fourth_protected(n)
    unprotected = [i for i in range(n) if i not in protected]
    pol = lambda: rng.random() < 0.5
    constraints = [clause([(0, pol()), (4, pol())])]
    for a, b in zip(unprotected[0::2], unprotected[1::2]):
        constraints.append(clause([(a, pol()), (b, pol())]))
    constraints = tuple(constraints)
    table = {
        proj: rng.randrange(2) for proj in itertools.product(BOOL, repeat=len(unprotected))
    }
    domains = (BOOL,) * n
    twist = None
    if not fair:
        firsts: dict = {}
        for x in itertools.product(*domains):
            if all(c.holds(x) for c in constraints):
                firsts.setdefault(_projection(x, unprotected), len(firsts))
        order = sorted(firsts, key=firsts.get)
        twist = (order[len(order) // 2], 8)

    def label(x: Instance) -> int:
        proj = _projection(x, unprotected)
        flip = twist is not None and proj == twist[0] and x[twist[1]]
        return table[proj] ^ flip

    if form == "table":
        k = table_form(domains, label)
    else:
        k = tree_form(unprotected, table.__getitem__, twist)
    return Model(name, _names(n), domains, protected, constraints, k, label, ftu=fair)


def ftu_search(seed: int) -> list[Model]:
    """Four FTU models (UNSAT queries) and two violators (SAT)."""
    rng = random.Random(f"ftu-search:{seed}")
    plan = [
        ("table-fair-a", 11, "table", True),
        ("tree-fair-a", 12, "tree", True),
        ("table-fair-b", 11, "table", True),
        ("tree-fair-b", 12, "tree", True),
        ("table-unfair", 11, "table", False),
        ("tree-unfair", 12, "tree", False),
    ]
    return [
        _ftu_model(rng, f"ftu-search/{name}", n, form, fair)
        for name, n, form, fair in plan
    ]


WORKLOADS = {
    "audit-fair": audit_fair,
    "explain-onehot": explain_onehot,
    "ftu-search": ftu_search,
}
