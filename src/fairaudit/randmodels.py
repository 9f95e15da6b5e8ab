"""Seeded random models for the property-test corpus.

Kept inside the package so both the pytest suite and the runnable
scripts draw from the same distribution. Everything is driven by an
explicit random.Random, never the global RNG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .boolexpr import And, BoolExpr, Const, Eq, Iff, Implies, Le, Lt, Not, Or, Var
from .classifier import (
    Classifier,
    ExpressionClassifier,
    TableClassifier,
    TreeClassifier,
    TreeLeaf,
    TreeNode,
    expression_to_tree,
    to_table,
)
from .model import Constraint, ConstraintSet, Feature, FeatureSpace


@dataclass(frozen=True)
class RandomModel:
    space: FeatureSpace
    constraints: ConstraintSet
    classifier: Classifier


def random_space(
    rng: random.Random,
    max_features: int = 8,
    max_domain: int = 3,
    min_features: int = 2,
) -> FeatureSpace:
    n = rng.randint(min_features, max_features)
    features = []
    for i in range(n):
        if rng.random() < 0.75:
            domain: tuple = (False, True)
        else:
            size = rng.randint(2, max_domain)
            domain = tuple(range(size))
        features.append(Feature(i, f"f{i}", domain, protected=rng.random() < 0.4))
    # keep both sides of the partition inhabited most of the time
    if all(f.protected for f in features):
        features[0] = Feature(0, "f0", features[0].domain, False)
    if not any(f.protected for f in features) and rng.random() < 0.9:
        j = rng.randrange(n)
        features[j] = Feature(j, f"f{j}", features[j].domain, True)
    return FeatureSpace(features)


def random_expr(
    rng: random.Random,
    space: FeatureSpace,
    allowed: tuple[int, ...],
    depth: int = 3,
) -> BoolExpr:
    if not allowed:
        return Const(rng.random() < 0.5)
    if depth == 0 or rng.random() < 0.3:
        return _random_atom(rng, space, allowed)
    op = rng.choice(("not", "and", "or", "implies", "iff"))
    if op == "not":
        return Not(random_expr(rng, space, allowed, depth - 1))
    if op in ("and", "or"):
        width = rng.randint(2, 3)
        args = tuple(random_expr(rng, space, allowed, depth - 1) for _ in range(width))
        return And(args) if op == "and" else Or(args)
    lhs = random_expr(rng, space, allowed, depth - 1)
    rhs = random_expr(rng, space, allowed, depth - 1)
    return Implies(lhs, rhs) if op == "implies" else Iff(lhs, rhs)


def _random_atom(rng: random.Random, space: FeatureSpace, allowed) -> BoolExpr:
    i = rng.choice(allowed)
    feat = space.features[i]
    if feat.is_boolean:
        if rng.random() < 0.7:
            return Var(i)
        return Eq(i, rng.choice(feat.domain))
    kind = rng.random()
    if kind < 0.5:
        return Eq(i, rng.choice(feat.domain))
    bound = rng.choice(feat.domain)
    return Le(i, bound) if kind < 0.75 else Lt(i, bound)


def random_constraints(
    rng: random.Random,
    space: FeatureSpace,
    profile: str = "any",
    max_constraints: int = 2,
) -> ConstraintSet:
    """profile picks where constraint scopes may fall: 'any', 'none',
    'only_p', 'only_n', or 'separate'."""
    if profile == "none":
        return ConstraintSet()
    protected = tuple(sorted(space.protected))
    unprotected = tuple(sorted(space.unprotected))
    count = rng.randint(1, max_constraints)
    pools: list[tuple[int, ...]] = []
    if profile == "only_p":
        pools = [protected] * count
    elif profile == "only_n":
        pools = [unprotected] * count
    elif profile == "separate":
        pools = [protected if i % 2 == 0 else unprotected for i in range(count)]
    else:
        everything = tuple(range(space.n))
        pools = [everything] * count
    constraints = []
    for pool in pools:
        if not pool:
            continue
        width = rng.randint(1, min(3, len(pool)))
        chosen = tuple(rng.sample(pool, width))
        constraints.append(Constraint(random_expr(rng, space, chosen, depth=2)))
    return ConstraintSet(tuple(constraints))


def random_classifier(rng: random.Random, space: FeatureSpace) -> Classifier:
    expr = random_expr(rng, space, tuple(range(space.n)), depth=3)
    roll = rng.random()
    base = ExpressionClassifier(expr)
    if roll < 0.7:
        return base
    if roll < 0.85:
        return to_table(base, space)
    return expression_to_tree(expr, space)


def random_model(
    rng: random.Random,
    profile: str = "any",
    max_features: int = 8,
    max_domain: int = 3,
) -> RandomModel:
    space = random_space(rng, max_features=max_features, max_domain=max_domain)
    constraints = random_constraints(rng, space, profile)
    return RandomModel(space, constraints, random_classifier(rng, space))


def random_partly_protected(rng: random.Random) -> RandomModel:
    """A table or a tree whose label reads a protected feature on some
    projections only, under random constraints: 2-5 features, domains of
    up to 3 values, some protected and some not. The unprotected values
    give a base label, and on a random part of the projections, never
    none and never all, the test q = v of one protected feature moves it
    on by one class. A tree tests unprotected features above its leaves
    (up to 3 deep), and the leaves it picks become tests of q = v."""
    n = rng.randint(2, 5)
    protected = set(rng.sample(range(n), rng.randint(1, n - 1)))
    features = []
    for i in range(n):
        domain = (False, True) if rng.random() < 0.6 else tuple(range(rng.randint(2, 3)))
        features.append(Feature(i, f"f{i}", domain, i in protected))
    space = FeatureSpace(features)
    constraints = random_constraints(rng, space)
    classes = rng.randint(2, 3)
    q = rng.choice(sorted(protected))
    v = rng.choice(space.features[q].domain)
    unprotected = sorted(space.unprotected)
    if rng.random() < 0.5:
        domains = tuple(f.domain for f in space.features)
        projections = list(product(*(domains[i] for i in unprotected)))
        base = {p: rng.randrange(classes) for p in projections}
        reads = set(rng.sample(projections, rng.randint(1, len(projections) - 1)))
        labels = []
        for x in product(*domains):
            p = tuple(x[i] for i in unprotected)
            labels.append((base[p] + (p in reads and x[q] == v)) % classes)
        return RandomModel(space, constraints, TableClassifier(domains, tuple(labels), classes))
    nodes: list = []
    leaves: list[int] = []

    def grow(depth: int, tested: frozenset) -> int:
        node_id = len(nodes)
        nodes.append(None)
        tests = [(i, w) for i in unprotected for w in space.features[i].domain]
        tests = [t for t in tests if t not in tested]
        if tested and (not depth or not tests or rng.random() < 0.3):
            leaves.append(node_id)  # the root is always a test: two leaves or more
            return node_id
        i, w = rng.choice(tests)
        if_true = grow(depth - 1, tested | {(i, w)})
        if_false = grow(depth - 1, tested | {(i, w)})
        nodes[node_id] = TreeNode(node_id, i, w, if_true, if_false)
        return node_id

    grow(3, frozenset())
    reads = set(rng.sample(leaves, rng.randint(1, len(leaves) - 1)))
    for leaf in leaves:
        base = rng.randrange(classes)
        if leaf in reads:
            t, f = len(nodes), len(nodes) + 1
            nodes += [TreeLeaf(t, (base + 1) % classes), TreeLeaf(f, base)]
            nodes[leaf] = TreeNode(leaf, q, v, t, f)
        else:
            nodes[leaf] = TreeLeaf(leaf, base)
    return RandomModel(space, constraints, TreeClassifier(tuple(nodes), 0, classes))


def random_dnf(rng: random.Random, variables: int) -> list[list[tuple[int, bool]]]:
    """A DNF as a list of terms, each term a list of (variable index,
    positive?) literals. Biased so that tautologies do occur."""
    terms = []
    if rng.random() < 0.25:
        # a complementary pair of single-literal terms is a tautology
        v = rng.randrange(variables)
        terms.append([(v, True)])
        terms.append([(v, False)])
    for _ in range(rng.randint(1, 4)):
        width = rng.randint(1, min(3, variables))
        chosen = rng.sample(range(variables), width)
        terms.append([(v, rng.random() < 0.5) for v in chosen])
    return terms


def eval_dnf(terms: list[list[tuple[int, bool]]], assignment: tuple[bool, ...]) -> bool:
    return any(
        all(assignment[v] == positive for v, positive in term) for term in terms
    )


def dnf_to_expr(terms: list[list[tuple[int, bool]]], offset: int) -> BoolExpr:
    """Build the DNF over features offset..offset+n-1."""
    parts = []
    for term in terms:
        lits = [
            Var(offset + v) if positive else Not(Var(offset + v))
            for v, positive in term
        ]
        parts.append(lits[0] if len(lits) == 1 else And(tuple(lits)))
    return parts[0] if len(parts) == 1 else Or(tuple(parts))
