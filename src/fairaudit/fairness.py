"""Decision- and classifier-level fairness verdicts under constraints.

The three classifier-level notions, strongest first:

  * universal fairness: every decision has only fair prime-implicant
    explanations;
  * existential fairness: every decision has at least one;
  * constrained FTU: two constrained instances agreeing on all
    unprotected features always receive the same label.

Looseness and disentangledness are the cheaper structural conditions
that tie FTU back to existential fairness. All witness choices are the
least in canonical enumeration order. An empty constrained space makes
every check vacuously true; callers can surface space_warnings().
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from . import satcheck
from .classifier import Classifier, TableClassifier
from .errors import DocumentError, FtuViolationError, ModelSemanticError
from .explain import (
    Decision,
    Explanation,
    all_axps,
    make_decision,
    pi_explanations,
)
from .model import (
    ConstrainedSpace,
    FeatureSpace,
    Instance,
    ScopeProfile,
    constraint_scope_profile,
)


class DecisionStatus(Enum):
    UNIVERSALLY_FAIR = "UNIVERSALLY_FAIR"
    EXISTENTIALLY_FAIR_ONLY = "EXISTENTIALLY_FAIR_ONLY"
    UNFAIR = "UNFAIR"


@dataclass(frozen=True)
class DecisionVerdict:
    decision: Decision
    status: DecisionStatus
    fair_pi: Explanation | None
    unfair_pi: Explanation | None


@dataclass(frozen=True)
class ClassifierVerdict:
    ftu: bool
    ftu_counterexample: tuple[Instance, Instance] | None
    existential: bool
    existential_failure: Decision | None
    universal: bool
    universal_failure: Decision | None
    universal_unfair_pi: Explanation | None
    loose: bool
    loose_violation: tuple[Instance, int] | None
    disentangled: bool
    disentangled_failure: Decision | None
    scope_profile: ScopeProfile


@dataclass(frozen=True)
class CausalGraph:
    vertices: frozenset[str]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        for a, b in self.edges:
            if a not in self.vertices or b not in self.vertices:
                raise DocumentError(f"edge ({a!r}, {b!r}) uses an undeclared vertex")

    def reachable_from(self, sources: Iterable[str]) -> frozenset[str]:
        out_edges: dict[str, list[str]] = {}
        for a, b in self.edges:
            out_edges.setdefault(a, []).append(b)
        seen = set(sources)
        stack = list(seen)
        while stack:
            for succ in out_edges.get(stack.pop(), ()):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return frozenset(seen)


def decision_verdict(cs: ConstrainedSpace, d: Decision) -> DecisionVerdict:
    pis = pi_explanations(cs, d)
    fair_pi = next((p for p in pis if p.fair), None)
    unfair_pi = next((p for p in pis if not p.fair), None)
    if unfair_pi is None:
        status = DecisionStatus.UNIVERSALLY_FAIR
    elif fair_pi is None:
        status = DecisionStatus.UNFAIR
    else:
        status = DecisionStatus.EXISTENTIALLY_FAIR_ONLY
    return DecisionVerdict(d, status, fair_pi, unfair_pi)


def ftu_at(cs: ConstrainedSpace, k: Classifier, x: Instance) -> bool:
    """No constrained instance agreeing with x off the protected set
    gets a different label."""
    cov = cs.coverage_mask(x, cs.space.unprotected)
    same = cs.label_mask(k, cs.labels(k)[cs.position(x)])
    return cov & ~same == 0


def check_ftu(
    cs: ConstrainedSpace, k: Classifier, engine: str = "exhaustive"
) -> tuple[bool, tuple[Instance, Instance] | None]:
    """Constrained FTU; on failure returns the least witness pair."""
    if engine == "exhaustive":
        return _check_ftu_exhaustive(cs, k)
    if engine == "search":
        formula = satcheck.encode_ftu_counterexample(cs, k)
        result = satcheck.search(formula)
        if not result.satisfiable:
            return True, None
        return False, satcheck.decode_model(formula, result.model, cs, k)
    raise ModelSemanticError(f"unknown engine {engine!r}")


def _check_ftu_exhaustive(
    cs: ConstrainedSpace, k: Classifier
) -> tuple[bool, tuple[Instance, Instance] | None]:
    unprotected = sorted(cs.space.unprotected)
    labels = cs.labels(k)
    groups: dict[tuple, list[int]] = {}
    for pos, x in enumerate(cs.instances):
        groups.setdefault(tuple(x[i] for i in unprotected), []).append(pos)
    for pos, x in enumerate(cs.instances):
        group = groups[tuple(x[i] for i in unprotected)]
        for other in group:
            if labels[other] != labels[pos]:
                # pos is the least member of the first conflicting group
                return False, (x, cs.instances[other])
    return True, None


def build_completion(
    cs: ConstrainedSpace, k: Classifier, default_label: int
) -> TableClassifier:
    """Total table agreeing with k on the constrained space and
    constant on each unseen unprotected-projection, hence FTU in the
    full space. Requires constrained FTU."""
    holds, pair = check_ftu(cs, k, "exhaustive")
    if not holds:
        raise FtuViolationError(
            "classifier violates constrained FTU; no completion exists", pair
        )
    if not 0 <= default_label < k.class_count:
        raise ModelSemanticError(f"default label {default_label} out of range")
    unprotected = sorted(cs.space.unprotected)
    by_projection: dict[tuple, int] = {}
    for x, label in zip(cs.instances, cs.labels(k)):
        by_projection.setdefault(tuple(x[i] for i in unprotected), label)
    domains = tuple(f.domain for f in cs.space.features)
    labels = tuple(
        by_projection.get(tuple(x[i] for i in unprotected), default_label)
        for x in itertools.product(*domains)
    )
    return TableClassifier(domains, labels, k.class_count)


def check_loose(
    cs: ConstrainedSpace,
) -> tuple[bool, tuple[Instance, int] | None]:
    """Classifier-independent: nowhere does a single protected literal
    strictly subsume the full unprotected assignment."""
    for x in cs.instances:
        p = _loose_violation_at(cs, x)
        if p is not None:
            return False, (x, p)
    return True, None


def check_loose_at(cs: ConstrainedSpace, x: Instance) -> bool:
    if not cs.contains(x):
        raise ModelSemanticError(f"instance {x!r} does not satisfy the constraints")
    return _loose_violation_at(cs, x) is None


def _loose_violation_at(cs: ConstrainedSpace, x: Instance) -> int | None:
    cov_n = cs.coverage_mask(x, cs.space.unprotected)
    for p in sorted(cs.space.protected):
        cov_p = cs.coverage_mask(x, (p,))
        if cov_n & ~cov_p == 0 and cov_n != cov_p:
            return p
    return None


def decision_disentangled(cs: ConstrainedSpace, k: Classifier, x: Instance) -> bool:
    """The unprotected set is a weak AXp here and no unfair weak AXp
    strictly subsumes it."""
    d = make_decision(cs, k, x)
    good = cs.label_mask(k, d.label)
    cov_n = cs.coverage_mask(x, cs.space.unprotected)
    if cov_n & ~good != 0:
        return False
    # an unfair weak AXp with coverage strictly above cov_n exists iff
    # some minimal AXp extended by one protected feature has one
    for e in all_axps(cs, d):
        for p in cs.space.protected:
            cov_q = cs.coverage_mask(x, e.features + (p,))
            if cov_n & ~cov_q == 0 and cov_n != cov_q:
                return False
    return True


def check_disentangled(
    cs: ConstrainedSpace, k: Classifier
) -> tuple[bool, Decision | None]:
    for x in cs.instances:
        if not decision_disentangled(cs, k, x):
            return False, make_decision(cs, k, x)
    return True, None


def check_decomposable(cs: ConstrainedSpace) -> bool:
    """Semantic counterpart of a scope profile without crossing
    constraints: the constrained space factorizes into its protected
    and unprotected projections."""
    protected = sorted(cs.space.protected)
    unprotected = sorted(cs.space.unprotected)
    proj_p = {tuple(x[i] for i in protected) for x in cs.instances}
    proj_n = {tuple(x[i] for i in unprotected) for x in cs.instances}
    # x -> (x on P, x on N) is one-to-one into proj_p x proj_n, so it is
    # onto exactly when the sizes match
    return len(proj_p) * len(proj_n) == len(cs.instances)


def classifier_verdict(cs: ConstrainedSpace, k: Classifier) -> ClassifierVerdict:
    """Aggregate every per-decision verdict plus the structural checks.

    Failures carry the least failing instance in canonical order.
    """
    ftu, ftu_pair = check_ftu(cs, k, "exhaustive")
    existential, existential_failure = True, None
    universal, universal_failure, universal_pi = True, None, None
    for x in cs.instances:
        if not existential:  # an unfair decision also broke universality
            break
        verdict = decision_verdict(cs, make_decision(cs, k, x))
        if verdict.status is DecisionStatus.UNFAIR:
            existential = False
            existential_failure = verdict.decision
        if universal and verdict.unfair_pi is not None:
            universal = False
            universal_failure = verdict.decision
            universal_pi = verdict.unfair_pi
    loose, loose_violation = check_loose(cs)
    disentangled, disentangled_failure = check_disentangled(cs, k)
    out = ClassifierVerdict(
        ftu=ftu,
        ftu_counterexample=ftu_pair,
        existential=existential,
        existential_failure=existential_failure,
        universal=universal,
        universal_failure=universal_failure,
        universal_unfair_pi=universal_pi,
        loose=loose,
        loose_violation=loose_violation,
        disentangled=disentangled,
        disentangled_failure=disentangled_failure,
        scope_profile=constraint_scope_profile(cs.space, cs.constraints),
    )
    _assert_verdict_chain(out)
    return out


def _assert_verdict_chain(v: ClassifierVerdict) -> None:
    # cross-checks; failure here means an implementation bug
    if v.universal and not v.existential:
        raise AssertionError("universal fairness without existential fairness")
    if v.existential and not v.ftu:
        raise AssertionError("existential fairness without constrained FTU")
    if v.loose and v.ftu and not v.existential:
        raise AssertionError("loose constraints and FTU must give existential fairness")
    if v.disentangled and not v.existential:
        raise AssertionError("disentangled classifier must be existentially fair")


def extend_protected_ftci(space: FeatureSpace, g: CausalGraph) -> FeatureSpace:
    """Protect every feature reachable in the causal graph from the
    currently protected ones; non-feature vertices only relay paths."""
    for f in space.features:
        if f.name not in g.vertices:
            raise DocumentError(f"feature {f.name!r} is not a vertex of the graph")
    sources = [f.name for f in space.features if f.protected]
    reachable = g.reachable_from(sources)
    protected = {
        f.index for f in space.features if f.protected or f.name in reachable
    }
    return space.with_protected(protected)


def parse_causal_graph(obj) -> CausalGraph:
    if not isinstance(obj, dict):
        raise DocumentError("graph document must be a JSON object")
    vertices = obj.get("vertices")
    edges = obj.get("edges", [])
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise DocumentError("'vertices' must be a list of strings")
    if not isinstance(edges, list):
        raise DocumentError("'edges' must be a list of [from, to] pairs")
    parsed = []
    for i, e in enumerate(edges):
        if not isinstance(e, list) or len(e) != 2 or not all(isinstance(v, str) for v in e):
            raise DocumentError(f"edge #{i} must be a [from, to] pair of strings")
        parsed.append((e[0], e[1]))
    return CausalGraph(frozenset(vertices), tuple(parsed))


def space_warnings(cs: ConstrainedSpace) -> tuple[str, ...]:
    """Conditions worth surfacing next to any verdict."""
    warnings = []
    if not cs.instances:
        warnings.append(
            "empty constrained space: all classifier-level checks hold vacuously"
        )
    for f in cs.space.features:
        if f.protected and len(f.domain) == 1:
            warnings.append(
                f"protected feature {f.name!r} has a singleton domain and can "
                "never witness unfairness"
            )
    return tuple(warnings)
