"""Decision- and classifier-level fairness verdicts under constraints.

The three classifier-level notions, strongest first:

  * universal fairness: every decision has only fair prime-implicant
    explanations;
  * existential fairness: every decision has at least one;
  * constrained FTU: two constrained instances agreeing on all
    unprotected features always receive the same label.

Looseness and disentangledness are the cheaper structural conditions
that tie FTU back to existential fairness. FTU, its completion,
looseness and decomposability are projections of rank masks
(ConstrainedSpace.exists), and FTU fails exactly at
ConstrainedSpace.label_clash. All witness choices are the least in
canonical enumeration order. An empty constrained space makes every
check vacuously true; callers can surface space_warnings().
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import compress
from math import prod
from typing import Iterable, Iterator

from . import explain, satcheck
from .classifier import Classifier, TableClassifier
from .errors import DocumentError, FtuViolationError, ModelSemanticError
from .explain import Decision, Explanation, Prime, all_axps, make_decision, reasons
from .model import ConstrainedSpace, FeatureSpace, Instance, bit_flags


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
    axps: tuple[Explanation, ...]
    pis: tuple[Explanation, ...]


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
    """Everything known about one decision, from one AXp search."""
    return _verdict(d, *reasons(cs, d))


def _verdict(
    d: Decision, axps: tuple[Explanation, ...], pis: tuple[Explanation, ...]
) -> DecisionVerdict:
    fair_pi = next((p for p in pis if p.fair), None)
    unfair_pi = next((p for p in pis if not p.fair), None)
    if unfair_pi is None:
        status = DecisionStatus.UNIVERSALLY_FAIR
    elif fair_pi is None:
        status = DecisionStatus.UNFAIR
    else:
        status = DecisionStatus.EXISTENTIALLY_FAIR_ONLY
    return DecisionVerdict(d, status, fair_pi, unfair_pi, axps, pis)


def decision_verdicts(cs: ConstrainedSpace, k: Classifier) -> Iterator[DecisionVerdict]:
    """Every decision's verdict in canonical order, read off the primes
    that cover it: its AXps, and its PI-explanations among them."""
    found = explain.primes(cs, k)
    covering: dict[int, list[Prime]] = {}  # per rank, its primes in order
    for t in found:
        for r in compress(range(cs.size), bit_flags(t.cov, cs.size)):
            covering.setdefault(r, []).append(t)
    # every decision has an AXp, so the covered ranks are F[C]'s
    for x, r in zip(cs.instances, sorted(covering), strict=True):
        at = covering[r]
        d = Decision(k, x, at[0].label)
        yield _verdict(d, tuple(t.axp for t in at), tuple(t.pi for t in at if t.pi))


def ftu_at(cs: ConstrainedSpace, k: Classifier, x: Instance) -> bool:
    """No constrained instance agreeing with x off the protected set
    gets a different label."""
    cov = cs.coverage_mask(x, cs.space.unprotected)
    same = cs.label_mask(k, cs.label_at(k, x))
    return cov & same == cov


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
    clash = cs.label_clash(k)
    if not clash:
        return True, None
    x = cs.least(clash)
    same = cs.label_mask(k, cs.label_at(k, x))
    return False, (x, cs.least(cs.coverage_mask(x, cs.space.unprotected) & ~same))


def _projection_count(cs: ConstrainedSpace, mask: int, forget: Iterable[int]) -> int:
    """How many distinct projections the mask's ranks have, ``forget`` forgotten."""
    cube = prod(len(cs.space.features[j].domain) for j in forget)
    return cs.exists(mask, forget).bit_count() // cube


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
    labels = [default_label] * cs.size
    for c, m in cs.label_masks(k).items():  # projections disjoint under FTU
        e = cs.exists(m, cs.space.protected)
        for r in compress(range(cs.size), bit_flags(e, cs.size)):
            labels[r] = c
    domains = tuple(f.domain for f in cs.space.features)
    return TableClassifier(domains, tuple(labels), k.class_count)


def check_loose(
    cs: ConstrainedSpace,
) -> tuple[bool, tuple[Instance, int] | None]:
    """Classifier-independent: nowhere does a single protected literal
    strictly subsume the full unprotected assignment."""
    found = [(m & -m, p) for p, m in loose_violators(cs).items() if m]
    if not found:
        return True, None
    lowest, p = min(found)  # the lowest rank, then the least protected feature
    return False, (cs.least(lowest), p)


def check_loose_at(cs: ConstrainedSpace, x: Instance) -> bool:
    if not cs.contains(x):
        raise ModelSemanticError(f"instance {x!r} does not satisfy the constraints")
    return not any(m >> cs.rank(x) & 1 for m in loose_violators(cs).values())


def loose_violators(cs: ConstrainedSpace) -> dict[int, int]:
    """Per protected p, ascending, the ranks x in F[C] whose unprotected
    cube has only p = x_p, a value some other unprotected cube has too.
    Classifier-independent, so computed once per space."""
    protected = cs.space.protected

    def make() -> dict[int, int]:
        return {
            p: sum(  # disjoint across p's values
                cs.whole(m)
                for m in cs.rank_masks[p].values()
                if _projection_count(cs, cs.sel & m, protected) >= 2
            )
            for p in sorted(protected)
        }

    return cs.memo(loose_violators, make)


def decision_disentangled(cs: ConstrainedSpace, k: Classifier, x: Instance) -> bool:
    """The unprotected set is a weak AXp here and no unfair weak AXp
    strictly subsumes it."""
    d = make_decision(cs, k, x)
    return _disentangled(cs, d, all_axps(cs, d))


def _disentangled(cs: ConstrainedSpace, d: Decision, axps: Iterable[Explanation]) -> bool:
    x = d.instance
    cov_n = cs.coverage_mask(x, cs.space.unprotected)
    if cov_n & cs.label_mask(d.classifier, d.label) != cov_n:
        return False
    # an unfair weak AXp with coverage strictly above cov_n exists iff
    # some minimal AXp extended by one protected feature has one
    for e in axps:
        cov_e = cs.coverage_mask(x, e.features)
        for p in cs.space.protected:
            cov_q = cov_e & cs.rank_masks[p][x[p]]
            if cov_n & cov_q == cov_n and cov_n != cov_q:
                return False
    return True


def check_disentangled(
    cs: ConstrainedSpace, k: Classifier
) -> tuple[bool, Decision | None]:
    """Whether every decision is disentangled, and else the least one
    that is not, as classifier_verdict finds them."""
    v = classifier_verdict(cs, k)
    return v.disentangled, v.disentangled_failure


def _disentangled_mask(
    cs: ConstrainedSpace, k: Classifier, found: Iterable[Prime]
) -> int:
    """The ranks of F[C] whose decisions are disentangled, where found
    holds every AXp of those decisions.

    Call a rank's unprotected cube the ranks of F[C] with its unprotected
    values. The unprotected set is a weak AXp at the ranks whose cube
    lies inside their label. An unfair weak AXp above it, covering
    strictly more, exists where some prime t extended by a protected
    literal, M = cov(t) & [p = v], holds the rank's cube and spans
    another unprotected cube: at the ranks whose cube lies inside both
    cov(t) and [p = v], when M spans two cubes or more."""
    protected = cs.space.protected
    holds = cs.sel & ~cs.label_clash(k)
    literals = [(m, cs.whole(m)) for p in protected for m in cs.rank_masks[p].values()]
    pinned = 0  # the ranks whose cube fixes some protected value
    for _, w in literals:
        pinned |= w
    for t in found:
        if not t.cov & holds & pinned:
            continue
        inside = cs.whole(t.cov) & holds
        for m, w in literals:
            hit = inside & w
            if hit and _projection_count(cs, t.cov & m, protected) >= 2:
                holds &= ~hit
    return holds


def _first(cs: ConstrainedSpace, k: Classifier, mask: int) -> Decision | None:
    """The decision at the lowest rank of the mask, None when it is 0."""
    return make_decision(cs, k, cs.least(mask)) if mask else None


def check_decomposable(cs: ConstrainedSpace) -> bool:
    """Semantic counterpart of a scope profile without crossing
    constraints: the constrained space factorizes into its protected
    and unprotected projections."""
    # x -> (x on P, x on N) is one-to-one into the product of the two
    # projections, so it is onto exactly when the sizes match
    on_p = _projection_count(cs, cs.sel, cs.space.unprotected)
    return on_p * _projection_count(cs, cs.sel, cs.space.protected) == len(cs)


def classifier_verdict(cs: ConstrainedSpace, k: Classifier) -> ClassifierVerdict:
    """Aggregate the decision verdicts plus the structural checks.

    Failures carry the least failing instance in canonical order. The
    decision verdicts are read off masks of F[C]'s ranks built from the
    primes: a decision is unfair outside the coverage of the fair
    PI-explanations, has an unfair one inside the coverage of the
    unfair ones, and its disentangledness is _disentangled_mask's bit.

    When FTU fails at x, the primes are found only for the ranks up to
    x: every fair set's cube at x holds x's FTU partner, so x has no
    fair AXp and is unfair. Every witness then lies at or before x: the
    first unfair decision is not disentangled either, since a fair AXp
    inside the unprotected set is subsumed, at the end of a chain of
    PIs, by an unfair one covering strictly more.
    """
    ftu, ftu_pair = check_ftu(cs, k, "exhaustive")
    upto = None if ftu else cs.rank(ftu_pair[0])
    found = explain.primes(cs, k, upto)
    fair_cov = unfair_cov = 0
    for t in found:
        if t.pi and t.pi.fair:
            fair_cov |= t.cov
        elif t.pi:
            unfair_cov |= t.cov
    within = explain.within(cs, upto)
    unfair = within & ~fair_cov
    partly = within & unfair_cov
    tangled = within & ~_disentangled_mask(cs, k, found)
    unfair_pi = None
    if partly:
        low = partly & -partly
        unfair_pi = next(t.pi for t in found if t.pi and not t.pi.fair and t.cov & low)
    loose, loose_violation = check_loose(cs)
    out = ClassifierVerdict(
        ftu=ftu,
        ftu_counterexample=ftu_pair,
        existential=not unfair,
        existential_failure=_first(cs, k, unfair),
        universal=not partly,
        universal_failure=_first(cs, k, partly),
        universal_unfair_pi=unfair_pi,
        loose=loose,
        loose_violation=loose_violation,
        disentangled=not tangled,
        disentangled_failure=_first(cs, k, tangled),
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
    if not len(cs):
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
