"""Sufficient reasons for single decisions under constraints.

A weak AXp is a feature set whose values at the decision's instance
force the classifier's output on every constrained instance. AXps are
the subset-minimal ones; prime-implicant explanations are the AXps
whose coverage is not properly contained in another AXp's coverage.

AXps are enumerated by the AXp/CXp duality (Ignatiev, Narodytska, Asher
& Marques-Silva, "From contrastive to abductive explanations and back
again", AI*IA 2020): a feature set is a weak AXp exactly when it meets
the difference set {i : y_i != x_i} of every constrained instance y
labelled otherwise, so the AXps are the minimal hitting sets of the
minimal difference sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import or_
from typing import Iterable, Sequence

from .classifier import Classifier
from .errors import CapacityError, ModelSemanticError
from .model import ConstrainedSpace, Instance

SUBSET_CAP = 20


class ExplanationKind(Enum):
    WEAK_AXP = "WEAK_AXP"
    AXP = "AXP"
    PI = "PI"


@dataclass(frozen=True)
class Explanation:
    features: tuple[int, ...]  # ascending feature indices
    kind: ExplanationKind
    fair: bool
    coverage_size: int


@dataclass(frozen=True)
class Decision:
    classifier: Classifier
    instance: Instance
    label: int


def make_decision(cs: ConstrainedSpace, k: Classifier, x: Instance) -> Decision:
    """Decisions exist only at instances inside the constrained space."""
    if not cs.contains(x):
        raise ModelSemanticError(
            f"instance {x!r} does not satisfy the constraints; "
            "no decision is defined there"
        )
    return Decision(k, x, cs.labels(k)[cs.position(x)])


def is_weak_axp(cs: ConstrainedSpace, d: Decision, features: Iterable[int]) -> bool:
    cov = cs.coverage_mask(d.instance, features)
    good = cs.label_mask(d.classifier, d.label)
    return cov & ~good == 0


def subsumes(
    cs: ConstrainedSpace, x: Instance, a: Iterable[int], b: Iterable[int]
) -> bool:
    """True when fixing x's values on b already forces x's values on a,
    i.e. b's coverage is contained in a's."""
    if not cs.contains(x):
        raise ModelSemanticError(f"instance {x!r} does not satisfy the constraints")
    cov_a = cs.coverage_mask(x, a)
    cov_b = cs.coverage_mask(x, b)
    return cov_b & ~cov_a == 0


def strictly_subsumes(
    cs: ConstrainedSpace, x: Instance, a: Iterable[int], b: Iterable[int]
) -> bool:
    if not cs.contains(x):
        raise ModelSemanticError(f"instance {x!r} does not satisfy the constraints")
    cov_a = cs.coverage_mask(x, a)
    cov_b = cs.coverage_mask(x, b)
    return cov_b & ~cov_a == 0 and cov_a != cov_b


def _axp_masks(cs: ConstrainedSpace, d: Decision) -> list[tuple[tuple[int, ...], int]]:
    """Subset-minimal weak AXps with their coverage masks, smallest
    first and lexicographic within a size."""
    n = cs.space.n
    if n > SUBSET_CAP:
        raise CapacityError(
            f"{n} features exceed the subset-enumeration cap {SUBSET_CAP}"
        )
    key = (d.classifier, d.instance)
    if key in cs.axp_cache:
        return cs.axp_cache[key]
    # difference sets of the other-label instances, feature i at bit i * w
    w, codes = cs.packed_codes()
    singles = [1 << (i * w) for i in range(n)]
    at = codes[cs.position(d.instance)]
    diffs = {c ^ at for c, lab in zip(codes, cs.labels(d.classifier)) if lab != d.label}
    if w > 1:  # fold each feature's field onto its lowest bit
        low = sum(singles)
        diffs = {low & reduce(or_, [z >> b for b in range(w)]) for z in diffs}
    minimal: list[int] = []
    for s in sorted(diffs, key=int.bit_count):
        if all(m & ~s for m in minimal):
            minimal.append(s)
    # Berge: extend the minimal transversals so far to the next set; an
    # extension can only be a superset of one that already hits that set
    hitting = [0]
    for s in minimal:
        hit = [t for t in hitting if t & s]
        hitting = hit + [
            t | e
            for t in hitting
            if not t & s
            for e in singles
            if e & s and all(h & ~(t | e) for h in hit)
        ]
    axps = sorted(
        (tuple(i for i, e in enumerate(singles) if t & e) for t in hitting),
        key=lambda feats: (len(feats), feats),
    )
    found = [(feats, cs.coverage_mask(d.instance, feats)) for feats in axps]
    cs.axp_cache[key] = found
    return found


def _explanation(
    cs: ConstrainedSpace, features: tuple[int, ...], kind: ExplanationKind, cov: int
) -> Explanation:
    fair = not (set(features) & cs.space.protected)
    return Explanation(features, kind, fair, cov.bit_count())


def all_axps(cs: ConstrainedSpace, d: Decision) -> list[Explanation]:
    """Every subset-minimal weak AXp, ordered by size then indices."""
    return [
        _explanation(cs, feats, ExplanationKind.AXP, cov)
        for feats, cov in _axp_masks(cs, d)
    ]


def pi_explanations(cs: ConstrainedSpace, d: Decision) -> list[Explanation]:
    """AXps not strictly subsumed by another AXp, in the all_axps order."""
    axps = _axp_masks(cs, d)
    out = []
    for feats, cov in axps:
        dominated = any(
            cov & ~other == 0 and cov != other for _, other in axps
        )
        if not dominated:
            out.append(_explanation(cs, feats, ExplanationKind.PI, cov))
    return out


def one_axp(
    cs: ConstrainedSpace, d: Decision, seed_order: Sequence[int] | None = None
) -> Explanation:
    """Deletion-based extraction of a single AXp.

    Walks seed_order (default: descending feature index) once, dropping
    every feature whose removal keeps the set a weak AXp. Works above
    the subset-enumeration cap.
    """
    n = cs.space.n
    if seed_order is None:
        seed_order = range(n - 1, -1, -1)
    order = list(seed_order)
    if sorted(order) != list(range(n)):
        raise ModelSemanticError("seed_order must be a permutation of the features")
    good = cs.label_mask(d.classifier, d.label)
    keep = set(range(n))
    for i in order:
        keep.discard(i)
        cov = cs.coverage_mask(d.instance, keep)
        if cov & ~good != 0:
            keep.add(i)
    feats = tuple(sorted(keep))
    return _explanation(
        cs, feats, ExplanationKind.AXP, cs.coverage_mask(d.instance, feats)
    )
