"""Sufficient reasons for single decisions under constraints.

A weak AXp is a feature set whose values at the decision's instance
force the classifier's output on every constrained instance. AXps are
the subset-minimal ones; prime-implicant explanations are the AXps
whose coverage is not properly contained in another AXp's coverage.

Two engines find the AXps, with the same answers:

  * Berge's algorithm, one decision at a time, by the AXp/CXp duality
    (Ignatiev, Narodytska, Asher & Marques-Silva, "From contrastive to
    abductive explanations and back again", AI*IA 2020): a feature set
    is a weak AXp exactly when it meets the difference set
    {i : y_i != x_i} of every constrained instance y labelled
    otherwise, so the AXps are the minimal hitting sets of the minimal
    difference sets. Its work is one step per such y.
  * the forgetting lattice, every decision at once: S is a weak AXp at
    x exactly when x lies outside the projection of the instances
    labelled otherwise with the features off S forgotten (Lin & Reiter,
    "Forget it!", 1994; Darwiche & Marquis, "A knowledge compilation
    map", JAIR 2002). One depth-first walk over the feature sets, each
    set's projections one ConstrainedSpace.exists from its parent's,
    costs about 2^n * n * ceil(|F| / 64) mask-word steps.

A walk over every decision (decision_reasons) starts with Berge and
counts its steps as it goes; once the next decision would take them
past the lattice's count over BERGE_STEP_WORDS, one lattice walk finds
the AXps of that decision and of every later one. Whether the caller
reads every decision or stops early, the walk so pays a small multiple
of what the better engine would have.
One decision (reasons, and so the explain command) always takes Berge.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

from .classifier import Classifier
from .errors import CapacityError, ModelSemanticError
from .model import ConstrainedSpace, Instance

SUBSET_CAP = 20

# a Berge step, one difference set, cost as much as 18 to 108 counted
# 64-bit word steps of the lattice on dense boolean spaces of 11 to 14
# features (more on one-hot ones, where the walk ends branches early).
# Where it costs r, a walk pays at most 1 + max(r, R) / min(r, R) times
# the better engine for this R, so 3.7 times over that range
BERGE_STEP_WORDS = 48


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
    return cov & good == cov


def subsumes(
    cs: ConstrainedSpace, x: Instance, a: Iterable[int], b: Iterable[int]
) -> bool:
    """True when fixing x's values on b already forces x's values on a,
    i.e. b's coverage is contained in a's."""
    if not cs.contains(x):
        raise ModelSemanticError(f"instance {x!r} does not satisfy the constraints")
    cov_a = cs.coverage_mask(x, a)
    cov_b = cs.coverage_mask(x, b)
    return cov_b & cov_a == cov_b


def strictly_subsumes(
    cs: ConstrainedSpace, x: Instance, a: Iterable[int], b: Iterable[int]
) -> bool:
    if not cs.contains(x):
        raise ModelSemanticError(f"instance {x!r} does not satisfy the constraints")
    cov_a = cs.coverage_mask(x, a)
    cov_b = cs.coverage_mask(x, b)
    return cov_b & cov_a == cov_b and cov_a != cov_b


def _check_cap(n: int) -> None:
    if n > SUBSET_CAP:
        raise CapacityError(
            f"{n} features exceed the subset-enumeration cap {SUBSET_CAP}"
        )


def _berge_axps(cs: ConstrainedSpace, d: Decision) -> list[tuple[int, ...]]:
    """One decision's subset-minimal weak AXps, smallest first and
    lexicographic within a size: Berge's algorithm on the difference
    sets."""
    n = cs.space.n
    _check_cap(n)
    # difference sets of the other-label instances, feature i's field at
    # bits [i * w, (i + 1) * w) and marked at its top bit
    w, codes = cs.packed_codes()
    singles = [1 << (i * w + w - 1) for i in range(n)]
    at = codes[cs.position(d.instance)]
    diffs = {c ^ at for c, lab in zip(codes, cs.labels(d.classifier)) if lab != d.label}
    if w > 1:  # adding all ones below each guard bit sets it when the field differs
        guards = sum(singles)
        carry = guards - (guards >> w - 1)
        diffs = {(z + carry) & guards for z in diffs}
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
    return sorted(
        (tuple(i for i, e in enumerate(singles) if t & e) for t in hitting),
        key=_order,
    )


def _order(feats: tuple[int, ...]) -> tuple:
    return len(feats), feats


def _explanation(
    cs: ConstrainedSpace, features: tuple[int, ...], kind: ExplanationKind, cov: int
) -> Explanation:
    fair = not (set(features) & cs.space.protected)
    return Explanation(features, kind, fair, cov.bit_count())


def explained(
    cs: ConstrainedSpace, d: Decision, sets: Iterable[tuple[int, ...]]
) -> tuple[tuple[Explanation, ...], tuple[Explanation, ...]]:
    """The decision's AXps and PI-explanations from its AXps' feature
    sets, in the order given."""
    found = [(f, cs.coverage_mask(d.instance, f)) for f in sets]
    axps = tuple(_explanation(cs, f, ExplanationKind.AXP, cov) for f, cov in found)
    pis = tuple(
        _explanation(cs, f, ExplanationKind.PI, cov)
        for f, cov in found
        if not any(cov & other == cov and cov != other for _, other in found)
    )
    return axps, pis


def reasons(
    cs: ConstrainedSpace, d: Decision
) -> tuple[tuple[Explanation, ...], tuple[Explanation, ...]]:
    """The decision's AXps, ordered by size then indices, and the AXps
    not strictly subsumed by another AXp, in the same order; both from
    one Berge search."""
    return explained(cs, d, _berge_axps(cs, d))


def decision_reasons(
    cs: ConstrainedSpace, k: Classifier
) -> Iterator[tuple[Decision, tuple[Explanation, ...], tuple[Explanation, ...]]]:
    """Every decision in canonical order, with its AXps and
    PI-explanations as ``reasons`` gives them.

    A decision costs Berge one step per instance of F[C] labelled
    otherwise. Berge searches the decisions as they are read while the
    steps so far stay within the lattice's work count over
    BERGE_STEP_WORDS; the decision that would pass it and every later
    one get their AXps from one lattice walk.
    """
    n = cs.space.n
    budget = (n << n) * -(-cs.size // 64) // BERGE_STEP_WORDS
    others = {c: len(cs) - m.bit_count() for c, m in cs.label_masks(k).items()}
    decisions = map(Decision, repeat(k), cs.instances, cs.labels(k))
    for position, d in enumerate(decisions):
        budget -= others[d.label]
        if budget < 0:
            later = _lattice_axps(cs, k, position)
            for d, sets in zip(chain((d,), decisions), later, strict=True):
                yield (d, *explained(cs, d, sets))
            return
        yield (d, *reasons(cs, d))


def _lattice_axps(
    cs: ConstrainedSpace, k: Classifier, start: int
) -> list[tuple[tuple[int, ...], ...]]:
    """Per decision from position start on, its AXps ordered by size then
    indices, all from one depth-first walk over the feature sets.

    With L_c the decisions labelled c, Q_c the F[C] ranks labelled
    otherwise and P_c(S) its projection with the features off S
    forgotten, S is a weak AXp at exactly the decisions
    W_S = OR_c (L_c & ~P_c(S)), and an AXp at those of W_S outside every
    W_{S - j}. A child removes one feature
    below every feature its parent removed, so each set is visited once;
    W shrinks with S, so a set with W_S = 0 ends its branch."""
    n = cs.space.n
    _check_cap(n)
    low = cs.rank(cs.instances[start])
    targets = cs.sel >> low << low
    by_label = [(m & targets, cs.sel ^ m) for m in cs.label_masks(k).values()]
    tops = [t for t, _ in by_label if t]
    stack = [((1 << n) - 1, n, targets, [q for t, q in by_label if t])]
    found: dict[int, list[tuple[int, ...]]] = {}  # per decision's rank
    while stack:
        s, bound, axp, proj = stack.pop()
        for j in range(n):
            if not s >> j & 1:
                continue
            if j >= bound and not axp:
                break  # no child left, and every decision is settled
            child = [cs.exists(p, (j,)) for p in proj]
            w = 0
            for t, p in zip(tops, child):
                w |= t & ~p
            axp &= ~w
            if w and j < bound:
                stack.append((s ^ 1 << j, j, w, child))
        if axp:
            feats = tuple(i for i in range(n) if s >> i & 1)
        while axp:
            lowest = axp & -axp
            found.setdefault(lowest.bit_length() - 1, []).append(feats)
            axp ^= lowest
    # every decision has an AXp, the full set being weak
    return [tuple(sorted(found[r], key=_order)) for r in sorted(found)]


def all_axps(cs: ConstrainedSpace, d: Decision) -> list[Explanation]:
    """Every subset-minimal weak AXp, ordered by size then indices."""
    return list(reasons(cs, d)[0])


def pi_explanations(cs: ConstrainedSpace, d: Decision) -> list[Explanation]:
    """AXps not strictly subsumed by another AXp, in the all_axps order."""
    return list(reasons(cs, d)[1])


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
        if cov & good != cov:
            keep.add(i)
    feats = tuple(sorted(keep))
    return _explanation(
        cs, feats, ExplanationKind.AXP, cs.coverage_mask(d.instance, feats)
    )
