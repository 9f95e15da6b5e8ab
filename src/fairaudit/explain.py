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
    difference sets. Two producers give it those sets:
      - the rank masks (_mask_differences): every value of a feature
        other than x's moves onto one value, so a rank stands for a
        difference set, and an upward closure strikes the non-minimal
        ones; about (2n + the sizes of the domains with more than two
        values) big-int operations of ceil(|F| / 64) words, and nothing
        per instance;
      - the packed codes (_code_differences): one XOR per instance y,
        after a per-space set-up that packs a code for every instance
        of F[C].
  * the forgetting lattice, every decision at once: S is a weak AXp at
    x exactly when x lies outside the projection of the instances
    labelled otherwise with the features off S forgotten (Lin & Reiter,
    "Forget it!", 1994; Darwiche & Marquis, "A knowledge compilation
    map", JAIR 2002). One depth-first walk over the feature sets, each
    set's projections one ConstrainedSpace.exists from its parent's,
    costs about 2^n * n * ceil(|F| / 64) mask-word steps.

One decision (reasons, and so the explain command) always takes Berge
with the masks: it has no walk to spread the codes' set-up over, so F[C]
is never enumerated. A walk over every decision (decision_reasons)
gives each decision the producer whose count is smaller, charges that
count, and once the next decision would take the charges past the
lattice's count, one lattice walk finds the AXps of that decision and of
every later one. Whether the caller reads every decision or stops
early, the walk so pays a small multiple of what the better engine
would have. The masks win on dense spaces; the codes only on sparse
ones, where few instances are labelled otherwise and masks are long.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

from .classifier import Classifier
from .errors import CapacityError, ModelSemanticError
from .model import ConstrainedSpace, Instance

SUBSET_CAP = 20

# what one XOR of packed codes costs, in 64-bit word steps of the
# lattice and of the masks. Measured per decision on one host (Python
# 3.11): 56 to 147 lattice words and 43 to 152 mask words on dense boolean
# spaces of 11 to 14 features, 270 to 930 mask words on one-hot spaces of
# 14 to 20. On dense spaces the masks' count is always the smaller, so
# this value only picks the producer on sparse ones; there it favours the
# codes, and a fair audit of the benchmark's onehot(1, 18) took 184 ms
# with it against 204 to 229 ms with 128 to 400
BERGE_STEP_WORDS = 48

# how many bits of coverage masks a space keeps for cubes (explain.cube);
# past it a cube's mask is rebuilt on each use, so that a walk over a
# large sparse space, whose masks are long and whose cubes are many,
# keeps its memory bounded
CUBE_CACHE_BITS = 1 << 26


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
    return Decision(k, x, cs.label_at(k, x))


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


def _berge_axps(
    cs: ConstrainedSpace, d: Decision, codes: tuple[int, list[int]] | None = None
) -> list[tuple[int, ...]]:
    """One decision's subset-minimal weak AXps, smallest first and
    lexicographic within a size: Berge's algorithm on the minimal
    difference sets, read off the rank masks, or off the packed codes
    when the caller passes the space's _packed_codes."""
    n = cs.space.n
    _check_cap(n)
    minimal = _code_differences(cs, d, codes) if codes else _mask_differences(cs, d)
    singles = [1 << i for i in range(n)]
    # Berge: extend the minimal transversals so far to the next set; an
    # extension can only be a superset of one that already hits that set
    hitting = [0]
    for s in sorted(minimal, key=int.bit_count):
        hit = [t for t in hitting if t & s]
        hitting = hit + [
            t | e
            for t in hitting
            if not t & s
            for e in singles
            if e & s and all(h & ~(t | e) for h in hit)
        ]
    return sorted(
        (tuple(i for i in range(n) if t >> i & 1) for t in hitting), key=_order
    )


def _mask_differences(cs: ConstrainedSpace, d: Decision) -> list[int]:
    """The decision's minimal difference sets, bit i for feature i, from
    big-int operations on the ranks labelled otherwise.

    Every value of feature i other than x_i moves onto one value b_i, so
    each rank left stands for one difference set, its digits x_i or b_i.
    Moving the ranks that hold x_i onto b_i, one feature after another,
    yields every strict superset of such a set; the rest are minimal."""
    x = d.instance
    q = cs.sel & ~cs.label_mask(d.classifier, d.label)
    digits = []  # per feature that can differ: index, stride, domain size, x_i's index
    ups = []  # per such feature: the ranks with x_i, their shift onto b_i
    for i, (f, s) in enumerate(zip(cs.space.features, cs.strides)):
        dom, masks = f.domain, cs.rank_masks[i]
        if len(dom) < 2:
            continue
        a = dom.index(x[i])
        b = 0 if a else 1
        if len(dom) > 2:
            moved = q & (masks[dom[a]] | masks[dom[b]])
            for j in range(b + 1, len(dom)):
                if j != a:
                    moved |= (q & masks[dom[j]]) >> (j - b) * s
            q = moved
        digits.append((i, s, len(dom), a))
        ups.append((masks[dom[a]], (b - a) * s))
    strict = 0
    for same, shift in ups:
        up = (q | strict) & same
        strict |= up << shift if shift > 0 else up >> -shift
    minimal = q & ~strict
    sets = []
    while minimal:
        r = minimal.bit_length() - 1
        minimal ^= 1 << r
        sets.append(sum(1 << i for i, s, size, a in digits if r // s % size != a))
    return sets


def _code_differences(
    cs: ConstrainedSpace, d: Decision, codes: tuple[int, list[int]]
) -> list[int]:
    """The decision's minimal difference sets, bit i for feature i, from
    one XOR of packed codes per instance of F[C] labelled otherwise."""
    n = cs.space.n
    w, packed = codes
    at = packed[cs.position(d.instance)]
    labels = cs.labels(d.classifier)
    diffs = {c ^ at for c, lab in zip(packed, labels) if lab != d.label}
    if w > 1:  # adding all ones below each guard bit sets it when the field differs
        guards = sum(1 << (i * w + w - 1) for i in range(n))
        carry = guards - (guards >> w - 1)
        diffs = {(z + carry) & guards for z in diffs}
    minimal: list[int] = []
    for s in sorted(diffs, key=int.bit_count):
        if all(m & ~s for m in minimal):
            minimal.append(s)
    if w > 1:
        minimal = [
            sum(1 << i for i in range(n) if s >> (i * w + w - 1) & 1) for s in minimal
        ]
    return minimal


def _packed_codes(cs: ConstrainedSpace) -> tuple[int, list[int]]:
    """(w, codes): per instance of F[C], in order, a code holding feature
    i's domain index in bits [i * w, (i + 1) * w). Fields wider than one
    bit get a guard bit on top, always 0, that a carry can set."""

    def make() -> tuple[int, list[int]]:
        domains = [f.domain for f in cs.space.features]
        w = max(len(d) - 1 for d in domains).bit_length()
        w += w > 1
        shifted = [{v: j << (i * w) for j, v in enumerate(d)} for i, d in enumerate(domains)]
        return w, [sum(map(dict.get, shifted, x)) for x in cs.instances]

    return cs.memo(_packed_codes, make)


def _mask_words(cs: ConstrainedSpace) -> int:
    """About what _mask_differences costs, in 64-bit word steps: a fold
    step per value of each feature with more than two, and two steps per
    feature for the upward closure."""
    folds = sum(len(f.domain) for f in cs.space.features if len(f.domain) > 2)
    return (2 * cs.space.n + folds) * -(-cs.size // 64)


def _order(feats: tuple[int, ...]) -> tuple:
    return len(feats), feats


def _explanation(
    cs: ConstrainedSpace, features: tuple[int, ...], kind: ExplanationKind, cov: int
) -> Explanation:
    fair = not (set(features) & cs.space.protected)
    return Explanation(features, kind, fair, cov.bit_count())


def cube(
    cs: ConstrainedSpace, x: Instance, features: tuple[int, ...]
) -> tuple[int, Explanation, Explanation]:
    """The coverage mask of the cube that fixes x's values on the
    features, and its AXP and PI explanations. The space keeps each cube
    it is asked for while their masks stay within CUBE_CACHE_BITS."""
    cubes = cs.memo(cube, dict)
    key = (features, tuple(map(x.__getitem__, features)))
    got = cubes.get(key)
    if got is None:
        cov = cs.coverage_mask(x, features)
        axp = _explanation(cs, features, ExplanationKind.AXP, cov)
        got = (cov, axp, replace(axp, kind=ExplanationKind.PI))
        if len(cubes) * cs.size < CUBE_CACHE_BITS:
            cubes[key] = got
    return got


def explained(
    cs: ConstrainedSpace, d: Decision, sets: Iterable[tuple[int, ...]]
) -> tuple[tuple[Explanation, ...], tuple[Explanation, ...]]:
    """The decision's AXps and PI-explanations from its AXps' feature
    sets, in the order given."""
    found = [cube(cs, d.instance, f) for f in sets]
    axps = tuple(axp for _, axp, _ in found)
    pis = tuple(
        pi
        for cov, _, pi in found
        if not any(cov & other == cov and cov != other for other, _, _ in found)
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

    Berge searches a decision with the cheaper producer of its
    difference sets, charging its count in 64-bit word steps: the masks'
    _mask_words, or BERGE_STEP_WORDS per instance of F[C] labelled
    otherwise for the codes. It searches the decisions as they are read
    while the charges so far stay within the lattice's count; the
    decision that would pass it and every later one get their AXps from
    one lattice walk.
    """
    n = cs.space.n
    budget = (n << n) * -(-cs.size // 64)
    mask_words = _mask_words(cs)
    others = {c: len(cs) - m.bit_count() for c, m in cs.label_masks(k).items()}
    decisions = map(Decision, repeat(k), cs.instances, cs.labels(k))
    for position, d in enumerate(decisions):
        code_words = others[d.label] * BERGE_STEP_WORDS
        budget -= min(mask_words, code_words)
        if budget < 0:
            later = _lattice_axps(cs, k, position)
            for d, sets in zip(chain((d,), decisions), later, strict=True):
                yield (d, *explained(cs, d, sets))
            return
        # with no instance labelled otherwise the masks are all zero, and
        # so cheaper than the codes' scan of F[C]
        if 0 < code_words < mask_words:
            sets = _berge_axps(cs, d, _packed_codes(cs))
        else:
            sets = _berge_axps(cs, d)
        yield (d, *explained(cs, d, sets))


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
