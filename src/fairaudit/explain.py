"""Sufficient reasons for decisions under constraints.

A weak AXp is a feature set whose values at the decision's instance
force the classifier's output on every constrained instance. AXps are
the subset-minimal ones; prime-implicant explanations are the AXps
whose coverage is not properly contained in another AXp's coverage.
Call an AXp's cube its features with the instance's values on them.

Two routines find the AXps, with the same answers:

  * one decision (reasons, and so the explain command): Berge's
    algorithm, by the AXp/CXp duality (Ignatiev, Narodytska, Asher &
    Marques-Silva, "From contrastive to abductive explanations and back
    again", AI*IA 2020). A feature set is a weak AXp exactly when it
    meets the difference set {i : y_i != x_i} of every constrained
    instance y labelled otherwise, so the AXps are the minimal hitting
    sets of the minimal difference sets. _mask_differences reads those
    off the rank masks in about (2n + the sizes of the domains with more
    than two values) big-int operations, so F[C] is never enumerated.
  * every decision at once (primes, and so the audit): the AXp cubes of
    the decisions labelled c are exactly the prime implicants of
    g_c = L_c | ~sel that meet L_c, a literal fixing one feature to one
    value and the instances outside the constraints being don't-cares
    (Quine, "The problem of simplifying truth functions", 1952). One
    Shannon recursion on the rank masks finds them without enumerating
    feature sets (Coudert & Madre, "Implicit and incremental computation
    of primes and essential primes of Boolean functions", DAC 1992).
    A decision's AXps are then the primes whose cubes hold it, and a
    prime is a PI-explanation at every decision it covers or at none:
    if cov(t) is inside cov(t'), every decision in cov(t) lies in t',
    so t' is an AXp there too.

Berge stays the independent oracle for the primes (propcheck).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

from .boolexpr import Value
from .classifier import Classifier
from .errors import CapacityError, ModelSemanticError
from .model import ConstrainedSpace, Instance

# Berge's transversals grow with the feature count; the prime recursion
# enumerates no feature sets and is not held to it
SUBSET_CAP = 20

# what the prime recursion may hold: the cubes one label's search builds
# over all its calls, which also bound its memo, and the bits of the
# primes' coverage masks together (256 MB). A fair audit of 20 boolean
# features with 285 primes builds about 3,500 cubes and 2^28 mask bits;
# a parity over 17 features, whose 2^16 primes are its minterms, stops
# here
PRIME_CAP = 1 << 18
COVERAGE_CAP_BITS = 1 << 31


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


@dataclass(frozen=True)
class Prime:
    """A constrained prime implicant of one label: the cube fixing
    ``values`` on ``features``, the ranks of F[C] it covers, and its
    explanation as an AXp of each decision it covers."""

    label: int
    features: tuple[int, ...]  # ascending
    values: tuple[Value, ...]
    cov: int
    axp: Explanation


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


def _berge_axps(cs: ConstrainedSpace, d: Decision) -> list[tuple[int, ...]]:
    """One decision's subset-minimal weak AXps, smallest first and
    lexicographic within a size: Berge's algorithm on the minimal
    difference sets read off the rank masks."""
    n = cs.space.n
    _check_cap(n)
    minimal = _mask_differences(cs, d)
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
        replace(axp, kind=ExplanationKind.PI)
        for axp, (_, cov) in zip(axps, found)
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


def primes(cs: ConstrainedSpace, k: Classifier, upto: int | None = None) -> list[Prime]:
    """Every label's constrained prime implicants, ordered by size then
    features: with ``upto``, only those covering some rank of F[C] at or
    below it, which are every AXp of the decisions there.

    For label c they are P(g_c, L_c) with g_c = L_c | ~sel (_prime_cubes).
    Each prime's coverage mask and explanation are built once, and the
    space keeps the list, so an audit that reads every decision and its
    verdict finds each prime once."""

    def make() -> list[Prime]:
        ones = (1 << cs.size) - 1
        seed = within(cs, upto)
        found = []
        bits = 0
        for c, lab in cs.label_masks(k).items():
            for cube in _prime_cubes(cs, lab | ones ^ cs.sel, lab & seed):
                features = tuple(i for i, _ in cube)
                cov = cs.sel
                for i, v in cube:
                    cov &= cs.rank_masks[i][v]
                bits += cov.bit_length()
                if bits > COVERAGE_CAP_BITS:
                    raise CapacityError(
                        f"the prime implicants' coverage masks pass the cap of "
                        f"{COVERAGE_CAP_BITS} bits"
                    )
                axp = _explanation(cs, features, ExplanationKind.AXP, cov)
                found.append(Prime(c, features, tuple(v for _, v in cube), cov, axp))
        return sorted(found, key=lambda p: _order(p.features))

    return cs.memo((primes, k, upto), make)


def within(cs: ConstrainedSpace, upto: int | None) -> int:
    """The ranks of F[C], those up to upto when it is given."""
    return cs.sel if upto is None else cs.sel & ((2 << upto) - 1)


def _prime_cubes(
    cs: ConstrainedSpace, g: int, s: int
) -> list[tuple[tuple[int, Value], ...]]:
    """P(g, s), the prime implicants of the rank mask g that meet s, for
    s inside g, as cubes of (feature, value) pairs in feature order.

    The recursion splits on the feature j with the highest stride w
    left. The cofactor of a mask for j's v-th value is
    (mask >> v * w) & (2^w - 1). A prime either leaves j free, and is
    then a prime of G = AND_v g_v, or fixes j = v and extends a prime p
    of g_v whose cube is not inside G (else dropping j = v would leave
    an implicant):

        P(g, s) = P(G, OR_v s_v & G)
                  | U_v {(j = v) p : p in P(g_v, s_v), cube(p) not inside G}

    A prime p of g_v inside G is a prime of G too, since G lies inside
    g_v, and it meets OR_v s_v & G where it meets s_v; so p is inside G
    exactly when it is in P(G, OR_v s_v & G), and no mask is tested.
    P(g, 0) is empty and P(all ones, s) the empty cube. Calls are
    memoised on (level, g, s); features with one value split nothing
    and are skipped. Past PRIME_CAP cubes built, CapacityError."""
    domains = [f.domain for f in cs.space.features]
    axes = [j for j, d in enumerate(domains) if len(d) > 1]
    strides = [cs.strides[j] for j in axes]
    # ones over the ranks a mask has at each level; the last level has one
    full = [(1 << w) - 1 for w in (cs.size, *strides)]
    memo: dict = {}
    built = 0

    def walk(level: int, g: int, s: int) -> list:
        nonlocal built
        if not s:
            return []
        if g == full[level]:
            return [()]
        key = (level, g, s)
        got = memo.get(key)
        if got is not None:
            return got
        j, w, low = axes[level], strides[level], full[level + 1]
        shifts = range(0, len(domains[j]) * w, w)
        cofactors = [(g >> v & low, s >> v & low) for v in shifts]
        free = low
        union = 0
        for gv, sv in cofactors:
            free &= gv
            union |= sv
        out = list(walk(level + 1, free, union & free))
        inside = set(out)
        for value, (gv, sv) in zip(domains[j], cofactors):
            if sv and gv != free:  # a prime of g_v = G is inside G
                extend = walk(level + 1, gv, sv)
                out += [((j, value), *p) for p in extend if p not in inside]
        built += len(out)
        if built > PRIME_CAP:
            raise CapacityError(
                f"the prime implicant search passed its cap of {PRIME_CAP} cubes"
            )
        memo[key] = out
        return out

    return walk(0, g, s)


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
