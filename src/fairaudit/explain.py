"""Sufficient reasons for decisions under constraints.

A weak AXp is a feature set whose values at the decision's instance
force the classifier's output on every constrained instance. AXps are
the subset-minimal ones; prime-implicant explanations are the AXps
whose coverage is not properly contained in another AXp's coverage.
Call an AXp's cube its features with the instance's values on them.

One Shannon recursion finds the AXps, for one decision (reasons, and
so the explain command) and for every decision at once (primes, and so
the audit). The AXp cubes of the decisions labelled c are exactly the
prime implicants of g_c = L_c | ~sel that meet L_c, a literal fixing one
feature to one value and the instances outside the constraints being
don't-cares (Quine, "The problem of simplifying truth functions", 1952).
The recursion finds them on the rank masks without enumerating feature
sets (Coudert & Madre, "Implicit and incremental computation of primes
and essential primes of Boolean functions", DAC 1992); seeded with some
decisions, it finds the primes covering them. A decision's AXps are
then the primes whose cubes hold it, and a prime is a PI-explanation at
every decision it covers or at none: if cov(t) is inside cov(t'), every
decision in cov(t) lies in t', so t' is an AXp there too.

The independent oracle for the primes, Berge's algorithm, is in
propcheck.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

from .boolexpr import Value
from .classifier import Classifier
from .errors import CapacityError, ModelSemanticError
from .model import ConstrainedSpace, Instance

# what the prime recursion may hold: the cubes one label's search builds
# over all its calls, which also bound its memo, and the bits of the
# primes' coverage masks together (256 MB). A fair audit of 20 boolean
# features with 285 primes builds about 3,500 cubes and 2^28 mask bits;
# a parity over 17 features, whose 2^16 primes are its minterms, stops
# here
PRIME_CAP = 1 << 18
COVERAGE_CAP_BITS = 1 << 31


class ExplanationKind(Enum):
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
    explanation as an AXp of each decision it covers, and as a
    PI-explanation there (None when it is not one)."""

    label: int
    features: tuple[int, ...]  # ascending
    values: tuple[Value, ...]
    cov: int
    axp: Explanation
    pi: Explanation | None


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


def _order(feats: tuple[int, ...]) -> tuple:
    return len(feats), feats


def _explanation(
    cs: ConstrainedSpace, features: tuple[int, ...], kind: ExplanationKind, cov: int
) -> Explanation:
    fair = not (set(features) & cs.space.protected)
    return Explanation(features, kind, fair, cov.bit_count())


def reasons(
    cs: ConstrainedSpace, d: Decision
) -> tuple[tuple[Explanation, ...], tuple[Explanation, ...]]:
    """The decision's AXps, ordered by size then indices, and the AXps
    not strictly subsumed by another AXp, in the same order: the primes
    covering its rank. They are read from the space's prime table when
    it holds one, else found by the recursion seeded at that rank, which
    the space does not keep."""
    r = cs.rank(d.instance)
    every = cs.cached((primes, d.classifier, None))
    if every is None:
        at = _primes(cs, d.classifier, 1 << r)  # each covers r
    else:
        at = [t for t in every if t.cov >> r & 1]
    return tuple(t.axp for t in at), tuple(t.pi for t in at if t.pi)


def primes(cs: ConstrainedSpace, k: Classifier, upto: int | None = None) -> list[Prime]:
    """Every label's constrained prime implicants, ordered by size then
    features: with ``upto``, only those covering some rank of F[C] at or
    below it, which are every AXp of the decisions there.

    For label c they are P(g_c, L_c) with g_c = L_c | ~sel (_prime_cubes).
    Each prime's coverage mask, explanations and PI status are settled
    once, and the space keeps the list, so every verdict on the space
    reads one table. A request with ``upto`` on a space that already
    holds every prime filters that list instead of searching again."""
    every = cs.cached((primes, k, None))
    if upto is not None and every is not None:
        seed = within(cs, upto)
        return [t for t in every if t.cov & seed]
    return cs.memo((primes, k, upto), lambda: _primes(cs, k, within(cs, upto)))


def _primes(cs: ConstrainedSpace, k: Classifier, seed: int) -> list[Prime]:
    """The primes of primes() covering some rank of seed, a mask inside
    F[C]; a label with no rank in seed is not searched.

    A prime is a PI-explanation at every decision it covers or at none,
    so one filter settles it: t is one unless a prime t' covers strictly
    more. Such a t' covers every rank t covers, so it meets seed too and
    is among the primes found, and it covers t's lowest rank, so only
    the primes covering some prime's lowest rank are compared."""
    ones = (1 << cs.size) - 1
    cubes = []  # (features, values, label, coverage)
    bits = 0
    for c, lab in cs.label_masks(k).items():
        if not lab & seed:
            continue
        for cube in _prime_cubes(cs, lab | ones ^ cs.sel, lab & seed):
            cov = cs.sel
            for i, v in cube:
                cov &= cs.rank_masks[i][v]
            bits += cov.bit_length()
            if bits > COVERAGE_CAP_BITS:
                raise CapacityError(
                    f"the prime implicants' coverage masks pass the cap of "
                    f"{COVERAGE_CAP_BITS} bits"
                )
            features, values = zip(*cube) if cube else ((), ())
            cubes.append((features, values, c, cov))
    cubes.sort(key=lambda t: _order(t[0]))
    axps = [_explanation(cs, f, ExplanationKind.AXP, cov) for f, _, _, cov in cubes]
    lows = [(cov & -cov).bit_length() - 1 for *_, cov in cubes]
    low_mask = sum(1 << r for r in set(lows))
    at: dict[int, list[tuple[int, int]]] = {}  # per lowest rank, (size, coverage)
    for (*_, cov), axp in zip(cubes, axps):
        m = cov & low_mask
        while m:
            r = m.bit_length() - 1
            at.setdefault(r, []).append((axp.coverage_size, cov))
            m ^= 1 << r
    found = []
    for (features, values, c, cov), axp, low in zip(cubes, axps, lows):
        size = axp.coverage_size
        strict = any(n > size and cov & o == cov for n, o in at[low])
        pi = None if strict else replace(axp, kind=ExplanationKind.PI)
        found.append(Prime(c, features, values, cov, axp, pi))
    return found


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
    every feature whose removal keeps the set a weak AXp: n coverage
    masks and no prime search.
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
