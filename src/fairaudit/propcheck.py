"""Cross-cutting logical invariants checked over random model corpora.

Each check returns violation strings instead of raising so a harness
can sweep a whole corpus and report every failure at once. The
implication structure exercised here:

  * verdict chain: universal => existential => constrained FTU;
  * without crossing constraints, a fair prime-implicant reason in the
    full space survives constraining, all three classifier notions
    collapse, and (with constraints only on unprotected features) the
    existence of a fair reason is constraint-independent;
  * with constraints only on protected features, unfair reasons can
    only disappear when constraining, never appear;
  * constrained FTU holds exactly when an FTU completion to the full
    space exists;
  * looseness plus FTU forces a fair reason, pointwise and globally,
    as does disentangledness;
  * the prime cubes the audit reads give every decision the AXps,
    PI-explanations, status and disentangledness that Berge's
    per-decision search gives.
"""

from __future__ import annotations

import random

from .errors import FtuViolationError
from .explain import (
    _berge_axps,
    all_axps,
    explained,
    make_decision,
    one_axp,
    pi_explanations,
    primes,
    reasons,
)
from .fairness import (
    DecisionStatus,
    _disentangled,
    _disentangled_mask,
    _verdict,
    build_completion,
    check_ftu,
    check_loose,
    classifier_verdict,
    decision_verdicts,
    ftu_at,
    loose_violators,
)
from .model import (
    ConstrainedSpace,
    ScopeProfile,
    constraint_scope_profile,
    enumerate_space,
    unconstrained,
)
from .randmodels import RandomModel
from .satcheck import decode_model, encode_ftu_counterexample, search


def _pi_fairness(cs: ConstrainedSpace, k, x) -> tuple[bool, bool]:
    """(has fair reason, has unfair reason) at the decision on x."""
    pis = pi_explanations(cs, make_decision(cs, k, x))
    return any(p.fair for p in pis), any(not p.fair for p in pis)


def check_model(rm: RandomModel, rng: random.Random) -> list[str]:
    """Run every applicable invariant; returns human-readable
    violations, empty when all hold."""
    cs = enumerate_space(rm.space, rm.constraints)
    full = unconstrained(rm.space)
    k = rm.classifier
    profile = constraint_scope_profile(rm.space, rm.constraints)
    out: list[str] = []

    # one walk over every decision; every per-decision check reads it.
    # It leaves every prime in cs, so the verdict, which seeds the primes
    # when FTU fails, runs on a fresh space to search as an audit does
    every = tuple(decision_verdicts(cs, k))
    fresh = enumerate_space(rm.space, rm.constraints)
    verdict = classifier_verdict(fresh, k)  # raises on chain violations
    if verdict.universal and not verdict.existential:
        out.append("universal fairness without existential fairness")
    if verdict.existential and not verdict.ftu:
        out.append("existential fairness without constrained FTU")

    flags_cs = {
        dv.decision.instance: (dv.fair_pi is not None, dv.unfair_pi is not None)
        for dv in every
    }
    flags_full = {x: _pi_fairness(full, k, x) for x in cs.instances}

    out += _check_completion(cs, full, k, verdict.ftu)
    out += _check_loose_links(cs, k, verdict, flags_cs)
    out += _check_engines(cs, k, verdict.ftu)
    out += _check_one_axp(cs, k, rng)
    out += _check_primes(cs, k, verdict, rng)
    out += _check_unconstrained_pi(full, k, rng)

    if profile is not ScopeProfile.CROSSING:
        if not (verdict.ftu == verdict.existential == verdict.universal):
            out.append(
                "non-crossing constraints but the three notions disagree: "
                f"ftu={verdict.ftu} existential={verdict.existential} "
                f"universal={verdict.universal}"
            )
        for x in cs.instances:
            if flags_full[x][0] and not flags_cs[x][0]:
                out.append(f"fair reason at {x} lost by constraining")

    if profile in (ScopeProfile.ONLY_N, ScopeProfile.NONE):
        for x in cs.instances:
            if flags_full[x][0] != flags_cs[x][0]:
                out.append(
                    f"unprotected-only constraints changed fair-reason "
                    f"existence at {x}"
                )

    if profile in (ScopeProfile.ONLY_P, ScopeProfile.NONE):
        for x in cs.instances:
            if flags_cs[x][1] and not flags_full[x][1]:
                out.append(
                    f"protected-only constraints created an unfair reason at {x}"
                )
    return out


def _check_completion(cs, full, k, ftu_holds: bool) -> list[str]:
    out = []
    if ftu_holds:
        try:
            hat = build_completion(cs, k, 0)
        except FtuViolationError:
            out.append("FTU holds but the completion failed to build")
            return out
        if not check_ftu(full, hat, "exhaustive")[0]:
            out.append("completion is not FTU over the full space")
        for x in cs.instances:
            if hat.evaluate(x) != k.evaluate(x):
                out.append(f"completion disagrees with the classifier at {x}")
                break
    else:
        try:
            build_completion(cs, k, 0)
            out.append("completion built although constrained FTU fails")
        except FtuViolationError:
            pass
    return out


def _check_loose_links(cs, k, verdict, flags_cs) -> list[str]:
    out = []
    loose, _ = check_loose(cs)
    if loose and verdict.ftu and not verdict.existential:
        out.append("loose constraints with FTU but no fair reason somewhere")
    violators = loose_violators(cs).values()
    for x in cs.instances:
        loose_at = not any(m >> cs.rank(x) & 1 for m in violators)
        if loose_at and ftu_at(cs, k, x) and not flags_cs[x][0]:
            out.append(f"loose and FTU at {x} but no fair reason there")
    if verdict.disentangled and not verdict.existential:
        out.append("disentangled classifier without existential fairness")
    return out


def _check_engines(cs, k, exhaustive_holds: bool) -> list[str]:
    out = []
    formula = encode_ftu_counterexample(cs, k)
    result = search(formula)
    if result.satisfiable == exhaustive_holds:
        out.append("search and exhaustive FTU engines disagree")
    elif result.satisfiable:
        x, y = decode_model(formula, result.model, cs, k)
        if not (cs.contains(x) and cs.contains(y)):
            out.append("decoded witness pair leaves the constrained space")
    return out


def _check_one_axp(cs, k, rng: random.Random) -> list[str]:
    if not len(cs):
        return []
    x = cs.instances[rng.randrange(len(cs))]
    d = make_decision(cs, k, x)
    order = list(range(cs.space.n))
    rng.shuffle(order)
    got = one_axp(cs, d, order)
    members = {frozenset(e.features) for e in all_axps(cs, d)}
    if frozenset(got.features) not in members:
        return [f"greedy reason {got.features} at {x} is not subset-minimal"]
    return []


def _check_primes(cs, k, verdict, rng: random.Random) -> list[str]:
    """At every decision, the primes covering it give the AXps and
    PI-explanations one Berge search gives, and the disentangled mask's
    bit is _disentangled on Berge's AXps. The verdict's least unfair,
    not universally fair and not disentangled decisions, and its unfair
    PI, are the ones Berge's PIs give. The primes seeded up to a random
    decision on a fresh space, as an audit seeds them when FTU fails
    there, are the primes covering the decisions up to it, with the same
    PIs."""
    if not len(cs):
        return []
    upto = cs.rank(cs.instances[rng.randrange(len(cs))])
    found = primes(cs, k)
    below = (2 << upto) - 1
    seeded = primes(enumerate_space(cs.space, cs.constraints), k, upto)
    if seeded != [t for t in found if t.cov & below]:
        return [f"the primes seeded up to rank {upto} differ"]
    disentangled = _disentangled_mask(cs, k, found)
    failures = {}  # the least decision failing each, with its verdict
    for x in cs.instances:
        d = make_decision(cs, k, x)
        r = cs.rank(x)
        sets = _berge_axps(cs, d)
        axps, berge_pis = explained(cs, d, sets)
        covering = [t for t in found if t.cov >> r & 1]
        if [t.features for t in covering] != sets:
            return [f"prime cubes and Berge give different AXps at {x}"]
        if [t.pi.features for t in covering if t.pi] != [e.features for e in berge_pis]:
            return [f"prime cubes and Berge give different PIs at {x}"]
        tangled = not _disentangled(cs, d, axps)
        if bool(disentangled >> r & 1) == tangled:
            return [f"the disentangled mask is wrong at {x}"]
        dv = _verdict(d, axps, berge_pis)
        for notion, failed in (
            ("existential", dv.status is DecisionStatus.UNFAIR),
            ("universal", dv.status is not DecisionStatus.UNIVERSALLY_FAIR),
            ("disentangled", tangled),
        ):
            if failed:
                failures.setdefault(notion, dv)
    unfair_pi = failures["universal"].unfair_pi if "universal" in failures else None
    if verdict.universal_unfair_pi != unfair_pi:
        return [f"the verdict's unfair PI {verdict.universal_unfair_pi} is not Berge's"]
    for notion in ("existential", "universal", "disentangled"):
        got = getattr(verdict, f"{notion}_failure")
        if got != (failures[notion].decision if notion in failures else None):
            return [f"the verdict's {notion} failure {got} is not Berge's"]
    return []


def _check_unconstrained_pi(full, k, rng: random.Random) -> list[str]:
    instances = full.instances
    if len(instances) > 16:
        instances = tuple(
            instances[rng.randrange(len(instances))] for _ in range(16)
        )
    for x in instances:
        axps, pis = reasons(full, make_decision(full, k, x))
        if {e.features for e in axps} != {e.features for e in pis}:
            return [
                f"without constraints the prime reasons at {x} differ "
                "from the minimal reasons"
            ]
    return []
