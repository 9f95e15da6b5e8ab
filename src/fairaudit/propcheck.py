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
  * both AXp engines, the forgetting lattice and Berge's algorithm,
    find the same reasons for every decision, and Berge's two producers
    of minimal difference sets, rank masks and packed codes, agree.
"""

from __future__ import annotations

import random

from .errors import FtuViolationError
from .explain import (
    _berge_axps,
    _code_differences,
    _lattice_axps,
    _mask_differences,
    _packed_codes,
    all_axps,
    make_decision,
    one_axp,
    pi_explanations,
    reasons,
)
from .fairness import (
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

    # one walk over every decision; every per-decision check reads it
    every = tuple(decision_verdicts(cs, k))
    verdict = classifier_verdict(cs, k, every)  # raises on chain violations
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
    out += _check_lattice(cs, k, rng)
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


def _check_lattice(cs, k, rng: random.Random) -> list[str]:
    """The forgetting lattice finds the AXps Berge finds, decision by
    decision, from a random start on; the masks and the codes give Berge
    the same minimal difference sets."""
    if not len(cs):
        return []
    start = rng.randrange(len(cs))
    later = cs.instances[start:]
    found = _lattice_axps(cs, k, start)
    if len(found) != len(later):
        return [f"the lattice found AXps for {len(found)} of {len(later)} decisions"]
    codes = _packed_codes(cs)
    for x, sets in zip(later, found):
        d = make_decision(cs, k, x)
        if sorted(_mask_differences(cs, d)) != sorted(_code_differences(cs, d, codes)):
            return [f"mask and code difference sets differ at {x}"]
        if list(sets) != _berge_axps(cs, d):
            return [f"lattice and Berge AXps differ at {x}"]
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
