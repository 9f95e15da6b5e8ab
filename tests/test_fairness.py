from __future__ import annotations

import itertools
import random

import pytest

from fairaudit import (
    CausalGraph,
    DecisionStatus,
    DocumentError,
    Feature,
    FeatureSpace,
    FtuViolationError,
    ModelSemanticError,
    build_completion,
    check_decomposable,
    check_disentangled,
    check_ftu,
    check_loose,
    check_loose_at,
    classifier_verdict,
    decision_verdict,
    enumerate_space,
    extend_protected_ftci,
    ftu_at,
    make_decision,
    parse_expr,
    unconstrained,
)
from fairaudit.fairness import (
    decision_disentangled,
    parse_causal_graph,
    space_warnings,
)
from fairaudit.model import ConstraintSet
from fairaudit.randmodels import random_model

B = (False, True)


class TestDecisionVerdict:
    def test_parental_leave_decision_is_unfair(self, load_model):
        loaded = load_model("parental_leave")
        cs = loaded.constrained()
        d = make_decision(cs, loaded.classifier, (True, True))
        assert d.label == 0
        v = decision_verdict(cs, d)
        assert v.status is DecisionStatus.UNFAIR
        assert v.fair_pi is None
        assert v.unfair_pi.features == loaded.by_name("f")

    def test_bonus_goals_decision_is_universally_fair(self, load_model):
        loaded = load_model("bonus_goals")
        cs = loaded.constrained()
        d = make_decision(cs, loaded.classifier, (True, False, True))
        v = decision_verdict(cs, d)
        assert v.status is DecisionStatus.UNIVERSALLY_FAIR
        assert v.fair_pi.features == loaded.by_name("g")
        assert v.unfair_pi is None

    def test_mirrored_decision_is_existentially_fair_only(self, load_model):
        loaded = load_model("mirrored_features")
        cs = loaded.constrained()
        d = make_decision(cs, loaded.classifier, (True, True))
        v = decision_verdict(cs, d)
        assert v.status is DecisionStatus.EXISTENTIALLY_FAIR_ONLY
        assert v.fair_pi.features == loaded.by_name("b")
        assert v.unfair_pi.features == loaded.by_name("a")


class TestFtu:
    def test_xor_link_satisfies_constrained_ftu(self, load_model):
        loaded = load_model("xor_link")
        holds, pair = check_ftu(loaded.constrained(), loaded.classifier)
        assert holds and pair is None

    def test_work_from_home_satisfies_constrained_ftu(self, load_model):
        loaded = load_model("work_from_home")
        holds, pair = check_ftu(loaded.constrained(), loaded.classifier)
        assert holds and pair is None

    def test_bonus_goals_fails_ftu_without_constraints(self, load_model):
        loaded = load_model("bonus_goals")
        holds, pair = check_ftu(loaded.full(), loaded.classifier)
        assert not holds
        x, y = pair
        assert x == (False, False, True)
        # least witness pair in canonical order; the pair differs only on
        # protected features and gets different labels
        assert y == (False, True, True)
        assert loaded.classifier.evaluate(x) != loaded.classifier.evaluate(y)

    def test_engines_agree_on_fixtures(self, load_model):
        for name in ("bonus_goals", "xor_link", "work_from_home", "spouses", "adopt"):
            loaded = load_model(name)
            cs = loaded.constrained()
            exhaustive = check_ftu(cs, loaded.classifier, "exhaustive")[0]
            searched = check_ftu(cs, loaded.classifier, "search")[0]
            assert exhaustive == searched

    def test_ftu_at_single_instances(self, load_model):
        loaded = load_model("bonus_goals")
        full = loaded.full()
        assert not ftu_at(full, loaded.classifier, (False, False, True))
        assert ftu_at(full, loaded.classifier, (False, False, False))

    def test_ftu_at_requires_constrained_instance(self, load_model):
        loaded = load_model("bonus_goals")
        with pytest.raises(ModelSemanticError):
            # m = f = 1 violates (iff m (not f))
            ftu_at(loaded.constrained(), loaded.classifier, (True, True, False))


class TestClassifierVerdict:
    def test_adopt2_is_universally_fair(self, load_model):
        loaded = load_model("adopt2")
        v = classifier_verdict(loaded.constrained(), loaded.classifier)
        assert v.universal and v.existential and v.ftu

    def test_adopt_is_existentially_fair_only(self, load_model):
        loaded = load_model("adopt")
        cs = loaded.constrained()
        v = classifier_verdict(cs, loaded.classifier)
        assert v.existential and not v.universal
        (s,) = loaded.by_name("s")
        assert v.universal_unfair_pi.features == (s,)
        # least failing instance in canonical order has s = 0
        assert v.universal_failure.instance == (False, False, False)

    def test_xor_link_passes_ftu_but_not_existential(self, load_model):
        loaded = load_model("xor_link")
        cs = loaded.constrained()
        v = classifier_verdict(cs, loaded.classifier)
        assert v.ftu
        assert not v.existential
        assert v.existential_failure.instance == cs.instances[0]

    def test_every_decision_of_bonus_goals_explained_by_goals(self, load_model):
        loaded = load_model("bonus_goals")
        cs = loaded.constrained()
        (g,) = loaded.by_name("g")
        for x in cs.instances:
            v = decision_verdict(cs, make_decision(cs, loaded.classifier, x))
            assert v.status is DecisionStatus.UNIVERSALLY_FAIR
            assert v.fair_pi.features == (g,)


class TestCompletion:
    def test_xor_link_completion_copies_the_linked_value(self, load_model):
        loaded = load_model("xor_link")
        cs = loaded.constrained()
        hat = build_completion(cs, loaded.classifier, 0)
        # oracle: the unique constrained instance sharing (b, c) has
        # label b xor c; FTU over the full space checked by enumeration
        for x in itertools.product(B, B, B):
            assert hat.evaluate(x) == int(x[1] != x[2])
        holds, _ = check_ftu(unconstrained(loaded.space), hat)
        assert holds
        for x in cs.instances:
            assert hat.evaluate(x) == loaded.classifier.evaluate(x)

    def test_unconstrained_completion_is_the_classifier_itself(self, load_model):
        loaded = load_model("adopt2")
        full = loaded.full()
        hat = build_completion(full, loaded.classifier, 0)
        for x in full.instances:
            assert hat.evaluate(x) == loaded.classifier.evaluate(x)

    def test_bonus_goals_completion_reduces_to_goals(self, load_model):
        loaded = load_model("bonus_goals")
        cs = loaded.constrained()
        hat = build_completion(cs, loaded.classifier, 0)
        for x in itertools.product(B, B, B):
            assert hat.evaluate(x) == int(x[2])

    def test_completion_requires_constrained_ftu(self, load_model):
        loaded = load_model("bonus_goals")
        full = loaded.full()
        with pytest.raises(FtuViolationError) as err:
            build_completion(full, loaded.classifier, 0)
        x, y = err.value.counterexample
        assert loaded.classifier.evaluate(x) != loaded.classifier.evaluate(y)


class TestLoose:
    def test_mirrored_constraints_are_loose(self, load_model):
        loaded = load_model("mirrored_features")
        holds, violation = check_loose(loaded.constrained())
        assert holds and violation is None

    def test_work_from_home_not_loose_with_witness(self, load_model):
        loaded = load_model("work_from_home")
        cs = loaded.constrained()
        holds, violation = check_loose(cs)
        assert not holds
        x, p = violation
        # least violating instance in canonical order; (1,1,1,1) violates too
        assert x == (False, False, False, True)
        assert p == loaded.by_name("f")[0]
        cov_n = set(cs.instances_of_mask(cs.coverage_mask(x, cs.space.unprotected)))
        cov_p = set(cs.instances_of_mask(cs.coverage_mask(x, (p,))))
        assert cov_n < cov_p

    def test_work_from_home_loose_at_origin_only(self, load_model):
        loaded = load_model("work_from_home")
        cs = loaded.constrained()
        assert check_loose_at(cs, (False, False, False, False))
        assert not check_loose_at(cs, (True, True, True, True))

    def test_unconstrained_spaces_are_loose(self):
        # counting oracle: with no constraints and every protected domain
        # of size two or more, a single protected literal never pins the
        # unprotected assignment strictly
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randint(1, 4)
            features = [
                Feature(i, f"f{i}", (False, True) if rng.random() < 0.7 else (0, 1, 2),
                        rng.random() < 0.5)
                for i in range(n)
            ]
            cs = unconstrained(FeatureSpace(features))
            holds, _ = check_loose(cs)
            assert holds
            # brute-force cross-check with python sets
            for x in cs.instances:
                cov_n = {
                    y
                    for y in cs.instances
                    if all(y[i] == x[i] for i in cs.space.unprotected)
                }
                for p in cs.space.protected:
                    cov_p = {y for y in cs.instances if y[p] == x[p]}
                    assert not (cov_n < cov_p)


def brute_force_disentangled(cs, k, x) -> bool:
    """Set-based re-statement used as an independent oracle."""
    label = k.evaluate(x)
    insts = cs.instances

    def cov(S):
        return {y for y in insts if all(y[i] == x[i] for i in S)}

    def weak(S):
        return all(k.evaluate(y) == label for y in cov(S))

    if not weak(cs.space.unprotected):
        return False
    cov_n = cov(cs.space.unprotected)
    for r in range(cs.space.n + 1):
        for q in itertools.combinations(range(cs.space.n), r):
            if set(q) & cs.space.protected and weak(q) and cov_n < cov(q):
                return False
    return True


class TestDisentangled:
    def test_training_course_is_disentangled(self, load_model):
        loaded = load_model("training_course")
        holds, failure = check_disentangled(loaded.constrained(), loaded.classifier)
        assert holds and failure is None

    def test_xor_link_fails_everywhere(self, load_model):
        loaded = load_model("xor_link")
        cs = loaded.constrained()
        holds, failure = check_disentangled(cs, loaded.classifier)
        assert not holds
        assert failure.instance == cs.instances[0]
        for x in cs.instances:
            assert not decision_disentangled(cs, loaded.classifier, x)

    def test_parental_leave_fails_at_the_leave_decision(self, load_model):
        loaded = load_model("parental_leave")
        cs = loaded.constrained()
        assert not decision_disentangled(cs, loaded.classifier, (True, True))
        holds, failure = check_disentangled(cs, loaded.classifier)
        assert not holds

    def test_matches_brute_force_on_random_models(self):
        rng = random.Random(17)
        checked = 0
        for _ in range(40):
            rm = random_model(rng, max_features=5, max_domain=2)
            cs = enumerate_space(rm.space, rm.constraints)
            if not len(cs):
                continue
            checked += 1
            for x in cs.instances:
                assert decision_disentangled(cs, rm.classifier, x) == (
                    brute_force_disentangled(cs, rm.classifier, x)
                )
        assert checked >= 20


def brute_force_decomposable(cs) -> bool:
    """Every merge of a protected projection with an unprotected one is a
    constrained instance."""
    protected = sorted(cs.space.protected)
    unprotected = sorted(cs.space.unprotected)
    proj_p = {tuple(x[i] for i in protected) for x in cs.instances}
    proj_n = {tuple(x[i] for i in unprotected) for x in cs.instances}
    existing = set(cs.instances)
    for v in proj_p:
        for w in proj_n:
            merged: list = [None] * cs.space.n
            for i, val in zip(protected, v):
                merged[i] = val
            for i, val in zip(unprotected, w):
                merged[i] = val
            if tuple(merged) not in existing:
                return False
    return True


class TestDecomposable:
    def test_pregnancy_bonus_projection_product(self, load_model):
        loaded = load_model("pregnancy_bonus")
        assert check_decomposable(loaded.constrained())

    def test_mirrored_features_not_decomposable(self, load_model):
        loaded = load_model("mirrored_features")
        assert not check_decomposable(loaded.constrained())

    def test_empty_constraints_always_decompose(self, load_model):
        loaded = load_model("work_from_home")
        assert check_decomposable(loaded.full())

    def test_crossing_scope_can_still_decompose(self):
        # a tautologous crossing constraint: syntactic and semantic
        # readings of "no constraints between the parts" disagree
        space = FeatureSpace(
            [Feature(0, "a", B, True), Feature(1, "b", B, False)]
        )
        expr = parse_expr("(or (and a b) (and a (not b)) (not a))", space)
        from fairaudit.model import Constraint, ScopeProfile, constraint_scope_profile

        constraints = ConstraintSet((Constraint(expr),))
        assert constraint_scope_profile(space, constraints) is ScopeProfile.CROSSING
        assert check_decomposable(enumerate_space(space, constraints))

    def test_matches_brute_force_on_random_models(self):
        rng = random.Random(23)
        outcomes = []
        for _ in range(200):
            rm = random_model(rng, max_features=5, max_domain=4)
            for cs in (enumerate_space(rm.space, rm.constraints), unconstrained(rm.space)):
                outcomes.append(check_decomposable(cs))
                assert outcomes[-1] == brute_force_decomposable(cs)
        assert outcomes.count(False) >= 10


class TestFtci:
    def test_maternity_leave_becomes_protected(self, load_model):
        loaded = load_model("ftci_leave")
        graph = CausalGraph(
            frozenset({"gender", "maternity_leave", "goals"}),
            (("gender", "maternity_leave"),),
        )
        extended = extend_protected_ftci(loaded.space, graph)
        assert extended.protected == set(
            loaded.by_name("gender", "maternity_leave")
        )

    def test_empty_graph_changes_nothing(self, load_model):
        loaded = load_model("ftci_leave")
        graph = CausalGraph(
            frozenset({"gender", "maternity_leave", "goals"}), ()
        )
        assert extend_protected_ftci(loaded.space, graph) == loaded.space

    def test_reachability_passes_through_non_feature_vertices(self, load_model):
        loaded = load_model("adoption_race")
        graph = parse_causal_graph(
            {
                "vertices": ["race", "s1", "s2", "s", "same_race", "outcome_var"],
                "edges": [["race", "same_race"], ["same_race", "s"], ["s", "outcome_var"]],
            }
        )
        extended = extend_protected_ftci(loaded.space, graph)
        assert extended.protected == set(loaded.by_name("race", "s"))
        # hand-computed transitive closure: race -> same_race -> s -> outcome_var
        assert graph.reachable_from(["race"]) == {
            "race",
            "same_race",
            "s",
            "outcome_var",
        }

    def test_unknown_feature_vertex_rejected(self, load_model):
        loaded = load_model("ftci_leave")
        graph = CausalGraph(frozenset({"gender"}), ())
        with pytest.raises(DocumentError, match="not a vertex"):
            extend_protected_ftci(loaded.space, graph)

    def test_verdict_flips_after_extension(self, load_model):
        loaded = load_model("adoption_race")
        cs = loaded.constrained()
        before = classifier_verdict(cs, loaded.classifier)
        assert before.universal
        graph = parse_causal_graph(
            {
                "vertices": ["race", "s1", "s2", "s", "same_race", "outcome_var"],
                "edges": [["race", "same_race"], ["same_race", "s"]],
            }
        )
        extended = extend_protected_ftci(loaded.space, graph)
        cs2 = enumerate_space(extended, loaded.constraints)
        after = classifier_verdict(cs2, loaded.classifier)
        assert not after.existential


class TestDegenerate:
    def test_empty_constrained_space_is_vacuously_fair(self, load_model):
        loaded = load_model("empty-space")
        cs = loaded.constrained()
        assert len(cs) == 0
        v = classifier_verdict(cs, loaded.classifier)
        assert v.ftu and v.existential and v.universal and v.loose and v.disentangled
        assert any("empty constrained space" in w for w in space_warnings(cs))

    def test_singleton_protected_domain_warns(self):
        space = FeatureSpace(
            [Feature(0, "a", (True,), True), Feature(1, "b", B, False)]
        )
        cs = unconstrained(space)
        assert any("singleton domain" in w for w in space_warnings(cs))
