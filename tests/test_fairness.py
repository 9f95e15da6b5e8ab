from __future__ import annotations

import itertools
import random

import pytest

from fairaudit import (
    CausalGraph,
    Constraint,
    DecisionStatus,
    DocumentError,
    ExpressionClassifier,
    Feature,
    FeatureSpace,
    FtuViolationError,
    ModelSemanticError,
    TableClassifier,
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
from fairaudit.model import ConstrainedSpace, ConstraintSet
from fairaudit.randmodels import random_constraints, random_model, random_space

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

    @pytest.mark.parametrize(
        "space_domain, table_domain, searched",
        [((0, 1, 2), (0, 1, 2, 5), True), ((0, 1, 2), (0, 1), False), ((0, 1), B, True)],
        ids=["wider", "narrower", "typed"],
    )
    def test_a_table_over_other_domains_is_refused_by_the_mask_engine(
        self, space_domain, table_domain, searched
    ):
        # the table's rows are laid out over its own domain of n, not
        # the space's; (False, True) equals (0, 1) but for its types.
        # Exhaustive FTU reads label masks and must refuse; the search
        # reads the table's cubes and still answers, unless the table
        # lacks a value of the space's, which it gives no label
        space = FeatureSpace([Feature(0, "a", B, False), Feature(1, "n", space_domain, True)])
        domains = (B, table_domain)
        labels = tuple(int(n == 5) for _, n in itertools.product(*domains))
        k = TableClassifier(domains, labels, 2)
        cs = unconstrained(space)
        with pytest.raises(ModelSemanticError, match="table domains"):
            check_ftu(cs, k, "exhaustive")
        if searched:
            assert check_ftu(cs, k, "search") == (True, None)
        else:
            with pytest.raises(ModelSemanticError, match="table domains"):
                check_ftu(cs, k, "search")

    def test_the_search_refuses_a_table_without_a_value_of_the_space(self):
        # protected n has the value 2 in the space and none in the table,
        # whose label reads n: the search used to leave n = 2 in no cube
        # and could decode a witness the table cannot label
        space = FeatureSpace([Feature(0, "a", B, False), Feature(1, "n", (0, 1, 2), True)])
        domains = (B, (0, 1))
        labels = tuple(int(n == 1) for _, n in itertools.product(*domains))
        k = TableClassifier(domains, labels, 2)
        for cs in (unconstrained(space), unconstrained(space.with_protected(()))):
            with pytest.raises(ModelSemanticError, match="table domains differ"):
                check_ftu(cs, k, "search")

    def test_multiclass_tables_match_the_pairwise_oracle(self):
        rng = random.Random(41)
        outcomes = []
        for _ in range(150):
            cs, k = random_multiclass_table(rng)
            outcomes.append(check_ftu(cs, k))
            assert outcomes[-1] == brute_force_ftu(cs, k)
        assert 30 <= sum(holds for holds, _ in outcomes) <= 120


def random_multiclass_table(rng):
    """A constrained space with a table of 2-5 classes over domains of up
    to 5 values: a function of the unprotected values (FTU everywhere),
    the same with one row changed, or random rows."""
    space = random_space(rng, max_features=4, max_domain=5)
    cs = enumerate_space(space, random_constraints(rng, space))
    classes = rng.randint(2, 5)
    domains = tuple(f.domain for f in space.features)
    full = list(itertools.product(*domains))
    kind = rng.randrange(3)
    if kind == 2:
        labels = [rng.randrange(classes) for _ in full]
    else:
        by_n: dict = {}
        labels = [
            by_n.setdefault(tuple(x[i] for i in sorted(space.unprotected)),
                            rng.randrange(classes))
            for x in full
        ]
        if kind == 1:
            labels[rng.randrange(len(full))] = rng.randrange(classes)
    return cs, TableClassifier(domains, tuple(labels), classes)


def brute_force_ftu(cs, k):
    """The least x whose unprotected projection some constrained instance
    labelled otherwise shares, with the least such instance."""
    unprotected = sorted(cs.space.unprotected)
    for x in cs.instances:
        for y in cs.instances:
            if all(y[i] == x[i] for i in unprotected) and k.evaluate(y) != k.evaluate(x):
                return False, (x, y)
    return True, None


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


def two_walk_reference(cs, k):
    """The classifier-level failures from every decision's own verdict
    and disentangledness, each from one reasons call."""
    verdicts = [decision_verdict(cs, make_decision(cs, k, x)) for x in cs.instances]
    unfair = [v for v in verdicts if v.status is DecisionStatus.UNFAIR]
    partly = [v for v in verdicts if v.unfair_pi is not None]
    tangled = [x for x in cs.instances if not decision_disentangled(cs, k, x)]
    return verdicts, {
        "existential": not unfair,
        "existential_failure": unfair[0].decision if unfair else None,
        "universal": not partly,
        "universal_failure": partly[0].decision if partly else None,
        "universal_unfair_pi": partly[0].unfair_pi if partly else None,
        "disentangled": not tangled,
        "disentangled_failure": make_decision(cs, k, tangled[0]) if tangled else None,
    }


class TestOneWalk:
    def test_matches_the_two_walk_reference_on_random_models(self):
        rng = random.Random(606)
        early_exits = violated = 0
        for _ in range(200):
            rm = random_model(rng, max_features=6)
            for cs in (enumerate_space(rm.space, rm.constraints), unconstrained(rm.space)):
                v = classifier_verdict(cs, rm.classifier)
                verdicts, expected = two_walk_reference(cs, rm.classifier)
                assert {name: getattr(v, name) for name in expected} == expected
                assert check_disentangled(cs, rm.classifier) == (
                    expected["disentangled"],
                    expected["disentangled_failure"],
                )
                # the verdict read the primes only up to the FTU witness
                early_exits += not v.ftu and v.ftu_counterexample[0] != cs.instances[-1]
                violated += not (v.existential and v.universal and v.disentangled)
        assert early_exits >= 100 and violated >= 150


def boolean_space(n: int) -> FeatureSpace:
    """n boolean features f0.., every fourth protected."""
    return FeatureSpace([Feature(i, f"f{i}", B, i % 4 == 0) for i in range(n)])


class TestEngineChoice:
    """An audit finds every AXp it reads by one prime recursion per label,
    seeded with that label's decisions; when FTU fails the seeds stop at
    the FTU witness. One decision's verdict runs one recursion, seeded
    with that decision."""

    def test_dense_fair_model_runs_one_recursion_per_label(self, recursion_seeds):
        space = boolean_space(10)
        k = ExpressionClassifier(
            parse_expr("(or (and f1 f2) (and f3 (not f5)) (and f6 f7 f9))", space)
        )
        cs = unconstrained(space)
        v = classifier_verdict(cs, k)
        assert v.universal and v.disentangled and len(cs) == 1024
        assert recursion_seeds == list(cs.label_masks(k).values())

    def test_one_hot_model_runs_one_recursion_per_label(self, recursion_seeds):
        space = boolean_space(16)
        texts = []
        for g in range(0, 16, 4):
            texts.append("(or " + " ".join(f"f{i}" for i in range(g, g + 4)) + ")")
            texts += [
                f"(not (and f{i} f{j}))"
                for i, j in itertools.combinations(range(g, g + 4), 2)
            ]
        constraints = ConstraintSet(
            tuple(Constraint(parse_expr(t, space)) for t in texts)
        )
        k = ExpressionClassifier(parse_expr("(or (and f1 f5) f10 (and f6 f15))", space))
        cs = enumerate_space(space, constraints)
        assert len(cs) == 256
        v = classifier_verdict(cs, k)
        assert v.existential  # FTU holds: every decision is read
        assert recursion_seeds == list(cs.label_masks(k).values())

    def test_early_exit_seeds_no_rank_past_the_ftu_witness(self, recursion_seeds):
        # dense, and FTU fails early: the recursion is asked about the
        # decisions up to the witness, a few of F[C]'s 1,024, and not
        # for a label none of them has
        space = boolean_space(10)
        k = ExpressionClassifier(parse_expr("(or (and f0 f9) (and f2 f3))", space))
        cs = unconstrained(space)
        holds, (x, _) = check_ftu(cs, k)
        assert not holds and cs.rank(x) < 64
        v = classifier_verdict(cs, k)
        assert not v.existential
        upto = (2 << cs.rank(x)) - 1
        seeds = [m & upto for m in cs.label_masks(k).values()]
        assert recursion_seeds == [s for s in seeds if s]

    def test_one_decision_runs_one_seeded_recursion(self, recursion_seeds):
        space = boolean_space(10)
        k = ExpressionClassifier(parse_expr("(or (and f0 f9) (and f2 f3))", space))
        cs = unconstrained(space)
        x = cs.instances[700]
        decision_verdict(cs, make_decision(cs, k, x))
        assert recursion_seeds == [1 << 700]


class TestFtuWitnessBound:
    def test_the_walk_stops_at_the_ftu_witness_at_the_latest(self, recursion_seeds):
        rng = random.Random(325)
        failing = 0
        for _ in range(300):
            rm = random_model(rng, max_features=6, max_domain=4)
            cs = enumerate_space(rm.space, rm.constraints)
            holds, pair = check_ftu(cs, rm.classifier)
            if holds:
                continue
            failing += 1
            x = pair[0]
            v = decision_verdict(cs, make_decision(cs, rm.classifier, x))
            assert v.fair_pi is None and v.status is DecisionStatus.UNFAIR
            assert not decision_disentangled(cs, rm.classifier, x)
            # every witness lies at or before x, and the recursion is
            # asked about no decision after it
            recursion_seeds.clear()
            walked = classifier_verdict(cs, rm.classifier)
            tangled = check_disentangled(cs, rm.classifier)[1]
            for d in (walked.existential_failure, walked.universal_failure, tangled):
                assert cs.rank(d.instance) <= cs.rank(x)
            assert walked.disentangled_failure == tangled
            assert recursion_seeds and all(s >> cs.rank(x) + 1 == 0 for s in recursion_seeds)
        assert failing >= 60


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

    def test_multiclass_completion_matches_the_projection_oracle(self):
        rng = random.Random(43)
        built = 0
        for _ in range(150):
            cs, k = random_multiclass_table(rng)
            default = rng.randrange(k.class_count)
            holds, pair = brute_force_ftu(cs, k)
            if not holds:
                with pytest.raises(FtuViolationError) as err:
                    build_completion(cs, k, default)
                assert err.value.counterexample == pair
                continue
            built += 1
            hat = build_completion(cs, k, default)
            unprotected = sorted(cs.space.unprotected)
            first: dict = {}  # unprotected values -> the least instance with them
            for x in cs.instances:
                first.setdefault(tuple(x[i] for i in unprotected), x)
            for z in itertools.product(*k.domains):
                seen = first.get(tuple(z[i] for i in unprotected))
                assert hat.evaluate(z) == (default if seen is None else k.evaluate(seen))
            assert hat.class_count == k.class_count
        assert built >= 30


class TestLoose:
    def test_check_loose_at_projects_once_per_space(self, load_model, monkeypatch):
        loaded = load_model("work_from_home")
        cs = loaded.constrained()
        calls = []
        project = ConstrainedSpace.exists

        def counted(space, mask, features):
            calls.append(space)
            return project(space, mask, features)

        monkeypatch.setattr(ConstrainedSpace, "exists", counted)
        answers = [check_loose_at(cs, x) for x in cs.instances]
        once = len(calls)
        assert once and set(calls) == {cs}
        assert answers == [check_loose_at(cs, x) for x in cs.instances]
        assert len(calls) == once
        assert True in answers and False in answers
        fresh = loaded.constrained()
        check_loose_at(fresh, fresh.instances[0])
        assert len(calls) == 2 * once

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
        # unprotected assignment strictly. With constraints, python sets
        # give the verdict, the least witness and every pointwise answer.
        rng = random.Random(2)
        violated = 0
        for _ in range(60):
            space = random_space(rng, max_features=4, max_domain=5, min_features=1)
            constrained = enumerate_space(space, random_constraints(rng, space))
            for cs in (unconstrained(space), constrained):
                holds, violation = check_loose(cs)
                assert (holds, violation) == brute_force_loose(cs)
                for x in cs.instances:
                    assert check_loose_at(cs, x) == (loose_violation_at(cs, x) is None)
            assert check_loose(unconstrained(space)) == (True, None)
            violated += violation is not None
        assert violated >= 10


def loose_violation_at(cs, x):
    """The least protected feature whose literal at x strictly subsumes
    x's unprotected assignment, by python sets; None when there is none."""
    cov_n = {
        y for y in cs.instances if all(y[i] == x[i] for i in cs.space.unprotected)
    }
    for p in sorted(cs.space.protected):
        if cov_n < {y for y in cs.instances if y[p] == x[p]}:
            return p
    return None


def brute_force_loose(cs):
    for x in cs.instances:
        p = loose_violation_at(cs, x)
        if p is not None:
            return False, (x, p)
    return True, None


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
            rm = random_model(rng, max_features=5, max_domain=5)
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
