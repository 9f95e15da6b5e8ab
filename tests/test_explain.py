from __future__ import annotations

import itertools
import random

import pytest

from fairaudit import (
    Constraint,
    ConstraintSet,
    ExpressionClassifier,
    Feature,
    FeatureSpace,
    ModelSemanticError,
    TableClassifier,
    all_axps,
    coverage,
    enumerate_space,
    is_weak_axp,
    make_decision,
    one_axp,
    parse_expr,
    pi_explanations,
    strictly_subsumes,
    subsumes,
    unconstrained,
)
from fairaudit import explain, fairness, propcheck
from fairaudit.explain import ExplanationKind
from fairaudit.randmodels import random_constraints, random_model, random_space


def feature_sets(explanations):
    return {frozenset(e.features) for e in explanations}


class TestWeakAxp:
    def test_single_feature_suffices_under_constraints(self, load_model):
        loaded = load_model("training_course")
        cs = loaded.constrained()
        d = make_decision(cs, loaded.classifier, (False, False))
        e = loaded.by_name("e")
        assert is_weak_axp(cs, d, set(e))

    def test_full_feature_set_is_always_weak(self, load_model):
        loaded = load_model("training_course")
        cs = loaded.constrained()
        for x in cs.instances:
            d = make_decision(cs, loaded.classifier, x)
            assert is_weak_axp(cs, d, {0, 1})

    def test_same_set_fails_without_constraints(self, load_model):
        loaded = load_model("training_course")
        full = loaded.full()
        d = make_decision(full, loaded.classifier, (False, False))
        assert not is_weak_axp(full, d, set(loaded.by_name("e")))

    def test_monotone_in_the_feature_set(self):
        rng = random.Random(11)
        for _ in range(30):
            rm = random_model(rng, max_features=5)
            from fairaudit import enumerate_space

            cs = enumerate_space(rm.space, rm.constraints)
            if not len(cs):
                continue
            x = cs.instances[rng.randrange(len(cs))]
            d = make_decision(cs, rm.classifier, x)
            small = set(rng.sample(range(rm.space.n), rng.randint(0, rm.space.n)))
            big = small | {rng.randrange(rm.space.n)}
            if is_weak_axp(cs, d, small):
                assert is_weak_axp(cs, d, big)


class TestSubsumption:
    def test_implied_pair_from_the_definition(self, load_model):
        loaded = load_model("implied_pair")
        cs = loaded.constrained()
        x = (False, False)
        a, b = loaded.by_name("a"), loaded.by_name("b")
        assert subsumes(cs, x, set(a), set(b))
        assert not subsumes(cs, x, set(b), set(a))
        assert strictly_subsumes(cs, x, set(a), set(b))

    def test_subset_always_subsumed_by_superset_assignment(self):
        rng = random.Random(3)
        for _ in range(30):
            rm = random_model(rng, max_features=5)
            from fairaudit import enumerate_space

            cs = enumerate_space(rm.space, rm.constraints)
            if not len(cs):
                continue
            x = cs.instances[rng.randrange(len(cs))]
            a = set(rng.sample(range(rm.space.n), rng.randint(0, rm.space.n)))
            b = a | set(rng.sample(range(rm.space.n), rng.randint(0, rm.space.n)))
            assert subsumes(cs, x, a, b)

    def test_xor_link_pair_subsumes_protected_feature(self, load_model):
        loaded = load_model("xor_link")
        cs = loaded.constrained()
        x = (True, True, False)
        a = set(loaded.by_name("a"))
        bc = set(loaded.by_name("b", "c"))
        assert subsumes(cs, x, a, bc)

    def test_strict_subsumption_is_irreflexive(self, load_model):
        loaded = load_model("implied_pair")
        cs = loaded.constrained()
        assert not strictly_subsumes(cs, (False, False), {0}, {0})

    def test_unconstrained_subsumption_is_set_inclusion(self):
        # with every domain of size two or more, fixing more features
        # always covers strictly less, so subsumption collapses to
        # inclusion of the feature sets
        rng = random.Random(29)
        for _ in range(20):
            rm = random_model(rng, max_features=5)
            full = unconstrained(rm.space)
            x = full.instances[rng.randrange(len(full))]
            a = set(rng.sample(range(rm.space.n), rng.randint(0, rm.space.n)))
            b = set(rng.sample(range(rm.space.n), rng.randint(0, rm.space.n)))
            assert subsumes(full, x, a, b) == (a <= b)

    def test_equal_coverages_do_not_strictly_subsume(self, load_model):
        loaded = load_model("mirrored_features")
        cs = loaded.constrained()
        # both singletons cover exactly {(1,1)} here, checked by enumeration
        assert set(cs.instances) == {(False, False), (True, True)}
        assert not strictly_subsumes(cs, (True, True), {0}, {1})
        assert subsumes(cs, (True, True), {0}, {1})


class TestAllAxps:
    def test_work_from_home_axps(self, load_model):
        loaded = load_model("work_from_home")
        cs = loaded.constrained()
        d = make_decision(cs, loaded.classifier, (True, True, True, True))
        assert d.label == 0
        f, p, b, a = loaded.by_name("f", "p", "b", "a")
        assert feature_sets(all_axps(cs, d)) == {
            frozenset({a, b, p}),
            frozenset({f, p}),
        }

    def test_constant_classifier_has_empty_axp(self, load_model):
        loaded = load_model("implied_pair")
        cs = loaded.constrained()
        k = ExpressionClassifier(parse_expr("true", loaded.space))
        d = make_decision(cs, k, (True, True))
        assert [e.features for e in all_axps(cs, d)] == [()]

    def test_sick_leave_axps_without_constraints(self, load_model):
        loaded = load_model("sick_leave")
        full = loaded.full()
        d = make_decision(full, loaded.classifier, (True, True, True))
        f, s, e = loaded.by_name("f", "s", "e")
        assert feature_sets(all_axps(full, d)) == {
            frozenset({f, s}),
            frozenset({s, e}),
        }

    def test_deterministic_order_by_size_then_indices(self, load_model):
        loaded = load_model("work_from_home")
        cs = loaded.constrained()
        d = make_decision(cs, loaded.classifier, (True, True, True, True))
        got = [e.features for e in all_axps(cs, d)]
        assert got == sorted(got, key=lambda t: (len(t), t))

    def test_21_features_are_answered(self):
        # pinning all but nine keeps F[C] small; the prime recursion
        # enumerates no feature sets, so the width costs nothing
        n = 21
        space = FeatureSpace(
            [Feature(i, f"f{i}", (False, True), i % 4 == 0) for i in range(n)]
        )
        constraints = ConstraintSet(
            tuple(Constraint(parse_expr(f"(not f{i})", space)) for i in range(9, n))
        )
        cs = enumerate_space(space, constraints)
        assert len(cs) == 512
        k = ExpressionClassifier(parse_expr("(or f0 f1)", space))
        d = make_decision(cs, k, cs.instances[-1])
        for enumerate_reasons in (all_axps, pi_explanations):
            got = enumerate_reasons(cs, d)
            assert [(e.features, e.fair, e.coverage_size) for e in got] == [
                ((0,), False, 256),
                ((1,), True, 256),
            ]

    def test_decision_requires_constrained_instance(self, load_model):
        loaded = load_model("training_course")
        cs = loaded.constrained()
        with pytest.raises(ModelSemanticError):
            make_decision(cs, loaded.classifier, (False, True))


class TestAxpsAgainstDefinition:
    """all_axps against brute force over every subset: S is an AXp when
    S is weak and no S minus one feature is."""

    @staticmethod
    def definition(cs, d):
        n = cs.space.n
        weak = {
            s: is_weak_axp(cs, d, s)
            for size in range(n + 1)
            for s in itertools.combinations(range(n), size)
        }
        return [
            s
            for s, w in weak.items()
            if w and not any(weak[s[:j] + s[j + 1 :]] for j in range(len(s)))
        ]

    def check(self, cs, k, x):
        d = make_decision(cs, k, x)
        got = all_axps(cs, d)
        assert [e.features for e in got] == self.definition(cs, d)
        for e in got:
            assert e.coverage_size == len(coverage(cs, x, e.features))

    def test_random_models_with_multivalued_domains(self):
        rng = random.Random(41)
        for _ in range(60):
            rm = random_model(rng, max_features=6, max_domain=5)
            cs = enumerate_space(rm.space, rm.constraints)
            for x in cs.instances:
                self.check(cs, rm.classifier, x)

    def test_seventeen_one_hot_features(self):
        groups = [range(0, 4), range(4, 8), range(8, 12), range(12, 17)]
        space = FeatureSpace(
            [Feature(i, f"f{i}", (False, True), i < 4) for i in range(17)]
        )
        texts = []
        for g in groups:
            texts.append("(or " + " ".join(f"f{i}" for i in g) + ")")
            texts += [
                f"(not (and f{i} f{j}))" for i, j in itertools.combinations(g, 2)
            ]
        constraints = ConstraintSet(
            tuple(Constraint(parse_expr(t, space)) for t in texts)
        )
        k = ExpressionClassifier(
            parse_expr("(or (and f0 f5) (and f9 f13) (and f6 f16) f11)", space)
        )
        cs = enumerate_space(space, constraints)
        assert len(cs) == 320
        for x in cs.instances[23::69]:
            self.check(cs, k, x)


class TestPiExplanations:
    def test_adoption_single_protected_reason_under_constraints(self, load_model):
        loaded = load_model("adoption_same_race")
        cs = loaded.constrained()
        d = make_decision(cs, loaded.classifier, (True, True, True))
        (s,) = loaded.by_name("s")
        assert feature_sets(pi_explanations(cs, d)) == {frozenset({s})}

    def test_adoption_fair_reason_without_constraints(self, load_model):
        loaded = load_model("adoption_same_race")
        full = loaded.full()
        d = make_decision(full, loaded.classifier, (True, True, True))
        s1, s2 = loaded.by_name("s1", "s2")
        assert feature_sets(pi_explanations(full, d)) == {frozenset({s1, s2})}

    def test_mirrored_features_keep_both_reasons(self, load_model):
        loaded = load_model("mirrored_features")
        cs = loaded.constrained()
        d = make_decision(cs, loaded.classifier, (True, True))
        assert feature_sets(pi_explanations(cs, d)) == {
            frozenset({0}),
            frozenset({1}),
        }

    def test_fair_flag_tracks_protected_overlap(self, load_model):
        loaded = load_model("mirrored_features")
        cs = loaded.constrained()
        d = make_decision(cs, loaded.classifier, (True, True))
        by_feature = {e.features: e.fair for e in pi_explanations(cs, d)}
        assert by_feature == {(0,): False, (1,): True}

    def test_every_pi_is_an_axp_and_kind_is_set(self, load_model):
        loaded = load_model("work_from_home")
        cs = loaded.constrained()
        for x in cs.instances:
            d = make_decision(cs, loaded.classifier, x)
            axps = all_axps(cs, d)
            pis = pi_explanations(cs, d)
            assert pis
            assert feature_sets(pis) <= feature_sets(axps)
            assert all(e.kind is ExplanationKind.PI for e in pis)
            assert all(e.kind is ExplanationKind.AXP for e in axps)

    def test_unconstrained_pi_equals_axps(self):
        rng = random.Random(23)
        for _ in range(25):
            rm = random_model(rng, max_features=5, max_domain=2)
            full = unconstrained(rm.space)
            x = full.instances[rng.randrange(len(full))]
            d = make_decision(full, rm.classifier, x)
            assert feature_sets(all_axps(full, d)) == feature_sets(
                pi_explanations(full, d)
            )


class TestOneAxp:
    def test_training_course_deletion_trace(self, load_model):
        # dropping e first breaks the weak AXp, so only m is removed
        loaded = load_model("training_course")
        cs = loaded.constrained()
        d = make_decision(cs, loaded.classifier, (False, False))
        e, m = loaded.by_name("e", "m")
        got = one_axp(cs, d, seed_order=(e, m))
        assert got.features == (e,)
        # default order walks features from the highest index down
        assert one_axp(cs, d).features == (e,)

    def test_constant_classifier_shrinks_to_empty(self, load_model):
        loaded = load_model("implied_pair")
        cs = loaded.constrained()
        k = ExpressionClassifier(parse_expr("false", loaded.space))
        d = make_decision(cs, k, (False, False))
        for order in itertools.permutations(range(2)):
            assert one_axp(cs, d, seed_order=order).features == ()

    def test_sick_leave_unconstrained_trace(self, load_model):
        loaded = load_model("sick_leave")
        full = loaded.full()
        d = make_decision(full, loaded.classifier, (True, True, True))
        f, s, e = loaded.by_name("f", "s", "e")
        got = one_axp(full, d, seed_order=(f, s, e))
        assert set(got.features) == {s, e}

    def test_rejects_non_permutations(self, load_model):
        loaded = load_model("training_course")
        cs = loaded.constrained()
        d = make_decision(cs, loaded.classifier, (False, False))
        with pytest.raises(ModelSemanticError):
            one_axp(cs, d, seed_order=(0, 0))

    def test_result_is_minimal_and_member_of_all_axps(self):
        rng = random.Random(5)
        from fairaudit import enumerate_space

        for _ in range(40):
            rm = random_model(rng, max_features=6, max_domain=3)
            cs = enumerate_space(rm.space, rm.constraints)
            if not len(cs):
                continue
            x = cs.instances[rng.randrange(len(cs))]
            d = make_decision(cs, rm.classifier, x)
            order = list(range(rm.space.n))
            rng.shuffle(order)
            got = one_axp(cs, d, seed_order=order)
            assert is_weak_axp(cs, d, got.features)
            for i in got.features:
                rest = set(got.features) - {i}
                assert not is_weak_axp(cs, d, rest)
            assert frozenset(got.features) in feature_sets(all_axps(cs, d))


def both_engines(cs, k, upto=None):
    """Per decision at a rank up to upto (every decision by default), its
    AXp and PI feature sets from the prime cubes covering it, and from
    one Berge search."""
    found = explain.primes(cs, k, upto)
    primes, berge = [], []
    for x in cs.instances:
        r = cs.rank(x)
        if upto is not None and r > upto:
            break
        covering = [t for t in found if t.cov >> r & 1]
        pis_here = [t.pi.features for t in covering if t.pi]
        primes.append(([t.features for t in covering], pis_here))
        d = make_decision(cs, k, x)
        sets = propcheck._berge_axps(cs, d)
        berge.append((sets, [e.features for e in propcheck.explained(cs, d, sets)[1]]))
    return primes, berge


def brute_differences(cs, d) -> list[int]:
    """The minimal difference sets over instance tuples, bit i for
    feature i, ascending."""
    x = d.instance
    diffs = {
        sum(1 << i for i, (u, v) in enumerate(zip(x, y)) if u != v)
        for y in cs.instances
        if d.classifier.evaluate(y) != d.label
    }
    return sorted(s for s in diffs if not any(t != s and t & s == t for t in diffs))


def mask_differences(cs, d) -> list[int]:
    """A decision's minimal difference sets from the rank masks, ascending."""
    return sorted(propcheck._mask_differences(cs, d))


class TestDifferenceSets:
    """The rank masks give Berge the minimal difference sets that a brute
    force over instance tuples gives."""

    def test_seeded_random_models(self):
        rng = random.Random(812)
        decisions = 0
        for _ in range(200):
            rm = random_model(rng, max_features=6, max_domain=5)
            for cs in (enumerate_space(rm.space, rm.constraints), unconstrained(rm.space)):
                for x in rng.sample(cs.instances, min(len(cs), 12)):
                    d = make_decision(cs, rm.classifier, x)
                    assert mask_differences(cs, d) == brute_differences(cs, d)
                    decisions += 1
        assert decisions >= 3000

    def test_singleton_domains(self):
        rng = random.Random(813)
        for _ in range(60):
            space = random_space(rng, max_features=5, max_domain=5)
            features = list(space.features)
            for i in rng.sample(range(len(features)), rng.randint(1, len(features))):
                f = features[i]
                features[i] = Feature(i, f.name, f.domain[-1:], f.protected)
            space = FeatureSpace(features)
            cs = enumerate_space(space, random_constraints(rng, space))
            domains = [f.domain for f in space.features]
            labels = tuple(rng.randrange(3) for _ in itertools.product(*domains))
            k = TableClassifier(tuple(domains), labels, 3)
            for x in cs.instances:
                d = make_decision(cs, k, x)
                assert mask_differences(cs, d) == brute_differences(cs, d)
            primes, berge = both_engines(cs, k)
            assert primes == berge

    def test_constant_classifier_has_no_difference_sets(self, load_model):
        loaded = load_model("work_from_home")
        k = ExpressionClassifier(parse_expr("false", loaded.space))
        for cs in (loaded.constrained(), loaded.full()):
            for x in cs.instances:
                assert mask_differences(cs, make_decision(cs, k, x)) == []
                assert propcheck._berge_axps(cs, make_decision(cs, k, x)) == [()]

    def test_empty_space(self, load_model):
        empty = load_model("empty-space")
        cs = empty.constrained()
        assert len(cs) == 0
        # no instance is labelled otherwise, whatever the instance asked about
        x = empty.full().instances[0]
        d = explain.Decision(empty.classifier, x, 0)
        assert propcheck._mask_differences(cs, d) == []
        assert explain.primes(cs, empty.classifier) == []


class TestLatticeAgainstBerge:
    """Every label's prime cubes, the part of the cube lattice that the
    audit reads its reasons from, give every decision the AXps and
    PI-explanations that a Berge search for that decision gives; the
    primes up to a rank give them to every decision up to it."""

    def test_seeded_random_models(self):
        rng = random.Random(808)
        decisions = 0
        for _ in range(150):
            rm = random_model(rng, max_features=6, max_domain=5)
            spaces = (enumerate_space(rm.space, rm.constraints), unconstrained(rm.space))
            for cs in spaces:
                upto = rng.choice([None, rng.randrange(cs.size)])
                primes, berge = both_engines(cs, rm.classifier, upto)
                assert primes == berge
                decisions += len(berge)
        assert decisions >= 5000

    def test_tables_with_two_to_five_classes(self):
        rng = random.Random(809)
        for _ in range(80):
            space = random_space(rng, max_features=5, max_domain=5)
            cs = enumerate_space(space, random_constraints(rng, space))
            classes = rng.randint(2, 5)
            domains = tuple(f.domain for f in space.features)
            # labels read a few features, so reasons are small and varied
            reads = rng.sample(range(space.n), min(space.n, 3))
            by_read: dict = {}
            labels = tuple(
                by_read.setdefault(tuple(x[i] for i in reads), rng.randrange(classes))
                for x in itertools.product(*domains)
            )
            k = TableClassifier(domains, labels, classes)
            primes, berge = both_engines(cs, k)
            assert primes == berge

    def test_constant_classifier_and_empty_space(self, load_model):
        loaded = load_model("bonus_goals")
        constant = ExpressionClassifier(parse_expr("true", loaded.space))
        primes, berge = both_engines(loaded.full(), constant)
        assert primes == berge == [([()], [()])] * 8
        (empty_cube,) = explain.primes(loaded.full(), constant)
        assert empty_cube.cov == loaded.full().sel and empty_cube.label == 1
        empty = load_model("empty-space")
        assert list(fairness.decision_verdicts(empty.constrained(), empty.classifier)) == []

    def test_every_fixture(self, fixtures_dir, load_model):
        paths = sorted(fixtures_dir.glob("*.json"))
        assert len(paths) == 18
        for path in paths:
            loaded = load_model(path.stem)
            for cs in (loaded.constrained(), loaded.full()):
                primes, berge = both_engines(cs, loaded.classifier)
                assert primes == berge, path.name


class TestDecisionReasons:
    """decision_verdicts gives every decision what decision_verdict gives
    it: one prime recursion per label for the whole walk, against one
    recursion seeded at each decision, which leaves no table behind."""

    def test_one_recursion_per_label_and_no_berge_search(self, recursion_seeds):
        space = FeatureSpace(
            [Feature(i, f"f{i}", (False, True), i % 4 == 0) for i in range(10)]
        )
        k = ExpressionClassifier(parse_expr("(or (and f1 f2) (and f3 (not f5)) f7)", space))
        cs = unconstrained(space)
        decisions = [make_decision(cs, k, x) for x in cs.instances]
        kept = set(cs._memo)
        want = [fairness.decision_verdict(cs, d) for d in decisions]
        assert recursion_seeds == [1 << r for r in range(len(cs))]
        assert set(cs._memo) == kept  # no list per decision
        recursion_seeds.clear()
        assert list(fairness.decision_verdicts(cs, k)) == want
        # each label once, its seed that label's decisions
        assert recursion_seeds == list(cs.label_masks(k).values())

    def test_seeded_random_models_read_for_a_random_length(self):
        rng = random.Random(810)
        for _ in range(100):
            rm = random_model(rng, max_features=6, max_domain=5)
            for cs in (enumerate_space(rm.space, rm.constraints), unconstrained(rm.space)):
                k = rm.classifier
                read = rng.randrange(len(cs) + 1)
                want = [
                    fairness.decision_verdict(cs, make_decision(cs, k, x))
                    for x in cs.instances[:read]
                ]
                walk = fairness.decision_verdicts(cs, k)
                assert [next(walk) for _ in range(read)] == want
