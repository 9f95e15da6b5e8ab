from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import (
    CapacityError,
    DocumentError,
    ExprSyntaxError,
    Feature,
    FeatureSpace,
    ModelSemanticError,
    ScopeProfile,
    constraint_scope_profile,
    coverage,
    enumerate_space,
    parse_model,
    render_model,
    unconstrained,
)
from fairaudit.classifier import parse_classifier
from fairaudit.model import ENUMERATION_CAP, ConstrainedSpace, PartialAssignment


def doc(features, constraints=()):
    return json.dumps({"features": features, "constraints": list(constraints)})


BOOL = [False, True]


def bool_feature(name, protected=False):
    return {"name": name, "domain": BOOL, "protected": protected}


class TestParseModel:
    def test_onehot_gender_model(self):
        text = doc(
            [bool_feature("m", True), bool_feature("f", True), bool_feature("g")],
            ["(iff m (not f))"],
        )
        space, constraints = parse_model(text)
        assert space.names == ("m", "f", "g")
        assert space.protected == {0, 1}
        assert len(constraints) == 1
        assert constraints.constraints[0].scope == {0, 1}

    def test_zero_constraints_means_full_space(self):
        space, constraints = parse_model(doc([bool_feature("a"), bool_feature("b")]))
        assert len(constraints) == 0
        cs = enumerate_space(space, constraints)
        assert len(cs) == 4

    def test_integer_domain_with_bound_constraint(self):
        text = doc(
            [
                bool_feature("m", True),
                {"name": "n", "domain": [0, 1, 2], "protected": False},
            ],
            ["(le n 1)"],
        )
        space, constraints = parse_model(text)
        assert constraints.constraints[0].scope == {1}

    def test_duplicate_names_rejected(self):
        with pytest.raises(ModelSemanticError, match="duplicate"):
            parse_model(doc([bool_feature("a"), bool_feature("a")]))

    def test_unknown_identifier_rejected(self):
        with pytest.raises(ModelSemanticError, match="unknown feature"):
            parse_model(doc([bool_feature("a")], ["(and a b)"]))

    def test_out_of_domain_constant_rejected(self):
        features = [{"name": "n", "domain": [0, 1, 2], "protected": False}]
        with pytest.raises(ModelSemanticError, match="outside the domain"):
            parse_model(doc(features, ["(= n 5)"]))

    def test_comparison_kind_mismatch_rejected(self):
        with pytest.raises(ModelSemanticError, match="match the domain kind"):
            parse_model(doc([bool_feature("a")], ["(= a 1)"]))
        with pytest.raises(ModelSemanticError, match="integer features only"):
            parse_model(doc([bool_feature("a")], ["(le a 1)"]))

    def test_bare_integer_feature_rejected(self):
        features = [{"name": "n", "domain": [0, 1], "protected": False}]
        with pytest.raises(ModelSemanticError, match="cannot stand alone"):
            parse_model(doc(features, ["n"]))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_model(doc([bool_feature("a")], ["(and a"]))
        assert err.value.line == 1
        assert err.value.column >= 6

    def test_malformed_json_reports_position(self):
        with pytest.raises(DocumentError, match="line"):
            parse_model("{not json")

    def test_empty_domain_rejected(self):
        with pytest.raises(ModelSemanticError, match="empty domain"):
            parse_model(doc([{"name": "a", "domain": [], "protected": False}]))

    def test_mixed_domain_rejected(self):
        with pytest.raises(ModelSemanticError, match="all booleans or all integers"):
            parse_model(doc([{"name": "a", "domain": [True, 0], "protected": False}]))


class TestEnumerate:
    def test_onehot_gender_space_has_four_instances(self):
        # independent oracle: brute-force the 8 boolean vectors
        space, constraints = parse_model(
            doc(
                [bool_feature("m", True), bool_feature("f", True), bool_feature("g")],
                ["(iff m (not f))"],
            )
        )
        expected = [
            (m, f, g)
            for m in BOOL
            for f in BOOL
            for g in BOOL
            if m == (not f)
        ]
        cs = enumerate_space(space, constraints)
        assert list(cs.instances) == expected
        assert len(cs) == 4

    def test_xor_link_space_pins_one_instance_per_pair(self):
        space, constraints = parse_model(
            doc(
                [bool_feature("a", True), bool_feature("b"), bool_feature("c")],
                ["(iff a (or (and (not b) c) (and b (not c))))"],
            )
        )
        cs = enumerate_space(space, constraints)
        assert len(cs) == 4
        pairs = {(x[1], x[2]) for x in cs.instances}
        assert len(pairs) == 4

    def test_capacity_error_above_cap(self):
        # |F| = 2^25 is above ENUMERATION_CAP; refused before any mask
        space, constraints = parse_model(doc([bool_feature(f"f{i}") for i in range(25)]))
        assert space.full_size() > ENUMERATION_CAP
        with pytest.raises(CapacityError, match="cap"):
            enumerate_space(space, constraints)
        with pytest.raises(CapacityError, match="cap"):
            unconstrained(space)

    @given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=5))
    def test_unconstrained_count_is_domain_product(self, sizes):
        features = [
            Feature(i, f"f{i}", tuple(range(size)), False)
            for i, size in enumerate(sizes)
        ]
        cs = unconstrained(FeatureSpace(features))
        expected = 1
        for size in sizes:
            expected *= size
        assert len(cs) == expected


class TestCoverage:
    def test_training_course_coverage_prunes_impossible_pair(self):
        space, constraints = parse_model(
            doc(
                [bool_feature("e"), bool_feature("m", True)],
                ["(implies m e)"],
            )
        )
        cs = enumerate_space(space, constraints)
        x = (False, False)
        assert coverage(cs, x, {0}) == ((False, False),)

    def test_full_feature_set_pins_the_instance(self):
        space, constraints = parse_model(
            doc([bool_feature("a"), bool_feature("b")])
        )
        cs = enumerate_space(space, constraints)
        for x in cs.instances:
            assert coverage(cs, x, {0, 1}) == (x,)

    def test_mirrored_pair_coverage(self):
        space, constraints = parse_model(
            doc([bool_feature("a", True), bool_feature("b")], ["(iff a b)"])
        )
        cs = enumerate_space(space, constraints)
        # brute force over the two surviving instances
        assert coverage(cs, (True, True), {0}) == ((True, True),)

    def test_coverage_requires_constrained_instance(self):
        space, constraints = parse_model(
            doc([bool_feature("a", True), bool_feature("b")], ["(iff a b)"])
        )
        cs = enumerate_space(space, constraints)
        with pytest.raises(ModelSemanticError):
            coverage(cs, (True, False), {0})

    @given(st.data())
    @settings(max_examples=60)
    def test_coverage_antimonotone_and_reflexive(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        features = [Feature(i, f"f{i}", (False, True), False) for i in range(n)]
        cs = unconstrained(FeatureSpace(features))
        x = data.draw(st.sampled_from(cs.instances))
        small = data.draw(st.sets(st.integers(0, n - 1)))
        extra = data.draw(st.sets(st.integers(0, n - 1)))
        big = small | extra
        cov_small = set(coverage(cs, x, small))
        cov_big = set(coverage(cs, x, big))
        assert cov_big <= cov_small
        assert x in cov_big
        assert set(coverage(cs, x, set())) == set(cs.instances)


class TestMembership:
    """contains, position and label_at come from an instance's rank and
    the constraint mask; values compare with ==, as tuples do."""

    @pytest.fixture
    def cs(self):
        space, constraints = parse_model(
            doc(
                [
                    bool_feature("a", True),
                    {"name": "n", "domain": [3, 1, 2], "protected": False},
                    bool_feature("b"),
                ],
                ["(implies a b)"],
            )
        )
        return enumerate_space(space, constraints)

    def test_positions_follow_the_canonical_order(self, cs):
        assert len(cs) == 9
        for i, x in enumerate(cs.instances):
            assert cs.contains(x) and cs.position(x) == i

    @pytest.mark.parametrize(
        "x",
        [
            (False, 3),  # too short
            (False, 3, True, True),  # too long
            (False, 4, True),  # 4 is not in n's domain
            (False, 3, 2),  # 2 is not in b's domain
            (True, 3, False),  # a without b
            (),
        ],
    )
    def test_outside_the_space(self, cs, x):
        assert not cs.contains(x)
        with pytest.raises(ModelSemanticError, match="does not satisfy"):
            cs.position(x)

    def test_one_and_zero_stand_for_true_and_false(self, cs):
        assert cs.contains((1, 2, 1)) and cs.contains((0, 1, 0))
        assert cs.position((1, 2, 1)) == cs.position((True, 2, True))
        assert not cs.contains((1, 2, 0))
        assert cs.contains((False, True, False))  # True == 1, in n's domain

    def test_label_at_reads_the_label_masks(self, cs):
        k = parse_classifier({"form": "expression", "expr": "(or b (= n 2))"}, cs.space)
        for x in cs.instances:
            assert cs.label_at(k, x) == k.evaluate(x)
        assert cs.label_at(k, (0, 2, 0)) == 1
        with pytest.raises(ModelSemanticError):
            cs.label_at(k, (True, 3, False))

    def test_instances_are_built_on_first_use(self, cs, monkeypatch):
        def refuse(self, mask):
            raise AssertionError("F[C] enumerated")

        monkeypatch.setattr(ConstrainedSpace, "instances_of_mask", refuse)
        assert len(cs) == 9 and cs.contains((True, 1, True))
        assert cs.position((True, 1, True)) == 7


class TestScopeProfile:
    def _profile(self, features, constraints):
        space, cons = parse_model(doc(features, constraints))
        return constraint_scope_profile(space, cons)

    def test_only_protected(self):
        assert (
            self._profile(
                [bool_feature("f", True), bool_feature("p", True), bool_feature("g")],
                ["(implies p f)"],
            )
            is ScopeProfile.ONLY_P
        )

    def test_only_unprotected(self):
        assert (
            self._profile(
                [bool_feature("f", True), bool_feature("s"), bool_feature("e")],
                ["(or (not s) e)"],
            )
            is ScopeProfile.ONLY_N
        )

    def test_crossing(self):
        assert (
            self._profile(
                [bool_feature("a", True), bool_feature("b")],
                ["(iff a b)"],
            )
            is ScopeProfile.CROSSING
        )

    def test_none_and_separate(self):
        features = [bool_feature("a", True), bool_feature("b")]
        assert self._profile(features, []) is ScopeProfile.NONE
        assert (
            self._profile(features, ["(not a)", "b"])
            is ScopeProfile.P_AND_N_SEPARATE
        )

    def test_featureless_constraints_do_not_count(self):
        assert (
            self._profile([bool_feature("a", True), bool_feature("b")], ["true"])
            is ScopeProfile.NONE
        )

    def test_crossing_iff_some_scope_meets_both_sides(self):
        import random

        from fairaudit.randmodels import random_constraints, random_space

        rng = random.Random(31)
        for _ in range(40):
            space = random_space(rng, max_features=6)
            constraints = random_constraints(rng, space, profile="any")
            crossing = any(
                c.scope & space.protected and c.scope & space.unprotected
                for c in constraints
            )
            got = constraint_scope_profile(space, constraints)
            assert (got is ScopeProfile.CROSSING) == crossing


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name",
        [
            "bonus_goals",
            "spouses",
            "work_from_home",
            "adoption_same_race",
            "implied_pair",
        ],
    )
    def test_parse_render_parse_is_identity(self, name, load_model):
        loaded = load_model(name)
        text = render_model(loaded.space, loaded.constraints)
        space2, constraints2 = parse_model(text)
        assert space2 == loaded.space
        assert constraints2 == loaded.constraints
        assert render_model(space2, constraints2) == text


class TestPartialAssignment:
    def test_restrict_law(self):
        x = (True, False, True)
        pa = PartialAssignment.restrict(x, {2, 0})
        assert pa.values == ((0, True), (2, True))
        assert pa.agrees_with((True, True, True))
        assert not pa.agrees_with((False, False, True))

    def test_by_name(self):
        space = FeatureSpace(
            [Feature(0, "a", (False, True), True), Feature(1, "b", (0, 1, 2), False)]
        )
        pa = PartialAssignment.restrict((True, 2), {0, 1})
        assert pa.by_name(space) == {"a": True, "b": 2}


class TestBitParallelAgainstBruteForce:
    """The constrained space, its masks and labels against per-instance
    evaluation over itertools.product. Masks are indexed by rank, the
    position in the full product, and hold only constrained instances."""

    @staticmethod
    def check(space, constraints, classifiers=(), probes=8):
        import itertools
        import random

        from fairaudit import boolexpr

        domains = [f.domain for f in space.features]
        full = list(itertools.product(*domains))
        brute = [
            x for x in full if all(boolexpr.evaluate(c.expr, x) for c in constraints)
        ]
        inside = set(brute)
        cs = enumerate_space(space, constraints)
        assert list(cs.instances) == brute
        assert [cs.rank(x) for x in brute] == [r for r, x in enumerate(full) if x in inside]

        def bits(pred):
            return sum(1 << r for r, x in enumerate(full) if x in inside and pred(x))

        assert cs.sel == bits(lambda x: True)
        for i, f in enumerate(space.features):
            for v in f.domain:
                assert cs.value_mask(i, v) == bits(lambda x: x[i] == v)
        for k in classifiers:
            assert [cs.label_at(k, x) for x in brute] == [k.evaluate(x) for x in brute]
            for label in range(k.class_count):
                assert cs.label_mask(k, label) == bits(lambda x: k.evaluate(x) == label)
        rng = random.Random(len(brute))
        for mask in [0, cs.sel] + [rng.getrandbits(len(full)) for _ in range(probes)]:
            got = cs.instances_of_mask(mask)
            assert got == tuple(
                x for r, x in enumerate(full) if mask >> r & 1 and x in inside
            )
            if got:
                assert cs.least(mask & cs.sel) == got[0]
        return cs

    def test_seeded_random_models(self):
        import random

        from fairaudit.classifier import (
            ExpressionClassifier,
            expression_to_tree,
            to_table,
        )
        from fairaudit.model import ConstraintSet
        from fairaudit.randmodels import random_model

        rng = random.Random(2024)
        for _ in range(120):
            m = random_model(rng, max_features=6, max_domain=5)
            forms = [m.classifier]
            if isinstance(m.classifier, ExpressionClassifier):
                forms += [
                    to_table(m.classifier, m.space),
                    expression_to_tree(m.classifier.expr, m.space),
                ]
            for constraints in (m.constraints, ConstraintSet()):
                self.check(m.space, constraints, forms, probes=2)

    def test_every_operator(self):
        from fairaudit.boolexpr import And, Const, Eq, Iff, Implies, Le, Lt, Not, Or, Var
        from fairaudit.classifier import ExpressionClassifier
        from fairaudit.model import Constraint, ConstraintSet

        space = FeatureSpace(
            [
                Feature(0, "a", (False, True), True),
                Feature(1, "n", (3, 0, 2, 1), False),
                Feature(2, "b", (True, False), False),
                Feature(3, "m", (0, 1, 2), False),
            ]
        )
        exprs = [
            Var(0),
            Not(Var(2)),
            And((Var(0), Eq(1, 2), Var(2))),
            Or((Eq(2, False), Le(3, 0), Lt(1, 2))),
            Implies(Var(0), Le(1, 1)),
            Iff(Lt(3, 2), Var(2)),
            Const(True),
            Const(False),
            Eq(3, 1),
            Lt(1, 0),
        ]
        for e in exprs:
            self.check(space, ConstraintSet((Constraint(e),)), [ExpressionClassifier(e)])
        pairs = ConstraintSet((Constraint(exprs[3]), Constraint(exprs[5])))
        self.check(space, pairs, [ExpressionClassifier(e) for e in exprs])

    def test_singleton_domains_and_empty_space(self):
        from fairaudit.boolexpr import Const, Eq, Var
        from fairaudit.classifier import ExpressionClassifier, TableClassifier
        from fairaudit.model import Constraint, ConstraintSet

        space = FeatureSpace(
            [
                Feature(0, "a", (True,), False),
                Feature(1, "n", (2,), True),
                Feature(2, "b", (False, True), False),
            ]
        )
        table = TableClassifier(tuple(f.domain for f in space.features), (1, 0), 2)
        k = ExpressionClassifier(Eq(2, False))
        cs = self.check(space, ConstraintSet((Constraint(Var(0)),)), [k, table])
        assert len(cs) == 2
        empty = ConstraintSet((Constraint(Const(False)),))
        cs = self.check(space, empty, [k, table])
        assert cs.instances == () and cs.sel == 0
        single = FeatureSpace([Feature(0, "a", (False,), False)])
        self.check(single, ConstraintSet(), [ExpressionClassifier(Var(0))])

    def test_multiclass_table_and_tree(self):
        import random

        from fairaudit.boolexpr import Or, Le, Var
        from fairaudit.classifier import TableClassifier, TreeClassifier, TreeLeaf, TreeNode
        from fairaudit.model import Constraint, ConstraintSet

        space = FeatureSpace(
            [
                Feature(0, "n", (0, 1, 2), False),
                Feature(1, "a", (False, True), True),
                Feature(2, "m", (4, 5, 6, 7), False),
            ]
        )
        rng = random.Random(5)
        domains = tuple(f.domain for f in space.features)
        table = TableClassifier(domains, tuple(rng.randrange(4) for _ in range(24)), 4)
        tree = TreeClassifier(
            (
                TreeNode(0, 0, 1, 1, 2),
                TreeNode(1, 2, 6, 3, 4),
                TreeNode(2, 1, True, 5, 6),
                TreeLeaf(3, 300),
                TreeNode(4, 0, 2, 7, 8),  # shared by nodes 1 and 6
                TreeLeaf(5, 2),
                TreeNode(6, 2, 4, 9, 4),
                TreeLeaf(7, 3),
                TreeLeaf(8, 0),
                TreeLeaf(9, 1),
            ),
            0,
            301,
        )
        constraints = ConstraintSet((Constraint(Or((Le(2, 5), Var(1)))),))
        for cons in (constraints, ConstraintSet()):
            cs = self.check(space, cons, [table, tree])
            assert {cs.label_at(tree, x) for x in cs.instances} == {0, 1, 2, 3, 300}


class TestExists:
    """ConstrainedSpace.exists against forgetting by hand: a rank is in
    the projection when its values off the forgotten features are those
    of some rank in the mask."""

    @staticmethod
    def brute(full, mask, forget):
        keep = [i for i in range(len(full[0])) if i not in set(forget)]
        seen = {tuple(y[i] for i in keep) for r, y in enumerate(full) if mask >> r & 1}
        return sum(1 << r for r, z in enumerate(full) if tuple(z[i] for i in keep) in seen)

    def test_matches_brute_force_on_seeded_spaces(self):
        import itertools
        import random

        from fairaudit.randmodels import random_constraints, random_space

        rng = random.Random(31)
        domain_sizes = set()
        for _ in range(80):
            space = random_space(rng, max_features=5, max_domain=5, min_features=1)
            domain_sizes |= {len(f.domain) for f in space.features}
            cs = enumerate_space(space, random_constraints(rng, space))
            full = list(itertools.product(*(f.domain for f in space.features)))
            every = tuple(range(space.n))
            some = tuple(i for i in every if rng.random() < 0.5)
            for mask in (0, cs.sel, rng.getrandbits(len(full)) & cs.sel,
                         rng.getrandbits(len(full))):
                for forget in ((), every, some, (space.n - 1,)):
                    assert cs.exists(mask, forget) == self.brute(full, mask, forget)
            assert cs.exists(cs.sel, every) == ((1 << len(full)) - 1 if len(cs) else 0)
            assert cs.exists(cs.sel, ()) == cs.sel
        assert domain_sizes >= {2, 3, 4, 5}

    def test_empty_constrained_space(self):
        from fairaudit.boolexpr import Const
        from fairaudit.model import Constraint, ConstraintSet

        space = FeatureSpace(
            [Feature(0, "a", (0, 1, 2, 3, 4), True), Feature(1, "b", (False, True), False)]
        )
        cs = enumerate_space(space, ConstraintSet((Constraint(Const(False)),)))
        assert cs.sel == 0
        for forget in ((), (0,), (1,), (0, 1)):
            assert cs.exists(cs.sel, forget) == 0

