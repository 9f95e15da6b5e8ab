"""Fairness auditing for classifiers over constrained finite feature
spaces, built on prime-implicant explanations."""

from .boolexpr import BoolExpr, parse_expr
from .classifier import (
    Classifier,
    ExpressionClassifier,
    TableClassifier,
    TreeClassifier,
    equivalent_on,
    evaluate,
)
from .errors import (
    CapacityError,
    DocumentError,
    ExprSyntaxError,
    FairauditError,
    FtuViolationError,
    ModelSemanticError,
)
from .explain import (
    Decision,
    Explanation,
    ExplanationKind,
    all_axps,
    is_weak_axp,
    make_decision,
    one_axp,
    pi_explanations,
    strictly_subsumes,
    subsumes,
)
from .fairness import (
    CausalGraph,
    ClassifierVerdict,
    DecisionStatus,
    DecisionVerdict,
    build_completion,
    check_decomposable,
    check_disentangled,
    check_ftu,
    check_loose,
    check_loose_at,
    classifier_verdict,
    decision_verdict,
    extend_protected_ftci,
    ftu_at,
)
from .model import (
    ConstrainedSpace,
    Constraint,
    ConstraintSet,
    Feature,
    FeatureSpace,
    PartialAssignment,
    ScopeProfile,
    constraint_scope_profile,
    coverage,
    enumerate_space,
    parse_document,
    parse_model,
    render_model,
    unconstrained,
)
from .satcheck import (
    CnfFormula,
    SearchResult,
    decode_model,
    encode_ftu_counterexample,
    export_dimacs,
    parse_dimacs,
    search,
)

__version__ = "0.1.0"
