"""Feature spaces, constraints, and the constrained instance set.

A model document is a JSON object:

    {"features": [{"name": ..., "domain": [...], "protected": bool}, ...],
     "constraints": ["<expression>", ...],
     "classifier": {...}}            # parsed by fairaudit.classifier

Instances are plain tuples of values aligned with feature indices. The
canonical enumeration order is lexicographic by feature index, values
ordered as declared in each feature's domain.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from functools import partial, reduce
from itertools import compress, product
from math import prod
from operator import add, or_
from typing import Iterable, Mapping, Sequence

from . import boolexpr
from .boolexpr import BoolExpr, Value, parse_expr
from .errors import CapacityError, DocumentError, ModelSemanticError

Instance = tuple  # tuple[Value, ...], one entry per feature

ENUMERATION_CAP = 1 << 24

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class Feature:
    index: int
    name: str
    domain: tuple[Value, ...]
    protected: bool

    @property
    def is_boolean(self) -> bool:
        return type(self.domain[0]) is bool


class FeatureSpace:
    """Ordered features with a protected/unprotected partition."""

    def __init__(self, features: Sequence[Feature]):
        features = tuple(features)
        if not features:
            raise ModelSemanticError("a feature space needs at least one feature")
        seen: set[str] = set()
        for i, feat in enumerate(features):
            if feat.index != i:
                raise ModelSemanticError(
                    f"feature {feat.name!r} has index {feat.index}, expected {i}"
                )
            _validate_feature(feat)
            if feat.name in seen:
                raise ModelSemanticError(f"duplicate feature name {feat.name!r}")
            seen.add(feat.name)
        self.features = features
        self._by_name = {f.name: f for f in features}
        self.protected = frozenset(f.index for f in features if f.protected)
        self.unprotected = frozenset(f.index for f in features if not f.protected)

    @property
    def n(self) -> int:
        return len(self.features)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def feature_named(self, name: str) -> Feature | None:
        return self._by_name.get(name)

    def full_size(self) -> int:
        return prod(len(f.domain) for f in self.features)

    def validate_instance(self, x: Sequence[Value]) -> Instance:
        if len(x) != self.n:
            raise ModelSemanticError(
                f"instance has {len(x)} values, expected {self.n}"
            )
        for feat, v in zip(self.features, x):
            if type(v) is not type(feat.domain[0]) or v not in feat.domain:
                raise ModelSemanticError(
                    f"value {v!r} is not in the domain of feature {feat.name!r}"
                )
        return tuple(x)

    def with_protected(self, protected: Iterable[int]) -> "FeatureSpace":
        protected = frozenset(protected)
        return FeatureSpace(
            tuple(
                Feature(f.index, f.name, f.domain, f.index in protected)
                for f in self.features
            )
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, FeatureSpace) and self.features == other.features

    def __hash__(self) -> int:
        return hash(self.features)

    def __repr__(self) -> str:
        return f"FeatureSpace({list(self.names)!r})"


def _validate_feature(feat: Feature) -> None:
    if not _NAME_RE.match(feat.name):
        raise ModelSemanticError(f"invalid feature name {feat.name!r}")
    if feat.name in boolexpr.RESERVED_WORDS:
        raise ModelSemanticError(f"feature name {feat.name!r} is a reserved word")
    if not feat.domain:
        raise ModelSemanticError(f"feature {feat.name!r} has an empty domain")
    kinds = {type(v) for v in feat.domain}
    if kinds not in ({bool}, {int}):
        raise ModelSemanticError(
            f"domain of feature {feat.name!r} must be all booleans or all integers"
        )
    if len(set(feat.domain)) != len(feat.domain):
        raise ModelSemanticError(f"domain of feature {feat.name!r} repeats a value")


@dataclass(frozen=True)
class Constraint:
    expr: BoolExpr

    @property
    def scope(self) -> frozenset[int]:
        return boolexpr.scope(self.expr)


@dataclass(frozen=True)
class ConstraintSet:
    constraints: tuple[Constraint, ...] = ()

    def __iter__(self):
        return iter(self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)

    def first_violated(self, x: Instance) -> Constraint | None:
        for c in self.constraints:
            if not boolexpr.evaluate(c.expr, x):
                return c
        return None


@dataclass(frozen=True)
class PartialAssignment:
    """Feature-index to value bindings, the carrier of explanations."""

    values: tuple[tuple[int, Value], ...]  # sorted by feature index

    @classmethod
    def restrict(cls, x: Instance, features: Iterable[int]) -> "PartialAssignment":
        return cls(tuple((i, x[i]) for i in sorted(set(features))))

    def agrees_with(self, y: Instance) -> bool:
        return all(y[i] == v for i, v in self.values)

    def by_name(self, space: FeatureSpace) -> dict[str, Value]:
        return {space.features[i].name: v for i, v in self.values}


class ScopeProfile(Enum):
    NONE = "NONE"
    ONLY_P = "ONLY_P"
    ONLY_N = "ONLY_N"
    P_AND_N_SEPARATE = "P_AND_N_SEPARATE"
    CROSSING = "CROSSING"


def constraint_scope_profile(
    space: FeatureSpace, constraints: ConstraintSet
) -> ScopeProfile:
    """Classify where constraint scopes fall relative to the partition.

    Purely syntactic: a constraint crosses when its scope meets both the
    protected and the unprotected side. Constraints mentioning no feature
    do not contribute.
    """
    has_p = has_n = crossing = False
    for c in constraints:
        sc = c.scope
        if not sc:
            continue
        in_p = bool(sc & space.protected)
        in_n = bool(sc & space.unprotected)
        if in_p and in_n:
            crossing = True
        elif in_p:
            has_p = True
        else:
            has_n = True
    if crossing:
        return ScopeProfile.CROSSING
    if has_p and has_n:
        return ScopeProfile.P_AND_N_SEPARATE
    if has_p:
        return ScopeProfile.ONLY_P
    if has_n:
        return ScopeProfile.ONLY_N
    return ScopeProfile.NONE


class ConstrainedSpace:
    """All instances satisfying the constraints, in canonical order.

    Every mask is a set of ranks of the full space, a rank being the
    position in ``itertools.product`` order: ``rank_masks[i][v]`` has bit
    r set when rank r gives feature i value v, and ``sel`` holds the
    ranks that satisfy the constraints. Every mask taken from the space
    lies inside ``sel``, so popcounts count constrained instances and the
    lowest set rank is the least instance in canonical order. An
    instance's position in F[C] is the popcount of ``sel`` below its
    rank; positions index ``instances``, which is built only for
    callers that walk F[C]. Derived values are made on first use and
    kept in one cache, ``memo``.
    """

    def __init__(
        self,
        space: FeatureSpace,
        constraints: ConstraintSet,
        rank_masks: list[dict[Value, int]],
        sel: int,
    ):
        self.space = space
        self.constraints = constraints
        self.rank_masks = rank_masks
        self.sel = sel
        self.size = space.full_size()
        self._count = sel.bit_count()
        self._domains = [f.domain for f in space.features]
        # ranks between consecutive values of feature i
        self.strides = [prod(map(len, self._domains[i + 1:])) for i in range(space.n)]
        # per feature, the ranks where it has its first value, and the
        # offsets of the other values' ranks from those
        self._spread = [
            (next(iter(masks.values())), range(s, len(masks) * s, s))
            for masks, s in zip(rank_masks, self.strides)
        ]
        self._memo: dict = {}

    def __len__(self) -> int:
        return self._count

    @property
    def instances(self) -> tuple[Instance, ...]:
        return self.memo("instances", lambda: self.instances_of_mask(self.sel))

    def contains(self, x: Instance) -> bool:
        return self._selected_rank(x) is not None

    def position(self, x: Instance) -> int:
        """x's index in ``instances``: the constrained ranks below its own."""
        r = self._rank_in_space(x)
        return (self.sel & ((1 << r) - 1)).bit_count()

    def label_at(self, classifier, x: Instance) -> int:
        """The label the classifier gives x, read off its label mask."""
        r = self._rank_in_space(x)
        return next(c for c, m in self.label_masks(classifier).items() if m >> r & 1)

    def _selected_rank(self, x: Instance) -> int | None:
        """x's rank when x is in F[C]; values compare with ``==``, so 1
        stands for True as in a tuple comparison."""
        if len(x) != self.space.n:
            return None
        try:
            r = self.rank(x)
        except ValueError:  # a value outside its domain
            return None
        return r if self.sel >> r & 1 else None

    def _rank_in_space(self, x: Instance) -> int:
        r = self._selected_rank(x)
        if r is None:
            raise ModelSemanticError(f"instance {x!r} does not satisfy the constraints")
        return r

    def rank(self, x: Instance) -> int:
        return sum(d.index(v) * s for d, v, s in zip(self._domains, x, self.strides))

    def least(self, mask: int) -> Instance:
        """The instance at the lowest set rank of a nonzero mask."""
        r = (mask & -mask).bit_length() - 1
        return tuple(d[r // s % len(d)] for d, s in zip(self._domains, self.strides))

    def value_mask(self, feature: int, value: Value) -> int:
        return self.rank_masks[feature][value] & self.sel

    def coverage_mask(self, x: Instance, features: Iterable[int]) -> int:
        mask = self.sel
        for i in features:
            mask &= self.rank_masks[i][x[i]]
            if not mask:
                break
        return mask

    def exists(self, mask: int, features: Iterable[int]) -> int:
        """Forget the features: every rank agreeing off ``features`` with
        some rank of the mask. The result may leave ``sel``."""
        for j in features:
            first, shifts = self._spread[j]
            # the projection on the first value's ranks: a shift right by a
            # value's offset moves every other value off them
            base = mask
            for shift in shifts:
                base |= mask >> shift
            mask = base = base & first
            for shift in shifts:
                mask |= base << shift
        return mask

    def whole(self, mask: int) -> int:
        """The ranks of F[C] whose unprotected cube, the ranks of F[C]
        with their unprotected values, lies inside the mask."""
        return self.sel & ~self.exists(self.sel & ~mask, self.space.protected)

    def label_clash(self, classifier) -> int:
        """The ranks of F[C] whose unprotected cube holds two labels:
        where constrained FTU fails."""

        def make() -> int:
            inside_one = map(self.whole, self.label_masks(classifier).values())
            return self.sel & ~reduce(or_, inside_one, 0)

        return self.memo(("label_clash", classifier), make)

    def memo(self, key, make):
        """The value cached under key, made by make() on first use.

        Every cache of the space lives here, keyed by what it depends on:
        the space alone or a classifier used on it. A fill stores the same
        value whichever thread makes it, so the space can be shared."""
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = make()
        return got

    def cached(self, key):
        """The value cached under key, None when nothing made it yet."""
        return self._memo.get(key)

    def instances_of_mask(self, mask: int) -> tuple[Instance, ...]:
        flags = bit_flags(mask & self.sel, self.size)  # F[C]'s ranks only
        return tuple(compress(product(*self._domains), flags))

    def label_masks(self, classifier) -> dict[int, int]:
        """Per label in ascending order, the ranks of F[C] the classifier
        gives it, from the classifier's bit-parallel evaluation; labels
        that no constrained instance gets are left out."""

        def make() -> dict[int, int]:
            by_label = classifier.label_masks(self.rank_masks, self.size)
            return {c: m & self.sel for c, m in sorted(by_label.items()) if m & self.sel}

        return self.memo(("label_masks", classifier), make)

    def label_mask(self, classifier, label: int) -> int:
        return self.label_masks(classifier).get(label, 0)


_FLAG = bytes.maketrans(b"01", b"\0\1")
_DIGIT = bytes.maketrans(b"\0\1", b"01")


def bit_flags(mask: int, size: int) -> bytes:
    """Byte i is bit i of mask (0 or 1), for a mask below 2 ** size."""
    return format(mask, f"0{size}b").encode()[::-1].translate(_FLAG)


def pack_bits(flags: Iterable[int]) -> int:
    """The mask whose bit i is flag i; flags are 0/1 or booleans."""
    return int(bytes(flags).translate(_DIGIT)[::-1] or b"0", 2)


def flat_labels(by_label: Mapping[int, int], size: int) -> Sequence[int]:
    """The labels in rank order of disjoint per-label masks below
    2 ** size, 0 at a rank that no mask holds."""
    rows = [map(c.__mul__, bit_flags(m, size)) for c, m in by_label.items() if c]
    if not rows:
        return bytes(size)
    return tuple(reduce(partial(map, add), rows))


def rank_masks(domains: Sequence[Sequence[Value]]) -> list[dict[Value, int]]:
    """Per feature and value, the ranks of ``product(*domains)`` that
    give the feature that value: bit r of masks[i][v]."""
    size = prod(map(len, domains))
    masks = []
    period = size  # ranks per full cycle of feature i's values
    for d in domains:
        run = period // len(d)  # consecutive ranks sharing one value
        first = _tile((1 << run) - 1, period, size // period)
        masks.append({v: first << run * j for j, v in enumerate(d)})
        period = run
    return masks


def _tile(block: int, width: int, times: int) -> int:
    """block repeated times times, width bits apart, by doubling."""
    out = shift = 0
    while True:
        if times & 1:
            out |= block << shift
            shift += width
        times >>= 1
        if not times:
            return out
        block |= block << width
        width *= 2


def enumerate_space(space: FeatureSpace, constraints: ConstraintSet) -> ConstrainedSpace:
    """Materialize the constrained instance set in canonical order."""
    size = space.full_size()
    if size > ENUMERATION_CAP:
        raise CapacityError(
            f"feature space has {size} instances, cap is {ENUMERATION_CAP}"
        )
    masks = rank_masks([f.domain for f in space.features])
    ones = (1 << size) - 1
    satisfied = ones
    for c in constraints:
        satisfied &= boolexpr.evaluate_mask(c.expr, masks, ones)
    return ConstrainedSpace(space, constraints, masks, satisfied)


def unconstrained(space: FeatureSpace) -> ConstrainedSpace:
    return enumerate_space(space, ConstraintSet())


def coverage(cs: ConstrainedSpace, x: Instance, features: Iterable[int]) -> tuple[Instance, ...]:
    """Constrained instances agreeing with x on the given features."""
    if not cs.contains(x):
        raise ModelSemanticError(f"instance {x!r} does not satisfy the constraints")
    return cs.instances_of_mask(cs.coverage_mask(x, features))


# ---------------------------------------------------------------------------
# Documents


def load_json(text: str):
    """Decode a JSON document; syntax errors carry their position."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise DocumentError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: arrays or objects nested too deeply") from None


def _space_from_obj(obj: dict) -> FeatureSpace:
    raw = obj.get("features")
    if not isinstance(raw, list) or not raw:
        raise DocumentError("'features' must be a non-empty list")
    features = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or "name" not in item or "domain" not in item:
            raise DocumentError(f"feature #{i} must be an object with name and domain")
        name = item["name"]
        domain = item["domain"]
        protected = item.get("protected", False)
        if not isinstance(name, str) or not isinstance(domain, list):
            raise DocumentError(f"feature #{i} has a malformed name or domain")
        if not isinstance(protected, bool):
            raise DocumentError(f"feature {name!r}: 'protected' must be a boolean")
        for v in domain:
            if type(v) not in (bool, int):
                raise DocumentError(
                    f"feature {name!r}: domain values must be booleans or integers"
                )
        features.append(Feature(i, name, tuple(domain), protected))
    return FeatureSpace(features)


def _constraints_from_obj(obj: dict, space: FeatureSpace) -> ConstraintSet:
    raw = obj.get("constraints", [])
    if not isinstance(raw, list):
        raise DocumentError("'constraints' must be a list of expression strings")
    parsed = []
    for i, text in enumerate(raw):
        if not isinstance(text, str):
            raise DocumentError(f"constraint #{i} must be a string")
        parsed.append(Constraint(parse_expr(text, space)))
    return ConstraintSet(tuple(parsed))


def parse_document(text: str) -> tuple[FeatureSpace, ConstraintSet, object]:
    """Parse a model document. The classifier section, None when absent,
    is returned undecoded for fairaudit.classifier.parse_classifier."""
    obj = load_json(text)
    if not isinstance(obj, dict):
        raise DocumentError("model document must be a JSON object")
    space = _space_from_obj(obj)
    return space, _constraints_from_obj(obj, space), obj.get("classifier")


def parse_model(text: str) -> tuple[FeatureSpace, ConstraintSet]:
    """Parse a model document, ignoring any classifier section."""
    space, constraints, _ = parse_document(text)
    return space, constraints


def canonical_document(
    space: FeatureSpace,
    constraints: ConstraintSet,
    classifier_obj: dict | None = None,
) -> dict:
    """The document object in canonical form: every feature field
    spelled out, constraints pretty-printed."""
    doc: dict = {
        "features": [
            {"name": f.name, "domain": list(f.domain), "protected": f.protected}
            for f in space.features
        ],
        "constraints": [boolexpr.pretty(c.expr, space.names) for c in constraints],
    }
    if classifier_obj is not None:
        doc["classifier"] = classifier_obj
    return doc


def render_model(
    space: FeatureSpace,
    constraints: ConstraintSet,
    classifier_obj: dict | None = None,
) -> str:
    """Canonical document text; parsing it back reproduces the inputs."""
    doc = canonical_document(space, constraints, classifier_obj)
    return json.dumps(doc, indent=2) + "\n"
