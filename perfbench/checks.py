"""Output checks that rely only on a model's Python predicates.

Nothing here imports fairaudit. Each check raises CheckFailed with the
reason when the program's answer disagrees with the model.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from models import Instance, Model

# explain: random subsets tried, and random deletion orders walked
SAMPLES = 64


class CheckFailed(Exception):
    pass


def _expect(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


class Reference:
    """The constrained space enumerated from the predicates, with one
    bitmask per feature value over positions in that enumeration."""

    def __init__(self, model: Model):
        self.model = model
        self.instances = [
            x for x in itertools.product(*model.domains) if model.satisfied(x)
        ]
        self.labels = [model.label(x) for x in self.instances]
        self.full = (1 << len(self.instances)) - 1
        self.masks = [
            {v: _bits(x[i] == v for x in self.instances) for v in d}
            for i, d in enumerate(model.domains)
        ]
        self.label_masks = {
            c: _bits(lab == c for lab in self.labels) for c in set(self.labels)
        }

    def coverage(self, x: Instance, features) -> int:
        cov = self.full
        for i in features:
            cov &= self.masks[i][x[i]]
        return cov

    def weak(self, x: Instance, features) -> bool:
        """Fixing x's values on features forces x's label in the space."""
        same = self.label_masks[self.model.label(x)]
        return self.coverage(x, features) & ~same == 0

    def ftu(self) -> bool:
        """No two instances agreeing on the unprotected features get
        different labels, checked by grouping."""
        first: dict = {}
        unprotected = self.model.unprotected
        for x, lab in zip(self.instances, self.labels):
            if first.setdefault(tuple(x[i] for i in unprotected), lab) != lab:
                return False
        return True


def _bits(flags) -> int:
    """Bitmask with bit i set when the i-th flag is true."""
    return int("".join("1" if f else "0" for f in flags)[::-1] or "0", 2)


def check_audit(ref: Reference, code: int, report: dict) -> None:
    """`audit --notion universal`: sizes from the predicates, FTU from
    grouping, and, when no constraint crosses the partition, existential
    and universal fairness equal to FTU."""
    model = ref.model
    space = report["space"]
    _expect(space["features"] == model.n, "feature count")
    _expect(space["size_unconstrained"] == model.full_size(), "size_unconstrained")
    _expect(space["size_constrained"] == len(ref.instances), "size_constrained")
    v = report["verdicts"]
    ftu = ref.ftu()
    _expect(v["ftu"] == ftu, f"ftu verdict {v['ftu']}, expected {ftu}")
    if not model.crossing:
        _expect(v["existential"] == ftu, "existential differs from ftu")
        _expect(v["universal"] == ftu, "universal differs from ftu")
    _expect(v["notion"] == "universal" and v["fair"] == v["universal"], "headline")
    _expect(code == (0 if v["universal"] else 1), f"exit code {code}")


def check_explain(
    ref: Reference, x: Instance, code: int, report: dict, seed: int = 0
) -> None:
    """`explain --instance x`: label, every AXp weak and minimal, no AXp
    missing (sampled), PIs as the undominated AXps, status and exit code
    from the PIs."""
    model = ref.model
    index = {name: i for i, name in enumerate(model.names)}
    _expect(report["instance"] == dict(zip(model.names, x)), "instance")
    label = model.label(x)
    _expect(report["label"] == label, f"label {report['label']}, expected {label}")

    def reasons(key: str) -> dict:
        out = {}
        for e in report[key]:
            feats = tuple(sorted(index[name] for name in e["features"]))
            _expect(feats not in out, f"{key}: {e['features']} listed twice")
            _expect(
                e["assignment"] == {model.names[i]: x[i] for i in feats},
                f"{key}: assignment of {e['features']}",
            )
            _expect(e["fair"] == all(i not in model.protected for i in feats),
                    f"{key}: fair flag of {e['features']}")
            cov = ref.coverage(x, feats)
            _expect(e["coverage"] == cov.bit_count(), f"{key}: coverage of {e['features']}")
            out[feats] = cov
        return out

    axps = reasons("axps")
    for feats in axps:
        _expect(ref.weak(x, feats), f"AXp {feats} is not weak")
        for i in feats:
            rest = [j for j in feats if j != i]
            _expect(not ref.weak(x, rest), f"AXp {feats} is not minimal")

    def covered(s) -> bool:
        return any(set(a) <= s for a in axps)

    rng = random.Random(seed)
    for _ in range(SAMPLES):
        s = {i for i in range(model.n) if rng.random() < 0.5}
        _expect(ref.weak(x, s) == covered(s), f"sampled set {sorted(s)}")
        # deletion in random order ends at some AXp, which must be listed
        keep = set(range(model.n))
        for i in rng.sample(range(model.n), model.n):
            if ref.weak(x, keep - {i}):
                keep.discard(i)
        _expect(tuple(sorted(keep)) in axps, f"AXp {sorted(keep)} is missing")

    pis = reasons("pi_explanations")
    undominated = {
        a for a, cov in axps.items()
        if not any(cov & ~other == 0 and cov != other for other in axps.values())
    }
    _expect(set(pis) == undominated, "PI-explanations")
    fair = [p for p in pis if all(i not in model.protected for i in p)]
    if len(fair) == len(pis):
        status = "UNIVERSALLY_FAIR"
    elif not fair:
        status = "UNFAIR"
    else:
        status = "EXISTENTIALLY_FAIR_ONLY"
    _expect(report["verdict"]["status"] == status, f"status, expected {status}")
    _expect(code == (1 if status == "UNFAIR" else 0), f"exit code {code}")


def check_ftu(ref: Reference, holds: bool, pair: Sequence | None) -> None:
    """`check_ftu(..., "search")`: verdict as grouping gives it, and a
    witness pair inside the space, equal off the protected features,
    labelled differently."""
    model = ref.model
    expected = ref.ftu()
    _expect(holds == expected, f"FTU verdict {holds}, expected {expected}")
    if holds:
        _expect(pair is None, "witness given although FTU holds")
        return
    x, y = pair
    _expect(model.satisfied(x) and model.satisfied(y), "witness violates a constraint")
    _expect(
        all(x[i] == y[i] for i in model.unprotected),
        "witness pair differs on an unprotected feature",
    )
    _expect(model.label(x) != model.label(y), "witness pair has equal labels")
