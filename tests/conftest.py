from __future__ import annotations

import json
from pathlib import Path

import pytest

from fairaudit import enumerate_space, explain, unconstrained
from fairaudit.classifier import TreeClassifier, TreeLeaf, TreeNode, parse_classifier
from fairaudit.model import parse_document

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class LoadedModel:
    def __init__(self, path: Path):
        self.path = path
        self.space, self.constraints, k_obj = parse_document(path.read_text())
        self.classifier = (
            None if k_obj is None else parse_classifier(k_obj, self.space)
        )

    def constrained(self):
        return enumerate_space(self.space, self.constraints)

    def full(self):
        return unconstrained(self.space)

    def by_name(self, *names: str) -> tuple[int, ...]:
        return tuple(self.space.feature_named(n).index for n in names)


@pytest.fixture(scope="session")
def load_model():
    cache: dict[str, LoadedModel] = {}

    def _load(name: str) -> LoadedModel:
        if name not in cache:
            cache[name] = LoadedModel(FIXTURES / f"{name}.json")
        return cache[name]

    return _load


@pytest.fixture
def recursion_seeds(monkeypatch) -> list[int]:
    """The seed s of each call of the prime recursion, in order: the
    decisions whose AXps each call was asked for."""
    seeds: list[int] = []
    prime_cubes = explain._prime_cubes

    def counted(cs, g, s):
        seeds.append(s)
        return prime_cubes(cs, g, s)

    monkeypatch.setattr(explain, "_prime_cubes", counted)
    return seeds


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def chain_tree_document() -> str:
    """1,500 chained tests on one feature: deeper than Python's
    recursion limit, so every walk over the tree needs a stack."""
    depth = 1500
    chain = [
        {"id": i, "feature": "n", "value": i, "if_true": depth + i, "if_false": i + 1}
        for i in range(depth)
    ]
    leaves = [{"id": depth + i, "label": int(i == 700)} for i in range(depth + 1)]
    return json.dumps(
        {
            "features": [
                {"name": "n", "domain": list(range(depth + 1))},
                {"name": "m", "domain": [False, True], "protected": True},
            ],
            "constraints": [],
            "classifier": {"form": "tree", "nodes": chain + leaves},
        }
    )


@pytest.fixture(scope="session")
def random_shared_tree():
    """A function (rng, space) -> a random 3-class tree whose nodes may
    share children: distinct tests of the space in a random order, each
    one's branches pointing at any later test or at one of two leaves.
    A test no branch points at is unreachable."""

    def make(rng, space) -> TreeClassifier:
        tests = [(i, v) for i in range(space.n) for v in space.features[i].domain]
        depth = rng.randint(1, len(tests))
        chosen = rng.sample(tests, depth)
        nodes = [
            TreeNode(j, i, v, rng.randint(j + 1, depth), rng.randint(j + 1, depth + 1))
            for j, (i, v) in enumerate(chosen)
        ]
        nodes += [TreeLeaf(depth, rng.randrange(3)), TreeLeaf(depth + 1, rng.randrange(3))]
        return TreeClassifier(tuple(nodes), 0, 3)

    return make


def read_graph(name: str) -> dict:
    return json.loads((FIXTURES / "graphs" / f"{name}.json").read_text())
