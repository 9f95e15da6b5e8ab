from __future__ import annotations

import json
from pathlib import Path

import pytest

from fairaudit import enumerate_space, unconstrained
from fairaudit.classifier import parse_classifier
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


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def read_graph(name: str) -> dict:
    return json.loads((FIXTURES / "graphs" / f"{name}.json").read_text())
