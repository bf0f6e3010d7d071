import pytest
from hypothesis import settings

from ldm3n import IRI, StoreConfig, Triple, create_store

# CI selects this with --hypothesis-profile=ci, so property tests without
# their own example count run ten times deeper there than locally.
settings.register_profile("ci", max_examples=1000)

EX = "http://example.org/"

# Succession fixture: two singleton properties of holdsPos carry the
# position context, and the successor link hangs off each singleton.
SUCCESSION_ROWS = [
    ("BillClinton", "holdsPos#1", "U.S.President"),
    ("holdsPos#1", "singletonPropOf", "holdsPos"),
    ("holdsPos#1", "hasSuccessor", "GeorgeWBush"),
    ("BillClinton", "holdsPos#2", "ArkansasGovernor"),
    ("holdsPos#2", "singletonPropOf", "holdsPos"),
    ("holdsPos#2", "hasSuccessor", "FrankWhite"),
]


def ex(name: str) -> IRI:
    return IRI(EX + name)


def succession_triples() -> list[Triple]:
    return [Triple(ex(s), ex(p), ex(o)) for s, p, o in SUCCESSION_ROWS]


@pytest.fixture(name="succession_triples")
def succession_triples_fixture():
    return succession_triples()


@pytest.fixture
def succession_store(tmp_path, succession_triples):
    return create_store(StoreConfig(tmp_path / "store"), succession_triples)


@pytest.fixture
def make_store(tmp_path):
    counter = 0

    def build(triples):
        nonlocal counter
        counter += 1
        return create_store(StoreConfig(tmp_path / f"store{counter}"), triples)

    return build
