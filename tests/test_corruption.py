"""A damaged store fails loudly or not at all.

For any truncation or single-byte flip of any file of a store with a
materialized delta, ``open_store`` either raises StoreCorrupt or returns a
store whose answers equal the BFS oracles' on the undamaged triples; the CLI
turns the failure into exit code 3 with no traceback.
"""

import shutil

import pytest
from hypothesis import given, settings, strategies as st

from ldm3n import Literal, Model, StoreConfig, Triple, create_store, forward_transform, open_store
from ldm3n.cli import main
from ldm3n.errors import StoreCorrupt
from ldm3n.semantics import RDFS_DOMAIN, StoreView, entail_fixpoint
from ldm3n.storage import save_delta
from ldm3n.traversal import shortest_path

from conftest import ex, succession_triples
from oracles import labeled_arc_distances, triple_node_distances

# The domain triple makes entailment type both singleton properties as
# offices, which mints rdf:type and so grows dict_rev as well as the delta.
BASE = succession_triples() + [
    Triple(ex("hasSuccessor"), RDFS_DOMAIN, ex("Office")),
    Triple(ex("BillClinton"), ex("name"), Literal("Bill")),
]


def oracle_answers(triples: list[Triple]) -> dict:
    """(model, source, target) -> distance or None, from the BFS oracles."""
    g = forward_transform(triples)
    encoded = [tuple(g.mu.lookup(x) for x in (t.subject, t.predicate, t.object)) for t in triples]
    terms = [term for _, term in g.mu.items()]
    answers = {}
    for source in terms:
        if isinstance(source, Literal):
            continue
        sid = g.mu.lookup(source)
        for model, dist in (
            (Model.LDM3N, triple_node_distances(g, sid)),
            (Model.NLAN, labeled_arc_distances(encoded, sid)),
        ):
            for target in terms:
                answers[model, source, target] = dist.get(g.mu.lookup(target))
    return answers


def engine_answers(view, dictionary, keys) -> dict:
    answers = {}
    for model, source, target in keys:
        s, t = dictionary.lookup(source), dictionary.lookup(target)
        if s is None or t is None:
            answers[model, source, target] = "missing"
            continue
        result = shortest_path(view, s, t, model)
        answers[model, source, target] = result.distance if result.found else None
    return answers


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """The undamaged files, the oracle answers of both views and a work directory."""
    path = tmp_path_factory.mktemp("pristine") / "store"
    store = create_store(StoreConfig(path), BASE)
    delta = entail_fixpoint(store).view.delta
    assert len(delta) == 2
    save_delta(store, delta)
    derived = [Triple(*(store.decode(x) for x in t)) for t in delta]
    files = {p.name: p.read_bytes() for p in path.iterdir()}
    expected = {"base": oracle_answers(BASE), "union": oracle_answers(BASE + derived)}
    return files, expected, tmp_path_factory.mktemp("work") / "store"


def damaged_copy(files: dict, work, name: str, offset: int, flip: int):
    """The store with ``name`` truncated to ``offset`` bytes (flip 0) or with
    its byte at ``offset`` xor-ed with ``flip``."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    for file_name, data in files.items():
        if file_name == name:
            data = bytearray(data)
            if flip:
                data[offset] ^= flip
            else:
                del data[offset:]
        (work / file_name).write_bytes(bytes(data))
    return work


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_store_raises_or_answers_as_the_oracle(pristine, data):
    files, expected, work = pristine
    name = data.draw(st.sampled_from(sorted(files)), label="file")
    offset = data.draw(st.integers(0, len(files[name]) - 1), label="offset")
    flip = data.draw(st.integers(0, 255), label="xor, 0 to truncate")
    damaged_copy(files, work, name, offset, flip)
    try:
        store = open_store(work)
    except StoreCorrupt:
        return
    base = expected["base"]
    assert engine_answers(store, store.dictionary, base) == base
    assert store.triple_count() == len(BASE)
    union = StoreView(store, store.delta, mode="union")
    assert engine_answers(union, store.dictionary, expected["union"]) == expected["union"]
    assert union.triple_count() == len(BASE) + 2


def test_undamaged_store_answers_as_the_oracle(pristine):
    files, expected, work = pristine
    store = open_store(damaged_copy(files, work, "", 0, 0))
    assert engine_answers(store, store.dictionary, expected["base"]) == expected["base"]
    union = StoreView(store, store.delta, mode="union")
    assert engine_answers(union, store.dictionary, expected["union"]) == expected["union"]
    # The derived typing shortens the walk to the office: 4 edges through the
    # domain declaration, 3 through holdsPos#1's own type triple.
    key = (Model.LDM3N, ex("BillClinton"), ex("Office"))
    assert (expected["base"][key], expected["union"][key]) == (4, 3)


@pytest.mark.parametrize("name", ["adj", "delta", "dict_rev", "meta"])
@pytest.mark.parametrize("how", ["flip", "truncate"])
def test_damaged_store_exits_three(pristine, capsys, name, how):
    files, _, work = pristine
    middle = len(files[name]) // 2
    damaged_copy(files, work, name, middle, 0x40 if how == "flip" else 0)
    code = main(["stats", "--store", str(work), "--with-derived"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and str(work / name) in err
    assert "Traceback" not in err
