import pytest

from ldm3n import Dictionary, IRI, Literal, BlankNode, format_term
from ldm3n.dictionary import MAX_ID
from ldm3n.errors import CapacityExhausted, UnknownId

from conftest import succession_triples


def test_first_iri_gets_two():
    d = Dictionary()
    assert d.encode(IRI("http://a")) == 2


def test_first_literal_gets_one():
    d = Dictionary()
    assert d.encode(Literal("v")) == 1


def test_encode_is_idempotent():
    d = Dictionary()
    t = IRI("http://a")
    assert d.encode(t) == d.encode(t) == 2
    assert len(d) == 1


def test_parity_tracks_kind():
    d = Dictionary()
    ids = [
        d.encode(IRI("http://a")),
        d.encode(Literal("x")),
        d.encode(BlankNode("b")),
        d.encode(Literal("y", language="en")),
    ]
    assert [i % 2 for i in ids] == [0, 1, 0, 1]


def test_blank_nodes_are_non_literal_ids():
    d = Dictionary()
    assert d.encode(BlankNode("b")) % 2 == 0


def test_dense_ids_within_each_parity():
    d = Dictionary()
    evens = [d.encode(IRI(f"http://r{i}")) for i in range(3)]
    odds = [d.encode(Literal(f"v{i}")) for i in range(3)]
    assert evens == [2, 4, 6]
    assert odds == [1, 3, 5]


def test_decode_inverts_encode():
    d = Dictionary()
    terms = [IRI("http://a"), Literal("x", datatype="http://dt"), BlankNode("b")]
    for t in terms:
        assert d.decode(d.encode(t)) == t
    for i in list(d.ids()):
        assert d.encode(d.decode(i)) == i


def test_decode_unknown_and_sentinel():
    d = Dictionary()
    with pytest.raises(UnknownId):
        d.decode(0)
    with pytest.raises(UnknownId):
        d.decode(7)


def test_succession_terms_decode_back_to_ten():
    d = Dictionary()
    for t in succession_triples():
        d.encode(t.subject)
        d.encode(t.predicate)
        d.encode(t.object)
    assert len(d) == 10
    decoded = {d.decode(i) for i in d.ids()}
    assert len(decoded) == 10


def test_deterministic_assignment_across_fresh_dictionaries():
    terms = [IRI(f"http://r{i % 7}") for i in range(20)] + [Literal(f"v{i % 3}") for i in range(9)]
    d1, d2 = Dictionary(), Dictionary()
    assert [d1.encode(t) for t in terms] == [d2.encode(t) for t in terms]


def test_capacity_exhaustion():
    d = Dictionary()
    d._next_even = MAX_ID + 1  # simulate an exhausted even counter
    with pytest.raises(CapacityExhausted):
        d.encode(IRI("http://overflow"))


def test_token_is_the_formatted_term():
    d = Dictionary()
    lit = Literal('say "hi"\n', language="en")
    term_id = d.encode(lit)
    assert d.token(term_id) == format_term(lit) == '"say \\"hi\\"\\n"@en'
    assert d.lookup(lit) == term_id
    with pytest.raises(UnknownId):
        d.token(0)


def test_ids_and_items_ascend_across_parities():
    d = Dictionary()
    terms = [IRI("http://a"), IRI("http://b"), IRI("http://c"), Literal("x")]
    for t in terms:
        d.encode(t)
    assert list(d.ids()) == [1, 2, 4, 6]
    assert list(map(d.decode, d.ids())) == [Literal("x"), terms[0], terms[1], terms[2]]
