import pytest
from hypothesis import given, strategies as st

from ldm3n import BlankNode, IRI, Literal, Triple, format_term, parse_term
from ldm3n.errors import MalformedLine
from ldm3n.ntriples import parse_ntriples, serialize_ntriples

from conftest import EX, succession_triples


def test_term_equality_is_syntactic():
    assert IRI("http://a") == IRI("http://a")
    assert IRI("http://a") != IRI("http://A")
    assert Literal("1", datatype="http://x/int") != Literal("1")
    assert Literal("a", language="en") != Literal("a", language="en-US")
    assert BlankNode("b1") != IRI("b1")


def test_iri_rejects_whitespace_and_empty():
    with pytest.raises(ValueError):
        IRI("")
    with pytest.raises(ValueError):
        IRI("http://a b")
    with pytest.raises(ValueError):
        IRI("http://a>b")  # would not survive an angle-bracket round trip


def test_iri_forbidden_characters_match_the_per_character_rule():
    # U+3000 is the highest code point str.isspace() accepts.
    for code in range(0x3001):
        c = chr(code)
        forbidden = c.isspace() or c in '<>"{}|^`\\' or code < 0x20
        if forbidden:
            with pytest.raises(ValueError) as exc:
                IRI(f"http://a{c}b{c}")
            assert str(exc.value).startswith(f"IRI contains forbidden character {c!r}:")
        else:
            assert IRI(f"http://a{c}b").value == f"http://a{c}b"


def test_iri_error_names_the_first_forbidden_character():
    with pytest.raises(ValueError, match=r"forbidden character '>': 'http://a>b c'"):
        IRI("http://a>b c")


def test_literal_rejects_datatype_plus_language():
    with pytest.raises(ValueError):
        Literal("x", datatype="http://dt", language="en")


def test_triple_rejects_literal_subject_and_bad_predicate():
    with pytest.raises(ValueError):
        Triple(Literal("x"), IRI("http://p"), IRI("http://o"))
    with pytest.raises(ValueError):
        Triple(IRI("http://s"), BlankNode("b"), IRI("http://o"))
    with pytest.raises(ValueError):
        Triple(IRI("http://s"), Literal("p"), IRI("http://o"))


def test_parse_simple_iri_statement():
    line = f"<{EX}BillClinton> <{EX}holdsPos#1> <{EX}U.S.President> ."
    (t,) = parse_ntriples(line)
    assert t == Triple(IRI(EX + "BillClinton"), IRI(EX + "holdsPos#1"), IRI(EX + "U.S.President"))


def test_parse_empty_input_yields_nothing():
    assert list(parse_ntriples("")) == []
    assert list(parse_ntriples("\n\n# only a comment\n")) == []


def test_parse_minimal_literal_statement():
    (t,) = parse_ntriples(f'<{EX}s> <{EX}p> "v" .')
    assert t == Triple(IRI(EX + "s"), IRI(EX + "p"), Literal("v"))


def test_parse_typed_and_tagged_literals_and_bnodes():
    text = (
        f'<{EX}s> <{EX}p> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        f'<{EX}s> <{EX}p> "chat"@fr .\n'
        f"_:b0 <{EX}p> _:b1 .\n"
    )
    ts = list(parse_ntriples(text))
    assert ts[0].object == Literal("3", datatype="http://www.w3.org/2001/XMLSchema#integer")
    assert ts[1].object == Literal("chat", language="fr")
    assert ts[2].subject == BlankNode("b0") and ts[2].object == BlankNode("b1")


def test_parse_escapes():
    (t,) = parse_ntriples(f'<{EX}s> <{EX}p> "a\\"b\\\\c\\nd\\u0041" .')
    assert t.object == Literal('a"b\\c\nd' + "A")


def test_strict_mode_raises_with_line_number():
    text = f"<{EX}a> <{EX}p> <{EX}b> .\nthis is junk\n"
    with pytest.raises(MalformedLine) as err:
        list(parse_ntriples(text))
    assert err.value.lineno == 2


def test_literal_subject_rejected():
    with pytest.raises(MalformedLine):
        list(parse_ntriples(f'"lit" <{EX}p> <{EX}o> .'))


def test_lenient_mode_skips_and_counts():
    text = f"<{EX}a> <{EX}p> <{EX}b> .\nbroken\n<{EX}c> <{EX}p> <{EX}d> .\n"
    errors = []
    ts = list(parse_ntriples(text, strict=False, errors=errors))
    assert len(ts) == 2
    assert len(errors) == 1 and errors[0].lineno == 2


def test_duplicates_are_yielded_as_is():
    line = f"<{EX}a> <{EX}p> <{EX}b> .\n"
    assert len(list(parse_ntriples(line * 3))) == 3


def test_serialize_empty_and_single():
    assert serialize_ntriples([]) == ""
    out = serialize_ntriples([Triple(IRI(EX + "s"), IRI(EX + "p"), IRI(EX + "o"))])
    assert out == f"<{EX}s> <{EX}p> <{EX}o> .\n"


def test_succession_fixture_round_trips():
    triples = succession_triples()
    out = serialize_ntriples(triples)
    assert out.count("\n") == 6
    assert list(parse_ntriples(out)) == triples


def test_term_token_round_trip():
    terms = [
        IRI(EX + "x"),
        Literal("plain"),
        Literal("typed", datatype=EX + "dt"),
        Literal("tagged", language="en-US"),
        BlankNode("b7"),
    ]
    for term in terms:
        assert parse_term(format_term(term)) == term


safe_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    max_size=40,
)


@given(lexical=safe_text)
def test_literal_serialization_round_trip(lexical):
    t = Triple(IRI(EX + "s"), IRI(EX + "p"), Literal(lexical))
    assert list(parse_ntriples(serialize_ntriples([t]))) == [t]


@given(lexical=safe_text, lang=st.sampled_from(["en", "en-US", None]))
def test_term_token_round_trip_property(lexical, lang):
    term = Literal(lexical, language=lang)
    assert parse_term(format_term(term)) == term


iri_text = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp"),
        blacklist_characters='<>"{}|^`\\',
    ),
    min_size=1,
    max_size=40,
)


@given(value=iri_text)
def test_iri_statement_round_trip_property(value):
    t = Triple(IRI(value), IRI(value), IRI(value))
    assert list(parse_ntriples(serialize_ntriples([t]))) == [t]
