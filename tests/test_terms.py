import re
from itertools import chain

import pytest
from hypothesis import given, strategies as st

from ldm3n import BlankNode, IRI, Literal, Triple, format_term, parse_term
from ldm3n.errors import MalformedLine
from ldm3n import ntriples
from ldm3n.terms import escape_string, unescape_string
from ldm3n.ntriples import parse_ntriples, serialize_ntriples

from conftest import EX, succession_triples


def parse(text, **kwargs):
    """The token triples parse_ntriples yields, parsed back into triples."""
    return [Triple(*map(parse_term, t)) for t in parse_ntriples(text, **kwargs)]


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
    # The parser takes an IRI token as canonical only where IRI accepts it.
    canonical = re.compile(ntriples._CANONICAL_IRI).fullmatch
    for code in range(0x110000):
        c = chr(code)
        try:
            IRI(c)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert (canonical(f"<{c}>") is not None) == accepted, hex(code)


def test_iri_error_names_the_first_forbidden_character():
    with pytest.raises(ValueError, match=r"forbidden character '>': 'http://a>b c'"):
        IRI("http://a>b c")


def test_literal_rejects_datatype_plus_language():
    with pytest.raises(ValueError):
        Literal("x", datatype="http://dt", language="en")


def test_literal_checks_its_datatype_and_language_tag():
    # Each would print as a token that neither parse_term nor the store reads back.
    for datatype, message in (
        ("", "IRI must be non-empty"),
        ("http://x y", "IRI contains forbidden character ' ': 'http://x y'"),
        ("http://x{y", "IRI contains forbidden character '{': 'http://x{y'"),
    ):
        with pytest.raises(ValueError) as exc:
            Literal("v", datatype=datatype)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            parse_term(f'"v"^^<{datatype}>')
        assert str(exc.value) == message
    for language in ("", "en US", "en-", "-en", "e1", "en_US"):
        with pytest.raises(ValueError) as exc:
            Literal("v", language=language)
        assert str(exc.value) == f"bad language tag: {'@' + language!r}"
    assert Literal("v", language="x-Foo-1").language == "x-Foo-1"


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
    assert t == (f"<{EX}BillClinton>", f"<{EX}holdsPos#1>", f"<{EX}U.S.President>")
    assert parse(line) == [Triple(IRI(EX + "BillClinton"), IRI(EX + "holdsPos#1"), IRI(EX + "U.S.President"))]


def test_parse_empty_input_yields_nothing():
    assert list(parse_ntriples("")) == []
    assert list(parse_ntriples("\n\n# only a comment\n")) == []


def test_parse_minimal_literal_statement():
    (t,) = parse(f'<{EX}s> <{EX}p> "v" .')
    assert t == Triple(IRI(EX + "s"), IRI(EX + "p"), Literal("v"))


def test_parse_typed_and_tagged_literals_and_bnodes():
    text = (
        f'<{EX}s> <{EX}p> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        f'<{EX}s> <{EX}p> "chat"@fr .\n'
        f"_:b0 <{EX}p> _:b1 .\n"
    )
    ts = parse(text)
    assert ts[0].object == Literal("3", datatype="http://www.w3.org/2001/XMLSchema#integer")
    assert ts[1].object == Literal("chat", language="fr")
    assert ts[2].subject == BlankNode("b0") and ts[2].object == BlankNode("b1")


def test_parse_escapes():
    (t,) = parse_ntriples(f'<{EX}s> <{EX}p> "a\\"b\\\\c\\nd\\u0041" .')
    assert t[2] == '"a\\"b\\\\c\\nd' + 'A"'
    assert parse_term(t[2]) == Literal('a"b\\c\nd' + "A")


def test_surrogate_escape_is_a_bad_escape():
    # A lone surrogate has no UTF-8 form, so no store could hold it.
    for token in ('"\\uD800"', '"x\\uDFFFy"', '"\\U0000DC00"'):
        with pytest.raises(ValueError, match=r"bad \\[uU] escape"):
            parse_term(token)
    assert parse_term('"\\uD7FF\\uE000"') == Literal("\ud7ff\ue000")


def test_non_hex_escape_is_a_bad_escape():
    # int(x, 16) would read each of these as 0x41.
    for token in ('"\\u 041"', '"\\u+041"', '"\\u0_41"', '"\\U0000_041"', '"\\u\u0660\u0660\u0664\u0661"'):
        with pytest.raises(ValueError, match=r"bad \\[uU] escape"):
            parse_term(token)
    assert parse_term('"\\u004a\\U0000004B"') == Literal("JK")


def test_unescape_string_messages():
    cases = {
        "ab\\": "dangling escape at end of string",
        "\\u12": "truncated \\u escape",
        "x\\U0001F60": "truncated \\U escape",
        "\\u12G4": "bad \\u escape: '12G4'",
        "\\uDBFF": "bad \\u escape: 'DBFF'",
        "\\U0000004g": "bad \\U escape: '0000004g'",
        "\\U00110000": "bad \\U escape: '00110000'",
        "a\\qb": "unknown escape \\q",
        "\\q\\": "unknown escape \\q",  # the first bad escape is reported
    }
    for s, message in cases.items():
        with pytest.raises(ValueError) as exc:
            unescape_string(s)
        assert str(exc.value) == message, s
    assert unescape_string("\\U0010FFFF\\'\\b\\f") == "\U0010ffff'\b\f"


def test_escape_string_follows_the_rule_for_every_code_point():
    named = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
    chars = [chr(code) for code in chain(range(0xD800), range(0xE000, 0x110000))]
    expected = [named.get(c, f"\\u{ord(c):04X}" if c < " " else c) for c in chars]
    assert list(map(escape_string, chars)) == expected
    assert escape_string("".join(chars)) == "".join(expected)


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
    assert parse(out) == triples


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
    assert parse(serialize_ntriples([t])) == [t]


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


language_tags = st.from_regex(r"[A-Za-z]+(?:-[A-Za-z0-9]+)*", fullmatch=True)
literals = st.one_of(
    st.builds(Literal, safe_text),
    st.builds(Literal, safe_text, datatype=iri_text),
    st.builds(Literal, safe_text, language=language_tags),
)


@given(
    triples=st.lists(
        st.builds(
            Triple,
            st.one_of(st.builds(IRI, iri_text), st.builds(BlankNode, st.from_regex(r"[A-Za-z0-9]+", fullmatch=True))),
            st.builds(IRI, iri_text),
            literals,
        ),
        max_size=5,
    )
)
def test_typed_and_tagged_statement_round_trip_property(triples):
    assert parse(serialize_ntriples(triples)) == triples


@given(value=iri_text)
def test_iri_statement_round_trip_property(value):
    t = Triple(IRI(value), IRI(value), IRI(value))
    assert parse(serialize_ntriples([t])) == [t]
