"""Loading N-Triples as tokens writes what loading them as terms writes.

``parse_ntriples`` turns a line already in canonical form straight into
tokens, and sends every other line through ``_parse_statement``. The
reference here parses every line into terms with ``_parse_statement`` and
stores them with ``create_store``. Both must write the same ``base`` bytes,
and lenient mode must skip the same lines with the same messages.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ldm3n import StoreConfig, create_store, format_term
from ldm3n.errors import MalformedLine
from ldm3n.ntriples import _parse_statement, parse_ntriples
from ldm3n.storage import load_triples

# Every character IRI forbids but the line break, which would split the line.
FORBIDDEN = [c for c in map(chr, range(0x3001)) if (c.isspace() or c in '<>"{}|^`\\' or c < " ") and c != "\n"]


iri_text = st.text(st.sampled_from("ab/#:.-_~%é\U0001f600"), max_size=5)
iri = iri_text.map(lambda s: f"<http://x/{s}>")
bad_iri = st.one_of(st.builds(lambda a, c, b: f"<{a}{c}{b}>", iri_text, st.sampled_from(FORBIDDEN), iri_text),
                    st.just("<>"))
bnode = st.text(st.sampled_from('b0._-"<>é#'), min_size=1, max_size=4).map(lambda s: "_:" + s)
lexical = st.lists(st.sampled_from([
    # plain characters
    "a", " ", "é", "\xa0", "#", ".", "<", ">", "'", "@", "^", "\U0001f600", "\u3000", "\x85",
    # escapes
    '\\"', "\\\\", "\\n", "\\r", "\\t", "\\b", "\\f", "\\'", "\\u0041", "\\u00e9", "\\u0009", "\\U0001F600",
    # raw control characters
    "\t", "\x00", "\x01", "\x1f", "\r", "\x7f", "\x0b",
]), max_size=6).map("".join)
bad_lexical = st.builds(lambda a, bad, b: a + bad + b, lexical,
                        st.sampled_from(["\\", "\\x", "\\u12", "\\uZZZZ", '"']), lexical)
tag = st.sampled_from(["", "", "@en", "@en-US", "@x-1a", "^^<>", "^^<http://dt>", '^^<{"}\xa0>'])
bad_tag = st.sampled_from(["@1x", "@en-", "^^<a b>", "^^<dt", "^^"])
literal = st.builds(lambda lex, t: f'"{lex}"{t}', lexical, tag)
space = st.sampled_from([" ", " ", "  ", "\t", " \t ", "\u3000", "\xa0", "\x0b"])
end = st.sampled_from([" .", " .", ".", " . ", "\t.", " . # c", ".# trailing <a> .", " . #"])


def statement(s=st.one_of(iri, bnode), p=iri, o=st.one_of(iri, bnode, literal), sp=space, e=end):
    """Statement lines, well formed unless a part is swapped for a bad one."""
    lead = st.sampled_from(["", "", " ", "\t", "\u3000"])
    return st.builds(lambda *parts: "".join(parts), lead, s, sp, p, sp, o, e)


bad_statement = st.one_of(
    statement(s=bad_iri), statement(p=bad_iri), statement(o=bad_iri),
    statement(o=st.builds(lambda lex, t: f'"{lex}"{t}', bad_lexical, tag)),
    statement(o=st.builds(lambda lex, t: f'"{lex}"{t}', lexical, bad_tag)),
    statement(s=literal), statement(p=bnode), statement(sp=st.just("")),
    statement(e=st.sampled_from(["", " ..", " . x"])),
)
# Three lines in five well formed; one_of would weigh each bad kind as much.
line = st.sampled_from([statement()] * 3 + [
    bad_statement, st.sampled_from(["", "   ", "# comment", "  # <a> <b> <c> .", "junk"]),
]).flatmap(lambda lines: lines)


def object_path(lines: list[str]):
    """Every statement parsed into terms: the triples, and the messages of
    the lines lenient mode skips."""
    triples, messages = [], []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            triples.append(_parse_statement(text, lineno))
        except MalformedLine as exc:
            messages.append(str(exc))
    return triples, messages


@settings(deadline=None)
@given(lines=st.lists(line, max_size=12))
@example(lines=[
    '<http://x/s> <http://x/p> "a\\"b\\\\c\\nd\\u0041\\U0001F600" .',
    '_:b0 <http://x/p> "tab\there"@en-US . # trailing',
    "",
    "# comment",
    '  <http://x/s>\t<http://x/p>   "v"^^<> .  ',
    '<http://x/s> <http://x/p> "v"^^<http://dt> .',
    '<http://x/a{b}> <http://x/p> _:b1 .',
    "<http://x/s> <http://x/p> <http://x/o　> .",
    '<http://x/s> <http://x/p> "ctl\x01" .',
    '<http://x/s> <http://x/p> "bad \\x" .',
    "<http://x/s> <http://x/p> _:b0.",
])
def test_token_path_writes_the_bytes_of_the_object_path(lines):
    text = "\n".join(lines)
    triples, messages = object_path(lines)
    errors: list[MalformedLine] = []
    tokens = list(parse_ntriples(text, strict=False, errors=errors))
    assert [str(e) for e in errors] == messages
    assert tokens == [(format_term(t.subject), format_term(t.predicate), format_term(t.object)) for t in triples]
    with tempfile.TemporaryDirectory() as tmp:
        by_tokens, by_terms = Path(tmp) / "tokens", Path(tmp) / "terms"
        load_triples(StoreConfig(by_tokens), parse_ntriples(text, strict=False))
        store = create_store(StoreConfig(by_terms), triples)
        assert (by_tokens / "base").read_bytes() == (by_terms / "base").read_bytes()
        # The subjects iter_triples reads off rows are those traversal sees,
        # past rows left empty by ids that are never a subject.
        stored = list(store.iter_triples())
        assert stored == [(s, p, o) for s in store.dictionary.ids() for p, o in store.neighbors(s)]
        lookup = store.dictionary.lookup
        assert stored == sorted({(lookup(t.subject), lookup(t.predicate), lookup(t.object)) for t in triples})
    if messages:
        with pytest.raises(MalformedLine) as exc:
            list(parse_ntriples(text))
        assert str(exc.value) == messages[0]
