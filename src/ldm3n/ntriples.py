"""Line-oriented N-Triples parsing and serialization.

Supported statement shape, one per line, terminated by ``.``::

    <iri> <iri> (<iri> | "literal" | "lit"^^<dt> | "lit"@lang | _:label) .

Subjects may also be blank nodes. Comment lines (``#``) and blank lines are
skipped; a comment may follow the terminating dot. Prefixed names are not
supported. The token grammar lives in ``terms``: the statement patterns here
are built from its IRI character class, language-tag pattern and literal
body, and a literal's datatype obeys ``IRI``'s rules.

``parse_ntriples`` yields each statement as three canonical N-Triples
tokens, the form ``format_term`` prints and the dictionary and the store key
on; it builds no term objects for a line already in that form. Any other
line is parsed into terms, checked, and formatted back into tokens.

The parser runs in one of two modes: strict (raise MalformedLine on the
first bad statement) or lenient (skip bad statements, recording each one
in an error sink so callers can count and report them).
"""

from __future__ import annotations

import io
import re
from typing import Iterable, Iterator

from .errors import MalformedLine
from .terms import _IRI_FORBIDDEN_CHARS, _LANG_TAG, _LITERAL_BODY, BlankNode, IRI, Literal, Triple, unescape_string, format_term

_IRI = r"<([^<>\x00-\x20]*)>"
_BNODE = r"_:(\S+)"
_LIT = rf'"({_LITERAL_BODY})"(?:\^\^{_IRI}|@({_LANG_TAG}))?'

_STATEMENT = re.compile(
    rf"^\s*(?:{_IRI}|{_BNODE})"  # subject: groups 1 (iri) / 2 (bnode)
    rf"\s+{_IRI}"  # predicate: group 3
    rf"\s+(?:{_IRI}|{_BNODE}|{_LIT})"  # object: groups 4/5/6,7,8
    r"\s*\.\s*(?:#.*)?$"
)

# A line this matches is already canonical: groups 1 to 3 are the tokens
# format_term prints for the terms _parse_statement builds from the line.
# Its IRIs, datatypes included, are non-empty and hold nothing IRI forbids,
# its tags match terms' tag pattern, and its lexical forms hold no quote,
# backslash or control character for escape_string to rewrite. Each token
# spans what _STATEMENT's group for it spans.
_CANONICAL_IRI = f"<[^{_IRI_FORBIDDEN_CHARS}]+>"
_CANONICAL = re.compile(
    rf"^\s*({_CANONICAL_IRI}|_:\S+)"
    rf"\s+({_CANONICAL_IRI})"
    rf'\s+({_CANONICAL_IRI}|_:\S+|"[^"\\\x00-\x1f]*"(?:\^\^{_CANONICAL_IRI}|@{_LANG_TAG})?)'
    r"\s*\.\s*(?:#.*)?$"
)


def parse_ntriples(
    source: str | Iterable[str],
    strict: bool = True,
    errors: list[MalformedLine] | None = None,
) -> Iterator[tuple[str, str, str]]:
    """Yield (subject, predicate, object) token triples from N-Triples text
    (one string, or an iterable of lines such as a text file), in file order,
    duplicates included.

    Each token is canonical: what ``format_term`` prints for its term. In
    strict mode the first malformed statement raises MalformedLine; in
    lenient mode it is skipped and appended to ``errors`` (when given).
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    canonical = _CANONICAL.match
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        m = canonical(line)
        if m is not None:
            yield m.group(1, 2, 3)
            continue
        if not line or line.startswith("#"):
            continue
        try:
            t = _parse_statement(line, lineno)
        except MalformedLine as exc:
            if strict:
                raise
            if errors is not None:
                errors.append(exc)
            continue
        yield format_term(t.subject), format_term(t.predicate), format_term(t.object)


def _parse_statement(line: str, lineno: int) -> Triple:
    m = _STATEMENT.match(line)
    if m is None:
        raise MalformedLine(lineno, "not a valid N-Triples statement", line)
    s_iri, s_bnode, p_iri, o_iri, o_bnode, o_lex, o_dt, o_lang = m.groups()
    try:
        subject = IRI(s_iri) if s_iri is not None else BlankNode(s_bnode)
        predicate = IRI(p_iri)
        if o_iri is not None:
            obj = IRI(o_iri)
        elif o_bnode is not None:
            obj = BlankNode(o_bnode)
        else:
            obj = Literal(unescape_string(o_lex), datatype=o_dt, language=o_lang)
        return Triple(subject, predicate, obj)
    except ValueError as exc:
        raise MalformedLine(lineno, str(exc), line) from None


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Render triples as N-Triples text; parse(serialize(T)) == T element-wise."""
    return "".join(
        f"{format_term(t.subject)} {format_term(t.predicate)} {format_term(t.object)} .\n"
        for t in triples
    )
