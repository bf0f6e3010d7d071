"""Line-oriented N-Triples parsing and serialization.

Supported statement shape, one per line, terminated by ``.``::

    <iri> <iri> (<iri> | "literal" | "lit"^^<dt> | "lit"@lang | _:label) .

Subjects may also be blank nodes. Comment lines (``#``) and blank lines are
skipped; a comment may follow the terminating dot. Prefixed names are not
supported.

The parser runs in one of two modes: strict (raise MalformedLine on the
first bad statement) or lenient (skip bad statements, recording each one
in an error sink so callers can count and report them).
"""

from __future__ import annotations

import io
import re
from typing import IO, Iterable, Iterator

from .errors import MalformedLine
from .terms import BlankNode, IRI, Literal, Triple, unescape_string, format_term

_IRI = r"<([^<>\x00-\x20]*)>"
_BNODE = r"_:(\S+)"
_LIT = r'"((?:[^"\\]|\\.)*)"(?:\^\^<([^<>\x00-\x20]*)>|@([A-Za-z]+(?:-[A-Za-z0-9]+)*))?'

_STATEMENT = re.compile(
    rf"^\s*(?:{_IRI}|{_BNODE})"  # subject: groups 1 (iri) / 2 (bnode)
    rf"\s+{_IRI}"  # predicate: group 3
    rf"\s+(?:{_IRI}|{_BNODE}|{_LIT})"  # object: groups 4/5/6,7,8
    r"\s*\.\s*(?:#.*)?$"
)


def _lines(source: IO | bytes | str | Iterable[str]) -> Iterator[str]:
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        source = io.StringIO(source)
    for raw in source:
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        yield raw


def parse_ntriples(
    source: IO | bytes | str | Iterable[str],
    strict: bool = True,
    errors: list[MalformedLine] | None = None,
) -> Iterator[Triple]:
    """Yield triples from N-Triples text, in file order, duplicates included.

    In strict mode the first malformed statement raises MalformedLine; in
    lenient mode it is skipped and appended to ``errors`` (when given).
    """
    for lineno, raw in enumerate(_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            yield _parse_statement(line, lineno)
        except MalformedLine as exc:
            if strict:
                raise
            if errors is not None:
                errors.append(exc)


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
