"""RDF term and triple data model.

Terms are immutable values: an IRI, a literal (lexical form plus an optional
datatype IRI or language tag, never both), or a blank node label. Equality is
syntactic: two terms are equal iff they are the same kind and every lexical
component matches byte for byte. No value-space normalization is performed.

This module owns the N-Triples token grammar: the characters an IRI may not
hold, the language-tag pattern and the body of a quoted literal. A literal's
datatype obeys IRI's rules and its language tag that pattern, so every term
that can be built prints as a token that parses back to it. The token
functions at the bottom render/parse single terms in token syntax
(``<iri>``, ``"lit"``, ``"lit"^^<dt>``, ``"lit"@lang``, ``_:label``), for
the CLI and the store; ntriples builds its statement patterns from the same
pieces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class Term:
    """Base class for RDF terms; concrete kinds are IRI, Literal, BlankNode."""

    __slots__ = ()


# Control characters, whitespace and the token delimiters; anything else
# survives an angle-bracket round trip. The whitespace is what str.isspace
# accepts, spelled out: the regex engine tests listed code points faster
# than it tests the \s category.
_IRI_FORBIDDEN_CHARS = r'\x00-\x20\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000<>"{}|^`\\'
_IRI_FORBIDDEN = re.compile(f"[{_IRI_FORBIDDEN_CHARS}]")
# A language tag, and the body of a quoted literal: escape pairs and any
# other character but a quote or a backslash.
_LANG_TAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_LITERAL_BODY = r'(?:[^"\\]|\\.)*'
_LANG_TAG_MATCH = re.compile(_LANG_TAG).fullmatch
# A token's quoted part; DOTALL, since a token may hold a raw line break.
_QUOTED = re.compile(f'"({_LITERAL_BODY})"', re.DOTALL)


@dataclass(frozen=True, slots=True)
class IRI(Term):
    value: str

    def __post_init__(self) -> None:
        if not self.value:
            raise ValueError("IRI must be non-empty")
        bad = _IRI_FORBIDDEN.search(self.value)
        if bad:
            raise ValueError(f"IRI contains forbidden character {bad.group()!r}: {self.value!r}")


@dataclass(frozen=True, slots=True)
class Literal(Term):
    lexical: str
    datatype: str | None = None
    language: str | None = None

    def __post_init__(self) -> None:
        if self.datatype is not None:
            if self.language is not None:
                raise ValueError("literal cannot carry both a datatype and a language tag")
            IRI(self.datatype)  # raises as IRI does
        elif self.language is not None and not _LANG_TAG_MATCH(self.language):
            raise ValueError(f"bad language tag: {'@' + self.language!r}")


@dataclass(frozen=True, slots=True)
class BlankNode(Term):
    label: str

    def __post_init__(self) -> None:
        if not self.label or any(c.isspace() for c in self.label):
            raise ValueError(f"invalid blank node label: {self.label!r}")


@dataclass(frozen=True, slots=True)
class Triple:
    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self) -> None:
        if isinstance(self.subject, Literal):
            raise ValueError("triple subject cannot be a literal")
        if not isinstance(self.predicate, IRI):
            raise ValueError("triple predicate must be an IRI")


_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_ESCAPE_TABLE = str.maketrans({chr(c): f"\\u{c:04X}" for c in range(0x20)} | _ESCAPES)


def escape_string(s: str) -> str:
    return s.translate(_ESCAPE_TABLE)


_HEX_DIGITS = re.compile(r"[0-9A-Fa-f]*")  # int(x, 16) also takes signs, spaces and "_"
_UNESCAPES = {"\\": "\\", '"': '"', "'": "'", "n": "\n", "r": "\r", "t": "\t", "b": "\b", "f": "\f"}
# An escape: the backslash, then the hex digits a \u or \U takes, or one
# character, or none at the end of the string.
_ESCAPE = re.compile(r"\\(u.{0,4}|U.{0,8}|.?)", re.DOTALL)


def _unescape(m: re.Match) -> str:
    esc = m.group(1)
    if esc in _UNESCAPES:
        return _UNESCAPES[esc]
    if not esc:
        raise ValueError("dangling escape at end of string")
    kind, hexpart = esc[0], esc[1:]
    if kind not in "uU":
        raise ValueError(f"unknown escape \\{kind}")
    if len(hexpart) != (4 if kind == "u" else 8):
        raise ValueError(f"truncated \\{kind} escape")
    code = int(hexpart, 16) if _HEX_DIGITS.fullmatch(hexpart) else -1
    if not 0 <= code <= 0x10FFFF or 0xD800 <= code <= 0xDFFF:  # a lone surrogate has no UTF-8 encoding
        raise ValueError(f"bad \\{kind} escape: {hexpart!r}")
    return chr(code)


def unescape_string(s: str) -> str:
    return _ESCAPE.sub(_unescape, s)


def format_term(t: Term) -> str:
    """Render a term as its N-Triples token."""
    if isinstance(t, IRI):
        return f"<{t.value}>"
    if isinstance(t, BlankNode):
        return f"_:{t.label}"
    if isinstance(t, Literal):
        body = f'"{escape_string(t.lexical)}"'
        if t.datatype is not None:
            return f"{body}^^<{t.datatype}>"
        if t.language is not None:
            return f"{body}@{t.language}"
        return body
    raise TypeError(f"not a term: {t!r}")


def parse_term(token: str) -> Term:
    """Parse a single N-Triples token into a term.

    Raises ValueError on anything that is not a complete, well-formed token.
    """
    token = token.strip()
    if token.startswith("<"):
        if not token.endswith(">"):
            raise ValueError(f"unterminated IRI: {token!r}")
        return IRI(token[1:-1])
    if token.startswith("_:"):
        return BlankNode(token[2:])
    if token.startswith('"'):
        m = _QUOTED.match(token)
        if m is None:
            raise ValueError(f"unterminated literal: {token!r}")
        lexical = unescape_string(m.group(1))
        rest = token[m.end() :]
        if not rest:
            return Literal(lexical)
        if rest.startswith("^^<") and rest.endswith(">"):
            return Literal(lexical, datatype=rest[3:-1])
        if rest.startswith("@"):
            return Literal(lexical, language=rest[1:])
        raise ValueError(f"trailing junk after literal: {rest!r}")
    raise ValueError(f"unrecognized term token: {token!r}")
