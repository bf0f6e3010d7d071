"""RDF term and triple data model.

Terms are immutable values: an IRI, a literal (lexical form plus an optional
datatype IRI or language tag, never both), or a blank node label. Equality is
syntactic: two terms are equal iff they are the same kind and every lexical
component matches byte for byte. No value-space normalization is performed.

The token functions at the bottom render/parse single terms in N-Triples
token syntax (``<iri>``, ``"lit"``, ``"lit"^^<dt>``, ``"lit"@lang``,
``_:label``); the same tokenizer backs both the file parser and the CLI.
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
        if self.datatype is not None and self.language is not None:
            raise ValueError("literal cannot carry both a datatype and a language tag")


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


_LANG_TAG = re.compile(r"[A-Za-z]+(?:-[A-Za-z0-9]+)*")

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def escape_string(s: str) -> str:
    out = []
    for ch in s:
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


_HEX_DIGITS = re.compile(r"[0-9A-Fa-f]*")  # int(x, 16) also takes signs, spaces and "_"
_UNESCAPES = {"\\": "\\", '"': '"', "'": "'", "n": "\n", "r": "\r", "t": "\t", "b": "\b", "f": "\f"}


def unescape_string(s: str) -> str:
    out = []
    i = 0
    n = len(s)
    while i < n:
        ch = s[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            raise ValueError("dangling escape at end of string")
        nxt = s[i + 1]
        if nxt in _UNESCAPES:
            out.append(_UNESCAPES[nxt])
            i += 2
        elif nxt == "u" or nxt == "U":
            width = 4 if nxt == "u" else 8
            hexpart = s[i + 2 : i + 2 + width]
            if len(hexpart) != width:
                raise ValueError(f"truncated \\{nxt} escape")
            try:
                if not _HEX_DIGITS.fullmatch(hexpart):
                    raise ValueError
                code = int(hexpart, 16)
                if 0xD800 <= code <= 0xDFFF:
                    raise ValueError  # a lone surrogate: no UTF-8 encoding
                out.append(chr(code))
            except ValueError:
                raise ValueError(f"bad \\{nxt} escape: {hexpart!r}") from None
            i += 2 + width
        else:
            raise ValueError(f"unknown escape \\{nxt}")
    return "".join(out)


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
        end = _closing_quote(token)
        lexical = unescape_string(token[1:end])
        rest = token[end + 1 :]
        if not rest:
            return Literal(lexical)
        if rest.startswith("^^<") and rest.endswith(">"):
            return Literal(lexical, datatype=rest[3:-1])
        if rest.startswith("@"):
            if not _LANG_TAG.fullmatch(rest[1:]):
                raise ValueError(f"bad language tag: {rest!r}")
            return Literal(lexical, language=rest[1:])
        raise ValueError(f"trailing junk after literal: {rest!r}")
    raise ValueError(f"unrecognized term token: {token!r}")


def _closing_quote(token: str) -> int:
    """Index of the closing quote of a literal token, honoring escapes."""
    i = 1
    n = len(token)
    while i < n:
        if token[i] == "\\":
            i += 2
            continue
        if token[i] == '"':
            return i
        i += 1
    raise ValueError(f"unterminated literal: {token!r}")
