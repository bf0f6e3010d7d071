"""The store's file layout, read and written apart from ``ldm3n.storage``.

A file is a 16-byte header (magic, u16 version, u32 CRC-32 of the section
table, u32 section count), then one 24-byte entry per section (u64 offset,
u64 length, u32 itemsize, u32 CRC-32), then the sections back to back. A term
table is two sections: ``*_blk``, where each block of 64 tokens starts in
``*_tok``, then ``*_tok``'s length; and ``*_tok``, the blocks, each its first
token, a newline, and, if it holds others, their front-coded body as one raw
deflate stream: a byte holding their count, one byte per token holding how
many bytes it shares with the token before it (at most 255), and their
suffixes joined by newlines. ``base``'s tables hold their tokens in ascending
byte order, which is the order of their ids. ``rows`` holds each even id's
triple count. Every section but ``*_tok`` holds integers, stored as their
little-endian byte planes, plane k holding byte k of every item, deflated as
one raw deflate stream; its itemsize is the items'. Tests use this to look
inside a store, to forge files whose CRCs all hold, and to decode a file to a
canonical text (``canonical``) that no zlib build or byte layout changes.
"""

import os
import struct
import zlib
from itertools import accumulate

HEADER = struct.Struct("<6sHII")
ENTRY = struct.Struct("<QQII")
VERSION = 9
BLOCK = 64
TABLES = ("even_blk", "even_tok", "odd_blk", "odd_tok")
NAMES = {
    "base": (*TABLES, "rows", "p", "o"),
    "delta": ("base", *TABLES, "s", "p", "o"),
}


def sections(path, data: bytes | None = None) -> dict[str, tuple[int, bytes, int]]:
    """name -> (byte offset, body, itemsize) of every section of a store file
    (``base`` or ``delta``), read from ``path`` unless ``data`` is given."""
    data = path.read_bytes() if data is None else data
    count = HEADER.unpack_from(data)[3]
    out = {}
    for i, name in enumerate(NAMES[path.name]):
        assert i < count
        offset, length, itemsize, _ = ENTRY.unpack_from(data, HEADER.size + ENTRY.size * i)
        out[name] = (offset, data[offset : offset + length], itemsize)
    return out


CODES = {1: "B", 4: "I", 8: "Q"}


def deflate(data: bytes, level: int = 1) -> bytes:
    """``data`` as one raw deflate stream, with no zlib header or trailer."""
    deflater = zlib.compressobj(level, zlib.DEFLATED, -15)
    return deflater.compress(data) + deflater.flush()


def inflate(body: bytes) -> bytes:
    return zlib.decompress(body, -15)


def ints(body: bytes, itemsize: int) -> list[int]:
    """The values of a stored integer section."""
    planes = inflate(body)
    n = len(planes) // itemsize
    raw = bytearray(len(planes))
    for k in range(itemsize):
        raw[k::itemsize] = planes[k * n : (k + 1) * n]
    return list(struct.unpack(f"<{n}{CODES[itemsize]}", raw))


def pack(values: list[int], itemsize: int = 4) -> bytes:
    """A stored integer section of ``values``: their little-endian byte
    planes, one after another, deflated."""
    raw = struct.pack(f"<{len(values)}{CODES[itemsize]}", *values)
    return deflate(b"".join(raw[k::itemsize] for k in range(itemsize)))


def assemble(bodies: dict[str, tuple[bytes, int]]) -> bytes:
    """A file of the sections name -> (body, itemsize), in order, with every
    CRC computed."""
    offset = HEADER.size + ENTRY.size * len(bodies)
    table = struct.pack("<I", len(bodies))
    for body, itemsize in bodies.values():
        table += ENTRY.pack(offset, len(body), itemsize, zlib.crc32(body))
        offset += len(body)
    header = HEADER.pack(b"LDM3N\0", VERSION, zlib.crc32(table), len(bodies))
    return header + table[4:] + b"".join(body for body, _ in bodies.values())


def rewrite(path, **replace: tuple[bytes, int]) -> None:
    """Write ``path`` again with some sections replaced by (body, itemsize),
    every CRC recomputed."""
    bodies = {name: (body, itemsize) for name, (_, body, itemsize) in sections(path).items()}
    bodies.update(replace)
    path.write_bytes(assemble(bodies))


def blocks(path, parity: str) -> list[bytes]:
    """The blocks of the ``even`` or ``odd`` term table, as stored."""
    found = sections(path)
    _, body, itemsize = found[parity + "_blk"]
    starts = ints(body, itemsize)
    tok = found[parity + "_tok"][1]
    return [tok[a:b] for a, b in zip(starts, starts[1:])]


def rewrite_blocks(path, parity: str, new: list[bytes]) -> None:
    """Write ``path`` again with the blocks of a term table replaced by
    ``new`` and its block starts to match, every CRC recomputed."""
    starts = list(accumulate(map(len, new), initial=0))
    rewrite(path, **{parity + "_blk": (pack(starts), 4), parity + "_tok": (b"".join(new), 1)})


def shared(a: bytes, b: bytes) -> int:
    """The leading bytes ``b`` shares with ``a``, at most 255."""
    return min(len(os.path.commonprefix([a, b])), 255)


def body(tokens: list[bytes]) -> bytes:
    """The front-coded body of a block: the count of the tokens after the
    first, how many bytes each shares with the token before it, and their
    suffixes joined by newlines."""
    counts = bytes(shared(a, b) for a, b in zip(tokens, tokens[1:]))
    return bytes([len(tokens) - 1]) + counts + b"\n".join(t[n:] for t, n in zip(tokens[1:], counts))


def block(tokens: list[bytes]) -> bytes:
    """A block of ``tokens``: the first, a newline, and the others'
    front-coded body deflated, if there are any."""
    head, *rest = tokens
    return head + b"\n" + (deflate(body(tokens)) if rest else b"")


def split(block: bytes) -> list[bytes]:
    """The tokens of a block."""
    head, rest = block.split(b"\n", 1)
    if not rest:
        return [head]
    coded = inflate(rest)
    n = coded[0]
    out = [head]
    for count, suffix in zip(coded[1 : 1 + n], coded[1 + n :].split(b"\n"), strict=True):
        out.append(out[-1][:count] + suffix)
    return out


def tokens(path, parity: str) -> list[list[bytes]]:
    """The tokens of each block of a term table."""
    return [split(block) for block in blocks(path, parity)]


def check_blocks(path) -> None:
    """Every block of each term table but the last holds 64 non-empty
    tokens, and the last holds 1 to 64; in ``base``, each table's tokens
    strictly ascend."""
    for parity in ("even", "odd"):
        decoded = tokens(path, parity)
        for b, block in enumerate(decoded):
            assert all(block) and (len(block) <= BLOCK if b == len(decoded) - 1 else len(block) == BLOCK)
        whole = [token for block in decoded for token in block]
        assert path.name == "delta" or all(a < b for a, b in zip(whole, whole[1:]))


def canonical(path) -> bytes:
    """What a store file decodes to, as text that no zlib build or byte
    layout changes: a line per token, ``even`` or ``odd`` and the token, in
    id order, then a line per integer section, its name and its values. A
    ``delta``'s ``base`` section, the CRC of the section table of the
    ``base`` it extends, is left out, for tests to compare with that CRC."""
    lines = [
        parity.encode() + b" " + token for parity in ("even", "odd") for block in tokens(path, parity) for token in block
    ]
    for name, (_, body, itemsize) in sections(path).items():
        if name not in TABLES and name != "base":
            lines.append(" ".join([name, *map(str, ints(body, itemsize))]).encode())
    return b"\n".join(lines) + b"\n"
