"""The store's file layout, read and written apart from ``ldm3n.storage``.

A file is a 16-byte header (magic, u16 version, u32 CRC-32 of the section
table, u32 section count), then one 24-byte entry per section (u64 offset,
u64 length, u32 itemsize, u32 CRC-32), then the sections back to back. A term
table is two sections: ``*_blk``, where each zlib block of 64 tokens starts
in ``*_tok``, then ``*_tok``'s length; and ``*_tok``, the blocks, each its
tokens joined by newlines. ``rows`` holds each even id's triple count. Tests
use this to look inside a store, to forge files whose CRCs all hold, and to
render a file as format 4 laid it out, with each table's text whole beside
its token offsets and ``rows`` as row starts, which no zlib build changes.
"""

import struct
import zlib
from itertools import accumulate

HEADER = struct.Struct("<6sHII")
ENTRY = struct.Struct("<QQII")
VERSION = 6
BLOCK = 64
TABLES = ("even_blk", "even_tok", "odd_blk", "odd_tok")
NAMES = {
    "base": (*TABLES, "by_token", "rows", "p", "o"),
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


def ints(body: bytes, itemsize: int) -> list[int]:
    return list(struct.unpack(f"<{len(body) // itemsize}{CODES[itemsize]}", body))


def pack(values: list[int], itemsize: int = 4) -> bytes:
    return struct.pack(f"<{len(values)}{CODES[itemsize]}", *values)


def assemble(bodies: dict[str, tuple[bytes, int]], version: int = VERSION) -> bytes:
    """A file of the sections name -> (body, itemsize), in order, with every
    CRC computed."""
    offset = HEADER.size + ENTRY.size * len(bodies)
    table = struct.pack("<I", len(bodies))
    for body, itemsize in bodies.values():
        table += ENTRY.pack(offset, len(body), itemsize, zlib.crc32(body))
        offset += len(body)
    header = HEADER.pack(b"LDM3N\0", version, zlib.crc32(table), len(bodies))
    return header + table[4:] + b"".join(body for body, _ in bodies.values())


def rewrite(path, version: int = VERSION, **replace: tuple[bytes, int]) -> None:
    """Write ``path`` again with some sections replaced by (body, itemsize),
    every CRC recomputed."""
    bodies = {name: (body, itemsize) for name, (_, body, itemsize) in sections(path).items()}
    bodies.update(replace)
    path.write_bytes(assemble(bodies, version))


def blocks(path, parity: str) -> list[bytes]:
    """The zlib blocks of the ``even`` or ``odd`` term table, as stored."""
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


def tokens(path, parity: str) -> list[list[bytes]]:
    """The tokens of each block of a term table: its blocks, inflated and
    split at newlines."""
    return [zlib.decompress(block).split(b"\n") for block in blocks(path, parity)]


def check_blocks(path) -> None:
    """Every block of each term table but the last holds 64 non-empty
    tokens, and the last holds 1 to 64."""
    for parity in ("even", "odd"):
        split = tokens(path, parity)
        for b, block in enumerate(split):
            assert all(block) and (len(block) <= BLOCK if b == len(split) - 1 else len(block) == BLOCK)


def starts(sizes) -> tuple[bytes, int]:
    """Running sums of ``sizes`` from 0, as format 4 wrote offsets and row
    starts: 4 bytes each unless a sum needs 8."""
    values = list(accumulate(sizes, initial=0))
    itemsize = 8 if values[-1] >> 32 else 4
    return pack(values, itemsize), itemsize


def old_bodies(path, blocked: bool = False) -> dict[str, tuple[bytes, int]]:
    """The sections as format 4 laid them out: each term table's text whole
    beside the offsets of its tokens, and ``rows`` as row starts. With
    ``blocked``, as format 5 did: each table's text in zlib blocks of 64
    tokens back to back, with ``*_blk`` between its offsets and blocks."""
    bodies = {}
    for name, (_, body, itemsize) in sections(path).items():
        if name.endswith("_blk"):
            parity = name[:-4]
            whole = [token for block in tokens(path, parity) for token in block]
            bodies[parity + "_off"] = starts(map(len, whole))
            if blocked:
                blocks = [zlib.compress(b"".join(whole[i : i + BLOCK]), 1) for i in range(0, len(whole), BLOCK)]
                bodies[name] = starts(map(len, blocks))
                bodies[parity + "_tok"] = (b"".join(blocks), 1)
            else:
                bodies[parity + "_tok"] = (b"".join(whole), 1)
        elif name == "rows":
            bodies[name] = starts(ints(body, itemsize))
        elif not name.endswith("_tok"):
            bodies[name] = (body, itemsize)
    return bodies


def as_v4(path) -> bytes:
    """The file as format 4 wrote it (see ``old_bodies``), and, in a
    ``delta``, with the CRC of ``base``'s section table as format 4 wrote
    ``base``. Format 4 kept the same data, so it gives the same bytes."""
    bodies = old_bodies(path)
    if path.name == "delta":
        base = path.parent / "base"
        assert ints(*bodies["base"]) == [HEADER.unpack_from(base.read_bytes())[2]]
        bodies["base"] = (pack([HEADER.unpack_from(as_v4(base))[2]]), 4)
    return assemble(bodies, 4)
