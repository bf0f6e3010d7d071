"""The store's file layout, read and written apart from ``ldm3n.storage``.

A file is a 16-byte header (magic, u16 version, u32 CRC-32 of the section
table, u32 section count), then one 24-byte entry per section (u64 offset,
u64 length, u32 itemsize, u32 CRC-32), then the sections back to back. A term
table is two sections: ``*_blk``, where each block of 64 tokens starts in
``*_tok``, then ``*_tok``'s length; and ``*_tok``, the blocks, each its first
token, a newline, and its other tokens joined by newlines and deflated.
``base``'s tables hold their tokens in ascending byte order, which is the
order of their ids. ``rows`` holds each even id's triple count. Tests use this
to look inside a store, to forge files whose CRCs all hold, and to render a
file as an older format laid it out: as format 4 did, with each table's text
whole beside its token offsets, ``by_token`` and ``rows`` as row starts, which
no zlib build changes.
"""

import struct
import zlib
from itertools import accumulate

HEADER = struct.Struct("<6sHII")
ENTRY = struct.Struct("<QQII")
VERSION = 7
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


def block(tokens: list[bytes]) -> bytes:
    """A block of ``tokens``: the first, a newline, and the others joined by
    newlines and deflated, if there are any."""
    head, *rest = tokens
    return head + b"\n" + (zlib.compress(b"\n".join(rest)) if rest else b"")


def split(block: bytes) -> list[bytes]:
    """The tokens of a block."""
    head, rest = block.split(b"\n", 1)
    return [head, *zlib.decompress(rest).split(b"\n")] if rest else [head]


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


def starts(sizes) -> tuple[bytes, int]:
    """Running sums of ``sizes`` from 0, as format 4 wrote offsets and row
    starts: 4 bytes each unless a sum needs 8."""
    values = list(accumulate(sizes, initial=0))
    itemsize = 8 if values[-1] >> 32 else 4
    return pack(values, itemsize), itemsize


def old_bodies(path, version: int = 4) -> dict[str, tuple[bytes, int]]:
    """The sections as format ``version`` (4 to 6) laid them out, with a
    ``base``'s ``by_token``, every id sorted by its token's bytes, before
    ``rows``. Format 4 kept each term table's text whole beside the offsets
    of its tokens, and ``rows`` as row starts; format 5 kept the text in zlib
    blocks of 64 tokens back to back, with ``*_blk`` between its offsets and
    blocks; format 6 kept ``rows`` as counts and each block as its 64 tokens
    joined by newlines and deflated, with no offsets."""
    bodies = {}
    table = {}
    for name, (_, body, itemsize) in sections(path).items():
        if name.endswith("_blk"):
            parity = name[:-4]
            whole = [token for block in tokens(path, parity) for token in block]
            table |= {2 * i + 2 - (parity == "odd"): token for i, token in enumerate(whole)}
            if version < 6:
                bodies[parity + "_off"] = starts(map(len, whole))
            if version == 4:
                bodies[parity + "_tok"] = (b"".join(whole), 1)
            else:
                sep = b"\n" if version == 6 else b""
                blocks = [zlib.compress(sep.join(whole[i : i + BLOCK]), 1) for i in range(0, len(whole), BLOCK)]
                bodies[name] = starts(map(len, blocks))
                bodies[parity + "_tok"] = (b"".join(blocks), 1)
        elif name == "rows":
            by_token = sorted(table, key=table.__getitem__)
            bodies["by_token"] = (pack(by_token, 8), 8) if max(by_token, default=0) >> 32 else (pack(by_token), 4)
            bodies[name] = (body, itemsize) if version == 6 else starts(ints(body, itemsize))
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
