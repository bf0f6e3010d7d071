"""The store's file layout, read and written apart from ``ldm3n.storage``.

A file is a 16-byte header (magic, u16 version, u32 CRC-32 of the section
table, u32 section count), then one 24-byte entry per section (u64 offset,
u64 length, u32 itemsize, u32 CRC-32), then the sections back to back. A term
table is three sections: ``*_off``, the offsets of its tokens in its text;
``*_blk``, where each zlib block of 64 tokens starts in ``*_tok``, then
``*_tok``'s length; and ``*_tok``, the blocks. Tests use this to look inside
a store, to forge files whose CRCs all hold, and to render a file as format
4 laid it out, with each table's text whole, which no zlib build changes.
"""

import struct
import zlib
from itertools import accumulate

HEADER = struct.Struct("<6sHII")
ENTRY = struct.Struct("<QQII")
VERSION = 5
BLOCK = 64
TABLES = ("even_off", "even_blk", "even_tok", "odd_off", "odd_blk", "odd_tok")
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


def ints(body: bytes, itemsize: int) -> list[int]:
    return list(struct.unpack(f"<{len(body) // itemsize}{'IQ'[itemsize // 8]}", body))


def pack(values: list[int], itemsize: int = 4) -> bytes:
    return struct.pack(f"<{len(values)}{'IQ'[itemsize // 8]}", *values)


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


def text(path, parity: str) -> bytes:
    """A term table's tokens back to back: its blocks, inflated."""
    return b"".join(map(zlib.decompress, blocks(path, parity)))


def check_blocks(path) -> None:
    """Each block of each term table inflates to the text of its 64 tokens."""
    found = sections(path)
    for parity in ("even", "odd"):
        offsets = ints(*found[parity + "_off"][1:])
        whole = text(path, parity)
        n = len(offsets) - 1
        stored = blocks(path, parity)
        assert len(stored) == -(-n // BLOCK)
        for b, block in enumerate(stored):
            lo, hi = offsets[b * BLOCK], offsets[min(b * BLOCK + BLOCK, n)]
            assert zlib.decompress(block) == whole[lo:hi]


def as_v4(path) -> bytes:
    """The file as format 4 wrote it: no block starts, each term table's text
    whole, and, in a ``delta``, the CRC of ``base``'s section table as format
    4 wrote ``base``. Format 4 kept the same data, so it gives the same
    bytes."""
    bodies = {name: (body, itemsize) for name, (_, body, itemsize) in sections(path).items()
              if not name.endswith("_blk")}
    for parity in ("even", "odd"):
        bodies[parity + "_tok"] = (text(path, parity), 1)
    if path.name == "delta":
        base = path.parent / "base"
        assert ints(*bodies["base"]) == [HEADER.unpack_from(base.read_bytes())[2]]
        bodies["base"] = (pack([HEADER.unpack_from(as_v4(base))[2]]), 4)
    return assemble(bodies, 4)
