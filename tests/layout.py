"""The store's file layout, read and written apart from ``ldm3n.storage``.

A file is a 16-byte header (magic, u16 version, u32 CRC-32 of the section
table, u32 section count), then one 24-byte entry per section (u64 offset,
u64 length, u32 itemsize, u32 CRC-32), then the sections back to back. Tests
use this to look inside a store and to forge files whose CRCs all hold.
"""

import struct
import zlib

HEADER = struct.Struct("<6sHII")
ENTRY = struct.Struct("<QQII")
NAMES = {
    "base": ("even_off", "even_tok", "odd_off", "odd_tok", "by_token", "rows", "p", "o"),
    "delta": ("base", "even_off", "even_tok", "odd_off", "odd_tok", "s", "p", "o"),
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


def rewrite(path, version: int = 4, **replace: tuple[bytes, int]) -> None:
    """Write ``path`` again with some sections replaced by (body, itemsize),
    every CRC recomputed."""
    bodies = {name: (body, itemsize) for name, (_, body, itemsize) in sections(path).items()}
    bodies.update(replace)
    offset = HEADER.size + ENTRY.size * len(bodies)
    table = struct.pack("<I", len(bodies))
    for body, itemsize in bodies.values():
        table += ENTRY.pack(offset, len(body), itemsize, zlib.crc32(body))
        offset += len(body)
    header = HEADER.pack(b"LDM3N\0", version, zlib.crc32(table), len(bodies))
    path.write_bytes(header + table[4:] + b"".join(body for body, _ in bodies.values()))
