"""A damaged store fails loudly or not at all.

For any truncation or single-byte flip of any file of a store with a
materialized delta, ``open_store`` and ``read_delta`` either raise
StoreCorrupt or return a store and derived triples whose answers equal the
BFS oracles' on the undamaged triples; the CLI turns the failure into exit
code 3 with no traceback. Only the commands that query derived triples read
``delta``, so a damaged one fails those alone, and ``entail --materialize``
replaces it.
"""

import functools
import re
import shutil
import tracemalloc
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ldm3n import Literal, Model, StoreConfig, Triple, create_store, forward_transform, open_store
from ldm3n.cli import main
from ldm3n.errors import StoreCorrupt
from ldm3n.semantics import RDFS_DOMAIN, StoreView, entail_fixpoint
from ldm3n.storage import read_delta, save_delta
from ldm3n.traversal import shortest_path

import layout
from conftest import EX, ex, succession_triples
from oracles import labeled_arc_distances, triple_node_distances

# The domain triple makes entailment type both singleton properties as
# offices, which mints rdf:type, so the delta holds a term as well as triples.
BASE = succession_triples() + [
    Triple(ex("hasSuccessor"), RDFS_DOMAIN, ex("Office")),
    Triple(ex("BillClinton"), ex("name"), Literal("Bill")),
]


def oracle_answers(triples: list[Triple]) -> dict:
    """(model, source, target) -> distance or None, from the BFS oracles."""
    g = forward_transform(triples)
    encoded = [tuple(g.mu.lookup(x) for x in (t.subject, t.predicate, t.object)) for t in triples]
    terms = list(map(g.mu.decode, g.mu.ids()))
    answers = {}
    for source in terms:
        if isinstance(source, Literal):
            continue
        sid = g.mu.lookup(source)
        for model, dist in (
            (Model.LDM3N, triple_node_distances(g, sid)),
            (Model.NLAN, labeled_arc_distances(encoded, sid)),
        ):
            for target in terms:
                answers[model, source, target] = dist.get(g.mu.lookup(target))
    return answers


def engine_answers(view, dictionary, keys) -> dict:
    answers = {}
    for model, source, target in keys:
        s, t = dictionary.lookup(source), dictionary.lookup(target)
        if s is None or t is None:
            answers[model, source, target] = "missing"
            continue
        result = shortest_path(view, s, t, model)
        answers[model, source, target] = result.distance if result.found else None
    return answers


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """The undamaged files, the oracle answers of both views and a work directory."""
    path = tmp_path_factory.mktemp("pristine") / "store"
    store = create_store(StoreConfig(path), BASE)
    delta = entail_fixpoint(store).view.delta
    assert len(delta) == 2
    save_delta(store, delta)
    derived = [Triple(*(store.decode(x) for x in t)) for t in delta]
    files = {p.name: p.read_bytes() for p in path.iterdir()}
    expected = {"base": oracle_answers(BASE), "union": oracle_answers(BASE + derived)}
    return files, expected, tmp_path_factory.mktemp("work") / "store"


def damaged_copy(files: dict, work, name: str, offset: int, flip: int):
    """The store with ``name`` truncated to ``offset`` bytes (flip 0) or with
    its byte at ``offset`` xor-ed with ``flip``."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    for file_name, data in files.items():
        if file_name == name:
            data = bytearray(data)
            if flip:
                data[offset] ^= flip
            else:
                del data[offset:]
        (work / file_name).write_bytes(bytes(data))
    return work


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_store_raises_or_answers_as_the_oracle(pristine, data):
    files, expected, work = pristine
    name = data.draw(st.sampled_from(sorted(files)), label="file")
    offset = data.draw(st.integers(0, len(files[name]) - 1), label="offset")
    flip = data.draw(st.integers(0, 255), label="xor, 0 to truncate")
    damaged_copy(files, work, name, offset, flip)
    try:
        store = open_store(work)
        delta = read_delta(store)
    except StoreCorrupt:
        return
    base = expected["base"]
    assert engine_answers(store, store.dictionary, base) == base
    assert store.triple_count() == len(BASE)
    union = StoreView(store, delta)
    assert engine_answers(union, store.dictionary, expected["union"]) == expected["union"]
    assert union.triple_count() == len(BASE) + 2


def test_undamaged_store_answers_as_the_oracle(pristine):
    files, expected, work = pristine
    store = open_store(damaged_copy(files, work, "", 0, 0))
    assert engine_answers(store, store.dictionary, expected["base"]) == expected["base"]
    union = StoreView(store, read_delta(store))
    assert engine_answers(union, store.dictionary, expected["union"]) == expected["union"]
    # The derived typing shortens the walk to the office: 4 edges through the
    # domain declaration, 3 through holdsPos#1's own type triple.
    key = (Model.LDM3N, ex("BillClinton"), ex("Office"))
    assert (expected["base"][key], expected["union"][key]) == (4, 3)


# Each case damages the middle of one section: base's triple columns, term
# tokens and row counts, and delta's derived triples. The case names are
# those of the version-2 files that held each part; "meta", whose load
# report format 4 no longer stores, damages the row counts.
PARTS = {"adj": ("base", "p"), "dict_rev": ("base", "even_tok"), "meta": ("base", "rows"), "delta": ("delta", "s")}


@pytest.mark.parametrize("name", ["adj", "delta", "dict_rev", "meta"])
@pytest.mark.parametrize("how", ["flip", "truncate"])
def test_damaged_store_exits_three(pristine, capsys, name, how):
    files, _, work = pristine
    file_name, section = PARTS[name]
    at, body, _ = layout.sections(Path(file_name), files[file_name])[section]
    damaged_copy(files, work, file_name, at + len(body) // 2, 0x40 if how == "flip" else 0)
    code = main(["stats", "--store", str(work), "--with-derived"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and str(work / file_name) in err
    assert "Traceback" not in err


# Commands that answer from base alone; the singleton options make validate
# and stats count base's singleton properties.
BASE_ONLY = [
    ["spath", "--model", "ldm3n", "--source", f"<{EX}BillClinton>", "--target", f"<{EX}Office>"],
    ["validate", "--singleton-prop", EX + "singletonPropOf"],
    ["stats", "--singleton-prop", EX + "singletonPropOf"],
]


def run_cli(capsys, work, command: list[str]):
    code = main([command[0], "--store", str(work), *command[1:]])
    return code, capsys.readouterr()


def damage_delta(files: dict, work):
    """The store with a byte in the middle of delta's ``s`` section flipped."""
    at, body, _ = layout.sections(Path("delta"), files["delta"])["s"]
    return damaged_copy(files, work, "delta", at + len(body) // 2, 0x40)


def test_damaged_delta_fails_only_commands_with_derived(pristine, capsys):
    files, _, work = pristine
    damaged_copy(files, work, "", 0, 0)
    undamaged = [run_cli(capsys, work, command) for command in BASE_ONLY]
    assert [code for code, _ in undamaged] == [0, 0, 0]
    damage_delta(files, work)
    assert [run_cli(capsys, work, command) for command in BASE_ONLY] == undamaged
    code, captured = run_cli(capsys, work, ["stats", "--with-derived"])
    assert code == 3
    assert captured.err.startswith(f"error: {work / 'delta'}: ") and "Traceback" not in captured.err


def test_materialize_replaces_a_damaged_delta(pristine, capsys):
    files, _, work = pristine
    damage_delta(files, work)
    assert run_cli(capsys, work, ["entail", "--materialize"])[0] == 0
    code, captured = run_cli(capsys, work, ["stats", "--with-derived"])
    assert code == 0 and "triples,10" in captured.out
    # The pristine delta is a fresh materialize of the same base.
    assert (work / "delta").read_bytes() == files["delta"]


@pytest.mark.parametrize("how", ["wrong_sum", "wrong_length", "overflow"])
def test_bad_row_counts_are_rejected(tmp_path, capsys, how):
    """A CRC-valid ``rows`` whose counts do not sum to the length of ``p``
    and ``o`` would end a row past the columns or leave triples in no row;
    one with a count for other than each even id would shift every row. An
    8-byte count may sum past 2**64."""
    path = tmp_path / "forged"
    create_store(StoreConfig(path), succession_triples())
    base = path / "base"
    at, body, itemsize = layout.sections(base)["rows"]
    counts = layout.ints(body, itemsize)
    # ArkansasGovernor, then BillClinton: ids follow token order.
    assert (counts[:2], sum(counts), itemsize) == ([0, 2], 6, 1)
    if how == "wrong_sum":
        layout.rewrite(base, rows=(layout.pack([0, 200] + counts[2:], 1), 1))
        what = "row counts sum to 204, expected 6, the length of p and o"
    elif how == "wrong_length":
        layout.rewrite(base, rows=(layout.pack(counts + [0], 1), 1))
        what = f"{len(counts) + 1} row counts, expected {len(counts)}, one per even id"
    else:
        layout.rewrite(base, rows=(layout.pack([2**63, 2**63] + counts[2:], 8), 8))
        what = f"row counts sum to {2**64 + 4}, expected 6, the length of p and o"
    message = f"{base}: section rows at byte offset {at}: {what}"
    with pytest.raises(StoreCorrupt) as exc:
        open_store(path)
    assert str(exc.value) == message
    code = main(["spath", "--store", str(path), "--model", "ldm3n",
                 "--source", f"<{ex('BillClinton').value}>", "--target", f"<{ex('GeorgeWBush').value}>"])
    assert (code, capsys.readouterr().err) == (3, f"error: {message}\n")


def forge_block(path, how: str) -> str:
    """Rewrite ``path`` with the first block of its even table damaged, every
    CRC recomputed; a pattern of what the reader will find there."""
    blocks = layout.blocks(path, "even")
    assert len(blocks) == 2
    tokens = layout.split(blocks[0])
    body = layout.body(tokens)
    expected = "; expected 64 non-empty tokens from token 0"
    if how == "zlib_error":
        # The head stays; what follows it is zeros.
        blocks[0] = tokens[0] + b"\n" + bytes(len(blocks[0]) - len(tokens[0]) - 1)
        found = re.escape("does not inflate (Error -3 while decompressing data: ") + ".+" + re.escape(")")
    elif how == "stray_bytes":
        blocks[0] += b"stray bytes"
        found = re.escape("holds 11 bytes past the end of its deflate stream")
    elif how in ("63_tokens", "65_tokens"):
        # The count byte agrees with the block's shared counts and suffixes.
        if how == "63_tokens":
            tokens[-2:] = [tokens[-2] + tokens[-1]]
        else:
            tokens[5:6] = [tokens[5][:9], tokens[5][9:]]
        blocks[0] = layout.block(tokens)
        found = re.escape(f"counts {len(tokens)} tokens")
    elif how in ("extra_suffix", "missing_suffix"):
        # The count byte still says 64 tokens. Without the last suffix, the
        # 63 shared counts take the first byte of the suffixes.
        body = body + b"\nextra" if how == "extra_suffix" else b"\x3f" + layout.body(tokens[:-1])[1:]
        blocks[0] = tokens[0] + b"\n" + layout.deflate(body)
        suffixes = 64 if how == "extra_suffix" else 62
        found = re.escape(f"counts 64 tokens but holds 63 shared counts and {suffixes} suffixes")
    elif how == "shared_too_long":
        # Token 6 claims one byte more than token 5 holds.
        shared = len(tokens[5]) + 1
        blocks[0] = tokens[0] + b"\n" + layout.deflate(body[:6] + bytes([shared]) + body[7:])
        found = re.escape(f"token 6 shares {shared} bytes with token 5, which holds {shared - 1}")
        expected = f"; expected at most {shared - 1}"
    else:
        tokens[5] = b""
        blocks[0] = layout.block(tokens)
        found = re.escape("token 5 is empty")
    layout.rewrite_blocks(path, "even", blocks)
    at = layout.sections(path)["even_tok"][0]
    return (re.escape(f"{path}: section even_tok: block 0 at byte offset {at} ") + found + re.escape(expected))


DAMAGED_BLOCKS = ["zlib_error", "stray_bytes", "63_tokens", "65_tokens", "extra_suffix", "missing_suffix",
                  "shared_too_long", "empty_token"]


def two_blocks(tmp_path) -> Path:
    """A store of 81 even tokens in two blocks: o/0 ... o/9, p, s/0, s/1,
    s/10, ... in token order, so the first block holds o/0 and s/0."""
    path = tmp_path / "blocks"
    create_store(StoreConfig(path), [Triple(ex(f"s/{i}"), ex("p"), ex(f"o/{i}")) for i in range(40)])
    return path


@pytest.mark.parametrize("how", DAMAGED_BLOCKS)
def test_damaged_block_fails_where_it_is_read(tmp_path, capsys, how):
    """A CRC-valid ``base`` whose first block of even tokens does not
    inflate, holds bytes past its deflate stream, counts other than 64
    tokens, holds other than 63 shared counts and suffixes, shares more
    bytes with a token than it holds, or decodes to an empty token, opens,
    since only the last block of each table is read at open; reading a token
    of that block fails with exit code 3, naming the file, the section, the
    block's byte offset and what was expected."""
    path = two_blocks(tmp_path)
    message = forge_block(path / "base", how)
    store = open_store(path)
    assert store.token(162) == f"<{EX}s/9>"  # the last even token, in the second block
    with pytest.raises(StoreCorrupt) as exc:
        store.decode(2)  # o/0, the first even token
    assert re.fullmatch(message, str(exc.value))
    with pytest.raises(StoreCorrupt) as exc:
        open_store(path).resolve(ex("s/0"))
    assert re.fullmatch(message, str(exc.value))
    code = main(["spath", "--store", str(path), "--model", "ldm3n",
                 "--source", f"<{EX}s/0>", "--target", f"<{EX}o/0>"])
    err = capsys.readouterr().err
    assert code == 3 and re.fullmatch(f"error: {message}\n", err)


@pytest.mark.parametrize("how", DAMAGED_BLOCKS)
def test_damaged_delta_block_fails_commands_with_derived(tmp_path, capsys, how):
    """``read_delta`` reads every token the delta minted, so a damaged first
    block of its 70 minted even tokens fails the commands that query derived
    triples with exit code 3; the others answer from ``base``."""
    path = tmp_path / "blocks"
    store = create_store(StoreConfig(path), succession_triples())
    minted = [store.dictionary.issue(f"<{EX}minted/{i}>", False) for i in range(70)]
    p = store.resolve(ex("hasSuccessor"))
    save_delta(store, [(m, p, minted[0]) for m in minted])
    message = forge_block(path / "delta", how)
    with pytest.raises(StoreCorrupt) as exc:
        read_delta(open_store(path))
    assert re.fullmatch(message, str(exc.value))
    spath = ["spath", "--model", "ldm3n", "--source", f"<{EX}BillClinton>", "--target", f"<{EX}GeorgeWBush>"]
    assert run_cli(capsys, path, spath)[0] == 0
    code, captured = run_cli(capsys, path, ["stats", "--with-derived"])
    assert code == 3 and re.fullmatch(f"error: {message}\n", captured.err)


def forge_order(path, how: str) -> str:
    """Rewrite ``base`` with the even table's tokens out of order, every CRC
    recomputed; the message that names the block out of order."""
    blocks = [layout.split(block) for block in layout.blocks(path, "even")]
    if how == "swapped_heads":
        blocks[0][0], blocks[1][0] = blocks[1][0], blocks[0][0]
        b, what = 1, "its head does not sort above block 0's head; expected the heads in strictly ascending byte order"
    elif how == "swapped_tokens":
        blocks[0][5], blocks[0][6] = blocks[0][6], blocks[0][5]
        b, what = 0, "token 6 does not sort above token 5; expected the tokens in strictly ascending byte order"
    else:
        # Block 0's last token and block 1's head change places: both heads
        # still ascend, and so does each block, but block 0 ends above the
        # head that follows it.
        blocks[0][-1], blocks[1][0] = blocks[1][0], blocks[0][-1]
        b, what = 0, ("token 63, its last, does not sort below block 1's head;"
                      " expected the tokens in strictly ascending byte order")
    layout.rewrite_blocks(path, "even", [layout.block(tokens) for tokens in blocks])
    found = layout.sections(path)
    at = found["even_tok"][0] + layout.ints(*found["even_blk"][1:])[b]
    return f"{path}: section even_tok: block {b} at byte offset {at} {what}"


@pytest.mark.parametrize("how", ["swapped_heads", "swapped_tokens", "last_token_above_next_head"])
def test_tokens_out_of_order_fail_where_they_are_read(tmp_path, capsys, how):
    """Lookups bisect the heads and then one block, so their answers rest on
    ``base``'s tables being in token order. A CRC-valid table whose heads
    do not ascend fails at open; one whose block is out of order inside, or
    ends at or above the next block's head, opens and fails where that block
    is first read. Either way with exit code 3, naming the file, the
    section, the block's byte offset and the order expected."""
    path = two_blocks(tmp_path)
    message = forge_order(path / "base", how)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f"{EX}s/0,{EX}o/0\n", encoding="utf-8")
    # Each resolves s/0 and o/0, which the first block holds.
    commands = [
        ["spath", "--model", "ldm3n", "--source", f"<{EX}s/0>", "--target", f"<{EX}o/0>"],
        ["reach", "--model", "nlan", "--source", f"<{EX}s/0>", "--target", f"<{EX}o/0>"],
        ["bench", "--mode", "spath", "--model", "ldm3n", "--pairs", str(pairs)],
    ]
    if how == "swapped_heads":
        with pytest.raises(StoreCorrupt) as exc:
            open_store(path)
        assert str(exc.value) == message
        commands += [["entail"], ["validate"], ["stats"]]
    else:
        store = open_store(path)
        assert store.token(162) == f"<{EX}s/9>"  # the second block
        with pytest.raises(StoreCorrupt) as exc:
            store.resolve(ex("s/0"))
        assert str(exc.value) == message
    for command in commands:
        code, captured = run_cli(capsys, path, command)
        assert (code, captured.err) == (3, f"error: {message}\n"), command


def every_command(tmp_path) -> list[list[str]]:
    """Each command, as it queries the succession store."""
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f"{EX}BillClinton,{EX}GeorgeWBush\n", encoding="utf-8")
    ends = ["--source", f"<{EX}BillClinton>", "--target", f"<{EX}GeorgeWBush>"]
    return [
        ["spath", "--model", "ldm3n", *ends],
        ["reach", "--model", "nlan", *ends],
        ["bench", "--mode", "spath", "--model", "ldm3n", "--pairs", str(pairs)],
        ["entail"],
        ["validate"],
        ["stats"],
    ]


def bound(path, section: str) -> int | None:
    """The most items the reader lets integer section ``section`` of
    ``path`` hold, or None for ``delta``'s ``s``."""
    found = layout.sections(path)
    if section == "rows":
        return sum(map(len, layout.tokens(path, "even")))
    if section.endswith("_blk"):
        return len(found[section[:-4] + "_tok"][1]) // 2 + 1
    if section == "base":
        return 1
    if path.name == "delta":
        return None if section == "s" else len(layout.ints(*found["s"][1:]))
    return sum(layout.ints(*found["rows"][1:]))


def forge_ints(path, section: str, how: str) -> str:
    """Rewrite ``path`` with integer section ``section`` replaced by one that
    does not inflate, holds bytes past its deflate stream or inflates to
    other than a whole number of items, every CRC recomputed; a pattern of
    the message that names it."""
    _, body, itemsize = layout.sections(path)[section]
    most = bound(path, section)
    if how == "does_not_inflate":
        body = bytes(len(body))
        found = re.escape("does not inflate (Error -3 while decompressing data: ") + ".+" + re.escape(")")
    elif how == "stray_bytes":
        body += b"stray bytes"
        found = re.escape("holds 11 bytes past the end of its deflate stream")
    else:
        body, itemsize = layout.deflate(bytes(7)), 4
        found = re.escape("inflates to 7 bytes; expected a whole number of 4-byte items")
    if how != "ragged":
        found += re.escape(f"; expected one deflate stream of the byte planes of {itemsize}-byte items"
                           + ("" if most is None else f", at most {most} of them"))
    layout.rewrite(path, **{section: (body, itemsize)})
    at = layout.sections(path)[section][0]
    return re.escape(f"{path}: section {section} at byte offset {at}: ") + found


DAMAGED_INTS = ["does_not_inflate", "ragged"]


@pytest.mark.parametrize("how", DAMAGED_INTS)
@pytest.mark.parametrize("section", ["rows", "p", "o", "even_blk"])
def test_damaged_integer_section_fails_every_command(tmp_path, capsys, section, how):
    """The open inflates every integer section of ``base``, so a CRC-valid
    one that does not inflate, or inflates to other than a whole number of
    its items, fails the open and every command with exit code 3, naming
    the file, the section, its byte offset and what was expected."""
    path = tmp_path / "forged"
    create_store(StoreConfig(path), succession_triples())
    pattern = forge_ints(path / "base", section, how)
    with pytest.raises(StoreCorrupt) as exc:
        open_store(path)
    assert re.fullmatch(pattern, str(exc.value))
    for command in every_command(tmp_path):
        code, captured = run_cli(capsys, path, command)
        assert code == 3 and re.fullmatch(f"error: {pattern}\n", captured.err), command


WITH_DERIVED = [
    ["spath", "--with-derived", "--model", "ldm3n", "--source", f"<{EX}BillClinton>", "--target", f"<{EX}Office>"],
    ["validate", "--with-derived"],
    ["stats", "--with-derived"],
]


@pytest.mark.parametrize("how", DAMAGED_INTS)
@pytest.mark.parametrize("section", ["s", "p", "o"])
def test_damaged_delta_integer_section_fails_commands_with_derived(pristine, capsys, section, how):
    """Only the commands that query derived triples read ``delta``, so a
    CRC-valid triple column of it that does not inflate, or inflates to other
    than a whole number of items, fails those alone with exit code 3."""
    files, _, work = pristine
    damaged_copy(files, work, "", 0, 0)
    undamaged = [run_cli(capsys, work, command) for command in BASE_ONLY]
    pattern = forge_ints(work / "delta", section, how)
    with pytest.raises(StoreCorrupt) as exc:
        read_delta(open_store(work))
    assert re.fullmatch(pattern, str(exc.value))
    assert [run_cli(capsys, work, command) for command in BASE_ONLY] == undamaged
    for command in WITH_DERIVED:
        code, captured = run_cli(capsys, work, command)
        assert code == 3 and re.fullmatch(f"error: {pattern}\n", captured.err), command


@pytest.mark.parametrize("section", ["even_tok", "p", "rows"])
def test_stray_bytes_after_a_zlib_stream_are_rejected(tmp_path, capsys, section):
    """``zlib.decompress`` ignores whatever follows the end of a deflate
    stream, so the reader inflates with a check that nothing does: a
    CRC-valid store of one block a table whose even block, or an integer
    section, has bytes appended fails the open and every command with exit
    code 3."""
    path = tmp_path / "stray"
    create_store(StoreConfig(path), succession_triples())
    base = path / "base"
    if section == "even_tok":
        [block] = layout.blocks(base, "even")
        layout.rewrite_blocks(base, "even", [block + b"stray bytes"])
        message = (f"{base}: section even_tok: block 0 at byte offset {layout.sections(base)['even_tok'][0]}"
                   " holds 11 bytes past the end of its deflate stream; expected 1 to 64 non-empty tokens from token 0")
        pattern = re.escape(message)
    else:
        pattern = forge_ints(base, section, "stray_bytes")
    with pytest.raises(StoreCorrupt) as exc:
        open_store(path)
    assert re.fullmatch(pattern, str(exc.value))
    for command in every_command(tmp_path):
        code, captured = run_cli(capsys, path, command)
        assert code == 3 and re.fullmatch(f"error: {pattern}\n", captured.err), command


@functools.cache
def bomb() -> bytes:
    """48 MiB of zero bytes as one raw deflate stream, about 49 KB."""
    deflater = zlib.compressobj(9, zlib.DEFLATED, -15)
    chunk = bytes(1 << 20)
    return b"".join(deflater.compress(chunk) for _ in range(48)) + deflater.flush()


@pytest.mark.parametrize("section", ["rows", "p", "o", "even_blk"])
def test_an_inflate_stops_past_what_the_section_should_hold(tmp_path, capsys, section):
    """A CRC-valid integer section of about 49 KB that inflates to 48 MiB is
    refused one item past the count it should hold (one count per even id,
    the counts' sum, one start per two bytes of the table), before the rest
    is decoded: the open peaks under 10 MB, and every command exits 3."""
    path = tmp_path / "bomb"
    create_store(StoreConfig(path), succession_triples())
    base = path / "base"
    most = bound(base, section)
    layout.rewrite(base, **{section: (bomb(), 4)})
    at = layout.sections(base)[section][0]
    message = (f"{base}: section {section} at byte offset {at}: inflates to more than {(most + 1) * 4} bytes;"
               f" expected one deflate stream of the byte planes of 4-byte items, at most {most} of them")
    tracemalloc.start()
    try:
        with pytest.raises(StoreCorrupt) as exc:
            open_store(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == message
    assert peak < 10 * 2**20
    for command in every_command(tmp_path):
        code, captured = run_cli(capsys, path, command)
        assert (code, captured.err) == (3, f"error: {message}\n"), command


def test_tokens_of_the_other_kind_are_rejected_in_base(tmp_path, capsys):
    """Only literals start with ``"``, and a lookup picks its table by that
    byte, so a CRC-valid table holding a token of the other kind would hide
    it from every lookup. ``base``'s tables ascend, so the open checks the
    first and last token of each: a literal first in the even table, or a
    non-literal last in the odd one, fails every command with exit code 3."""
    literal = tmp_path / "literal"
    create_store(StoreConfig(literal), [Triple(ex("a"), ex("p"), ex("b"))])
    base = literal / "base"
    [tokens] = layout.tokens(base, "even")
    assert tokens[0] == f"<{EX}a>".encode()
    layout.rewrite_blocks(base, "even", [layout.block([b'"x"', *tokens[1:]])])
    at = layout.sections(base)["even_tok"][0]
    message = (f"{base}: section even_tok at byte offset {at}: token 0 starts with b'\"';"
               " expected a non-literal, which starts above b'\"'")
    with pytest.raises(StoreCorrupt) as exc:
        open_store(literal)
    assert str(exc.value) == message
    commands = [["spath", "--model", "ldm3n", "--source", '"x"', "--target", f"<{EX}b>"], ["stats"]]
    for command in commands:
        code, captured = run_cli(capsys, literal, command)
        assert (code, captured.err) == (3, f"error: {message}\n"), command

    iri = tmp_path / "iri"
    create_store(StoreConfig(iri), [Triple(ex("a"), ex("p"), Literal(v)) for v in ("v", "w")])
    base = iri / "base"
    layout.rewrite_blocks(base, "odd", [layout.block([b'"v"', f"<{EX}z>".encode()])])
    at = layout.sections(base)["odd_tok"][0]
    message = (f"{base}: section odd_tok at byte offset {at}: token 1 starts with b'<';"
               " expected a literal, which starts with b'\"'")
    with pytest.raises(StoreCorrupt) as exc:
        open_store(iri)
    assert str(exc.value) == message
    code, captured = run_cli(capsys, iri, ["stats"])
    assert (code, captured.err) == (3, f"error: {message}\n")


def test_tokens_of_the_other_kind_are_rejected_in_delta(tmp_path, capsys):
    """``read_delta`` reads every token the delta minted and checks the kind
    of each: a literal among the even tokens fails the commands that query
    derived triples with exit code 3; the others answer from ``base``."""
    path = tmp_path / "minted"
    store = create_store(StoreConfig(path), succession_triples())
    minted = [store.dictionary.issue(token, False) for token in (f"<{EX}m/0>", '"m"', f"<{EX}m/2>")]
    p = store.resolve(ex("hasSuccessor"))
    save_delta(store, [(m, p, minted[0]) for m in minted])
    delta = path / "delta"
    at = layout.sections(delta)["even_tok"][0]
    message = (f"{delta}: section even_tok at byte offset {at}: token 1 starts with b'\"';"
               " expected a non-literal, which starts above b'\"'")
    with pytest.raises(StoreCorrupt) as exc:
        read_delta(open_store(path))
    assert str(exc.value) == message
    spath = ["spath", "--model", "ldm3n", "--source", f"<{EX}BillClinton>", "--target", f"<{EX}GeorgeWBush>"]
    assert run_cli(capsys, path, spath)[0] == 0
    code, captured = run_cli(capsys, path, ["stats", "--with-derived"])
    assert (code, captured.err) == (3, f"error: {message}\n")
