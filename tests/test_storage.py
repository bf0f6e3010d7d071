import hashlib
import os
import random
import re
import shutil
import stat
import struct
import sys
import tempfile
import tracemalloc
import zlib
from array import array
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import layout
from ldm3n import (Literal, Model, StoreConfig, Triple, cli, create_store, format_term, forward_transform, open_store,
                   parse_term, storage)
from ldm3n.cli import main
from ldm3n.dictionary import MAX_ID, Dictionary
from ldm3n.errors import StoreCorrupt
from ldm3n.ntriples import parse_ntriples
from ldm3n.storage import load_triples, read_delta, save_delta
from ldm3n.traversal import shortest_path

from conftest import EX, ex
from oracles import labeled_arc_distances, random_triples, triple_node_distances


def ids_for(store, *names):
    return [store.resolve(ex(n)) for n in names]


def tokens(triples):
    """Triples as the token triples load_triples takes."""
    return [(format_term(t.subject), format_term(t.predicate), format_term(t.object)) for t in triples]


# Canonical tokens, two triples given twice. Subject a gives its pairs out
# of order, a literal holds escapes, a blank node is a subject, q is both a
# predicate and a subject, and <last>, only an object, and p, only a
# predicate, have empty rows.
PINNED_TRIPLES = [
    (f"<{EX}b>", f"<{EX}q>", f"<{EX}c>"),
    (f"<{EX}a>", f"<{EX}q>", f"<{EX}c>"),
    (f"<{EX}a>", f"<{EX}p>", '"say \\"hi\\"\\né"@en'),
    (f"<{EX}a>", f"<{EX}p>", f"<{EX}b>"),
    (f"<{EX}b>", f"<{EX}q>", f"<{EX}c>"),
    ("_:n1", f"<{EX}q>", '"1"^^<http://www.w3.org/2001/XMLSchema#integer>'),
    (f"<{EX}q>", f"<{EX}p>", "_:n1"),
    (f"<{EX}a>", f"<{EX}p>", f"<{EX}b>"),
    (f"<{EX}c>", f"<{EX}q>", f"<{EX}last>"),
]


def test_base_bytes_are_pinned(tmp_path):
    report = load_triples(StoreConfig(tmp_path), PINNED_TRIPLES)
    assert (report.triples, report.distinct_terms, report.duplicates, report.literals) == (7, 9, 2, 2)
    base = tmp_path / "base"
    _, rows, itemsize = layout.sections(base)["rows"]
    # Ids follow token order: a, b, c, last, p, q, _:n1.
    assert (layout.ints(rows, itemsize), itemsize) == ([3, 1, 1, 0, 0, 1, 1], 1)
    # Deflate's bytes may differ between zlib builds, so the digest is of what
    # the file decodes to: both token lists in id order, the row counts, p and o.
    layout.check_blocks(base)
    assert hashlib.sha256(layout.canonical(base)).hexdigest() == (
        "191d877e26967e4723393a2c59834af8e8c145daaa5a4d6fd9b7d1ec42ad3c9e"
    )


# Lines that are not canonical, so each goes through the parser's slow path:
# escapes to undo and redo, spacing, a comment, typed and tagged literals,
# and "\u0041", which is the plain "A" of the last line once decoded.
PARSED_LINES = (
    f'  <{EX}a>\t<{EX}p>   "say \\"hi\\" \\\\ back" .  \n'
    f'<{EX}a> <{EX}p> "\\u0041" .\n'
    f'<{EX}a> <{EX}p> "tab\\tctl\\u0001\\U000000e9"@fr-CA .\n'
    f'_:n1 <{EX}q> "\\u0033"^^<http://www.w3.org/2001/XMLSchema#integer> . # three\n'
    f'<{EX}a> <{EX}p> "A" .\n'
)


def test_parsed_base_bytes_are_pinned(tmp_path):
    tokens = list(parse_ntriples(PARSED_LINES))
    assert tokens == [
        (f"<{EX}a>", f"<{EX}p>", '"say \\"hi\\" \\\\ back"'),
        (f"<{EX}a>", f"<{EX}p>", '"A"'),
        (f"<{EX}a>", f"<{EX}p>", '"tab\\tctl\\u0001\u00e9"@fr-CA'),
        ("_:n1", f"<{EX}q>", '"3"^^<http://www.w3.org/2001/XMLSchema#integer>'),
        (f"<{EX}a>", f"<{EX}p>", '"A"'),
    ]
    report = load_triples(StoreConfig(tmp_path), tokens)
    assert (report.triples, report.distinct_terms, report.duplicates, report.literals) == (4, 8, 1, 4)
    layout.check_blocks(tmp_path / "base")
    assert hashlib.sha256(layout.canonical(tmp_path / "base")).hexdigest() == (
        "a876e9516af7cad804dec582ecbcd2e2ed5d8f42ffb04d25ac6ebba560c3a9d0"
    )


def test_succession_load_report_and_keys(tmp_path, succession_triples):
    report = load_triples(StoreConfig(tmp_path / "s"), tokens(succession_triples))
    assert (report.triples, report.distinct_terms, report.duplicates) == (6, 10, 0)
    store = open_store(tmp_path / "s")
    assert store.triple_count() == 6
    assert len(store.dictionary) == 10
    bc, h1, h2 = ids_for(store, "BillClinton", "holdsPos#1", "holdsPos#2")
    assert len(store.neighbors(bc)) == 2
    assert len(store.neighbors(h1)) == 2
    assert len(store.neighbors(h2)) == 2


def test_empty_input_empty_store(make_store):
    store = make_store([])
    assert store.triple_count() == 0
    assert len(store.dictionary) == 0
    assert list(store.iter_triples()) == []


def test_duplicate_triples_collapse(tmp_path, succession_triples):
    doubled = succession_triples + [succession_triples[0]]
    report = load_triples(StoreConfig(tmp_path / "dup"), tokens(doubled))
    assert report.triples == 6
    assert report.duplicates == 1
    assert open_store(tmp_path / "dup").triple_count() == 6


def test_neighbors_of_succession_nodes(succession_store):
    store = succession_store
    h1, spo, hp, hs, gwb = ids_for(
        store, "holdsPos#1", "singletonPropOf", "holdsPos", "hasSuccessor", "GeorgeWBush"
    )
    assert sorted(store.neighbors(h1)) == sorted([(spo, hp), (hs, gwb)])
    assert store.neighbors(gwb) == []  # never a subject


def test_literals_are_sinks(make_store):
    store = make_store([Triple(ex("s"), ex("p"), Literal("v"))])
    lit = store.resolve(Literal("v"))
    assert lit % 2 == 1
    assert store.neighbors(lit) == []


def test_unknown_key_has_no_pairs(succession_store):
    assert succession_store.neighbors(9999) == []


def test_pair_count_matches_brute_recount(make_store):
    rng = random.Random(7)
    triples = random_triples(rng, 120)
    store = make_store(triples)
    recount = {}
    for s, _p, _o in store.iter_triples():
        recount[s] = recount.get(s, 0) + 1
    for key in list(store.dictionary.ids()):
        assert len(store.neighbors(key)) == recount.get(key, 0)
    assert sum(recount.values()) == store.triple_count()


def test_neighbor_order_is_sorted(make_store):
    rng = random.Random(11)
    store = make_store(random_triples(rng, 150))
    for key in store.dictionary.ids():
        pairs = store.neighbors(key)
        assert pairs == sorted(pairs)
    triples = list(store.iter_triples())
    assert triples == sorted(triples)
    assert triples == list(open_store(store.config.path).iter_triples())


def test_durability_round_trip(tmp_path, succession_triples):
    report = load_triples(StoreConfig(tmp_path / "dur"), tokens(succession_triples))
    reopened = open_store(tmp_path / "dur")
    assert reopened.triple_count() == report.triples
    assert (len(reopened.dictionary), len(reopened.dictionary.id_ranges()[1])) == (report.distinct_terms, report.literals)
    # Ids are issued in token order, as a fresh dictionary fed the same
    # terms in that order issues them.
    dictionary = Dictionary()
    for token in sorted({format_term(x) for t in succession_triples for x in (t.subject, t.predicate, t.object)}):
        dictionary.encode(parse_term(token))
    encoded = sorted({tuple(dictionary.encode(x) for x in (t.subject, t.predicate, t.object))
                      for t in succession_triples})
    assert len(dictionary) == report.distinct_terms
    assert list(reopened.iter_triples()) == encoded
    for key in dictionary.ids():
        assert reopened.neighbors(key) == [(p, o) for s, p, o in encoded if s == key]
    for term_id in dictionary.ids():
        term = dictionary.decode(term_id)
        assert reopened.dictionary.decode(term_id) == term
        assert reopened.dictionary.lookup(term) == term_id
        assert reopened.token(term_id) == format_term(term)
    assert list(reopened.dictionary.ids()) == sorted(dictionary.ids())


@pytest.mark.parametrize("role", ["subject", "predicate"])
def test_literal_subject_or_predicate_is_refused_before_the_store_is_touched(tmp_path, succession_triples, role):
    path = tmp_path / "kept"
    store = create_store(StoreConfig(path), succession_triples)
    bc, h1, gwb = ids_for(store, "BillClinton", "holdsPos#1", "GeorgeWBush")
    save_delta(store, [(bc, h1, gwb)])
    before = {p.name: p.read_bytes() for p in path.iterdir()}
    bad = {"subject": ('"a"', f"<{EX}p>", f"<{EX}o>"), "predicate": (f"<{EX}s>", '"a"', f"<{EX}o>")}[role]
    for target in (path, tmp_path / "fresh"):
        with pytest.raises(ValueError, match=f'^triple 2: a literal cannot be a {role}: "a"$'):
            load_triples(StoreConfig(target), tokens(succession_triples[:1]) + [bad])
    assert not (tmp_path / "fresh").exists()
    assert {p.name: p.read_bytes() for p in path.iterdir()} == before
    reopened = open_store(path)
    assert reopened.triple_count() == len(succession_triples)
    assert read_delta(reopened) == [(bc, h1, gwb)]


@pytest.mark.parametrize("column", [
    array("I", [0, 1, 2**32 - 2, 2**32 - 1]),
    array("Q", [0, 1, 2**32 - 1, 2**32, MAX_ID - 1, MAX_ID]),
    memoryview(array("Q", [0, 1, 2**32 - 1, 2**32, MAX_ID]).tobytes()).cast("Q"),
    array("Q"),
    array("I", range(2**32 - 40_000, 2**32)),  # more than one chunk
    array("Q", range(2**32 - 20_000, 2**32 + 20_000)),
], ids=["I", "Q", "memoryview", "empty", "I-chunks", "Q-chunks"])
def test_odd_reads_the_parity_of_each_id(column):
    assert list(storage._odd(column)) == [x & 1 for x in column]


# Ids at and around the byte boundaries of the key fields, up to MAX_ID.
key_id = st.one_of(st.integers(1, 9), st.integers(1, MAX_ID),
                   st.sampled_from([2**k + d for k in (8, 16, 32, 63) for d in (-1, 0, 1)] + [MAX_ID]))


@given(st.lists(st.tuples(key_id, key_id, key_id)), st.data())
def test_sorted_keys_match_a_set_of_triples(triples, data):
    # Duplicates, drawn from the triples, in any order.
    duplicates = data.draw(st.lists(st.sampled_from(triples))) if triples else []
    triples = data.draw(st.permutations(triples + duplicates))
    top = max(map(max, triples), default=0)
    width = top.bit_length()
    # Each id is renumbered as the key is packed: here, by a permutation of
    # the ids drawn.
    ids = sorted({x for t in triples for x in t})
    new_id = dict(zip(ids, data.draw(st.permutations(ids))))
    columns = tuple(array("Q", column) for column in zip(*triples)) or (array("Q"), array("Q"), array("Q"))
    keys = storage._sorted_keys(columns, width, new_id.__getitem__)
    mask = (1 << width) - 1
    renumbered = [tuple(map(new_id.__getitem__, t)) for t in triples]
    assert [(k >> 2 * width, k >> width & mask, k & mask) for k in keys] == sorted(set(renumbered))
    assert columns == (array("Q"), array("Q"), array("Q"))
    # Bounded by the largest id, a column takes the itemsize it takes unbounded.
    for column in zip(*triples):
        assert storage._int_section(column, top).tobytes() == storage._int_section(column).tobytes()


resource = st.sampled_from([f"<{EX}a>", f"<{EX}b>", "_:n"])


@given(st.lists(st.tuples(resource, st.sampled_from([f"<{EX}a>", f"<{EX}p>"]),
                          st.one_of(resource, st.sampled_from(['"a"', '"é"@en'])))))
def test_load_report_counts_match_a_set_of_triples(triples):
    with tempfile.TemporaryDirectory() as tmp:
        report = load_triples(StoreConfig(tmp), triples)
        store = open_store(tmp)
        stored = sorted(tuple(map(store.token, triple)) for triple in store.iter_triples())
    distinct = set(triples)
    terms = {t for triple in triples for t in triple}
    assert (report.triples, report.duplicates) == (len(distinct), len(triples) - len(distinct))
    assert (report.distinct_terms, report.literals) == (len(terms), sum(t[0] == '"' for t in terms))
    assert stored == sorted(distinct)


# Tokens whose order mixes code points of one, two, three and four UTF-8
# bytes; every literal starts with '"', which sorts before '<' and '_'.
token_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=3)
iri = st.text("aZé/0\u20ac\U0001d11e", max_size=3).map(lambda s: f"<{EX}{s}>")
blank = st.text("aZ0", min_size=1, max_size=3).map(lambda s: "_:b" + s)
literal = st.one_of(token_text.map(lambda s: format_term(Literal(s))),
                    token_text.map(lambda s: format_term(Literal(s, language="en"))),
                    token_text.map(lambda s: format_term(Literal(s, datatype=EX + "dt"))))


@given(st.lists(st.tuples(st.one_of(iri, blank), iri, st.one_of(iri, blank, literal)), max_size=10))
def test_ids_are_issued_in_token_order(triples):
    """Each table of ``base`` strictly ascends, every stored token looks up
    to its own id, and the store answers both models as the BFS oracles do."""
    with tempfile.TemporaryDirectory() as tmp:
        load_triples(StoreConfig(tmp), triples)
        layout.check_blocks(Path(tmp) / "base")
        store = open_store(tmp)
        evens, odds = store.dictionary.id_ranges()
        for ids in (evens, odds):
            stored = [store.token(i).encode("utf-8") for i in ids]
            assert all(a < b for a, b in zip(stored, stored[1:]))
        ids = list(store.dictionary.ids())
        assert [store.resolve(store.decode(i)) for i in ids] == ids
        encoded = list(store.iter_triples())
        assert sorted(tuple(map(store.token, t)) for t in encoded) == sorted(set(triples))
        g = forward_transform([Triple(*map(parse_term, t)) for t in triples], dictionary=store.dictionary)
        for source in evens:
            node, arc = triple_node_distances(g, source), labeled_arc_distances(encoded, source)
            for target in ids:
                got = shortest_path(store, source, target, Model.LDM3N)
                assert (got.distance if got.found else None) == node.get(target)
                got = shortest_path(store, source, target, Model.NLAN)
                assert (got.distance if got.found else None) == arc.get(target)


def test_columns_widen_when_an_id_needs_more_bytes(tmp_path, monkeypatch):
    """The id columns take 4 bytes an id while the input streams; an id
    that does not fit widens them to 8 and the triple is read again. Here
    the columns start at one byte, so the 128th even id widens them in the
    middle of a triple, and the store is the one a load without widening
    writes."""
    # Each object is new, so the object id is the one that does not fit,
    # after the triple's subject and predicate are appended.
    triples = [(f"<{EX}s/{i % 5}>", f"<{EX}p>", f"<{EX}o/{i}>") for i in range(300)] + PINNED_TRIPLES
    load_triples(StoreConfig(tmp_path / "wide"), triples)
    monkeypatch.setattr(storage, "_NARROW", "B")
    report = load_triples(StoreConfig(tmp_path / "narrow"), triples)
    assert (report.triples, report.duplicates) == (307, 2)
    assert (tmp_path / "narrow" / "base").read_bytes() == (tmp_path / "wide" / "base").read_bytes()


def test_load_memory_only_shrinks_after_the_input_ends(tmp_path):
    """Once the last triple is pulled, the load holds its token dict and
    three id columns; packing, sorting and writing them may add little to
    that."""
    held = []

    def noise():
        # Shaped like the benchmark's chain corpus: bipartite noise whose
        # subjects and objects are nearly all distinct.
        rng = random.Random(5)
        for _ in range(30_000):
            yield f"<{EX}s/{rng.randrange(10**6)}>", f"<{EX}p/{rng.randrange(16)}>", f"<{EX}o/{rng.randrange(10**6)}>"
        held.append(tracemalloc.get_traced_memory()[0])

    tracemalloc.start()
    try:
        report = load_triples(StoreConfig(tmp_path / "mem"), noise())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.triples > 29_000
    assert peak <= 1.25 * held[0], (peak, held[0])


def test_store_files_exist_with_magic(tmp_path, succession_triples):
    path = tmp_path / "files"
    create_store(StoreConfig(path), succession_triples)
    assert sorted(p.name for p in path.iterdir()) == ["base"]
    data = (path / "base").read_bytes()
    magic, version, table_crc, count = layout.HEADER.unpack_from(data)
    assert (magic, version, count) == (b"LDM3N\0", 9, 7)
    assert table_crc == zlib.crc32(data[12 : 16 + 24 * count])
    offset = 16 + 24 * count
    for i in range(count):
        at, length, itemsize, crc = layout.ENTRY.unpack_from(data, 16 + 24 * i)
        assert at == offset and crc == zlib.crc32(data[at : at + length])
        assert itemsize in (1, 4)
        offset += length
    assert offset == len(data)


def test_corrupt_magic_detected(tmp_path, succession_triples):
    path = tmp_path / "bad"
    create_store(StoreConfig(path), succession_triples)
    (path / "base").write_bytes(b"XXXXXX" + (path / "base").read_bytes()[6:])
    with pytest.raises(StoreCorrupt):
        open_store(path)


def test_missing_file_detected(tmp_path, succession_triples, capsys):
    path = tmp_path / "missing"
    create_store(StoreConfig(path), succession_triples)
    (path / "base").unlink()
    message = f"{path / 'base'}: missing store file"
    with pytest.raises(StoreCorrupt, match=re.escape(message)):
        open_store(path)
    assert main(["stats", "--store", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_crc_mismatch_names_file_offset_and_crcs(tmp_path, succession_triples):
    path = tmp_path / "crc"
    create_store(StoreConfig(path), succession_triples)
    base = path / "base"
    at, body, _ = layout.sections(base)["p"]
    data = bytearray(base.read_bytes())
    data[at] ^= 0x01  # the first byte of section p
    base.write_bytes(bytes(data))
    with pytest.raises(StoreCorrupt) as exc:
        open_store(path)
    header_crc = layout.ENTRY.unpack_from(data, 16 + 24 * layout.NAMES["base"].index("p"))[3]
    assert str(exc.value) == (
        f"{base}: CRC mismatch in section p, {len(body)} bytes at byte offset {at}:"
        f" header says {header_crc:#010x}, section has {zlib.crc32(bytes(data[at : at + len(body)])):#010x}"
    )


def test_delta_with_unissued_id_is_rejected(tmp_path, succession_triples):
    path = tmp_path / "delta"
    store = create_store(StoreConfig(path), succession_triples)
    bc, h1 = ids_for(store, "BillClinton", "holdsPos#1")
    save_delta(store, [(bc, h1, h1)])
    assert read_delta(open_store(path)) == [(bc, h1, h1)]

    # save_delta writes a delta whose CRCs hold, whatever ids it carries.
    save_delta(store, [(bc, h1, h1), (h1, bc, 424242)])
    with pytest.raises(StoreCorrupt) as exc:
        read_delta(open_store(path))
    # the second object id, item 1 of section o
    at = layout.sections(path / "delta")["o"][0]
    assert str(exc.value) == f"{path / 'delta'}: section o at byte offset {at}: id 424242 was never issued, at item 1"


def test_base_with_unissued_id_is_rejected(tmp_path, capsys):
    path = tmp_path / "forged"
    store = create_store(StoreConfig(path), [Triple(ex("a"), ex("p"), ex("b"))])
    a, p = ids_for(store, "a", "p")
    base = path / "base"
    at = layout.sections(base)["o"][0]
    layout.rewrite(base, o=(layout.pack([424242]), 4))
    with pytest.raises(StoreCorrupt) as exc:
        open_store(path)
    assert str(exc.value) == f"{base}: section o at byte offset {at}: id 424242 was never issued, at item 0"
    code = main(["spath", "--store", str(path), "--model", "nlan", "--source", f"<{EX}a>", "--target", f"<{EX}b>"])
    assert code == 3 and "id 424242 was never issued" in capsys.readouterr().err


def test_literal_predicate_in_base_is_rejected(tmp_path):
    # A base subject cannot be a literal: only even ids own a row.
    path = tmp_path / "forged"
    store = create_store(StoreConfig(path), [Triple(ex("a"), ex("p"), Literal("v"))])
    v = store.resolve(Literal("v"))
    base = path / "base"
    at = layout.sections(base)["p"][0]
    layout.rewrite(base, p=(layout.pack([v]), 4))
    with pytest.raises(StoreCorrupt) as exc:
        open_store(path)
    assert str(exc.value) == f"{base}: section p at byte offset {at}: id {v} was never issued as a non-literal, at item 0"


def test_delta_may_hold_literals_anywhere(tmp_path):
    """Entailment derives triples with a literal subject (RANGE over a
    literal-valued property) or predicate (RDFS7 under a literal)."""
    path = tmp_path / "lit"
    store = create_store(StoreConfig(path), [Triple(ex("a"), ex("p"), Literal("v"))])
    a, p, v = ids_for(store, "a", "p") + [store.resolve(Literal("v"))]
    save_delta(store, [(v, p, a), (a, v, a)])
    reopened = open_store(path)
    assert read_delta(reopened) == [(v, p, a), (a, v, a)]
    assert list(reopened.iter_triples()) == [(a, p, v)]


def test_delta_for_another_base_is_rejected(tmp_path, succession_triples):
    path = tmp_path / "s"
    store = create_store(StoreConfig(path), succession_triples)
    bc, h1 = ids_for(store, "BillClinton", "holdsPos#1")
    save_delta(store, [(bc, h1, h1)])
    delta = (path / "delta").read_bytes()
    create_store(StoreConfig(path), succession_triples[:5])
    (path / "delta").write_bytes(delta)
    with pytest.raises(StoreCorrupt, match="written for another base"):
        read_delta(open_store(path))


def test_columns_take_eight_bytes_only_when_a_value_needs_them(tmp_path, succession_triples):
    assert [storage._int_section(v).itemsize for v in ([], [2**32 - 1], [2**32])] == [4, 4, 8]
    path = tmp_path / "wide"
    store = create_store(StoreConfig(path), succession_triples)
    triples = list(store.iter_triples())
    base = path / "base"
    wide = {name: (layout.pack(layout.ints(body, itemsize), 8), 8)
            for name, (_, body, itemsize) in layout.sections(base).items() if not name.endswith("_tok")}
    layout.rewrite(base, **wide)
    reopened = open_store(path)
    assert list(reopened.iter_triples()) == triples
    assert reopened.resolve(ex("GeorgeWBush")) == store.resolve(ex("GeorgeWBush"))
    assert [reopened.neighbors(n) for n in range(22)] == [store.neighbors(n) for n in range(22)]


def test_section_writer_bytes(tmp_path):
    # Integer columns are little-endian on disk (the itemsize rule is
    # checked above).
    assert bytes(storage._int_section([1, 2**32 - 1])) == struct.pack("<2I", 1, 2**32 - 1)
    assert bytes(storage._int_section(iter([1, 2**32]))) == struct.pack("<2Q", 1, 2**32)
    # Row counts take one byte each while every count is below 256.
    assert [storage._count_section(v).itemsize for v in ([], [255], [256], [2**32])] == [1, 1, 4, 8]
    assert bytes(storage._count_section([3, 0, 255])) == bytes([3, 0, 255])
    # A term table of three blocks is written block by block, with the block
    # starts and the CRC of the whole section; the token list is emptied as
    # its blocks are made.
    tokens = [f"<{EX}t{i}>" if i % 3 else f'"é{i}"' for i in range(2 * storage.BLOCK + 5)]
    table = list(tokens)
    sections = storage._term_sections(table)
    assert table == []
    assert len(sections[1]) == 3
    path = tmp_path / "table"
    storage._write_file(path, sections)
    f = storage._read_file(path, ("even_blk", "even_tok"))  # checks every CRC
    at, length, itemsize = f.sections["even_tok"]
    body = f.data[at : at + length]
    assert (body, itemsize) == (b"".join(sections[1]), 1)
    assert f.ints("even_blk").tolist() == [0, *accumulate(map(len, sections[1]))] and length == len(body)
    assert struct.unpack_from("<I", f.data, layout.HEADER.size + layout.ENTRY.size + 20) == (zlib.crc32(body),)
    # Each block is its first token, a newline, and its other tokens'
    # front-coded body, whatever bytes deflate made of it; a block of one
    # token is that token and the newline.
    n = storage.BLOCK
    for b, block in enumerate(sections[1]):
        head, rest = block.split(b"\n", 1)
        assert head == tokens[b * n].encode("utf-8")
        assert layout.inflate(rest) == layout.body([t.encode("utf-8") for t in tokens[b * n : b * n + n]])
    a, b = f"<{EX}a>".encode(), f"<{EX}b>".encode()
    [block] = storage._term_sections([a.decode(), b.decode()])[1]
    assert block.split(b"\n", 1) == [a, layout.deflate(bytes([1, len(a) - 2]) + b[-2:])]
    assert storage._term_sections([a.decode()])[1] == [a + b"\n"]


EDGE_VALUES = [0, 255, 256, 2**32 - 1, 2**32]


def integer_columns(itemsize: int):
    """(itemsize, values): values that fit ``itemsize`` bytes, edge values
    among them."""
    top = 256**itemsize - 1
    value = st.sampled_from([v for v in EDGE_VALUES if v <= top]) | st.integers(0, top)
    return st.tuples(st.just(itemsize), st.lists(value, max_size=300))


@given(st.sampled_from([1, 4, 8]).flatmap(integer_columns))
@example((1, []))
@example((4, [2**32 - 1]))
@example((8, [2**32, 0, 255, 256] * 50))
def test_integer_sections_round_trip(column):
    """Integer sections of each itemsize and any length read back as they
    were written, and what is stored is the items' little-endian byte planes
    deflated as one zlib stream, as tests/layout.py decodes them."""
    itemsize, values = column
    items = array(storage._CODES[itemsize], values)
    if sys.byteorder == "big":  # the writer takes little-endian items
        items.byteswap()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows"
        storage._write_file(path, [items])
        f = storage._read_file(path, ("rows",))  # rows takes each itemsize
    at, length, stored_itemsize = f.sections["rows"]
    assert stored_itemsize == itemsize
    assert f.ints("rows").tolist() == values
    assert layout.ints(f.data[at : at + length], itemsize) == values


@pytest.mark.parametrize("little", [True, False])
def test_decoded_columns_are_read_only(tmp_path, monkeypatch, succession_triples, little):
    """An open store is shared by query workers, so the columns it decodes
    refuse writes, on either byte order."""
    monkeypatch.setattr(storage, "_LITTLE", little)
    path = tmp_path / "ro"
    store = create_store(StoreConfig(path), succession_triples)
    f = storage._read_file(path / "base", storage._BASE_SECTIONS)
    for column in (store.p, store.o, f.ints("rows"), f.ints("even_blk"), f.ints("odd_blk")):
        with pytest.raises(TypeError):
            column[0] = 0


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 129])
def test_term_tables_round_trip(tmp_path, n):
    """Tables of up to three blocks, their last one full, of one token or
    neither, written by the section writer in token order, read back token by
    token in any order, and every token resolves to its id."""
    even = sorted(f"<{EX}\u00e9/{i}/\U0001d11e>" for i in range(n))
    odd = sorted(f'"\u00df {i} \u20ac"@de' for i in range(n))
    ids = {t: 2 * i + 2 for i, t in enumerate(even)} | {t: 2 * i + 1 for i, t in enumerate(odd)}
    storage._write_file(tmp_path / "base", [
        *storage._term_sections(list(even)), *storage._term_sections(list(odd)),
        storage._count_section([0] * n), storage._int_section([]), storage._int_section([]),
    ])
    layout.check_blocks(tmp_path / "base")
    f = storage._read_file(tmp_path / "base", storage._BASE_SECTIONS)
    for parity, tokens in (("even", even), ("odd", odd)):
        table = f.table(parity)
        assert len(table) == n
        assert [table.raw(i) for i in reversed(range(n))] == [t.encode("utf-8") for t in reversed(tokens)]
    store = open_store(tmp_path)
    assert len(store.dictionary) == 2 * n
    for token, term_id in ids.items():
        assert (store.token(term_id), store.resolve(parse_term(token))) == (token, term_id)


# "<http://x/" is 10 bytes, so tokens that part right after it share a count
# of 10, a newline's byte; a stem of 150 "é" shares 300 bytes, past the 255
# that one byte holds; "é" and "ê" share their first UTF-8 byte.
FRONT_CODED_STEMS = ["", "é", "a" * 250, "é" * 150]


@st.composite
def front_coded_tables(draw) -> list[str]:
    """1, 63, 64, 65 or 129 sorted IRI tokens of a common stem."""
    n = draw(st.sampled_from([1, 63, 64, 65, 129]))
    stem = draw(st.sampled_from(FRONT_CODED_STEMS))
    parts = draw(st.lists(st.text(alphabet="abéê\U0001d11e", max_size=4), min_size=n, max_size=n))
    return sorted(f"<http://x/{stem}{part}/{i}>" for i, part in enumerate(parts))


@given(front_coded_tables())
@example([f"<http://x/{c}>" for c in "ab"])
@example([f"<http://x/{'é' * 150}{c}>" for c in "ab"])
@example(["<http://x/é>", "<http://x/ê>"])
def test_front_coded_tables_round_trip(even):
    """Tables written by ``_term_sections`` open and read back token by
    token, every token resolving to its id, with the shared counts a plain
    common-prefix loop gives, capped at 255: counts of 10, prefixes past 255
    bytes and prefixes that end inside a UTF-8 character among them. The odd
    table holds the same text as literals."""
    odd = sorted(f'"{token[1:-1]}"' for token in even)
    n = len(even)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        storage._write_file(base, [
            *storage._term_sections(list(even)), *storage._term_sections(list(odd)),
            storage._count_section([0] * n), storage._int_section([]), storage._int_section([]),
        ])
        for parity, tokens in (("even", even), ("odd", odd)):
            encoded = [t.encode("utf-8") for t in tokens]
            blocks = layout.blocks(base, parity)
            for b, block in enumerate(blocks):
                rest = block.split(b"\n", 1)[1]
                coded = encoded[b * storage.BLOCK : (b + 1) * storage.BLOCK]
                assert (layout.inflate(rest) if rest else b"\0") == layout.body(coded)
        store = open_store(Path(tmp))
        for i, (e, o) in enumerate(zip(even, odd)):
            assert (store.token(2 * i + 2), store.token(2 * i + 1)) == (e, o)
            assert (store.resolve(parse_term(e)), store.resolve(parse_term(o))) == (2 * i + 2, 2 * i + 1)


def decoded_blocks(store) -> int:
    """The blocks of the store's term tables that have been decoded."""
    return sum(block is not None for table in store.dictionary._tables for block in table._blocks)


def test_cold_resolve_decodes_at_most_one_block(tmp_path):
    """Lookups bisect the heads, which the open reads in the clear, and
    then decode one block: a resolve on a freshly opened store decodes at
    most one block beyond the last block of each table, which the open
    decodes."""
    path = tmp_path / "cold"
    triples = [Triple(ex(f"s/{i}"), ex("p"), Literal(f"v{i}")) for i in range(300)]
    create_store(StoreConfig(path), triples)
    assert [len(layout.blocks(path / "base", parity)) for parity in ("even", "odd")] == [5, 5]
    stored = [term for t in triples for term in (t.subject, t.object)] + [ex("p")]
    for term in stored + [ex("s/a"), Literal("v")]:
        store = open_store(path)
        assert decoded_blocks(store) == 2
        found = store.dictionary.lookup(term)
        assert decoded_blocks(store) <= 3
        assert (found is not None and store.decode(found) == term) is (term in stored)


def chain(n: int) -> list[Triple]:
    """n triples s/0 -> s/1 -> ... -> s/n: n + 2 even tokens and no literal."""
    return [Triple(ex(f"s/{i}"), ex("p"), ex(f"s/{i + 1}")) for i in range(n)]


def fan(n: int, subjects: int) -> list[Triple]:
    """n triples spreading n literals over ``subjects`` subjects."""
    return [Triple(ex(f"s/{i % subjects}"), ex("p"), Literal(f"v{i}")) for i in range(n)]


# name -> (triples, even tokens, odd tokens, itemsize of rows)
EDGES = {
    "no_literals_64_even": (chain(62), 64, 0, 1),
    "no_literals_65_even": (chain(63), 65, 0, 1),
    "64_odd": (fan(64, 8), 9, 64, 1),
    "65_odd": (fan(65, 8), 9, 65, 1),
    # s/0 holds the fan and the chain's first triple.
    "hub_of_255": (fan(254, 1) + chain(2), 4, 254, 1),
    "hub_of_300": (fan(299, 1) + chain(2), 4, 299, 4),
}


@pytest.mark.parametrize("name", sorted(EDGES))
def test_stores_at_the_edges_answer_as_the_oracles(tmp_path, name):
    """Tables that end on a block boundary or one past it, an empty odd
    table, and row counts that need one byte or, past 255, four: each store
    holds its triples and answers both models as the BFS oracles do."""
    triples, evens, odds, itemsize = EDGES[name]
    store = create_store(StoreConfig(tmp_path / name), triples)
    assert [len(ids) for ids in store.dictionary.id_ranges()] == [evens, odds]
    assert layout.sections(tmp_path / name / "base")["rows"][2] == itemsize
    encoded = list(store.iter_triples())
    assert len(encoded) == len(triples) and {Triple(*map(store.decode, t)) for t in encoded} == set(triples)
    g = forward_transform(triples, dictionary=store.dictionary)
    ids = list(store.dictionary.ids())
    for source in ids[1::2]:  # the even ids
        node, arc = triple_node_distances(g, source), labeled_arc_distances(encoded, source)
        for target in ids:
            got = shortest_path(store, source, target, Model.LDM3N)
            assert (got.distance if got.found else None) == node.get(target)
            got = shortest_path(store, source, target, Model.NLAN)
            assert (got.distance if got.found else None) == arc.get(target)


def test_big_endian_path_round_trips(tmp_path, monkeypatch, succession_triples):
    """The byte-swapping reader and writer, run on this host as if it were big-endian."""
    store = create_store(StoreConfig(tmp_path / "le"), succession_triples)
    monkeypatch.setattr(storage, "_LITTLE", False)
    swapped = create_store(StoreConfig(tmp_path / "be"), succession_triples)
    bc, h1 = ids_for(swapped, "BillClinton", "holdsPos#1")
    save_delta(swapped, [(bc, h1, h1)])
    swapped = open_store(tmp_path / "be")
    assert list(swapped.iter_triples()) == list(store.iter_triples())
    assert [swapped.neighbors(n) for n in range(22)] == [store.neighbors(n) for n in range(22)]
    assert read_delta(swapped) == [(bc, h1, h1)]
    _, body, itemsize = layout.sections(tmp_path / "be" / "base")["o"]
    assert layout.ints(body, itemsize) != list(store.o)  # the columns were swapped on disk


def assert_refused(path, version: int, capsys) -> None:
    message = f"unsupported format version {version} (this build reads version 9; reload the store from N-Triples)"
    with pytest.raises(StoreCorrupt, match=re.escape(message)):
        open_store(path)
    assert main(["stats", "--store", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {path / 'base'}: {message}\n"


@pytest.mark.parametrize("version", [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 65535])
def test_stamped_version_is_refused(tmp_path, succession_triples, capsys, version):
    """A v9 ``base`` with another version in its header, as an older build's
    store or a newer one's would carry. The version sits outside the
    header's CRC and is read before any section's, so no other check can
    refuse the file first."""
    path = tmp_path / "s"
    create_store(StoreConfig(path), succession_triples)
    base = path / "base"
    data = bytearray(base.read_bytes())
    struct.pack_into("<H", data, 6, version)
    base.write_bytes(data)
    assert_refused(path, version, capsys)


def test_malformed_token_fails_on_decode(tmp_path, succession_triples, capsys):
    path = tmp_path / "tok"
    store = create_store(StoreConfig(path), succession_triples)
    h1 = store.resolve(ex("holdsPos#1"))
    base = path / "base"
    [block] = layout.tokens(base, "even")
    # Same length and the same sort position; the IRI loses its closing '>'.
    good = f"<{EX}holdsPos#1>".encode()
    layout.rewrite_blocks(base, "even", [layout.block([good[:-1] + b" " if t == good else t for t in block])])
    reopened = open_store(path)
    with pytest.raises(StoreCorrupt) as exc:
        reopened.decode(h1)
    assert str(exc.value).startswith(f"{base}: section even_tok: bad token of id {h1}: unterminated IRI")
    code = main(["spath", "--store", str(path), "--model", "ldm3n",
                 "--source", f"<{EX}BillClinton>", "--target", f"<{EX}GeorgeWBush>"])
    err = capsys.readouterr().err
    assert code == 3 and f"bad token of id {h1}" in err and "Traceback" not in err
    # bench renders path nodes as stored tokens, which are parsed first.
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f"{EX}BillClinton,{EX}GeorgeWBush\n", encoding="utf-8")
    code = main(["bench", "--store", str(path), "--mode", "spath", "--model", "ldm3n", "--pairs", str(pairs)])
    err = capsys.readouterr().err
    assert code == 3 and f"bad token of id {h1}" in err and "Traceback" not in err


def test_open_and_spath_parse_only_what_they_need(tmp_path, succession_triples, monkeypatch, capsys):
    path = tmp_path / "lazy"
    create_store(StoreConfig(path), succession_triples + [Triple(ex("BillClinton"), ex("name"), Literal("Bill"))])
    calls = []

    def counted(token):
        calls.append(token)
        return parse_term(token)

    monkeypatch.setattr(storage, "parse_term", counted)
    monkeypatch.setattr(cli, "parse_term", counted)
    open_store(path)
    assert len(calls) == 2  # the last token of each term table
    calls.clear()
    assert main(["spath", "--store", str(path), "--model", "ldm3n",
                 "--source", f"<{EX}BillClinton>", "--target", f"<{EX}GeorgeWBush>"]) == 0
    path_terms = re.findall(r"<[^>]*>", capsys.readouterr().out.strip().split(",")[-1])
    assert len(path_terms) == 4
    assert len(calls) == 2 + 2 + len(path_terms)
    # The store opens first, then the two arguments, then the path's terms.
    assert calls[2:4] == [f"<{EX}BillClinton>", f"<{EX}GeorgeWBush>"]
    assert calls[4:] == path_terms


def crash_at(monkeypatch, step: int) -> None:
    """Make the ``step``-th write, fsync, rename or unlink done by
    ldm3n.storage raise OSError; a failing write first writes half of its
    bytes."""
    done = 0

    def tick() -> None:
        nonlocal done
        done += 1
        if done == step:
            raise OSError(f"injected failure at step {step}")

    class File:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[: len(data) // 2])
            tick()
            self.f.write(data[len(data) // 2 :])

        def flush(self):
            self.f.flush()

        def fileno(self):
            return self.f.fileno()

    real_open, real_fsync, real_replace, real_unlink = open, os.fsync, os.replace, os.unlink
    monkeypatch.setattr(storage, "open", lambda *a, **k: File(real_open(*a, **k)), raising=False)
    monkeypatch.setattr(os, "fsync", lambda *a: (tick(), real_fsync(*a))[1])
    monkeypatch.setattr(os, "replace", lambda *a: (tick(), real_replace(*a))[1])
    monkeypatch.setattr(os, "unlink", lambda *a: (tick(), real_unlink(*a))[1])


def contents(path):
    """The stored and derived triples as tokens, or "corrupt"."""
    try:
        store = open_store(path)
        delta = read_delta(store)
    except StoreCorrupt:
        return "corrupt"
    tokens = lambda triples: sorted(tuple(store.token(x) for x in t) for t in triples)
    return tokens(store.iter_triples()), tokens(delta)


@pytest.mark.parametrize("write", ["load", "save_delta", "empty_delta"])
def test_failed_write_never_leaves_mixed_contents(tmp_path, monkeypatch, succession_triples, write):
    pristine = tmp_path / "pristine"
    store = create_store(StoreConfig(pristine), succession_triples)
    bc, h1, gwb = ids_for(store, "BillClinton", "holdsPos#1", "GeorgeWBush")
    save_delta(store, [(bc, h1, gwb)])
    old = contents(pristine)
    base_only = (old[0], [])

    def run(path):
        if write == "load":
            load_triples(StoreConfig(path), tokens(succession_triples[:4] + [Triple(ex("x"), ex("p"), Literal("y"))]))
            return
        reopened = open_store(path)
        minted = reopened.dictionary.encode(ex("minted"))
        save_delta(reopened, [] if write == "empty_delta" else [(bc, h1, minted), (h1, bc, gwb)])

    new_path = tmp_path / "new"
    shutil.copytree(pristine, new_path)
    run(new_path)
    new = contents(new_path)
    assert new not in (old, "corrupt")
    allowed = {"load": [old, base_only, new], "save_delta": [old, new], "empty_delta": [old, new]}[write]

    outcomes = []
    for step in range(1, 100):
        path = tmp_path / f"crash{step}"
        shutil.copytree(pristine, path)
        with monkeypatch.context() as m:
            crash_at(m, step)
            try:
                run(path)
            except OSError as exc:
                assert str(exc) == f"injected failure at step {step}"
            else:
                break
        outcomes.append(contents(path))
        assert outcomes[-1] in allowed, step
        assert not [p.name for p in path.iterdir() if p.name.endswith(".tmp")]
    assert contents(path) == new
    assert outcomes and outcomes[0] == old


def test_writes_are_synced_before_and_after_each_rename(tmp_path, monkeypatch, succession_triples):
    """Each file's bytes are on disk before its rename, and each rename and
    unlink is on disk before the write returns."""
    events = []
    real_fsync, real_replace, real_unlink = os.fsync, os.replace, os.unlink

    def fsync(fd):
        events.append("fsync " + ("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", lambda a, b: (events.append(f"rename {os.path.basename(b)}"), real_replace(a, b)))
    monkeypatch.setattr(os, "unlink", lambda a: (events.append(f"unlink {os.path.basename(a)}"), real_unlink(a)))
    path = tmp_path / "durable"
    store = create_store(StoreConfig(path), succession_triples)
    assert events == ["unlink delta", "fsync file", "rename base", "fsync dir"]  # no delta to unlink yet
    bc, h1 = ids_for(store, "BillClinton", "holdsPos#1")
    events.clear()
    save_delta(store, [(bc, h1, h1)])
    assert events == ["fsync file", "rename delta", "fsync dir"]
    events.clear()
    load_triples(StoreConfig(path), tokens(succession_triples))
    assert events == ["unlink delta", "fsync dir", "fsync file", "rename base", "fsync dir"]
    save_delta(store, [(bc, h1, h1)])
    events.clear()
    save_delta(store, [])
    assert events == ["unlink delta", "fsync dir"]
