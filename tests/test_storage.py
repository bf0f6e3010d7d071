import random
import struct
import zlib

import pytest

from ldm3n import Literal, StoreConfig, Triple, create_store, open_store
from ldm3n.errors import StoreCorrupt
from ldm3n.storage import load_triples

from conftest import ex
from oracles import random_triples


def ids_for(store, *names):
    return [store.resolve(ex(n)) for n in names]


def test_succession_load_report_and_keys(succession_store):
    store = succession_store
    assert store.report.triples == 6
    assert store.report.distinct_terms == 10
    assert store.report.duplicates == 0
    bc, h1, h2 = ids_for(store, "BillClinton", "holdsPos#1", "holdsPos#2")
    assert store.pair_count(bc) == 2
    assert store.pair_count(h1) == 2
    assert store.pair_count(h2) == 2


def test_empty_input_empty_store(make_store):
    store = make_store([])
    assert store.report.triples == 0
    assert store.report.distinct_terms == 0
    assert list(store.iter_triples()) == []


def test_duplicate_triples_collapse(tmp_path, succession_triples):
    doubled = succession_triples + [succession_triples[0]]
    store = create_store(StoreConfig(tmp_path / "dup"), doubled)
    assert store.report.triples == 6
    assert store.report.duplicates == 1


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
    assert store.pair_count(lit) == 0


def test_unknown_key_has_no_pairs(succession_store):
    assert succession_store.pair_count(9999) == 0
    assert succession_store.neighbors(9999) == []


def test_pair_count_matches_brute_recount(make_store):
    rng = random.Random(7)
    triples = random_triples(rng, 120)
    store = make_store(triples)
    recount = {}
    for s, _p, _o in store.iter_triples():
        recount[s] = recount.get(s, 0) + 1
    for key in list(store.dictionary.ids()):
        assert store.pair_count(key) == recount.get(key, 0)
        assert store.pair_count(key) == len(store.neighbors(key))
    assert sum(recount.values()) == store.report.triples


def test_neighbor_order_is_sorted(make_store):
    rng = random.Random(11)
    store = make_store(random_triples(rng, 150))
    for key in store.adjacency:
        pairs = store.neighbors(key)
        assert pairs == sorted(pairs)
    triples = list(store.iter_triples())
    assert triples == sorted(triples)
    assert triples == list(open_store(store.config.path).iter_triples())


def test_durability_round_trip(tmp_path, succession_triples):
    dictionary, adjacency, report = load_triples(StoreConfig(tmp_path / "dur"), succession_triples)
    reopened = open_store(tmp_path / "dur")
    assert reopened.report == report
    assert reopened.adjacency == adjacency
    for key, pairs in adjacency.items():
        assert reopened.neighbors(key) == pairs
    for term_id, term in dictionary.items():
        assert reopened.dictionary.decode(term_id) == term
        assert reopened.dictionary.lookup(term) == term_id


def test_store_files_exist_with_magic(tmp_path, succession_triples):
    path = tmp_path / "files"
    create_store(StoreConfig(path), succession_triples)
    assert sorted(p.name for p in path.iterdir()) == ["adj", "dict_rev", "meta"]
    for p in path.iterdir():
        data = p.read_bytes()
        magic, version, crc = struct.unpack_from("<6sHI", data)
        assert (magic, version) == (b"LDM3N\0", 2), p.name
        assert crc == zlib.crc32(data[12:]), p.name


def test_corrupt_magic_detected(tmp_path, succession_triples):
    path = tmp_path / "bad"
    create_store(StoreConfig(path), succession_triples)
    (path / "adj").write_bytes(b"XXXXXX" + (path / "adj").read_bytes()[6:])
    with pytest.raises(StoreCorrupt):
        open_store(path)


def test_missing_file_detected(tmp_path, succession_triples):
    path = tmp_path / "missing"
    create_store(StoreConfig(path), succession_triples)
    (path / "adj").unlink()
    with pytest.raises(StoreCorrupt):
        open_store(path)


def test_crc_mismatch_names_file_offset_and_crcs(tmp_path, succession_triples):
    path = tmp_path / "crc"
    create_store(StoreConfig(path), succession_triples)
    adj = path / "adj"
    data = bytearray(adj.read_bytes())
    data[20] ^= 0x01  # low byte of the first subject id
    adj.write_bytes(bytes(data))
    with pytest.raises(StoreCorrupt) as exc:
        open_store(path)
    body = len(data) - 12
    expected = f"{zlib.crc32(bytes(data[12:])):#010x}"
    message = str(exc.value)
    assert str(adj) in message
    assert f"{body}-byte body at byte offset 12" in message
    assert f"header says {struct.unpack_from('<I', data, 8)[0]:#010x}" in message
    assert f"body has {expected}" in message


def write_delta(path, triples):
    body = struct.pack("<Q", len(triples)) + b"".join(struct.pack("<3Q", *t) for t in triples)
    (path / "delta").write_bytes(struct.pack("<6sHI", b"LDM3N\0", 2, zlib.crc32(body)) + body)


def test_delta_with_unissued_id_is_rejected(tmp_path, succession_triples):
    path = tmp_path / "delta"
    store = create_store(StoreConfig(path), succession_triples)
    bc, h1 = ids_for(store, "BillClinton", "holdsPos#1")
    write_delta(path, [(bc, h1, h1)])
    assert open_store(path).delta == [(bc, h1, h1)]

    write_delta(path, [(bc, h1, h1), (h1, bc, 424242)])
    with pytest.raises(StoreCorrupt) as exc:
        open_store(path)
    # the sixth id, after the 12-byte header and the 8-byte count
    assert str(exc.value) == (
        f"{path / 'delta'}: id 424242 was never issued, at byte offset {12 + 8 + 5 * 8}"
    )
