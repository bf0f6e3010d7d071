import csv
import io
import operator
import tracemalloc

import pytest

from ldm3n import Literal, Model, Triple, dijkstra_ldm3n, dijkstra_nlan, forward_transform, shortest_path
from ldm3n.errors import Ldm3nError, UnknownNode, UnknownProperty
from ldm3n.harness import (
    GENERIC_POSITION_PROPERTY,
    ChainSpec,
    PairGroup,
    chain_members,
    generate_pairs,
    generate_successor_chain,
    read_pairs_csv,
    run_batch,
)
from ldm3n.semantics import RDF_SINGLETON_PROPERTY_OF, Vocabulary

from conftest import EX, ex
from oracles import labeled_arc_distances, triple_node_distances

FIXTURE_VOCAB = Vocabulary().with_singleton(property_of=EX + "singletonPropOf")


def chain_store(make_store, spec: ChainSpec):
    return make_store(generate_successor_chain(spec))


# -- pair generation --------------------------------------------------------


def test_three_members_give_six_ordered_pairs(make_store):
    triples = []
    for i in range(3):
        sp = ex(f"sp{i}")
        triples.append(Triple(ex(f"pol{i}"), sp, ex("Position")))
        triples.append(Triple(sp, RDF_SINGLETON_PROPERTY_OF, ex("holdsPosition")))
    store = make_store(triples)
    groups = generate_pairs(store, store.resolve(ex("holdsPosition")))
    (group,) = groups
    assert len(group.members) == 3
    assert len(group.pairs) == 6
    m0, m1, m2 = group.members
    assert m0 < m1 < m2
    assert list(group.pairs) == [(m0, m1), (m0, m2), (m1, m0), (m1, m2), (m2, m0), (m2, m1)]


def test_pair_view_is_lazy_and_linear_in_members():
    tracemalloc.start()
    try:
        group = PairGroup.build(7, range(2, 6002, 2))
        pairs = group.pairs
        count = len(pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(group.members) == 3000
    assert count == 8_997_000
    assert not isinstance(pairs, list)
    assert peak < 1_000_000
    # Two passes yield the same sequence, of exactly len() pairs.
    assert sum(map(operator.eq, pairs, pairs)) == 8_997_000


def test_singleton_groups_are_dropped(succession_store):
    store = succession_store
    groups = generate_pairs(store, store.resolve(ex("holdsPos")), FIXTURE_VOCAB)
    assert groups == []  # each position is held by one politician only


def test_unknown_generic_property(succession_store):
    with pytest.raises(UnknownProperty):
        generate_pairs(succession_store, 424242, FIXTURE_VOCAB)


def test_reference_group_sizes_give_reference_pair_counts(make_store):
    spec = ChainSpec(groups=3, members=[22, 34, 51], seed=5)
    store = chain_store(make_store, spec)
    groups = generate_pairs(store, store.resolve(GENERIC_POSITION_PROPERTY))
    assert sorted(len(g.pairs) for g in groups) == [462, 1122, 2550]


# -- successor chains --------------------------------------------------------


def test_chain_generation_is_deterministic():
    spec = ChainSpec(groups=2, members=4, noise_triples=10, seed=42)
    assert generate_successor_chain(spec) == generate_successor_chain(spec)


def test_chain_distance_law_k6(make_store):
    spec = ChainSpec(groups=1, members=6, seed=1)
    store = chain_store(make_store, spec)
    members = [store.resolve(m) for m in chain_members(spec, 0)]
    assert dijkstra_ldm3n(store, members[0], members[5]).distance == 15
    for i in range(6):
        for j in range(6):
            result = dijkstra_ldm3n(store, members[i], members[j])
            if i < j:
                assert result.distance == 3 * (j - i)
            elif i > j:
                assert not result.found


def test_two_member_chain_is_the_basic_motif(make_store):
    spec = ChainSpec(groups=1, members=2, seed=2)
    store = chain_store(make_store, spec)
    m1, m2 = (store.resolve(m) for m in chain_members(spec, 0))
    assert dijkstra_ldm3n(store, m1, m2).distance == 3


def test_chains_unreachable_on_labeled_arc_model(make_store):
    spec = ChainSpec(groups=1, members=5, seed=3)
    store = chain_store(make_store, spec)
    members = [store.resolve(m) for m in chain_members(spec, 0)]
    for i in range(5):
        for j in range(5):
            if i != j:
                assert not dijkstra_nlan(store, members[i], members[j]).found


def test_noise_triples_do_not_perturb_chain_distances(make_store):
    clean = ChainSpec(groups=1, members=5, seed=4)
    noisy = ChainSpec(groups=1, members=5, noise_triples=200, seed=4)
    store_clean = chain_store(make_store, clean)
    store_noisy = chain_store(make_store, noisy)
    for spec, store in ((clean, store_clean), (noisy, store_noisy)):
        members = [store.resolve(m) for m in chain_members(spec, 0)]
        assert dijkstra_ldm3n(store, members[0], members[4]).distance == 12


# -- batches -----------------------------------------------------------------


def test_batch_reachability_counts_on_chain(make_store):
    spec = ChainSpec(groups=1, members=6, seed=6)
    store = chain_store(make_store, spec)
    (group,) = generate_pairs(store, store.resolve(GENERIC_POSITION_PROPERTY))
    assert len(group.pairs) == 30
    report = run_batch(store, group.pairs, Model.LDM3N, "reach")
    assert report.reachable_count == 15  # exactly the ascending pairs
    nlan_report = run_batch(store, group.pairs, Model.NLAN, "reach")
    assert nlan_report.reachable_count == 0


def test_worker_count_invariance(make_store):
    spec = ChainSpec(groups=2, members=5, seed=8)
    store = chain_store(make_store, spec)
    pairs = [p for g in generate_pairs(store, store.resolve(GENERIC_POSITION_PROPERTY)) for p in g.pairs]
    solo = run_batch(store, pairs, Model.LDM3N, "spath", workers=1)
    pooled = run_batch(store, pairs, Model.LDM3N, "spath", workers=5)
    key = lambda r: (r.source, r.target, r.status, r.distance, tuple(r.path or ()), r.nodes_explored)
    assert [key(r) for r in solo.records] == [key(r) for r in pooled.records]
    assert solo.reachable_count == pooled.reachable_count
    assert list(solo.per_distance) == list(pooled.per_distance)
    assert [c for c, _ in solo.per_distance.values()] == [c for c, _ in pooled.per_distance.values()]


def test_report_aggregates_recompute_from_records(make_store):
    spec = ChainSpec(groups=1, members=5, seed=9)
    store = chain_store(make_store, spec)
    (group,) = generate_pairs(store, store.resolve(GENERIC_POSITION_PROPERTY))
    report = run_batch(store, group.pairs, Model.LDM3N, "spath")
    assert sum(c for c, _ in report.per_distance.values()) == report.reachable_count
    assert report.pair_count == len(group.pairs)
    for distance, (count, _mean) in report.per_distance.items():
        assert count == sum(
            1 for r in report.records if r.status == "found" and r.distance == distance
        )


def test_batch_records_per_query_errors(make_store):
    store = make_store([Triple(ex("a"), ex("p"), ex("b"))])
    a = store.resolve(ex("a"))
    report = run_batch(store, [(a, a), (a, 424242)], Model.LDM3N, "reach")
    statuses = [r.status for r in report.records]
    assert statuses.count("error") == 1
    assert report.reachable_count == 1


def test_report_csv_shape(make_store):
    spec = ChainSpec(groups=1, members=3, seed=10)
    store = chain_store(make_store, spec)
    (group,) = generate_pairs(store, store.resolve(GENERIC_POSITION_PROPERTY))
    report = run_batch(store, group.pairs, Model.LDM3N, "spath")
    out = io.StringIO()
    report.write_csv(out, store.dictionary)
    lines = out.getvalue().splitlines()
    assert lines[0] == "source,target,model,status,distance,nodes_explored,elapsed_ms,path"
    assert lines[-1].startswith("# summary: pairs=6 reachable=3")
    assert any(line.startswith("# distance 3:") for line in lines)


# -- one search per source against one search per pair ----------------------


def batch_corpus(make_store):
    """A noisy chain corpus plus a literal label on every member, and the
    pairs to ask of it: every group pair, noise edges, self-pairs,
    duplicates, literal endpoints and never-issued ids."""
    spec = ChainSpec(groups=2, members=5, noise_triples=80, seed=31)
    triples = generate_successor_chain(spec)
    members = [m for g in range(spec.groups) for m in chain_members(spec, g)]
    triples += [Triple(m, ex("label"), Literal(f"m{i}")) for i, m in enumerate(members)]
    store = make_store(triples)
    ids = [store.resolve(m) for m in members]
    lits = [store.resolve(Literal(f"m{i}")) for i in range(3)]
    pairs = [p for g in generate_pairs(store, store.resolve(GENERIC_POSITION_PROPERTY)) for p in g.pairs]
    noise = [(s, o) for s, _, o in store.iter_triples() if s not in ids][:20]
    pairs += noise + [(noise[0][0], o) for _, o in noise]
    pairs += [(ids[0], ids[0]), (ids[0], ids[3]), (ids[0], ids[3]), (lits[0], lits[0])]
    pairs += [(ids[1], lits[1]), (ids[1], lits[2]), (lits[1], ids[1])]
    pairs += [(0, ids[2]), (ids[2], 0), (424242, ids[2]), (ids[2], 424242), (0, 0)]
    return store, triples, pairs


def per_pair_rows(store, pairs, model, max_dist=None):
    """The reference: one ``shortest_path`` call per pair, in a plain loop."""
    rows = []
    for source, target in pairs:
        try:
            r = shortest_path(store, source, target, model, max_dist)
        except Ldm3nError as exc:
            rows.append((source, target, "error", None, None, 0, str(exc)))
            continue
        rows.append((source, target, r.status.value, r.distance, r.resource_path, r.nodes_explored, None))
    return sorted(rows, key=lambda row: row[:2])  # stable, like the batch's sort


def batch_rows(report):
    return [
        (r.source, r.target, r.status, r.distance, r.path, r.nodes_explored, r.error)
        for r in report.records
    ]


@pytest.mark.parametrize("model", [Model.LDM3N, Model.NLAN])
@pytest.mark.parametrize("max_dist,workers", [(None, 1), (None, 3), (6, 1), (2, 1)])
def test_per_source_batch_equals_per_pair_search(make_store, model, max_dist, workers):
    store, _, pairs = batch_corpus(make_store)
    report = run_batch(store, pairs, model, "spath", workers=workers, max_dist=max_dist)
    rows = batch_rows(report)
    assert rows == per_pair_rows(store, pairs, model, max_dist)
    assert len(rows) == len(pairs)
    statuses = {row[2] for row in rows}
    assert statuses >= {"found", "error"}
    if max_dist == 6 and model is Model.LDM3N:
        assert "unreachable" in statuses  # the bound cuts the longer chain pairs
    assert [row[6] for row in rows if row[:2] == (0, 0)] == ["source id 0 was never issued"]


@pytest.mark.parametrize("model", [Model.LDM3N, Model.NLAN])
def test_per_source_batch_distances_match_oracles(make_store, model):
    store, triples, pairs = batch_corpus(make_store)
    report = run_batch(store, pairs, model, "spath")
    if model is Model.LDM3N:
        g = forward_transform(triples, dictionary=store.dictionary)
        oracle = lambda source: triple_node_distances(g, source)
    else:
        encoded = list(store.iter_triples())
        oracle = lambda source: labeled_arc_distances(encoded, source)
    checked = 0
    for r in report.records:
        if r.status == "error":
            assert not (store.is_issued(r.source) and store.is_issued(r.target))
            continue
        assert r.distance == oracle(r.source).get(r.target)
        checked += r.status == "found"
    assert checked > len(pairs) // 10


def test_reach_batch_equals_spath_without_paths(make_store):
    store, _, pairs = batch_corpus(make_store)
    spath = run_batch(store, pairs, Model.LDM3N, "spath")
    reach = run_batch(store, pairs, Model.LDM3N, "reach")
    assert all(r.path is None for r in reach.records)
    assert any(r.path for r in spath.records)
    assert [row[:4] + row[5:] for row in batch_rows(reach)] == [
        row[:4] + row[5:] for row in batch_rows(spath)
    ]
    out = io.StringIO()
    reach.write_csv(out, store.dictionary)
    rows = list(csv.reader(line for line in out.getvalue().splitlines()[1:] if not line.startswith("#")))
    assert len(rows) == len(pairs)
    assert all(row[7] == "" for row in rows if row[3] != "error")


def test_read_pairs_csv_accepts_bare_and_token_forms(make_store):
    store = make_store([Triple(ex("a"), ex("p"), ex("b"))])
    a, b = store.resolve(ex("a")), store.resolve(ex("b"))
    text = f"source_iri,target_iri\n{EX}a,{EX}b\n<{EX}b>,<{EX}a>\n"
    pairs = read_pairs_csv(io.StringIO(text), store)
    assert pairs == [(a, b), (b, a)]
    with pytest.raises(UnknownNode, match=f"pairs line 4: term not in store: <{EX}missing>"):
        read_pairs_csv(io.StringIO(text + f"{EX}a,{EX}missing\n"), store)
