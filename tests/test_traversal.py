import random

import pytest

from ldm3n import (
    Literal,
    Model,
    PathStatus,
    Triple,
    dijkstra_ldm3n,
    dijkstra_nlan,
    forward_transform,
    shortest_path,
    validate_resource_path,
    validate_triple_path,
)
from ldm3n.errors import UnknownNode, UnknownTriple

from conftest import ex
from oracles import labeled_arc_distances, random_triples, triple_node_distances


def ids_for(store, *names):
    return [store.resolve(ex(n)) for n in names]


def decoded(store, ids):
    return [store.decode(i) for i in ids]


# -- golden results on the succession fixture ---------------------------


def test_triple_node_path_clinton_to_bush(succession_store):
    store = succession_store
    bc, gwb = ids_for(store, "BillClinton", "GeorgeWBush")
    result = dijkstra_ldm3n(store, bc, gwb)
    assert result.status is PathStatus.FOUND
    assert result.distance == 3
    assert decoded(store, result.resource_path) == [
        ex("BillClinton"), ex("holdsPos#1"), ex("hasSuccessor"), ex("GeorgeWBush"),
    ]
    h1, hs, us = ids_for(store, "holdsPos#1", "hasSuccessor", "U.S.President")
    assert result.triple_path == [(bc, h1, us), (h1, hs, gwb)]


def test_labeled_arc_model_cannot_reach_bush(succession_store):
    store = succession_store
    bc, gwb = ids_for(store, "BillClinton", "GeorgeWBush")
    result = dijkstra_nlan(store, bc, gwb)
    assert result.status is PathStatus.UNREACHABLE
    assert result.distance is None


def test_source_equals_target_is_distance_zero(succession_store):
    store = succession_store
    (bc,) = ids_for(store, "BillClinton")
    result = dijkstra_ldm3n(store, bc, bc)
    assert result.found and result.distance == 0
    assert result.resource_path == [bc]
    assert result.triple_path == []


def test_triple_node_path_clinton_to_white(succession_store):
    # Brute-force enumeration over the fixture: the only walk is through
    # holdsPos#2 and hasSuccessor, three edges.
    store = succession_store
    bc, fw = ids_for(store, "BillClinton", "FrankWhite")
    result = dijkstra_ldm3n(store, bc, fw)
    assert result.distance == 3
    assert decoded(store, result.resource_path) == [
        ex("BillClinton"), ex("holdsPos#2"), ex("hasSuccessor"), ex("FrankWhite"),
    ]


def test_labeled_arc_direct_hop(succession_store):
    store = succession_store
    bc, us = ids_for(store, "BillClinton", "U.S.President")
    assert dijkstra_nlan(store, bc, us).distance == 1


def test_labeled_arc_from_singleton_property(succession_store):
    store = succession_store
    h1, gwb = ids_for(store, "holdsPos#1", "GeorgeWBush")
    assert dijkstra_nlan(store, h1, gwb).distance == 1


def test_reachability_three_ways(succession_store):
    store = succession_store
    bc, gwb = ids_for(store, "BillClinton", "GeorgeWBush")
    assert shortest_path(store, bc, gwb, Model.LDM3N).found is True
    assert shortest_path(store, bc, gwb, Model.NLAN).found is False
    result = shortest_path(store, gwb, bc, Model.LDM3N)  # no outgoing edges
    assert result.found is False and result.nodes_explored >= 1


def test_unknown_endpoints_raise(succession_store):
    store = succession_store
    (bc,) = ids_for(store, "BillClinton")
    with pytest.raises(UnknownNode):
        dijkstra_ldm3n(store, 9998, bc)
    with pytest.raises(UnknownNode):
        dijkstra_ldm3n(store, bc, 9998)


def test_literal_target_is_reachable_sink(make_store):
    store = make_store([Triple(ex("s"), ex("p"), Literal("leaf"))])
    s = store.resolve(ex("s"))
    leaf = store.resolve(Literal("leaf"))
    assert dijkstra_ldm3n(store, s, leaf).distance == 2
    assert dijkstra_nlan(store, s, leaf).distance == 1


def test_max_dist_cutoff(succession_store):
    store = succession_store
    bc, gwb = ids_for(store, "BillClinton", "GeorgeWBush")
    assert dijkstra_ldm3n(store, bc, gwb, max_dist=2).status is PathStatus.UNREACHABLE
    assert dijkstra_ldm3n(store, bc, gwb, max_dist=3).distance == 3


# -- path validators -----------------------------------------------------


@pytest.fixture
def succession_graph(succession_store, succession_triples):
    return forward_transform(succession_triples, dictionary=succession_store.dictionary)


def test_validate_resource_path_golden(succession_store, succession_graph):
    nodes = ids_for(succession_store, "BillClinton", "holdsPos#1", "hasSuccessor", "GeorgeWBush")
    assert validate_resource_path(succession_graph, nodes) is True


def test_validate_resource_path_single_triple(succession_store, succession_graph):
    nodes = ids_for(succession_store, "BillClinton", "holdsPos#1", "U.S.President")
    assert validate_resource_path(succession_graph, nodes) is True


def test_validate_resource_path_rejects_mismatched_pair(succession_store, succession_graph):
    # No edge joins holdsPos#1 to FrankWhite; the only way there would be
    # the terminal edge of another triple, which the pairing rule forbids.
    nodes = ids_for(succession_store, "BillClinton", "holdsPos#1", "FrankWhite")
    assert validate_resource_path(succession_graph, nodes) is False


def test_validate_resource_path_rejects_terminal_opening(succession_store, succession_graph):
    # hasSuccessor -> GeorgeWBush exists only as a terminal edge, so a path
    # cannot open with it.
    nodes = ids_for(succession_store, "hasSuccessor", "GeorgeWBush")
    assert validate_resource_path(succession_graph, nodes) is False


def test_validate_resource_path_degenerate(succession_store, succession_graph):
    assert validate_resource_path(succession_graph, []) is False
    assert validate_resource_path(succession_graph, ids_for(succession_store, "BillClinton")) is True
    assert validate_resource_path(succession_graph, [424242]) is False


def test_validate_triple_path_cases(succession_store):
    store = succession_store
    bc, h1, us, hs, gwb, h2, fw = ids_for(
        store, "BillClinton", "holdsPos#1", "U.S.President", "hasSuccessor",
        "GeorgeWBush", "holdsPos#2", "FrankWhite",
    )
    t1 = (bc, h1, us)
    t3 = (h1, hs, gwb)
    t6 = (h2, hs, fw)
    assert validate_triple_path(store, [t1, t3]) is True
    assert validate_triple_path(store, [t1]) is True
    assert validate_triple_path(store, [t1, t6]) is False
    with pytest.raises(UnknownTriple):
        validate_triple_path(store, [(bc, bc, bc)])


# -- reconstruction correctness around shared predicates -----------------


def test_shared_predicate_does_not_corrupt_reconstruction(make_store):
    # P carries two triples whose subjects sit at different distances from
    # the source; the best entry at P comes through A, but the only walk to
    # Y runs through B. Reconstruction must keep whole triples together.
    triples = [
        Triple(ex("S"), ex("A"), ex("x1")),
        Triple(ex("A"), ex("P"), ex("X")),
        Triple(ex("S"), ex("p2"), ex("B")),
        Triple(ex("B"), ex("P"), ex("Y")),
    ]
    store = make_store(triples)
    s, a, p2, b, p, x, y = ids_for(store, "S", "A", "p2", "B", "P", "X", "Y")
    g = forward_transform(triples, dictionary=store.dictionary)

    result = dijkstra_ldm3n(store, s, y)
    assert result.distance == 4
    assert result.resource_path == [s, p2, b, p, y]
    assert validate_resource_path(g, result.resource_path) is True
    assert validate_triple_path(store, result.triple_path) is True

    result_x = dijkstra_ldm3n(store, s, x)
    assert result_x.distance == 3
    assert result_x.resource_path == [s, a, p, x]
    assert validate_resource_path(g, result_x.resource_path) is True


def test_predicate_that_is_also_its_triples_object_is_entered_as_predicate(make_store):
    # In (a, p, p) the +1 predicate step beats the +2 object step of the same
    # triple, so p is entered as a predicate and appears once in the path.
    store = make_store([Triple(ex("a"), ex("p"), ex("p")), Triple(ex("p"), ex("q"), ex("b"))])
    a, p, q, b = ids_for(store, "a", "p", "q", "b")

    result = dijkstra_ldm3n(store, a, b)
    assert result.distance == 3
    assert result.resource_path == [a, p, q, b]
    assert result.triple_path == [(a, p, p), (p, q, b)]

    nlan = dijkstra_nlan(store, a, p)
    assert nlan.distance == 1
    assert nlan.resource_path == [a, p]


# -- oracle equivalence and structural properties ------------------------


def test_dijkstra_matches_oracles_on_random_stores(make_store):
    rng = random.Random(42)
    for round_no in range(10):
        triples = random_triples(rng, rng.randint(20, 120))
        store = make_store(triples)
        g = forward_transform(triples, dictionary=store.dictionary)
        encoded = list(store.iter_triples())
        non_literals = [i for i in store.dictionary.ids() if i % 2 == 0]
        all_ids = list(store.dictionary.ids())
        for _ in range(30):
            source = rng.choice(non_literals)
            target = rng.choice(all_ids)
            expected_tn = triple_node_distances(g, source).get(target)
            got = dijkstra_ldm3n(store, source, target)
            assert (got.distance if got.found else None) == expected_tn
            expected_la = labeled_arc_distances(encoded, source).get(target)
            got_la = dijkstra_nlan(store, source, target)
            assert (got_la.distance if got_la.found else None) == expected_la


def test_found_paths_always_validate(make_store):
    rng = random.Random(5)
    triples = random_triples(rng, 100)
    store = make_store(triples)
    g = forward_transform(triples, dictionary=store.dictionary)
    ids = [i for i in store.dictionary.ids() if i % 2 == 0]
    for _ in range(40):
        source, target = rng.choice(ids), rng.choice(list(store.dictionary.ids()))
        result = dijkstra_ldm3n(store, source, target)
        if result.found:
            assert result.distance == len(result.resource_path) - 1
            assert validate_resource_path(g, result.resource_path)
            assert validate_triple_path(store, result.triple_path)
        nlan = dijkstra_nlan(store, source, target)
        if nlan.found:
            assert nlan.distance == len(nlan.resource_path) - 1
            assert validate_triple_path(store, nlan.triple_path)


def test_labeled_arc_reachability_is_contained(make_store):
    rng = random.Random(19)
    triples = random_triples(rng, 100)
    store = make_store(triples)
    ids = [i for i in store.dictionary.ids() if i % 2 == 0]
    for _ in range(40):
        source, target = rng.choice(ids), rng.choice(ids)
        nlan = dijkstra_nlan(store, source, target)
        if nlan.found:
            tn = dijkstra_ldm3n(store, source, target)
            assert tn.found
            assert tn.distance <= 2 * nlan.distance


def test_identical_queries_are_deterministic(make_store):
    rng = random.Random(29)
    triples = random_triples(rng, 80)
    store = make_store(triples)
    ids = [i for i in store.dictionary.ids() if i % 2 == 0]
    for _ in range(10):
        source, target = rng.choice(ids), rng.choice(ids)
        a = dijkstra_ldm3n(store, source, target)
        b = dijkstra_ldm3n(store, source, target)
        assert a.status == b.status
        assert a.distance == b.distance
        assert a.resource_path == b.resource_path
        assert a.nodes_explored == b.nodes_explored
