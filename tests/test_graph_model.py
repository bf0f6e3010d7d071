import random

import pytest

from ldm3n import Triple, backward_transform, forward_transform
from ldm3n.errors import MalformedGraph

from conftest import ex, succession_triples
from oracles import random_triples


def test_succession_graph_has_ten_nodes_twelve_edges():
    g = forward_transform(succession_triples())
    assert g.node_count() == 10
    assert g.edge_count() == 12


def test_empty_set_empty_graph():
    g = forward_transform([])
    assert g.node_count() == 0
    assert g.edge_count() == 0
    assert backward_transform(g) == set()


def test_single_triple_structure():
    g = forward_transform([Triple(ex("s"), ex("p"), ex("o"))])
    assert g.node_count() == 3
    assert g.edge_count() == 2
    assert len(g.tau) == 1
    (e_init, e_term), = g.tau.items()
    ns, np_ = g.epsilon[e_init]
    np2, no = g.epsilon[e_term]
    assert np_ == np2  # the pair meets at the predicate node
    assert set(g.epsilon) == {e_init, e_term}


def test_tau_is_a_bijection_with_disjoint_domain_and_range():
    g = forward_transform(succession_triples())
    initials = set(g.tau.keys())
    terminals = set(g.tau.values())
    assert len(terminals) == len(initials)
    assert initials.isdisjoint(terminals)
    assert initials | terminals == set(g.epsilon)


def test_shared_terms_map_to_single_nodes():
    # holdsPos#1 is the predicate of one triple and the subject of two more;
    # a correct transform gives it exactly one node.
    triples = succession_triples()
    g = forward_transform(triples)
    distinct_terms = {x for t in triples for x in (t.subject, t.predicate, t.object)}
    assert g.node_count() == len(distinct_terms)


def test_every_node_participates_in_an_edge():
    rng = random.Random(3)
    g = forward_transform(random_triples(rng, 60))
    touched = set()
    for a, b in g.epsilon.values():
        touched.update((a, b))
    assert touched == g.nodes


def test_backward_recovers_succession_triples():
    triples = succession_triples()
    assert backward_transform(forward_transform(triples)) == set(triples)


def test_round_trip_on_random_sets():
    rng = random.Random(17)
    for _ in range(10):
        triples = random_triples(rng, 50)
        g = forward_transform(triples)
        assert backward_transform(g) == set(triples)
        assert g.edge_count() == 2 * len(triples)


def test_duplicates_collapse_in_forward_transform():
    t = Triple(ex("s"), ex("p"), ex("o"))
    g = forward_transform([t, t, t])
    assert g.edge_count() == 2


def test_size_law_with_known_count():
    rng = random.Random(23)
    for n in (1, 7, 40):
        g = forward_transform(random_triples(rng, n))
        assert g.edge_count() == 2 * n


def test_malformed_graph_detected():
    g = forward_transform([Triple(ex("s"), ex("p"), ex("o")), Triple(ex("a"), ex("q"), ex("b"))])
    # Re-point one terminal edge so its pair no longer meets at the predicate.
    g.epsilon[1] = g.epsilon[3]
    with pytest.raises(MalformedGraph):
        backward_transform(g)


def test_edge_ids_are_deterministic():
    triples = succession_triples()
    g1 = forward_transform(triples)
    g2 = forward_transform(triples)
    assert g1.epsilon == g2.epsilon
    assert g1.tau == g2.tau
    assert list(g1.tau) == [0, 2, 4, 6, 8, 10]
