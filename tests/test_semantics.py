import itertools
import random
import tracemalloc

import pytest

from ldm3n import IRI, Literal, Triple, forward_transform
from ldm3n.errors import ResourceLimit
from ldm3n.semantics import (
    RDF_NS,
    RDF_SINGLETON_PROPERTY,
    RDF_TYPE,
    RDFS_NS,
    Rule,
    StoreView,
    ViolationKind,
    Vocabulary,
    classify_singleton_properties,
    compute_extensions,
    entail_fixpoint,
    resolve_vocabulary,
    validate_singleton_uniqueness,
)

from conftest import EX, ex
from oracles import naive_entailment_closure, random_triples

FIXTURE_VOCAB = Vocabulary().with_singleton(property_of=EX + "singletonPropOf")

SUB_PROPERTY_OF = IRI(RDFS_NS + "subPropertyOf")
SUB_CLASS_OF = IRI(RDFS_NS + "subClassOf")
DOMAIN = IRI(RDFS_NS + "domain")
RANGE = IRI(RDFS_NS + "range")
LABEL = IRI(RDFS_NS + "label")


def ids_for(store, *names):
    return [store.resolve(ex(n)) for n in names]


def derived(store, *rules):
    return set(entail_fixpoint(store, rules).view.delta)


# -- extensions -----------------------------------------------------------


def test_generic_extensions_on_succession(succession_store):
    store = succession_store
    vocab = resolve_vocabulary(store.dictionary, FIXTURE_VOCAB)
    ext = compute_extensions(store, vocab)
    h1, h2, hp, spo, hs, gwb, fw = ids_for(
        store, "holdsPos#1", "holdsPos#2", "holdsPos", "singletonPropOf",
        "hasSuccessor", "GeorgeWBush", "FrankWhite",
    )
    assert ext.generic[spo] == {(h1, hp), (h2, hp)}
    assert ext.generic[hs] == {(h1, gwb), (h2, fw)}


def test_extensions_empty_store(make_store):
    store = make_store([])
    ext = compute_extensions(store, resolve_vocabulary(store.dictionary))
    assert ext.generic == {} and ext.singleton == {} and ext.classes == {}


def test_singleton_extension_is_single_pair(succession_store):
    store = succession_store
    vocab = resolve_vocabulary(store.dictionary, FIXTURE_VOCAB)
    ext = compute_extensions(store, vocab)
    bc, h1, h2, us, ag = ids_for(
        store, "BillClinton", "holdsPos#1", "holdsPos#2", "U.S.President", "ArkansasGovernor"
    )
    assert ext.singleton[h1] == (bc, us)
    assert ext.singleton[h2] == (bc, ag)


def test_declared_property_gets_empty_extension(make_store):
    store = make_store([Triple(ex("q"), RDF_TYPE, IRI(RDF_NS + "Property"))])
    vocab = resolve_vocabulary(store.dictionary)
    ext = compute_extensions(store, vocab)
    q = store.resolve(ex("q"))
    assert ext.generic[q] == set()


def test_class_extension_via_type(make_store):
    store = make_store([
        Triple(ex("alice"), RDF_TYPE, ex("Person")),
        Triple(ex("bob"), RDF_TYPE, ex("Person")),
    ])
    vocab = resolve_vocabulary(store.dictionary)
    ext = compute_extensions(store, vocab)
    person = store.resolve(ex("Person"))
    alice, bob = store.resolve(ex("alice")), store.resolve(ex("bob"))
    assert ext.classes[person] == {alice, bob}


# -- singleton classification and uniqueness ------------------------------


def test_classify_singletons_on_succession(succession_store):
    store = succession_store
    vocab = resolve_vocabulary(store.dictionary, FIXTURE_VOCAB)
    h1, h2 = ids_for(store, "holdsPos#1", "holdsPos#2")
    assert classify_singleton_properties(store, vocab) == {h1, h2}


def test_classify_without_singleton_vocabulary(make_store):
    store = make_store([Triple(ex("a"), ex("p"), ex("b"))])
    vocab = resolve_vocabulary(store.dictionary)
    assert classify_singleton_properties(store, vocab) == set()


def test_classify_by_explicit_type(make_store, succession_triples):
    extra = Triple(ex("q"), RDF_TYPE, RDF_SINGLETON_PROPERTY)
    store = make_store(succession_triples + [extra])
    vocab = resolve_vocabulary(store.dictionary, FIXTURE_VOCAB)
    q, h1, h2 = store.resolve(ex("q")), *ids_for(store, "holdsPos#1", "holdsPos#2")
    assert classify_singleton_properties(store, vocab) == {h1, h2, q}


def test_succession_singletons_are_unique(succession_store):
    store = succession_store
    vocab = resolve_vocabulary(store.dictionary, FIXTURE_VOCAB)
    singletons = classify_singleton_properties(store, vocab)
    assert validate_singleton_uniqueness(store, singletons) == []


def test_double_use_is_a_violation(make_store, succession_triples):
    store = make_store(succession_triples + [Triple(ex("X"), ex("holdsPos#1"), ex("Y"))])
    vocab = resolve_vocabulary(store.dictionary, FIXTURE_VOCAB)
    singletons = classify_singleton_properties(store, vocab)
    violations = validate_singleton_uniqueness(store, singletons)
    (v,) = violations
    assert v.property_id == store.resolve(ex("holdsPos#1"))
    assert v.kind is ViolationKind.MULTIPLE_USE
    assert v.occurrences == 2


def test_empty_singleton_set_validates_clean(succession_store):
    assert validate_singleton_uniqueness(succession_store, set()) == []


def test_unused_singleton_warns_only_in_strict_mode(make_store):
    declared = Triple(ex("sp"), RDF_TYPE, RDF_SINGLETON_PROPERTY)
    store = make_store([declared])
    vocab = resolve_vocabulary(store.dictionary)
    singletons = classify_singleton_properties(store, vocab)
    assert validate_singleton_uniqueness(store, singletons) == []
    strict = validate_singleton_uniqueness(store, singletons, strict=True)
    assert [v.kind for v in strict] == [ViolationKind.UNUSED]


# -- single rule applications ---------------------------------------------


def test_rule_transitivity(make_store):
    store = make_store([
        Triple(ex("a"), SUB_PROPERTY_OF, ex("b")),
        Triple(ex("b"), SUB_PROPERTY_OF, ex("c")),
    ])
    a, c = store.resolve(ex("a")), store.resolve(ex("c"))
    spo = store.resolve(SUB_PROPERTY_OF)
    assert derived(store, Rule.RDFS5) == {(a, spo, c)}


def test_rule_property_inheritance(make_store):
    store = make_store([
        Triple(ex("hasFamilyName"), SUB_PROPERTY_OF, LABEL),
        Triple(ex("s"), ex("hasFamilyName"), Literal("Clinton")),
    ])
    s = store.resolve(ex("s"))
    label = store.resolve(LABEL)
    lit = store.resolve(Literal("Clinton"))
    assert derived(store, Rule.RDFS7) == {(s, label, lit)}


def test_rule_instance_typing(make_store):
    store = make_store([
        Triple(ex("v"), RDF_TYPE, ex("u")),
        Triple(ex("u"), SUB_CLASS_OF, ex("x")),
    ])
    vocab = resolve_vocabulary(store.dictionary)
    v, x = store.resolve(ex("v")), store.resolve(ex("x"))
    assert derived(store, Rule.RDFS9) == {(v, vocab.type, x)}


def test_rule_domain_and_range(make_store):
    store = make_store([
        Triple(ex("p"), DOMAIN, ex("C")),
        Triple(ex("p"), RANGE, ex("D")),
        Triple(ex("u"), ex("p"), ex("v")),
    ])
    store.dictionary.encode(RDF_TYPE)  # derived triples need the type id
    vocab = resolve_vocabulary(store.dictionary)
    u, v = store.resolve(ex("u")), store.resolve(ex("v"))
    c, d = store.resolve(ex("C")), store.resolve(ex("D"))
    assert derived(store, Rule.DOMAIN) == {(u, vocab.type, c)}
    assert derived(store, Rule.RANGE) == {(v, vocab.type, d)}


def test_apply_rule_excludes_already_present(make_store):
    store = make_store([
        Triple(ex("a"), SUB_PROPERTY_OF, ex("b")),
        Triple(ex("b"), SUB_PROPERTY_OF, ex("c")),
        Triple(ex("a"), SUB_PROPERTY_OF, ex("c")),
    ])
    assert derived(store, Rule.RDFS5) == set()


# -- fixpoint --------------------------------------------------------------


def test_fixpoint_on_property_chain(make_store):
    chain = [
        Triple(ex("a"), SUB_PROPERTY_OF, ex("b")),
        Triple(ex("b"), SUB_PROPERTY_OF, ex("c")),
        Triple(ex("c"), SUB_PROPERTY_OF, ex("d")),
    ]
    store = make_store(chain)
    result = entail_fixpoint(store, [Rule.RDFS5])
    a, b, c, d = (store.resolve(ex(n)) for n in "abcd")
    spo = store.resolve(SUB_PROPERTY_OF)
    assert result.derived_count == 3
    assert set(result.view.delta) == {(a, spo, c), (a, spo, d), (b, spo, d)}


def test_fixpoint_without_schema_vocabulary(make_store):
    store = make_store([Triple(ex("a"), ex("p"), ex("b"))])
    result = entail_fixpoint(store)
    assert result.derived_count == 0


def _random_schema(rng):
    triples = []
    classes = [ex(f"C{i}") for i in range(rng.randint(3, 15))]
    props = [ex(f"p{i}") for i in range(rng.randint(3, 15))]
    for _ in range(rng.randint(2, 12)):
        triples.append(Triple(rng.choice(classes), SUB_CLASS_OF, rng.choice(classes)))
    for _ in range(rng.randint(2, 12)):
        triples.append(Triple(rng.choice(props), SUB_PROPERTY_OF, rng.choice(props)))
    for _ in range(rng.randint(0, 6)):
        triples.append(Triple(rng.choice(props), DOMAIN, rng.choice(classes)))
    for _ in range(rng.randint(0, 6)):
        triples.append(Triple(rng.choice(props), RANGE, rng.choice(classes)))
    instances = [ex(f"i{i}") for i in range(rng.randint(2, 8))]
    for _ in range(rng.randint(2, 15)):
        triples.append(Triple(rng.choice(instances), rng.choice(props), rng.choice(instances)))
    for _ in range(rng.randint(1, 8)):
        triples.append(Triple(rng.choice(instances), RDF_TYPE, rng.choice(classes)))
    return triples


def _vocabulary_schema(rng):
    # The five vocabulary terms are properties too, so a subPropertyOf
    # chain can lead to domain or range: a round can derive schema triples
    # that name properties no earlier round read.
    props = [SUB_PROPERTY_OF, SUB_CLASS_OF, RDF_TYPE, DOMAIN, RANGE]
    props += [ex(f"p{i}") for i in range(rng.randint(2, 6))]
    nodes = props + [ex(f"n{i}") for i in range(rng.randint(2, 6))]
    return [
        Triple(rng.choice(nodes), rng.choice(props), rng.choice(nodes + [Literal("v")]))
        for _ in range(rng.randint(4, 20))
    ]


@pytest.mark.parametrize(
    ("schema", "stores"), [(_random_schema, 8), (_vocabulary_schema, 100)],
    ids=["random_schema", "vocabulary_schema"],
)
def test_fixpoint_matches_naive_oracle(make_store, schema, stores):
    rng = random.Random(99)
    for _ in range(stores):
        store = make_store(schema(rng))
        result = entail_fixpoint(store)
        vocab = resolve_vocabulary(store.dictionary)
        expected = naive_entailment_closure(
            set(store.iter_triples()),
            vocab.sub_property_of, vocab.sub_class_of, vocab.type, vocab.domain, vocab.range,
        )
        assert set(result.view.iter_triples()) == expected


def test_fixpoint_reads_properties_named_by_derived_schema(make_store):
    # Round one derives (p, domain, C) through myDom; round two must then
    # read p's triples, which no schema triple of the base names.
    store = make_store([
        Triple(ex("myDom"), SUB_PROPERTY_OF, DOMAIN),
        Triple(ex("p"), ex("myDom"), ex("C")),
        Triple(ex("u"), ex("p"), ex("v")),
    ])
    result = entail_fixpoint(store)
    p, c, u = ids_for(store, "p", "C", "u")
    domain, rdf_type = store.resolve(DOMAIN), store.resolve(RDF_TYPE)
    assert set(result.view.delta) == {(p, domain, c), (u, rdf_type, c)}
    assert result.rounds == 3


def test_fixpoint_reads_derived_triples_of_a_late_read_property(make_store):
    # (u, p, y) is derived in round one, (p, domain, C) only in round two,
    # so the scan that buckets p in round three must read derived triples.
    store = make_store([
        Triple(ex("q"), SUB_PROPERTY_OF, ex("p")),
        Triple(ex("u"), ex("q"), ex("y")),
        Triple(ex("myDom2"), SUB_PROPERTY_OF, ex("myDom")),
        Triple(ex("myDom"), SUB_PROPERTY_OF, DOMAIN),
        Triple(ex("p"), ex("myDom2"), ex("C")),
    ])
    result = entail_fixpoint(store)
    p, u, y, c, my_dom, my_dom2 = ids_for(store, "p", "u", "y", "C", "myDom", "myDom2")
    spo, domain, rdf_type = (store.resolve(t) for t in (SUB_PROPERTY_OF, DOMAIN, RDF_TYPE))
    assert set(result.view.delta) == {
        (my_dom2, spo, domain), (u, p, y), (p, my_dom, c), (p, domain, c), (u, rdf_type, c),
    }
    assert result.rounds == 4


def test_fixpoint_keeps_no_copy_of_the_base(make_store):
    # No schema triples: the rules read nothing, so nothing of the base is
    # bucketed or copied.
    store = make_store(random_triples(random.Random(3), 20_000, iris=40))
    tracemalloc.start()
    try:
        result = entail_fixpoint(store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.derived_count == 0
    assert peak < 1_000_000


def test_fixpoint_is_idempotent(make_store):
    rng = random.Random(7)
    store = make_store(_random_schema(rng))
    first = entail_fixpoint(store)
    # Re-run against a store whose base already contains the closure.
    closed = [
        Triple(store.decode(s), store.decode(p), store.decode(o))
        for s, p, o in first.view.iter_triples()
    ]
    store2 = make_store(closed)
    second = entail_fixpoint(store2)
    assert second.derived_count == 0


def test_fixpoint_is_order_independent(make_store):
    rng = random.Random(31)
    triples = _random_schema(rng)
    rules = list(Rule)
    store_a = make_store(triples)
    store_b = make_store(triples)
    shuffled = rules[:]
    rng.shuffle(shuffled)
    a = entail_fixpoint(store_a, rules)
    b = entail_fixpoint(store_b, shuffled)
    assert set(a.view.iter_triples()) == set(b.view.iter_triples())


def test_extension_subsets_after_materialization(make_store):
    rng = random.Random(55)
    store = make_store(_random_schema(rng))
    result = entail_fixpoint(store)
    vocab = resolve_vocabulary(store.dictionary)
    ext = compute_extensions(result.view, vocab)
    for s, p, o in result.view.iter_triples():
        if p == vocab.sub_property_of:
            assert ext.generic.get(s, set()) <= ext.generic.get(o, set())
        if p == vocab.sub_class_of:
            assert ext.classes.get(s, set()) <= ext.classes.get(o, set())


def test_each_derived_triple_adds_one_edge_pair(make_store):
    chain = [
        Triple(ex("a"), SUB_PROPERTY_OF, ex("b")),
        Triple(ex("b"), SUB_PROPERTY_OF, ex("c")),
    ]
    store = make_store(chain)
    result = entail_fixpoint(store, [Rule.RDFS5])
    union_triples = [
        Triple(store.decode(s), store.decode(p), store.decode(o))
        for s, p, o in result.view.iter_triples()
    ]
    g = forward_transform(union_triples)
    assert g.edge_count() == 2 * (len(chain) + result.derived_count)
    assert len(g.tau) == len(chain) + result.derived_count


def test_resource_limit(make_store):
    chain = [Triple(ex(f"n{i}"), SUB_PROPERTY_OF, ex(f"n{i+1}")) for i in range(10)]
    store = make_store(chain)
    with pytest.raises(ResourceLimit):
        entail_fixpoint(store, [Rule.RDFS5], max_derived=3)


# -- views ------------------------------------------------------------------


@pytest.mark.parametrize(
    "delta_names",
    [
        # Given out of order: several triples per subject, one literal subject.
        ["cpb", "aqc", "vpa", "apa", "cpa", "bqv"],
        [],
        # Subjects on both sides of b, which has base triples only, and on c,
        # the largest issued id.
        ["cpc", "aqb", "apc"],
    ],
    ids=["out_of_order", "empty", "straddle"],
)
def test_store_view_modes(make_store, delta_names):
    # The view is the union of base and delta, brute-force checked.
    store = make_store([
        Triple(ex("a"), ex("p"), ex("b")),
        Triple(ex("a"), ex("q"), Literal("v")),
        Triple(ex("b"), ex("p"), ex("c")),
        Triple(ex("c"), ex("q"), ex("a")),
    ])
    term_id = dict(zip("abcpq", ids_for(store, "a", "b", "c", "p", "q")), v=store.resolve(Literal("v")))
    ids = list(store.dictionary.ids())
    assert term_id["a"] < term_id["b"] < term_id["c"] == max(ids)
    delta = [tuple(term_id[n] for n in t) for t in delta_names]
    view = StoreView(store, delta)
    base = list(store.iter_triples())
    union = set(base) | set(delta)
    assert len(union) == len(base) + len(delta)

    assert view.delta == delta
    for n in ids:
        assert view.neighbors(n) == sorted((tp, to) for ts, tp, to in union if ts == n)
    assert list(view.iter_triples()) == base + sorted(delta)
    assert view.triple_count() == len(union)
    for t in itertools.product(ids, repeat=3):
        assert view.contains(*t) is (t in union)
