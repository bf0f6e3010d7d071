"""Extension functions, singleton-property checks, and RDFS forward chaining.

The rule set is deliberately small: subPropertyOf transitivity, property
inheritance through subPropertyOf, instance typing through subClassOf, and
the domain/range typing conditions. Rules are matched on encoded ids; the
well-known vocabulary ids are resolved against the store dictionary up
front (the singleton-property IRIs are configurable, since datasets bind
them in different namespaces).

Entailment copies only the triples of predicates its rules read; derived
triples accumulate in a delta on top of the immutable base index.
``StoreView`` exposes their union through the same query surface the
traversal code uses: the base, then the delta as one run sorted by
``(s, p, o)``. Entailment is a single-writer batch phase: it may
extend the dictionary (e.g. minting ``rdf:type`` when the base data never
mentions it) and must not run concurrently with queries.
"""

from __future__ import annotations

import dataclasses
import enum
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator

from .dictionary import Dictionary
from .errors import ResourceLimit
from .storage import Store
from .terms import IRI, Term

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"

RDF_TYPE = IRI(RDF_NS + "type")
RDF_PROPERTY = IRI(RDF_NS + "Property")
RDF_SINGLETON_PROPERTY = IRI(RDF_NS + "SingletonProperty")
RDF_SINGLETON_PROPERTY_OF = IRI(RDF_NS + "singletonPropertyOf")
RDFS_DOMAIN = IRI(RDFS_NS + "domain")
RDFS_RANGE = IRI(RDFS_NS + "range")
RDFS_SUB_PROPERTY_OF = IRI(RDFS_NS + "subPropertyOf")
RDFS_SUB_CLASS_OF = IRI(RDFS_NS + "subClassOf")


@dataclass(frozen=True)
class Vocabulary:
    """The singleton pair, which datasets bind in different namespaces."""

    singleton_class: Term = RDF_SINGLETON_PROPERTY
    singleton_property_of: Term = RDF_SINGLETON_PROPERTY_OF

    def with_singleton(self, property_of: str | None = None, singleton_class: str | None = None) -> Vocabulary:
        kwargs = {}
        if property_of:
            kwargs["singleton_property_of"] = IRI(property_of)
        if singleton_class:
            kwargs["singleton_class"] = IRI(singleton_class)
        return dataclasses.replace(self, **kwargs)


@dataclass
class ResolvedVocabulary:
    """Vocabulary terms resolved to ids; 0 for terms absent from the store."""

    type: int = 0
    property: int = 0
    singleton_class: int = 0
    singleton_property_of: int = 0
    domain: int = 0
    range: int = 0
    sub_property_of: int = 0
    sub_class_of: int = 0


def resolve_vocabulary(dictionary: Dictionary, vocab: Vocabulary | None = None) -> ResolvedVocabulary:
    vocab = vocab or Vocabulary()
    terms = (RDF_TYPE, RDF_PROPERTY, vocab.singleton_class, vocab.singleton_property_of,
             RDFS_DOMAIN, RDFS_RANGE, RDFS_SUB_PROPERTY_OF, RDFS_SUB_CLASS_OF)
    return ResolvedVocabulary(*(dictionary.lookup(term) or 0 for term in terms))


class StoreView:
    """Base triples plus a derived delta, queried as their union.

    ``delta`` keeps the derived triples in the order given; ``_run`` holds
    them once more, sorted by ``(s, p, o)``, and is bisected by subject.
    """

    def __init__(self, store: Store, delta: Iterable[tuple[int, int, int]] = ()):
        self.store = store
        self.delta = list(delta)
        self._run = sorted(self.delta)

    def neighbors(self, node: int) -> list[tuple[int, int]]:
        base = self.store.neighbors(node)
        run = self._run
        i = bisect_left(run, (node,))
        if i == len(run) or run[i][0] != node:
            return base
        j = bisect_left(run, (node + 1,), i)
        return sorted(base + [(p, o) for _, p, o in run[i:j]])

    def iter_triples(self) -> Iterator[tuple[int, int, int]]:
        return chain(self.store.iter_triples(), self._run)

    def contains(self, s: int, p: int, o: int) -> bool:
        if self.store.contains(s, p, o):
            return True
        t = (s, p, o)
        i = bisect_left(self._run, t)
        return i < len(self._run) and self._run[i] == t

    def is_issued(self, term_id: int) -> bool:
        return self.store.is_issued(term_id)

    def triple_count(self) -> int:
        return self.store.triple_count() + len(self.delta)


@dataclass
class PropertyExtensions:
    """Extension maps: generic property pairs, singleton pairs, class members."""

    generic: dict[int, set[tuple[int, int]]] = field(default_factory=dict)
    singleton: dict[int, tuple[int, int]] = field(default_factory=dict)
    classes: dict[int, set[int]] = field(default_factory=dict)


def compute_extensions(view, vocab: ResolvedVocabulary) -> PropertyExtensions:
    """Build the extension maps from the stored triples.

    The generic map covers every id used in predicate position plus every
    id explicitly typed as a property (possibly with an empty extension);
    the class map follows the type criterion; the singleton map holds the
    unique pair of each singleton property that has exactly one occurrence.
    """
    ext = PropertyExtensions()
    for s, p, o in view.iter_triples():
        ext.generic.setdefault(p, set()).add((s, o))
        if p == vocab.type and vocab.type != 0:
            ext.classes.setdefault(o, set()).add(s)
            if o == vocab.property:
                ext.generic.setdefault(s, set())
    for ps in classify_singleton_properties(view, vocab):
        pairs = ext.generic.get(ps, set())
        if len(pairs) == 1:
            ext.singleton[ps] = next(iter(pairs))
    return ext


def classify_singleton_properties(view, vocab: ResolvedVocabulary) -> set[int]:
    """Ids declared singleton: via the singleton-of link or an explicit type.

    A stored id is never 0, so a vocabulary term absent from the store
    (resolved to 0) matches nothing.
    """
    of, typ, cls = vocab.singleton_property_of, vocab.type, vocab.singleton_class
    return {s for s, p, o in view.iter_triples() if p == of or (p == typ and o == cls)}


class ViolationKind(enum.Enum):
    MULTIPLE_USE = "multiple_use"
    UNUSED = "unused"


@dataclass(frozen=True)
class SingletonViolation:
    property_id: int
    kind: ViolationKind
    occurrences: int


def validate_singleton_uniqueness(
    view, singletons: set[int], strict: bool = False
) -> list[SingletonViolation]:
    """Report singleton ids used as predicate in more than one triple.

    A singleton with zero predicate occurrences is only a violation under
    ``strict`` (datasets may declare singletons before using them); it is
    always included in the returned list when strict, never otherwise.
    """
    counts = {ps: 0 for ps in singletons}
    for _, p, _ in view.iter_triples():
        if p in counts:
            counts[p] += 1
    violations = [
        SingletonViolation(ps, ViolationKind.MULTIPLE_USE, n)
        for ps, n in counts.items()
        if n >= 2
    ]
    if strict:
        violations.extend(
            SingletonViolation(ps, ViolationKind.UNUSED, 0)
            for ps, n in counts.items()
            if n == 0
        )
    return sorted(violations, key=lambda v: v.property_id)


class Rule(enum.Enum):
    RDFS5 = "rdfs5"  # subPropertyOf is transitive
    RDFS7 = "rdfs7"  # property inheritance along subPropertyOf
    RDFS9 = "rdfs9"  # instance typing along subClassOf
    DOMAIN = "domain"  # typed subject for declared domains
    RANGE = "range"  # typed object for declared ranges


ALL_RULES = (Rule.RDFS5, Rule.RDFS7, Rule.RDFS9, Rule.DOMAIN, Rule.RANGE)


Buckets = dict[int, set[tuple[int, int]]]  # predicate id -> its (subject, object) pairs


def _rule_matches(
    rule: Rule, full: Buckets, delta: Buckets | None, vocab: ResolvedVocabulary
) -> set[tuple[int, int, int]]:
    """One joint application of ``rule``; with ``delta``, only matches using
    at least one delta premise (the semi-naive restriction)."""
    # Premise sides to join: naive mode joins full x full; semi-naive mode
    # joins delta x full and full x delta, which together cover every match
    # involving at least one new triple.
    if delta is None:
        sides = [(full, full)]
    else:
        sides = [(delta, full), (full, delta)]
    out: set[tuple[int, int, int]] = set()

    for first, second in sides:
        if rule is Rule.RDFS5 and vocab.sub_property_of:
            spo = vocab.sub_property_of
            heads: dict[int, list[int]] = {}
            for b, c in second.get(spo, ()):
                heads.setdefault(b, []).append(c)
            for a, b in first.get(spo, ()):
                for c in heads.get(b, ()):
                    out.add((a, spo, c))
        elif rule is Rule.RDFS7 and vocab.sub_property_of:
            for a, b in first.get(vocab.sub_property_of, ()):
                for u, y in second.get(a, ()):
                    out.add((u, b, y))
        elif rule is Rule.RDFS9 and vocab.sub_class_of and vocab.type:
            members: dict[int, list[int]] = {}
            for v, u in second.get(vocab.type, ()):
                members.setdefault(u, []).append(v)
            for u, x in first.get(vocab.sub_class_of, ()):
                for v in members.get(u, ()):
                    out.add((v, vocab.type, x))
        elif rule is Rule.DOMAIN and vocab.domain and vocab.type:
            for p, cls in first.get(vocab.domain, ()):
                for u, _v in second.get(p, ()):
                    out.add((u, vocab.type, cls))
        elif rule is Rule.RANGE and vocab.range and vocab.type:
            for p, cls in first.get(vocab.range, ()):
                for _u, v in second.get(p, ()):
                    out.add((v, vocab.type, cls))
    return out


@dataclass
class EntailmentResult:
    derived_count: int
    rounds: int
    view: StoreView


def entail_fixpoint(
    store: Store,
    rules: Iterable[Rule] = ALL_RULES,
    vocab: Vocabulary | None = None,
    max_derived: int | None = None,
) -> EntailmentResult:
    """Semi-naive forward chaining to the least fixpoint.

    The rules join buckets, filled by store scans, of the predicates they
    read: the five vocabulary terms and every subject of a subPropertyOf,
    domain or range triple. ``Store.contains`` and the derived triples say
    what is already present.

    The first round joins the base with itself; each later round joins the
    previous round's new triples against the full set, so nothing is
    re-derived from scratch. Rule monotonicity makes the fixpoint unique
    regardless of application order. Derived triples that
    need ``rdf:type`` may mint its id (writer phase). Raises ResourceLimit
    when the derived count passes ``max_derived``.
    """
    rules = list(rules)
    if any(r in (Rule.DOMAIN, Rule.RANGE, Rule.RDFS9) for r in rules):
        store.dictionary.encode(RDF_TYPE)
    resolved = resolve_vocabulary(store.dictionary, vocab)
    schema = [i for i in (resolved.sub_property_of, resolved.domain, resolved.range) if i]
    vocab_ids = {i for i in (*schema, resolved.sub_class_of, resolved.type) if i}

    full: Buckets = {}
    derived: dict[tuple[int, int, int], None] = {}  # an insertion-ordered set
    rounds = 0
    delta: Buckets | None = None  # None: round one, the naive pass
    while store.triple_count() if delta is None else delta:
        rounds += 1
        while fill := {
            p: set() for p in vocab_ids.union(*({s for s, _ in full.get(q, ())} for q in schema))
            if p not in full
        }:
            for s, p, o in chain(store.iter_triples(), derived):
                if p in fill:
                    fill[p].add((s, o))
            full.update(fill)
        new: set[tuple[int, int, int]] = set()
        for rule in rules:
            new |= _rule_matches(rule, full, delta, resolved)
        new = {t for t in new if t not in derived and not store.contains(*t)}
        delta = {}
        for t in sorted(new):
            s, p, o = t
            derived[t] = None
            if p in full:
                full[p].add((s, o))
            delta.setdefault(p, set()).add((s, o))
        if max_derived is not None and len(derived) > max_derived:
            raise ResourceLimit(f"derived {len(derived)} triples, bound is {max_derived}")
    return EntailmentResult(len(derived), rounds, StoreView(store, derived))
