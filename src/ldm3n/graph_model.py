"""Explicit triple-node graph: the formal model behind the engine.

The graph is the paper's (N, epsilon, tau, mu). Every term of a triple set
maps through ``mu`` to exactly one node of N, and each triple (s, p, o) is
realized by a *pair* of directed edges: an initial edge s -> p and a
terminal edge p -> o, bound together by the pairing map ``tau``. The edges
are the domain of ``epsilon``, an edge is initial exactly when it is in
``tau``'s domain, so the graph has exactly 2 * |triples| edges. Terms reused
across roles (a predicate that is also a subject elsewhere) still map to a
single node, which is what makes cross-triple traversal possible.

This explicit structure exists for model-level reasoning and as the oracle
counterpart of the index-backed engine; query execution itself walks the
store's subject rows, where the edge pair of each triple is implicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .dictionary import Dictionary
from .errors import MalformedGraph
from .terms import Triple


@dataclass
class Ldm3nGraph:
    """Triple-node graph: nodes, paired edges, and the term<->node bijection.

    ``epsilon`` maps each edge id to its (source node, target node) pair, so
    its keys are the edge set; ``tau`` maps each initial edge id to its
    terminal partner, so its keys are the initial edges and its values the
    terminal ones. Edge ids are assigned 2*i (initial) and 2*i + 1
    (terminal) for the i-th distinct input triple, so construction is
    deterministic.
    """

    nodes: set[int] = field(default_factory=set)
    epsilon: dict[int, tuple[int, int]] = field(default_factory=dict)
    tau: dict[int, int] = field(default_factory=dict)
    mu: Dictionary = field(default_factory=Dictionary)

    def edge_count(self) -> int:
        return len(self.epsilon)

    def node_count(self) -> int:
        return len(self.nodes)

    def edges_between(self, a: int, b: int) -> list[int]:
        """The ids of all parallel edges from node a to node b, initial and terminal."""
        return [e for e, pair in self.epsilon.items() if pair == (a, b)]


def forward_transform(triples: Iterable[Triple], dictionary: Dictionary | None = None) -> Ldm3nGraph:
    """Build the triple-node graph of a triple set.

    Duplicate triples collapse (set semantics, first occurrence wins the
    edge ids). Passing an existing dictionary aligns node ids with a store
    built from the same input.
    """
    g = Ldm3nGraph(mu=dictionary if dictionary is not None else Dictionary())
    seen: set[tuple[int, int, int]] = set()
    i = 0
    for t in triples:
        ns = g.mu.encode(t.subject)
        np_ = g.mu.encode(t.predicate)
        no = g.mu.encode(t.object)
        if (ns, np_, no) in seen:
            continue
        seen.add((ns, np_, no))
        g.nodes.update((ns, np_, no))
        e_init, e_term = 2 * i, 2 * i + 1
        g.epsilon[e_init] = (ns, np_)
        g.epsilon[e_term] = (np_, no)
        g.tau[e_init] = e_term
        i += 1
    return g


def backward_transform(g: Ldm3nGraph) -> set[Triple]:
    """Recover the triple set from a triple-node graph.

    Walks every tau pair, reads the three nodes off the two edges, and maps
    them back through the term bijection. Raises MalformedGraph when a pair's
    edges do not meet at the predicate node.
    """
    triples: set[Triple] = set()
    for e_init, e_term in g.tau.items():
        ns, np_ = g.epsilon[e_init]
        np2, no = g.epsilon[e_term]
        if np_ != np2:
            raise MalformedGraph(
                f"paired edges {e_init}/{e_term} do not share their middle node ({np_} != {np2})"
            )
        triples.add(Triple(g.mu.decode(ns), g.mu.decode(np_), g.mu.decode(no)))
    return triples
