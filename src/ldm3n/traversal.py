"""Path semantics and shortest-path / reachability queries.

Two traversal models run over the same subject-keyed row index:

* triple-node model (``ldm3n``): expanding a node relaxes, for each stored
  pair (pred, obj) under it, the predicate at distance +1 and the object at
  distance +2 (the predicate sits between them). Distances count edges of
  the triple-node graph, and a walk may only use a terminal edge right
  after the matching initial edge of the same triple.
* labeled-arc model (``nlan``): expanding a node relaxes each object at
  distance +1 and never visits predicates, so anything connected only
  through a predicate node is unreachable.

The search keeps, for each reached node, its best distance and the exact
triple through which it was relaxed, not just the previous node id. A
predicate node shared by several triples can hold a best distance from one
triple while some object is reached through another; reconstructing through
node-keyed previous pointers alone could then splice an initial edge of one
triple onto the terminal edge of another. Keeping the relaxing triple pins
reconstruction to whole triples, so returned paths always satisfy the
pairing constraint.
"""

from __future__ import annotations

import enum
import functools
import gc
import heapq
import math
import time
from dataclasses import dataclass
from typing import Collection

from .errors import UnknownNode, UnknownTriple
from .graph_model import EdgeKind, Ldm3nGraph


class Model(enum.Enum):
    LDM3N = "ldm3n"
    NLAN = "nlan"


class PathStatus(enum.Enum):
    FOUND = "found"
    UNREACHABLE = "unreachable"


@dataclass(slots=True)
class PathQueryResult:
    status: PathStatus
    distance: int | None
    resource_path: list[int] | None
    triple_path: list[tuple[int, int, int]] | None
    nodes_explored: int
    elapsed_s: float

    @property
    def found(self) -> bool:
        return self.status is PathStatus.FOUND


def check_endpoints(store, source: int, target: int) -> None:
    """UnknownNode naming the first endpoint, source before target, never issued."""
    if not store.is_issued(source):
        raise UnknownNode(f"source id {source} was never issued")
    if not store.is_issued(target):
        raise UnknownNode(f"target id {target} was never issued")


def _collector_paused(fn):
    """``fn`` with the garbage collector paused for each call.

    A ``finally`` enables the collector again, after ``fn`` has returned or
    raised, if it was on at the call, so no pass starts while ``fn``'s frame
    runs. Nested calls leave it paused until the outermost one returns.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@_collector_paused
def _dijkstra(
    store, source: int, targets: Collection[int], model: Model, max_dist: int | None
) -> tuple[dict[int, tuple[int | None, int, float]], dict[int, tuple[int, int, int]]]:
    """One search from ``source`` that answers every id in ``targets``.

    Returns each target's ``(distance, nodes_explored, elapsed_s)``, fixed at
    its pop (elapsed from the start of the search), and ``via``, the tree of
    relaxing triples that ``_rebuild`` reads paths from. The search stops
    once every target has been popped, at the first pop beyond ``max_dist``,
    or when the queue runs out. The pops before a target are those of a
    search for that target alone, and a settled node's relaxing triple never
    changes, so every answer and path equals the single-target one. Targets
    never popped are unreachable (distance ``None``), with every pop of the
    search counted. Endpoints must be issued; callers check them.

    The garbage collector is paused for the search, so no collection falls
    inside its times.
    """
    started = time.perf_counter()
    pending = set(targets)
    results: dict[int, tuple[int | None, int, float]] = {}
    best: dict[int, int] = {source: 0}
    via: dict[int, tuple[int, int, int]] = {}  # the triple that relaxed each node
    heap: list[tuple[int, int]] = [(0, source)]
    explored = 0
    ldm3n = model is Model.LDM3N
    push, pop, inf = heapq.heappush, heapq.heappop, math.inf

    while heap:
        dis, curid = pop(heap)
        if dis > best[curid]:
            continue  # stale queue entry
        if max_dist is not None and dis > max_dist:
            break
        explored += 1
        if curid in pending:
            pending.discard(curid)
            results[curid] = (dis, explored, time.perf_counter() - started)
            if not pending:
                return results, via
        if curid & 1:
            # Literals (odd ids; a popped id is never 0) are sinks, so the
            # walk stops here. Under --with-derived this is more than a
            # skipped probe: StoreView.neighbors does return derived triples
            # with a literal subject, which rdfs:range over a literal-valued
            # property derives.
            continue
        step, far = dis + 1, dis + 2
        for pred, obj in store.neighbors(curid):
            triple = (curid, pred, obj)
            if ldm3n:
                if step < best.get(pred, inf):
                    best[pred] = step
                    via[pred] = triple
                    push(heap, (step, pred))
                if far < best.get(obj, inf):
                    best[obj] = far
                    via[obj] = triple
                    push(heap, (far, obj))
            elif step < best.get(obj, inf):
                best[obj] = step
                via[obj] = triple
                push(heap, (step, obj))

    elapsed = time.perf_counter() - started
    for target in pending:
        results[target] = (None, explored, elapsed)
    return results, via


def _rebuild(via: dict[int, tuple[int, int, int]], memo: dict[int, list[int]], node: int, ldm3n: bool) -> list[int]:
    """The resource path from the search's source to ``node``.

    ``memo`` maps each node already rebuilt from this search to its resource
    path and starts as ``{source: [source]}``. The walk goes back along
    ``via`` to the nearest memoized node and memoizes every node on the way
    forward, so targets that share a prefix walk it once. Each path is a
    new list, since later paths extend it.

    Under the triple-node model a node that is its triple's predicate was
    entered as that predicate: a triple relaxes its predicate (+1) before its
    object (+2), so even in ``(s, p, p)`` the object step never wins. Any
    other node was entered as its triple's object, through the predicate.
    Under the labeled-arc model every node is entered as an object.
    """
    walk: list[int] = []
    while node not in memo:
        walk.append(node)
        node = via[node][0]
    nodes = memo[node]
    for cur in reversed(walk):
        triple = via[cur]
        nodes = nodes + ([triple[1], cur] if ldm3n and cur != triple[1] else [cur])
        memo[cur] = nodes
    return nodes


def dijkstra_ldm3n(store, source: int, target: int, max_dist: int | None = None) -> PathQueryResult:
    """Shortest walk on the triple-node graph, with the paired-edge constraint.

    Distances are edge counts: +1 to enter a triple's predicate, +2 to pass
    through to its object. The source must be issued; literal ids behave as
    sinks. Popping the target (including source == target at distance 0)
    ends the search; an exhausted queue means unreachable.
    """
    return shortest_path(store, source, target, Model.LDM3N, max_dist)


def dijkstra_nlan(store, source: int, target: int, max_dist: int | None = None) -> PathQueryResult:
    """Shortest walk counting one hop per triple, predicates never visited."""
    return shortest_path(store, source, target, Model.NLAN, max_dist)


def shortest_path(
    store, source: int, target: int, model: Model, max_dist: int | None = None
) -> PathQueryResult:
    check_endpoints(store, source, target)
    found, via = _dijkstra(store, source, (target,), model, max_dist)
    distance, explored, elapsed = found[target]
    if distance is None:
        return PathQueryResult(PathStatus.UNREACHABLE, None, None, None, explored, elapsed)
    nodes = _rebuild(via, {source: [source]}, target, model is Model.LDM3N)
    # The triple path is the chain of relaxing triples back to the source.
    triples: list[tuple[int, int, int]] = []
    node = target
    while node != source:
        triples.append(via[node])
        node = via[node][0]
    triples.reverse()
    return PathQueryResult(PathStatus.FOUND, distance, nodes, triples, explored, elapsed)


def validate_resource_path(g: Ldm3nGraph, nodes: list[int]) -> bool:
    """Check a node sequence against the triple-node path rules.

    Each consecutive pair must be joined by an edge, and any terminal edge
    used must directly follow its paired initial edge (a terminal edge can
    never open the path). Parallel edges between the same node pair are
    resolved by searching for *some* consistent edge assignment.
    """
    if not nodes:
        return False
    if any(n not in g.nodes for n in nodes):
        return False
    if len(nodes) == 1:
        return True

    tau_inv = {term: init for init, term in g.tau.items()}
    # prev holds the edges usable for the previous step under some valid
    # choice of prefix; an initial edge only needs the prefix to exist, a
    # terminal edge needs its own paired initial edge chosen right before.
    prev: set[int] = set()
    for k in range(len(nodes) - 1):
        current: set[int] = set()
        for e in g.edges_between(nodes[k], nodes[k + 1]):
            if e.kind is EdgeKind.INITIAL:
                if k == 0 or prev:
                    current.add(e.id)
            elif k > 0 and tau_inv.get(e.id) in prev:
                current.add(e.id)
        if not current:
            return False
        prev = current
    return True


def validate_triple_path(store, triples: list[tuple[int, int, int]]) -> bool:
    """Check the chaining rule: each triple's subject is the previous
    triple's predicate or object. Every listed triple must exist in the
    store (UnknownTriple otherwise)."""
    for t in triples:
        if not store.contains(*t):
            raise UnknownTriple(f"triple {t} not in store")
    for (s1, p1, o1), (s2, _, _) in zip(triples, triples[1:]):
        if s2 != p1 and s2 != o1:
            return False
    return True
