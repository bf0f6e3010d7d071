"""Embedded RDF graph engine with triple-node graph semantics.

Triples load into a dictionary-encoded, subject-keyed adjacency store and
can be traversed under two models: the triple-node model, where subjects,
predicates, and objects are all nodes joined per triple by a paired
initial/terminal edge, and the conventional labeled-arc model. The package
also ships the explicit formal graph (forward/backward transformations),
an RDFS forward-chaining layer with singleton-property validation, and a
batch harness for reachability/shortest-path experiments.
"""

from .dictionary import Dictionary, is_literal_id
from .errors import Ldm3nError
from .graph_model import Ldm3nGraph, backward_transform, forward_transform, graph_size
from .ntriples import parse_ntriples, serialize_ntriples
from .storage import Store, StoreConfig, create_store, load_triples, open_store
from .terms import IRI, BlankNode, Literal, Term, Triple, format_term, parse_term
from .traversal import (
    Model,
    PathQueryResult,
    PathStatus,
    dijkstra_ldm3n,
    dijkstra_nlan,
    reachable,
    shortest_path,
    validate_resource_path,
    validate_triple_path,
)

__version__ = "0.1.0"

__all__ = [
    "BlankNode",
    "Dictionary",
    "IRI",
    "Ldm3nError",
    "Ldm3nGraph",
    "Literal",
    "Model",
    "PathQueryResult",
    "PathStatus",
    "Store",
    "StoreConfig",
    "Term",
    "Triple",
    "backward_transform",
    "create_store",
    "dijkstra_ldm3n",
    "dijkstra_nlan",
    "format_term",
    "forward_transform",
    "graph_size",
    "is_literal_id",
    "load_triples",
    "open_store",
    "parse_ntriples",
    "parse_term",
    "reachable",
    "serialize_ntriples",
    "shortest_path",
    "validate_resource_path",
    "validate_triple_path",
]
