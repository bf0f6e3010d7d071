"""Command-line entry point: load, spath, reach, entail, validate, bench, stats.

Data goes to stdout (CSV or N-Triples), diagnostics to stderr. Exit codes:
0 success (an unreachable pair is a valid answer), 1 query-level failure
(unknown term, bad input file), 2 usage error, 3 corrupt store. Terms on
the command line use N-Triples token syntax: ``<iri>``, ``"literal"``,
``_:label``.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import harness, semantics, storage
from .errors import Ldm3nError, MalformedLine, StoreCorrupt
from .ntriples import parse_ntriples, write_ntriples
from .semantics import Rule, StoreView, Vocabulary, resolve_vocabulary
from .terms import Triple, format_term, parse_term
from .traversal import Model, shortest_path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ldm3n", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_load = sub.add_parser("load", help="parse an N-Triples file into a new store")
    p_load.add_argument("--store", required=True, type=Path)
    p_load.add_argument("--input", required=True, help="N-Triples file, or - for stdin")
    p_load.add_argument("--lenient", action="store_true", help="skip malformed lines and count them")

    for name, help_text in (
        ("spath", "shortest path between two terms"),
        ("reach", "reachability between two terms"),
    ):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--store", required=True, type=Path)
        q.add_argument("--model", choices=["ldm3n", "nlan"], required=True)
        q.add_argument("--source", required=True)
        q.add_argument("--target", required=True)
        q.add_argument("--max-dist", type=int, default=None)
        q.add_argument("--with-derived", action="store_true", help="query base plus materialized delta")
        q.add_argument("--timing", action="store_true", help="append elapsed_ms (output no longer byte-stable)")

    p_entail = sub.add_parser("entail", help="forward-chain RDFS rules to fixpoint")
    p_entail.add_argument("--store", required=True, type=Path)
    p_entail.add_argument("--rules", default="rdfs5,rdfs7,rdfs9,domain,range")
    p_entail.add_argument("--strict-singletons", action="store_true")
    p_entail.add_argument("--singleton-prop", default=None, help="override the singleton-of IRI")
    p_entail.add_argument("--singleton-class", default=None, help="override the singleton class IRI")
    p_entail.add_argument("--max-derived", type=int, default=None)
    p_entail.add_argument("--materialize", action="store_true", help="persist the delta into the store")
    p_entail.add_argument("--out", default="-", help="derived triples destination (default stdout)")

    p_val = sub.add_parser("validate", help="report singleton-property violations as CSV")
    p_val.add_argument("--store", required=True, type=Path)
    p_val.add_argument("--strict-singletons", action="store_true")
    p_val.add_argument("--singleton-prop", default=None)
    p_val.add_argument("--singleton-class", default=None)
    p_val.add_argument("--with-derived", action="store_true")

    p_bench = sub.add_parser("bench", help="batch reachability or shortest-path queries")
    p_bench.add_argument("--store", required=True, type=Path)
    p_bench.add_argument("--mode", choices=["reach", "spath"], required=True)
    p_bench.add_argument("--model", choices=["ldm3n", "nlan"], required=True)
    p_bench.add_argument("--workers", type=int, default=1)
    p_bench.add_argument("--pairs", required=True, help="CSV of source_iri,target_iri rows")
    p_bench.add_argument("--out", default="-", help="report destination (default stdout)")
    p_bench.add_argument("--max-dist", type=int, default=None)

    p_stats = sub.add_parser("stats", help="store statistics as metric,value CSV")
    p_stats.add_argument("--store", required=True, type=Path)
    p_stats.add_argument("--singleton-prop", default=None)
    p_stats.add_argument("--singleton-class", default=None)
    p_stats.add_argument("--with-derived", action="store_true")

    return parser


def _vocab(args) -> Vocabulary:
    return Vocabulary().with_singleton(
        getattr(args, "singleton_prop", None), getattr(args, "singleton_class", None)
    )


def _open_view(args):
    store = storage.open_store(args.store)
    if getattr(args, "with_derived", False) and store.delta:
        return store, StoreView(store, store.delta, mode="union")
    return store, store


def _cmd_load(args) -> int:
    errors: list[MalformedLine] = []
    if args.input == "-":
        source = sys.stdin
    else:
        source = open(args.input, "r", encoding="utf-8")
    try:
        triples = parse_ntriples(source, strict=not args.lenient, errors=errors)
        config = storage.StoreConfig(args.store)
        _, _, report = storage.load_triples(config, triples)
    finally:
        if source is not sys.stdin:
            source.close()
    writer = csv.writer(sys.stdout)
    writer.writerow(["metric", "value"])
    writer.writerow(["triples", report.triples])
    writer.writerow(["distinct_terms", report.distinct_terms])
    writer.writerow(["duplicates", report.duplicates])
    writer.writerow(["literals", report.literals])
    writer.writerow(["malformed_lines", len(errors)])
    for err in errors:
        print(f"skipped {err}", file=sys.stderr)
    return 0


def _cmd_query(args) -> int:
    store, view = _open_view(args)
    source = store.resolve(parse_term(args.source))
    target = store.resolve(parse_term(args.target))
    model = Model(args.model)
    result = shortest_path(view, source, target, model, args.max_dist)

    path = ""
    if result.found:
        path = "/".join(format_term(store.decode(n)) for n in result.resource_path)
    row = [
        format_term(store.decode(source)),
        format_term(store.decode(target)),
        model.value,
        ("reachable" if result.found else "unreachable")
        if args.command == "reach"
        else result.status.value,
        "" if result.distance is None else str(result.distance),
        str(result.nodes_explored),
    ]
    if args.timing:
        row.append(f"{result.elapsed_s * 1000.0:.3f}")
    row.append(path)
    csv.writer(sys.stdout).writerow(row)
    return 0


def _cmd_entail(args) -> int:
    store = storage.open_store(args.store)
    vocab = _vocab(args)
    rules = [Rule(name.strip()) for name in args.rules.split(",") if name.strip()]
    result = semantics.entail_fixpoint(store, rules, vocab, max_derived=args.max_derived)

    # Re-validate singleton uniqueness against the materialized view; derived
    # triples can turn a clean store into a violating one.
    resolved = resolve_vocabulary(store.dictionary, vocab)
    singletons = semantics.classify_singleton_properties(result.view, resolved)
    violations = semantics.validate_singleton_uniqueness(
        result.view, singletons, strict=args.strict_singletons
    )

    def emit(out) -> None:
        write_ntriples(
            (Triple(store.decode(s), store.decode(p), store.decode(o)) for s, p, o in result.view.delta),
            out,
        )
        out.write(
            f"# summary: derived={result.derived_count} rounds={result.rounds}"
            f" singleton_violations={len(violations)}\n"
        )

    if args.out == "-":
        emit(sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as f:
            emit(f)
    if args.materialize:
        storage.save_delta(store, result.view.delta)
    return 0


def _cmd_validate(args) -> int:
    store, view = _open_view(args)
    resolved = resolve_vocabulary(store.dictionary, _vocab(args))
    singletons = semantics.classify_singleton_properties(view, resolved)
    violations = semantics.validate_singleton_uniqueness(
        view, singletons, strict=args.strict_singletons
    )
    writer = csv.writer(sys.stdout)
    writer.writerow(["property", "kind", "occurrences"])
    for v in violations:
        writer.writerow([format_term(store.decode(v.property_id)), v.kind.value, v.occurrences])
    return 0


def _cmd_bench(args) -> int:
    store, view = _open_view(args)
    with open(args.pairs, "r", encoding="utf-8") as f:
        pairs = harness.read_pairs_csv(f, store)
    report = harness.run_batch(
        view, pairs, Model(args.model), args.mode, workers=args.workers, max_dist=args.max_dist
    )
    if args.out == "-":
        report.write_csv(sys.stdout, store.dictionary)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as f:
            report.write_csv(f, store.dictionary)
    return 0


def _cmd_stats(args) -> int:
    store, view = _open_view(args)
    resolved = resolve_vocabulary(store.dictionary, _vocab(args))
    singletons = semantics.classify_singleton_properties(view, resolved)
    triples = view.triple_count()
    writer = csv.writer(sys.stdout)
    writer.writerow(["metric", "value"])
    writer.writerow(["triples", triples])
    writer.writerow(["nodes", len(store.dictionary)])
    writer.writerow(["edges", 2 * triples])
    writer.writerow(["literals", store.dictionary.literal_count()])
    writer.writerow(["singletons", len(singletons)])
    return 0


_COMMANDS = {
    "load": _cmd_load,
    "spath": _cmd_query,
    "reach": _cmd_query,
    "entail": _cmd_entail,
    "validate": _cmd_validate,
    "bench": _cmd_bench,
    "stats": _cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except StoreCorrupt as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (Ldm3nError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
