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
import io
import sys
from dataclasses import asdict
from functools import cache
from pathlib import Path

from . import storage
from .errors import Ldm3nError, MalformedLine, StoreCorrupt
from .ntriples import parse_ntriples
from .terms import format_term, parse_term
from .traversal import Model, shortest_path


def _int_from(least: int):
    """An argparse type: an int of at least ``least``, else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _rules(text: str) -> list:
    """An argparse type: comma-separated rule names, each stripped, as ``semantics.Rule`` values."""
    from .semantics import Rule

    try:
        return [Rule(name.strip()) for name in text.split(",") if name.strip()]
    except ValueError as exc:  # a usage error that names the rule, not "invalid _rules value"
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ldm3n", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    store = argparse.ArgumentParser(add_help=False)
    store.add_argument("--store", required=True, type=Path)
    derived = argparse.ArgumentParser(add_help=False)
    derived.add_argument("--with-derived", action="store_true", help="query base plus materialized delta")
    singleton = argparse.ArgumentParser(add_help=False)
    singleton.add_argument("--singleton-prop", default=None, help="override the singleton-of IRI")
    singleton.add_argument("--singleton-class", default=None, help="override the singleton class IRI")

    p_load = sub.add_parser("load", parents=[store], help="parse an N-Triples file into a new store")
    p_load.add_argument("--input", required=True, help="N-Triples file, or - for stdin")
    p_load.add_argument("--lenient", action="store_true", help="skip malformed lines and count them")

    for name, help_text in (
        ("spath", "shortest path between two terms"),
        ("reach", "reachability between two terms"),
    ):
        q = sub.add_parser(name, parents=[store, derived], help=help_text)
        q.add_argument("--model", choices=["ldm3n", "nlan"], required=True)
        q.add_argument("--source", required=True)
        q.add_argument("--target", required=True)
        q.add_argument("--max-dist", type=_int_from(0), default=None)
        q.add_argument("--timing", action="store_true", help="append elapsed_ms (output no longer byte-stable)")

    p_entail = sub.add_parser("entail", parents=[store, singleton], help="forward-chain RDFS rules to fixpoint")
    p_entail.add_argument("--rules", type=_rules, default="rdfs5,rdfs7,rdfs9,domain,range")
    p_entail.add_argument("--strict-singletons", action="store_true")
    p_entail.add_argument("--max-derived", type=_int_from(0), default=None)
    p_entail.add_argument("--materialize", action="store_true", help="persist the delta into the store")
    p_entail.add_argument("--out", default="-", help="derived triples destination (default stdout)")

    p_val = sub.add_parser("validate", parents=[store, singleton, derived],
                           help="report singleton-property violations as CSV")
    p_val.add_argument("--strict-singletons", action="store_true")

    p_bench = sub.add_parser("bench", parents=[store, derived], help="batch reachability or shortest-path queries")
    p_bench.add_argument("--mode", choices=["reach", "spath"], required=True)
    p_bench.add_argument("--model", choices=["ldm3n", "nlan"], required=True)
    p_bench.add_argument("--workers", type=_int_from(1), default=1)
    p_bench.add_argument("--pairs", required=True, help="CSV of source_iri,target_iri rows")
    p_bench.add_argument("--out", default="-", help="report destination (default stdout)")
    p_bench.add_argument("--max-dist", type=_int_from(0), default=None)

    sub.add_parser("stats", parents=[store, singleton, derived], help="store statistics as metric,value CSV")
    return parser


def _vocab(args):
    from .semantics import Vocabulary  # only the commands that use semantics import it

    return Vocabulary().with_singleton(args.singleton_prop, args.singleton_class)


def _singletons(args, store, view) -> set[int]:
    """Ids ``view`` declares singleton, under the command's vocabulary."""
    from .semantics import classify_singleton_properties, resolve_vocabulary

    return classify_singleton_properties(view, resolve_vocabulary(store.dictionary, _vocab(args)))


def _singleton_violations(args, store, view) -> list:
    from .semantics import validate_singleton_uniqueness

    return validate_singleton_uniqueness(view, _singletons(args, store, view), strict=args.strict_singletons)


def _open_view(args):
    store = storage.open_store(args.store)
    # A damaged delta fails only the commands that query it.
    if args.with_derived and (delta := storage.read_delta(store)):
        from .semantics import StoreView

        return store, StoreView(store, delta)
    return store, store


def _cmd_load(args) -> int:
    errors: list[MalformedLine] = []
    if args.input == "-":
        # UTF-8, as a file is read, whatever the locale's encoding; a leading
        # byte-order mark is dropped.
        source = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8-sig")
    else:
        source = open(args.input, "r", encoding="utf-8-sig")
    try:
        triples = parse_ntriples(source, strict=not args.lenient, errors=errors)
        config = storage.StoreConfig(args.store)
        report = storage.load_triples(config, triples)
    finally:
        if args.input == "-":
            source.detach()  # closing the wrapper would close stdin
        else:
            source.close()
    writer = csv.writer(sys.stdout)
    writer.writerow(["metric", "value"])
    writer.writerows(asdict(report).items())
    writer.writerow(["malformed_lines", len(errors)])
    for err in errors:
        print(f"skipped {err}", file=sys.stderr)
    return 0


def _cmd_query(args) -> int:
    store, view = _open_view(args)
    terms = parse_term(args.source), parse_term(args.target)
    source, target = map(store.resolve, terms)
    model = Model(args.model)
    result = shortest_path(view, source, target, model, args.max_dist)

    path = ""
    if result.found:
        path = "/".join(format_term(store.decode(n)) for n in result.resource_path)
    row = [
        # The lookups matched exactly these tokens.
        *map(format_term, terms),
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
    from . import semantics

    store = storage.open_store(args.store)
    result = semantics.entail_fixpoint(store, args.rules, _vocab(args), max_derived=args.max_derived)

    # Re-validate singleton uniqueness against the materialized view; derived
    # triples can turn a clean store into a violating one.
    violations = _singleton_violations(args, store, result.view)

    def emit(out) -> None:
        # Stored tokens are format_term output, so these are N-Triples lines;
        # derived triples share few distinct ids.
        token = cache(store.token)
        for s, p, o in result.view.delta:
            out.write(f"{token(s)} {token(p)} {token(o)} .\n")
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
    violations = _singleton_violations(args, store, view)
    writer = csv.writer(sys.stdout)
    writer.writerow(["property", "kind", "occurrences"])
    for v in violations:
        writer.writerow([store.token(v.property_id), v.kind.value, v.occurrences])
    return 0


def _cmd_bench(args) -> int:
    from . import harness

    store, view = _open_view(args)
    with open(args.pairs, "r", encoding="utf-8-sig") as f:
        pairs = harness.read_pairs_csv(f, store)
    report = harness.run_batch(
        view, pairs, Model(args.model), args.mode, workers=args.workers, max_dist=args.max_dist
    )
    if args.out == "-":
        report.write_csv(sys.stdout, store)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as f:
            report.write_csv(f, store)
    return 0


def _cmd_stats(args) -> int:
    store, view = _open_view(args)
    singletons = _singletons(args, store, view)
    triples = view.triple_count()
    writer = csv.writer(sys.stdout)
    writer.writerow(["metric", "value"])
    writer.writerow(["triples", triples])
    writer.writerow(["nodes", len(store.dictionary)])
    writer.writerow(["edges", 2 * triples])
    writer.writerow(["literals", len(store.dictionary.id_ranges()[1])])
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
