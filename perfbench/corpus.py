"""Seeded input corpora for the benchmark, and the answers expected on them.

Run as a child process, so the memory spent on generating inputs and on the
independent oracles never counts towards the program's peak RSS:

    python3 perfbench/corpus.py {cli,chain} --seed N --out DIR [--scale F]

Each kind writes ``DIR/corpus.nt`` and ``DIR/expect.json``. Nothing here
imports the program: the expected answers come from how the corpus was
built (chain laws, schema closure, injected violations).
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

NS = "http://example.org/bench/"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"

SINGLETON_OF = f"<{RDF}singletonPropertyOf>"
RDF_TYPE = f"<{RDF}type>"
LABEL = f"<{RDFS}label>"
SUB_PROPERTY_OF = f"<{RDFS}subPropertyOf>"
SUB_CLASS_OF = f"<{RDFS}subClassOf>"
DOMAIN = f"<{RDFS}domain>"
RANGE = f"<{RDFS}range>"

HOLDS_POSITION = f"<{NS}holdsPosition>"
HAS_SUCCESSOR = f"<{NS}hasSuccessor>"
RELATED_TO = f"<{NS}relatedTo>"
TENURE = f"<{NS}class/Tenure>"
# rdfs:range of hasSuccessor is the foot of the ladder; each rung is a
# subClassOf triple, so a typed successor inherits every class above it.
LADDER = [f"<{NS}class/{name}>" for name in ("Successor", "Officeholder", "Person", "Agent")]

# Group sizes of the chain_groups corpus. Fixed, so every seed asks the same
# number of pairs of the same lengths; the seed moves names, order and noise.
CHAIN_GROUP_SIZES = (6, 10, 14, 18, 22, 26, 30, 34, 38, 42)


def member(g: int, i: int) -> str:
    return f"<{NS}m/{g}/{i}>"


def singleton(g: int, i: int) -> str:
    return f"<{NS}sp/{g}/{i}>"


def position(g: int) -> str:
    return f"<{NS}pos/{g}>"


def chain_triples(g: int, k: int) -> list[tuple[str, str, str]]:
    """Succession motif: member i holds position g through its own singleton
    property sp_i, and sp_i carries the successor link to member i+1."""
    out = []
    for i in range(1, k + 1):
        out.append((member(g, i), singleton(g, i), position(g)))
        out.append((singleton(g, i), SINGLETON_OF, HOLDS_POSITION))
        if i < k:
            out.append((singleton(g, i), HAS_SUCCESSOR, member(g, i + 1)))
    return out


def noise_triples(rng: random.Random, n: int) -> list[tuple[str, str, str]]:
    """Bipartite noise in its own namespace: never touches a chain."""
    return [
        (
            f"<{NS}noise/s/{rng.randrange(n)}>",
            f"<{NS}noise/p/{rng.randrange(16)}>",
            f"<{NS}noise/o/{rng.randrange(n)}>",
        )
        for _ in range(n)
    ]


def write_nt(path: Path, triples) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(f"{s} {p} {o} .\n" for s, p, o in triples)


def load_counts(lines: list[tuple[str, str, str]]) -> dict[str, int]:
    """What ``ldm3n load`` must report for these lines."""
    distinct = set(lines)
    terms = {t for triple in distinct for t in triple}
    return {
        "triples": len(distinct),
        "distinct_terms": len(terms),
        "duplicates": len(lines) - len(distinct),
        "literals": sum(1 for t in terms if t.startswith('"')),
        "malformed_lines": 0,
    }


# -- cli_lifecycle ---------------------------------------------------------


def make_cli(rng: random.Random, scale: float) -> tuple[list, dict]:
    """About 100k lines at scale 1: chains, noise, an RDFS schema, labels,
    injected singleton violations and a few repeated lines."""
    groups = max(4, round(100 * scale))
    lines: list[tuple[str, str, str]] = []
    # Chain lengths 30..70, the same multiset for every seed, so every seed
    # derives the same number of triples.
    sizes = [30 + g * 41 // groups for g in range(groups)]
    rng.shuffle(sizes)
    for g, k in enumerate(sizes):
        lines.extend(chain_triples(g, k))
        lines.append((position(g), LABEL, f'"Position {g}"'))
    schema = [
        (HAS_SUCCESSOR, SUB_PROPERTY_OF, RELATED_TO),
        (HAS_SUCCESSOR, DOMAIN, TENURE),
        (HAS_SUCCESSOR, RANGE, LADDER[0]),
    ] + [(LADDER[r], SUB_CLASS_OF, LADDER[r + 1]) for r in range(len(LADDER) - 1)]
    lines.extend(schema)
    violations = []
    for v in range(7):
        prop = f"<{NS}vio/{v}>"
        violations.append(prop)
        lines.append((prop, SINGLETON_OF, HOLDS_POSITION))
        lines.append((f"<{NS}vio/{v}/a>", prop, f"<{NS}vio/pos>"))
        lines.append((f"<{NS}vio/{v}/b>", prop, f"<{NS}vio/pos>"))
    chain_count = len(lines)
    lines.extend(noise_triples(rng, max(100, round(100_000 * scale)) - chain_count))
    lines.extend(rng.sample(lines, 25))  # exact repeats, counted as duplicates
    rng.shuffle(lines)

    derived = set()
    for g, k in enumerate(sizes):
        for i in range(1, k):
            derived.add((singleton(g, i), RELATED_TO, member(g, i + 1)))
            derived.add((singleton(g, i), RDF_TYPE, TENURE))
            for cls in LADDER:
                derived.add((member(g, i + 1), RDF_TYPE, cls))

    # Fixed spath calls, each run with --with-derived: one per model, each
    # reaching its target only through a derived typing triple. Two calls
    # keep a round short, so a run spans five rounds (the chain law itself
    # is chain_groups' to check).
    big = max(range(groups), key=lambda g: (sizes[g], -g))
    k = sizes[big]
    queries = [
        ("nlan", member(big, 2), LADDER[-1], 1, [member(big, 2), LADDER[-1]]),
        ("ldm3n", member(big, k), LADDER[-1], 2, [member(big, k), RDF_TYPE, LADDER[-1]]),
    ]
    expect = {
        "load": load_counts(lines),
        "derived": sorted(" ".join(t) for t in derived),
        "violations": sorted(violations),
        "queries": queries,
    }
    return lines, expect


# -- chain_groups ----------------------------------------------------------


def make_chain(rng: random.Random, scale: float) -> tuple[list, dict]:
    """Chains of fixed sizes in a seeded order, inside seeded noise that
    keeps the store several times larger than what the queries touch."""
    sizes = list(CHAIN_GROUP_SIZES)
    rng.shuffle(sizes)
    lines: list[tuple[str, str, str]] = []
    for g, k in enumerate(sizes):
        lines.extend(chain_triples(g, k))
    lines.extend(noise_triples(rng, max(100, round(60_000 * scale))))
    rng.shuffle(lines)
    return lines, {"load": load_counts(lines), "sizes": sizes}


MAKERS = {"cli": make_cli, "chain": make_chain}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("kind", choices=sorted(MAKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args()
    lines, expect = MAKERS[args.kind](random.Random(args.seed), args.scale)
    args.out.mkdir(parents=True, exist_ok=True)
    write_nt(args.out / "corpus.nt", lines)
    (args.out / "expect.json").write_text(json.dumps(expect), encoding="utf-8")


if __name__ == "__main__":
    main()
