import contextlib
import csv
import gc
import inspect
import io
import operator
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from ldm3n import Literal, Model, Triple, dijkstra_ldm3n, dijkstra_nlan, forward_transform, shortest_path, traversal
from ldm3n.errors import Ldm3nError, UnknownNode, UnknownProperty
from ldm3n.harness import (
    GENERIC_POSITION_PROPERTY,
    BatchReport,
    ChainSpec,
    PairGroup,
    QueryRecord,
    chain_members,
    generate_pairs,
    generate_successor_chain,
    read_pairs_csv,
    run_batch,
)
from ldm3n.semantics import RDF_SINGLETON_PROPERTY_OF, Vocabulary

from conftest import EX, ex
from oracles import labeled_arc_distances, triple_node_distances

FIXTURE_VOCAB = Vocabulary().with_singleton(property_of=EX + "singletonPropOf")


def chain_store(make_store, spec: ChainSpec):
    return make_store(generate_successor_chain(spec))


# -- pair generation --------------------------------------------------------


def test_three_members_give_six_ordered_pairs(make_store):
    triples = []
    for i in range(3):
        sp = ex(f"sp{i}")
        triples.append(Triple(ex(f"pol{i}"), sp, ex("Position")))
        triples.append(Triple(sp, RDF_SINGLETON_PROPERTY_OF, ex("holdsPosition")))
    store = make_store(triples)
    groups = generate_pairs(store, store.resolve(ex("holdsPosition")))
    (group,) = groups
    assert len(group.members) == 3
    assert len(group.pairs) == 6
    m0, m1, m2 = group.members
    assert m0 < m1 < m2
    assert list(group.pairs) == [(m0, m1), (m0, m2), (m1, m0), (m1, m2), (m2, m0), (m2, m1)]


def test_pair_view_is_lazy_and_linear_in_members():
    tracemalloc.start()
    try:
        group = PairGroup.build(7, range(2, 6002, 2))
        pairs = group.pairs
        count = len(pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(group.members) == 3000
    assert count == 8_997_000
    assert not isinstance(pairs, list)
    assert peak < 1_000_000
    # Two passes yield the same sequence, of exactly len() pairs.
    assert sum(map(operator.eq, pairs, pairs)) == 8_997_000


def test_singleton_groups_are_dropped(succession_store):
    store = succession_store
    groups = generate_pairs(store, store.resolve(ex("holdsPos")), FIXTURE_VOCAB)
    assert groups == []  # each position is held by one politician only


def test_unknown_generic_property(succession_store):
    with pytest.raises(UnknownProperty):
        generate_pairs(succession_store, 424242, FIXTURE_VOCAB)


def test_reference_group_sizes_give_reference_pair_counts(make_store):
    spec = ChainSpec(groups=3, members=[22, 34, 51], seed=5)
    store = chain_store(make_store, spec)
    groups = generate_pairs(store, store.resolve(GENERIC_POSITION_PROPERTY))
    assert sorted(len(g.pairs) for g in groups) == [462, 1122, 2550]


# -- successor chains --------------------------------------------------------


def test_chain_generation_is_deterministic():
    spec = ChainSpec(groups=2, members=4, noise_triples=10, seed=42)
    assert generate_successor_chain(spec) == generate_successor_chain(spec)


def test_chain_distance_law_k6(make_store):
    spec = ChainSpec(groups=1, members=6, seed=1)
    store = chain_store(make_store, spec)
    members = [store.resolve(m) for m in chain_members(spec, 0)]
    assert dijkstra_ldm3n(store, members[0], members[5]).distance == 15
    for i in range(6):
        for j in range(6):
            result = dijkstra_ldm3n(store, members[i], members[j])
            if i < j:
                assert result.distance == 3 * (j - i)
            elif i > j:
                assert not result.found


def test_two_member_chain_is_the_basic_motif(make_store):
    spec = ChainSpec(groups=1, members=2, seed=2)
    store = chain_store(make_store, spec)
    m1, m2 = (store.resolve(m) for m in chain_members(spec, 0))
    assert dijkstra_ldm3n(store, m1, m2).distance == 3


def test_chains_unreachable_on_labeled_arc_model(make_store):
    spec = ChainSpec(groups=1, members=5, seed=3)
    store = chain_store(make_store, spec)
    members = [store.resolve(m) for m in chain_members(spec, 0)]
    for i in range(5):
        for j in range(5):
            if i != j:
                assert not dijkstra_nlan(store, members[i], members[j]).found


def test_noise_triples_do_not_perturb_chain_distances(make_store):
    clean = ChainSpec(groups=1, members=5, seed=4)
    noisy = ChainSpec(groups=1, members=5, noise_triples=200, seed=4)
    store_clean = chain_store(make_store, clean)
    store_noisy = chain_store(make_store, noisy)
    for spec, store in ((clean, store_clean), (noisy, store_noisy)):
        members = [store.resolve(m) for m in chain_members(spec, 0)]
        assert dijkstra_ldm3n(store, members[0], members[4]).distance == 12


# -- batches -----------------------------------------------------------------


def test_batch_reachability_counts_on_chain(make_store):
    spec = ChainSpec(groups=1, members=6, seed=6)
    store = chain_store(make_store, spec)
    (group,) = generate_pairs(store, store.resolve(GENERIC_POSITION_PROPERTY))
    assert len(group.pairs) == 30
    report = run_batch(store, group.pairs, Model.LDM3N, "reach")
    assert report.reachable_count == 15  # exactly the ascending pairs
    nlan_report = run_batch(store, group.pairs, Model.NLAN, "reach")
    assert nlan_report.reachable_count == 0


@contextlib.contextmanager
def collections_due(code, enabled: bool):
    """A collection due at every allocation, with the collector on or off:
    yields the count of passes that start with ``code`` on the stack
    ("inside") and without it ("outside"). Restores the collector after."""
    seen = {"inside": 0, "outside": 0}

    def count(phase, info):
        if phase == "start":
            frame = sys._getframe()
            while frame is not None and frame.f_code is not code:
                frame = frame.f_back
            seen["outside" if frame is None else "inside"] += 1

    was, threshold = gc.isenabled(), gc.get_threshold()
    (gc.enable if enabled else gc.disable)()
    gc.set_threshold(1)
    gc.callbacks.append(count)
    try:
        yield seen
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_no_collection_runs_inside_a_search(make_store, enabled):
    """With a collection due at every allocation, none starts anywhere in a
    batch: not in its searches, and not while it groups pairs, rebuilds
    paths or makes records; nor in the search of a lone ``shortest_path``.
    Each call leaves the collector on or off as it found it, a batch also
    when its pairs iterable raises part-way."""
    store = chain_store(make_store, ChainSpec(groups=1, members=12, seed=6))
    (group,) = generate_pairs(store, store.resolve(GENERIC_POSITION_PROPERTY))

    def pairs_then_fail():
        yield from list(group.pairs)[:40]
        raise OSError("pairs file went away")

    # The collector is enabled again after the frame of the code looked for
    # returns, so a pass that starts once that call is done never has it on
    # the stack.
    with collections_due(inspect.unwrap(run_batch).__code__, enabled) as seen:
        report = run_batch(store, group.pairs, Model.LDM3N, "spath")
        after = gc.isenabled()
        with pytest.raises(OSError, match="went away"):
            run_batch(store, pairs_then_fail(), Model.LDM3N, "spath")
        after_raise = gc.isenabled()
    assert report.reachable_count == 66
    assert after is enabled and after_raise is enabled
    assert seen["inside"] == 0
    assert (seen["outside"] > 0) is enabled  # the hook sees the collections there are

    with collections_due(inspect.unwrap(traversal._dijkstra).__code__, enabled) as seen:
        found = []
        for source, target in group.pairs:
            found.append(shortest_path(store, source, target, Model.LDM3N).found)
            assert gc.isenabled() is enabled
    assert found.count(True) == 66
    assert seen["inside"] == 0
    assert (seen["outside"] > 0) is enabled


def test_worker_count_invariance(make_store):
    spec = ChainSpec(groups=2, members=5, seed=8)
    store = chain_store(make_store, spec)
    pairs = [p for g in generate_pairs(store, store.resolve(GENERIC_POSITION_PROPERTY)) for p in g.pairs]
    solo = run_batch(store, pairs, Model.LDM3N, "spath", workers=1)
    pooled = run_batch(store, pairs, Model.LDM3N, "spath", workers=5)
    key = lambda r: (r.source, r.target, r.status, r.distance, tuple(r.path or ()), r.nodes_explored)
    assert [key(r) for r in solo.records] == [key(r) for r in pooled.records]
    assert solo.reachable_count == pooled.reachable_count
    assert list(solo.per_distance) == list(pooled.per_distance)
    assert [c for c, _ in solo.per_distance.values()] == [c for c, _ in pooled.per_distance.values()]
    out = io.StringIO()
    pooled.write_csv(out)
    assert " workers=5 " in out.getvalue().splitlines()[-1]


def test_report_aggregates_recompute_from_records(make_store):
    spec = ChainSpec(groups=1, members=5, seed=9)
    store = chain_store(make_store, spec)
    (group,) = generate_pairs(store, store.resolve(GENERIC_POSITION_PROPERTY))
    report = run_batch(store, group.pairs, Model.LDM3N, "spath")
    assert sum(c for c, _ in report.per_distance.values()) == report.reachable_count
    assert report.pair_count == len(group.pairs)
    for distance, (count, _mean) in report.per_distance.items():
        assert count == sum(
            1 for r in report.records if r.status == "found" and r.distance == distance
        )


def test_batch_records_per_query_errors(make_store):
    store = make_store([Triple(ex("a"), ex("p"), ex("b"))])
    a = store.resolve(ex("a"))
    report = run_batch(store, [(a, a), (a, 424242)], Model.LDM3N, "reach")
    statuses = [r.status for r in report.records]
    assert statuses.count("error") == 1
    assert report.reachable_count == 1


def test_report_csv_shape(make_store):
    spec = ChainSpec(groups=1, members=3, seed=10)
    store = chain_store(make_store, spec)
    (group,) = generate_pairs(store, store.resolve(GENERIC_POSITION_PROPERTY))
    report = run_batch(store, group.pairs, Model.LDM3N, "spath")
    out = io.StringIO()
    report.write_csv(out, store.dictionary)
    lines = out.getvalue().splitlines()
    assert lines[0] == "source,target,model,status,distance,nodes_explored,elapsed_ms,path"
    assert lines[-1].startswith("# summary: pairs=6 reachable=3")
    assert any(line.startswith("# distance 3:") for line in lines)


GOLDEN_PATHS = {
    (1, 2): "<C:politician/0/1>/<C:holdsPos/0/1>/<C:hasSuccessor>/<C:politician/0/2>",
    (1, 3): "<C:politician/0/1>/<C:holdsPos/0/1>/<C:hasSuccessor>/<C:politician/0/2>"
    "/<C:holdsPos/0/2>/<C:hasSuccessor>/<C:politician/0/3>",
    (2, 2): "<C:politician/0/2>",
    (2, 3): "<C:politician/0/2>/<C:holdsPos/0/2>/<C:hasSuccessor>/<C:politician/0/3>",
}

GOLDEN_REPORT = """\
source,target,model,status,distance,nodes_explored,elapsed_ms,path\r
0,<C:politician/0/2>,ldm3n,error,,0,-,source id 0 was never issued\r
<C:politician/0/1>,<C:politician/0/2>,ldm3n,found,3,7,-,{1,2}\r
<C:politician/0/1>,<C:politician/0/3>,ldm3n,found,6,9,-,{1,3}\r
<C:politician/0/1>,<C:politician/0/3>,ldm3n,found,6,9,-,{1,3}\r
<C:politician/0/2>,<C:politician/0/1>,ldm3n,unreachable,,8,-,\r
<C:politician/0/2>,<C:politician/0/2>,ldm3n,found,0,1,-,{2,2}\r
<C:politician/0/2>,<C:politician/0/3>,ldm3n,found,3,7,-,{2,3}\r
<C:politician/0/3>,<C:politician/0/1>,ldm3n,unreachable,,5,-,\r
<C:politician/0/3>,<C:politician/0/2>,ldm3n,unreachable,,5,-,\r
<C:politician/0/3>,424242,ldm3n,error,,0,-,target id 424242 was never issued\r
# distance 0: count=1 mean_ms=-
# distance 3: count=2 mean_ms=-
# distance 6: count=2 mean_ms=-
# summary: pairs=10 reachable=5 total_ms=- avg_ms=- workers=1 model=ldm3n mode={mode}
"""


# The literal token "a, \"b\"" as a quoted CSV field, its quotes doubled.
QUOTED_LITERAL = '"""a, \\""b\\"""""'

QUOTED_PATHS = {
    (1, 1): QUOTED_LITERAL,
    (2, 1): '"<E:s>/<E:q>/<E:x,y>/<E:p>/""a, \\""b\\"""""',
    (2, 3): '"<E:s>/<E:q>/<E:x,y>"',
    (3, 1): '"<E:x,y>/<E:p>/""a, \\""b\\"""""',
}

# Endpoints and paths that hold the literal or an IRI with a comma: each
# such field is quoted. {L} is the literal's field.
QUOTED_REPORT = """\
source,target,model,status,distance,nodes_explored,elapsed_ms,path\r
{L},{L},ldm3n,found,0,1,-,{1,1}\r
{L},<E:s>,ldm3n,unreachable,,1,-,\r
<E:s>,{L},ldm3n,found,4,5,-,{2,1}\r
<E:s>,"<E:x,y>",ldm3n,found,2,3,-,{2,3}\r
"<E:x,y>",{L},ldm3n,found,2,3,-,{3,1}\r
# distance 0: count=1 mean_ms=-
# distance 2: count=2 mean_ms=-
# distance 4: count=1 mean_ms=-
# summary: pairs=5 reachable=4 total_ms=- avg_ms=- workers=1 model=ldm3n mode={mode}
"""


def cut_timing(text: str) -> str:
    """Report text with each row's ``elapsed_ms`` and the trailer timings
    replaced by ``-``. No token in these corpora holds ``,<digits>.<3 digits>,``."""
    text = re.sub(r",\d+\.\d{3},", ",-,", text)
    return re.sub(r"(mean_ms|total_ms|avg_ms)=\d+\.\d{3}", r"\1=-", text)


def golden(template: str, paths: dict, mode: str) -> str:
    return re.sub(
        r"\{(\d),(\d)\}",
        lambda m: paths[int(m[1]), int(m[2])] if mode == "spath" else "",
        template.replace("{mode}", mode),
    )


@pytest.mark.parametrize("mode", ["spath", "reach"])
def test_report_csv_golden(make_store, mode):
    # Row order, line ends, quoting and the trailer, with every timing cut.
    spec = ChainSpec(groups=1, members=3, seed=10)
    store = chain_store(make_store, spec)
    (group,) = generate_pairs(store, store.resolve(GENERIC_POSITION_PROPERTY))
    m1, m2, m3 = group.members
    pairs = [*group.pairs, (m2, m2), (m1, m3), (0, m2), (m3, 424242)]
    out = io.StringIO()
    run_batch(store, pairs, Model.LDM3N, mode).write_csv(out, store)
    expected = golden(GOLDEN_REPORT, GOLDEN_PATHS, mode)
    assert cut_timing(out.getvalue()) == expected.replace("<C:", "<http://example.org/chain/")

    label = Literal('a, "b"')
    store = make_store([Triple(ex("s"), ex("q"), ex("x,y")), Triple(ex("x,y"), ex("p"), label)])
    s, xy, lit = (store.resolve(t) for t in (ex("s"), ex("x,y"), label))
    out = io.StringIO()
    run_batch(store, [(s, lit), (s, xy), (xy, lit), (lit, s), (lit, lit)], Model.LDM3N, mode).write_csv(out, store)
    expected = golden(QUOTED_REPORT, QUOTED_PATHS, mode).replace("{L}", QUOTED_LITERAL)
    assert cut_timing(out.getvalue()) == expected.replace("<E:", "<http://example.org/")


# a's search tree branches at p, and again at b. In row order only q's path
# extends the path before it; every other path is joined in full.
BRANCHING_REPORT = """\
source,target,model,status,distance,nodes_explored,elapsed_ms,path\r
<E:a>,<E:b>,ldm3n,found,3,5,-,<E:a>/<E:p>/<E:q>/<E:b>\r
<E:a>,<E:c>,ldm3n,found,3,6,-,<E:a>/<E:p>/<E:r>/<E:c>\r
<E:a>,<E:d>,ldm3n,found,5,8,-,<E:a>/<E:p>/<E:q>/<E:b>/<E:s>/<E:d>\r
<E:a>,<E:p>,ldm3n,found,1,2,-,<E:a>/<E:p>\r
<E:a>,<E:q>,ldm3n,found,2,3,-,<E:a>/<E:p>/<E:q>\r
<E:a>,<E:r>,ldm3n,found,2,4,-,<E:a>/<E:p>/<E:r>\r
<E:a>,<E:s>,ldm3n,found,4,7,-,<E:a>/<E:p>/<E:q>/<E:b>/<E:s>\r
# distance 1: count=1 mean_ms=-
# distance 2: count=2 mean_ms=-
# distance 3: count=2 mean_ms=-
# distance 4: count=1 mean_ms=-
# distance 5: count=1 mean_ms=-
# summary: pairs=7 reachable=7 total_ms=- avg_ms=- workers=1 model=ldm3n mode=spath
"""


def test_report_csv_golden_on_a_branching_tree(make_store):
    store = make_store([
        Triple(ex("a"), ex("p"), ex("p")), Triple(ex("p"), ex("q"), ex("b")),
        Triple(ex("p"), ex("r"), ex("c")), Triple(ex("b"), ex("s"), ex("d")),
    ])
    a = store.resolve(ex("a"))
    out = io.StringIO()
    run_batch(store, [(a, store.resolve(ex(n))) for n in "srqpdcb"], Model.LDM3N, "spath").write_csv(out, store)
    assert cut_timing(out.getvalue()) == BRANCHING_REPORT.replace("<E:", "<http://example.org/")


class TokenTable:
    """Ids 1..n issued, each rendered as an arbitrary token."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens

    def is_issued(self, term_id: int) -> bool:
        return 1 <= term_id <= len(self.tokens)

    def token(self, term_id: int) -> str:
        return self.tokens[term_id - 1]


# Text that often holds what CSV must quote, and often does not.
csv_text = st.text(st.one_of(st.sampled_from(',"\r\n/ '), st.characters()), max_size=8)
# Tokens that CSV never quotes, and tokens that it always does.
plain_text = st.text(st.characters(blacklist_characters=',"\r\n'), max_size=8)
quoted_text = st.tuples(plain_text, st.sampled_from(',"\r\n'), plain_text).map("".join)


@st.composite
def reports(draw):
    """Records whose paths extend, repeat, shorten, diverge from or rejoin the
    last path drawn, with quoting characters in the shared prefix only, in the
    tail only, or nowhere, and error and unreachable rows among them, under
    one model drawn for the whole report."""
    model = draw(st.sampled_from(Model))
    tokens = draw(st.permutations(
        draw(st.lists(plain_text, min_size=1, max_size=4)) + draw(st.lists(quoted_text, min_size=1, max_size=3))
    ))
    ids = st.integers(0, len(tokens) + 1)  # 0 and len + 1 were never issued
    quoted = [i for i, t in enumerate(tokens, 1) if re.search('[,"\r\n]', t)]
    plain = [i for i in range(len(tokens) + 2) if i not in quoted]
    run = st.sampled_from([plain, quoted, plain + quoted]).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    records: list[QueryRecord] = []
    last: list[int] = []
    for _ in range(draw(st.integers(0, 8))):
        record = draw(st.builds(
            QueryRecord,
            source=ids,
            target=ids,
            status=st.sampled_from(["found", "unreachable", "error"]),
            distance=st.none() | st.integers(0, 10**6),
            nodes_explored=st.integers(0, 10**6),
            elapsed_ms=st.floats(0, 1e6),
            path=st.none(),
        ))
        step = draw(st.sampled_from(
            ["extend", "repeat", "shorten", "diverge", "rejoin", "fresh", "unreachable", "error"]
        ))
        if step == "error":
            record.error = draw(csv_text)
            record.path = draw(st.none() | st.just(last))  # an error field wins over any path
        elif step == "repeat" and records:
            # A duplicate pair: the batch hands out the same list again.
            record.source, record.target = records[-1].source, records[-1].target
            record.path = draw(st.sampled_from([last, list(last)]))
        elif step == "shorten" and len(last) > 1:
            record.path = last[: draw(st.integers(1, len(last) - 1))]
        elif step == "extend" and last:
            record.path = last + draw(run)
        elif step == "diverge" and last:
            record.path = last[: draw(st.integers(0, len(last) - 1))] + draw(run)
        elif step == "rejoin" and len(last) > 1:
            # Other ids up to the last path's end, then on past it.
            others = draw(st.lists(ids, min_size=len(last) - 1, max_size=len(last) - 1))
            record.path = others + last[-1:] + draw(run)
        elif step != "unreachable":
            record.path = draw(run)
        if record.path and record.error is None:
            last = record.path
        records.append(record)
    return TokenTable(tokens), BatchReport(model, "spath", 1, records, 0.0)


@given(reports())
def test_report_rows_equal_csv_writer_rows(drawn):
    # Rows that need no quoting skip csv.writer; the bytes must not show it.
    table, report = drawn
    name = lambda n: table.token(n) if table.is_issued(n) else str(n)
    ref = io.StringIO()
    writer = csv.writer(ref)
    writer.writerow(["source", "target", "model", "status", "distance", "nodes_explored", "elapsed_ms", "path"])
    writer.writerows(
        [name(r.source), name(r.target), report.model.value, r.status, r.distance, r.nodes_explored,
         f"{r.elapsed_ms:.3f}", r.error if r.error is not None else "/".join(map(name, r.path or []))]
        for r in report.records
    )
    out = io.StringIO()
    report.write_csv(out, table)
    text, want = out.getvalue(), ref.getvalue()
    assert text[: len(want)] == want
    assert text[len(want) :].startswith("# summary: ") and text[len(want) :].count("\n") == 1


# -- one search per source against one search per pair ----------------------


def batch_corpus(make_store):
    """A noisy chain corpus plus a literal label on every member, and the
    pairs to ask of it: every group pair, noise edges, self-pairs,
    duplicates, literal endpoints and never-issued ids."""
    spec = ChainSpec(groups=2, members=5, noise_triples=80, seed=31)
    triples = generate_successor_chain(spec)
    members = [m for g in range(spec.groups) for m in chain_members(spec, g)]
    triples += [Triple(m, ex("label"), Literal(f"m{i}")) for i, m in enumerate(members)]
    store = make_store(triples)
    ids = [store.resolve(m) for m in members]
    lits = [store.resolve(Literal(f"m{i}")) for i in range(3)]
    pairs = [p for g in generate_pairs(store, store.resolve(GENERIC_POSITION_PROPERTY)) for p in g.pairs]
    noise = [(s, o) for s, _, o in store.iter_triples() if s not in ids][:20]
    pairs += noise + [(noise[0][0], o) for _, o in noise]
    pairs += [(ids[0], ids[0]), (ids[0], ids[3]), (ids[0], ids[3]), (lits[0], lits[0])]
    pairs += [(ids[1], lits[1]), (ids[1], lits[2]), (lits[1], ids[1])]
    pairs += [(0, ids[2]), (ids[2], 0), (424242, ids[2]), (ids[2], 424242), (0, 0)]
    return store, triples, pairs


def shared_prefix_corpus(make_store):
    """``(a, p, p), (p, q, b)`` and a branch ``(p, r, c)``, with every node
    past ``a`` asked of ``a``: ``p`` is entered as a predicate and then
    expanded as a subject, so it starts a path prefix the targets share."""
    triples = [Triple(ex("a"), ex("p"), ex("p")), Triple(ex("p"), ex("q"), ex("b")), Triple(ex("p"), ex("r"), ex("c"))]
    store = make_store(triples)
    a, p, q, b, c = (store.resolve(ex(n)) for n in "apqbc")
    return store, triples, [(a, p), (a, q), (a, b), (a, c)]


def per_pair_rows(store, pairs, model, max_dist=None):
    """The reference: one ``shortest_path`` call per pair, in a plain loop."""
    rows = []
    for source, target in pairs:
        try:
            r = shortest_path(store, source, target, model, max_dist)
        except Ldm3nError as exc:
            rows.append((source, target, "error", None, None, 0, str(exc)))
            continue
        rows.append((source, target, r.status.value, r.distance, r.resource_path, r.nodes_explored, None))
    return sorted(rows, key=lambda row: row[:2])  # stable: duplicates keep input order


def batch_rows(report):
    return [
        (r.source, r.target, r.status, r.distance, r.path, r.nodes_explored, r.error)
        for r in report.records
    ]


@pytest.mark.parametrize("model", [Model.LDM3N, Model.NLAN])
@pytest.mark.parametrize("max_dist,workers", [(None, 1), (None, 3), (6, 1), (2, 1)])
def test_per_source_batch_equals_per_pair_search(make_store, model, max_dist, workers):
    for corpus in (shared_prefix_corpus, batch_corpus):
        store, _, pairs = corpus(make_store)
        report = run_batch(store, pairs, model, "spath", workers=workers, max_dist=max_dist)
        rows = batch_rows(report)
        assert rows == per_pair_rows(store, pairs, model, max_dist)
        assert len(rows) == len(pairs)
        assert all(len(row[4]) == row[3] + 1 for row in rows if row[2] == "found")
    statuses = {row[2] for row in rows}
    assert statuses >= {"found", "error"}
    if max_dist == 6 and model is Model.LDM3N:
        assert "unreachable" in statuses  # the bound cuts the longer chain pairs
    assert [row[6] for row in rows if row[:2] == (0, 0)] == ["source id 0 was never issued"]


@pytest.mark.parametrize("model", [Model.LDM3N, Model.NLAN])
def test_per_source_batch_distances_match_oracles(make_store, model):
    store, triples, pairs = batch_corpus(make_store)
    report = run_batch(store, pairs, model, "spath")
    if model is Model.LDM3N:
        g = forward_transform(triples, dictionary=store.dictionary)
        oracle = lambda source: triple_node_distances(g, source)
    else:
        encoded = list(store.iter_triples())
        oracle = lambda source: labeled_arc_distances(encoded, source)
    checked = 0
    for r in report.records:
        if r.status == "error":
            assert not (store.is_issued(r.source) and store.is_issued(r.target))
            continue
        assert r.distance == oracle(r.source).get(r.target)
        checked += r.status == "found"
    assert checked > len(pairs) // 10


def test_reach_batch_equals_spath_without_paths(make_store):
    store, _, pairs = batch_corpus(make_store)
    spath = run_batch(store, pairs, Model.LDM3N, "spath")
    reach = run_batch(store, pairs, Model.LDM3N, "reach")
    assert all(r.path is None for r in reach.records)
    assert any(r.path for r in spath.records)
    assert [row[:4] + row[5:] for row in batch_rows(reach)] == [
        row[:4] + row[5:] for row in batch_rows(spath)
    ]
    out = io.StringIO()
    reach.write_csv(out, store.dictionary)
    rows = list(csv.reader(line for line in out.getvalue().splitlines()[1:] if not line.startswith("#")))
    assert len(rows) == len(pairs)
    assert all(row[7] == "" for row in rows if row[3] != "error")


def test_read_pairs_csv_accepts_bare_and_token_forms(make_store):
    store = make_store([Triple(ex("a"), ex("p"), ex("b"))])
    a, b = store.resolve(ex("a")), store.resolve(ex("b"))
    text = f"source_iri,target_iri\n{EX}a,{EX}b\n<{EX}b>,<{EX}a>\n"
    pairs = read_pairs_csv(io.StringIO(text), store)
    assert pairs == [(a, b), (b, a)]
    with pytest.raises(UnknownNode, match=f"pairs line 4: term not in store: <{EX}missing>"):
        read_pairs_csv(io.StringIO(text + f"{EX}a,{EX}missing\n"), store)


def test_read_pairs_csv_resolves_each_distinct_cell_once(make_store, monkeypatch):
    store = make_store([Triple(ex("a"), ex("p"), ex("b"))])
    a, b = store.resolve(ex("a")), store.resolve(ex("b"))
    resolved = []
    resolve = store.resolve
    monkeypatch.setattr(store, "resolve", lambda term: resolved.append(term) or resolve(term))
    text = f"{EX}a,{EX}b\n{EX}b,{EX}a\n <{EX}a>,{EX}b \n{EX}a,{EX}b\n"
    assert read_pairs_csv(io.StringIO(text), store) == [(a, b), (b, a), (a, b), (a, b)]
    # The token form of a is a cell of its own.
    assert resolved == [ex("a"), ex("b"), ex("a")]


@pytest.mark.parametrize(
    ("row", "reason"),
    [(f"<{EX}a,{EX}b", "unterminated IRI"), (f",{EX}b", "IRI must be non-empty"),
     (f"{EX}a", "pair row needs two columns")],
    ids=["malformed_cell", "empty_cell", "one_column"],
)
def test_read_pairs_csv_errors_name_their_line(make_store, row, reason):
    store = make_store([Triple(ex("a"), ex("p"), ex("b"))])
    text = f"source_iri,target_iri\n{EX}a,{EX}b\n{row}\n"
    with pytest.raises(ValueError, match=f"^pairs line 3: {reason}"):
        read_pairs_csv(io.StringIO(text), store)
