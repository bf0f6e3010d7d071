import csv
import hashlib
import io
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from ldm3n import serialize_ntriples
from ldm3n.cli import main

import layout
from conftest import EX, succession_triples


@pytest.fixture
def fixture_nt(tmp_path):
    path = tmp_path / "succession.nt"
    path.write_text(serialize_ntriples(succession_triples()), encoding="utf-8")
    return path


@pytest.fixture
def loaded_store(tmp_path, fixture_nt, capsys):
    store = tmp_path / "store"
    assert main(["load", "--store", str(store), "--input", str(fixture_nt)]) == 0
    capsys.readouterr()
    return store


def test_load_reports_counts(tmp_path, fixture_nt, capsys):
    store = tmp_path / "s"
    code = main(["load", "--store", str(store), "--input", str(fixture_nt)])
    out = capsys.readouterr().out
    assert code == 0
    assert "triples,6" in out
    assert "distinct_terms,10" in out


def test_load_from_stdin_matches_load_from_file(tmp_path, fixture_nt, capsys, monkeypatch):
    assert main(["load", "--store", str(tmp_path / "file"), "--input", str(fixture_nt)]) == 0
    from_file = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(fixture_nt.read_bytes()), encoding="utf-8"))
    assert main(["load", "--store", str(tmp_path / "stdin"), "--input", "-"]) == 0
    assert capsys.readouterr().out == from_file
    assert not sys.stdin.closed
    assert (tmp_path / "stdin" / "base").read_bytes() == (tmp_path / "file" / "base").read_bytes()


def test_load_from_stdin_reads_utf8_whatever_the_locale(tmp_path):
    # Under a Latin-1 stdin, "é" read in the locale's encoding would be
    # stored as the two characters of its UTF-8 bytes.
    nt = tmp_path / "cafe.nt"
    nt.write_bytes(f'<{EX}a> <{EX}p> "café" .\n'.encode("utf-8"))
    env = dict(os.environ, PYTHONIOENCODING="latin-1",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for name, source, stdin in (("file", str(nt), None), ("stdin", "-", nt.read_bytes())):
        load = [sys.executable, "-m", "ldm3n.cli", "load", "--store", str(tmp_path / name), "--input", source]
        subprocess.run(load, input=stdin, env=env, capture_output=True, check=True)
    assert (tmp_path / "stdin" / "base").read_bytes() == (tmp_path / "file" / "base").read_bytes()


def test_load_accepts_a_byte_order_mark(tmp_path, fixture_nt, capsys, monkeypatch):
    bom = tmp_path / "bom.nt"
    bom.write_bytes(b"\xef\xbb\xbf" + fixture_nt.read_bytes())
    assert main(["load", "--store", str(tmp_path / "plain"), "--input", str(fixture_nt)]) == 0
    assert main(["load", "--store", str(tmp_path / "file"), "--input", str(bom)]) == 0
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(bom.read_bytes()), encoding="utf-8"))
    assert main(["load", "--store", str(tmp_path / "stdin"), "--input", "-"]) == 0
    digest = lambda name: hashlib.sha256(layout.canonical(tmp_path / name / "base")).hexdigest()
    assert digest("file") == digest("stdin") == digest("plain")


def test_load_lenient_counts_bad_lines(tmp_path, capsys):
    nt = tmp_path / "bad.nt"
    nt.write_text(f"<{EX}a> <{EX}p> <{EX}b> .\njunk line\n", encoding="utf-8")
    store = tmp_path / "s"
    code = main(["load", "--store", str(store), "--input", str(nt), "--lenient"])
    captured = capsys.readouterr()
    assert code == 0
    assert "malformed_lines,1" in captured.out
    assert "skipped" in captured.err


def test_load_strict_fails_on_bad_line(tmp_path, capsys):
    nt = tmp_path / "bad.nt"
    nt.write_text("junk line\n", encoding="utf-8")
    code = main(["load", "--store", str(tmp_path / "s"), "--input", str(nt)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_load_rejects_lone_surrogate_escapes(tmp_path, capsys):
    nt = tmp_path / "surrogate.nt"
    nt.write_text(
        f'<{EX}a> <{EX}p> <{EX}b> .\n<{EX}a> <{EX}q> "x\\uD800y" .\n<{EX}b> <{EX}p> "z" .\n',
        encoding="utf-8",
    )
    code = main(["load", "--store", str(tmp_path / "strict"), "--input", str(nt)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: line 2: bad \\u escape: 'D800'")

    store = tmp_path / "lenient"
    code = main(["load", "--store", str(store), "--input", str(nt), "--lenient"])
    captured = capsys.readouterr()
    assert code == 0
    assert "triples,2" in captured.out and "malformed_lines,1" in captured.out
    assert "skipped line 2" in captured.err
    assert stats_triples(store, capsys) == "triples,2"


def test_load_rejects_datatypes_that_are_not_iris(tmp_path, capsys):
    nt = tmp_path / "datatype.nt"
    nt.write_text(
        f'<{EX}a> <{EX}p> <{EX}b> .\n<{EX}a> <{EX}p> "v"^^<http://x{{y> .\n<{EX}a> <{EX}p> "v"^^<> .\n',
        encoding="utf-8",
    )
    code = main(["load", "--store", str(tmp_path / "strict"), "--input", str(nt)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: line 2: IRI contains forbidden character '{'")

    store = tmp_path / "lenient"
    code = main(["load", "--store", str(store), "--input", str(nt), "--lenient"])
    captured = capsys.readouterr()
    assert code == 0
    assert "triples,1" in captured.out and "malformed_lines,2" in captured.out
    assert "skipped line 3: IRI must be non-empty" in captured.err
    assert stats_triples(store, capsys) == "triples,1"


def test_load_rejects_non_hex_escapes(tmp_path, capsys):
    nt = tmp_path / "nonhex.nt"
    nt.write_text(
        f'<{EX}a> <{EX}p> <{EX}b> .\n<{EX}a> <{EX}q> "\\u 041" .\n'
        f'<{EX}a> <{EX}q> "\\u+041" .\n<{EX}a> <{EX}q> "\\U0000_041" .\n<{EX}b> <{EX}p> "\\u0041" .\n',
        encoding="utf-8",
    )
    code = main(["load", "--store", str(tmp_path / "strict"), "--input", str(nt)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: line 2: bad \\u escape: ' 041'")

    store = tmp_path / "lenient"
    code = main(["load", "--store", str(store), "--input", str(nt), "--lenient"])
    captured = capsys.readouterr()
    assert code == 0
    assert "triples,2" in captured.out and "malformed_lines,3" in captured.out
    assert [line.split(":")[0] for line in captured.err.splitlines()] == [
        "skipped line 2", "skipped line 3", "skipped line 4"
    ]
    assert stats_triples(store, capsys) == "triples,2"


def test_spath_golden(loaded_store, capsys):
    code = main([
        "spath", "--store", str(loaded_store), "--model", "ldm3n",
        "--source", f"<{EX}BillClinton>", "--target", f"<{EX}GeorgeWBush>",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert ",found,3,9," in out
    assert (
        f"<{EX}BillClinton>/<{EX}holdsPos#1>/<{EX}hasSuccessor>/<{EX}GeorgeWBush>" in out
    )


def test_spath_unreachable_is_a_valid_answer(loaded_store, capsys):
    code = main([
        "spath", "--store", str(loaded_store), "--model", "nlan",
        "--source", f"<{EX}BillClinton>", "--target", f"<{EX}GeorgeWBush>",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert ",unreachable,,3," in out


def test_spath_unknown_term_exits_one(loaded_store, capsys):
    code = main([
        "spath", "--store", str(loaded_store), "--model", "ldm3n",
        "--source", f"<{EX}nobody>", "--target", f"<{EX}GeorgeWBush>",
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_usage_error_exits_two(loaded_store, tmp_path, capsys):
    store = ["--store", str(loaded_store)]
    # Source is target, which a search finds at distance 0 under any bound
    # of at least 0.
    query = [*store, "--model", "ldm3n", "--source", f"<{EX}BillClinton>", "--target", f"<{EX}BillClinton>"]
    bench = ["bench", *store, "--mode", "spath", "--model", "ldm3n", "--pairs", str(tmp_path / "missing.csv")]
    for argv in (
        ["spath", *store, "--model", "wrong", "--source", "<x>", "--target", "<y>"],
        ["spath", *query, "--max-dist", "-1"],
        ["reach", *query, "--max-dist", "-1"],
        [*bench, "--max-dist", "-1"],
        [*bench, "--workers", "0"],
        [*bench, "--workers", "-3"],
        ["entail", *store, "--max-derived", "-1"],
        ["entail", *store, "--rules", "rdfs5, rdfs99"],
        ["entail", "--store", str(tmp_path / "missing"), "--rules", "rdfs99"],
        ["load", "--store", str(tmp_path / "s"), "--input", str(tmp_path / "missing.nt"), "--index-kind", "hash"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "usage: ldm3n" in captured.err


def test_corrupt_store_exits_three(loaded_store, capsys):
    base = loaded_store / "base"
    base.write_bytes(b"GARBAGE" + base.read_bytes()[7:])
    code = main([
        "spath", "--store", str(loaded_store), "--model", "ldm3n",
        "--source", f"<{EX}BillClinton>", "--target", f"<{EX}GeorgeWBush>",
    ])
    assert code == 3


def test_query_output_is_byte_stable(loaded_store, capsys):
    argv = [
        "reach", "--store", str(loaded_store), "--model", "ldm3n",
        "--source", f"<{EX}BillClinton>", "--target", f"<{EX}FrankWhite>",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "reachable" in first


def test_timing_flag_appends_column(loaded_store, capsys):
    argv = [
        "spath", "--store", str(loaded_store), "--model", "ldm3n",
        "--source", f"<{EX}BillClinton>", "--target", f"<{EX}GeorgeWBush>", "--timing",
    ]
    assert main(argv) == 0
    row = capsys.readouterr().out.strip().split(",")
    assert len(row) == 8  # elapsed_ms inserted before path


def test_stats_output(loaded_store, capsys):
    code = main([
        "stats", "--store", str(loaded_store),
        "--singleton-prop", f"{EX}singletonPropOf",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "triples,6" in out
    assert "nodes,10" in out
    assert "edges,12" in out
    assert "literals,0" in out
    assert "singletons,2" in out


def test_validate_reports_violations(tmp_path, capsys):
    triples = succession_triples()
    nt = tmp_path / "dirty.nt"
    extra = f"<{EX}X> <{EX}holdsPos#1> <{EX}Y> .\n"
    nt.write_text(serialize_ntriples(triples) + extra, encoding="utf-8")
    store = tmp_path / "s"
    main(["load", "--store", str(store), "--input", str(nt)])
    capsys.readouterr()
    code = main([
        "validate", "--store", str(store), "--singleton-prop", f"{EX}singletonPropOf",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert f"<{EX}holdsPos#1>,multiple_use,2" in out


RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"


def load_nt(tmp_path, text: str) -> Path:
    nt = tmp_path / "in.nt"
    nt.write_text(text, encoding="utf-8")
    store = tmp_path / "s"
    assert main(["load", "--store", str(store), "--input", str(nt)]) == 0
    return store


def run_out(argv: list[str], capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def test_singleton_class_flag_declares_by_type(tmp_path, capsys):
    # <sp> is declared singleton only by its type, a custom class, and used twice.
    store = load_nt(tmp_path, f"<{EX}sp> <{RDF}type> <{EX}Single> .\n"
                              f"<{EX}a> <{EX}sp> <{EX}b> .\n"
                              f"<{EX}c> <{EX}sp> <{EX}d> .\n")
    capsys.readouterr()
    flag = ["--singleton-class", f"{EX}Single"]
    stats, validate, entail = ([command, "--store", str(store)] for command in ("stats", "validate", "entail"))
    header = "property,kind,occurrences\r\n"
    assert "singletons,0" in run_out(stats, capsys)
    assert "singletons,1" in run_out([*stats, *flag], capsys)
    assert run_out(validate, capsys) == header
    assert run_out([*validate, *flag], capsys) == f"{header}<{EX}sp>,multiple_use,2\r\n"
    assert "singleton_violations=0" in run_out(entail, capsys)
    assert "singleton_violations=1" in run_out([*entail, *flag], capsys)


def test_strict_singletons_flag_reports_an_unused_singleton(tmp_path, capsys):
    store = load_nt(tmp_path, f"<{EX}sp> <{RDF}type> <{RDF}SingletonProperty> .\n")
    capsys.readouterr()
    entail = ["entail", "--store", str(store)]
    assert "singleton_violations=0" in run_out(entail, capsys)
    assert "singleton_violations=1" in run_out([*entail, "--strict-singletons"], capsys)
    validate = ["validate", "--store", str(store)]
    header = "property,kind,occurrences\r\n"
    assert run_out(validate, capsys) == header
    assert run_out([*validate, "--strict-singletons"], capsys) == f"{header}<{EX}sp>,unused,0\r\n"


def test_entail_emits_derived_and_summary(tmp_path, capsys):
    rdfs = "http://www.w3.org/2000/01/rdf-schema#"
    nt = tmp_path / "chain.nt"
    nt.write_text(
        f"<{EX}a> <{rdfs}subPropertyOf> <{EX}b> .\n"
        f"<{EX}b> <{rdfs}subPropertyOf> <{EX}c> .\n",
        encoding="utf-8",
    )
    store = tmp_path / "s"
    main(["load", "--store", str(store), "--input", str(nt)])
    capsys.readouterr()
    code = main(["entail", "--store", str(store), "--rules", "rdfs5"])
    out = capsys.readouterr().out
    assert code == 0
    assert f"<{EX}a> <{rdfs}subPropertyOf> <{EX}c> ." in out
    assert "# summary: derived=1" in out


def test_entail_materialize_then_query_with_derived(tmp_path, capsys):
    rdfs = "http://www.w3.org/2000/01/rdf-schema#"
    nt = tmp_path / "chain.nt"
    nt.write_text(
        f"<{EX}a> <{rdfs}subPropertyOf> <{EX}b> .\n"
        f"<{EX}b> <{rdfs}subPropertyOf> <{EX}c> .\n",
        encoding="utf-8",
    )
    store = tmp_path / "s"
    main(["load", "--store", str(store), "--input", str(nt)])
    main(["entail", "--store", str(store), "--rules", "rdfs5", "--materialize"])
    capsys.readouterr()
    code = main(["stats", "--store", str(store), "--with-derived"])
    out = capsys.readouterr().out
    assert code == 0
    assert "triples,3" in out


RDFS = "http://www.w3.org/2000/01/rdf-schema#"


# Entailment over it takes three rounds and mints rdf:type for the domain rule.
SCHEMA = (
    f"<{EX}a> <{RDFS}subPropertyOf> <{EX}b> .\n"
    f"<{EX}b> <{RDFS}subPropertyOf> <{EX}c> .\n"
    f"<{EX}x> <{EX}a> <{EX}y> .\n"
    f"<{EX}b> <{RDFS}domain> <{EX}D> .\n"
)


@pytest.fixture
def derived_store(tmp_path, capsys):
    """A 4-triple store whose materialized delta holds 4 derived triples."""
    nt = tmp_path / "schema.nt"
    nt.write_text(SCHEMA, encoding="utf-8")
    store = tmp_path / "s"
    assert main(["load", "--store", str(store), "--input", str(nt)]) == 0
    assert main(["entail", "--store", str(store), "--materialize"]) == 0
    assert "# summary: derived=4" in capsys.readouterr().out
    return store, nt


def test_entail_stdout_and_delta_bytes_are_pinned(tmp_path, capsys):
    """``entail`` prints the derived triples in the fixpoint's order, and a
    materialize writes the same ``delta`` bytes on a fresh load and over the
    delta it replaces."""
    nt = tmp_path / "schema.nt"
    nt.write_text(SCHEMA, encoding="utf-8")
    store = tmp_path / "s"
    assert main(["load", "--store", str(store), "--input", str(nt)]) == 0
    capsys.readouterr()
    for _ in range(2):
        assert main(["entail", "--store", str(store), "--materialize"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("# summary: derived=4 rounds=3 singleton_violations=0\n")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "e50f3d33004c1e204701687b572fc1ed4180356259b06a8fedfaf1d35edf42ce"
        )
        # What the delta decodes to, as for the base goldens: its minted
        # tokens and s, p and o. It extends the base it was derived from.
        delta = store / "delta"
        layout.check_blocks(delta)
        assert hashlib.sha256(layout.canonical(delta)).hexdigest() == (
            "922a68515a5d9c3b170bfb9b1d4afa78994c876a092aea5e76e523268b04632d"
        )
        _, crc, itemsize = layout.sections(delta)["base"]
        assert layout.ints(crc, itemsize) == [layout.HEADER.unpack_from((store / "base").read_bytes())[2]]


def stats_triples(store, capsys) -> str:
    assert main(["stats", "--store", str(store), "--with-derived"]) == 0
    return next(line for line in capsys.readouterr().out.splitlines() if line.startswith("triples,"))


def range_store(tmp_path):
    """A loaded store whose entailment derives ("Bill", rdf:type, xsd:string),
    a triple whose subject is a literal, and mints rdf:type."""
    xsd = "http://www.w3.org/2001/XMLSchema#string"
    nt = tmp_path / "range.nt"
    nt.write_text(
        f"<{EX}name> <{RDFS}range> <{xsd}> .\n"
        f"<{xsd}> <{RDFS}subClassOf> <{EX}Text> .\n"
        f"<{EX}a> <{EX}name> \"Bill\" .\n",
        encoding="utf-8",
    )
    store = tmp_path / "s"
    assert main(["load", "--store", str(store), "--input", str(nt)]) == 0
    return store


def test_materialized_range_over_a_literal_is_queryable(tmp_path, capsys):
    """RANGE derives a triple whose subject is a literal, and RDFS9 spreads
    it; the materialized store still answers."""
    store = range_store(tmp_path)
    assert main(["entail", "--store", str(store), "--materialize"]) == 0
    assert "# summary: derived=2" in capsys.readouterr().out
    assert stats_triples(store, capsys) == "triples,5"
    code = main(["spath", "--store", str(store), "--model", "nlan", "--with-derived",
                 "--source", f"<{EX}a>", "--target", f"<{EX}Text>"])
    captured = capsys.readouterr()
    # Literals are sinks, so the walk does not go on from "Bill".
    assert (code, captured.err) == (0, "")
    assert captured.out.split(",")[3] == "unreachable"


def test_stats_counts_minted_terms_only_with_derived(tmp_path, capsys):
    store = range_store(tmp_path)
    capsys.readouterr()
    stats = ["stats", "--store", str(store)]
    assert main(stats) == 0
    before = capsys.readouterr().out
    assert "nodes,7" in before and "literals,1" in before
    assert main(["entail", "--store", str(store), "--materialize"]) == 0
    capsys.readouterr()
    assert main(stats) == 0
    assert capsys.readouterr().out == before
    assert main([*stats, "--with-derived"]) == 0
    out = capsys.readouterr().out
    assert "triples,5" in out and "nodes,8" in out and "literals,1" in out


def test_empty_materialize_and_reload_drop_the_old_delta(derived_store, capsys):
    store, nt = derived_store
    assert stats_triples(store, capsys) == "triples,8"
    assert main(["entail", "--store", str(store), "--rules", "range", "--materialize"]) == 0
    assert "# summary: derived=0" in capsys.readouterr().out
    assert not (store / "delta").exists()
    assert stats_triples(store, capsys) == "triples,4"

    assert main(["entail", "--store", str(store), "--materialize"]) == 0
    assert main(["load", "--store", str(store), "--input", str(nt)]) == 0
    capsys.readouterr()
    assert not (store / "delta").exists()
    assert stats_triples(store, capsys) == "triples,4"


# Where each case cuts the store: in the middle of base's predicate column
# or of its term tokens, or 30 bytes into delta, inside its section table.
# The case names are those of the version-2 files that held each part.
CUTS = {"adj": ("base", "p"), "dict_rev": ("base", "even_tok"), "delta": ("delta", None)}


@pytest.mark.parametrize("name", ["adj", "delta", "dict_rev"])
def test_short_store_file_exits_three(derived_store, capsys, name):
    store, _ = derived_store
    file_name, section = CUTS[name]
    path = store / file_name
    size = 30
    if section:
        at, body, _ = layout.sections(path)[section]
        size = at + len(body) // 2
    with open(path, "r+b") as f:
        f.truncate(size)
    code = main(["stats", "--store", str(store), "--with-derived"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:")
    assert str(path) in err and "byte offset" in err
    assert "Traceback" not in err


def test_materialize_leaves_adj_untouched(tmp_path, capsys):
    nt = tmp_path / "schema.nt"
    nt.write_text(
        f"<{EX}a> <{RDFS}subPropertyOf> <{EX}b> .\n"
        f"<{EX}x> <{EX}a> <{EX}y> .\n"
        f"<{EX}b> <{RDFS}domain> <{EX}D> .\n",
        encoding="utf-8",
    )
    store = tmp_path / "s"
    assert main(["load", "--store", str(store), "--input", str(nt)]) == 0
    base = (store / "base").stat()
    assert main(["entail", "--store", str(store), "--materialize"]) == 0
    assert "# summary: derived=2" in capsys.readouterr().out
    after = (store / "base").stat()
    assert (after.st_ino, after.st_mtime_ns, after.st_size) == (base.st_ino, base.st_mtime_ns, base.st_size)
    assert stats_triples(store, capsys) == "triples,5"


@pytest.mark.parametrize("version", [1, 3])
def test_version_one_store_exits_three(loaded_store, capsys, version):
    # Version 3 stored each subject in an ``s`` section and the load report in ``meta``.
    for path in loaded_store.iterdir():
        body = path.read_bytes()[12:]
        path.write_bytes(struct.pack("<6sHB", b"LDM3N\0", version, 0) + body)
    code = main(["stats", "--store", str(loaded_store)])
    err = capsys.readouterr().err
    assert code == 3
    assert f"unsupported format version {version}" in err and "reload the store" in err
    assert "Traceback" not in err


def test_load_rejects_removed_flags(tmp_path, fixture_nt):
    for flag in (["--index-kind", "hash"], ["--cache-size", "1024"]):
        with pytest.raises(SystemExit) as exc:
            main(["load", "--store", str(tmp_path / "s"), "--input", str(fixture_nt), *flag])
        assert exc.value.code == 2


def test_bench_end_to_end(tmp_path, capsys):
    from ldm3n.harness import ChainSpec, generate_successor_chain

    nt = tmp_path / "chain.nt"
    nt.write_text(serialize_ntriples(generate_successor_chain(ChainSpec(1, 4, seed=1))))
    store = tmp_path / "s"
    main(["load", "--store", str(store), "--input", str(nt)])
    capsys.readouterr()
    chain_ns = "http://example.org/chain/"
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(
        "source_iri,target_iri\n"
        f"{chain_ns}politician/0/1,{chain_ns}politician/0/4\n"
        f"{chain_ns}politician/0/4,{chain_ns}politician/0/1\n"
    )
    out_file = tmp_path / "report.csv"
    code = main([
        "bench", "--store", str(store), "--mode", "spath", "--model", "ldm3n",
        "--workers", "2", "--pairs", str(pairs), "--out", str(out_file),
    ])
    assert code == 0
    report = out_file.read_text()
    assert "# summary: pairs=2 reachable=1" in report
    assert ",found,9," in report


def test_bench_accepts_a_byte_order_mark(loaded_store, tmp_path, capsys):
    from test_harness import cut_timing

    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(f"source_iri,target_iri\n{EX}BillClinton,{EX}GeorgeWBush\n{EX}GeorgeWBush,{EX}BillClinton\n")
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    reports = []
    for pairs in (plain, bom):
        argv = ["bench", "--store", str(loaded_store), "--mode", "spath", "--model", "ldm3n", "--pairs", str(pairs)]
        assert main(argv) == 0
        reports.append(cut_timing(capsys.readouterr().out))
    assert reports[1] == reports[0]
    assert "# summary: pairs=2 reachable=1" in reports[0]


def test_bench_unknown_term_exits_one(loaded_store, tmp_path, capsys):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f"source_iri,target_iri\n{EX}BillClinton,{EX}GeorgeWBush\n{EX}nobody,{EX}FrankWhite\n")
    code = main([
        "bench", "--store", str(loaded_store), "--mode", "spath", "--model", "ldm3n",
        "--pairs", str(pairs),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: pairs line 3: term not in store: <{EX}nobody>\n"
    assert captured.out == ""


def test_bench_malformed_pair_row_exits_one(loaded_store, tmp_path, capsys):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f"{EX}BillClinton,{EX}GeorgeWBush\n<{EX}BillClinton,{EX}FrankWhite\n")
    code = main([
        "bench", "--store", str(loaded_store), "--mode", "spath", "--model", "ldm3n",
        "--pairs", str(pairs),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: pairs line 2: unterminated IRI: '<{EX}BillClinton'\n"
    assert captured.out == ""


def test_bench_with_derived_matches_spath(derived_store, tmp_path, capsys):
    store, _ = derived_store
    names = ["a", "b", "c", "x", "y", "D"]
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("".join(f"{EX}{s},{EX}{t}\n" for s in names for t in names if s != t))
    for model in ("ldm3n", "nlan"):
        reports = []
        for derived in ([], ["--with-derived"]):
            argv = ["bench", "--store", str(store), "--mode", "spath", "--model", model, "--pairs", str(pairs)]
            assert main(argv + derived) == 0
            lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
            reports.append(list(csv.reader(lines))[1:])
        assert len(reports[1]) == 30 and reports[0] != reports[1]
        for row in reports[1]:
            assert main(["spath", "--store", str(store), "--model", model, "--with-derived",
                         "--source", row[0], "--target", row[1]]) == 0
            # The bench row without its elapsed_ms column.
            assert row[:6] + row[7:] == next(csv.reader([capsys.readouterr().out]))


@pytest.mark.parametrize(
    "module", ["concurrent.futures", "xml.etree.ElementTree", "ldm3n.harness", "ldm3n.semantics", "json"]
)
def test_cli_import_leaves_module_unloaded(module):
    # Batches run on the calling thread, so no CLI process needs the pool;
    # nothing imports the XML parser;
    # only bench runs batches, and it imports the harness itself; only
    # entail, validate, stats and --with-derived import semantics; and the
    # store keeps no JSON.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    probe = f"import sys, ldm3n.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
