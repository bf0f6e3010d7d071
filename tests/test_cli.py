import struct

import pytest

from ldm3n import serialize_ntriples
from ldm3n.cli import main

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


def test_usage_error_exits_two(loaded_store):
    with pytest.raises(SystemExit) as exc:
        main(["spath", "--store", str(loaded_store), "--model", "wrong",
              "--source", "<x>", "--target", "<y>"])
    assert exc.value.code == 2


def test_corrupt_store_exits_three(loaded_store, capsys):
    adj = loaded_store / "adj"
    adj.write_bytes(b"GARBAGE" + adj.read_bytes()[7:])
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


@pytest.fixture
def derived_store(tmp_path, capsys):
    """A 4-triple store whose materialized delta holds 4 derived triples."""
    nt = tmp_path / "schema.nt"
    nt.write_text(
        f"<{EX}a> <{RDFS}subPropertyOf> <{EX}b> .\n"
        f"<{EX}b> <{RDFS}subPropertyOf> <{EX}c> .\n"
        f"<{EX}x> <{EX}a> <{EX}y> .\n"
        f"<{EX}b> <{RDFS}domain> <{EX}D> .\n",
        encoding="utf-8",
    )
    store = tmp_path / "s"
    assert main(["load", "--store", str(store), "--input", str(nt)]) == 0
    assert main(["entail", "--store", str(store), "--materialize"]) == 0
    assert "# summary: derived=4" in capsys.readouterr().out
    return store, nt


def stats_triples(store, capsys) -> str:
    assert main(["stats", "--store", str(store), "--with-derived"]) == 0
    return next(line for line in capsys.readouterr().out.splitlines() if line.startswith("triples,"))


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


@pytest.mark.parametrize("name", ["adj", "delta", "dict_rev"])
def test_short_store_file_exits_three(derived_store, capsys, name):
    store, _ = derived_store
    path = store / name
    # 30 bytes cut the records after the 12-byte header and the 8-byte count;
    # dict_rev loses the last 3 bytes of its last term.
    size = path.stat().st_size - 3 if name == "dict_rev" else 30
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
    adj = (store / "adj").stat()
    assert main(["entail", "--store", str(store), "--materialize"]) == 0
    assert "# summary: derived=2" in capsys.readouterr().out
    after = (store / "adj").stat()
    assert (after.st_ino, after.st_mtime_ns, after.st_size) == (adj.st_ino, adj.st_mtime_ns, adj.st_size)
    assert stats_triples(store, capsys) == "triples,5"


def test_version_one_store_exits_three(loaded_store, capsys):
    for path in loaded_store.iterdir():
        body = path.read_bytes()[12:]
        path.write_bytes(struct.pack("<6sHB", b"LDM3N\0", 1, 0) + body)
    code = main(["stats", "--store", str(loaded_store)])
    err = capsys.readouterr().err
    assert code == 3
    assert "unsupported format version 1" in err and "Traceback" not in err


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
