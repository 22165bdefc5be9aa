"""The package names that bench/tracer.py wraps by lookup.  The tracer
finds each with getattr when a traced benchmark run starts, so a renamed or
deleted function would otherwise fail only there."""

from pathlib import Path

import pytest

from gislat import cli, triples

from conftest import make_loop, make_path3, make_split_graph


@pytest.fixture
def Tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracer import Tracer
    return Tracer


def test_every_traced_name_exists(Tracer):
    targets = Tracer().targets()
    assert targets
    missing = [name for owner, attr, name, *_ in targets
               if not hasattr(owner, attr)]
    assert missing == []


def test_traced_lattice_run_counts_and_spans(Tracer, tmp_path, capsys):
    """The tracer's hooks still run on a lattice command: its counters read
    the constructed lattice and its spans name the constructors."""
    path = tmp_path / "split.graph"
    path.write_text(cli.format_graph(make_split_graph()))
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["lattice", str(path), "--json", "--properties"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["lattice.elements"] == 14
    assert tracer.counts["lattice.covers"] == 25
    spans = {span[2] for span in tracer.spans}
    assert {"lattice.enumerate_lattice", "lattice.ConLattice",
            "lattice.FiniteLattice"} <= spans


def test_traced_calculus_counts_cycles(Tracer):
    """The tracer reads the graph's cycle cache by name: on the loop, a join
    and an H-growing cover list its one cycle once, and each of their two
    cycles_in calls scans it."""
    tracer = Tracer()
    tracer.install()
    try:
        g = make_loop()
        t1 = triples.WangTriple(g, 0, 1, {(0,): 1})
        t2 = triples.WangTriple(g, 1, 0)
        assert triples.join(t1, t2) == t2
        assert triples.covers(t1, t2)
    finally:
        tracer.uninstall()
    assert tracer.calls["triples.join"] == tracer.calls["triples.covers"] == 1
    assert tracer.counts["graphs.cycles.cycles"] == 1
    assert tracer.counts["graphs.cycles_in.scanned"] == 2


def test_traced_oracle_run_counts(Tracer, tmp_path, capsys):
    """The tracer's oracle hooks still read what the oracle returns: on the
    3-vertex path, 6 distinct principal congruences, 8 congruences and one
    realize_triple call for each of the lattice's 8 triples."""
    path = tmp_path / "path3.graph"
    path.write_text(cli.format_graph(make_path3()))
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["oracle", str(path), "--json"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["oracle.principal_congruences.distinct"] == 6
    assert tracer.counts["oracle.congruences"] == 8
    assert tracer.calls["oracle.realize_triple"] == 8
