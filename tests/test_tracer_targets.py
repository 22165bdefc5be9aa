"""The package names that bench/tracer.py wraps by lookup.  The tracer
finds each with getattr when a traced benchmark run starts, so a renamed or
deleted function would otherwise fail only there."""

from pathlib import Path


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracer import Tracer

    targets = Tracer().targets()
    assert targets
    missing = [name for owner, attr, name, *_ in targets
               if not hasattr(owner, attr)]
    assert missing == []
