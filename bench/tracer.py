"""Per-layer tracing of gislat from outside the package.

``Tracer.install`` replaces each traced function or method with a wrapper,
at every place a caller looks it up: the defining class, or every gislat
module that bound the function by name.  No package code changes.

Each call pushes a frame on a stack, so time spent in traced callees is
known and self time is duration minus callee time.  Coarse functions also
append a span (id, parent id, name, start, end, self seconds) to an
in-memory list that ``write_spans`` saves at the end; hot functions, called
up to millions of times a pass, are only aggregated per name.  Hooks before
and after a call collect counts where the work happens: sets, cycles,
elements and the like.  Join and meet cache hits are counted by swapping
each new lattice's cache dicts for counting ones.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

from gislat import census, cli, graphs, lattice, oracle, triples


class CountingCache(dict):
    """A lattice's join or meet cache that counts lookups and hits."""

    __slots__ = ("counts", "calls", "hits")

    def __init__(self, counts, name):
        super().__init__()
        self.counts = counts
        self.calls = f"{name}.calls"
        self.hits = f"{name}.hits"

    def get(self, key, default=None):
        self.counts[self.calls] += 1
        got = dict.get(self, key, default)
        if got is not default:
            self.counts[self.hits] += 1
        return got


class Tracer:
    def __init__(self):
        self.active = True
        self.stack = []          # frames: [callee seconds, enclosing span id]
        self.spans = []
        self.calls = Counter()
        self.seconds = Counter()
        self.self_seconds = Counter()
        self.counts = Counter()
        self._undo = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name, fn, span, pre=None, post=None):
        tracer = self
        stack = self.stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = pre(*args) if pre else None
            parent = stack[-1][1] if stack else None
            sid = len(tracer.spans) if span else parent
            if span:
                tracer.spans.append(None)  # reserve the id, filled on exit
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                tracer.calls[name] += 1
                tracer.seconds[name] += dur
                tracer.self_seconds[name] += dur - frame[0]
                if span:
                    tracer.spans[sid] = (sid, parent, name, t0, t1, dur - frame[0])
            if post:
                post(result, state, *args)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, name, span, pre, post in self.targets():
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._patch(owner, attr, self.wrap(name, original, span, pre, post))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, span, pre, post)
            for mod in list(sys.modules.values()):
                if mod is None or not getattr(mod, "__name__", "").startswith("gislat"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- what is traced -------------------------------------------------------

    def targets(self):
        """(owner, attribute, name, record spans, pre hook, post hook)."""
        c = self.counts
        G, L, O = graphs.Digraph, lattice, oracle

        def hered_pre(g, *_):
            return g._hereditary is None

        def hered_post(result, fresh, *_):
            if fresh:
                c["graphs.hereditary_sets.sets"] += len(result)

        def cycles_pre(g):
            return g._cycles is None

        def cycles_post(result, fresh, _g):
            if fresh:
                c["graphs.cycles.cycles"] += len(result)

        def cycles_in_post(result, _state, g, _H):
            c["graphs.cycles_in.scanned"] += len(g._cycles)
            c["graphs.cycles_in.returned"] += len(result)

        def conlattice_post(_result, _state, lat, *_):
            c["lattice.elements"] += lat.n
            c["lattice.covers"] += sum(row.bit_count() for row in lat.cover_up)

        def finite_post(_result, _state, lat, *_):
            # join_idx and meet_idx look each pair up once in these caches;
            # counting there costs far less than wrapping millions of calls
            lat._joins = CountingCache(c, "lattice.join_idx")
            lat._meets = CountingCache(c, "lattice.meet_idx")

        def semigroup_post(table, *_):
            c["oracle.semigroup_elements"] += len(table)

        def principal_post(result, _state, table):
            n = len(table)
            c["oracle.principal_congruences.distinct"] += len(result)
            c["oracle.principal_congruences.closures"] += n * (n - 1) // 2
            c["oracle.principal_congruences.last"] = len(result)

        def enumerate_pre(*_):
            return self.calls["oracle.partition_join"]

        def enumerate_post(result, joins_before, *_):
            c["oracle.congruences"] += len(result)
            c["oracle.partition_join.new"] += (
                len(result) - 1 - c["oracle.principal_congruences.last"])
            c["oracle.partition_join.in_closure"] += (
                self.calls["oracle.partition_join"] - joins_before)

        def census_post(result, *_):
            c["census.graphs"] += len(result)

        return [
            (G, "__init__", "graphs.Digraph", False, None, None),
            (G, "hereditary_sets", "graphs.hereditary_sets", False, hered_pre, hered_post),
            (G, "cycles", "graphs.cycles", False, cycles_pre, cycles_post),
            (G, "cycles_in", "graphs.cycles_in", False, None, cycles_in_post),
            (G, "forked_vertices", "graphs.forked_vertices", False, None, None),
            (triples.WangTriple, "__init__", "triples.WangTriple", False, None, None),
            (triples, "join", "triples.join", False, None, None),
            (triples, "meet", "triples.meet", False, None, None),
            (triples, "leq", "triples.leq", False, None, None),
            (triples, "covers", "triples.covers", False, None, None),
            (triples, "meet_no_fork", "triples.meet_no_fork", False, None, None),
            (L, "enumerate_lattice", "lattice.enumerate_lattice", True, None, None),
            (L.ConLattice, "__init__", "lattice.ConLattice", True, None, conlattice_post),
            (L.FiniteLattice, "__init__", "lattice.FiniteLattice", True, None, finite_post),
            (L, "is_upper_semimodular", "lattice.is_upper_semimodular", True, None, None),
            (L, "is_lower_semimodular", "lattice.is_lower_semimodular", True, None, None),
            (L, "is_modular", "lattice.is_modular", True, None, None),
            (L, "is_distributive", "lattice.is_distributive", True, None, None),
            (L, "is_atomistic_lattice", "lattice.is_atomistic_lattice", True, None, None),
            (L, "minimal_generating_set", "lattice.minimal_generating_set", True, None, None),
            (L, "generated_sublattice", "lattice.generated_sublattice", True, None, None),
            (O, "build_semigroup", "oracle.build_semigroup", True, None, semigroup_post),
            (O, "associativity_violations", "oracle.associativity_violations", True, None, None),
            (O, "principal_congruences", "oracle.principal_congruences", True, None, principal_post),
            (O, "generated_congruence", "oracle.generated_congruence", False, None, None),
            (O, "enumerate_congruences", "oracle.enumerate_congruences", True,
             enumerate_pre, enumerate_post),
            (O, "partition_join", "oracle.partition_join", False, None, None),
            (O, "realize_triple", "oracle.realize_triple", False, None, None),
            (O, "verify_isomorphism", "oracle.verify_isomorphism", True, None, None),
            (census, "simple_graphs", "census.simple_graphs", True, None, census_post),
            (census, "canonical_form", "census.canonical_form", False, None, None),
            (cli, "parse_graph_text", "cli.parse_graph_text", True, None, None),
            (cli, "lattice_json", "cli.lattice_json", True, None, None),
            (cli, "lattice_dot", "cli.lattice_dot", True, None, None),
            (cli, "_emit", "cli._emit", True, None, None),
            (cli, "main", "cli.main", True, None, None),
        ]

    # -- results ----------------------------------------------------------------

    def snapshot(self):
        """Every aggregate so far, as one flat Counter."""
        snap = Counter()
        for prefix, counter in (("calls", self.calls), ("s", self.seconds),
                                ("self", self.self_seconds), ("n", self.counts)):
            for key, value in counter.items():
                snap[f"{prefix}:{key}"] = value
        return snap

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, t0, t1, self_s in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                         "start": t0, "end": t1,
                                         "self": self_s}) + "\n")


def _ratio(a, b):
    return a / b if b else 0.0


def _metrics():
    """(metric name, unit, better, value from a snapshot) for each per-layer
    metric; ``s`` totals, ``self`` self times and ``calls`` counts by name."""
    def ms(name):
        return lambda s: 1000 * s[f"s:{name}"]

    def self_ms(*names):
        return lambda s: 1000 * sum(s[f"self:{n}"] for n in names)

    def calls(name):
        return lambda s: s[f"calls:{name}"]

    def count(key):
        return lambda s: s[f"n:{key}"]

    def ratio(num, den):
        return lambda s: _ratio(s[num], s[den])

    out = [
        ("graphs.Digraph.ms", "ms", "lower", ms("graphs.Digraph")),
        ("graphs.hereditary_sets.ms", "ms", "lower", ms("graphs.hereditary_sets")),
        ("graphs.hereditary_sets.sets", "count", "lower", count("graphs.hereditary_sets.sets")),
        ("graphs.cycles.ms", "ms", "lower", ms("graphs.cycles")),
        ("graphs.cycles.cycles", "count", "lower", count("graphs.cycles.cycles")),
        ("graphs.cycles_in.calls", "count", "lower", calls("graphs.cycles_in")),
        ("graphs.cycles_in.ms", "ms", "lower", ms("graphs.cycles_in")),
        ("graphs.cycles_in.scanned", "count", "lower", count("graphs.cycles_in.scanned")),
        ("graphs.cycles_in.hit_ratio", "ratio", "higher",
         ratio("n:graphs.cycles_in.returned", "n:graphs.cycles_in.scanned")),
        ("graphs.forked_vertices.calls", "count", "lower", calls("graphs.forked_vertices")),
        ("graphs.forked_vertices.ms", "ms", "lower", ms("graphs.forked_vertices")),
    ]
    for name in ("WangTriple", "join", "meet", "leq", "covers", "meet_no_fork"):
        out += [(f"triples.{name}.calls", "count", "lower", calls(f"triples.{name}")),
                (f"triples.{name}.ms", "ms", "lower", ms(f"triples.{name}"))]
    out += [
        ("lattice.enumerate_lattice.ms", "ms", "lower", ms("lattice.enumerate_lattice")),
        ("lattice.ConLattice.self_ms", "ms", "lower", self_ms("lattice.ConLattice")),
        ("lattice.FiniteLattice.ms", "ms", "lower", ms("lattice.FiniteLattice")),
        ("lattice.elements", "count", "lower", count("lattice.elements")),
        ("lattice.covers", "count", "lower", count("lattice.covers")),
    ]
    for name in ("join_idx", "meet_idx"):
        out += [(f"lattice.{name}.calls", "count", "lower", count(f"lattice.{name}.calls")),
                (f"lattice.{name}.hit_ratio", "ratio", "higher",
                 ratio(f"n:lattice.{name}.hits", f"n:lattice.{name}.calls"))]
    for name in ("is_upper_semimodular", "is_lower_semimodular", "is_modular",
                 "is_distributive", "is_atomistic_lattice", "minimal_generating_set",
                 "generated_sublattice"):
        out.append((f"lattice.{name}.ms", "ms", "lower", ms(f"lattice.{name}")))
    out += [
        ("oracle.build_semigroup.calls", "count", "lower", calls("oracle.build_semigroup")),
        ("oracle.build_semigroup.ms", "ms", "lower", ms("oracle.build_semigroup")),
        ("oracle.semigroup_elements", "count", "lower", count("oracle.semigroup_elements")),
        ("oracle.associativity_violations.ms", "ms", "lower",
         ms("oracle.associativity_violations")),
        ("oracle.principal_congruences.ms", "ms", "lower", ms("oracle.principal_congruences")),
        ("oracle.generated_congruence.calls", "count", "lower",
         calls("oracle.generated_congruence")),
        ("oracle.generated_congruence.ms", "ms", "lower", ms("oracle.generated_congruence")),
        ("oracle.principal_congruences.distinct_ratio", "ratio", "higher",
         ratio("n:oracle.principal_congruences.distinct",
               "n:oracle.principal_congruences.closures")),
        ("oracle.enumerate_congruences.self_ms", "ms", "lower",
         self_ms("oracle.enumerate_congruences")),
        ("oracle.partition_join.calls", "count", "lower", calls("oracle.partition_join")),
        ("oracle.partition_join.new_ratio", "ratio", "higher",
         ratio("n:oracle.partition_join.new", "n:oracle.partition_join.in_closure")),
        ("oracle.congruences", "count", "lower", count("oracle.congruences")),
        ("oracle.realize_triple.ms", "ms", "lower", ms("oracle.realize_triple")),
        ("oracle.verify_isomorphism.self_ms", "ms", "lower",
         self_ms("oracle.verify_isomorphism")),
        ("census.simple_graphs.ms", "ms", "lower", ms("census.simple_graphs")),
        ("census.canonical_form.calls", "count", "lower", calls("census.canonical_form")),
        ("census.graphs", "count", "lower", count("census.graphs")),
        ("cli.parse_graph_text.ms", "ms", "lower", ms("cli.parse_graph_text")),
        ("cli.render.ms", "ms", "lower",
         self_ms("cli.lattice_json", "cli.lattice_dot", "cli._emit")),
        ("cli.main.self_ms", "ms", "lower", self_ms("cli.main")),
    ]
    return out


METRICS = _metrics()
CALIBRATION = ("bench.calibration_ms", "ms", "lower")


def per_layer(snap):
    """Every per-layer metric except the calibration, from a snapshot."""
    return {name: (value(snap), unit) for name, unit, _better, value in METRICS}
