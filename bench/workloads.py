"""The four benchmark workloads: seeded inputs, the items one pass runs, and
the checks on every output.

An item is one unit of timed work.  ``Item.run`` calls gislat and returns
its raw output; ``Item.check`` turns that output into a list of problems,
empty when the output is right.  Checks compare against ``reference``
(computed apart from gislat) or against properties the method must have.
Expected values are computed on first use, so they stay out of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from itertools import combinations, combinations_with_replacement, permutations

from gislat import cli, triples
from gislat.graphs import Digraph

import reference as ref

INF = math.inf


class Item:
    """One timed call into gislat and the check of what it returned."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


class Graph:
    """A benchmark input graph: vertex count, index edges, and the graph
    file gislat reads.  Vertex i is named ``v<i>`` and edge ids follow the
    order of ``edges``, as they do in the file."""

    def __init__(self, label, n, edges, workdir=None):
        self.label = label
        self.n = n
        self.edges = list(edges)
        self.names = [f"v{i}" for i in range(n)]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.path = None
        self._memo = {}
        if workdir is not None:
            self.path = os.path.join(workdir, f"{label}.graph")
            with open(self.path, "w", encoding="utf-8") as handle:
                handle.write(self.text())

    def text(self) -> str:
        lines = [f"vertex {name}" for name in self.names]
        lines += [f"edge v{s} v{r}" for s, r in self.edges]
        return "\n".join(lines) + "\n"

    def memo(self, key, compute):
        """Cache a reference value for this graph."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def mask(self, names) -> int:
        m = 0
        for name in names:
            m |= 1 << self.index[name]
        return m

    @property
    def full(self) -> int:
        return (1 << self.n) - 1


def relabel(n, edges, rnd):
    """An isomorphic copy with shuffled vertex ids and edge order."""
    perm = list(range(n))
    rnd.shuffle(perm)
    out = [(perm[s], perm[r]) for s, r in edges]
    rnd.shuffle(out)
    return out


def random_dag(n, p, rnd):
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < p]


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def spread(small, big):
    """The small items with the big ones spaced evenly among them, so that
    the small items, which set the median latency, sample the whole pass."""
    out = list(small)
    for k, item in enumerate(big):
        out.insert(k + (k + 1) * len(small) // (len(big) + 1), item)
    return out


# -- the CLI entry point ---------------------------------------------------------


def run_cli(argv):
    """gislat.cli.main in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_doc(output):
    """The JSON document of a successful command, or a problem string."""
    rc, out, err = output
    if rc != 0:
        return None, f"exit code {rc}: {err.strip()[:200]}"
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"
    if doc.get("format") != 1:
        return None, f"format is {doc.get('format')!r}, not 1"
    return doc, None


def cli_item(label, argv, check):
    def checked(output):
        doc, problem = cli_doc(output)
        return [problem] if problem else check(doc)
    return Item(label, lambda: run_cli(argv), checked)


# -- lattice checks, shared by the lattice and census workloads --------------------


def check_lattice_doc(g: Graph, doc, dot_path=None):
    """The element set, bottom, top and covers of ``gislat lattice --json``."""
    problems = []
    expected = g.memo("elements", lambda: ref.lattice_elements(g.n, g.edges))
    count = g.memo("count", lambda: ref.element_count(g.n, g.edges))
    if len(expected) != count:
        problems.append(f"reference disagrees with itself: {len(expected)} "
                        f"elements, count {count}")
    try:
        elems = [(g.mask(e["H"]), g.mask(e["W"])) for e in doc["elements"]]
    except KeyError as exc:
        return [f"element names an unknown vertex {exc}"]
    if len(elems) != count:
        problems.append(f"{len(elems)} elements, expected {count}")
    if set(elems) != expected or len(set(elems)) != len(elems):
        problems.append("element set differs from the hereditary-set count")
    if elems[doc["bottom"]] != (0, 0):
        problems.append(f"bottom is {doc['elements'][doc['bottom']]}")
    if elems[doc["top"]] != (g.full, 0):
        problems.append(f"top is {doc['elements'][doc['top']]}")
    listed = set()
    for i, j in doc["covers"]:
        a, b = elems[i], elems[j]
        added = (b[0] | b[1]) & ~(a[0] | a[1])
        if not ref.hw_leq(a, b) or (a[0] | a[1]) & ~(b[0] | b[1]) \
                or added.bit_count() != 1:
            problems.append(f"cover {i}->{j} does not add one vertex upward")
            break
        listed.add((a, b))
    want = g.memo("covers", lambda: ref.lattice_covers(g.n, expected))
    if len(listed) != len(doc["covers"]):
        problems.append("a cover is listed twice")
    if listed != want:
        problems.append(f"{len(want - listed)} covers missing, "
                        f"{len(listed - want)} extra")
    if dot_path is not None:
        with open(dot_path, encoding="utf-8") as handle:
            dot = handle.read()
        if dot.count(" -> ") != len(want) or dot.count("[label=") != count:
            problems.append("DOT output disagrees with the cover count")
    return problems


# -- lattice: a few large lattices ----------------------------------------------

# (vertices, edge probability, target element count); a seeded DAG is drawn
# until its lattice lies within LATTICE_BAND of the target, so every seed
# asks for the same amount of work
LATTICE_SLOTS = [(11, 0.35, 300), (12, 0.3, 600), (13, 0.25, 1200),
                 (14, 0.2, 2400)]
LATTICE_BAND = 0.03


def lattice_inputs(seed):
    """(label, n, edges, with_dot) for each lattice item."""
    rnd = random.Random(seed)
    out = []
    for n, p, target in LATTICE_SLOTS:
        while True:
            edges = random_dag(n, p, rnd)
            if abs(ref.element_count(n, edges) - target) <= LATTICE_BAND * target:
                break
        out.append((f"dag{n}", n, relabel(n, edges, rnd), target == 1200))
    # fixed graphs keep their labels: relabelling moves their cost by up to
    # a third, which would show as spread between seeds
    # the ROADMAP baseline: 544 hereditary sets, 3,736 elements
    out.append(("baseline14", 14, random_dag(14, 0.2, random.Random(1)), False))
    out.append(("chord11", 11, path_edges(11) + [(0, 2)], False))
    out.append(("path10", 10, path_edges(10), True))
    return out


def build_lattice(seed, workdir):
    items = []
    for label, n, edges, with_dot in lattice_inputs(seed):
        g = Graph(label, n, edges, workdir)
        argv = ["lattice", g.path, "--json"]
        dot = None
        if with_dot:
            dot = os.path.join(workdir, f"{label}.dot")
            argv += ["--dot", dot]
        items.append(cli_item(label, argv,
                              lambda doc, g=g, dot=dot: check_lattice_doc(g, doc, dot)))
    # the four seeded DAGs come first, smallest first; alternate small and large
    return spread(items[:1] + items[5:], items[1:5])


# -- census: every connected simple graph with at most five vertices ----------------

CENSUS_MAX = 5
CENSUS_COUNTS = [1, 1, 4, 24, 267]  # OEIS A101228, n = 1..5


def canonical(n, edges):
    return (n, min(tuple(sorted((p[s], p[r]) for s, r in edges))
                   for p in permutations(range(n))))


def _connected(n, edges):
    seen, todo = 1, [0]
    adj = [0] * n
    for s, r in edges:
        adj[s] |= 1 << r
        adj[r] |= 1 << s
    while todo:
        v = todo.pop()
        new = adj[v] & ~seen
        seen |= new
        todo += [u for u in range(n) if new >> u & 1]
    return seen == (1 << n) - 1


def connected_simple_graphs(max_n):
    """Connected DAGs without parallel edges, one per isomorphism class."""
    out = []
    for n in range(1, max_n + 1):
        slots = list(combinations(range(n), 2))
        seen = set()
        for pick in range(1 << len(slots)):
            edges = [slots[k] for k in range(len(slots)) if pick >> k & 1]
            if not _connected(n, edges):
                continue
            key = canonical(n, edges)
            if key not in seen:
                seen.add(key)
                out.append((n, edges))
    return out


def check_census_doc(doc):
    problems = []
    groups = doc["census"]
    counts = [len(group["graphs"]) for group in groups]
    if counts != CENSUS_COUNTS:
        problems.append(f"graph counts {counts}, expected {CENSUS_COUNTS}")
    for group in groups:
        n = group["vertices"]
        keys = set()
        for entry in group["graphs"]:
            edges = [tuple(e) for e in entry["edges"]]
            keys.add(canonical(n, edges))
            if entry["lower_semimodular"] != (ref.forked(n, edges) == 0):
                problems.append(f"lower_semimodular wrong for {n}: {edges}")
        if len(keys) != len(group["graphs"]):
            problems.append(f"isomorphic graphs repeated at {n} vertices")
    return problems


def check_check_doc(g: Graph, doc):
    """``gislat check`` against the reference forks and predicates."""
    problems = []
    fork = ref.forked(g.n, g.edges)
    if g.mask(doc["forked"]) != fork:
        problems.append(f"forked {doc['forked']}")
    if doc["lower_semimodular"] != (fork == 0):
        problems.append("lower_semimodular disagrees with the forks")
    return problems


def generator_set(g: Graph):
    """Sinks as (v, 0), plus (H, v) for the containment-minimal hereditary
    sets H leaving v exactly one out-edge, by search over all of them."""
    hsets = ref.hereditary_sets(g.n, g.edges)
    out = set()
    for v in range(g.n):
        if not any(s == v for s, _ in g.edges):
            out.add((1 << v, 0))
            continue
        good = [H for H in hsets if ref.eligible(g.n, g.edges, H) >> v & 1]
        out |= {(H, 1 << v) for H in good
                if not any(o != H and o & ~H == 0 for o in good)}
    return out


def build_census(seed, workdir):
    rnd = random.Random(seed)
    items = [cli_item("census", ["census", str(CENSUS_MAX), "--json"],
                      check_census_doc)]
    for k, (n, edges) in enumerate(connected_simple_graphs(CENSUS_MAX)):
        g = Graph(f"c{k}", n, relabel(n, edges, rnd), workdir)
        items.append(cli_item(f"{g.label}.check", ["check", g.path, "--json"],
                              lambda doc, g=g: check_census_check(g, doc)))
        items.append(cli_item(f"{g.label}.lattice",
                              ["lattice", g.path, "--json", "--properties"],
                              lambda doc, g=g: check_census_lattice(g, doc)))
        items.append(cli_item(f"{g.label}.generators",
                              ["generators", g.path, "--json"],
                              lambda doc, g=g: check_census_generators(g, doc)))
    return items


def _atomistic(g: Graph) -> bool:
    # in an acyclic graph the atomistic predicate reduces to out-degree <= 1
    out = [0] * g.n
    for s, _ in g.edges:
        out[s] += 1
    return max(out) <= 1


def check_census_check(g: Graph, doc):
    problems = check_check_doc(g, doc)
    if doc["condition_iv"] != ref.condition_iv(g.n, g.edges):
        problems.append("condition_iv wrong")
    if doc["atomistic_predicate"] != _atomistic(g):
        problems.append("atomistic_predicate wrong")
    return problems


def check_census_lattice(g: Graph, doc):
    problems = check_lattice_doc(g, doc)
    props = doc["properties"]
    lower = ref.forked(g.n, g.edges) == 0
    if not (props["lower_semimodular"] == lower == props["modular"]
            == props["distributive"] == ref.condition_iv(g.n, g.edges)):
        problems.append(f"semimodularity laws disagree: {props}")
    if not props["upper_semimodular"]:
        problems.append("not upper-semimodular")
    if props["atomistic"] != _atomistic(g):
        problems.append("atomistic disagrees with the atomistic predicate")
    return problems


def check_census_generators(g: Graph, doc):
    problems = []
    count = g.memo("count", lambda: ref.element_count(g.n, g.edges))
    if doc["closure_check"] != "PASS":
        problems.append("closure check failed")
    if not doc["closure_elements"] == doc["lattice_elements"] == count:
        problems.append(f"closure {doc['closure_elements']} of "
                        f"{doc['lattice_elements']}, expected {count}")
    gens = {(g.mask(t["H"]), g.mask(t["W"])) for t in doc["generators"]}
    if gens != g.memo("generators", lambda: generator_set(g)):
        problems.append("generators differ from the minimal generating set")
    return problems


# -- oracle: brute-force ground truth -------------------------------------------------


def acyclic_multigraphs(max_n, max_edges):
    """Acyclic multigraphs up to isomorphism, isolated vertices included."""
    out = []
    for n in range(1, max_n + 1):
        seen = set()
        for total in range(max_edges + 1):
            for combo in combinations_with_replacement(
                    list(combinations(range(n), 2)), total):
                key = canonical(n, combo)
                if key not in seen:
                    seen.add(key)
                    out.append((n, list(combo)))
    return out


def random_tree(n, rnd):
    """A random tree, edges pointing away from or towards a root."""
    edges = [(rnd.randrange(i), i) for i in range(1, n)]
    if rnd.random() < 0.5:
        edges = [(r, s) for s, r in edges]
    return edges


# (semigroup size, congruence count) of the seeded trees.  Each pair fixes
# the tree's shape, and the seed its labelling: trees of one size but of
# different shapes cost from half to twice each other.
ORACLE_TREES = [(56, 44), (56, 64), (60, 64)]
# the sweep runs this often in a pass, so that its items, which set the
# median latency, give enough samples
ORACLE_SWEEP_REPEATS = 2


def oracle_inputs(seed):
    """The criterion-02 sweep and two paths, fixed, plus seeded trees."""
    rnd = random.Random(seed)
    graphs = acyclic_multigraphs(3, 4)
    graphs.append((4, [(0, 1), (1, 2), (1, 3)]))  # the split graph
    graphs.append((3, [(1, 0), (1, 0), (1, 2), (1, 2)]))  # parallel pair
    out = [(f"sweep{k}", n, edges) for k, (n, edges) in enumerate(graphs)]
    for size, congruences in ORACLE_TREES:
        while True:
            n = rnd.randint(5, 7)
            edges = random_tree(n, rnd)
            if ref.semigroup_size(n, edges) == size \
                    and ref.element_count(n, edges) == congruences:
                break
        out.append((f"tree{size}_{congruences}", n, edges))
    out.append(("path5", 5, path_edges(5)))
    out.append(("path6", 6, path_edges(6)))
    return out


def check_oracle_doc(g: Graph, doc):
    problems = []
    if doc["result"] != "PASS" or doc["failures"]:
        problems.append(f"oracle {doc['result']}: {doc['failures'][:3]}")
    count = g.memo("count", lambda: ref.element_count(g.n, g.edges))
    if not doc["congruences"] == doc["lattice_elements"] == count:
        problems.append(f"{doc['congruences']} congruences, "
                        f"{doc['lattice_elements']} elements, expected {count}")
    size = g.memo("size", lambda: ref.semigroup_size(g.n, g.edges))
    if doc["semigroup_size"] != size:
        problems.append(f"semigroup size {doc['semigroup_size']}, expected {size}")
    return problems


def build_oracle(seed, workdir):
    items = []
    for label, n, edges in oracle_inputs(seed):
        g = Graph(label, n, edges, workdir)
        items.append(cli_item(label, ["oracle", g.path, "--json"],
                              lambda doc, g=g: check_oracle_doc(g, doc)))
    big = 2 + len(ORACLE_TREES)
    return spread(items[:-big] * ORACLE_SWEEP_REPEATS, items[-big:])


# -- pointwise: the triple calculus on cyclic graphs ---------------------------------

# seeded cyclic multigraphs on 6 to 10 vertices, each with exactly
# POINTWISE_CYCLES cycles: an operation scans the cycle list, so graphs with
# one cycle count cost about the same whatever the seed
POINTWISE_RANDOM = 10
POINTWISE_RANDOM_PAIRS = 32
POINTWISE_CYCLES = 4
# (core size, looped upstream vertices, pairs): a complete digraph core
# that nothing leaves, fed by looped vertices; the core holds the cycles,
# 412 and 2,368 of them.  A K8 core (16,064 cycles) is left out: one pair
# takes about 15 s there, as every value lookup copies the cycle list.
POINTWISE_DENSE = [(6, 3, 12), (7, 3, 9)]
LARGEST_DENSE = "dense7"  # its pairs take most of a pass
VALUES = [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, INF]


def random_cyclic(n, rnd, fork_free):
    """A seeded cyclic multigraph: a DAG plus back edges, loops and a
    parallel edge, redrawn until it has POINTWISE_CYCLES cycles and the
    requested fork status."""
    while True:
        edges = random_dag(n, 0.25, rnd)
        for _ in range(rnd.randint(1, 3)):
            a, b = sorted(rnd.sample(range(n), 2))
            edges.append((b, a))
        for v in rnd.sample(range(n), 2):
            edges.append((v, v))
        edges.append(rnd.choice(edges))
        if len(ref.canonical_cycles(n, edges)) != POINTWISE_CYCLES:
            continue
        if (ref.forked(n, edges) == 0) == fork_free:
            return edges


def dense_graph(core, upstream):
    edges = [(a, b) for a in range(core) for b in range(core) if a != b]
    for k in range(upstream):
        u = core + k
        edges += [(u, u), (u, k)]
    return core + upstream, edges


class Calculus:
    """Reference data for one pointwise graph: its hereditary sets, its
    cycles with their vertex masks, and a seeded triple generator."""

    def __init__(self, g: Graph):
        self.g = g
        self.hsets = ref.hereditary_sets(g.n, g.edges)
        self.hset_set = set(self.hsets)
        self.cycles = ref.canonical_cycles(g.n, g.edges)
        self.fork_free = ref.forked(g.n, g.edges) == 0
        self.digraph = Digraph(g.names, g.edges)

    def through(self, H, W):
        """Cycles inside H | W that leave H: those whose value is free."""
        return [c for c, src in self.cycles.items()
                if src & ~(H | W) == 0 and src & ~H]

    def triple(self, H, W, f):
        return triples.WangTriple(self.digraph, H, W, f)

    def random_triple(self, rnd):
        """(H, W, f) with H hereditary, W eligible, f on the free cycles."""
        H = rnd.choice(self.hsets)
        elig = ref.eligible(self.g.n, self.g.edges, H)
        W = 0
        for v in range(self.g.n):
            if elig >> v & 1 and rnd.random() < 0.6:
                W |= 1 << v
        f = {c: rnd.choice(VALUES) for c in self.through(H, W)}
        return H, W, f

    def value(self, spec, cycle):
        H, W, f = spec
        return ref.cycle_value(H, W, f, cycle, self.cycles[cycle])

    def specs_of(self, t):
        return (t.H, t.W, dict(t.f))


PAIR_DRAWS = 50


def related_pair(calc: Calculus, kind, rnd):
    """A pair a <= b of the given kind, or None when a draw does not allow
    one: kind 1 divides one free value by a divisor (an f-cover exactly when
    the divisor is prime), kind 2 adds one eligible vertex to W."""
    a = calc.random_triple(rnd)
    H, W, f = a
    if kind == 1:
        finite = [c for c, v in f.items() if v != INF and v > 1]
        if not finite:
            return None
        c = rnd.choice(finite)
        d = rnd.choice([k for k in range(2, f[c] + 1) if f[c] % k == 0])
        return a, (H, W, {**f, c: f[c] // d}), all(d % k for k in range(2, d))
    free = ref.eligible(calc.g.n, calc.g.edges, H) & ~W
    if not free:
        return None
    v = rnd.choice([u for u in range(calc.g.n) if free >> u & 1])
    W2 = W | 1 << v
    new = {c: rnd.choice(VALUES) for c in calc.through(H, W2) if c not in f}
    return a, (H, W2, {**f, **new}), None


def pointwise_pairs(calc: Calculus, count, rnd):
    """Seeded pairs of triple specs with the cover answer where it is
    known.  Every third pair is independent; the others are related pairs,
    falling back to independent ones on graphs that do not allow them."""
    out = []
    while len(out) < count:
        kind = len(out) % 3
        pair = None
        for _ in range(PAIR_DRAWS if kind else 0):
            pair = related_pair(calc, kind, rnd)
            if pair is not None:
                break
        if pair is None:
            pair = calc.random_triple(rnd), calc.random_triple(rnd), None
        out.append(pair)
    return out


def pointwise_op(calc: Calculus, a, b):
    """One item: a pair through join, meet and leq both ways, covers when
    comparable, and meet_no_fork on fork-free graphs."""
    ta, tb = calc.triple(*a), calc.triple(*b)
    out = {"a": ta, "b": tb,
           "join": triples.join(ta, tb), "meet": triples.meet(ta, tb),
           "leq": triples.leq(ta, tb), "geq": triples.leq(tb, ta)}
    if ta != tb and out["leq"]:
        out["covers"] = triples.covers(ta, tb)
    elif ta != tb and out["geq"]:
        out["covers"] = triples.covers(tb, ta)
    if calc.fork_free:
        out["meet_no_fork"] = triples.meet_no_fork(ta, tb)
    return out


def check_values(calc: Calculus, got, a, b, combine, name):
    """Every free value of a join or meet against gcd or lcm of the inputs."""
    problems = []
    spec = calc.specs_of(got)
    for c in calc.through(got.H, got.W):
        want = combine(calc.value(a, c), calc.value(b, c))
        if calc.value(spec, c) != want:
            problems.append(f"{name} value {calc.value(spec, c)} at {c}, "
                            f"expected {want}")
            break
    return problems


def check_pointwise(calc: Calculus, a, b, expect_cover, out):
    ta, tb, j, m = out["a"], out["b"], out["join"], out["meet"]
    problems = []
    for name, t in (("join", j), ("meet", m)):
        if t.H not in calc.hset_set:
            problems.append(f"{name} has a non-hereditary H")
        elif t.W & ~ref.eligible(calc.g.n, calc.g.edges, t.H):
            problems.append(f"{name} has an ineligible W vertex")
    problems += check_values(calc, j, a, b, ref.ext_gcd, "join")
    problems += check_values(calc, m, a, b, ref.ext_lcm, "meet")
    if triples.join(tb, ta) != j or triples.meet(tb, ta) != m:
        problems.append("join or meet is not commutative")
    if triples.join(ta, ta) != ta or triples.meet(ta, ta) != ta:
        problems.append("join or meet is not idempotent")
    if triples.join(ta, m) != ta or triples.meet(ta, j) != ta:
        problems.append("join and meet do not absorb each other")
    if not out["leq"] == (j == tb) == (m == ta):
        problems.append("leq(a, b) disagrees with join and meet")
    if not out["geq"] == (j == ta) == (m == tb):
        problems.append("leq(b, a) disagrees with join and meet")
    if expect_cover is not None and out.get("covers") != expect_cover:
        problems.append(f"covers {out.get('covers')} on an f-step, "
                        f"expected {expect_cover}")
    if "meet_no_fork" in out and out["meet_no_fork"] != m:
        problems.append("meet_no_fork differs from meet")
    return problems


def pointwise_graphs(seed):
    rnd = random.Random(seed)
    out = []
    for k in range(POINTWISE_RANDOM):
        n = 6 + k % 5
        out.append((f"cyc{k}", n, random_cyclic(n, rnd, k % 2 == 0),
                    POINTWISE_RANDOM_PAIRS))
    for core, up, pairs in POINTWISE_DENSE:
        n, edges = dense_graph(core, up)
        out.append((f"dense{core}", n, relabel(n, edges, rnd), pairs))
    return out


class SetupError(RuntimeError):
    """A check made while setting up found wrong output."""


def build_pointwise(seed, workdir):
    rnd = random.Random(seed + 1)
    small, big = [], []
    for label, n, edges, count in pointwise_graphs(seed):
        g = Graph(label, n, edges, workdir)
        doc, problem = cli_doc(run_cli(["check", g.path, "--json"]))
        problems = [problem] if problem else check_check_doc(g, doc)
        if problems:
            raise SetupError(f"check {label}: {problems[0]}")
        calc = Calculus(g)
        # fill the graph's cycle and hereditary-set caches here, so that
        # every pass does the same work
        for what, got, want in (
                ("cycles", calc.digraph.cycles(), calc.cycles),
                ("hereditary sets", calc.digraph.hereditary_sets(), calc.hsets)):
            if len(got) != len(want):
                raise SetupError(f"{label}: gislat finds {len(got)} {what}, "
                                 f"the reference {len(want)}")
        items = big if label == LARGEST_DENSE else small
        for k, (a, b, cover) in enumerate(pointwise_pairs(calc, count, rnd)):
            items.append(Item(
                f"{label}.{k}",
                lambda calc=calc, a=a, b=b: pointwise_op(calc, a, b),
                lambda out, calc=calc, a=a, b=b, cover=cover:
                    check_pointwise(calc, a, b, cover, out)))
    return spread(small, big)


WORKLOADS = {
    "lattice": build_lattice,
    "census": build_census,
    "oracle": build_oracle,
    "pointwise": build_pointwise,
}
