"""Fast self-test of the benchmark's own checks.

    python3 bench/selftest.py

Runs each workload's items on tiny inputs and requires every check to pass,
then corrupts outputs (a dropped cover, a congruence count off by one, a
wrong meet, ...) and requires each corruption to be reported.  It also runs
the item loop on an item that raises, traces one small command, and matches
BENCHMARK.json against the metrics the benchmark prints.  Exit code 0 means
every case behaved.
"""

import json
import os
import random
import shutil
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from gislat.graphs import CapExceeded  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def reported(item, output):
    """Problems the run loop records for an item that returns ``output``."""
    _seconds, error, problems = run.run_item(
        wl.Item(item.label, lambda: output, item.check), None)
    return [error] if error else problems


def corrupt(item, output, mutate):
    """Problems reported once the JSON output is mutated."""
    rc, text, err = output
    doc = json.loads(text)
    mutate(doc)
    return reported(item, (rc, json.dumps(doc), err))


def passes(item):
    output = item.run()
    problems = item.check(output)
    expect(not problems, f"{item.label} passes its check {problems[:1]}")
    return output


def drop_cover(doc):
    doc["covers"].pop(len(doc["covers"]) // 2)


def lattice_cases(workdir):
    g = wl.Graph("split", 4, [(0, 1), (1, 2), (1, 3)], workdir)
    dot = os.path.join(workdir, "split.dot")
    item = wl.cli_item("split", ["lattice", g.path, "--json", "--dot", dot],
                       lambda doc: wl.check_lattice_doc(g, doc, dot))
    out = passes(item)
    expect(corrupt(item, out, drop_cover), "lattice: a dropped cover is reported")
    expect(corrupt(item, out, lambda d: d["covers"].append(d["covers"][0])),
           "lattice: a repeated cover is reported")
    expect(corrupt(item, out, lambda d: d["elements"].pop()),
           "lattice: a missing element is reported")
    expect(corrupt(item, out, lambda d: d.update(bottom=d["top"])),
           "lattice: a wrong bottom is reported")

    def wrong_w(doc):
        top = doc["elements"][doc["top"]]
        top["W"] = top["H"][:1]
    expect(corrupt(item, out, wrong_w), "lattice: a wrong top is reported")
    expect(reported(item, (3, "", "error: lattice would exceed 2 elements")),
           "lattice: a cap exit is reported")


def census_cases(workdir):
    items = wl.build_census(3, workdir)
    census = items[0]
    out = passes(census)
    expect(corrupt(census, out, lambda d: d["census"][3]["graphs"].pop()),
           "census: a missing graph is reported")

    def flip(doc):
        entry = doc["census"][2]["graphs"][0]
        entry["lower_semimodular"] = not entry["lower_semimodular"]
    expect(corrupt(census, out, flip), "census: a wrong classification is reported")
    # one graph with a forked vertex, one without: the items for c4 and c5
    for k in (4, 5):
        check, lattice, generators = items[1 + 3 * k: 4 + 3 * k]
        out = passes(check)
        expect(corrupt(check, out, lambda d: d.update(forked=[])) if json.loads(
            out[1])["forked"] else corrupt(check, out, lambda d: d.update(
                lower_semimodular=False)), f"census: {check.label} corruption reported")
        out = passes(lattice)
        expect(corrupt(lattice, out, lambda d: d["properties"].update(
            distributive=not d["properties"]["distributive"])),
            f"census: {lattice.label} wrong distributivity is reported")
        expect(corrupt(lattice, out, lambda d: d["properties"].update(
            upper_semimodular=False)),
            f"census: {lattice.label} upper-semimodular failure is reported")
        out = passes(generators)
        expect(corrupt(generators, out, lambda d: d["generators"].pop()),
               f"census: {generators.label} a dropped generator is reported")


def oracle_cases(workdir):
    g = wl.Graph("split", 4, [(0, 1), (1, 2), (1, 3)], workdir)
    item = wl.cli_item("split", ["oracle", g.path, "--json"],
                       lambda doc: wl.check_oracle_doc(g, doc))
    out = passes(item)
    expect(corrupt(item, out, lambda d: d.update(congruences=d["congruences"] + 1)),
           "oracle: a congruence count off by one is reported")
    expect(corrupt(item, out, lambda d: d.update(
        semigroup_size=d["semigroup_size"] - 1)),
        "oracle: a wrong semigroup size is reported")
    expect(corrupt(item, out, lambda d: d.update(result="FAIL")),
           "oracle: a FAIL result is reported")


def pointwise_cases(workdir):
    rnd = random.Random(5)
    for fork_free in (True, False):
        n = 6
        g = wl.Graph(f"cyc{fork_free}", n, wl.random_cyclic(n, rnd, fork_free), workdir)
        calc = wl.Calculus(g)
        passed = wrong_meets = caught_meets = caught_leqs = 0
        pairs = wl.pointwise_pairs(calc, 9, rnd)
        for a, b, cover in pairs:
            out = wl.pointwise_op(calc, a, b)
            passed += not wl.check_pointwise(calc, a, b, cover, out)
            if out["meet"] != out["join"]:
                wrong_meets += 1
                bad = dict(out, meet=out["join"])
                caught_meets += bool(wl.check_pointwise(calc, a, b, cover, bad))
            flipped = dict(out, leq=not out["leq"])
            caught_leqs += bool(wl.check_pointwise(calc, a, b, cover, flipped))
        expect(passed == len(pairs), f"pointwise {g.label}: {passed} of "
               f"{len(pairs)} pairs pass their checks")
        expect(wrong_meets and caught_meets == wrong_meets,
               f"pointwise {g.label}: every wrong meet is reported "
               f"({caught_meets}/{wrong_meets})")
        expect(caught_leqs == len(pairs),
               f"pointwise {g.label}: every flipped leq is reported")


def loop_cases():
    def raises():
        raise CapExceeded("more than 3 cycles")
    item = wl.Item("capped", raises, lambda out: [])
    seconds, error, problems = run.run_item(item, None)
    expect(error and "CapExceeded" in error and not problems,
           "run_item: CapExceeded counts as a failed item")
    item = wl.Item("wrong", lambda: 1, lambda out: ["wrong answer"])
    expect(run.run_item(item, None)[2] == ["wrong answer"],
           "run_item: a failed check counts as a failed item")


def trace_cases(workdir):
    from gislat import cli, lattice
    original = lattice.enumerate_lattice
    tracer = tracing.Tracer()
    tracer.install()
    try:
        expect(cli.enumerate_lattice is not original, "tracer: rebinds cli's import")
        g = wl.Graph("path3", 3, [(0, 1), (1, 2)], workdir)
        wl.run_cli(["lattice", g.path, "--json", "--properties"])
        snap = tracer.snapshot()
        metrics = tracing.per_layer(snap)
        expect(metrics["lattice.elements"][0] == 8, "tracer: counts 8 elements")
        expect(metrics["lattice.join_idx.calls"][0] > 0, "tracer: counts join lookups")
        names = {s[2] for s in tracer.spans}
        expect({"cli.main", "lattice.enumerate_lattice", "lattice.ConLattice"} <= names,
               "tracer: records spans for coarse functions")
    finally:
        tracer.uninstall()
    expect(cli.enumerate_lattice is original and lattice.enumerate_lattice is original,
           "tracer: uninstall restores the originals")


def manifest_cases():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expect([m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END],
           "BENCHMARK.json lists the end-to-end metrics run.py prints")
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    want = [m[:3] for m in tracing.METRICS] + [tracing.CALIBRATION]
    expect(layer == want, "BENCHMARK.json lists the per-layer metrics tracer.py prints")
    expect([w["name"] for w in spec["workloads"]] == run.WORKLOAD_NAMES,
           "BENCHMARK.json lists the four workloads")


def main():
    os.makedirs(run.RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.RESULTS)
    try:
        lattice_cases(workdir)
        census_cases(workdir)
        oracle_cases(workdir)
        pointwise_cases(workdir)
        loop_cases()
        trace_cases(workdir)
        manifest_cases()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-test cases passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
