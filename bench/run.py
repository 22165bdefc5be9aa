"""Seeded benchmark of gislat.

    python3 bench/run.py --workload lattice --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One workload runs in one single-threaded process.  Set-up imports gislat,
builds the seeded inputs and graph files, and warms up, three times over.
The timed part then runs whole passes over a fixed list of items until the
next pass would end after --seconds; every output is checked outside the
timed spans.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  ``--workload all`` runs
each workload in its own process and prints a table.  Result and span files
go to bench/results/.

Between items a fixed probe is timed every 0.2 s, and during set-up after
each build (see ``Pace``).  The time metrics are in reference seconds: wall
seconds times REFERENCE_PROBE_MS over the median probe time of the same
phase.  The wall-clock figures are printed beside them, and the timed
part's median probe is bench.calibration_ms.
"""

import time

STARTED = time.time()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
WORKLOAD_NAMES = ["lattice", "census", "oracle", "pointwise"]
SETUP_REPEATS = 3
CHILD_TIMEOUT = 175
# Digraph hashes vertex names and WangTriple hashes its graph, so string
# hashing is fixed for the whole process
HASH_SEED = "0"
STARTED_VAR = "GISLAT_BENCH_STARTED"

END_TO_END = [("items_per_s", "1/s"), ("item_p50_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]

PROBE_EVERY_S = 0.2
PROBE_REPEATS = 4
# the probe: all (H, W) pairs of a fixed 9-vertex DAG, by the reference code
PROBE_GRAPH = (9, [(0, 1), (0, 6), (0, 7), (1, 2), (1, 3), (2, 3), (3, 4), (3, 8)])
# the probe's time on the machine whose seconds the time metrics are in
REFERENCE_PROBE_MS = 2.0


class Pace:
    """How fast the machine ran, from a fixed probe timed at most every
    PROBE_EVERY_S seconds between items.

    The machine is shared: for seconds to tens of seconds at a time it runs
    all Python code up to 1.6 times slower.  A time multiplied by
    REFERENCE_PROBE_MS / median_ms() is in reference seconds, which such
    phases move far less.  The probe runs the benchmark's own reference
    code, graph and bitmask work like gislat's: in one trial its slowness
    tracked gislat's with correlation 0.72, against 0.50 for a plain
    arithmetic loop, which in two runs ran twice as slow while gislat did
    not.  No change to gislat can move the probe.
    """

    def __init__(self):
        self.marks = []  # (perf_counter at the end of a probe, probe ms)

    def probe(self):
        import reference  # networkx loads only in a workload process
        t = time.perf_counter()
        for _ in range(PROBE_REPEATS):
            reference.lattice_elements(*PROBE_GRAPH)
        now = time.perf_counter()
        self.marks.append((now, 1000 * (now - t)))

    def tick(self):
        if time.perf_counter() - self.marks[-1][0] >= PROBE_EVERY_S:
            self.probe()

    def median_ms(self):
        return statistics.median(ms for _t, ms in self.marks)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def run_item(item, tracer):
    """(seconds, error, problems) for one item: error when gislat raised,
    problems when its output failed a check.  Only item.run is timed."""
    if tracer is not None:
        tracer.active = True
    t = time.perf_counter()
    try:
        out = item.run()
        error = None
    except Exception as exc:  # a failed item must not end the run
        out, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t
    if tracer is not None:
        tracer.active = False
    if error:
        return seconds, error, []
    try:
        problems = item.check(out)
    except Exception:
        problems = ["check raised " + traceback.format_exc(limit=2)]
    return seconds, None, problems


def build(workloads, name, seed, tracer, workdirs):
    """(items, seconds): inputs, graph files and one warm-up item."""
    t = time.perf_counter()
    workdirs.append(tempfile.mkdtemp(prefix=f"work-{name}-", dir=RESULTS))
    items = workloads.WORKLOADS[name](seed, workdirs[-1])
    if tracer is not None:
        tracer.active = False
    items[0].run()
    return items, time.perf_counter() - t


def timed_passes(items, seconds, tracer):
    """Whole passes over the items: (item seconds, failures, wrong, passes,
    elapsed, mean probe ms).  Stops once one more pass would end after
    ``seconds``."""
    times, failures, wrong, passes = [], [], 0, 0
    gc.collect()
    pace = Pace()
    start = time.perf_counter()
    pace.probe()
    while True:
        for item in items:
            pace.tick()
            took, error, problems = run_item(item, tracer)
            times.append(took)
            if error or problems:
                failures.append(f"{item.label}: {error or '; '.join(problems)}")
                wrong += bool(problems)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    pace.probe()
    return times, failures, wrong, passes, elapsed, pace.median_ms()


def run_workload(args):
    sys.path.insert(0, SRC)
    import gislat
    if not os.path.abspath(gislat.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: gislat was imported from {gislat.__file__}, not {SRC}")
    import workloads
    tracer = tracing = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    imported = time.time() - args.started
    os.makedirs(RESULTS, exist_ok=True)
    setup_pace = Pace()
    setup_pace.probe()

    workdirs = []
    try:
        builds = []
        for _ in range(1 if tracer else SETUP_REPEATS):
            try:
                items, seconds = build(workloads, args.workload, args.seed,
                                       tracer, workdirs)
            except workloads.SetupError as exc:
                print(f"set-up check failed: {exc}", file=sys.stderr)
                print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                                  "metrics": {}}))
                return 1
            builds.append(seconds)
            setup_pace.probe()
        setup_s = imported + statistics.median(builds)
        setup_probe_ms = setup_pace.median_ms()
        at_setup = tracer.snapshot() if tracer else None
        times, failures, wrong, passes, elapsed, probe_ms = timed_passes(
            items, args.seconds, tracer)
    finally:
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(times), len(failures)
    scale = REFERENCE_PROBE_MS / probe_ms
    wall = {"items_per_s": (attempted - failed) / sum(times),
            "item_p50_ms": 1000 * statistics.median(times),
            "setup_s": setup_s}
    info = {"workload": args.workload, "seed": args.seed, "passes": passes,
            "items_per_pass": len(items), "timed_s": round(elapsed, 3),
            "probe_ms": probe_ms, "setup_probe_ms": setup_probe_ms,
            "wall": wall, "setup_builds_s": builds}
    if attempted >= 100:
        info["item_p90_ms"] = 1000 * statistics.quantiles(times, n=10)[-1] * scale
    if tracer is None:
        metrics = {
            "items_per_s": (wall["items_per_s"] / scale, "1/s"),
            "item_p50_ms": (wall["item_p50_ms"] * scale, "ms"),
            "setup_s": (setup_s * REFERENCE_PROBE_MS / setup_probe_ms, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
    else:
        end = tracer.snapshot()
        per_pass = Counter({k: at_setup[k] + (end[k] - at_setup[k]) / passes
                            for k in end})
        metrics = tracing.per_layer(per_pass)
        metrics[tracing.CALIBRATION[0]] = (probe_ms, "ms")
        tracer.write_spans(os.path.join(
            RESULTS, f"{args.workload}-seed{args.seed}.spans.jsonl"))

    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": (round(v) if unit == "count" else v), "unit": unit}
                    for k, (v, unit) in metrics.items()},
    }
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as handle:
        json.dump({"info": info, "failures": failures, **result}, handle, indent=1)
    for line in failures[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a fresh process, then one table."""
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        rows[name] = json.loads(lines[-1])
    for name, row in rows.items():
        print(f"{name:10s} attempted {row['attempted']:6d}  failed {row['failed']}"
              f"  correct {row['correct']}")
        for metric, m in row["metrics"].items():
            print(f"    {metric:46s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"workloads": rows}))
    return 0 if all(r["correct"] and not r["failed"] for r in rows.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gislat", "__init__.py")):
        print(f"error: no gislat sources under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    # the process start survives the re-exec below, and no child inherits it
    args.started = float(os.environ.pop(STARTED_VAR, STARTED))
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        env[STARTED_VAR] = repr(args.started)
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + sys.argv[1:], env)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
