"""Mutation records: one-line faults planted in src/, each with the test
that must fail on it.

Each record names a file, an exact text that occurs once in it, the text
that replaces it, the pytest node that must kill the mutant and why that
test sees the fault.  pytest does not collect this module (it has no
test_ prefix); tests/test_mutant_records.py checks in tier-1 that every
record still applies, so a refactor that moves the text updates the
record in the same change.

Run from anywhere, with the standard library and pytest only:

    python tests/mutants.py

For each record the checkout is copied to a temporary directory, the
record applied there, and its test run with -x -q -p no:cacheprovider.
One JSON line per mutant is printed (killed or not, seconds taken); the
exit status is 1 if any mutant survives its test.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str  # relative to the root of the checkout
    old: str  # occurs exactly once in file
    new: str
    test: str  # the pytest node that must fail
    why: str


_COLUMNS_TEST = ("tests/test_row_passes.py::"
                 "test_join_and_meet_columns_match_the_per_pair_core")

MUTANTS = [
    Mutant("src/gislat/triples.py",
           "MW[v] = h | WC[v] & ~dead",
           "MW[v] = h | WC[v]",
           _COLUMNS_TEST,
           "the meet keeps in W the dead ends of W1 n W2, which meet_hw "
           "removes"),
    Mutant("src/gislat/triples.py",
           "j = rest & (dead | reached)",
           "j = rest & dead",
           _COLUMNS_TEST,
           "J holds the dead ends only, not the vertices of rest with a "
           "range in J, so a join with a path of two vertices into a dead "
           "end keeps the first in W"),
    Mutant("src/gislat/triples.py",
           "JH[v], JW[v] = h | j, rest & ~j",
           "JH[v], JW[v] = h | j, rest",
           _COLUMNS_TEST,
           "a vertex of J is left in the join's W as well as its H"),
    Mutant("src/gislat/triples.py",
           "MH[v], MW[v] = HC[v], WC[v]",
           "MH[v], MW[v] = HC[v], 0",
           _COLUMNS_TEST,
           "the meet drops W2 n H1, the W_j vertices inside H1"),
    Mutant("src/gislat/triples.py",
           "key=lambda v: reach[v].bit_count()",
           "key=lambda v: -reach[v].bit_count()",
           _COLUMNS_TEST,
           "each vertex is visited before its ranges, so it reads their "
           "h12 and J columns before they are set"),
    Mutant("src/gislat/triples.py",
           "dead, reached = ones, 0",
           "dead, reached = 0, 0",
           _COLUMNS_TEST,
           "no sink is a dead end, so the dead-end set is always empty"),
    Mutant("src/gislat/oracle.py",
           "        parent[i] = parent[p]\n    return tuple(parent)",
           "        pass\n    return tuple(parent)",
           "tests/test_congruence_closure.py::"
           "test_store_keeps_one_root_tuple_per_partition",
           "_roots skips normalising, so a stored congruence is a parent "
           "list whose entries need not be their block's least member, "
           "and one partition can be stored twice"),
    Mutant("src/gislat/cli.py",
           "sep.join(islice(strings, SLICE))",
           "sep.join(islice(strings, SLICE - 1))",
           "tests/test_cli.py::"
           "test_rendering_in_short_slices_matches_rendering_from_triples",
           "each slice joins one string too few, so a lattice longer than "
           "one slice loses elements and covers; only a short SLICE makes "
           "the test's lattices cross a slice boundary"),
]


def apply(mutant: Mutant, root: Path) -> None:
    """Write the mutant into the checkout at root, whose file must hold
    the old text exactly once."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.file}: old text occurs "
                         f"{text.count(mutant.old)} times, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant) -> dict:
    """Run the mutant's test on a mutated copy of the checkout.  Only a
    test failure (pytest exit 1) kills it; a collection or usage error
    does not."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis",
            ".benchmarks", "results"))
        apply(mutant, copy)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(copy / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", mutant.test],
            cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
    return {"file": mutant.file, "new": mutant.new, "test": mutant.test,
            "killed": proc.returncode == 1, "pytest_exit": proc.returncode,
            "seconds": round(time.perf_counter() - start, 2)}


def main() -> int:
    survived = 0
    for mutant in MUTANTS:
        result = run(mutant)
        survived += not result["killed"]
        print(json.dumps(result), flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
