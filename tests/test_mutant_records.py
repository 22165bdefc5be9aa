"""The mutation records in tests/mutants.py still apply to the code: each
record's old text occurs exactly once in its file and differs from its
new text, and its test exists.  Running the mutants is left to
`python tests/mutants.py`."""

import re

from mutants import MUTANTS, ROOT


def test_each_mutant_record_applies_exactly_once():
    assert MUTANTS
    for m in MUTANTS:
        text = (ROOT / m.file).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, m
        assert m.new != m.old, m
        test_file, name = m.test.split("::")
        source = (ROOT / test_file).read_text(encoding="utf-8")
        assert re.search(rf"^def {name}\(", source, re.MULTILINE), m
