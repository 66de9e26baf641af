"""Every mutant of ``data/mutants.json`` still applies to the sources.

The CI mutant step applies each mutant once to a copy of ``src/`` and
``tests/`` and asserts that its test file then fails; that step is slow,
so a mutant whose text the code no longer holds is caught here first."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tests" / "data" / "mutants.json").read_text())


def test_every_mutant_text_occurs_exactly_once_in_its_file():
    assert len(MUTANTS) == 34
    for m in MUTANTS:
        assert (ROOT / m["file"]).read_text().count(m["old"]) == 1, (m["file"], m["old"])
        assert m["new"] != m["old"]
        assert (ROOT / m["test"]).is_file(), m["test"]
