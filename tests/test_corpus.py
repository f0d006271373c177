"""The shared corpus of tests/corpus.py, which tests/fingerprint.py reads."""

from pathlib import Path

import fingerprint
from corpus import corpus


def test_corpus_reproduces_the_roadmap_counts():
    cases = corpus()
    partial = [case for case in cases if not case.full]
    assert len(partial) == 6448
    assert sum(case.defect is not None for case in partial) == 226
    assert sum(case.estimate is not None and not case.model.chains.empty for case in partial) == 2766
    full = [case for case in cases if case.full]
    assert len(full) == 1812
    assert all(case.estimate is not None and not case.model.U for case in full)
    assert all("inverted" in case.defect for case in partial if case.defect is not None)


def test_the_fingerprint_matches_the_committed_line():
    # the library's outputs on the corpus are repr-identical to the committed
    # ones; a change that alters them on purpose updates fingerprint.txt
    committed = (Path(__file__).parent / "fingerprint.txt").read_text()
    assert fingerprint.line() + "\n" == committed
