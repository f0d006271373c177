"""Fingerprint of the library's outputs on the shared corpus (tests/corpus.py).

Writes one ``repr`` record per model: its draw, observed patterns,
reference and G, the estimate's cells (or the inverted-span text), the
closed-form energy, and then, for a partial model, ``worst_case_energy``
at resolution 50, or, for a full-atlas model, the
``perturbation_minimax_check`` report at resolution 12, or the text of
the exception either raised.  Prints the number of records and their
SHA-256, so two checkouts produce the same outputs exactly when they
print the same line:

    PYTHONPATH=src python tests/fingerprint.py

The expected line is committed in ``tests/fingerprint.txt``, and
``tests/test_corpus.py`` compares :func:`line` with it, so ``pytest``
fails on any change to these outputs.  By hand:

    PYTHONPATH=src python tests/fingerprint.py | diff tests/fingerprint.txt -

To find the model behind a mismatch, import :func:`record` and
:func:`corpus` and compare the records of the two checkouts.
"""

from __future__ import annotations

import hashlib

from corpus import Case, corpus

from pcsamp import closed_form_energy, perturbation_minimax_check, worst_case_energy


def record(case: Case) -> str:
    est, g = case.estimate, case.spec.g
    head = (case.draw, case.observed, case.model.l, case.model.G)
    if est is None:
        return repr((*head, case.defect, closed_form_energy(case.model, g)))
    try:
        if case.full:
            outcome = perturbation_minimax_check(est, g, est.box, resolution=12)
        else:
            outcome = worst_case_energy(est, g, est.box, resolution=50)
    except Exception as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    return repr((*head, est.cells, closed_form_energy(case.model, g), outcome))


def line() -> str:
    """The number of records and their SHA-256, as the script prints them."""
    records = [record(case) for case in corpus()]
    digest = hashlib.sha256("".join(r + "\n" for r in records).encode()).hexdigest()
    return f"{len(records)} records, sha256 {digest}"


def main() -> None:
    print(line())


if __name__ == "__main__":
    main()
