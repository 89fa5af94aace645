"""Every golden document under tests/golden/ is regenerated and compared.

A run's documents are regenerated at one and three threads.  Every value
and error must lie within 1e-9 standard errors of the golden's, plus one
unit in the last printed digit, so that roundoff under another numpy or
BLAS that flips that digit passes; an entry whose error is 0 must match
exactly, and an exact estimate within 1e-12.  A changed draw moves a
value by about its error and fails.  Byte equality is printed for each
document and does not fail the test.  Regenerate the goldens with
``python tests/goldens.py``.
"""

import pytest

from goldens import (EXACT, GOLDEN, RUNS, exact_document, mismatches,
                     run_documents)


def _compare(docs):
    assert docs
    bad = []
    for file_name, text in sorted(docs.items()):
        golden = (GOLDEN / file_name).read_text()
        print(f"{file_name}: byte-identical {text == golden}")
        bad += mismatches(file_name, golden, text)
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden(name, threads, tmp_path):
    docs = run_documents(name, threads, tmp_path)
    # a pure run writes its plot data too, and every file has a golden
    assert len(docs) == (3 if RUNS[name].operation != "kraus" else 1)
    _compare(docs)


@pytest.mark.parametrize("name", EXACT)
def test_exact_estimate_matches_golden(name):
    _compare(exact_document(name))


def test_every_golden_is_regenerated():
    names = {f"{n}.{ext}" for n in RUNS
             for ext in ("result.txt", "diagonal.csv", "matrix.csv")}
    names |= {f"{n}.txt" for n in EXACT}
    assert {p.name for p in GOLDEN.iterdir()} <= names
