"""Golden result documents: small runs of every route and the exact
estimates, regenerated and compared by ``tests/test_goldens.py``.

Regenerate every file under ``tests/golden/`` (only after a deliberate
change of the documents, stated with its largest |delta|/SE):

    PYTHONPATH=src python tests/goldens.py

A run golden is a case's result document and, for a pure estimate, its two
plot-data files.  An exact golden is ``exact_pure_estimate`` or
``exact_choi_estimate`` at d = 3 on a random entangler and operation, one
row per entry with each number as ``float.hex``, so it round-trips exactly.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import numpy as np
from oracles import random_invertible_state, random_kraus_map

from optomo.config import ExperimentConfig
from optomo.estimation import exact_choi_estimate, exact_pure_estimate
from optomo.maps import KrausMap, output_branches
from optomo.pipeline import run_simulate
from optomo.quorum import build_finite_quorum

GOLDEN = Path(__file__).resolve().parent / "golden"
KRAUS_NAME = "damping.npy"
# a regenerated number may differ from its golden by this fraction of its
# standard error (and by one unit in the last printed digit)
SE_FRACTION = 1e-9
# the exact path has no sampling error; a d = 3 chain's roundoff is ~1e-15
EXACT_BOUND = 1e-12

_BASE = ExperimentConfig(nbar=1.0, eta=0.9, blocks=4, master_seed=2468,
                         z=0.5 + 0.25j)
RUNS = {
    "gauss_pure": replace(_BASE, operation="displacement", route="gaussian",
                          n_max=3, samples_per_block=4000),
    "fock_pure": replace(_BASE, operation="displacement", route="fock",
                         dim_cut=16, n_max=3, samples_per_block=1000),
    "finite_pure": replace(_BASE, operation="displacement", route="finite",
                           dim_cut=6, n_max=3, samples_per_block=4000),
    "fock_choi": replace(_BASE, operation="kraus", kraus_file=KRAUS_NAME,
                         route="fock", dim_cut=16, n_max=2,
                         samples_per_block=1000),
    "finite_choi": replace(_BASE, operation="kraus", kraus_file=KRAUS_NAME,
                           route="finite", dim_cut=6, n_max=2,
                           samples_per_block=4000),
}
EXACT = ("exact_pure", "exact_choi")


def damping(dim: int) -> np.ndarray:
    """Photon damping, gamma = 0.3, on a cropped Fock space: K0 = sum_n
    0.7^{n/2} |n><n|, K1 = sum_n sqrt(1 - 0.7^n) |n-1><n|.  It mirrors the
    benchmark's ``amplitude_damping(dim, 0.3, 1.0)`` on purpose, as the
    tests do not import ``bench``."""
    n = np.arange(dim)
    keep = 0.7 ** n
    k1 = np.zeros((dim, dim))
    k1[n[:-1], n[1:]] = np.sqrt(1.0 - keep[1:])
    return np.stack([np.diag(np.sqrt(keep)), k1]).astype(complex)


def run_documents(name: str, threads: int, out_dir) -> dict:
    """Run case ``name`` in ``out_dir`` (its kernel cache too); returns
    {file name: text} of the documents it wrote."""
    cfg = replace(RUNS[name], out_prefix=name)
    out_dir = Path(out_dir)
    if cfg.kraus_file:
        np.save(out_dir / KRAUS_NAME, damping(cfg.dim_cut))
    cwd = os.getcwd()
    os.chdir(out_dir)  # the config names its Kraus file relative to here
    try:
        paths = run_simulate(cfg, threads=threads, out_dir=".").paths
    finally:
        os.chdir(cwd)
    return {p.name: (out_dir / p).read_text() for p in paths}


def exact_document(name: str) -> dict:
    """{file name: text} of exact golden ``name``: rows ``r c re im``."""
    rng = np.random.default_rng(97)
    d = 3
    quorum = build_finite_quorum(d)
    psi = random_invertible_state(rng, d)
    ks = random_kraus_map(rng, d)
    if name == "exact_pure":
        est = exact_pure_estimate(*output_branches(KrausMap((ks[0],)), psi),
                                  psi, 0, 0, quorum)
    else:
        est = exact_choi_estimate(*output_branches(KrausMap(tuple(ks)), psi),
                                  psi, quorum)
    rows = [f"{r} {c} {v.real.hex()} {v.imag.hex()}"
            for (r, c), v in np.ndenumerate(est)]
    return {f"{name}.txt": "\n".join(rows) + "\n"}


def _is_int(token: str) -> bool:
    return token.lstrip("+-").isdigit()


def _is_float(token: str) -> bool:
    try:
        return math.isfinite(float(token))
    except ValueError:
        return False


def _close(golden: str, fresh: str, se) -> bool:
    """One number of a line against its golden: equal text, or, with a
    nonzero standard error, within SE_FRACTION of it plus one unit in the
    last printed digit; an index, a word or an SE of zero must match.  An
    exact estimate's ``float.hex`` (se None) must lie within EXACT_BOUND."""
    if golden == fresh:
        return True
    if se is None:
        return abs(float.fromhex(golden) - float.fromhex(fresh)) <= EXACT_BOUND
    if se == 0.0 or _is_int(golden) or _is_int(fresh):
        return False
    try:
        g, f = Decimal(golden), Decimal(fresh)
    except ArithmeticError:  # a word that differs
        return False
    last_digit = Decimal(10) ** min(g.as_tuple().exponent,
                                    f.as_tuple().exponent)
    return abs(g - f) <= Decimal(SE_FRACTION * se) + last_digit


def _line_errors(file_name: str, lines: list) -> list:
    """The standard error each line's numbers are held to: a matrix row's
    own error, a summary value's ``<key>_stderr`` or, without one, its own
    size; the config and the headers must match exactly (0)."""
    if file_name.endswith(".csv"):
        col = 3 if file_name.endswith(".diagonal.csv") else 4
        return [0.0 if ln.startswith("#") else float(ln.split(",")[col])
                for ln in lines]
    summary = dict(ln.split(" = ", 1) for ln in lines if " = " in ln)
    errors, section = [], None
    for ln in lines:
        if ln.startswith("["):
            section = ln
        key, _, value = ln.partition(" = ")
        if section == "[matrix]" and not ln.startswith(("[", "#")):
            errors.append(float(ln.split()[-1]))
        elif section == "[summary]" and value:
            own = summary.get(f"{key}_stderr", value)
            errors.append(abs(float(own)) if _is_float(own) else 0.0)
        else:
            errors.append(0.0)
    return errors


def mismatches(file_name: str, golden: str, fresh: str) -> list:
    """The lines of a regenerated document that differ from its golden
    beyond the bound; empty when the document passes."""
    g_lines, f_lines = golden.splitlines(), fresh.splitlines()
    if len(g_lines) != len(f_lines):
        return [f"{file_name}: {len(f_lines)} lines, golden has "
                f"{len(g_lines)}"]
    errors = ([None] * len(g_lines) if file_name.startswith("exact_")
              else _line_errors(file_name, g_lines))
    bad = []
    for n, (g, f, se) in enumerate(zip(g_lines, f_lines, errors), 1):
        gt, ft = g.replace(",", " ").split(), f.replace(",", " ").split()
        if len(gt) != len(ft) or not all(
                _close(a, b, se) for a, b in zip(gt, ft)):
            bad.append(f"{file_name}:{n}: {f!r}, golden {g!r}")
    return bad


def main() -> None:
    """Write every golden into ``tests/golden/``, runs at one thread."""
    GOLDEN.mkdir(exist_ok=True)
    docs = {}
    for name in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            docs.update(run_documents(name, 1, tmp))
    for name in EXACT:
        docs.update(exact_document(name))
    for file_name, text in sorted(docs.items()):
        (GOLDEN / file_name).write_text(text)
        print(f"wrote {GOLDEN / file_name}")


if __name__ == "__main__":
    main()
