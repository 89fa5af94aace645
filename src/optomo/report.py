"""Versioned result documents: deterministic structured text.

A result document embeds the canonical config, the scalar reconstruction
summary (kappa, herald statistics, truncation deficit), and the matrix
estimate with per-entry standard errors.  The matrix section has one row per
entry, its indices first: (i, j) of A_ij for a pure estimate, (i, j, l, k)
of <<i,j|R(I)|l,k>> for a Choi estimate, in row-major order, all rendered
by one row template.  Matrix values are printed with 10 significant digits
and errors with 3.  The document contains nothing run-dependent beyond the
data itself, so identical config + seed produce byte-identical files
regardless of thread count; wall-clock goes to the console log instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from optomo.config import ExperimentConfig, config_hash, parse_config, write_config
from optomo.estimation import MatrixEstimate

RESULT_VERSION = 1


@dataclass(frozen=True)
class ResultDoc:
    """Parsed result document."""

    config: ExperimentConfig
    kind: str  # "pure" | "choi"
    summary: dict
    values: np.ndarray
    std_errors: np.ndarray


# matrix indices of a document row: A_ij, or the Choi entry <<i,j|R(I)|l,k>>
_INDEX_NAMES = {"pure": ("i", "j"), "choi": ("i", "j", "l", "k")}


def _fmt(x: float) -> str:
    return f"{x:+.9e}"


def _fmt_err(x: float) -> str:
    return f"{x:.2e}"


def render_result(cfg: ExperimentConfig, estimate: MatrixEstimate,
                  kind: str = "pure") -> str:
    kap = estimate.kappa
    names = _INDEX_NAMES[kind]
    w1 = round(estimate.values.size ** (1.0 / len(names)))
    lines = [f"optomo-result v{RESULT_VERSION}", "[config]"]
    lines.append(write_config(cfg).rstrip("\n"))
    lines.append("[summary]")
    summary = [
        ("estimate_kind", kind),
        ("config_hash", config_hash(cfg)),
        ("seed", cfg.master_seed),
        ("i0", estimate.i0),
        ("j0", estimate.j0),
        ("window", w1 - 1),
        ("n_blocks", estimate.n_blocks),
        ("p_hat", _fmt(kap.p_hat)),
        ("p_hat_stderr", _fmt_err(kap.p_hat_stderr)),
        ("kappa", _fmt(kap.kappa)),
        ("kappa_stderr", _fmt_err(kap.kappa_stderr)),
        ("denominator", _fmt(kap.denominator)),
        ("denominator_stderr", _fmt_err(kap.denominator_stderr)),
        ("truncation_deficit", _fmt_err(estimate.truncation_deficit)),
        ("phase_convention", estimate.phase_convention),
    ]
    if estimate.hermiticity_defect is not None:
        summary.append(("hermiticity_defect", _fmt_err(estimate.hermiticity_defect)))
    lines.extend(f"{k} = {v}" for k, v in summary)
    lines.append("[matrix]")
    lines.append(f"# {' '.join(names)} re im stderr")
    row = "%d " * len(names) + "%+.9e %+.9e %.2e"  # _fmt, _fmt, _fmt_err
    cols = [*np.indices((w1,) * len(names)).reshape(len(names), -1).tolist(),
            estimate.values.real.ravel().tolist(),
            estimate.values.imag.ravel().tolist(),
            estimate.std_errors.ravel().tolist()]
    lines.extend(row % r for r in zip(*cols))
    return "\n".join(lines) + "\n"


def parse_result(text: str) -> ResultDoc:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("optomo-result"):
        raise ValueError("missing 'optomo-result v<N>' header")
    if int(lines[0].split("v")[-1]) != RESULT_VERSION:
        raise ValueError("unsupported result version")
    section = None
    config_lines: list[str] = []
    summary: dict = {}
    rows = []
    for ln in lines[1:]:
        stripped = ln.strip()
        if stripped in ("[config]", "[summary]", "[matrix]"):
            section = stripped
            continue
        if not stripped or (stripped.startswith("#") and section != "[config]"):
            continue
        if section == "[config]":
            config_lines.append(ln)
        elif section == "[summary]":
            key, _, value = stripped.partition("=")
            summary[key.strip()] = value.strip()
        elif section == "[matrix]":
            rows.append(stripped.split())
    cfg = parse_config("\n".join(config_lines))
    kind = summary.get("estimate_kind", "pure")
    order = len(_INDEX_NAMES[kind])
    table = np.array(rows, dtype=float)
    if table.ndim != 2 or table.shape[1] != order + 3:
        raise ValueError(f"[matrix] needs rows of {order + 3} columns")
    idx = tuple(table[:, :order].astype(int).T)
    shape = (int(table[:, :order].max()) + 1,) * order
    vals = np.zeros(shape, dtype=complex)
    errs = np.zeros(shape)
    vals[idx] = table[:, order] + 1j * table[:, order + 1]
    errs[idx] = table[:, order + 2]
    side = shape[0] ** (order // 2)
    return ResultDoc(config=cfg, kind=kind, summary=summary,
                     values=vals.reshape(side, side),
                     std_errors=errs.reshape(side, side))


def render_plotdata_diagonal(values, std_errors, theory) -> str:
    """Columnar diagonal file: n, re_A_nn, im_A_nn, stderr, theory_re, theory_im."""
    out = ["# n, re_A_nn, im_A_nn, stderr, theory_re, theory_im"]
    for n in range(values.shape[0]):
        v = values[n, n]
        t = theory[n, n]
        out.append(
            f"{n}, {v.real:.9g}, {v.imag:.9g}, {std_errors[n, n]:.3g}, "
            f"{t.real:.9g}, {t.imag:.9g}"
        )
    return "\n".join(out) + "\n"


def render_plotdata_matrix(values, std_errors) -> str:
    """Columnar full-matrix file: n, m, re, im, stderr."""
    out = ["# n, m, re, im, stderr"]
    for n in range(values.shape[0]):
        for m in range(values.shape[1]):
            v = values[n, m]
            out.append(f"{n}, {m}, {v.real:.9g}, {v.imag:.9g}, "
                       f"{std_errors[n, m]:.3g}")
    return "\n".join(out) + "\n"
