"""The benchmark's fixed workloads and the generator of their input files.

Every workload is a closed loop: one process runs one simulation at a time
and starts the next only when the previous one has returned.  The program
under test receives only the files written by :func:`write_inputs`: a config
file and, for the Kraus-map workloads, a ``.npy`` Kraus stack.  The benchmark
seed decides the master seed of the simulation and the parameters of the
generated Kraus map, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import pathlib
import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    config: dict          # config keys other than master_seed and kraus_file
    kraus_dim: int = 0    # > 0: generate an amplitude-damping Kraus stack


WORKLOADS = {w.name: w for w in (
    Workload(
        "gauss_bottom_t2",
        "fig2_bottom_scaled preset on two threads: 300 blocks and a low-efficiency "
        "kernel, the only run that dispatches blocks to a worker pool",
        threads=2,
        config=dict(operation="displacement", z="1+0j", nbar=3.0, eta=0.7,
                    blocks=300, samples_per_block=20000, n_max=7),
    ),
    Workload(
        "fock_choi",
        "generated amplitude-damping Kraus map on the Fock route at Fig.-2 "
        "dimensions, Choi estimate: the Fock grid sampler dominates",
        threads=1,
        config=dict(operation="kraus", route="fock", nbar=5.0, eta=0.9,
                    dim_cut=48, n_max=3, blocks=10, samples_per_block=500),
        kraus_dim=48,
    ),
    Workload(
        "finite_choi",
        "generated amplitude-damping Kraus map on the finite-quorum route at d=6, "
        "Choi estimate: no homodyne kernel, the joint outcome table dominates",
        threads=1,
        config=dict(operation="kraus", route="finite", nbar=1.0, eta=0.9,
                    dim_cut=6, n_max=5, blocks=6, samples_per_block=20000),
        kraus_dim=6,
    ),
)}

CONFIG_NAME = "workload.cfg"
KRAUS_NAME = "kraus.npy"


def amplitude_damping(dim: int, gamma: float, success: float) -> np.ndarray:
    """Two Kraus operators of photon damping on a cropped Fock space.

    K0 = sqrt(s) sum_n (1-gamma)^{n/2} |n><n| and
    K1 = sqrt(s) sum_{n>=1} sqrt(1 - (1-gamma)^n) |n-1><n|, so that
    K0^dag K0 + K1^dag K1 = s I: the map occurs with probability s.
    """
    n = np.arange(dim)
    keep = (1.0 - gamma) ** n
    k0 = np.diag(np.sqrt(keep))
    k1 = np.zeros((dim, dim))
    k1[n[:-1], n[1:]] = np.sqrt(1.0 - keep[1:])
    return np.sqrt(success) * np.stack([k0, k1]).astype(complex)


def write_inputs(workload: Workload, seed: int, run_dir) -> dict:
    """Write the workload's config (and Kraus stack) into ``run_dir``.

    Paths inside the config are relative to ``run_dir``, so the result
    document, which embeds the config, does not depend on where it ran.
    Returns what was generated.
    """
    run_dir = pathlib.Path(run_dir)
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    keys = dict(workload.config)
    keys["master_seed"] = int(rng.integers(1, 2**31))
    generated = {"master_seed": keys["master_seed"]}
    if workload.kraus_dim:
        gamma = float(rng.uniform(0.2, 0.4))
        success = float(rng.uniform(0.75, 0.9))
        np.save(run_dir / KRAUS_NAME,
                amplitude_damping(workload.kraus_dim, gamma, success))
        keys["kraus_file"] = KRAUS_NAME
        generated.update(gamma=gamma, success=success)
    keys["out_prefix"] = workload.name
    lines = ["optomo-config v1"] + [f"{k} = {v}" for k, v in keys.items()]
    (run_dir / CONFIG_NAME).write_text("\n".join(lines) + "\n")
    return generated
