"""Experiment configuration: flat key-value text format with presets.

The file format is line-oriented ``key = value`` with a version header line
``optomo-config v1``; ``#`` at the start of a line or after whitespace starts
a comment that runs to the end of the line.  Writing a config produces a
canonical form that round-trips losslessly through the parser.
"""

from __future__ import annotations

import hashlib
import re
import warnings
from dataclasses import dataclass, fields, replace
from importlib import resources
from typing import get_type_hints

import numpy as np

from optomo.errors import ConfigError

CONFIG_VERSION = 1
PRESETS = ("fig2_top", "fig2_bottom", "fig2_bottom_scaled")

_OPERATIONS = ("displacement", "identity", "kraus")
_ROUTES = ("auto", "gaussian", "fock", "finite")
_COMMENT = re.compile(r"(^|\s)#.*$")
FINITE_ROUTE_MAX_DIM = 12
DEFICIT_WARN_BOUND = 1e-3


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated simulation parameters; see ``parse_config`` for the file keys."""

    operation: str = "displacement"
    z: complex = 1.0 + 0.0j
    kraus_file: str = ""
    nbar: float = 5.0
    eta: float = 0.9
    dim_cut: int = 0          # 0 means auto, see resolved_dim_cut
    n_max: int = 7
    blocks: int = 150
    samples_per_block: int = 10_000
    master_seed: int = 20_260_809
    reference: str = "auto"   # "auto" or "i0,j0"
    route: str = "auto"
    grid_half_width: float = 0.0  # 0 means auto: 6 (1 + nbar)
    grid_spacing: float = 0.01
    ridge: float = 1e-10
    out_prefix: str = "run"
    dump_samples: bool = False

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (float, complex)) and not np.isfinite(value):
                raise ConfigError(f"{f.name} = {value} is not finite")
        for key in ("dim_cut", "grid_half_width", "ridge", "master_seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} = {getattr(self, key)} is negative")
        if self.operation not in _OPERATIONS:
            raise ConfigError(
                f"unknown operation {self.operation!r}; pick one of {_OPERATIONS}"
            )
        if self.operation == "kraus" and not self.kraus_file:
            raise ConfigError("operation = kraus requires kraus_file")
        if not 0.5 < self.eta <= 1.0:
            raise ConfigError(
                f"eta = {self.eta} outside (0.5, 1]: noise deconvolution "
                "diverges at or below eta = 0.5"
            )
        if self.nbar < 0:
            raise ConfigError("nbar must be nonnegative")
        if self.nbar / (self.nbar + 1.0) == 1.0:
            raise ConfigError(
                f"nbar = {self.nbar} is too large: lambda^2 = nbar/(nbar + 1) "
                f"rounds to 1, which leaves the twin beam no amplitudes")
        if self.blocks < 2:
            raise ConfigError("need at least 2 blocks for block statistics")
        if self.samples_per_block < 1 or self.n_max < 0:
            raise ConfigError("counts must be positive")
        if self.route not in _ROUTES:
            raise ConfigError(f"unknown route {self.route!r}; pick one of {_ROUTES}")
        finite = self.resolved_route() == "finite"
        if self.route == "gaussian" and self.operation == "kraus":
            raise ConfigError(
                "route = gaussian covers the Gaussian operations "
                "(displacement, identity); use fock or finite for kraus"
            )
        if self.reference != "auto":
            try:
                i0, j0 = (int(t) for t in self.reference.split(","))
            except ValueError as exc:
                raise ConfigError(
                    f"reference must be 'auto' or 'i0,j0', got {self.reference!r}"
                ) from exc
            if i0 < 0 or j0 < 0 or i0 > self.n_max or j0 > self.n_max:
                raise ConfigError("reference indices must lie inside the window")
        if self.grid_spacing <= 0:
            raise ConfigError("grid_spacing must be positive")
        if (self.out_prefix in ("", ".", "..")
                or any(c in self.out_prefix for c in "/\\\0")):
            raise ConfigError(
                f"out_prefix = {self.out_prefix!r} must be one file-name "
                "component: non-empty, not '.' or '..', no '/', '\\' or NUL")
        if self.dump_samples and finite:
            raise ConfigError(
                "dump_samples writes quadrature records; route = finite has "
                "none to write"
            )
        dim = self.resolved_dim_cut()
        if dim * dim > np.iinfo(np.intp).max:
            auto = "" if self.dim_cut else f" (auto, from nbar = {self.nbar})"
            raise ConfigError(
                f"dim_cut = {dim}{auto} is too large: a dim_cut x dim_cut "
                f"matrix has more entries than an array can index")
        if finite and dim > FINITE_ROUTE_MAX_DIM:
            raise ConfigError(
                f"route = finite is limited to dim_cut <= "
                f"{FINITE_ROUTE_MAX_DIM}, got {dim}"
            )
        if dim < 2:
            # no finite quorum or displacement fits in one Fock level
            raise ConfigError(f"dim_cut = {dim} must be at least 2")
        if dim <= self.n_max:
            raise ConfigError(
                f"dim_cut = {dim} must exceed the reconstruction window "
                f"n_max = {self.n_max}"
            )
        # |z| against sqrt(dim), not |z|^2 against dim: |z|^2 overflows
        if self.operation == "displacement" and abs(self.z) >= np.sqrt(dim):
            raise ConfigError(
                f"z = {self.z} does not fit dim_cut = {dim}: the displaced "
                f"vacuum's mean photon number |z|^2 must stay below dim_cut, "
                f"so |z| < {np.sqrt(dim):.6g}"
            )
        if self.nbar > 0 and not finite:
            # the finite route renormalises the truncated entangler, so the
            # deficit gate and warning apply to the radiation-mode routes only
            lam2 = self.nbar / (self.nbar + 1.0)
            deficit = lam2**dim
            if deficit > 1e-2:
                raise ConfigError(
                    f"twin-beam truncation deficit {deficit:.2e} at dim_cut = "
                    f"{dim} (nbar = {self.nbar}); the entangler is effectively "
                    f"non-invertible, raise dim_cut to >= "
                    f"{int(np.ceil(np.log(1e-2) / np.log(lam2)))}"
                )
            if deficit > DEFICIT_WARN_BOUND:
                # issued from here, so a config validated twice warns once
                warnings.warn(
                    f"twin-beam truncation deficit {deficit:.3e} above bound "
                    f"{DEFICIT_WARN_BOUND:.0e}; increase dim_cut")
        if self.nbar == 0:
            raise ConfigError(
                "nbar = 0 gives a rank-one (non-invertible) entangler; "
                "reconstruction needs nbar > 0"
            )

    def resolved_dim_cut(self) -> int:
        """Fock cutoff of the run: ``dim_cut``, else a per-route default.

        The radiation-mode routes default to max(16, ceil(8 (nbar + 1)));
        the finite route to the window dimension n_max + 1, at least 2.
        """
        if self.dim_cut > 0:
            return self.dim_cut
        if self.resolved_route() == "finite":
            return max(2, self.n_max + 1)
        return max(16, int(np.ceil(8.0 * (self.nbar + 1.0))))

    def resolved_half_width(self) -> float:
        if self.grid_half_width > 0:
            return self.grid_half_width
        return 6.0 * (1.0 + self.nbar)

    def resolved_reference(self) -> tuple[int, int] | None:
        if self.reference == "auto":
            return None
        i0, j0 = (int(t) for t in self.reference.split(","))
        return i0, j0

    def resolved_route(self) -> str:
        if self.route != "auto":
            return self.route
        return "gaussian" if self.operation in ("displacement", "identity") else "fock"


def _parse_bool(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ValueError(f"expected one of 1/true/yes/0/false/no, got {text!r}")


# each key is parsed by the type of its field (bool by _parse_bool)
_FIELD_TYPES = get_type_hints(ExperimentConfig)


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key-value format; raises ConfigError on any problem."""
    lines = [_COMMENT.sub("", ln).strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("optomo-config"):
        raise ConfigError("missing 'optomo-config v<N>' header line")
    try:
        version = int(lines[0].split("v")[-1])
    except ValueError as exc:
        raise ConfigError(f"malformed version header {lines[0]!r}") from exc
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version}")
    kwargs = {}
    for ln in lines[1:]:
        if "=" not in ln:
            raise ConfigError(f"malformed line {ln!r}; expected 'key = value'")
        key, _, value = ln.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        if key in kwargs:
            raise ConfigError(f"config key {key!r} given more than once")
        parse = _parse_bool if _FIELD_TYPES[key] is bool else _FIELD_TYPES[key]
        try:
            kwargs[key] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, complex):
        return repr(v).strip("()")
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse_config(write_config(cfg)) == cfg."""
    out = [f"optomo-config v{CONFIG_VERSION}"]
    for f in fields(ExperimentConfig):
        out.append(f"{f.name} = {_format_value(getattr(cfg, f.name))}")
    return "\n".join(out) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(write_config(cfg).encode()).hexdigest()[:16]


def load_preset(name: str) -> ExperimentConfig:
    """Bundled presets; the paper-scale bottom run is fig2_bottom, its
    desk-scale variant (samples / 10, errors inflated ~sqrt(10)) is
    fig2_bottom_scaled."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {PRESETS}")
    text = resources.files("optomo").joinpath(f"presets/{name}.cfg").read_text()
    cfg = parse_config(text)
    return replace(cfg, out_prefix=name) if cfg.out_prefix == "run" else cfg
