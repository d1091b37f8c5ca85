"""Run configuration: a flat key = value text format.

Unknown and repeated keys are rejected so that a stored copy of the
configuration reproduces the run exactly, and every accepted key reaches
the code it configures.  Lines starting with '#' and blank lines are
ignored; values are parsed by key-specific converters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import gaschart as gc
from .meshing import DomainSpec
from .solver import SolverConfig


class ConfigError(ValueError):
    """Malformed configuration text or unknown key."""


@dataclass(frozen=True)
class KernelConfig:
    nu_star: float = gc.NU_CR / 2.0

    def __post_init__(self):
        gc.GasChart(nu_star=self.nu_star)  # a ValueError outside (0, nu_cr)


@dataclass(frozen=True)
class RunConfig:
    geometry: DomainSpec = field(default_factory=DomainSpec)
    solver: SolverConfig = field(default_factory=SolverConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    output_dir: str = "run"


_FLOAT_KEYS = {
    "geometry.half_length": ("geometry", "half_length"),
    "geometry.height": ("geometry", "height"),
    "geometry.chord": ("geometry", "chord"),
    "geometry.bump_height": ("geometry", "bump_height"),
    "geometry.h_mesh": ("geometry", "h_mesh"),
    "flow.q_inf": ("solver", "q_inf"),
    "solver.picard_tol": ("solver", "picard_tol"),
    "solver.residual_tol": ("solver", "residual_tol"),
    "solver.tol_inv_factor": ("solver", "tol_inv_factor"),
    "kernel.nu_star": ("kernel", "nu_star"),
}
_INT_KEYS = {
    "solver.max_iters": ("solver", "max_iters"),
}
_OTHER_KEYS = ("solver.epsilons", "output.dir")

KNOWN_KEYS = sorted(set(_FLOAT_KEYS) | set(_INT_KEYS) | set(_OTHER_KEYS))


def parse_config(text: str) -> RunConfig:
    """Parse key = value text into a validated RunConfig."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r} "
                              f"(known: {', '.join(KNOWN_KEYS)})")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = val

    groups = {"geometry": {}, "solver": {}, "kernel": {}}
    extras = {}
    for key, val in values.items():
        try:
            if key in _FLOAT_KEYS:
                grp, attr = _FLOAT_KEYS[key]
                groups[grp][attr] = float(val)
            elif key in _INT_KEYS:
                grp, attr = _INT_KEYS[key]
                groups[grp][attr] = int(val)
            elif key == "solver.epsilons":
                eps = tuple(float(tok) for tok in val.split(","))
                groups["solver"]["epsilons"] = eps
            elif key == "output.dir":
                extras["output_dir"] = val
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {val!r}") from exc

    try:
        return RunConfig(geometry=DomainSpec(**groups["geometry"]),
                         solver=SolverConfig(**groups["solver"]),
                         kernel=KernelConfig(**groups["kernel"]),
                         **extras)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def dump_config(cfg: RunConfig) -> str:
    """Reproducible text form of a RunConfig (round trips via parse)."""
    g, s, k = cfg.geometry, cfg.solver, cfg.kernel
    lines = [
        "# cavlab run configuration",
        f"geometry.half_length = {g.half_length!r}",
        f"geometry.height = {g.height!r}",
        f"geometry.chord = {g.chord!r}",
        f"geometry.bump_height = {g.bump_height!r}",
        f"geometry.h_mesh = {g.h_mesh!r}",
        f"flow.q_inf = {s.q_inf!r}",
        "solver.epsilons = " + ",".join(repr(e) for e in s.epsilons),
        f"solver.picard_tol = {s.picard_tol!r}",
        f"solver.residual_tol = {s.residual_tol!r}",
        f"solver.max_iters = {s.max_iters!r}",
        f"solver.tol_inv_factor = {s.tol_inv_factor!r}",
        f"kernel.nu_star = {k.nu_star!r}",
        f"output.dir = {cfg.output_dir}",
    ]
    return "\n".join(lines) + "\n"
