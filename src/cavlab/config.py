"""Run configuration: a flat key = value text format.

Unknown and repeated keys are rejected so that a stored copy of the
configuration reproduces the run exactly, and every accepted key reaches
the code it configures.  Lines whose first non-blank character is '#'
and blank lines are ignored; a '#' anywhere else is part of the value.
Values are parsed by key-specific converters.
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


def _epsilons(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(","))


# key -> (group, field, converter), in the order dump_config writes them;
# group None is a field of RunConfig itself
KEYS = {
    "geometry.half_length": ("geometry", "half_length", float),
    "geometry.height": ("geometry", "height", float),
    "geometry.chord": ("geometry", "chord", float),
    "geometry.bump_height": ("geometry", "bump_height", float),
    "geometry.h_mesh": ("geometry", "h_mesh", float),
    "flow.q_inf": ("solver", "q_inf", float),
    "solver.epsilons": ("solver", "epsilons", _epsilons),
    "solver.picard_tol": ("solver", "picard_tol", float),
    "solver.residual_tol": ("solver", "residual_tol", float),
    "solver.max_iters": ("solver", "max_iters", int),
    "solver.tol_inv_factor": ("solver", "tol_inv_factor", float),
    "kernel.nu_star": ("kernel", "nu_star", float),
    "output.dir": (None, "output_dir", str),
}

KNOWN_KEYS = sorted(KEYS)


def parse_config(text: str) -> RunConfig:
    """Parse key = value text into a validated RunConfig."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r} "
                              f"(known: {', '.join(KNOWN_KEYS)})")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = val

    groups = {"geometry": {}, "solver": {}, "kernel": {}, None: {}}
    for key, val in values.items():
        group, name, convert = KEYS[key]
        try:
            groups[group][name] = convert(val)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {val!r}") from exc

    try:
        return RunConfig(geometry=DomainSpec(**groups["geometry"]),
                         solver=SolverConfig(**groups["solver"]),
                         kernel=KernelConfig(**groups["kernel"]),
                         **groups[None])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def dump_config(cfg: RunConfig) -> str:
    """Reproducible text form of a RunConfig (round trips via parse)."""
    lines = ["# cavlab run configuration"]
    for key, (group, name, _) in KEYS.items():
        value = getattr(cfg if group is None else getattr(cfg, group), name)
        if isinstance(value, str):
            text = value
        elif isinstance(value, (tuple, list)):
            text = ",".join(repr(v) for v in value)
        else:
            text = repr(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"
