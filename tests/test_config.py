"""Run configuration: round trips, and rejection of keys that change nothing."""

import pytest

from cavlab import cli
from cavlab.config import (KNOWN_KEYS, KernelConfig, RunConfig, dump_config,
                           parse_config)
from cavlab.meshing import DomainSpec
from cavlab.solver import SolverConfig

# every field differs from its default
CUSTOM = RunConfig(
    geometry=DomainSpec(half_length=2.5, height=1.2, chord=0.8,
                        bump_height=0.04, h_mesh=1.0 / 48.0),
    solver=SolverConfig(epsilons=(0.3, 0.15, 0.075), q_inf=0.88,
                        picard_tol=2e-8, residual_tol=3e-7, max_iters=123,
                        tol_inv_factor=2e-3),
    kernel=KernelConfig(nu_star=0.03),
    output_dir="runs/#3")


@pytest.mark.parametrize("cfg", [RunConfig(), CUSTOM],
                         ids=["default", "custom"])
def test_dump_parse_round_trip(cfg):
    text = dump_config(cfg)
    assert parse_config(text) == cfg
    keys = [line.split("=")[0].strip() for line in text.splitlines()
            if line and not line.startswith("#")]
    assert sorted(keys) == KNOWN_KEYS


def _entropy_check(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return cli.main(["entropy", "check", "--config", str(cfg), "--points",
                     "2", "--out", str(tmp_path / "m.csv")])


@pytest.mark.parametrize("key", ["kernel.xi_max", "kernel.n_nu",
                                 "kernel.n_xi_log", "determinism.seedless",
                                 "solver.omega"])
def test_keys_that_reach_no_code_are_rejected(tmp_path, key):
    assert _entropy_check(tmp_path, f"{key} = 1\n") == cli.USAGE_ERROR


def test_duplicate_key_is_rejected(tmp_path):
    text = "flow.q_inf = 0.9\nflow.q_inf = 0.9\n"
    assert _entropy_check(tmp_path, text) == cli.USAGE_ERROR
