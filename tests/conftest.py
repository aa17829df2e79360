"""Fixtures and Hypothesis profiles shared by the test modules."""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import grouppc
from grouppc import corr

# Hypothesis profiles of the property tests.  "tier1", the default, draws
# derandomized examples, as many as each test names through
# `property_examples`; "sweep" draws 1,500 random ones per test:
#   python -m pytest -q -m hypothesis --hypothesis-profile=sweep
settings.register_profile("tier1", database=None, deadline=None,
                          derandomize=True)
settings.register_profile("sweep", database=None, deadline=None,
                          derandomize=False, max_examples=1500)
settings.load_profile("tier1")


def field_transect_design(seed=1, n_transects=200):
    """Transects of 1-19 rows (sizes fixed, order shuffled), U(0.4, 1.6) gaps.

    The 200-transect field design of the benchmark's prior-tables workload.
    """
    rng = np.random.default_rng([seed, 1])
    sizes = rng.permutation(np.rint(np.linspace(1, 19, n_transects)).astype(int))
    positions = [np.concatenate([[0.0], np.cumsum(rng.uniform(0.4, 1.6, m - 1))])
                 for m in sizes]
    return grouppc.GroupedDesign(group_sizes=tuple(int(m) for m in sizes),
                                 positions=tuple(tuple(p) for p in positions))


def property_examples(tier1: int) -> int:
    """A property test's examples: ``tier1`` if derandomized, else the profile's."""
    default = settings.default
    return tier1 if default.derandomize else default.max_examples


@pytest.fixture
def cli_env():
    """Environment for a ``python -m grouppc.cli`` child process.

    ``PYTHONPATH`` starts with the absolute directory that holds the
    ``grouppc`` this process imported, so the child imports the same
    package from any working directory, installed or not.
    """
    package_root = str(Path(grouppc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        entry for entry in (package_root, env.get("PYTHONPATH")) if entry)
    return env


@pytest.fixture
def kernel_calls(monkeypatch):
    """Parameter nodes of every closed-form pass (``corr._log_det_slope``).

    Each pass appends a copy of the rho or phi values it evaluated, so a
    test can count passes and see which node sets they covered.
    """
    calls = []
    kernel = corr._log_det_slope

    def counted(model, design, p, *rest):
        calls.append(np.array(p, dtype=float))
        return kernel(model, design, p, *rest)

    monkeypatch.setattr(corr, "_log_det_slope", counted)
    return calls
