"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import numpy as np
import pytest

import grouppc
from grouppc import corr


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
