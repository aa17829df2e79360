"""The demo scripts run to completion, quietly and without writing files."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["compare_grouping_factors",
                                  "fit_single_dataset", "prior_scaling",
                                  "sampling_the_prior"])
def test_demo_runs_cleanly(name, tmp_path, cli_env):
    result = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")],
                            cwd=tmp_path, env=cli_env, capture_output=True,
                            text=True, check=False)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout
    assert list(tmp_path.iterdir()) == []
