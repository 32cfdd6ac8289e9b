"""catlab runs without scipy: its in-package ports against scipy itself.

The log-gamma binomial and the log-sum-exp replace scipy.special, and
importing the command line loads no scipy at all.
"""
from __future__ import annotations

import ast
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import logsumexp

from catlab.thermal import _log_binom, _logsumexp


def test_log_binom_matches_exact_binomials():
    for k in range(1001):
        assert float(_log_binom(1000, k)) == pytest.approx(
            math.log(math.comb(1000, k)), abs=5e-12, rel=0.0)
    for n in range(13):
        got = _log_binom(n, np.arange(n + 1))
        want = [math.log(math.comb(n, k)) for k in range(n + 1)]
        assert np.max(np.abs(got - want)) <= 1e-14


def test_logsumexp_matches_scipy():
    rng = np.random.default_rng(7)
    cases = [rng.normal(size=10) * 50.0, rng.normal(size=1000) * 1e3, np.array([3.5]),
             np.array([-745.0, -700.0]), np.ones(3), _log_binom(1000, np.arange(1001))]
    for x in cases:
        assert _logsumexp(x) == pytest.approx(float(logsumexp(x)), rel=1e-15, abs=1e-15)
    assert _logsumexp(np.array([-3.25])) == -3.25  # one term comes back exact


def _loaded_by_cli_import(*packages: str) -> list[str]:
    """The modules of these top-level packages that `import catlab.cli` loads
    in a fresh interpreter."""
    code = ("import sys, catlab.cli; print(sorted(m for m in sys.modules "
            f"if m.split('.')[0] in {packages!r}))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return ast.literal_eval(out.strip())


def test_importing_the_cli_loads_no_scipy():
    assert _loaded_by_cli_import("scipy") == []


def test_importing_the_cli_loads_no_multiprocessing():
    # only sweep --workers > 1 needs a process pool, and imports it there
    assert _loaded_by_cli_import("multiprocessing", "concurrent") == []
