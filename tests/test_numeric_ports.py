"""catlab runs without scipy: its in-package ports against scipy itself.

Both search polishes, over the polar z of a state that commutes with M_z and
over the sphere otherwise, call one port of scipy's Nelder-Mead minimizer. It
must evaluate exactly scipy's points, in scipy's order, with catlab's options,
so every search-bearing output is unchanged. The log-gamma binomial and the
log-sum-exp replace scipy.special.
"""
from __future__ import annotations

import ast
import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import logsumexp

from catlab import (OutcomeSpec, SpinHamiltonian, fixture_states, gibbs_state,
                    post_state, total_magnetization)
from catlab.indices import _catness_form, _nelder_mead, _polar, _unit
from catlab.thermal import _log_binom, _logsumexp


def _recorded(f):
    """f, recording each point; an array point is overwritten after the call,
    which scipy ignores because it passes f a copy."""
    seen = []

    def g(x):
        seen.append(np.array(x, dtype=float))
        value = f(x)
        if isinstance(x, np.ndarray):
            x[...] = np.nan
        return value
    return seen, g


@functools.cache
def _form(rho, axes: str):
    weights, vecs = rho.factors()
    return _catness_form(weights, vecs, [total_magnetization(a, rho.n) for a in axes]).value


_POST = post_state(gibbs_state(SpinHamiltonian(n=6, h=1.0, j=(0.2, 0.0, 0.1)), beta=1.0),
                   OutcomeSpec.exact(0))
_RHO_EX1 = fixture_states("rho_ex1", 6)


def _polar_catness(x):
    """catlab's own polar objective: minus the catness of an m = 0 post-state,
    over z = cos(theta)."""
    return -_form(_POST, "xz")(_polar(*x)[[0, 2]])[0]


def _rosenbrock(x):
    return (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2


def _generic_catness(angles):
    """catlab's own generic objective: minus the catness of rho_ex1 at n = 6."""
    return -_form(_RHO_EX1, "xyz")(_unit(*angles))[0]


_NELDER_MEAD = {
    "rosenbrock": (_rosenbrock, [-1.2, 1.0]),
    "zero_first_coordinate": (lambda x: (x[0] - 0.4) ** 2 + 3.0 * (x[1] + 0.2) ** 2, [0.0, 0.5]),
    "all_zero_start": (lambda x: math.cosh(x[0] - 1.0) + (x[1] - x[0]) ** 2, [0.0, 0.0]),
    "shrinks_on_a_constant": (lambda x: 2.0, [1.0, -3.0]),
    # plateaus: ties between the reflected and the contracted point
    "shrinks_on_a_staircase": (lambda x: math.floor(x[0] ** 2 + x[1] ** 2), [1.0, -3.0]),
    "expansion_ties_on_a_staircase": (lambda x: math.floor(abs(x[0]) + abs(x[1])), [1.0, -3.0]),
    "runs_to_maxiter": (lambda x: -x[0] - 0.5 * x[1], [1.0, 1.0]),
    "nonsmooth": (lambda x: abs(x[0] - 0.25) + 2.0 * abs(x[1] + 0.5), [1.0, 1.0]),
    "one_dimension": (lambda x: (x[0] - 3.0) ** 2, [0.0]),
    "three_dimensions": (lambda x: float(np.sum((x - np.arange(3.0)) ** 2)), [1.0, 0.0, 5.0]),
    "catlab_generic": (_generic_catness, [1.1, 0.3]),
    "catlab_polar": (_polar_catness, [0.3]),
}


@pytest.mark.parametrize("name", sorted(_NELDER_MEAD))
def test_nelder_mead_port_evaluates_scipys_points(name):
    f, start = _NELDER_MEAD[name]
    want, g = _recorded(f)
    res = minimize(g, np.array(start), method="Nelder-Mead",
                   options={"xatol": 1e-4, "fatol": 1e-10, "maxiter": 200})
    got, g = _recorded(f)
    x = _nelder_mead(g, start, 1e-4, 1e-10, 200)
    assert len(got) == len(want) == res.nfev
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(x, res.x)
    if name.startswith("shrinks"):
        # without a shrink an iteration costs at most two evaluations
        assert res.nfev > len(start) + 1 + 2 * res.nit
    if name == "runs_to_maxiter":
        assert res.nit == 200


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
