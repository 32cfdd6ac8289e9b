"""Correctness references, computed before timing and without catlab code.

Dense references are assembled from tests/denseref.py (explicit Kronecker
products, scipy.linalg.expm for the thermal weights). The n = 12 row is too
large for that, so it is checked against closed forms of the free ring
written out here.
"""
from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np


def load_denseref(root: Path):
    spec = importlib.util.spec_from_file_location("denseref", root / "tests" / "denseref.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tr(a, b) -> float:
    """Re Tr[a b] in O(d^2)."""
    return float(np.einsum("ij,ji->", a, b).real)


def measured_rows(dr, n: int, beta: float, j, ms) -> dict:
    """The CSV quantities of a measured Gibbs state (h = 1), one dict per m."""
    ham = dr.hamiltonian(n, 1.0, j, "periodic")
    rho = dr.gibbs(ham, beta)
    mx = dr.magnetization("x", n)
    rows = {}
    for m in ms:
        proj = dr.sector_projector(n, m, m)
        post, prob = dr.project(rho, proj)
        e_mean = _tr(post, ham)
        rows[m] = {
            "prob": float(prob),
            "c_dense": float(dr.catness(post, mx, proj)),
            "purity": _tr(post, post),
            "e_mean": e_mean,
            "e_var": _tr(post @ ham, ham) - e_mean * e_mean,
            "mx2": _tr(post @ mx, mx),
        }
    return rows


def rho_ex1(n: int) -> np.ndarray:
    """Equal mixture over sites i of (|0_i> + |1_i>)/sqrt(2): |0_i> flips
    site i of the all-up state (site 1 is the most significant bit, a set
    bit is spin down) and |1_i> is its global complement."""
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    for site in range(1, n + 1):
        i0 = 1 << (n - site)
        vec = np.zeros(dim, dtype=complex)
        vec[i0] = vec[(dim - 1) ^ i0] = 1.0 / math.sqrt(2.0)
        mat += np.outer(vec, vec.conj()) / n
    return mat


def axis_witness(dr, rho: np.ndarray, n: int) -> float:
    """max over the x, y, z axes and over eta of Tr[rho [M_a, [M_a, eta]]]:
    a value any search over collective observables must reach. Along x it is
    at least the projector witness Tr[rho_m [Mx, [Mx, P_m]]]."""
    return max(float(dr.optimal_catness(rho, dr.magnetization(axis, n))) for axis in "xyz")


def free_row(n: int, m: int, betah: float, h: float = 1.0) -> dict:
    """Closed forms of the free ring measured at M_z = m.

    rho = prod_i (1 + t sigma_x^i)/2 with t = tanh(beta h) has z-basis
    entries t^dist(s, s')/2^n, so with k = (n - m)/2 down spins:
    prob = C(n, k)/2^n, Tr[(P rho P)^2] = C(n, k) sum_j C(k, j) C(n-k, j)
    t^(4j)/4^n, <Mx^2> = n + (n^2 - m^2) t^2/2, <H> = 0, and the witness with
    eta = P is 2 <Mx^2> because Mx leaves the sector.
    """
    t = math.tanh(betah)
    k = (n - m) // 2
    prob = math.comb(n, k) / 2.0**n
    pairs = sum(math.comb(k, i) * math.comb(n - k, i) * t ** (4 * i)
                for i in range(min(k, n - k) + 1))
    mx2 = n + 0.5 * (n * n - m * m) * t * t
    return {
        "prob": prob,
        "c_dense": 2.0 * mx2,
        "purity": math.comb(n, k) * pairs / 4.0**n / prob**2,
        "e_mean": 0.0,
        "e_var": h * h * mx2,
        "mx2": mx2,
    }


def close(got: float, want: float, rtol: float = 1e-9) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))
