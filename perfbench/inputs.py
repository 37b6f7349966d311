"""Seeded input generation for the benchmark workloads.

Every function here is a pure function of its arguments: the same seed gives
the same inputs, and only the values drawn inside fixed strata depend on the
seed, so every seed covers the same ranges.  Nothing here imports the
program under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("exact-certify", "ed-oracle", "q-sweep", "verify-all")

#: special points of the zeta parametrization; the correlator inversion is
#: singular at +-1
_ZETA_AVOID = (0, 1, -1, 3, -3)

#: q-sweep nome range t = Im(tau) and its number of equal strata
Q_T_RANGE = (0.5, 2.5)
Q_STRATA = 25
Q_N_MAX = 8


def _rng(workload: str, seed: int) -> random.Random:
    # string seeding is deterministic across processes and Python versions
    return random.Random(f"{workload}:{seed}")


def zeta_pool() -> list[Fraction]:
    """The fixed pool of 164 rationals p/q with q <= 9, |zeta| < 3, at least
    1/10 from 0, +-1 and +-3, in increasing order."""
    pool = {
        Fraction(p, q)
        for q in range(1, 10)
        for p in range(-3 * q, 3 * q + 1)
    }
    return sorted(
        z for z in pool
        if abs(z) < 3 and all(abs(z - c) >= Fraction(1, 10) for c in _ZETA_AVOID)
    )


def exact_inputs(seed: int) -> dict:
    """exact-certify: 50 distinct rational zeta for the correlation triples."""
    rng = _rng("exact-certify", seed)
    return {"tau_n_max": 15, "fn_n_max": 8, "corr_ns": (5, 8),
            "corr_zetas": rng.sample(zeta_pool(), 50), "pvi_n_max": 5, "ode_n_max": 2}


def ed_inputs(seed: int) -> dict:
    """ed-oracle: 10 distinct zeta for L <= 11, two of them again at L = 13."""
    rng = _rng("ed-oracle", seed)
    zetas = rng.sample(zeta_pool(), 10)
    return {"dense_Ls": (3, 5, 7, 9, 11), "dense_zetas": zetas,
            "sparse_L": 13, "sparse_zetas": zetas[:2],
            "transfer_Ls": (3, 5, 7, 9), "transfer_taus": (0.5j, 1j)}


def q_inputs(seed: int) -> dict:
    """q-sweep: one nome tau = i t per equal stratum of t, jittered inside it."""
    rng = _rng("q-sweep", seed)
    lo, hi = Q_T_RANGE
    width = (hi - lo) / Q_STRATA
    ts = [lo + width * (k + rng.random()) for k in range(Q_STRATA)]
    return {"taus": [complex(0.0, t) for t in ts], "n_max": Q_N_MAX,
            "suite_seed": seed}


def verify_all_inputs(seed: int) -> dict:
    return {"argv": ["verify-all", "--seed", str(seed)]}


def inputs_for(workload: str, seed: int) -> dict:
    return {
        "exact-certify": exact_inputs,
        "ed-oracle": ed_inputs,
        "q-sweep": q_inputs,
        "verify-all": verify_all_inputs,
    }[workload](seed)
