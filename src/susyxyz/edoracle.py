"""Brute-force oracle: periodic XYZ chains at odd length, diagonalized in the
even spin-flip sector, with correlators, the inferred correlation quantity,
and the commuting eight-vertex transfer matrix.

Couplings follow J_x = 1 + zeta, J_y = 1 - zeta, J_z = (zeta^2 - 1)/2, the
normalization in which the ground-state energy is exactly -L (zeta^2 + 3)/4
at every odd L.  Basis states are bit strings; bit j set means spin down at
site j, and the even sector collects states with an even number of down
spins.  Every ground state, at every L, comes from one Lanczos run (ARPACK)
on the sparse even-sector matrix from a start vector seeded by L, so a
result does not depend on what the process computed before; correlators are
measured on the sector vector.

The eight-vertex transfer matrix comes from one site tensor, the R-matrix
W[alpha, gamma, s', s].  `transfer_apply` multiplies a vector by T one site
at a time without forming it, in O(L 2^L), for every L up to L_MAX;
`transfer_matrix` builds the dense T site by site (L <= L_MAX_TRANSFER) for
the checks that need the whole matrix, the commutator and quasi-periodicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .thetanum import ThetaContext, modular_values, theta

__all__ = [
    "SizeLimit",
    "NoConvergence",
    "DegenerateSectorGround",
    "NearSingularInversion",
    "SpinOperator",
    "GroundState",
    "couplings_from_zeta",
    "build_hamiltonian",
    "build_from_couplings",
    "ground_state_even_sector",
    "measure_correlations",
    "infer_f",
    "boltzmann_weights",
    "transfer_matrix",
    "transfer_apply",
    "transfer_checks",
    "ed_verify",
]

L_MAX = 19
L_MAX_TRANSFER = 9
GAP_TOL = 1e-8
INVERSION_EXCLUSION = 1e-3


class SizeLimit(ValueError):
    """Chain length outside the supported range."""


class NoConvergence(RuntimeError):
    """Iterative eigensolver failed to converge."""


class DegenerateSectorGround(RuntimeError):
    """Sector gap below tolerance; the sample is unusable."""


class NearSingularInversion(ValueError):
    """zeta too close to +-1 for the x/y inversion of the correlators."""


def couplings_from_zeta(zeta: float) -> tuple[float, float, float]:
    z = float(zeta)
    return 1.0 + z, 1.0 - z, (z * z - 1.0) / 2.0


def _check_length(L: int, limit: int = L_MAX):
    if L % 2 == 0 or not 3 <= L <= limit:
        raise SizeLimit(f"need odd L with 3 <= L <= {limit}, got {L}")


def _bonds(L: int, sec: np.ndarray):
    """For each bond (j, j+1), on every sector state: s_j s_{j+1} as +-1.0,
    and the sector position of the state with both spins flipped."""
    pos = np.empty(2**L, dtype=np.int64)
    pos[sec] = np.arange(len(sec))
    for j in range(L):
        k = (j + 1) % L
        zz = 1.0 - 2.0 * (((sec >> j) ^ (sec >> k)) & 1)
        yield zz, pos[sec ^ ((1 << j) | (1 << k))]


@dataclass
class SpinOperator:
    """Periodic XYZ Hamiltonian at odd length L with given couplings."""

    L: int
    couplings: tuple[float, float, float]

    def sector_indices(self) -> np.ndarray:
        """Basis indices with an even number of down spins, in increasing order."""
        idx = np.arange(2**self.L)
        parity = np.zeros_like(idx)
        for j in range(self.L):
            parity ^= idx >> j
        return idx[parity & 1 == 0]

    def full_matrix(self) -> np.ndarray:
        """Dense 2^L x 2^L matrix (small L only)."""
        if self.L > 11:
            raise SizeLimit("full dense matrix limited to L <= 11")
        Jx, Jy, Jz = self.couplings
        idx = np.arange(2**self.L)
        s = 1.0 - 2.0 * ((idx[:, None] >> np.arange(self.L)) & 1)
        dim = 2**self.L
        H = np.zeros((dim, dim))
        for j in range(self.L):
            k = (j + 1) % self.L
            H[idx, idx] += -0.5 * Jz * s[:, j] * s[:, k]
            mask = (1 << j) | (1 << k)
            amp = -0.5 * (Jx + Jy * np.where(s[:, j] == s[:, k], -1.0, 1.0))
            H[idx ^ mask, idx] += amp
        return H

    def sector_matrix(self, sparse: bool = True):
        """Hamiltonian restricted to the even sector, as CSR or dense.

        Row r holds the L flip partners of sector state r, then the diagonal;
        the bond masks are distinct for L >= 3, so no entry repeats.
        """
        Jx, Jy, Jz = self.couplings
        sec = self.sector_indices()
        n = len(sec)
        cols, vals = [], []
        diag = np.zeros(n)
        for zz, partner in _bonds(self.L, sec):
            diag += -0.5 * Jz * zz
            cols.append(partner)
            vals.append(-0.5 * (Jx - Jy * zz))
        cols.append(np.arange(n))
        vals.append(diag)
        width = self.L + 1
        m = csr_matrix(
            (np.column_stack(vals).ravel(), np.column_stack(cols).ravel(),
             np.arange(0, n * width + 1, width)),
            shape=(n, n),
        )
        return m if sparse else m.toarray()


def build_hamiltonian(L: int, zeta: float) -> SpinOperator:
    _check_length(L)
    return SpinOperator(L=L, couplings=couplings_from_zeta(zeta))


def build_from_couplings(L: int, Jx: float, Jy: float, Jz: float) -> SpinOperator:
    _check_length(L)
    return SpinOperator(L=L, couplings=(float(Jx), float(Jy), float(Jz)))


@dataclass
class GroundState:
    """Lowest eigenpair of the even-sector restriction."""

    L: int
    couplings: tuple[float, float, float]
    energy: float
    vector: np.ndarray          # coefficients on the even-sector basis
    sector: np.ndarray          # basis indices of that sector
    residual: float
    gap: float

    def full_vector(self) -> np.ndarray:
        psi = np.zeros(2**self.L)
        psi[self.sector] = self.vector
        return psi


def _ground_state(op: SpinOperator) -> GroundState:
    sec = op.sector_indices()
    H = op.sector_matrix(sparse=True)
    # Without a start vector ARPACK draws one from a generator whose state
    # persists across calls, so the result would depend on earlier calls.
    v0 = np.random.default_rng(op.L).standard_normal(len(sec))
    try:
        vals, vecs = eigsh(H, k=2, which="SA", v0=v0)
    except ArpackNoConvergence as exc:
        raise NoConvergence(str(exc)) from exc
    order = np.argsort(vals)
    e0, e1 = vals[order[0]], vals[order[1]]
    v = vecs[:, order[0]]
    residual = float(np.linalg.norm(H @ v - e0 * v))
    scale = max(abs(e0), 1.0)
    gap = float((e1 - e0) / scale)
    if gap < GAP_TOL:
        raise DegenerateSectorGround(
            f"sector gap {gap:.2e} below {GAP_TOL} for L={op.L}, couplings={op.couplings}"
        )
    return GroundState(
        L=op.L, couplings=op.couplings, energy=float(e0), vector=v,
        sector=sec, residual=residual, gap=gap,
    )


def ground_state_even_sector(L: int, zeta: float) -> GroundState:
    """Ground state of H restricted to the even sector.

    Lanczos for the two lowest eigenvalues of the sparse sector matrix, from
    a start vector seeded by L; the result is verified by its residual and
    relative gap, never assumed.
    """
    return _ground_state(build_hamiltonian(L, zeta))


def measure_correlations(state: GroundState):
    """Bond-averaged (Cx, Cy, Cz), plus per-bond values and their spread."""
    psi = state.vector
    w = psi * psi
    per_bond = {"x": [], "y": [], "z": []}
    for zz, partner in _bonds(state.L, state.sector):
        flipped = psi[partner]
        per_bond["z"].append(float(np.dot(w, zz)))
        per_bond["x"].append(float(np.dot(psi, flipped)))
        per_bond["y"].append(float(-np.dot(psi, flipped * zz)))
    triple = tuple(float(np.mean(per_bond[a])) for a in "xyz")
    spread = max(
        abs(v - np.mean(per_bond[a])) for a in "xyz" for v in per_bond[a]
    )
    return triple, per_bond, float(spread)


def infer_f(L: int, zeta: float) -> dict:
    """Invert the three correlators for f separately; they must agree."""
    z = float(zeta)
    if min(abs(z - 1.0), abs(z + 1.0)) < INVERSION_EXCLUSION:
        raise NearSingularInversion(f"zeta={z} within {INVERSION_EXCLUSION} of +-1")
    state = ground_state_even_sector(L, zeta)
    (cx, cy, cz), _, spread = measure_correlations(state)
    s = z * z + 3.0
    return {
        "f_x": (1.0 - cx) * s / (1.0 - z) ** 2,
        "f_y": (1.0 - cy) * s / (1.0 + z) ** 2,
        "f_z": (1.0 - cz) * s / 4.0,
        "spread": spread,
        "energy": state.energy,
        "gap": state.gap,
        "residual": state.residual,
    }


# -- eight-vertex transfer matrix ---------------------------------------

def boltzmann_weights(u: complex, eta: float, tau: complex):
    """Theta-parametrized weights (a, b, c, d), normalized so that
    a + b = theta1(2 eta|tau)/theta1(eta|tau) * theta1(u|tau)."""
    ctx = ThetaContext(tau)
    c2 = ctx.scaled(2)
    rho = 2.0 / (theta(2, 0.0, ctx) * theta(4, 0.0, c2))
    t4e = theta(4, 2 * eta, c2)
    t1e = theta(1, 2 * eta, c2)
    m4, p1 = theta(4, u - eta, c2), theta(1, u + eta, c2)
    m1, p4 = theta(1, u - eta, c2), theta(4, u + eta, c2)
    return rho * t4e * m4 * p1, rho * t4e * m1 * p4, rho * t1e * m4 * p4, rho * t1e * m1 * p1


def _site_tensor(u: complex, eta: float, tau: complex) -> np.ndarray:
    """The eight-vertex R-matrix as W[alpha, gamma, s', s]: auxiliary space in
    alpha and out gamma, chain spin out s' and in s (0 = up, 1 = down)."""
    a, b, c, d = boltzmann_weights(u, eta, tau)
    W = np.zeros((2, 2, 2, 2), dtype=complex)
    W[0, 0] = [[a, 0], [0, b]]
    W[0, 1] = [[0, d], [c, 0]]
    W[1, 0] = [[0, c], [d, 0]]
    W[1, 1] = [[b, 0], [0, a]]
    return W


def transfer_matrix(L: int, u: complex, eta: float, tau: complex) -> np.ndarray:
    """Dense transfer matrix Tr_aux(R_01 ... R_0L) on the 2^L chain space.

    Built site by site from the one site tensor W: the auxiliary blocks
    G[alpha, gamma] grow by one chain site per step, site 1 being the most
    significant bit, and the last site takes the auxiliary trace directly,
    so the four full-size blocks are never formed.
    """
    _check_length(L, L_MAX_TRANSFER)
    W = _site_tensor(u, eta, tau)
    G = W
    for m in range(1, L - 1):
        G = np.einsum("abij,bckl->acikjl", G, W).reshape(2, 2, 2 ** (m + 1), 2 ** (m + 1))
    return np.einsum("abij,bakl->ikjl", G, W).reshape(2**L, 2**L)


def transfer_apply(L: int, u: complex, eta: float, tau: complex, v) -> np.ndarray:
    """T @ v for the transfer matrix of `transfer_matrix`, without forming T.

    The carried array X[alpha0, spins..., alpha] starts as
    delta(alpha0, alpha) v; each site contracts its input spin and the
    auxiliary index with W and appends the output spin after the spins not
    yet visited, so after L sites the spins are back in order.  Time and
    memory are O(L 2^L).
    """
    _check_length(L)
    W = np.transpose(_site_tensor(u, eta, tau), (0, 3, 2, 1))  # [alpha, s, s', gamma]
    v = np.asarray(v, dtype=complex).reshape(1, 2**L, 1)
    X = (np.eye(2)[:, None, :] * v).reshape((2,) * (L + 2))
    for _ in range(L):
        X = np.tensordot(X, W, axes=([1, L + 1], [1, 0]))
    return (X[0, ..., 0] + X[1, ..., 1]).reshape(2**L)


def transfer_checks(L: int, tau: complex, us=None) -> dict:
    """Commutation, quasi-periodicity and the ground-state eigenvalue of the
    transfer family at the supersymmetric crossing parameter.

    The eigenvalue residuals apply T to the ground state matrix-free; dense
    matrices are built only for the commutator and quasi-periodicity.
    """
    _check_length(L, L_MAX_TRANSFER)
    eta = np.pi / 3
    mv = modular_values(tau)
    zeta = float(mv.zeta.real)
    state = ground_state_even_sector(L, zeta)
    psi = state.full_vector()
    ctx = ThetaContext(tau)
    if us is None:
        us = [0.31, 0.77, 1.38, 2.02, 2.64]
    eig_residuals = []
    for u in us:
        lam = theta(1, u, ctx) ** L
        eig_residuals.append(
            float(np.linalg.norm(transfer_apply(L, u, eta, tau, psi) - lam * psi)
                  / (abs(lam) * np.linalg.norm(psi)))
        )
    u1, u2 = 0.52, 1.91
    T1 = transfer_matrix(L, u1, eta, tau)
    T2 = transfer_matrix(L, u2, eta, tau)
    comm = float(
        np.linalg.norm(T1 @ T2 - T2 @ T1)
        / (np.linalg.norm(T1) * np.linalg.norm(T2))
    )
    Tshift = transfer_matrix(L, u1 + np.pi, eta, tau)
    qp = float(
        np.linalg.norm(Tshift - (-1) ** L * T1) / np.linalg.norm(T1)
    )
    return {
        "L": L,
        "tau_im": float(complex(tau).imag),
        "zeta": zeta,
        "eigenvalue_residuals": eig_residuals,
        "max_eigenvalue_residual": max(eig_residuals),
        "commutator_residual": comm,
        "quasi_periodicity_residual": qp,
    }


DEFAULT_ZETA_GRID = (
    Fraction(-5, 2), Fraction(-3, 2), Fraction(-3, 4), Fraction(-2, 5),
    Fraction(-1, 5), Fraction(1, 5), Fraction(2, 5), Fraction(3, 4),
    Fraction(3, 2), Fraction(5, 2),
)


def ed_verify(Ls=(3, 5, 7, 9, 11), zetas=DEFAULT_ZETA_GRID, transfer=False,
              transfer_taus=(0.5j, 1j), f_tol=1e-7, energy_tol=1e-10,
              spread_tol=1e-9) -> dict:
    """Diagonalize every (L, zeta) sample and compare with the exact pipeline.

    Checks, per sample: the closed-form ground energy (relative), three-way
    agreement of the inverted f, agreement with the tau-function f_n, and
    translation invariance of the per-bond correlators.  Each sample also
    reports the relative sector gap and the eigenpair residual.  With
    ``transfer``, each (tau, L) with L <= L_MAX_TRANSFER also gates the
    eigenvalue, commutator and quasi-periodicity residuals of transfer_checks.
    """
    from .corrfn import f_zeta

    samples = []
    ok = True
    for L in Ls:
        n = (L - 1) // 2
        f_exact_fn = f_zeta(n)
        for zq in zetas:
            zq = Fraction(zq)
            z = float(zq)
            entry = {"L": L, "zeta": str(zq)}
            try:
                inf = infer_f(L, z)
            except (DegenerateSectorGround, NearSingularInversion) as exc:
                entry["skipped"] = type(exc).__name__
                entry["reason"] = str(exc)
                samples.append(entry)
                continue
            e_exact = -L * (z * z + 3.0) / 4.0
            entry["energy"] = inf["energy"]
            entry["energy_residual"] = abs(inf["energy"] - e_exact) / abs(e_exact)
            fe = float(f_exact_fn.evaluate(zq))
            three_way = max(
                abs(inf["f_x"] - inf["f_y"]),
                abs(inf["f_x"] - inf["f_z"]),
                abs(inf["f_y"] - inf["f_z"]),
            )
            entry["f_exact"] = fe
            entry["f_inferred"] = inf["f_z"]
            entry["f_agreement"] = max(three_way, abs(inf["f_z"] - fe))
            entry["per_bond_spread"] = inf["spread"]
            entry["gap"] = inf["gap"]
            entry["residual"] = inf["residual"]
            entry["ok"] = (
                entry["energy_residual"] < energy_tol
                and entry["f_agreement"] < f_tol
                and entry["per_bond_spread"] < spread_tol
            )
            ok = ok and entry["ok"]
            samples.append(entry)
    report = {"ok": ok, "samples": samples}
    if transfer:
        trs = []
        for tau in transfer_taus:
            for L in Ls:
                try:
                    tc = transfer_checks(L, tau)
                except SizeLimit as exc:
                    trs.append({"L": L, "tau_im": float(complex(tau).imag),
                                "skipped": type(exc).__name__, "reason": str(exc)})
                    continue
                tc["ok"] = (
                    tc["max_eigenvalue_residual"] < 1e-8
                    and tc["commutator_residual"] < 1e-9
                    and tc["quasi_periodicity_residual"] < 1e-12
                )
                ok = ok and tc["ok"]
                trs.append(tc)
        report["transfer"] = trs
        report["ok"] = ok
    return report
