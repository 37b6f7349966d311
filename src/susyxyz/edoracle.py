"""Brute-force oracle: periodic XYZ chains at odd length, diagonalized in the
momentum-zero sector of the even spin-flip sector, with correlators, the
inferred correlation quantity, and the commuting eight-vertex transfer
matrix.

Couplings follow J_x = 1 + zeta, J_y = 1 - zeta, J_z = (zeta^2 - 1)/2, the
normalization in which the ground-state energy is exactly -L (zeta^2 + 3)/4
at every odd L.  Basis states are bit strings; bit j set means spin down at
site j, and the even sector collects states with an even number of down
spins.  H commutes with translation, so it is diagonalized on the
translation-invariant (k = 0) combinations of even-sector states, one per
orbit under rotation, a space of dimension about 2^(L-1)/L; the ground state
lies there, which the energy check against the closed form certifies.
A k = 0 sector of dimension up to DENSE_DIM_MAX (L <= 13) is solved densely,
its eigenvalues by `eigvalsh` and the ground vector by inverse iteration, so
the eigenbasis is never formed; a larger one by one Lanczos run (ARPACK) on
the sparse k = 0 matrix.  Both start from a vector seeded by L, drawn from
the standard library's generator, so a result does not depend on what the
process computed before and numpy.random is never imported.  scipy is
imported only on the ARPACK path and by `sector_matrix(sparse=True)`.  The
eigenvector is scattered back onto the even sector, where correlators are
measured bond by bond.

The eight-vertex transfer matrix comes from one site tensor, the R-matrix
W[alpha, gamma, s', s].  `transfer_apply` multiplies a vector by T one site
at a time without forming it, in O(L 2^L), for every L up to L_MAX.  The
package never builds T densely: `transfer_checks` (L <= L_MAX_TRANSFER)
tests the commutator, quasi-periodicity and the ground-state eigenvalue on
vectors only.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .thetanum import ThetaContext, modular_values, theta, theta_context

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
    "transfer_apply",
    "transfer_checks",
    "ed_verify",
]

L_MAX = 25
#: above 15 the amplification ||T||/|lambda| (1.9e11 at L = 15) lets a wrong
#: eigenvalue pass the ||T||-relative gate, so the transfer checks stop here
L_MAX_TRANSFER = 15
#: the |lambda|-relative eigenvalue residual is gated only up to this L; above
#: it the amplification alone lifts the residual past its bound
L_MAX_LAMBDA_GATE = 9
GAP_TOL = 1e-8
#: largest k = 0 dimension solved densely (`_dense_ground_pair`); ARPACK above
#: it.  Warm, per solve on a 2-vCPU Xeon, best of 10 at each zeta of
#: DEFAULT_ZETA_GRID: dense 0.11-0.15 / 0.51-0.61 / 7.4-9.1 / 122-159 ms at
#: dimension 30 / 94 / 316 / 1096 (L = 9 / 11 / 13 / 15), `eigsh` 0.46-0.59 /
#: 1.1-1.6 / 1.6-2.3 / 3.5-19 ms, and the first ARPACK solve in a process also
#: pays about 0.25 s to import scipy.  Over the 10-point sweep dense wins at
#: 316 (0.08 s against 0.27 s) and loses at 1096 (1.3 s against 0.36 s), so
#: the crossover lies between the two.
DENSE_DIM_MAX = 512
INVERSION_EXCLUSION = 1e-3

#: ed_verify's bounds: per (L, zeta) sample the relative ground energy, the
#: f agreement and the per-bond spread; per transfer check the eigenvalue
#: residual relative to |lambda| and to ||T||, the commutator and the
#: quasi-periodicity.  Then the nomes of the transfer checks and the points
#: u at which transfer_checks tests the ground-state eigenvalue.
ENERGY_TOL = 1e-10
F_TOL = 1e-7
SPREAD_TOL = 1e-9
TRANSFER_LAMBDA_TOL = 1e-8
TRANSFER_NORM_TOL = 1e-12
TRANSFER_COMMUTATOR_TOL = 1e-9
TRANSFER_QP_TOL = 1e-12
TRANSFER_TAUS = (0.5j, 1j)
TRANSFER_POINTS = (0.31, 0.77, 1.38, 2.02, 2.64)


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


def _bonds(L: int, states: np.ndarray):
    """For each bond (j, j+1), on every given even-sector state: s_j s_{j+1}
    as +-1.0, and the sector position s >> 1 of the state s with both spins
    flipped."""
    for j in range(L):
        k = (j + 1) % L
        zz = 1.0 - 2.0 * (((states >> j) ^ (states >> k)) & 1)
        yield zz, (states ^ ((1 << j) | (1 << k))) >> 1


def _orbits(L: int, sec: np.ndarray):
    """Translation orbits of the even sector.

    The representative of an orbit is its smallest state, the minimum of a
    state over its L rotations.  Returns, for every sector state, the index
    of its orbit; the representatives in increasing order; and the length
    N_r of each orbit.
    """
    mask = (1 << L) - 1
    rep = sec.copy()
    x = sec.copy()
    for _ in range(L - 1):
        top = x >> (L - 1)
        x <<= 1
        x &= mask
        x |= top
        np.minimum(rep, x, out=rep)
    reps = sec[rep == sec]
    orbit = np.searchsorted(reps, rep)
    return orbit, reps, np.bincount(orbit)


def _momentum_zero_matrix(L, couplings, orbit, reps, lengths):
    """H in the normalised orbit basis |r> = N_r^(-1/2) sum of the N_r
    rotations of r, as fixed-width arrays (cols, vals) of shape (n, L + 1):
    row r of H is the sum of vals[r, i] at column cols[r, i].

    Row r holds, for each bond, the orbit r' of the flipped state with
    amplitude -(Jx - Jy zz)/2 sqrt(N_r/N_r'), then the diagonal; that row is
    column r of H, and H is symmetric.  Two bonds can lead to the same orbit,
    and a hop can lead back into r's own, so a row may repeat a column; every
    consumer sums repeated entries.
    """
    Jx, Jy, Jz = couplings
    n = len(reps)
    root = np.sqrt(lengths)
    # int32 is the index type CSR stores, so `_csr` takes cols without a copy
    cols = np.empty((n, L + 1), dtype=np.int32)
    vals = np.zeros((n, L + 1))
    cols[:, L] = np.arange(n)
    for j, (zz, partner) in enumerate(_bonds(L, reps)):
        vals[:, L] -= 0.5 * Jz * zz
        cols[:, j] = orbit[partner]
        vals[:, j] = -0.5 * (Jx - Jy * zz) * root / root[cols[:, j]]
    return cols, vals


def _csr(cols, vals):
    """The fixed-width rows as scipy CSR, repeated columns kept as entries."""
    from scipy.sparse import csr_matrix

    n, width = cols.shape
    return csr_matrix(
        (vals.ravel(), cols.ravel(), np.arange(0, n * width + 1, width)),
        shape=(n, n),
    )


def _dense(cols, vals) -> np.ndarray:
    """The fixed-width rows scattered into a dense matrix."""
    n, width = cols.shape
    flat = np.repeat(np.arange(n) * n, width) + cols.ravel()
    return np.bincount(flat, weights=vals.ravel(), minlength=n * n).reshape(n, n)


@dataclass
class SpinOperator:
    """Periodic XYZ Hamiltonian at odd length L with given couplings."""

    L: int
    couplings: tuple[float, float, float]

    def sector_indices(self) -> np.ndarray:
        """Basis indices with an even number of down spins, in increasing
        order: 2t + parity(t) for t < 2^(L-1), so state s sits at s >> 1."""
        # int32 holds every state up to L_MAX and halves the memory traffic
        # of the orbit search
        t = np.arange(2 ** (self.L - 1), dtype=np.int32)
        parity = t.copy()
        for shift in (16, 8, 4, 2, 1):
            parity ^= parity >> shift
        return 2 * t + (parity & 1)

    def sector_matrix(self, sparse: bool = True):
        """Hamiltonian restricted to the momentum-zero (k = 0) sector of the
        even sector, as CSR or dense.

        The basis is the normalised translation orbits of even-sector states,
        ordered by their smallest member; the dimension is about 2^(L-1)/L.
        """
        orbit, reps, lengths = _orbits(self.L, self.sector_indices())
        rows = _momentum_zero_matrix(self.L, self.couplings, orbit, reps, lengths)
        return _csr(*rows) if sparse else _dense(*rows)


def build_hamiltonian(L: int, zeta: float) -> SpinOperator:
    _check_length(L)
    return SpinOperator(L=L, couplings=couplings_from_zeta(zeta))


def build_from_couplings(L: int, Jx: float, Jy: float, Jz: float) -> SpinOperator:
    _check_length(L)
    return SpinOperator(L=L, couplings=(float(Jx), float(Jy), float(Jz)))


@dataclass
class GroundState:
    """Lowest eigenpair of the momentum-zero sector, with the eigenvector
    scattered onto the even-sector basis."""

    L: int
    couplings: tuple[float, float, float]
    energy: float
    vector: np.ndarray          # coefficients on the even-sector basis
    sector: np.ndarray          # basis indices of that sector
    residual: float             # ||H c - E c|| in the k = 0 sector
    gap: float                  # relative k = 0 gap (E1 - E0) / max(|E0|, 1)
    dim: int                    # dimension of the k = 0 sector


def _start_vector(L: int, n: int) -> np.ndarray:
    """n numbers uniform in [-1, 1) from the standard library's generator
    seeded by L: a generic start vector that does not depend on what the
    process computed before, drawn without loading numpy.random."""
    bits = random.Random(L).getrandbits(64 * n)
    return np.frombuffer(bits.to_bytes(8 * n, "little"), dtype="<u8") * 2.0**-63 - 1.0


def _residual(cols, vals, c: np.ndarray, e: float) -> float:
    """||H c - e c|| with H given by its fixed-width rows."""
    return float(np.linalg.norm((vals * c[cols]).sum(axis=1) - e * c))


def _dense_ground_pair(cols, vals, L: int):
    """e0, e1, the ground vector and its residual, without the eigenbasis:
    the eigenvalues by `eigvalsh`, the vector by inverse iteration on one
    copy of H shifted to sigma = e0 - GAP_TOL max(|e0|, 1) / 100, from a
    start vector seeded by L.

    Each solve of (H - sigma) x = c shrinks the excited components by
    (e0 - sigma) / (e1 - sigma), at most 1e-2 at any gap that passes
    GAP_TOL, so until rounding sets in ||H c - e0 c|| falls at least a
    hundredfold per solve.  The solves repeat while it falls tenfold, at
    most four, and the best vector is kept: on the default zeta grid the
    second solve reaches rounding level and the third ends the loop.
    """
    H = _dense(cols, vals)
    e0, e1 = np.linalg.eigvalsh(H)[:2]
    H.flat[:: len(H) + 1] -= e0 - 1e-2 * GAP_TOL * max(abs(e0), 1.0)
    c, residual = _start_vector(L, len(H)), math.inf
    for _ in range(4):
        x = np.linalg.solve(H, c)
        x /= np.linalg.norm(x)
        r = _residual(cols, vals, x, e0)
        done = r > 0.1 * residual
        if r < residual:
            c, residual = x, r
        if done:
            break
    return e0, e1, c, residual


def _ground_state(op: SpinOperator) -> GroundState:
    """Two lowest eigenvalues and the ground vector of the k = 0 matrix: by
    `_dense_ground_pair` up to dimension DENSE_DIM_MAX, above it by Lanczos
    (ARPACK) from the same seeded start vector.  The k = 0 coefficient c_r
    of orbit r becomes c_r / sqrt(N_r) on each of its N_r even-sector states.
    """
    sec = op.sector_indices()
    orbit, reps, lengths = _orbits(op.L, sec)
    cols, vals = _momentum_zero_matrix(op.L, op.couplings, orbit, reps, lengths)
    n = len(reps)
    if n <= DENSE_DIM_MAX:
        e0, e1, c, residual = _dense_ground_pair(cols, vals, op.L)
    else:
        from scipy.sparse.linalg import ArpackNoConvergence, eigsh

        # Without a start vector ARPACK draws one from a generator whose
        # state persists across calls, so the result would depend on earlier
        # calls.
        try:
            evals, vecs = eigsh(_csr(cols, vals), k=2, which="SA", v0=_start_vector(op.L, n))
        except ArpackNoConvergence as exc:
            raise NoConvergence(str(exc)) from exc
        order = np.argsort(evals)
        (e0, e1), c = evals[order[:2]], vecs[:, order[0]]
        residual = _residual(cols, vals, c, e0)
    scale = max(abs(e0), 1.0)
    gap = float((e1 - e0) / scale)
    if gap < GAP_TOL:
        raise DegenerateSectorGround(
            f"sector gap {gap:.2e} below {GAP_TOL} for L={op.L}, couplings={op.couplings}"
        )
    return GroundState(
        L=op.L, couplings=op.couplings, energy=float(e0),
        vector=(c / np.sqrt(lengths))[orbit], sector=sec, residual=residual,
        gap=gap, dim=n,
    )


def ground_state_even_sector(L: int, zeta: float) -> GroundState:
    """Ground state of H in the even sector, found in its momentum-zero
    subsector, where the ground state lies: its energy is checked against
    -L (zeta^2 + 3)/4 by the callers.

    Up to dimension DENSE_DIM_MAX the two lowest eigenvalues of the k = 0
    matrix come from dense `eigvalsh` and the ground vector from inverse
    iteration just below e0; above it both come from Lanczos on the sparse
    matrix.  Both paths start from one vector seeded by L.  The result is
    verified by its residual and relative gap, never assumed.
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
        "dim": state.dim,
    }


# -- eight-vertex transfer matrix ---------------------------------------

def boltzmann_weights(u: complex, eta: float, tau: complex):
    """Theta-parametrized weights (a, b, c, d), normalized so that
    a + b = theta1(2 eta|tau)/theta1(eta|tau) * theta1(u|tau)."""
    ctx = theta_context(tau)
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


def _apply_stack(Ws: np.ndarray, vs) -> np.ndarray:
    """T_b @ v_b for a stack of site tensors Ws[b] and vectors vs[b] of length
    2^L, in one pass, where T_b = Tr_aux(R_01 ... R_0L) is built from Ws[b].

    The carried array X[b, alpha0, s, rest, alpha] starts as
    delta(alpha0, alpha) v_b, with s the first spin not yet visited.  Each
    site contracts s and the auxiliary index alpha with W and appends the
    output spin after the rest, so after L sites the spins are back in order.
    Time and memory are O(B L 2^L); the number of numpy calls does not grow
    with the stack size B.
    """
    vs = np.asarray(vs, dtype=complex)
    B, dim = vs.shape
    half = dim // 2
    # [b, s, 1 (alpha0), alpha, (s', gamma)]
    Wm = np.transpose(Ws, (0, 4, 1, 3, 2)).reshape(B, 2, 1, 2, 4)
    X = (np.eye(2)[:, None, :] * vs[:, None, :, None]).reshape(B, 2, 2, half, 2)
    for _ in range(dim.bit_length() - 1):
        X = (X[:, :, 0] @ Wm[:, 0] + X[:, :, 1] @ Wm[:, 1]).reshape(B, 2, 2, half, 2)
    X = X.reshape(B, 2, dim, 2)
    return X[:, 0, :, 0] + X[:, 1, :, 1]


def transfer_apply(L: int, u: complex, eta: float, tau: complex, v) -> np.ndarray:
    """T(u) @ v for the transfer matrix Tr_aux(R_01 ... R_0L) on the 2^L chain
    space, site 1 being the most significant bit, without forming T: site by
    site in O(L 2^L) time and memory.
    """
    _check_length(L)
    v = np.asarray(v, dtype=complex).reshape(1, 2**L)
    return _apply_stack(_site_tensor(u, eta, tau)[None], v)[0]


def _ground_eigenvalue(L: int, u: complex, ctx: ThetaContext) -> complex:
    """theta1(u)^L, the eigenvalue of T(u) on the ground state at eta = pi/3."""
    return theta(1, u, ctx) ** L


def _norm_lower_bound(apply, xs: np.ndarray) -> np.ndarray:
    """Eight-step power-iteration estimate of the spectral norm of each map
    in the stack `apply`, from the rows of xs: the largest ||A x|| over the
    unit iterates x.  Each such value is a lower bound on ||A||, so a gate
    relative to it is conservative.
    """
    x = xs / np.linalg.norm(xs, axis=1, keepdims=True)
    best = np.zeros(len(xs))
    for _ in range(8):
        y = apply(x)
        ny = np.linalg.norm(y, axis=1)
        best = np.maximum(best, ny)
        x = y / ny[:, None]
    return best


def transfer_checks(L: int, tau: complex) -> dict:
    """Commutation, quasi-periodicity and the ground-state eigenvalue of the
    transfer family at the supersymmetric crossing parameter, matrix-free.

    Every product with T is applied site by site, as in `transfer_apply`,
    with the products at several u stacked into one pass.  The commutator
    and quasi-periodicity residuals act on one complex vector v seeded by L,
    whose real and imaginary parts interleave the 2^(L+1) entries of
    `_start_vector(L, 2^(L+1))`:
    ||T1 T2 v - T2 T1 v|| / max(||T1 T2 v||, ||T2 T1 v||) and
    ||T(u1 + pi) v - (-1)^L T(u1) v|| / ||T(u1) v||.  The eigenvalue residual
    ||T psi - lambda psi|| on the ground state psi is reported relative to
    |lambda| and relative to a power-iteration lower bound on ||T||; their
    ratio, the amplification ||T||/|lambda|, grows with L.
    """
    _check_length(L, L_MAX_TRANSFER)
    eta = np.pi / 3
    mv = modular_values(tau)
    zeta = float(mv.zeta.real)
    state = ground_state_even_sector(L, zeta)
    psi = np.zeros(2**L)
    psi[state.sector] = state.vector
    ctx = theta_context(tau)
    v = _start_vector(L, 2 ** (L + 1)).view(complex)
    us = TRANSFER_POINTS
    u1, u2 = 0.52, 1.91
    W = {u: _site_tensor(u, eta, tau) for u in (*us, u1, u2, u1 + np.pi)}

    def T(at, xs):
        """T(at[b]) @ xs[b] for every b."""
        return _apply_stack(np.stack([W[u] for u in at]), xs)

    lams = np.array([_ground_eigenvalue(L, u, ctx) for u in us])
    misses = np.linalg.norm(T(us, np.tile(psi, (len(us), 1))) - lams[:, None] * psi, axis=1)
    t_norms = _norm_lower_bound(lambda xs: T(us, xs), np.tile(v, (len(us), 1)))
    eig_residuals = [float(r) for r in misses / (np.abs(lams) * np.linalg.norm(psi))]
    norm_residuals = misses / (t_norms * np.linalg.norm(psi))
    t1v, t2v, tsv = T((u1, u2, u1 + np.pi), np.tile(v, (3, 1)))
    t12v, t21v = T((u1, u2), np.stack([t2v, t1v]))
    comm = float(
        np.linalg.norm(t12v - t21v)
        / max(np.linalg.norm(t12v), np.linalg.norm(t21v))
    )
    qp = float(np.linalg.norm(tsv - (-1) ** L * t1v) / np.linalg.norm(t1v))
    return {
        "L": L,
        "tau_im": float(complex(tau).imag),
        "zeta": zeta,
        "eigenvalue_residuals": eig_residuals,
        "max_eigenvalue_residual": max(eig_residuals),
        "max_eigenvalue_residual_norm": float(norm_residuals.max()),
        "max_amplification": float((t_norms / np.abs(lams)).max()),
        "commutator_residual": comm,
        "quasi_periodicity_residual": qp,
    }


DEFAULT_ZETA_GRID = (
    Fraction(-5, 2), Fraction(-3, 2), Fraction(-3, 4), Fraction(-2, 5),
    Fraction(-1, 5), Fraction(1, 5), Fraction(2, 5), Fraction(3, 4),
    Fraction(3, 2), Fraction(5, 2),
)


def ed_verify(Ls=(3, 5, 7, 9, 11), zetas=DEFAULT_ZETA_GRID, transfer=False) -> dict:
    """Diagonalize every (L, zeta) sample and compare with the exact pipeline.

    Checks, per sample: the closed-form ground energy (relative), three-way
    agreement of the inverted f, agreement with the tau-function f_n, and
    translation invariance of the per-bond correlators, measured on the
    k = 0 eigenvector scattered onto the even sector.  Each sample also
    reports the k = 0 dimension, the relative k = 0 gap and the eigenpair
    residual in that sector.  With ``transfer``, each (tau, L) with tau in
    TRANSFER_TAUS and L <= L_MAX_TRANSFER also gates the residuals of
    transfer_checks: the eigenvalue residual relative to the ||T|| estimate
    at every L and relative to |lambda| for L <= L_MAX_LAMBDA_GATE, the
    commutator and quasi-periodicity.  A longer chain is reported as a
    SizeLimit skip.  A report in which no (L, zeta) sample was checked is not ok.
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
            entry["dim"] = inf["dim"]
            entry["gap"] = inf["gap"]
            entry["residual"] = inf["residual"]
            entry["ok"] = (
                entry["energy_residual"] < ENERGY_TOL
                and entry["f_agreement"] < F_TOL
                and entry["per_bond_spread"] < SPREAD_TOL
            )
            ok = ok and entry["ok"]
            samples.append(entry)
    ok = ok and any("ok" in entry for entry in samples)
    report = {"ok": ok, "samples": samples}
    if transfer:
        trs = []
        for tau in TRANSFER_TAUS:
            for L in Ls:
                try:
                    tc = transfer_checks(L, tau)
                except SizeLimit as exc:
                    trs.append({"L": L, "tau_im": float(complex(tau).imag),
                                "skipped": type(exc).__name__, "reason": str(exc)})
                    continue
                tc["ok"] = (
                    (L > L_MAX_LAMBDA_GATE or tc["max_eigenvalue_residual"] < TRANSFER_LAMBDA_TOL)
                    and tc["max_eigenvalue_residual_norm"] < TRANSFER_NORM_TOL
                    and tc["commutator_residual"] < TRANSFER_COMMUTATOR_TOL
                    and tc["quasi_periodicity_residual"] < TRANSFER_QP_TOL
                )
                ok = ok and tc["ok"]
                trs.append(tc)
        report["transfer"] = trs
        report["ok"] = ok
    return report
