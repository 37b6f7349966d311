"""Brute-force oracle: periodic XYZ chains at odd length, diagonalized in the
momentum-zero sector of the even spin-flip sector, split by reflection
parity, with correlators, the inferred correlation quantity, and the
commuting eight-vertex transfer matrix.

Couplings follow J_x = 1 + zeta, J_y = 1 - zeta, J_z = (zeta^2 - 1)/2, the
normalization in which the ground-state energy is exactly -L (zeta^2 + 3)/4
at every odd L.  Basis states are bit strings; bit j set means spin down at
site j, and the even sector collects states with an even number of down
spins.  H commutes with translation, so it is diagonalized on the
translation-invariant (k = 0) combinations of even-sector states, one per
orbit under rotation, a space of dimension about 2^(L-1)/L; the ground state
lies there, which the energy check against the closed form certifies.
H also commutes with the reflection j -> L - 1 - j, which maps the k = 0
state of an orbit to the k = 0 state of its mirror orbit without a phase,
so the k = 0 sector splits into a reflection-even block (one state per
orbit pair or self-mirrored orbit) and a reflection-odd block (one per
pair), of about half the dimension each.  The ground state is taken from
the block with the lower energy, and the gap from both.  Everything that
does not depend on the couplings (the orbits, the bond partners, the
mirror map) is one sector plan per L, kept while the k = 0 dimension is at
most DENSE_DIM_MAX, where the samples of one L repeat it.

A block of dimension up to DENSE_DIM_MAX is solved densely, its eigenvalues
by `eigvalsh` and the ground vector by inverse iteration, so the eigenbasis
is never formed; a larger one by Lanczos (ARPACK) on the sparse block.  Both
start from a vector seeded by L, drawn from the standard library's
generator, so a result does not depend on what the process computed before
and numpy.random is never imported.  scipy is imported only on the ARPACK
path and by `sector_matrix(sparse=True)`.  The ground vector is expanded to
the k = 0 sector, where its residual is measured on the full k = 0 matrix,
and scattered onto the even sector, where correlators are measured bond by
bond.

The eight-vertex transfer matrix comes from one site tensor, the R-matrix
W[alpha, gamma, s', s], real for real u and pure-imaginary tau, the only
weights the package uses.  `transfer_apply` multiplies a vector by T one
site at a time without forming it, in O(L 2^L), for every L up to L_MAX:
the real and imaginary parts of the vector go through the real tensor as
separate rows, in chunks of at most TRANSFER_CHUNK_BYTES so that the carried
array stays in cache.  The package never builds T densely:
`transfer_checks` (L <= L_MAX_TRANSFER) tests the commutator,
quasi-periodicity and the ground-state eigenvalue on vectors only.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .thetanum import ThetaContext, modular_values, theta, theta_context

__all__ = [
    "SizeLimit",
    "NoConvergence",
    "DegenerateSectorGround",
    "NearSingularInversion",
    "ComplexSiteTensor",
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
#: largest reflection-block dimension solved densely (`eigvalsh`, then
#: `_inverse_iteration` on the ground block); ARPACK above it.  Warm, per
#: solve on a 2-vCPU Xeon with one BLAS thread, best of 10 at each zeta of
#: DEFAULT_ZETA_GRID: dense 0.8-1.3 / 2.8-3.0 / 20-21 / 35-36 ms at block
#: dimension 126 / 190 / 484 / 612 (L = 13 odd and even, L = 15 odd and
#: even), `eigsh` for two eigenpairs 1.9-3.9 / 2.8-3.5 / 3.0-4.7 / 2.1-3.8
#: ms, and the first ARPACK solve in a process also pays about 0.25 s to
#: import scipy.  So the crossover lies near 190, and at L = 15 the dense odd
#: block costs about 0.17 s over the 10-point sweep.  The bound stays above
#: the k = 0 dimension 316 of L = 13 so that L <= 13 runs without scipy and
#: its sector plan is cached (`_sector_plan`).
DENSE_DIM_MAX = 512
#: rows per slice of a row-wise build of H (`_row_chunks`): 0.8 MB per
#: temporary at L = 25.  At L = 21, 2^14 rows lift the ground state's peak
#: RSS by 2.5 MiB; 2^10 cost 5 % more time and save nothing more.
ROW_CHUNK = 1 << 12
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
#: bytes of the array `_apply_stack` carries per chunk of rows, 32 2^L per
#: row.  Best of 15 warm `transfer_checks` at tau = 0.5i on a 2-vCPU Xeon
#: (2 MiB L2 per core), budgets interleaved: at 64 / 128 / 256 / 512 KiB and
#: 1 MiB, L = 9 takes 5.6 / 5.2 / 4.6 / 4.5 / 4.6 ms, L = 11 20.4 / 17.9 /
#: 17.6 / 17.3 / 17.9 ms and L = 13 98 / 88 / 85 / 82 / 149 ms; 256 KiB
#: keeps clear of both edges.
TRANSFER_CHUNK_BYTES = 256 * 1024


class SizeLimit(ValueError):
    """Chain length outside the supported range."""


class NoConvergence(RuntimeError):
    """Iterative eigensolver failed to converge."""


class DegenerateSectorGround(RuntimeError):
    """Sector gap below tolerance; the sample is unusable."""


class NearSingularInversion(ValueError):
    """zeta too close to +-1 for the x/y inversion of the correlators."""


class ComplexSiteTensor(ValueError):
    """A transfer site tensor with a nonzero imaginary part: complex u or a
    nome off the imaginary axis."""


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


def _even_sector(L: int) -> np.ndarray:
    """States with an even number of down spins, in increasing order:
    2t + parity(t) for t < 2^(L-1), so state s sits at s >> 1."""
    # int32 holds every state up to L_MAX and halves the memory traffic of
    # the orbit search
    t = np.arange(2 ** (L - 1), dtype=np.int32)
    parity = t.copy()
    for shift in (16, 8, 4, 2, 1):
        parity ^= parity >> shift
    return 2 * t + (parity & 1)


def _smallest_rotation(L: int, states: np.ndarray) -> np.ndarray:
    """Each state's minimum over its L rotations."""
    mask = (1 << L) - 1
    rep = states.copy()
    x = states.copy()
    for _ in range(L - 1):
        top = x >> (L - 1)
        x <<= 1
        x &= mask
        x |= top
        np.minimum(rep, x, out=rep)
    return rep


def _orbits(L: int, sec: np.ndarray):
    """Translation orbits of the even sector.

    The representative of an orbit is its smallest state, the minimum of a
    state over its L rotations.  Returns, for every sector state, the index
    of its orbit; the representatives in increasing order; and the length
    N_r of each orbit.
    """
    rep = _smallest_rotation(L, sec)
    reps = sec[rep == sec]
    # int32, half of searchsorted's index type, as orbit spans the sector
    orbit = np.searchsorted(reps, rep).astype(np.int32)
    return orbit, reps, np.bincount(orbit)


def _k0_dim(L: int) -> int:
    """The number of even-sector orbits at odd L, by Burnside's lemma: the
    rotation by g fixes the 2^(gcd(g, L) - 1) even states that repeat with
    period gcd(g, L)."""
    return sum(2 ** (math.gcd(g, L) - 1) for g in range(L)) // L


@dataclass(frozen=True)
class _SectorPlan:
    """The coupling-independent structure of the k = 0 sector at one L.

    The orbit index of every even-sector state and the orbit
    representatives, lengths and columns are those of `_orbits` and
    `_momentum_zero_matrix`; zz[r, j] is s_j s_{j+1} on representative r,
    and mirror[r] the orbit of r with its L bits reversed.  The arrays are
    read-only, as a plan may be shared by every sample of its L.
    """

    L: int
    sec: np.ndarray       # even-sector states, increasing
    orbit: np.ndarray     # orbit index of each sector state
    reps: np.ndarray      # smallest member of each orbit, increasing
    lengths: np.ndarray   # N_r
    cols: np.ndarray      # (n, L + 1) int32: the orbit of each bond's partner, then r
    zz: np.ndarray        # (n, L) int8
    mirror: np.ndarray    # orbit of the reflected representative


def _build_plan(L: int) -> _SectorPlan:
    sec = _even_sector(L)
    orbit, reps, lengths = _orbits(L, sec)
    n = len(reps)
    # int32 is the index type CSR stores, so `_csr` takes cols without a copy
    cols = np.empty((n, L + 1), dtype=np.int32)
    zz = np.empty((n, L), dtype=np.int8)
    rev = np.zeros_like(reps)
    for j, (z, partner) in enumerate(_bonds(L, reps)):
        zz[:, j] = z
        cols[:, j] = orbit[partner]
        rev |= ((reps >> j) & 1) << (L - 1 - j)
    cols[:, L] = np.arange(n)
    mirror = np.searchsorted(reps, _smallest_rotation(L, rev))
    plan = _SectorPlan(L, sec, orbit, reps, lengths, cols, zz, mirror)
    for a in (sec, orbit, reps, lengths, cols, zz, mirror):
        a.flags.writeable = False
    return plan


_cached_plan = functools.cache(_build_plan)


def _sector_plan(L: int) -> _SectorPlan:
    """The plan of L: memoised while the k = 0 dimension is at most
    DENSE_DIM_MAX (L <= 13), where the samples of one L repeat it; built
    per call above, so that no array of length 2^(L-1) outlives its call."""
    return _cached_plan(L) if _k0_dim(L) <= DENSE_DIM_MAX else _build_plan(L)


def _row_chunks(n: int):
    """Slices of at most ROW_CHUNK rows covering n rows, so that a row-wise
    build of H has no temporary of H's size."""
    return (slice(lo, lo + ROW_CHUNK) for lo in range(0, n, ROW_CHUNK))


def _momentum_zero_matrix(plan: _SectorPlan, couplings, rows=slice(None)):
    """H in the normalised orbit basis |r> = N_r^(-1/2) sum of the N_r
    rotations of r, as fixed-width arrays (cols, vals) of shape (n, L + 1):
    row r of H is the sum of vals[r, i] at column cols[r, i].  Given
    ``rows``, only those rows of H, in that order.

    Row r holds, for each bond, the orbit r' of the flipped state with
    amplitude -(Jx - Jy zz)/2 sqrt(N_r/N_r'), then the diagonal; that row is
    column r of H, and H is symmetric.  Two bonds can lead to the same orbit,
    and a hop can lead back into r's own, so a row may repeat a column; every
    consumer sums repeated entries.  For a slice of rows cols is a view of
    the plan's read-only array, for an index array a copy of its own.
    """
    Jx, Jy, Jz = couplings
    L, cols, zz = plan.L, plan.cols[rows], plan.zz[rows]
    root = np.sqrt(plan.lengths)
    root_rows = root[rows]
    vals = np.empty(cols.shape)
    for part in _row_chunks(len(cols)):
        z = zz[part]
        vals[part, :L] = -0.5 * (Jx - Jy * z) * root_rows[part, None] / root[cols[part, :L]]
        vals[part, L] = -0.5 * Jz * z.sum(axis=1)
    return cols, vals


class _Block(NamedTuple):
    """One reflection-parity block of the k = 0 matrix, as fixed-width rows
    (cols, vals) in the layout of `_momentum_zero_matrix`, with the map back:
    a block vector x has the k = 0 coefficients c_r = weight[r] x[index[r]]."""

    parity: str
    cols: np.ndarray
    vals: np.ndarray
    index: np.ndarray
    weight: np.ndarray


def _parity_blocks(plan: _SectorPlan, couplings) -> tuple[_Block, _Block]:
    """H's k = 0 rows split into the reflection-even and the reflection-odd
    block.

    A class is an orbit r with its mirror R(r), represented by the smaller
    of the two; a pair (r < R(r)) spans the even state (|r> + |R(r)>)/sqrt(2)
    and the odd state (|r> - |R(r)>)/sqrt(2), a self-mirrored orbit only the
    even state |r>.  So weight[r] is 1/sqrt(2) on pair members and 1 on
    self-mirrored orbits in the even block, +-1/sqrt(2) on the smaller and
    the larger member and 0 on self-mirrored orbits in the odd block.  As H
    commutes with the reflection, block row a is the k = 0 row of a's
    representative with each column r' moved to index[r'] and its value
    scaled by weight[r'] / weight[a]: sqrt(2) for a pair row, 1/sqrt(2) for
    a pair column in the even block; +-1 in the odd block, where a
    self-mirrored column drops out with weight 0.  Only the block rows'
    k = 0 rows are built.
    """
    mirror = plan.mirror
    own = np.arange(len(mirror))
    cls = np.minimum(own, mirror)
    blocks = []
    for parity, rows, weight in (
        ("even", np.flatnonzero(own <= mirror), np.where(own == mirror, 1.0, np.sqrt(0.5))),
        ("odd", np.flatnonzero(own < mirror), np.sign(mirror - own) * np.sqrt(0.5)),
    ):
        # a self-mirrored orbit has odd weight 0, so any index in range serves it
        index = np.searchsorted(rows, cls).clip(max=max(len(rows) - 1, 0)).astype(np.int32)
        cols, vals = _momentum_zero_matrix(plan, couplings, rows)
        for part in _row_chunks(len(rows)):
            vals[part] *= weight[cols[part]] / weight[rows[part], None]
            cols[part] = index[cols[part]]
        blocks.append(_Block(parity, cols, vals, index, weight))
    return tuple(blocks)


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
        return _even_sector(self.L)

    def sector_matrix(self, sparse: bool = True):
        """Hamiltonian restricted to the momentum-zero (k = 0) sector of the
        even sector, as CSR or dense, both parity blocks in one matrix.

        The basis is the normalised translation orbits of even-sector states,
        ordered by their smallest member; the dimension is about 2^(L-1)/L.
        """
        rows = _momentum_zero_matrix(_sector_plan(self.L), self.couplings)
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
    even_dim: int               # dimension of its reflection-even block
    odd_dim: int                # dimension of its reflection-odd block
    ground_block: str           # "even" or "odd": the block holding E0


def _start_vector(L: int, n: int) -> np.ndarray:
    """n numbers uniform in [-1, 1) from the standard library's generator
    seeded by L: a generic start vector that does not depend on what the
    process computed before, drawn without loading numpy.random."""
    bits = random.Random(L).getrandbits(64 * n)
    return np.frombuffer(bits.to_bytes(8 * n, "little"), dtype="<u8") * 2.0**-63 - 1.0


def _residual(plan: _SectorPlan, couplings, c: np.ndarray, e: float) -> float:
    """||H c - e c|| on the k = 0 rows of H, built ROW_CHUNK at a time so
    that no temporary has the size of H; each row's sum is the one the
    whole matrix would give."""
    hc = np.empty_like(c)
    for part in _row_chunks(len(c)):
        cols, vals = _momentum_zero_matrix(plan, couplings, part)
        terms = c[cols]
        terms *= vals
        hc[part] = terms.sum(axis=1)
    return float(np.linalg.norm(hc - e * c))


def _lowest(block: _Block, L: int, k: int):
    """The lowest eigenvalues of a block, in increasing order, and its ground
    vector or None: up to dimension DENSE_DIM_MAX all eigenvalues by
    `eigvalsh` and no vector; above it k eigenpairs by Lanczos (ARPACK) on
    the sparse block, from the start vector seeded by L."""
    n = len(block.cols)
    if n <= DENSE_DIM_MAX:
        return np.linalg.eigvalsh(_dense(block.cols, block.vals)), None
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    # Without a start vector ARPACK draws one from a generator whose state
    # persists across calls, so the result would depend on earlier calls.
    try:
        evals, vecs = eigsh(_csr(block.cols, block.vals), k=k, which="SA",
                            v0=_start_vector(L, n))
    except ArpackNoConvergence as exc:
        raise NoConvergence(str(exc)) from exc
    order = np.argsort(evals)
    return evals[order], vecs[:, order[0]]


def _inverse_iteration(block: _Block, L: int, e0: float, e1: float) -> np.ndarray:
    """The ground vector of a dense block with lowest eigenvalues e0 < e1,
    by inverse iteration on one copy of the block shifted to
    sigma = e0 - GAP_TOL max(|e0|, 1) / 100, from a start vector seeded by L.

    Each solve of (H - sigma) x = c shrinks the excited components by
    rho = (e0 - sigma) / (e1 - sigma), so the number of solves is known in
    advance: the fewest with rho^k at most the unit roundoff 2^-53.  At any
    gap that passes GAP_TOL rho is at most 1e-2, so k <= 8; on the default
    zeta grid at L <= 13 rho is far below 1e-8, so k = 2.
    """
    H = _dense(block.cols, block.vals)
    shift = 1e-2 * GAP_TOL * max(abs(e0), 1.0)
    rho = shift / (e1 - e0 + shift)
    H.flat[:: len(H) + 1] -= e0 - shift
    c = _start_vector(L, len(H))
    for k in range(1, 9):
        c = np.linalg.solve(H, c)
        c /= np.linalg.norm(c)
        if rho**k <= 2.0**-53:
            break
    return c


def _block_ground(op: SpinOperator, plan: _SectorPlan):
    """The two lowest eigenvalues and the ground vector of the k = 0 matrix,
    from its two reflection-parity blocks (`_parity_blocks`), each solved by
    `_lowest`: e0 is the lower of the two blocks' lowest eigenvalues, e1 the
    lower of the ground block's second and the other block's lowest.  On
    ARPACK the even block, where the supersymmetric ground state lies, is
    asked for two eigenpairs and the odd block for one; should the odd block
    hold e0 it is solved again for two.  A dense ground block gets its
    vector by `_inverse_iteration`, once the gap has passed GAP_TOL.

    Returns e0, the relative gap, the ground vector's k = 0 coefficients c,
    the (even, odd) block dimensions and the ground block's parity.
    """
    blocks = _parity_blocks(plan, op.couplings)
    levels = [_lowest(b, op.L, k) for b, k in zip(blocks, (2, 1))]
    g = int(len(levels[1][0]) > 0 and levels[1][0][0] < levels[0][0][0])
    if len(levels[g][0]) < min(2, len(blocks[g].cols)):
        levels[g] = _lowest(blocks[g], op.L, 2)
    (ground, x), other = levels[g], levels[1 - g][0]
    e0 = ground[0]
    e1 = min(ground[1:2].tolist() + other[:1].tolist())
    gap = float((e1 - e0) / max(abs(e0), 1.0))
    if gap < GAP_TOL:
        raise DegenerateSectorGround(
            f"sector gap {gap:.2e} below {GAP_TOL} for L={op.L}, couplings={op.couplings}"
        )
    block = blocks[g]
    if x is None:
        x = _inverse_iteration(block, op.L, e0, ground[1] if len(ground) > 1 else np.inf)
    dims = (len(blocks[0].cols), len(blocks[1].cols))
    return float(e0), gap, block.weight * x[block.index], dims, block.parity


def _ground_state(op: SpinOperator) -> GroundState:
    """The ground state of the k = 0 matrix by `_block_ground`, whose blocks
    are freed before the residual is taken on the k = 0 rows.  The
    k = 0 coefficient c_r of orbit r becomes c_r / sqrt(N_r) on each of its
    N_r even-sector states.
    """
    plan = _sector_plan(op.L)
    e0, gap, c, (even_dim, odd_dim), parity = _block_ground(op, plan)
    return GroundState(
        L=op.L, couplings=op.couplings, energy=e0,
        vector=(c / np.sqrt(plan.lengths))[plan.orbit], sector=plan.sec,
        residual=_residual(plan, op.couplings, c, e0), gap=gap, dim=len(c),
        even_dim=even_dim, odd_dim=odd_dim, ground_block=parity,
    )


def ground_state_even_sector(L: int, zeta: float) -> GroundState:
    """Ground state of H in the even sector, found in its momentum-zero
    subsector, where the ground state lies: its energy is checked against
    -L (zeta^2 + 3)/4 by the callers.

    The k = 0 matrix is solved as its reflection-even and reflection-odd
    blocks.  Up to dimension DENSE_DIM_MAX a block's eigenvalues come from
    dense `eigvalsh` and its ground vector from inverse iteration just below
    e0; above it from Lanczos on the sparse block.  Both paths start from a
    vector seeded by L.  The ground block is the one with the lower energy,
    never assumed, and the result is verified by its residual on the full
    k = 0 matrix and by its relative gap.
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
        "even_dim": state.even_dim,
        "odd_dim": state.odd_dim,
        "ground_block": state.ground_block,
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


def _apply_stack(Ws, vs) -> np.ndarray:
    """T_b @ v_b for a stack of real site tensors Ws[b] and vectors vs[b] of
    length 2^L, where T_b = Tr_aux(R_01 ... R_0L) is built from Ws[b].

    Each vector is carried as real rows: its real part and, if it is
    complex, its imaginary part, each contracted with the tensor of its
    vector.  As the tensors are real, every product and sum is the one the
    complex contraction would form, so the result has the same bits.  The
    carried array X[r, alpha0, s, rest, alpha] of row r starts as
    delta(alpha0, alpha) v_r, with s the first spin not yet visited.  Each
    site contracts s and the auxiliary index alpha with W by two matmuls and
    appends the output spin after the rest, so after L sites the spins are
    back in order.  The rows go in chunks whose X, 32 2^L bytes per row,
    fits TRANSFER_CHUNK_BYTES (one row at least), so the number of numpy
    calls is O(L) per chunk: constant in B while the rows fit one chunk
    (a five-vector complex stack up to L = 9), about 32 B 2^L /
    TRANSFER_CHUNK_BYTES chunks above.  Time is O(B L 2^L); memory is the
    vectors and three arrays of one chunk.  A tensor with a nonzero
    imaginary part raises ComplexSiteTensor.
    """
    Ws = np.asarray(Ws)
    if np.iscomplexobj(Ws):
        if Ws.imag.any():
            raise ComplexSiteTensor("the transfer kernel takes real site tensors only")
        Ws = Ws.real
    vs = np.ascontiguousarray(vs, dtype=complex if np.iscomplexobj(vs) else float)
    B, dim = vs.shape
    half = dim // 2
    # [b, s, 1 (alpha0), alpha, (s', gamma)]
    Wm = np.transpose(Ws, (0, 4, 1, 3, 2)).reshape(B, 2, 1, 2, 4)
    # [b, i, part]: the real part, then the imaginary part if there is one
    parts = vs.view(float).reshape(B, dim, -1)
    n_parts = parts.shape[2]
    out = np.zeros((B, dim), dtype=complex)
    dest = out.view(float).reshape(B, dim, 2)
    chunk = max(1, TRANSFER_CHUNK_BYTES // (32 * dim))
    for lo in range(0, B * n_parts, chunk):
        b, p = np.divmod(np.arange(lo, min(lo + chunk, B * n_parts)), n_parts)
        W = Wm[b]
        X = (np.eye(2)[:, None, :] * parts[b, :, p][:, None, :, None]).reshape(-1, 2, 2, half, 2)
        # the two products of a site go into buffers reused at every site
        first, spare = np.empty((2, len(b), 2, half, 4))
        for _ in range(dim.bit_length() - 1):
            np.matmul(X[:, :, 0], W[:, 0], out=first)
            np.matmul(X[:, :, 1], W[:, 1], out=spare)
            np.add(first, spare, out=spare)
            X, spare = spare.reshape(-1, 2, 2, half, 2), X.reshape(-1, 2, half, 4)
        X = X.reshape(-1, 2, dim, 2)
        dest[b, :, p] = X[:, 0, :, 0] + X[:, 1, :, 1]
    return out


def transfer_apply(L: int, u: complex, eta: float, tau: complex, v) -> np.ndarray:
    """T(u) @ v for the transfer matrix Tr_aux(R_01 ... R_0L) on the 2^L chain
    space, site 1 being the most significant bit, without forming T: site by
    site in O(L 2^L) time and memory.  The weights must be real, as they are
    for real u and pure-imaginary tau; otherwise ComplexSiteTensor.
    """
    _check_length(L)
    return _apply_stack(_site_tensor(u, eta, tau)[None], np.asarray(v).reshape(1, 2**L))[0]


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
    with the products at several u stacked into one kernel call.  The
    commutator and quasi-periodicity residuals act on one complex vector v
    seeded by L, whose real and imaginary parts interleave the 2^(L+1)
    entries of `_start_vector(L, 2^(L+1))`:
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
            for key in ("dim", "even_dim", "odd_dim", "ground_block"):
                entry[key] = inf[key]
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
