"""Spin-chain oracle: energies, correlators, inferred f, transfer matrix."""

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import eigsh

import susyxyz
from susyxyz.edoracle import (
    DEFAULT_ZETA_GRID,
    DENSE_DIM_MAX,
    L_MAX,
    TRANSFER_POINTS,
    ComplexSiteTensor,
    DegenerateSectorGround,
    L_MAX_TRANSFER,
    NearSingularInversion,
    SizeLimit,
    _apply_stack,
    _dense,
    _k0_dim,
    _orbits,
    _parity_blocks,
    _sector_plan,
    _site_tensor,
    _start_vector,
    boltzmann_weights,
    build_from_couplings,
    build_hamiltonian,
    ed_verify,
    ground_state_even_sector,
    infer_f,
    measure_correlations,
    transfer_apply,
    transfer_checks,
)
from susyxyz.thetanum import ThetaContext, theta


def test_size_limits():
    with pytest.raises(SizeLimit):
        build_hamiltonian(4, 0.0)
    with pytest.raises(SizeLimit):
        build_hamiltonian(L_MAX + 2, 0.0)


def _full_matrix(op):
    # reference: the dense 2^L x 2^L Hamiltonian, bond by bond
    Jx, Jy, Jz = op.couplings
    idx = np.arange(2**op.L)
    s = 1.0 - 2.0 * ((idx[:, None] >> np.arange(op.L)) & 1)
    dim = 2**op.L
    H = np.zeros((dim, dim))
    for j in range(op.L):
        k = (j + 1) % op.L
        H[idx, idx] += -0.5 * Jz * s[:, j] * s[:, k]
        mask = (1 << j) | (1 << k)
        amp = -0.5 * (Jx + Jy * np.where(s[:, j] == s[:, k], -1.0, 1.0))
        H[idx ^ mask, idx] += amp
    return H


def test_hamiltonian_basic_structure():
    op = build_hamiltonian(3, 0.0)
    H = _full_matrix(op)
    assert H.shape == (8, 8)
    assert np.allclose(H, H.T)
    assert abs(np.trace(H)) < 1e-12
    # parameter degeneration zeta=1: only the XX term survives
    op1 = build_hamiltonian(5, 1.0)
    assert op1.couplings == (2.0, 0.0, 0.0)
    assert abs(np.trace(_full_matrix(build_hamiltonian(5, 0.5)))) < 1e-12


def test_commutes_with_spin_flip_and_translation():
    rng = np.random.default_rng(0)
    L = 5
    H = _full_matrix(build_hamiltonian(L, 0.37))
    idx = np.arange(2**L)
    flip = 2**L - 1 - idx  # global spin flip reverses all bits
    # translation: site j -> j+1, i.e. bit rotate
    rot = ((idx << 1) & (2**L - 1)) | (idx >> (L - 1))
    for _ in range(4):
        v = rng.standard_normal(2**L)
        assert np.allclose((H @ v)[flip], H @ v[flip], atol=1e-10)
        assert np.allclose((H @ v)[rot], H @ v[rot], atol=1e-10)


def _even_states(L):
    # reference: basis states with an even number of down spins, in order
    idx = np.arange(2**L)
    parity = np.array([bin(i).count("1") % 2 for i in idx])
    return idx[parity == 0]


def _orbit_isometry(L):
    # reference: P[s, r] = N_r^(-1/2) for the N_r rotations s of orbit r,
    # orbits ordered by their smallest member, found one state at a time
    orbits = {}
    for s in _even_states(L):
        members, x = set(), int(s)
        for _ in range(L):
            members.add(x)
            x = ((x << 1) & (2**L - 1)) | (x >> (L - 1))
        orbits.setdefault(min(members), members)
    P = np.zeros((2**L, len(orbits)))
    for r, rep in enumerate(sorted(orbits)):
        P[sorted(orbits[rep]), r] = len(orbits[rep]) ** -0.5
    return P, sorted(len(m) for m in orbits.values())


def test_sector_matrix_consistent_with_full():
    # the k = 0 matrix is P^T H P; at L = 9 the orbit of 011011011 has length
    # 3, so both amplitude factors sqrt(N_r/N_r') and its inverse occur
    for L in (5, 7, 9):
        op = build_hamiltonian(L, -0.8)
        assert np.array_equal(op.sector_indices(), _even_states(L))
        P, lengths = _orbit_isometry(L)
        expected = P.T @ _full_matrix(op) @ P
        assert np.abs(op.sector_matrix(sparse=False) - expected).max() < 1e-13
        assert np.abs(op.sector_matrix(sparse=True).toarray() - expected).max() < 1e-13
        assert (3 in lengths) == (L == 9)


def _even_sector_matrix(op):
    # reference: H on the whole even sector as CSR, row by row; row r holds
    # the L flip partners of sector state r, then the diagonal
    Jx, Jy, Jz = op.couplings
    L = op.L
    sec = _even_states(L)
    n = len(sec)
    pos = np.empty(2**L, dtype=np.int64)
    pos[sec] = np.arange(n)
    cols, vals = [], []
    diag = np.zeros(n)
    for j in range(L):
        k = (j + 1) % L
        zz = 1.0 - 2.0 * (((sec >> j) ^ (sec >> k)) & 1)
        diag += -0.5 * Jz * zz
        cols.append(pos[sec ^ ((1 << j) | (1 << k))])
        vals.append(-0.5 * (Jx - Jy * zz))
    cols.append(np.arange(n))
    vals.append(diag)
    width = L + 1
    return csr_matrix(
        (np.column_stack(vals).ravel(), np.column_stack(cols).ravel(),
         np.arange(0, n * width + 1, width)),
        shape=(n, n),
    ), sec


def _reference_correlations(L, sec, vec):
    # reference: bond-averaged (Cx, Cy, Cz) on the full 2^L vector
    psi = np.zeros(2**L)
    psi[sec] = vec
    idx = np.arange(2**L)
    s = 1.0 - 2.0 * ((idx[:, None] >> np.arange(L)) & 1)
    c = np.zeros(3)
    for j in range(L):
        k = (j + 1) % L
        flipped = psi[idx ^ ((1 << j) | (1 << k))]
        zz = s[:, j] * s[:, k]
        c += [np.dot(psi, flipped), -np.dot(psi, flipped * zz), np.dot(psi * psi, zz)]
    return c / L


@pytest.mark.parametrize("L", [3, 5, 7, 9, 11, 13, 15])
def test_momentum_zero_ground_state_matches_even_sector_reference(L):
    for zq in DEFAULT_ZETA_GRID:
        z = float(zq)
        H, sec = _even_sector_matrix(build_hamiltonian(L, z))
        v0 = np.random.default_rng(L).standard_normal(len(sec))
        vals, vecs = eigsh(H, k=2, which="SA", v0=v0)
        order = np.argsort(vals)
        e0, e1 = vals[order]
        ref = vecs[:, order[0]]
        gs = ground_state_even_sector(L, z)
        assert abs(gs.energy - e0) <= 1e-12 * abs(e0)
        assert min(np.linalg.norm(gs.vector - ref), np.linalg.norm(gs.vector + ref)) < 1e-10
        # k = 0 is a subspace holding the ground state, so its gap is no smaller
        assert gs.gap >= (e1 - e0) / max(abs(e0), 1.0) - 1e-12
        triple, _, _ = measure_correlations(gs)
        assert np.abs(np.array(triple) - _reference_correlations(L, sec, ref)).max() < 1e-12


def test_ground_energy_L3_xxz():
    gs = ground_state_even_sector(3, 0.0)
    assert abs(gs.energy + 9.0 / 4.0) < 1e-10
    assert gs.residual < 1e-10 * 3.0


def test_ground_energy_L5():
    z = 0.4
    gs = ground_state_even_sector(5, z)
    assert abs(gs.energy - (-5 * (z * z + 3) / 4)) < 1e-10
    assert gs.gap > 1e-8


def test_full_ground_space_doubly_degenerate():
    for L, z in ((3, 0.3), (5, -0.6)):
        H = _full_matrix(build_hamiltonian(L, z))
        vals = np.linalg.eigvalsh(H)
        assert vals[1] - vals[0] < 1e-10
        assert vals[2] - vals[1] > 1e-6


def test_ising_like_limit_ground_vector():
    # J = (0, 0, 1/2): the even-sector ground state is all spins up
    gs = _ground_from_couplings(3, 0.0, 0.0, 0.5)
    psi = np.zeros(2**3)
    psi[gs.sector] = gs.vector
    k = int(np.argmax(np.abs(psi)))
    assert k == 0  # all-up state is index 0
    assert abs(abs(psi[0]) - 1.0) < 1e-12
    assert abs(gs.energy + 3.0 / 4.0) < 1e-12


def _ground_from_couplings(L, Jx, Jy, Jz):
    from susyxyz.edoracle import _ground_state

    return _ground_state(build_from_couplings(L, Jx, Jy, Jz))


def test_correlations_L3_xxz():
    gs = ground_state_even_sector(3, 0.0)
    (cx, cy, cz), per_bond, spread = measure_correlations(gs)
    assert abs(cx - 2.0 / 3.0) < 1e-8
    assert abs(cy - 2.0 / 3.0) < 1e-8
    assert abs(cz + 1.0 / 3.0) < 1e-8
    assert spread < 1e-9
    assert len(per_bond["x"]) == 3


def test_sum_rule_at_half():
    z = 0.5
    gs = ground_state_even_sector(5, z)
    (cx, cy, cz), _, _ = measure_correlations(gs)
    lhs = (1 + z) * cx + (1 - z) * cy + (z * z - 1) / 2 * cz
    assert abs(lhs - (z * z + 3) / 2) < 1e-9


def test_infer_f_L3_is_one():
    res = infer_f(3, 0.0)
    for key in ("f_x", "f_y", "f_z"):
        assert abs(res[key] - 1.0) < 1e-9


def test_infer_f_matches_exact_f2():
    from susyxyz.corrfn import f_zeta

    zq = Fraction(1, 3)
    res = infer_f(5, float(zq))
    exact = float(f_zeta(2).evaluate(zq))
    assert abs(res["f_z"] - exact) < 1e-9
    assert abs(res["f_x"] - res["f_z"]) < 1e-7
    assert abs(res["f_y"] - res["f_z"]) < 1e-7


def test_infer_f_rejects_near_singular():
    with pytest.raises(NearSingularInversion):
        infer_f(3, 0.9995)


def test_boltzmann_weights_symmetric_point():
    # at u = eta: b = 0 and a = c
    a, b, c, d = boltzmann_weights(np.pi / 3, np.pi / 3, 1j)
    assert abs(b) < 1e-14
    assert abs(a - c) < 1e-13


def test_transfer_matrix_transpose_is_site_reversal():
    L = 5
    T = _transfer_matrix(L, 0.7, np.pi / 3, 1j)
    rev = np.array(
        [sum(((b >> j) & 1) << (L - 1 - j) for j in range(L)) for b in range(2**L)]
    )
    assert np.allclose(T.T, T[np.ix_(rev, rev)])


@pytest.mark.parametrize("tau", [0.5j, 1j])
def test_transfer_family(tau):
    rep = transfer_checks(3, tau)
    assert rep["commutator_residual"] < 1e-9
    assert rep["quasi_periodicity_residual"] < 1e-10
    assert rep["max_eigenvalue_residual"] < 1e-8


def test_transfer_eigenvalue_L5():
    rep = transfer_checks(5, 1j)
    assert rep["max_eigenvalue_residual"] < 1e-8


def test_lanczos_path_L13():
    gs = ground_state_even_sector(13, 0.4)
    expected = -13 * (0.4**2 + 3) / 4
    assert abs(gs.energy - expected) / abs(expected) < 1e-10
    assert gs.residual < 1e-10 * 13
    assert gs.gap > 1e-8


def test_lanczos_path_L15_matches_exact_f7():
    from susyxyz.corrfn import f_zeta

    zq = Fraction(2, 5)
    z = float(zq)
    res = infer_f(15, z)
    expected = -15 * (z * z + 3) / 4
    assert abs(res["energy"] - expected) / abs(expected) < 1e-10
    assert abs(res["f_z"] - float(f_zeta(7).evaluate(zq))) < 1e-7
    assert res["spread"] < 1e-9
    assert res["gap"] > 1e-8


def test_momentum_zero_path_L21_matches_exact_f10():
    rep = ed_verify(Ls=(21,), zetas=(Fraction(2, 5),))
    (sample,) = rep["samples"]
    assert rep["ok"] is True
    assert sample["dim"] == 49940
    assert sample["energy_residual"] < 1e-10
    assert sample["f_agreement"] < 1e-7
    assert sample["per_bond_spread"] < 1e-9
    assert sample["gap"] > 1e-8 and sample["residual"] < 1e-10 * 21


def test_ground_state_is_deterministic():
    first = ground_state_even_sector(9, 0.4)
    # an unrelated ARPACK call without a start vector advances ARPACK's own
    # generator; the seeded start vector must make that irrelevant
    eigsh(build_hamiltonian(7, -0.3).sector_matrix(sparse=True), k=2, which="SA")
    second = ground_state_even_sector(9, 0.4)
    assert first.energy == second.energy
    assert np.array_equal(first.vector, second.vector)


def test_arpack_ground_state_is_deterministic():
    # L = 15 is above DENSE_DIM_MAX, so the seeded start vector is in play
    first = ground_state_even_sector(15, 0.4)
    eigsh(build_hamiltonian(7, -0.3).sector_matrix(sparse=True), k=2, which="SA")
    second = ground_state_even_sector(15, 0.4)
    assert first.energy == second.energy
    assert np.array_equal(first.vector, second.vector)


def test_only_the_arpack_branch_imports_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(susyxyz.__file__)))
    script = (
        "import sys\n"
        "from susyxyz.edoracle import ground_state_even_sector, transfer_checks\n"
        "ground_state_even_sector(13, 0.4)\n"
        "transfer_checks(13, 0.5j)\n"
        "print('scipy' in sys.modules, 'numpy.random' in sys.modules)\n"
        "ground_state_even_sector(15, 0.4)\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False", "True"]


@pytest.mark.parametrize("L", [3, 5, 7, 9, 11, 13])
def test_dense_eigenpair_matches_eigh(L):
    # eigvalsh and inverse iteration against the full eigenbasis of eigh
    for zq in DEFAULT_ZETA_GRID:
        op = build_hamiltonian(L, float(zq))
        orbit, _, lengths = _orbits(L, op.sector_indices())
        H = op.sector_matrix(sparse=False)
        assert len(H) <= DENSE_DIM_MAX
        vals, vecs = np.linalg.eigh(H)
        e0, e1 = vals[:2]
        ref = (vecs[:, 0] / np.sqrt(lengths))[orbit]
        gs = ground_state_even_sector(L, float(zq))
        scale = max(abs(e0), 1.0)
        assert abs(gs.energy - e0) <= 1e-12 * abs(e0)
        assert abs(gs.gap - (e1 - e0) / scale) <= 1e-10
        assert abs(np.dot(gs.vector, ref)) >= 1 - 1e-12
        c = np.bincount(orbit, weights=gs.vector) / np.sqrt(lengths)
        assert np.linalg.norm(H @ c - e0 * c) <= 1e-13 * scale
        assert gs.residual <= 1e-13 * scale


@pytest.mark.parametrize("L", [13, 15])
def test_dense_and_arpack_branches_agree_across_the_crossover(L):
    # each side of DENSE_DIM_MAX against the other branch's solver
    for zq in (Fraction(-3, 2), Fraction(2, 5), Fraction(5, 2)):
        z = float(zq)
        op = build_hamiltonian(L, z)
        orbit, _, lengths = _orbits(L, op.sector_indices())
        if L == 13:
            assert len(lengths) <= DENSE_DIM_MAX
            v0 = np.random.default_rng(L).standard_normal(len(lengths))
            vals, vecs = eigsh(op.sector_matrix(sparse=True), k=2, which="SA", v0=v0)
        else:
            assert len(lengths) > DENSE_DIM_MAX
            vals, vecs = np.linalg.eigh(op.sector_matrix(sparse=False))
        order = np.argsort(vals)
        e0, e1 = vals[order[0]], vals[order[1]]
        ref = (vecs[:, order[0]] / np.sqrt(lengths))[orbit]
        gs = ground_state_even_sector(L, z)
        assert abs(gs.energy - e0) <= 1e-12 * abs(e0)
        assert abs(gs.gap - (e1 - e0) / max(abs(e0), 1.0)) <= 1e-10
        assert abs(np.dot(gs.vector, ref)) >= 1 - 1e-12


def _mirror_positions(L, sec):
    # reference: the sector position of each state with its L bits reversed
    rev = np.array([int(format(int(s), f"0{L}b")[::-1], 2) for s in sec])
    return np.searchsorted(sec, rev)


@pytest.mark.parametrize("L", [3, 5, 7, 9, 11, 13])
def test_parity_blocks_split_the_momentum_zero_spectrum(L):
    # the two blocks' spectra together are the k = 0 spectrum, and the
    # ground state is reflection-even on the whole grid
    plan = _sector_plan(L)
    for zq in DEFAULT_ZETA_GRID:
        op = build_hamiltonian(L, float(zq))
        ref = np.linalg.eigvalsh(op.sector_matrix(sparse=False))
        even, odd = _parity_blocks(plan, op.couplings)
        assert (even.parity, odd.parity) == ("even", "odd")
        spectra = [np.linalg.eigvalsh(_dense(b.cols, b.vals)) for b in (even, odd)]
        got = np.sort(np.concatenate(spectra))
        assert len(got) == len(ref) == _k0_dim(L)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert spectra[0][0] == got[0]


def test_block_dimensions_are_reported():
    gs = ground_state_even_sector(13, 0.4)
    assert (gs.dim, gs.even_dim, gs.odd_dim, gs.ground_block) == (316, 190, 126, "even")
    (sample,) = ed_verify(Ls=(11,), zetas=(Fraction(2, 5),))["samples"]
    assert [sample[k] for k in ("dim", "even_dim", "odd_dim", "ground_block")] == [
        94, 63, 31, "even"]


def test_row_builds_do_not_depend_on_the_chunk_size(monkeypatch):
    # every row-wise build is elementwise per row, so slicing changes no bit
    import susyxyz.edoracle as edoracle

    L = 11
    plan = _sector_plan(L)
    couplings = build_hamiltonian(L, 0.4).couplings
    c = _start_vector(L, _k0_dim(L))
    whole = _parity_blocks(plan, couplings), edoracle._residual(plan, couplings, c, -3.0)
    monkeypatch.setattr(edoracle, "ROW_CHUNK", 7)
    blocks, residual = _parity_blocks(plan, couplings), edoracle._residual(plan, couplings, c, -3.0)
    assert residual == whole[1]
    for got, want in zip(blocks, whole[0]):
        assert np.array_equal(got.cols, want.cols) and np.array_equal(got.vals, want.vals)


def test_sector_plan_is_cached_only_up_to_the_dense_bound():
    for L in (3, 13, 15):
        plan = _sector_plan(L)
        assert len(plan.reps) == _k0_dim(L)
        assert not any(a.flags.writeable for a in (plan.sec, plan.orbit, plan.cols, plan.mirror))
        assert (_sector_plan(L) is plan) == (_k0_dim(L) <= DENSE_DIM_MAX)
    # the mirror map is an involution that keeps the orbit length
    plan = _sector_plan(11)
    assert np.array_equal(plan.mirror[plan.mirror], np.arange(len(plan.mirror)))
    assert np.array_equal(plan.lengths[plan.mirror], plan.lengths)


def _with_levels(monkeypatch, change):
    # every block solve goes through _lowest, so this changes what the
    # ground-state selection sees, block by block
    import susyxyz.edoracle as edoracle

    real = edoracle._lowest

    def patched(block, L, k):
        levels, x = real(block, L, k)
        return change(block.parity, levels), x

    monkeypatch.setattr(edoracle, "_lowest", patched)


@pytest.mark.parametrize("L", [11, 17])  # the odd block dense, and on ARPACK
def test_odd_block_below_the_even_one_holds_the_ground_state(monkeypatch, L):
    z = 0.4
    op = build_hamiltonian(L, z)
    even, odd = _parity_blocks(_sector_plan(L), op.couplings)
    odd_levels = np.linalg.eigvalsh(_dense(odd.cols, odd.vals))[:2]
    e_even = -L * (z * z + 3) / 4
    # lift the even levels above the odd block's lowest
    lift = odd_levels[0] - e_even + 1.0
    _with_levels(monkeypatch, lambda parity, levels: levels + lift if parity == "even" else levels)
    gs = ground_state_even_sector(L, z)
    assert gs.ground_block == "odd"
    assert abs(gs.energy - odd_levels[0]) <= 1e-12 * abs(odd_levels[0])
    scale = abs(odd_levels[0])
    expected_gap = (min(odd_levels[1], e_even + lift) - odd_levels[0]) / scale
    assert abs(gs.gap - expected_gap) <= 1e-10
    assert gs.residual <= 1e-12 * scale
    # the vector is reflection-odd on the even sector
    pos = _mirror_positions(L, gs.sector)
    assert np.abs(gs.vector[pos] + gs.vector).max() < 1e-12


@pytest.mark.parametrize("L", [11, 17])
def test_odd_block_level_with_the_even_ground_is_degenerate(monkeypatch, L):
    e0 = ground_state_even_sector(L, 0.4).energy

    def level_with_even(parity, levels):
        if parity == "odd":
            levels = levels.copy()
            levels[0] = e0
        return levels

    _with_levels(monkeypatch, level_with_even)
    with pytest.raises(DegenerateSectorGround):
        ground_state_even_sector(L, 0.4)


def test_sector_ground_state_matches_full_space_reference():
    # dense diagonalization and full-space correlators as the reference
    L, z = 7, 0.37
    op = build_hamiltonian(L, z)
    sec = op.sector_indices()
    vals, vecs = np.linalg.eigh(_full_matrix(op)[np.ix_(sec, sec)])
    gs = ground_state_even_sector(L, z)
    assert abs(gs.energy - vals[0]) < 1e-12
    assert abs(gs.gap - (vals[1] - vals[0]) / abs(vals[0])) < 1e-12
    psi = np.zeros(2**L)
    psi[sec] = vecs[:, 0]
    idx = np.arange(2**L)
    s = 1.0 - 2.0 * ((idx[:, None] >> np.arange(L)) & 1)
    _, per_bond, _ = measure_correlations(gs)
    for j in range(L):
        k = (j + 1) % L
        flipped = psi[idx ^ ((1 << j) | (1 << k))]
        mu = np.where(s[:, j] == s[:, k], -1.0, 1.0)
        assert abs(per_bond["x"][j] - np.dot(psi, flipped)) < 1e-12
        assert abs(per_bond["y"][j] - np.dot(psi, flipped * mu)) < 1e-12
        assert abs(per_bond["z"][j] - np.dot(psi * psi, s[:, j] * s[:, k])) < 1e-12


def _kron_transfer_matrix(L, u, eta, tau):
    # reference: the auxiliary blocks as 2x2 chain matrices, grown by kron sums
    a, b, c, d = boltzmann_weights(u, eta, tau)
    site = {
        (0, 0): np.array([[a, 0], [0, b]], dtype=complex),
        (0, 1): np.array([[0, d], [c, 0]], dtype=complex),
        (1, 0): np.array([[0, c], [d, 0]], dtype=complex),
        (1, 1): np.array([[b, 0], [0, a]], dtype=complex),
    }
    G = dict(site)
    for _ in range(L - 1):
        G = {
            (al, ga): sum(np.kron(G[al, be], site[be, ga]) for be in (0, 1))
            for al in (0, 1)
            for ga in (0, 1)
        }
    return G[0, 0] + G[1, 1]


def _transfer_matrix(L, u, eta, tau):
    # reference: the dense T site by site from the one site tensor W; the
    # auxiliary blocks G[alpha, gamma] grow by one chain site per step, site 1
    # being the most significant bit, and the last site takes the trace
    W = _site_tensor(u, eta, tau)
    G = W
    for m in range(1, L - 1):
        G = np.einsum("abij,bckl->acikjl", G, W).reshape(2, 2, 2 ** (m + 1), 2 ** (m + 1))
    return np.einsum("abij,bakl->ikjl", G, W).reshape(2**L, 2**L)


TRANSFER_US = (0.31, 2.02, 0.52, 0.52 + np.pi)


@pytest.mark.parametrize("tau", [0.5j, 1j])
@pytest.mark.parametrize("L", [3, 5, 7, 9])
def test_transfer_matrix_matches_kron_reference(L, tau):
    for u in TRANSFER_US:
        ref = _kron_transfer_matrix(L, u, np.pi / 3, tau)
        T = _transfer_matrix(L, u, np.pi / 3, tau)
        assert np.linalg.norm(T - ref) <= 1e-15 * np.linalg.norm(ref)


@pytest.mark.parametrize("tau", [0.5j, 1j])
@pytest.mark.parametrize("L", [3, 5, 7, 9])
def test_transfer_apply_matches_kron_reference(L, tau):
    rng = np.random.default_rng(L)
    v = rng.standard_normal(2**L) + 1j * rng.standard_normal(2**L)
    for u in TRANSFER_US:
        expected = _kron_transfer_matrix(L, u, np.pi / 3, tau) @ v
        got = transfer_apply(L, u, np.pi / 3, tau, v)
        assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)


def _complex_apply_stack(Ws, vs):
    # reference: the whole stack contracted at once in complex arithmetic,
    # X[b, alpha0, s, rest, alpha] from delta(alpha0, alpha) v_b, one site per step
    vs = np.asarray(vs, dtype=complex)
    B, dim = vs.shape
    half = dim // 2
    Wm = np.transpose(np.asarray(Ws, dtype=complex), (0, 4, 1, 3, 2)).reshape(B, 2, 1, 2, 4)
    X = (np.eye(2)[:, None, :] * vs[:, None, :, None]).reshape(B, 2, 2, half, 2)
    for _ in range(dim.bit_length() - 1):
        X = (X[:, :, 0] @ Wm[:, 0] + X[:, :, 1] @ Wm[:, 1]).reshape(B, 2, 2, half, 2)
    X = X.reshape(B, 2, dim, 2)
    return X[:, 0, :, 0] + X[:, 1, :, 1]


@pytest.mark.parametrize("L", [3, 5, 7, 9, 11, 13])
def test_real_chunked_kernel_matches_complex_stack(L):
    rng = np.random.default_rng(L)
    for tau in (0.5j, 1j):
        for B in (1, 2, 5):
            Ws = np.stack([_site_tensor(u, np.pi / 3, tau) for u in TRANSFER_POINTS[:B]])
            v = rng.standard_normal((B, 2**L)) + 1j * rng.standard_normal((B, 2**L))
            for vs in (v, v.real.copy()):
                ref = _complex_apply_stack(Ws, vs)
                got = _apply_stack(Ws, vs)
                assert got.shape == ref.shape and got.dtype == complex
                assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)


@pytest.mark.parametrize("L", [11, 13])
def test_transfer_checks_do_not_depend_on_the_chunk_budget(monkeypatch, L):
    import susyxyz.edoracle as edoracle

    reports = []
    for budget in (1, 32 * 10 * 2**L):  # one row per chunk; the whole stack in one
        monkeypatch.setattr(edoracle, "TRANSFER_CHUNK_BYTES", budget)
        reports.append(transfer_checks(L, 0.5j))
    assert reports[0] == reports[1]


def test_transfer_kernel_rejects_complex_weights():
    v = np.ones(2**5)
    with pytest.raises(ComplexSiteTensor):
        transfer_apply(5, 0.77 + 0.1j, np.pi / 3, 1j, v)
    with pytest.raises(ComplexSiteTensor):
        transfer_apply(5, 0.77, np.pi / 3, complex(0.3, 1.0), v)
    assert issubclass(ComplexSiteTensor, ValueError)


def test_transfer_apply_beyond_dense_limit():
    v = np.random.default_rng(11).standard_normal(2**11)
    w = transfer_apply(11, 0.77, np.pi / 3, 1j, v)
    assert w.shape == (2**11,)
    assert np.all(np.isfinite(w))
    # the length check raises before the vector is read
    with pytest.raises(SizeLimit):
        transfer_apply(L_MAX + 2, 0.77, np.pi / 3, 1j, np.zeros(2))


def test_transfer_checks_rejects_length_before_solving(monkeypatch):
    import susyxyz.edoracle as edoracle

    def solve(*args):
        raise AssertionError("ground state solved before the length check")

    monkeypatch.setattr(edoracle, "ground_state_even_sector", solve)
    with pytest.raises(SizeLimit):
        transfer_checks(L_MAX_TRANSFER + 2, 1j)


def test_ed_verify_reports_transfer_size_skips():
    L = L_MAX_TRANSFER + 2
    rep = ed_verify(Ls=(L,), zetas=(Fraction(2, 5),), transfer=True)
    assert rep["ok"] is True
    assert [(t["L"], t["tau_im"], t["skipped"]) for t in rep["transfer"]] == [
        (L, 0.5, "SizeLimit"),
        (L, 1.0, "SizeLimit"),
    ]
    assert all(f"<= {L_MAX_TRANSFER}" in t["reason"] for t in rep["transfer"])


def test_ed_verify_without_a_checked_sample_is_not_ok():
    rep = ed_verify(Ls=(3,), zetas=(Fraction(1), Fraction(-1)))
    assert [s["skipped"] for s in rep["samples"]] == ["NearSingularInversion"] * 2
    assert rep["ok"] is False
    assert ed_verify(Ls=(3,), zetas=())["ok"] is False


def test_ed_verify_transfer_at_L11_is_checked():
    # the |lambda|-relative residual reads about 1.6e-8 at tau = 0.5i here,
    # above its L <= 9 bound; the ||T||-relative gate decides instead
    rep = ed_verify(Ls=(11,), zetas=(Fraction(2, 5),), transfer=True)
    assert rep["ok"] is True
    assert [(t["L"], t["tau_im"]) for t in rep["transfer"]] == [(11, 0.5), (11, 1.0)]
    assert not any("skipped" in t for t in rep["transfer"])
    assert all(t["ok"] and t["max_eigenvalue_residual_norm"] < 1e-12 for t in rep["transfer"])


@pytest.mark.parametrize("key", ["quasi_periodicity_residual", "max_eigenvalue_residual_norm"])
def test_ed_verify_gates_transfer_residuals(monkeypatch, key):
    import susyxyz.edoracle as edoracle

    real = edoracle.transfer_checks
    monkeypatch.setattr(edoracle, "TRANSFER_TAUS", (1j,))
    args = dict(Ls=(3,), zetas=(Fraction(2, 5),), transfer=True)
    rep = ed_verify(**args)
    assert rep["ok"] is True
    assert rep["transfer"][0][key] < 1e-12

    def broken(L, tau):
        return {**real(L, tau), key: 1e-3}

    monkeypatch.setattr(edoracle, "transfer_checks", broken)
    rep = ed_verify(**args)
    assert rep["transfer"][0]["ok"] is False
    assert rep["ok"] is False


@pytest.mark.parametrize("bound", [
    "ENERGY_TOL", "F_TOL", "SPREAD_TOL", "TRANSFER_LAMBDA_TOL", "TRANSFER_NORM_TOL",
    "TRANSFER_COMMUTATOR_TOL", "TRANSFER_QP_TOL",
])
def test_ed_verify_reads_each_bound(monkeypatch, bound):
    import susyxyz.edoracle as edoracle

    monkeypatch.setattr(edoracle, "TRANSFER_TAUS", (1j,))
    args = dict(Ls=(3,), zetas=(Fraction(2, 5),), transfer=True)
    assert ed_verify(**args)["ok"] is True
    # no residual is below 0, so the verdict turns if and only if it reads the bound
    monkeypatch.setattr(edoracle, bound, 0.0)
    assert ed_verify(**args)["ok"] is False


def test_transfer_checks_match_dense_reference():
    L, tau, eta = 5, 1j, np.pi / 3
    rep = transfer_checks(L, tau)
    v = _start_vector(L, 2 ** (L + 1)).view(complex)
    T1 = _transfer_matrix(L, 0.52, eta, tau)
    T2 = _transfer_matrix(L, 1.91, eta, tau)
    Tshift = _transfer_matrix(L, 0.52 + np.pi, eta, tau)
    a, b = T1 @ (T2 @ v), T2 @ (T1 @ v)
    comm = np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b))
    qp = np.linalg.norm(Tshift @ v - (-1) ** L * (T1 @ v)) / np.linalg.norm(T1 @ v)
    assert abs(rep["commutator_residual"] - comm) < 1e-15
    assert abs(rep["quasi_periodicity_residual"] - qp) < 1e-15
    # the power-iteration estimate of ||T(u)|| is a lower bound, and a close one
    ctx = ThetaContext(tau)
    amp = max(np.linalg.norm(_transfer_matrix(L, u, eta, tau), 2) / abs(theta(1, u, ctx) ** L)
              for u in (0.31, 0.77, 1.38, 2.02, 2.64))
    assert 0.5 * amp <= rep["max_amplification"] <= amp * (1 + 1e-12)


def test_transfer_checks_are_deterministic():
    first = transfer_checks(7, 1j)
    np.random.standard_normal(16)  # the unseeded global generator must not matter
    eigsh(build_hamiltonian(7, -0.3).sector_matrix(sparse=True), k=2, which="SA")
    assert transfer_checks(7, 1j) == first


def test_transfer_checks_on_the_arpack_branch_are_deterministic():
    first = transfer_checks(15, 1j)
    np.random.standard_normal(16)
    eigsh(build_hamiltonian(7, -0.3).sector_matrix(sparse=True), k=2, which="SA")
    assert transfer_checks(15, 1j) == first


def _patched_site_tensor(monkeypatch, change):
    import susyxyz.edoracle as edoracle

    real = edoracle._site_tensor
    monkeypatch.setattr(edoracle, "_site_tensor", lambda u, eta, tau: change(u, eta, tau, real))


def test_commutator_gate_catches_perturbed_site_tensor(monkeypatch):
    def perturb_at_u2(u, eta, tau, real):
        W = real(u, eta, tau)
        if u == 1.91:
            W = W + 1e-6 * np.random.default_rng(0).standard_normal(W.shape)
        return W

    _patched_site_tensor(monkeypatch, perturb_at_u2)
    rep = transfer_checks(5, 1j)
    assert rep["commutator_residual"] > 1e-9
    assert rep["quasi_periodicity_residual"] < 1e-12
    assert rep["max_eigenvalue_residual"] < 1e-8
    assert rep["max_eigenvalue_residual_norm"] < 1e-12


def test_quasi_periodicity_gate_catches_missing_sign(monkeypatch):
    # T(u1 + pi) built as T(u1): the same residual as a check without (-1)^L
    def drop_sign(u, eta, tau, real):
        return real(u - np.pi if u > np.pi else u, eta, tau)

    _patched_site_tensor(monkeypatch, drop_sign)
    rep = transfer_checks(5, 1j)
    assert rep["quasi_periodicity_residual"] > 1.0
    assert rep["commutator_residual"] < 1e-9


@pytest.mark.parametrize("L", [11, 13, 15])
def test_norm_gate_catches_wrong_eigenvalue(monkeypatch, L):
    import susyxyz.edoracle as edoracle

    # u = 0.31 at tau = 0.5i has the largest ||T||/|lambda| of the defaults,
    # 1.9e11 at L = 15, so a wrong lambda reads smallest there
    monkeypatch.setattr(edoracle, "TRANSFER_POINTS", (0.31,))
    rep = transfer_checks(L, 0.5j)
    assert rep["max_eigenvalue_residual_norm"] < 1e-12
    monkeypatch.setattr(edoracle, "_ground_eigenvalue",
                        lambda L, u, ctx: theta(1, u, ctx) ** (L - 1))
    assert transfer_checks(L, 0.5j)["max_eigenvalue_residual_norm"] > 1e-12


def test_repeated_transfer_checks_build_no_theta_context(monkeypatch):
    # every context comes from theta_context, so a second call reuses the
    # first call's objects and theta's memo compares them by identity
    transfer_checks(3, 0.5j)
    built = []
    real = ThetaContext.__post_init__

    def counting(self):
        built.append(self.tau)
        real(self)

    monkeypatch.setattr(ThetaContext, "__post_init__", counting)
    transfer_checks(3, 0.5j)
    assert built == []
