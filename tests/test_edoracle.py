"""Spin-chain oracle: energies, correlators, inferred f, transfer matrix."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from susyxyz.edoracle import (
    L_MAX,
    NearSingularInversion,
    SizeLimit,
    boltzmann_weights,
    build_from_couplings,
    build_hamiltonian,
    ed_verify,
    ground_state_even_sector,
    infer_f,
    measure_correlations,
    transfer_apply,
    transfer_checks,
    transfer_matrix,
)
from susyxyz.thetanum import ThetaContext, theta


def test_size_limits():
    with pytest.raises(SizeLimit):
        build_hamiltonian(4, 0.0)
    with pytest.raises(SizeLimit):
        build_hamiltonian(L_MAX + 2, 0.0)
    with pytest.raises(SizeLimit):
        transfer_matrix(11, 0.3, np.pi / 3, 1j)


def test_hamiltonian_basic_structure():
    op = build_hamiltonian(3, 0.0)
    H = op.full_matrix()
    assert H.shape == (8, 8)
    assert np.allclose(H, H.T)
    assert abs(np.trace(H)) < 1e-12
    # parameter degeneration zeta=1: only the XX term survives
    op1 = build_hamiltonian(5, 1.0)
    assert op1.couplings == (2.0, 0.0, 0.0)
    assert abs(np.trace(build_hamiltonian(5, 0.5).full_matrix())) < 1e-12


def test_commutes_with_spin_flip_and_translation():
    rng = np.random.default_rng(0)
    L = 5
    H = build_hamiltonian(L, 0.37).full_matrix()
    idx = np.arange(2**L)
    flip = 2**L - 1 - idx  # global spin flip reverses all bits
    # translation: site j -> j+1, i.e. bit rotate
    rot = ((idx << 1) & (2**L - 1)) | (idx >> (L - 1))
    for _ in range(4):
        v = rng.standard_normal(2**L)
        assert np.allclose((H @ v)[flip], H @ v[flip], atol=1e-10)
        assert np.allclose((H @ v)[rot], H @ v[rot], atol=1e-10)


def test_sector_matrix_consistent_with_full():
    op = build_hamiltonian(5, -0.8)
    H = op.full_matrix()
    sec = op.sector_indices()
    assert np.allclose(op.sector_matrix(sparse=False), H[np.ix_(sec, sec)])
    sp = op.sector_matrix(sparse=True)
    assert np.allclose(sp.toarray(), H[np.ix_(sec, sec)])


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
        H = build_hamiltonian(L, z).full_matrix()
        vals = np.linalg.eigvalsh(H)
        assert vals[1] - vals[0] < 1e-10
        assert vals[2] - vals[1] > 1e-6


def test_ising_like_limit_ground_vector():
    # J = (0, 0, 1/2): the even-sector ground state is all spins up
    gs = _ground_from_couplings(3, 0.0, 0.0, 0.5)
    psi = gs.full_vector()
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
    T = transfer_matrix(L, 0.7, np.pi / 3, 1j)
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


def test_ground_state_is_deterministic():
    first = ground_state_even_sector(9, 0.4)
    # an unrelated ARPACK call without a start vector advances ARPACK's own
    # generator; the seeded start vector must make that irrelevant
    eigsh(build_hamiltonian(7, -0.3).sector_matrix(sparse=True), k=2, which="SA")
    second = ground_state_even_sector(9, 0.4)
    assert first.energy == second.energy
    assert np.array_equal(first.vector, second.vector)


def test_sector_ground_state_matches_full_space_reference():
    # dense diagonalization and full-space correlators as the reference
    L, z = 7, 0.37
    op = build_hamiltonian(L, z)
    sec = op.sector_indices()
    vals, vecs = np.linalg.eigh(op.full_matrix()[np.ix_(sec, sec)])
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


TRANSFER_US = (0.31, 2.02, 0.52, 0.52 + np.pi)


@pytest.mark.parametrize("tau", [0.5j, 1j])
@pytest.mark.parametrize("L", [3, 5, 7, 9])
def test_transfer_matrix_matches_kron_reference(L, tau):
    for u in TRANSFER_US:
        ref = _kron_transfer_matrix(L, u, np.pi / 3, tau)
        T = transfer_matrix(L, u, np.pi / 3, tau)
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


def test_transfer_apply_beyond_dense_limit():
    v = np.random.default_rng(11).standard_normal(2**11)
    w = transfer_apply(11, 0.77, np.pi / 3, 1j, v)
    assert w.shape == (2**11,)
    assert np.all(np.isfinite(w))
    with pytest.raises(SizeLimit):
        transfer_apply(L_MAX + 2, 0.77, np.pi / 3, 1j, np.zeros(2 ** (L_MAX + 2)))


def test_transfer_checks_rejects_length_before_solving(monkeypatch):
    import susyxyz.edoracle as edoracle

    def solve(*args):
        raise AssertionError("ground state solved before the length check")

    monkeypatch.setattr(edoracle, "ground_state_even_sector", solve)
    with pytest.raises(SizeLimit):
        transfer_checks(11, 1j)


def test_ed_verify_reports_transfer_size_skips():
    rep = ed_verify(Ls=(11,), zetas=(Fraction(2, 5),), transfer=True)
    assert rep["ok"] is True
    assert [(t["L"], t["tau_im"], t["skipped"]) for t in rep["transfer"]] == [
        (11, 0.5, "SizeLimit"),
        (11, 1.0, "SizeLimit"),
    ]
    assert all("<= 9" in t["reason"] for t in rep["transfer"])


def test_ed_verify_gates_quasi_periodicity(monkeypatch):
    import susyxyz.edoracle as edoracle

    real = edoracle.transfer_checks
    args = dict(Ls=(3,), zetas=(Fraction(2, 5),), transfer=True, transfer_taus=(1j,))
    rep = ed_verify(**args)
    assert rep["ok"] is True
    assert rep["transfer"][0]["quasi_periodicity_residual"] < 1e-12

    def broken(L, tau):
        return {**real(L, tau), "quasi_periodicity_residual": 1e-3}

    monkeypatch.setattr(edoracle, "transfer_checks", broken)
    rep = ed_verify(**args)
    assert rep["transfer"][0]["ok"] is False
    assert rep["ok"] is False
