"""Hamiltonians, sector-native states and propagation, and sigma-z observables."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from magnonchain import dynamics, ionchain, magnon
from magnonchain.dynamics import QuenchSpec, StateVector, Trajectory

from conftest import SZ, full_space, ising_oracle, op_on_site, random_coupling, xy_oracle

J0 = 2 * np.pi * 30.0


def _coupling(values):
    return ionchain.CouplingMatrix(values=values)


def _assembled(H, basis, *sector):
    """The CSR matrix of the arrays ``dynamics._assemble(H, basis, *sector)``."""
    data, indices, indptr = dynamics._assemble(H, basis, *sector)
    return sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1,) * 2)


# ---------------------------------------------------------------------------
# Hamiltonian assembly against the kron oracle


def test_ising_matrix_matches_kron_oracle():
    n = 5
    J = random_coupling(n, seed=11)
    H = dynamics.build_hamiltonian(_coupling(J), transverse_field=137.0, model="ising")
    np.testing.assert_allclose(H._matrix.toarray(), ising_oracle(J, 137.0, n), atol=1e-10)


def test_xy_matrix_matches_kron_oracle():
    n = 5
    J = random_coupling(n, seed=12)
    H = dynamics.build_hamiltonian(_coupling(J), model="xy")
    np.testing.assert_allclose(H._matrix.toarray(), xy_oracle(J, n), atol=1e-10)


def test_xy_ignores_transverse_field():
    J = ionchain.nearest_neighbour_coupling(3, J0)
    a = dynamics.build_hamiltonian(J, transverse_field=999.0, model="xy")
    b = dynamics.build_hamiltonian(J, transverse_field=0.0, model="xy")
    np.testing.assert_array_equal(a._matrix.toarray(), b._matrix.toarray())


def test_unknown_model_rejected():
    J = ionchain.nearest_neighbour_coupling(3, J0)
    with pytest.raises(ValueError, match="model"):
        dynamics.build_hamiltonian(J, model="heisenberg")


def test_site_limit_guard(monkeypatch):
    # the guard counts the states a quench reaches, not the sites
    spec = QuenchSpec(kind="global")
    monkeypatch.setattr(dynamics, "MAX_STATES", 16)
    with pytest.raises(ValueError, match="limit"):
        dynamics.prepare_state(spec, 5)
    monkeypatch.setattr(dynamics, "MAX_STATES", 32)
    assert dynamics.prepare_state(spec, 5).basis.size == 32


# ---------------------------------------------------------------------------
# state preparation


def test_local_quench_sets_the_right_basis_state():
    state = dynamics.prepare_state(QuenchSpec(kind="local", flipped_sites=(1, 3)), 4)
    # site 1 -> bit 0, site 3 -> bit 2 -> index 0b101 = 5
    expected = np.zeros(16)
    expected[5] = 1.0
    np.testing.assert_array_equal(full_space(state), expected)


def test_global_quench_is_uniform_superposition():
    state = dynamics.prepare_state(QuenchSpec(kind="global"), 3)
    np.testing.assert_allclose(state.amplitudes, np.full(8, 8 ** -0.5), atol=1e-15)


def _reached(state, model, field=1.0):
    """The trajectory at t = 0 of ``state`` under a nearest-neighbour H_``model``."""
    J = ionchain.nearest_neighbour_coupling(state.n_sites, J0)
    H = dynamics.build_hamiltonian(J, transverse_field=field, model=model)
    return dynamics.evolve(state, H, np.array([0.0]), method="krylov")


@pytest.mark.parametrize("n", [2, 5, 12])
def test_evolved_basis_is_the_block_the_quench_reaches(n):
    """A local quench is prepared on its one product state; the Hamiltonian
    decides the block: XY the sorted k-flip block, Ising the sorted parity
    half."""
    every = np.arange(2 ** n)
    counts = np.array([bin(b).count("1") for b in every])
    for flips in ((1,), (2, 1), tuple(range(1, n + 1))):
        k, index = len(flips), sum(1 << (s - 1) for s in flips)
        state = dynamics.prepare_state(QuenchSpec("local", flips), n)
        assert state.basis.tolist() == [index] and state.amplitudes.tolist() == [1.0]
        for model, expected in (("xy", every[counts == k]),
                                ("ising", every[counts % 2 == k % 2])):
            traj = _reached(state, model)
            assert traj.basis.dtype == np.int64
            np.testing.assert_array_equal(traj.basis, expected)
            np.testing.assert_allclose(traj.states[0], expected == index, atol=1e-15)


def test_two_flips_of_40_sites_hold_780_states():
    traj = _reached(dynamics.prepare_state(QuenchSpec("local", (10, 20)), 40), "xy")
    assert traj.basis.size == 780 and np.all(np.diff(traj.basis) > 0)
    assert {bin(b).count("1") for b in traj.basis.tolist()} == {2}
    assert traj.basis[traj.states[0] != 0].tolist() == [(1 << 9) | (1 << 19)]


def test_state_limit_names_the_chain_the_states_and_the_limit(monkeypatch):
    message = "N=17 reaches 131072 basis states, above the limit of 65536 states"
    with pytest.raises(ValueError) as err:
        dynamics.prepare_state(QuenchSpec(kind="global"), 17)
    assert str(err.value) == message
    # the parity half of 18 sites is above the limit, and is refused
    # before it is enumerated
    with pytest.raises(ValueError, match="N=18 reaches 131072 basis states"):
        _reached(dynamics.prepare_state(QuenchSpec("local", (9,)), 18), "ising")
    H = dynamics.build_hamiltonian(ionchain.power_law_coupling(17, 1.3, J0), model="xy")
    with pytest.raises(ValueError) as err:
        H._matrix
    assert str(err.value) == message
    # a parity half exactly at the limit is accepted
    monkeypatch.setattr(dynamics, "MAX_STATES", 256)
    assert _reached(dynamics.prepare_state(QuenchSpec("local", (4,)), 9), "ising").basis.size == 256
    with pytest.raises(ValueError, match="N=10 reaches 512 basis states, above the limit of 256"):
        _reached(dynamics.prepare_state(QuenchSpec("local", (4,)), 10), "ising")
    monkeypatch.undo()
    # basis states are int64 bit strings: 63 sites fit, 64 do not
    top = _reached(dynamics.prepare_state(QuenchSpec("local", (1, 63)), 63), "xy").basis[-1]
    assert top == (1 << 62) | (1 << 61)
    for make in (lambda: dynamics.prepare_state(QuenchSpec("local", (1,)), 64),
                 lambda: StateVector(amplitudes=[1.0], n_sites=64, basis=[1])):
        with pytest.raises(ValueError, match="N=64 is above the 63 sites"):
            make()


def test_trajectory_keeps_a_read_only_view_without_copying():
    states = np.zeros((2, 4), dtype=complex)
    states[:, 0] = 1.0
    basis = np.array([0, 3, 5, 6])
    traj = Trajectory(times=np.array([0.0, 1.0]), states=states, n_sites=3, basis=basis)
    assert np.shares_memory(traj.states, states) and not traj.states.flags.writeable
    assert states.flags.writeable and basis.flags.writeable
    np.testing.assert_array_equal(traj.state(1).basis, basis)
    for bad in ([0, 5, 3, 6], [0, 3, 3, 6], [-1, 3, 5, 6], [0, 3, 5, 8]):
        with pytest.raises(ValueError, match="basis"):
            Trajectory(times=np.array([0.0, 1.0]), states=states, n_sites=3, basis=bad)
    with pytest.raises(ValueError, match="amplitudes"):
        StateVector(amplitudes=[1.0, 0.0], n_sites=3, basis=[1, 2, 4])
    # a row of the trajectory is shared with its basis; a writable input
    # to StateVector is copied, so later writes to it leave the state alone
    row = traj.state(1)
    assert np.shares_memory(row.amplitudes, traj.states) and row.basis is traj.basis
    amps, own = np.array([0.0, 1.0, 0.0], dtype=complex), np.array([0, 1, 2])
    state = StateVector(amplitudes=amps, n_sites=2, basis=own)
    amps[1], own[2] = 5.0, 1
    assert state.amplitudes.tolist() == [0.0, 1.0, 0.0] and state.basis.tolist() == [0, 1, 2]


def test_quench_spec_validation():
    with pytest.raises(ValueError):
        QuenchSpec(kind="local")                        # no sites
    with pytest.raises(ValueError):
        QuenchSpec(kind="local", flipped_sites=(2, 2))  # duplicate
    with pytest.raises(ValueError):
        QuenchSpec(kind="global", flipped_sites=(1,))
    with pytest.raises(ValueError):
        QuenchSpec(kind="sudden")


def test_local_quench_site_out_of_range():
    with pytest.raises(ValueError):
        dynamics.prepare_state(QuenchSpec(kind="local", flipped_sites=(9,)), 4)


# ---------------------------------------------------------------------------
# propagation


def test_dense_evolution_matches_direct_expm():
    n = 4
    J = random_coupling(n, seed=21, scale=50.0)
    H = dynamics.build_hamiltonian(_coupling(J), transverse_field=40.0, model="ising")
    psi0 = dynamics.prepare_state(QuenchSpec(kind="global"), n)
    t = 0.013
    traj = dynamics.evolve(psi0, H, np.array([t]), method="dense")
    # oracle: diagonalize the kron-built matrix directly
    w, v = np.linalg.eigh(ising_oracle(J, 40.0, n))
    expected = v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0.amplitudes))
    np.testing.assert_allclose(traj.states[0], expected, atol=1e-10)


def test_krylov_agrees_with_dense():
    n = 5
    J = random_coupling(n, seed=22, scale=80.0)
    H = dynamics.build_hamiltonian(_coupling(J), model="xy")
    psi0 = dynamics.prepare_state(QuenchSpec(kind="local", flipped_sites=(1, 4)), n)
    times = np.linspace(0.0, 0.02, 9)
    dense = dynamics.evolve(psi0, H, times, method="dense")
    krylov = dynamics.evolve(psi0, H, times, method="krylov")
    np.testing.assert_allclose(krylov.states, dense.states, atol=1e-8)


def test_krylov_large_chain_against_magnon_oracle():
    """Check the Krylov path on a 13-site chain against the independent
    single-excitation spectral evolution."""
    n = 13
    J = ionchain.nearest_neighbour_coupling(n, J0)
    H = dynamics.build_hamiltonian(J, model="xy")
    psi0 = dynamics.prepare_state(QuenchSpec(kind="local", flipped_sites=(7,)), n)
    times = np.linspace(0.0, 0.01, 6)
    traj = dynamics.evolve(psi0, H, times, method="krylov")
    mag_full = np.vstack([dynamics.magnetisation(traj.state(k)) for k in range(len(traj))])
    mag_ref = np.vstack([magnon.magnetisation_single(s)
                         for s in magnon.evolve_single_excitation(J, 7, times)])
    np.testing.assert_allclose(mag_full, mag_ref, atol=1e-8)


def test_evolution_preserves_norm_and_energy():
    n = 5
    J = random_coupling(n, seed=23, scale=60.0)
    H = dynamics.build_hamiltonian(_coupling(J), transverse_field=25.0, model="ising")
    psi0 = dynamics.prepare_state(QuenchSpec(kind="global"), n)
    traj = dynamics.evolve(psi0, H, np.linspace(0, 0.05, 11))
    e0 = np.vdot(psi0.amplitudes, H._matrix @ psi0.amplitudes).real
    for k in range(len(traj)):
        psi = traj.states[k]
        assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-10)
        assert np.vdot(psi, H._matrix @ psi).real == pytest.approx(
            e0, abs=1e-7 * max(1.0, abs(e0)))


# ---------------------------------------------------------------------------
# block propagation against the full 2^N space

#: (model, quench, field in units of max|J|) covered at every N.
BLOCK_CASES = [("xy", (1,), 0.0), ("xy", (1, 3), 0.0), ("xy", (1, 2, 4), 0.0),
               ("xy", None, 0.0), ("ising", (2,), 0.0), ("ising", None, 0.0),
               ("ising", (2,), 50.0), ("ising", None, 50.0)]


def _full_space_oracle(H, psi, times):
    """exp(-i H t) psi in the whole 2^N space, blind to conservation laws:
    eigh of the full matrix up to N = 10, scipy's expm_multiply on the full
    sparse matrix above (a 4096^2 eigh alone takes about 10 s on a 2-core VM)."""
    if H.n_sites <= 10:
        w, v = np.linalg.eigh(H._matrix.toarray())
        return (v @ (np.exp(-1j * np.outer(w, times)) * (v.conj().T @ psi)[:, None])).T
    return expm_multiply(-1j * H._matrix, psi, start=times[0], stop=times[-1],
                         num=times.size, endpoint=True)


@pytest.mark.parametrize("n", range(4, 13))
@pytest.mark.parametrize("model,flips,field", BLOCK_CASES)
def test_block_propagation_matches_full_space(n, model, flips, field):
    J = _coupling(random_coupling(n, seed=100 + n, scale=50.0))
    B = field * np.abs(J.values).max()
    H = dynamics.build_hamiltonian(J, transverse_field=B, model=model)
    spec = QuenchSpec(kind="global") if flips is None else QuenchSpec("local", flips)
    psi0 = dynamics.prepare_state(spec, n)
    times = np.linspace(0.0, 1.0, 3) / (np.abs(J.values).max() + abs(B))
    expected = _full_space_oracle(H, full_space(psi0), times)

    counts = np.array([bin(b).count("1") for b in range(2 ** n)])
    labels = counts if model == "xy" else counts % 2
    outside = ~np.isin(labels, labels[full_space(psi0) != 0])
    # dense on the 2048-state Ising blocks of N = 12 runs the code already
    # checked at N <= 11 and would add seconds of eigh per case
    methods = ("krylov",) if model == "ising" and n == 12 else ("dense", "krylov")
    for method in methods:
        traj = dynamics.evolve(psi0, H, times, method=method, step_tol=1e-12)
        np.testing.assert_allclose(full_space(traj), expected, atol=1e-10, err_msg=method)
        assert np.all(full_space(traj)[:, outside] == 0.0)


def _full_csr_reference(J, field, model):
    """The whole 2^N CSR built state by state in the product basis, the
    way the package assembled it before blocks were built directly."""
    n = J.shape[0]
    basis = np.arange(2 ** n)
    rows, cols, vals = [basis], [basis], [np.zeros(basis.size)]
    if model == "ising":
        vals[0] = field * np.array([2 * bin(b).count("1") - n for b in basis], dtype=float)
    for i in range(n - 1):
        for j in range(i + 1, n):
            if J[i, j] == 0.0:
                continue
            src = basis[((basis >> i) ^ (basis >> j)) & 1 == 1] if model == "xy" else basis
            rows.append(src ^ ((1 << i) | (1 << j)))
            cols.append(src)
            vals.append(np.full(src.size, J[i, j]))
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(basis.size, basis.size)).tocsr()


@pytest.mark.parametrize("n", range(4, 13))
@pytest.mark.parametrize("model", ["xy", "ising"])
def test_direct_block_assembly_equals_sliced_full_matrix(n, model):
    J = random_coupling(n, seed=200 + n, scale=50.0)
    J[0, n - 1] = J[n - 1, 0] = 0.0                     # a skipped pair
    H = dynamics.build_hamiltonian(_coupling(J), transverse_field=37.0, model=model)
    full = _full_csr_reference(J, 37.0, model)
    assert (H._matrix != full).nnz == 0
    counts = np.array([bin(b).count("1") for b in range(2 ** n)])
    labels = counts if model == "xy" else counts % 2
    for label in np.unique(labels):
        basis = np.flatnonzero(labels == label)
        block = _assembled(H, basis)
        assert block.shape == (basis.size, basis.size)
        assert (block != full[basis][:, basis]).nnz == 0


def test_quench_path_never_assembles_the_full_matrix():
    J = ionchain.power_law_coupling(9, 1.2, J0)
    H = dynamics.build_hamiltonian(J, transverse_field=40.0, model="ising")
    dynamics.evolve(dynamics.prepare_state(QuenchSpec("local", (2,)), 9), H,
                    np.linspace(0.0, 1e-3, 3), method="krylov")
    assert H._arrays is None and H._csr is None
    assert H.dim == 2 ** 9 and H._matrix.shape == (2 ** 9, 2 ** 9)


#: (model, quench, field in units of max|J|) on mirror-symmetric couplings;
#: "centre" flips site (N+1)//2, which is the exact centre for odd N.
MIRROR_CASES = [("xy", "centre", 0.0), ("xy", (1,), 0.0), ("xy", (1, 3), 0.0),
                ("xy", None, 0.0), ("ising", "centre", 50.0), ("ising", (2,), 0.0),
                ("ising", (1, 2), 50.0), ("ising", None, 50.0)]


def _reverse(states, n):
    """Bit reversal over n bits, one state at a time."""
    return np.array([int(format(b, f"0{n}b")[::-1], 2) for b in states])


def _mirror_isometries(basis, n):
    """The + and - mirror sectors of a block closed under reflection, as
    sparse isometries into it built state by state from :func:`_reverse`:
    one column |b> per palindrome b (+ only) and (|b> +- |rev b>)/sqrt(2)
    per smaller state b of a reversed pair, in the order of b."""
    position = {b: k for k, b in enumerate(basis.tolist())}
    pairs = list(zip(basis.tolist(), _reverse(basis, n).tolist()))
    isometries = []
    for sign in (1.0, -1.0):
        columns = []
        for b, r in pairs:
            if b == r and sign > 0:
                columns.append({position[b]: 1.0})
            elif b < r:
                columns.append({position[b]: np.sqrt(0.5), position[r]: sign * np.sqrt(0.5)})
        U = sp.lil_matrix((basis.size, len(columns)))
        for m, column in enumerate(columns):
            for k, value in column.items():
                U[k, m] = value
        isometries.append(U.tocsr())
    return isometries


def _check_sectors(H, basis, mirrored):
    """The sectors ``evolve`` assembles for a block partition it, and each
    equals U^T H_block U to 1e-12 of its largest element: U from
    :func:`_mirror_isometries` if J is mirror symmetric, else the identity."""
    block = _assembled(H, basis)
    isometries = (_mirror_isometries(basis, H.n_sites) if mirrored
                  else [sp.identity(basis.size, format="csr")])
    sectors = dynamics._mirror_sectors(H, basis)
    assert len(sectors) == len(isometries)
    assert sum(rep.size for _, rep, _ in sectors) == basis.size
    for sector, U in zip(sectors, isometries):
        matrix = _assembled(H, basis, *sector).toarray()
        expected = (U.T @ block @ U).toarray()
        assert matrix.shape == expected.shape
        assert np.abs(matrix - expected).max(initial=0.0) <= \
            1e-12 * np.abs(expected).max(initial=0.0)
    return sectors


def _spec(n, flips):
    if flips is None:
        return QuenchSpec(kind="global")
    return QuenchSpec("local", ((n + 1) // 2,) if flips == "centre" else flips)


@pytest.mark.parametrize("n", range(4, 13))
@pytest.mark.parametrize("model,flips,field", MIRROR_CASES)
def test_mirror_sector_propagation_matches_full_space(n, model, flips, field):
    J = ionchain.power_law_coupling(n, 1.3, J0)
    assert np.array_equal(J.values, J.values[::-1, ::-1])
    B = field * np.abs(J.values).max()
    H = dynamics.build_hamiltonian(J, transverse_field=B, model=model)
    psi0 = dynamics.prepare_state(_spec(n, flips), n)
    times = np.linspace(0.0, 1.0, 3) / (np.abs(J.values).max() + abs(B))
    expected = _full_space_oracle(H, full_space(psi0), times)

    counts = np.array([bin(b).count("1") for b in range(2 ** n)])
    labels = counts if model == "xy" else counts % 2
    outside = ~np.isin(labels, labels[full_space(psi0) != 0])
    psi = full_space(psi0)
    basis = np.flatnonzero(labels == labels[np.flatnonzero(psi)[0]])
    _check_sectors(H, basis, mirrored=True)
    plus, minus = _mirror_isometries(basis, n)
    reflected = psi[basis][np.searchsorted(basis, _reverse(basis, n))]
    assert np.any(minus.T @ psi[basis]) == np.any(reflected != psi[basis])

    methods = ("krylov",) if model == "ising" and n == 12 else ("dense", "krylov")
    for method in methods:
        traj = dynamics.evolve(psi0, H, times, method=method, step_tol=1e-12)
        np.testing.assert_allclose(full_space(traj), expected, atol=1e-10, err_msg=method)
        assert np.all(full_space(traj)[:, outside] == 0.0)


@pytest.mark.parametrize("model,flips,field", [("xy", (2,), 0.0), ("ising", (1, 2), 50.0)])
def test_coupling_off_mirror_by_one_ulp_propagates_the_whole_block(model, flips, field):
    n = 7
    values = ionchain.power_law_coupling(n, 1.1, J0).values.copy()
    values[0, 1] = values[1, 0] = np.nextafter(values[0, 1], np.inf)
    J = _coupling(values)
    B = field * np.abs(values).max()
    H = dynamics.build_hamiltonian(J, transverse_field=B, model=model)
    psi0 = dynamics.prepare_state(QuenchSpec("local", flips), n)
    every = np.arange(2 ** n)
    (sector,) = _check_sectors(H, every, mirrored=False)
    assert (_assembled(H, every, *sector) != _assembled(H, every)).nnz == 0
    times = np.linspace(0.0, 1.0, 3) / (np.abs(values).max() + B)
    expected = _full_space_oracle(H, full_space(psi0), times)
    for method in ("dense", "krylov"):
        traj = dynamics.evolve(psi0, H, times, method=method, step_tol=1e-12)
        np.testing.assert_allclose(full_space(traj), expected, atol=1e-10, err_msg=method)


def test_reflected_but_asymmetric_couplings_propagate_the_whole_block():
    """J equal to its reflection J[::-1, ::-1] but not exactly symmetric: H
    reads J_ij for i < j only, and J_12 != J_{N-1,N} there, so H does not
    commute with the reflection and the block is not split."""
    n = 7
    values = ionchain.power_law_coupling(n, 1.1, J0).values.copy()
    values[0, 1] = values[n - 1, n - 2] = np.nextafter(values[0, 1], np.inf)
    J = _coupling(values)
    assert np.array_equal(values, values[::-1, ::-1]) and values[0, 1] != values[1, 0]
    H = dynamics.build_hamiltonian(J, transverse_field=50.0 * np.abs(values).max(),
                                   model="ising")
    (sector,) = _check_sectors(H, dynamics._block_basis(H, 1), mirrored=False)
    psi0 = dynamics.prepare_state(QuenchSpec("local", (2,)), n)
    times = np.linspace(0.0, 1.0, 3) / (51.0 * np.abs(values).max())
    traj = dynamics.evolve(psi0, H, times, method="krylov", step_tol=1e-12)
    np.testing.assert_allclose(full_space(traj), _full_space_oracle(H, full_space(psi0), times),
                               atol=1e-10)


@pytest.mark.parametrize("n", range(4, 13))
@pytest.mark.parametrize("model", ["xy", "ising"])
def test_every_mirror_sector_is_the_projected_block(n, model):
    """Every conserved block, with the Ising field on: the sectors equal
    U^T H_block U, and the + sector holds one state more than the - sector
    per palindrome of the block, which has no antisymmetric partner."""
    J = ionchain.power_law_coupling(n, 1.3, J0)
    H = dynamics.build_hamiltonian(J, transverse_field=50.0 * np.abs(J.values).max(),
                                   model=model)
    every = np.arange(2 ** n)
    counts = np.array([bin(b).count("1") for b in every])
    labels = counts if model == "xy" else counts % 2
    palindromes = every == _reverse(every, n)
    for label in np.unique(labels):
        basis = every[labels == label]
        (_, plus, _), (_, minus, _) = _check_sectors(H, basis, mirrored=True)
        assert plus.size - minus.size == np.count_nonzero(palindromes[basis])


def _eigh_input(H):
    """The dense array that ``H.eigensystem()`` hands to ``np.linalg.eigh``."""
    seen = []
    with mock.patch.object(np.linalg, "eigh", lambda a: seen.append(a) or (None, None)):
        H.eigensystem()
    (dense,) = seen
    return dense


@pytest.mark.parametrize("n", range(3, 13))
@pytest.mark.parametrize("model", ["xy", "ising"])
@pytest.mark.parametrize("field", [0.0, 50.0])
def test_dense_sector_from_triplets_equals_the_csr_bitwise(n, model, field):
    """Every mirror sector of every conserved block: the dense matrix the
    eigendecomposition fills from the assembled CSR arrays (COO triplets
    when this test was named) is, bit for bit, the scipy CSR matrix of the
    same arrays (field in units of max|J|)."""
    J = ionchain.power_law_coupling(n, 1.3, J0)
    H = dynamics.build_hamiltonian(J, transverse_field=field * np.abs(J.values).max(),
                                   model=model)
    counts = np.array([bin(b).count("1") for b in range(2 ** n)])
    labels = counts if model == "xy" else counts % 2
    for label in np.unique(labels):
        basis = np.flatnonzero(labels == label)
        for sector in dynamics._mirror_sectors(H, basis):
            block = dynamics.Hamiltonian(dynamics._assemble(H, basis, *sector), n, model,
                                         H.transverse_field, J)
            dense = _eigh_input(block)
            assert dense.dtype == np.float64 and dense.shape == (block.dim, block.dim)
            np.testing.assert_array_equal(dense.view(np.int64),
                                          block._matrix.toarray().view(np.int64))


def _coo_oracle(H, basis, partner=None, rep=None, sign=1.0):
    """scipy's ``coo_matrix(...).tocsr()`` of H on a block or mirror sector
    (as :func:`dynamics._assemble` takes them), its elements listed term by
    term as the package listed them before it built CSR directly: for each
    coupling pair, in order, every representative as a source, its target
    found by binary search and put in the row of the target's
    representative; the field last."""
    n, J = H.n_sites, H.coupling.values
    every = np.arange(basis.size)
    if partner is None:
        partner = rep = every
    orbit = np.where(partner == every, 1.0, 2.0)
    row_of = np.full(basis.size, -1)
    row_of[rep] = np.arange(rep.size)
    states = basis[rep]
    rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0)]
    for i in range(n - 1):
        for j in range(i + 1, n):
            if J[i, j] == 0.0:
                continue
            src = np.arange(rep.size)
            if H.model == "xy":
                src = src[((states >> i) ^ (states >> j)) & 1 == 1]
            dst = np.searchsorted(basis, states[src] ^ ((1 << i) | (1 << j)))
            own = np.minimum(dst, partner[dst])
            kept = row_of[own] >= 0
            rows.append(row_of[own][kept])
            cols.append(src[kept])
            vals.append((J[i, j] * np.where(own == dst, 1.0, sign)
                         * np.sqrt(orbit[rep[src]] / orbit[own]))[kept])
    if H.model == "ising" and H.transverse_field != 0.0:
        rows.append(np.arange(rep.size))
        cols.append(rows[-1])
        vals.append(H.transverse_field
                    * np.array([2 * bin(b).count("1") - n for b in states], dtype=float))
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(rep.size, rep.size)).tocsr()


@pytest.mark.parametrize("n", range(4, 14))
@pytest.mark.parametrize("model", ["xy", "ising"])
@pytest.mark.parametrize("field", [0.0, 50.0])
@pytest.mark.parametrize("couplings", ["power-law", "random"])
def test_sector_csr_equals_the_coo_oracle_bitwise(n, model, field, couplings):
    """Every mirror sector of every conserved block, and the full space:
    data, indices and indptr of the directly built CSR equal, bit for bit
    and dtype for dtype, scipy's ``tocsr`` of the term-by-term triplets
    (field in units of max|J|; random couplings have no mirror symmetry
    and skip a pair)."""
    if couplings == "power-law":
        J = ionchain.power_law_coupling(n, 1.3, J0)
    else:
        values = random_coupling(n, seed=500 + n, scale=50.0)
        values[0, n - 1] = values[n - 1, 0] = 0.0
        J = _coupling(values)
    H = dynamics.build_hamiltonian(J, transverse_field=field * np.abs(J.values).max(),
                                   model=model)
    counts = np.array([bin(b).count("1") for b in range(2 ** n)])
    labels = counts if model == "xy" else counts % 2
    cases = [(np.arange(2 ** n), ())]
    for label in np.unique(labels):
        basis = np.flatnonzero(labels == label)
        cases += [(basis, sector) for sector in dynamics._mirror_sectors(H, basis)]
    assert len(cases) > 1 + np.unique(labels).size or couplings == "random"  # mirrored
    for basis, sector in cases:
        expected = _coo_oracle(H, basis, *sector)
        for got, want in zip(dynamics._assemble(H, basis, *sector),
                             (expected.data, expected.indices, expected.indptr)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


def test_assembling_an_n15_ising_sector_allocates_little_beyond_its_csr():
    """The + sector of the odd parity half at N = 15 (8256 states, 862 k
    elements): no triplets and no re-sort, so the peak stays within twice
    the 10.4 MB of CSR arrays the assembly returns (1.6x measured; the
    triplets and ``tocsr`` took 4.1x)."""
    J = ionchain.power_law_coupling(15, 1.3, J0)
    H = dynamics.build_hamiltonian(J, transverse_field=50.0 * np.abs(J.values).max(),
                                   model="ising")
    basis = dynamics._block_basis(H, 1)
    sector = dynamics._mirror_sectors(H, basis)[0]
    tracemalloc.start()
    try:
        arrays = dynamics._assemble(H, basis, *sector)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(a.nbytes for a in arrays)
    assert arrays[2].size == 8257
    assert peak <= 2 * size, f"peak {peak / 1e6:.1f} MB for {size / 1e6:.1f} MB of CSR"


def _ising_n9():
    """N = 9 Ising at B = 30 J0 with site 3 flipped: 512 states in the full
    space, above ``KRYLOV_ORDERS``, and mirror sectors of 136 and 120."""
    H = dynamics.build_hamiltonian(ionchain.power_law_coupling(9, 1.2, J0),
                                   transverse_field=30.0 * J0, model="ising")
    return H, dynamics.prepare_state(QuenchSpec("local", (3,)), 9)


def _ising_n11():
    """N = 11 Ising at B = 30 J0 with site 3 flipped: 2048 states in the full
    space and mirror sectors of 528 and 496, all above ``KRYLOV_ORDERS``,
    so no subspace becomes invariant and exact."""
    H = dynamics.build_hamiltonian(ionchain.power_law_coupling(11, 1.2, J0),
                                   transverse_field=30.0 * J0, model="ising")
    return H, dynamics.prepare_state(QuenchSpec("local", (3,)), 11)


class _Counting:
    """Counts the matvecs of H and the Lanczos subspaces built on them,
    with the number of times (outputs or stops) each subspace served."""

    def __init__(self, H, monkeypatch):
        self.H, self.matvecs, self.served = H, 0, []
        subspace = dynamics._lanczos_subspace

        def counted(*args):
            result = subspace(*args)
            self.served.append(result[0].shape[1])
            return result

        monkeypatch.setattr(dynamics, "_lanczos_subspace", counted)

    def matvec(self, psi):
        self.matvecs += 1
        return self.H.matvec(psi)


def test_one_krylov_subspace_serves_several_output_times(monkeypatch):
    H, psi0 = _ising_n9()
    count = _Counting(H, monkeypatch)
    times = np.linspace(0.0, 1e-3, 11)
    states = dynamics._krylov_trajectory(count.matvec, full_space(psi0), times, 1e-9)
    assert sum(count.served) == times.size and 0 not in count.served
    assert max(count.served) >= 2 and len(count.served) <= times.size // 2
    assert count.matvecs <= dynamics.KRYLOV_ORDERS * len(count.served)
    expected = expm_multiply(-1j * H._matrix, full_space(psi0), start=0.0, stop=1e-3,
                             num=11, endpoint=True)
    np.testing.assert_allclose(states, expected, atol=1e-9)


def test_krylov_halves_an_interval_too_long_for_one_subspace(monkeypatch):
    H, psi0 = _ising_n11()
    count = _Counting(H, monkeypatch)
    t = 0.03
    (state,) = dynamics._krylov_trajectory(count.matvec, full_space(psi0), np.array([t]),
                                           1e-9)
    assert count.served[0] == 0                 # the whole interval did not converge,
    assert len(count.served) > 2                # so stops short of it carried the state
    expected = full_space(dynamics.evolve(psi0, H, np.array([t]), method="dense"))[0]
    np.testing.assert_allclose(state, expected, atol=1e-9)


def test_krylov_raises_when_the_error_target_is_unreachable():
    H, psi0 = _ising_n11()
    times = np.array([0.0, 1e-4, 2e-3])
    with pytest.raises(dynamics.PropagatorError) as err:
        dynamics._krylov_trajectory(H.matvec, full_space(psi0), times, 1e-9, m_max=3,
                                    max_splits=4)
    assert str(err.value) == (
        "Krylov propagation of a 2048-state sector stalled at t = 0 s, short of the "
        "output time 0.0001 s: error target 1e-09 not met at subspace dimension 3 "
        "after 4 step halvings")
    # through evolve, in the 528-state mirror sector, a zero target is never met
    with pytest.raises(dynamics.PropagatorError,
                       match=rf"528-state sector .* target 0 not met at subspace dimension "
                             rf"{dynamics.KRYLOV_ORDERS} "):
        dynamics.evolve(psi0, H, times, method="krylov", step_tol=0.0)


def test_krylov_error_stays_within_the_chained_estimates(monkeypatch):
    """The error at an output time is at most tol / 4 per subspace chained
    up to it, and a looser target is met with fewer matvecs."""
    H, psi0 = _ising_n9()
    psi = full_space(psi0)
    count = _Counting(H, monkeypatch)
    for times in (np.linspace(0.0, 2e-3, 9), np.linspace(0.0, 2e-2, 41)):
        expected = _full_space_oracle(H, psi, times)
        matvecs = []
        for tol in (1e-2, 1e-5, 1e-8):
            count.matvecs, count.served = 0, []
            states = dynamics._krylov_trajectory(count.matvec, psi, times, tol)
            error = np.linalg.norm(states - expected, axis=1)
            assert error.max() <= np.count_nonzero(count.served) * tol / 4
            matvecs.append(count.matvecs)
        assert matvecs[0] < matvecs[1] < matvecs[2]


@pytest.mark.parametrize("n,model,flips", [(9, "xy", (2,)), (9, "xy", (2, 5)),
                                           (5, "ising", (2,))])
def test_krylov_is_exact_on_an_invariant_subspace(n, model, flips):
    # sectors of 4 to 20 states: the Lanczos recursion breaks down inside
    # them, and the subspace it spans then gives every time exactly, so
    # even an error target of 0 is met
    J = ionchain.power_law_coupling(n, 1.3, J0)
    H = dynamics.build_hamiltonian(J, transverse_field=50.0 * np.abs(J.values).max(),
                                   model=model)
    psi0 = dynamics.prepare_state(QuenchSpec("local", flips), n)
    times = np.linspace(0.0, 0.05, 6)
    dense = dynamics.evolve(psi0, H, times, method="dense")
    krylov = dynamics.evolve(psi0, H, times, method="krylov", step_tol=0.0)
    np.testing.assert_allclose(krylov.states, dense.states, atol=1e-12)


def test_krylov_starts_late_and_repeats_output_times():
    H, psi0 = _ising_n9()
    times = np.array([3e-4, 3e-4, 3e-4, 7e-4, 7e-4, 1e-3, 1e-3])
    traj = dynamics.evolve(psi0, H, times, method="krylov", step_tol=1e-12)
    np.testing.assert_allclose(full_space(traj), _full_space_oracle(H, full_space(psi0), times),
                               atol=1e-10)
    np.testing.assert_array_equal(traj.states[1], traj.states[0])
    np.testing.assert_array_equal(traj.states[4], traj.states[3])


def _reached_sectors(H, psi0):
    """(sector Hamiltonian as a dense array, sector state) for every mirror
    sector of every conserved block that ``psi0`` reaches, as ``evolve``
    splits them, on mirror-symmetric couplings; the state is projected by
    the isometries of :func:`_mirror_isometries`."""
    amps = full_space(psi0)
    labels = np.array([bin(b).count("1") for b in range(amps.size)])
    if H.model != "xy":
        labels &= 1
    sectors = []
    for label in np.unique(labels[amps != 0]):
        basis = np.flatnonzero(labels == label)
        for sector, U in zip(dynamics._mirror_sectors(H, basis),
                             _mirror_isometries(basis, H.n_sites)):
            psi = U.T @ amps[basis]
            if psi.any():
                sectors.append((_assembled(H, basis, *sector).toarray(), psi))
    return sectors


#: Roundoff allowed on top of the estimate, in units of eps (1 + ||H|| |dt|):
#: a subspace that becomes invariant estimates about 1e-30, while the
#: eigenvalues of the Lanczos matrix and of the dense reference each carry
#: errors of order eps ||H||, which turn into phase errors growing with |dt|.
ROUNDOFF_EPS = 32


@settings(deadline=None, max_examples=12)
@given(n=st.integers(6, 11), alpha=st.floats(0.5, 3.0),
       field=st.sampled_from(["zero", "30 J0", "50 max|J|"]),
       tol=st.sampled_from([1e-3, 1e-6, 1e-9]), data=st.data())
@example(n=11, alpha=1.0, field="50 max|J|", tol=1e-9, data=None)
def test_krylov_estimate_bounds_the_error_of_every_time_served(n, alpha, field, tol, data):
    """Each time a Lanczos subspace serves is off from the exact propagation
    of that subspace's start state, by the sector's dense eigh, by at most
    the time's a-posteriori estimate |dt| max_{s <= |dt|} delta(s)
    (Jawecki, Auzinger & Koch, BIT Numer. Math. 60, 157 (2020))."""
    flips = (n // 2,) if data is None else data.draw(
        st.sets(st.integers(1, n), min_size=1, max_size=n), label="flips")
    J = ionchain.power_law_coupling(n, alpha, J0)
    B = {"zero": 0.0, "30 J0": 30.0 * J0, "50 max|J|": 50.0 * np.abs(J.values).max()}[field]
    H = dynamics.build_hamiltonian(J, transverse_field=B, model="ising")
    psi0 = dynamics.prepare_state(QuenchSpec("local", tuple(flips)), n)
    times = np.linspace(0.0, 0.01, 21)
    served = []
    subspace = dynamics._lanczos_subspace

    def recorded(matvec, psi, dts, tol, V):
        Y, basis, estimates = subspace(matvec, psi, dts, tol, V)
        served.append((psi.copy(), dts[:Y.shape[1]], Y.T @ basis, estimates))
        return Y, basis, estimates

    with mock.patch.object(dynamics, "_lanczos_subspace", recorded):
        for matrix, psi in _reached_sectors(H, psi0):
            served.clear()
            dynamics._krylov_trajectory(lambda v: matrix @ v, psi, times, tol)
            w, v = np.linalg.eigh(matrix)
            for start, dts, states, estimates in served:
                assert np.all(estimates < tol / 4)
                exact = (v @ (np.exp(-1j * np.outer(w, dts)) * (v.T @ start)[:, None])).T
                error = np.linalg.norm(states - exact, axis=1)
                roundoff = ROUNDOFF_EPS * np.finfo(float).eps * (1 + np.abs(w).max() * dts)
                assert np.all(error <= estimates + roundoff), (error, estimates)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_benchmark_ising_quench_needs_at_most_300_matvecs(alpha, monkeypatch):
    """The N = 13 centre flip at B = 50 max|J|, 51 points to 10 ms: the
    step-length bound stops each subspace at the order 1e-9 needs."""
    J = ionchain.power_law_coupling(13, alpha, J0)
    H = dynamics.build_hamiltonian(J, transverse_field=50.0 * np.abs(J.values).max(),
                                   model="ising")
    psi0 = dynamics.prepare_state(QuenchSpec("local", (7,)), 13)
    times = np.linspace(0.0, 0.01, 51)
    reference = dynamics.evolve(psi0, H, times, step_tol=1e-13)
    matvec, calls = dynamics.Hamiltonian.matvec, []
    monkeypatch.setattr(dynamics.Hamiltonian, "matvec",
                        lambda self, psi: calls.append(1) or matvec(self, psi))
    traj = dynamics.evolve(psi0, H, times, step_tol=1e-9)
    assert len(calls) <= 300
    assert np.linalg.norm(traj.states - reference.states, axis=1).max() <= 1e-9


@pytest.mark.parametrize("alpha", [1.0, 1.3, 2.0])
def test_benchmark_ising_quench_fits_one_lanczos_subspace(alpha, monkeypatch):
    """The N = 13 centre flip at B = 50 max|J|, 51 points to 10 ms, needs at
    most 200 matvecs: about 160-180 Lanczos orders reach every output time,
    so a cap of ``KRYLOV_ORDERS`` no longer restarts the subspace."""
    J = ionchain.power_law_coupling(13, alpha, J0)
    H = dynamics.build_hamiltonian(J, transverse_field=50.0 * np.abs(J.values).max(),
                                   model="ising")
    psi0 = dynamics.prepare_state(QuenchSpec("local", (7,)), 13)
    count = _Counting(None, monkeypatch)             # the times each subspace serves
    matvec, calls = dynamics.Hamiltonian.matvec, []
    monkeypatch.setattr(dynamics.Hamiltonian, "matvec",
                        lambda self, psi: calls.append(1) or matvec(self, psi))
    dynamics.evolve(psi0, H, np.linspace(0.0, 0.01, 51), step_tol=1e-9)
    assert len(calls) <= 200 and count.served == [51]


def test_evolve_refuses_a_trajectory_above_the_byte_limit(monkeypatch):
    """A (T, dim) complex trajectory over ``MAX_TRAJECTORY_BYTES`` is refused
    before it is allocated, naming both counts; one at the limit runs."""
    H = dynamics.build_hamiltonian(ionchain.power_law_coupling(7, 1.3, J0), model="xy")
    psi0 = dynamics.prepare_state(QuenchSpec("local", (2, 5)), 7)
    assert dynamics.reached_blocks(psi0, H)[1] == 21
    times = np.linspace(0.0, 1e-3, 10)
    monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_BYTES", 16 * 10 * 21 - 1)
    with pytest.raises(ValueError, match=r"^10 times on 21 basis states take .* GiB of "
                                         r"amplitudes, above the limit of .* GiB$"):
        dynamics.evolve(psi0, H, times)
    monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_BYTES", 16 * 10 * 21)
    assert dynamics.evolve(psi0, H, times).states.shape == (10, 21)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="10.4 GiB"):       # the size, not an allocation
        dynamics.check_trajectory(10 ** 8, 7)


@pytest.mark.parametrize("method", ["dense", "krylov"])
def test_time_zero_returns_the_initial_state_exactly(method):
    """No roundoff of either propagator at t = 0, so sigma-z starts at
    exactly +-1 and never leaves [-1, 1] there.  The centre flip lies wholly
    in the + mirror sector; a flip of site 2 is split between both, whose
    halves must not add back to 1 + 2e-16."""
    J = ionchain.power_law_coupling(9, 1.3, J0)
    for model, site in (("ising", 5), ("ising", 2), ("xy", 2)):
        H = dynamics.build_hamiltonian(J, transverse_field=50.0 * np.abs(J.values).max(),
                                       model=model)
        psi0 = dynamics.prepare_state(QuenchSpec("local", (site,)), 9)
        traj = dynamics.evolve(psi0, H, np.array([0.0, 1e-3]), method=method)
        np.testing.assert_array_equal(full_space(traj)[0], full_space(psi0))
        np.testing.assert_array_equal(dynamics.magnetisation(traj)[0],
                                      np.where(np.arange(1, 10) == site, 1.0, -1.0))


@pytest.mark.parametrize("n", [4, 7, 10])
@pytest.mark.parametrize("model", ["xy", "ising"])
def test_dense_sector_propagation_equals_the_complex_product(n, model):
    """Two real products give exp(-i H t) psi as the complex matmul did."""
    J = _coupling(random_coupling(n, seed=300 + n, scale=50.0))
    H = dynamics.build_hamiltonian(J, transverse_field=40.0, model=model)
    labels = np.array([bin(b).count("1") for b in range(2 ** n)])
    basis = np.flatnonzero((labels if model == "xy" else labels % 2) == 1)
    block = dynamics.Hamiltonian(dynamics._assemble(H, basis), n, model, 40.0, J)
    rng = np.random.default_rng(n)
    psi = rng.normal(size=block.dim) + 1j * rng.normal(size=block.dim)
    psi /= np.linalg.norm(psi)
    times = np.linspace(0.0, 0.01, 9)
    w, v = block.eigensystem()
    expected = (v @ (np.exp(-1j * np.outer(w, times)) * (v.T @ psi)[:, None])).T
    states = dynamics._propagate_block(block, psi, times, "dense", 1e-9)
    np.testing.assert_allclose(states, expected, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the Krylov path against closed-form oracles (independent of the sector code)


@settings(deadline=None, max_examples=10)
@given(n=st.integers(4, 15), alpha=st.floats(0.5, 3.0), data=st.data())
@example(n=14, alpha=1.3, data=None)
@example(n=17, alpha=1.3, data=None)
def test_krylov_ising_at_zero_field_is_a_product_of_cosines(n, alpha, data):
    """At B = 0 the sigma^x sigma^x terms commute, and from a sigma^z product
    state <sigma_i^z(t)> = s_i prod_j cos(2 J_ij t) (Foss-Feig et al., PRA 87,
    042101 (2013)).  N = 17 is the largest chain whose 2^(N-1)-state parity
    half the state limit accepts, and is always run; drawn chains stop at
    N = 15, since one N = 16 or 17 case takes 2 to 9 s on a 2-core VM."""
    flips = (2, n - 1) if data is None else data.draw(
        st.sets(st.integers(1, n), min_size=1, max_size=n), label="flips")
    J = ionchain.power_law_coupling(n, alpha, J0)
    H = dynamics.build_hamiltonian(J, model="ising")
    psi0 = dynamics.prepare_state(QuenchSpec("local", tuple(flips)), n)
    times = np.linspace(0.0, 0.02, 6)
    traj = dynamics.evolve(psi0, H, times, method="krylov", step_tol=1e-12)
    s = np.where(np.isin(np.arange(1, n + 1), list(flips)), 1.0, -1.0)
    expected = s * np.prod(np.cos(2.0 * J.values * times[:, None, None]), axis=2)
    np.testing.assert_allclose(dynamics.magnetisation(traj), expected, atol=1e-10)


@settings(deadline=None, max_examples=10)
@given(n=st.integers(4, 40), method=st.sampled_from(["dense", "krylov"]), data=st.data())
@example(n=14, method="krylov", data=None)
@example(n=30, method="krylov", data=None)
@example(n=40, method="dense", data=None)
@example(n=40, method="krylov", data=None)
def test_krylov_nearest_neighbour_xy_is_free_fermions(n, method, data):
    """Nearest-neighbour XY is a free-fermion chain (Lieb, Schultz & Mattis,
    Ann. Phys. 16, 407 (1961)): from flips at the sites S,
    n_i(t) = sum_{s in S} |U_is(t)|^2 with U the one-particle propagator.
    Up to 3 flips to N = 30 (C(30, 3) = 4060 states) and 2 beyond, on
    either propagator."""
    most = 3 if n <= 30 else 2
    flips = (1, n // 2, n)[3 - most:] if data is None else data.draw(
        st.sets(st.integers(1, n), min_size=1, max_size=most), label="flips")
    J = ionchain.nearest_neighbour_coupling(n, J0)
    H = dynamics.build_hamiltonian(J, model="xy")
    psi0 = dynamics.prepare_state(QuenchSpec("local", tuple(flips)), n)
    times = np.linspace(0.0, 0.05, 6)
    traj = dynamics.evolve(psi0, H, times, method=method, step_tol=1e-12)
    U = np.array([[a.amplitudes for a in magnon.evolve_single_excitation(J, s, times)]
                  for s in flips])                                  # (k, T, N)
    density = np.sum(np.abs(U) ** 2, axis=0)
    np.testing.assert_allclose(dynamics.magnetisation(traj), 2.0 * density - 1.0,
                               atol=1e-10)


def test_auto_method_takes_each_side_of_the_dense_limit():
    """A local Ising quench at N = 12 with flips 3 and 7 (power law with
    alpha = 1.3, B = 50 max|J|) reaches a 1056-state + sector and a
    992-state - sector, one on each side of DENSE_LIMIT: 'auto' propagates
    the first by Krylov and the second densely, and agrees with 'dense'
    everywhere to the Krylov error target."""
    n = 12
    J = ionchain.power_law_coupling(n, 1.3, J0)
    H = dynamics.build_hamiltonian(J, transverse_field=50.0 * np.abs(J.values).max(),
                                   model="ising")
    psi0 = dynamics.prepare_state(QuenchSpec("local", (3, 7)), n)
    times = np.linspace(0.0, 0.002, 11)
    krylov_trajectory, eigensystem = dynamics._krylov_trajectory, dynamics.Hamiltonian.eigensystem
    ran = {"krylov": [], "dense": []}

    def krylov(matvec, psi, *args):
        ran["krylov"].append(psi.size)
        return krylov_trajectory(matvec, psi, *args)

    def dense(self):
        ran["dense"].append(self.dim)
        return eigensystem(self)

    with mock.patch.object(dynamics, "_krylov_trajectory", krylov), \
            mock.patch.object(dynamics.Hamiltonian, "eigensystem", dense):
        auto = dynamics.evolve(psi0, H, times)
    assert 992 <= dynamics.DENSE_LIMIT < 1056
    assert ran == {"krylov": [1056], "dense": [992]}
    exact = dynamics.evolve(psi0, H, times, method="dense")
    np.testing.assert_array_equal(auto.basis, exact.basis)
    np.testing.assert_allclose(auto.states, exact.states, rtol=0, atol=1e-9)


@settings(deadline=None, max_examples=12)
@given(model=st.sampled_from(["xy", "ising"]), data=st.data())
@example(model="xy", data=None)
@example(model="ising", data=None)
def test_norm_sectors_and_magnetisation_hold_across_the_ladder(model, data):
    """At every output time the norm is 1 to 1e-10, the weight stays in the
    conserved block the quench starts in (k flips for XY, the parity for
    Ising), and for XY sum_i <sigma_i^z> = 2k - N.  XY takes 1 or 2 flips
    at N = 2..63, Ising 1 to 3 flips or a global quench at N = 2..13; the
    largest sizes always run, on random couplings, so that no mirror
    symmetry halves the C(63, 2) = 1953-state XY block and the 4096-state
    Ising parity half, and both take the Krylov path.  Drawn cases also
    take mirror-symmetric power laws and an Ising field."""
    top = {"xy": 63, "ising": 13}[model]
    if data is None:
        n, flips, mirror, B = top, (1, top // 2), False, 0.0
    else:
        n = data.draw(st.integers(2, top), label="n")
        fewest, most = (1, 2) if model == "xy" else (0, 3)     # no flips: a global quench
        flips = tuple(data.draw(st.sets(st.integers(1, n), min_size=fewest,
                                        max_size=min(most, n)), label="flips"))
        mirror = data.draw(st.booleans(), label="mirror")
        B = 0.0 if model == "xy" else data.draw(st.sampled_from([0.0, 30.0 * J0]),
                                                label="field")
    J = (ionchain.power_law_coupling(n, 1.3, J0) if mirror
         else _coupling(random_coupling(n, seed=n, scale=J0)))
    H = dynamics.build_hamiltonian(J, transverse_field=B, model=model)
    spec = QuenchSpec("local", flips) if flips else QuenchSpec("global")
    traj = dynamics.evolve(dynamics.prepare_state(spec, n), H, np.linspace(0.0, 0.01, 5))
    np.testing.assert_allclose(np.linalg.norm(traj.states, axis=1), 1.0, rtol=0, atol=1e-10)
    weights = np.array([dynamics.excitation_sector_weights(traj.state(t))
                        for t in range(len(traj))])                     # (T, N + 1)
    if model == "xy":
        k = len(flips)
        assert not np.delete(weights, k, axis=1).any()
        np.testing.assert_allclose(weights[:, k], 1.0, rtol=0, atol=1e-10)
        np.testing.assert_allclose(dynamics.magnetisation(traj).sum(axis=1), 2 * k - n,
                                   rtol=0, atol=1e-10)
    elif flips:
        assert not weights[:, (len(flips) + 1) % 2::2].any()


def test_block_rejects_states_the_hamiltonian_leaves():
    H = dynamics.build_hamiltonian(ionchain.nearest_neighbour_coupling(4, J0), model="xy")
    one_flip = np.array([1, 2, 4, 8])
    assert _assembled(H, one_flip).shape == (4, 4)
    with pytest.raises(ValueError, match="outside"):
        dynamics._assemble(H, one_flip[:3])
    with pytest.raises(ValueError, match="outside"):
        dynamics._assemble(H, one_flip[1:])             # target below the basis
    ising = dynamics.build_hamiltonian(ionchain.nearest_neighbour_coupling(4, J0),
                                       transverse_field=5.0, model="ising")
    odd = np.array([1, 2, 4, 7, 8, 11, 13, 14])
    assert _assembled(ising, odd).shape == (8, 8)
    with pytest.raises(ValueError, match="outside"):
        dynamics._assemble(ising, odd[:-1])             # target above the basis


def test_matvec_matches_sparse_product():
    n = 6
    H = dynamics.build_hamiltonian(_coupling(random_coupling(n, seed=5)),
                                   transverse_field=3.0, model="ising")
    rng = np.random.default_rng(6)
    psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    dense = H._matrix.toarray()
    np.testing.assert_allclose(H.matvec(psi), dense @ psi, rtol=1e-13, atol=1e-10)
    np.testing.assert_allclose(H.matvec(psi.real), dense @ psi.real, atol=1e-10)


@pytest.mark.parametrize("model", ["xy", "ising"])
def test_state_over_several_blocks_evolves_on_their_union(model):
    """A hand-built state on the 1- and 2-flip states of 6 sites (one parity
    block each under H_Ising): the trajectory's basis is the sorted union of
    the blocks H takes it through, and the amplitudes match the full space."""
    n = 6
    J = _coupling(random_coupling(n, seed=71, scale=50.0))
    H = dynamics.build_hamiltonian(J, transverse_field=30.0, model=model)
    state = StateVector(amplitudes=np.array([0.6, 0.8j]), n_sites=n, basis=[0b100, 0b10010])
    times = np.linspace(0.0, 0.02, 4)
    traj = dynamics.evolve(state, H, times)
    counts = np.array([bin(b).count("1") for b in range(2 ** n)])
    reached = np.isin(counts, [1, 2]) if model == "xy" else np.ones(2 ** n, bool)
    np.testing.assert_array_equal(traj.basis, np.flatnonzero(reached))
    np.testing.assert_allclose(full_space(traj), _full_space_oracle(H, full_space(state), times),
                               atol=1e-10)


def test_evolve_rejects_mismatched_sizes():
    J = ionchain.nearest_neighbour_coupling(3, J0)
    H = dynamics.build_hamiltonian(J, model="xy")
    psi = dynamics.prepare_state(QuenchSpec(kind="global"), 4)
    with pytest.raises(ValueError):
        dynamics.evolve(psi, H, np.array([0.0]))


# ---------------------------------------------------------------------------
# observables (kron oracle again)


def test_magnetisation_matches_operator_expectation():
    n = 4
    rng = np.random.default_rng(31)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    amps /= np.linalg.norm(amps)
    state = StateVector(amplitudes=amps, n_sites=n, basis=np.arange(2 ** n))
    mag = dynamics.magnetisation(state)
    for s in range(1, n + 1):
        expected = np.vdot(amps, op_on_site(SZ, s, n) @ amps).real
        assert mag[s - 1] == pytest.approx(expected, abs=1e-12)


def test_correlations_match_operator_expectation():
    n = 4
    rng = np.random.default_rng(32)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    amps /= np.linalg.norm(amps)
    state = StateVector(amplitudes=amps, n_sites=n, basis=np.arange(2 ** n))
    C = dynamics.two_point_correlations(state)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            zi = op_on_site(SZ, i, n)
            zj = op_on_site(SZ, j, n)
            zz = np.vdot(amps, zi @ zj @ amps).real
            mi = np.vdot(amps, zi @ amps).real
            mj = np.vdot(amps, zj @ amps).real
            assert C[i - 1, j - 1] == pytest.approx(zz - mi * mj, abs=1e-12)


@pytest.mark.parametrize("model,spec", [("xy", QuenchSpec("local", (2, 5))),
                                        ("ising", QuenchSpec("global"))])
def test_trajectory_observables_match_per_state_results(model, spec):
    n = 6
    H = dynamics.build_hamiltonian(_coupling(random_coupling(n, seed=41)),
                                   transverse_field=70.0, model=model)
    traj = dynamics.evolve(dynamics.prepare_state(spec, n), H, np.linspace(0, 0.01, 7))
    mag = dynamics.magnetisation(traj)
    corr = dynamics.two_point_correlations(traj)
    assert mag.shape == (7, n) and corr.shape == (7, n, n)
    for k in range(len(traj)):
        np.testing.assert_allclose(mag[k], dynamics.magnetisation(traj.state(k)),
                                   atol=1e-14)
        np.testing.assert_allclose(corr[k], dynamics.two_point_correlations(traj.state(k)),
                                   atol=1e-14)


@pytest.mark.parametrize("n", [2, 5, 10])
def test_per_site_correlations_equal_the_per_time_products(n):
    """C_ij from N products over sites equals the per-time formula."""
    rng = np.random.default_rng(n)
    states = rng.normal(size=(6, 2 ** n)) + 1j * rng.normal(size=(6, 2 ** n))
    states[:, rng.random(2 ** n) < 0.3] = 0.0           # states that carry no weight
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    traj = dynamics.Trajectory(times=np.arange(6.0), states=states, n_sites=n,
                               basis=np.arange(2 ** n))
    z = 2.0 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1) - 1.0
    p = np.abs(states) ** 2
    m = p @ z
    expected = np.array([(z * q[:, None]).T @ z for q in p]) - m[:, :, None] * m[:, None, :]
    np.testing.assert_allclose(dynamics.two_point_correlations(traj), expected,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(dynamics.two_point_correlations(traj.state(3)), expected[3],
                               rtol=0, atol=1e-12)


def test_averaged_correlations_by_hand():
    C = np.array([[0.0, 1.0, 2.0],
                  [1.0, 0.0, 4.0],
                  [2.0, 4.0, 0.0]])
    np.testing.assert_allclose(dynamics.averaged_correlations(C), [2.5, 2.0])
    with pytest.raises(ValueError):
        dynamics.averaged_correlations(np.zeros((2, 3)))


def test_averaged_correlations_of_a_stack_equals_each_matrix_bitwise():
    C = np.random.default_rng(4).normal(size=(3, 5, 23, 23))
    stacked = dynamics.averaged_correlations(C)
    assert stacked.shape == (3, 5, 22)
    for idx in np.ndindex(3, 5):
        assert np.array_equal(stacked[idx], dynamics.averaged_correlations(C[idx]))
        assert np.array_equal(stacked[idx], [np.mean(np.diag(C[idx], k)) for k in range(1, 23)])
    assert dynamics.averaged_correlations(np.zeros((4, 1, 1))).shape == (4, 0)
    with pytest.raises(ValueError):
        dynamics.averaged_correlations(np.zeros((4, 2, 3)))


def test_sector_weights_of_global_state_are_binomial():
    n = 5
    state = dynamics.prepare_state(QuenchSpec(kind="global"), n)
    weights = dynamics.excitation_sector_weights(state)
    from math import comb
    np.testing.assert_allclose(weights, [comb(n, k) / 2 ** n for k in range(n + 1)],
                               atol=1e-12)


@settings(deadline=None, max_examples=20)
@given(t=st.floats(min_value=0.0, max_value=0.05))
def test_xy_evolution_conserves_excitation_number(t):
    n = 5
    J = ionchain.power_law_coupling(n, 1.3, J0)
    H = dynamics.build_hamiltonian(J, model="xy")
    psi0 = dynamics.prepare_state(QuenchSpec(kind="local", flipped_sites=(2, 4)), n)
    traj = dynamics.evolve(psi0, H, np.array([t]))
    weights = dynamics.excitation_sector_weights(traj.state(0))
    assert weights[2] == pytest.approx(1.0, abs=1e-10)


def test_trajectory_state_round_trip():
    n = 3
    J = ionchain.nearest_neighbour_coupling(n, J0)
    H = dynamics.build_hamiltonian(J, model="xy")
    psi0 = dynamics.prepare_state(QuenchSpec(kind="local", flipped_sites=(2,)), n)
    traj = dynamics.evolve(psi0, H, np.linspace(0, 0.01, 4))
    assert len(traj) == 4
    s = traj.state(2)
    assert s.n_sites == n
    np.testing.assert_array_equal(s.amplitudes, traj.states[2])


def test_three_flips_of_30_sites_never_allocate_the_full_space():
    """prepare_state, evolve and both observables on the 4060-state block:
    one 2^30 complex array alone would be 17 GB."""
    n = 30
    J = ionchain.power_law_coupling(n, 1.3, J0)
    tracemalloc.start()
    try:
        H = dynamics.build_hamiltonian(J, model="xy")
        psi0 = dynamics.prepare_state(QuenchSpec("local", (10, 15, 20)), n)
        traj = dynamics.evolve(psi0, H, np.linspace(0.0, 0.02, 51))
        mag = dynamics.magnetisation(traj)
        corr = dynamics.two_point_correlations(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.basis.size == 4060 and corr.shape == (51, n, n)
    assert peak < 50e6, f"peak {peak / 1e6:.1f} MB"
    np.testing.assert_allclose(mag.sum(axis=1), 6.0 - n, atol=1e-9)
