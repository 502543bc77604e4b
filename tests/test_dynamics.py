"""Hamiltonians, sector-native states and propagation, and sigma-z observables."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from magnonchain import dynamics, ionchain, magnon
from magnonchain.dynamics import StateVector, Trajectory

from conftest import (SZ, full_space, ising_oracle, op_on_site, random_coupling,
                      sector_weights, xy_oracle)

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
    monkeypatch.setattr(dynamics, "MAX_STATES", 16)
    with pytest.raises(ValueError, match="limit"):
        dynamics.prepare_state(5)
    monkeypatch.setattr(dynamics, "MAX_STATES", 32)
    assert dynamics.prepare_state(5).basis.size == 32


# ---------------------------------------------------------------------------
# state preparation


def test_local_quench_sets_the_right_basis_state():
    state = dynamics.prepare_state(4, (1, 3))
    # site 1 -> bit 0, site 3 -> bit 2 -> index 0b101 = 5
    expected = np.zeros(16)
    expected[5] = 1.0
    np.testing.assert_array_equal(full_space(state), expected)


def test_global_quench_is_uniform_superposition():
    state = dynamics.prepare_state(3)
    np.testing.assert_allclose(state.amplitudes, np.full(8, 8 ** -0.5), atol=1e-15)


def _reached(state, model, field=1.0):
    """The trajectory at t = 0 of ``state`` under a nearest-neighbour H_``model``."""
    J = ionchain.nearest_neighbour_coupling(state.n_sites, J0)
    H = dynamics.build_hamiltonian(J, transverse_field=field, model=model)
    return dynamics.evolve(state, H, np.array([0.0]))


@pytest.mark.parametrize("n", [2, 5, 12])
def test_evolved_basis_is_the_block_the_quench_reaches(n):
    """A local quench is prepared on its one product state; the Hamiltonian
    decides the block: XY the sorted k-flip block, Ising the sorted parity
    half."""
    every = np.arange(2 ** n)
    counts = np.array([bin(b).count("1") for b in every])
    for flips in ((1,), (2, 1), tuple(range(1, n + 1))):
        k, index = len(flips), sum(1 << (s - 1) for s in flips)
        state = dynamics.prepare_state(n, flips)
        assert state.basis.tolist() == [index] and state.amplitudes.tolist() == [1.0]
        for model, expected in (("xy", every[counts == k]),
                                ("ising", every[counts % 2 == k % 2])):
            traj = _reached(state, model)
            assert traj.basis.dtype == np.int64
            np.testing.assert_array_equal(traj.basis, expected)
            np.testing.assert_allclose(traj.states[0], expected == index, atol=1e-15)


def _reached_with_shortcuts(state, H):
    """``dynamics._on_reached_blocks`` with the shortcuts it had for the full
    space and for one block, and the block index ``evolve`` took for one
    block."""
    labels, size = dynamics.reached_blocks(state, H)
    nonzero = state.amplitudes != 0
    if size == 1 << H.n_sites:
        basis = np.arange(size)
    elif labels.size == 1:
        basis = dynamics._block_basis(H, int(labels[0]))
    else:
        basis = np.sort(np.concatenate([dynamics._block_basis(H, int(k)) for k in labels]))
    amps = np.zeros(basis.size, dtype=complex)
    amps[np.searchsorted(basis, state.basis[nonzero])] = state.amplitudes[nonzero]
    blocks = ([np.arange(basis.size)] if labels.size == 1 else
              [np.flatnonzero(dynamics._block_labels(basis, H) == k) for k in labels])
    return labels, basis, amps, blocks


def test_one_reached_path_gives_the_arrays_of_the_removed_shortcuts():
    """Sorting the union of the reached blocks, and labelling its states,
    gives the full space, a single block and its block index bit for bit."""
    n = 7
    mixed = StateVector(np.array([0.6, 0.8j]), n, [1 << 2, (1 << 2) | (1 << 5)])
    states = [dynamics.prepare_state(n), mixed,
              dynamics.prepare_state(n, (4,)),
              dynamics.prepare_state(n, (2, 3, 6))]
    for model in ("xy", "ising"):
        H = dynamics.build_hamiltonian(ionchain.power_law_coupling(n, 1.5, J0), 1.0, model)
        for state in states:
            labels, basis, amps, blocks = _reached_with_shortcuts(state, H)
            got_labels, got_basis, got_amps = dynamics._on_reached_blocks(state, H)
            assert got_labels.tolist() == labels.tolist()
            assert got_basis.dtype == basis.dtype and got_basis.tobytes() == basis.tobytes()
            assert got_amps.tobytes() == amps.tobytes()
            block_of = dynamics._block_labels(got_basis, H)
            for label, block in zip(labels, blocks):
                assert np.flatnonzero(block_of == label).tobytes() == block.tobytes()


def test_two_flips_of_40_sites_hold_780_states():
    traj = _reached(dynamics.prepare_state(40, (10, 20)), "xy")
    assert traj.basis.size == 780 and np.all(np.diff(traj.basis) > 0)
    assert {bin(b).count("1") for b in traj.basis.tolist()} == {2}
    assert traj.basis[traj.states[0] != 0].tolist() == [(1 << 9) | (1 << 19)]


def test_state_limit_names_the_chain_the_states_and_the_limit(monkeypatch):
    message = "N=17 reaches 131072 basis states, above the limit of 65536 states"
    with pytest.raises(ValueError) as err:
        dynamics.prepare_state(17)
    assert str(err.value) == message
    # the parity half of 18 sites is above the limit, and is refused
    # before it is enumerated
    with pytest.raises(ValueError, match="N=18 reaches 131072 basis states"):
        _reached(dynamics.prepare_state(18, (9,)), "ising")
    H = dynamics.build_hamiltonian(ionchain.power_law_coupling(17, 1.3, J0), model="xy")
    with pytest.raises(ValueError) as err:
        H._matrix
    assert str(err.value) == message
    # a parity half exactly at the limit is accepted
    monkeypatch.setattr(dynamics, "MAX_STATES", 256)
    assert _reached(dynamics.prepare_state(9, (4,)), "ising").basis.size == 256
    with pytest.raises(ValueError, match="N=10 reaches 512 basis states, above the limit of 256"):
        _reached(dynamics.prepare_state(10, (4,)), "ising")
    monkeypatch.undo()
    # basis states are int64 bit strings: 63 sites fit, 64 do not
    top = _reached(dynamics.prepare_state(63, (1, 63)), "xy").basis[-1]
    assert top == (1 << 62) | (1 << 61)
    for make in (lambda: dynamics.prepare_state(64, (1,)),
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


def test_local_quench_sites_are_checked():
    """A local quench needs one or more distinct sites in 1..n; no sites at
    all is the global quench."""
    for sites, match in (((), "one or more distinct"), ((2, 2), "one or more distinct"),
                         ((0,), "site 0 outside 1..4"), ((5,), "site 5 outside 1..4"),
                         ((1, 5), "site 5 outside 1..4")):
        with pytest.raises(ValueError, match=match):
            dynamics.prepare_state(4, sites)
    assert dynamics.prepare_state(4, [np.int64(4), 1]).basis.tolist() == [9]
    assert dynamics.prepare_state(4).basis.size == 16


def test_local_quench_site_out_of_range():
    with pytest.raises(ValueError):
        dynamics.prepare_state(4, (9,))


# ---------------------------------------------------------------------------
# propagation


def test_dense_evolution_matches_direct_expm(pin_propagator):
    pin_propagator("dense")
    n = 4
    J = random_coupling(n, seed=21, scale=50.0)
    H = dynamics.build_hamiltonian(_coupling(J), transverse_field=40.0, model="ising")
    psi0 = dynamics.prepare_state(n)
    t = 0.013
    traj = dynamics.evolve(psi0, H, np.array([t]))
    # oracle: diagonalize the kron-built matrix directly
    w, v = np.linalg.eigh(ising_oracle(J, 40.0, n))
    expected = v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0.amplitudes))
    np.testing.assert_allclose(traj.states[0], expected, atol=1e-10)


def test_krylov_agrees_with_dense(pin_propagator):
    n = 5
    J = random_coupling(n, seed=22, scale=80.0)
    H = dynamics.build_hamiltonian(_coupling(J), model="xy")
    psi0 = dynamics.prepare_state(n, (1, 4))
    times = np.linspace(0.0, 0.02, 9)
    pin_propagator("dense")
    dense = dynamics.evolve(psi0, H, times)
    pin_propagator("krylov")
    krylov = dynamics.evolve(psi0, H, times)
    np.testing.assert_allclose(krylov.states, dense.states, atol=1e-8)


def test_krylov_large_chain_against_magnon_oracle(pin_propagator):
    """Check the Krylov path on a 13-site chain against the independent
    single-excitation spectral evolution."""
    n = 13
    J = ionchain.nearest_neighbour_coupling(n, J0)
    H = dynamics.build_hamiltonian(J, model="xy")
    psi0 = dynamics.prepare_state(n, (7,))
    times = np.linspace(0.0, 0.01, 6)
    pin_propagator("krylov")
    traj = dynamics.evolve(psi0, H, times)
    mag_full = np.vstack([dynamics.magnetisation(traj.state(k)) for k in range(traj.times.size)])
    mag_ref = np.vstack([2.0 * np.abs(s.amplitudes) ** 2 - 1.0
                         for s in magnon.evolve_single_excitation(J, 7, times)])
    np.testing.assert_allclose(mag_full, mag_ref, atol=1e-8)


def test_evolution_preserves_norm_and_energy():
    n = 5
    J = random_coupling(n, seed=23, scale=60.0)
    H = dynamics.build_hamiltonian(_coupling(J), transverse_field=25.0, model="ising")
    psi0 = dynamics.prepare_state(n)
    traj = dynamics.evolve(psi0, H, np.linspace(0, 0.05, 11))
    e0 = np.vdot(psi0.amplitudes, H._matrix @ psi0.amplitudes).real
    for k in range(traj.times.size):
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
def test_block_propagation_matches_full_space(n, model, flips, field, pin_propagator):
    J = _coupling(random_coupling(n, seed=100 + n, scale=50.0))
    B = field * np.abs(J.values).max()
    H = dynamics.build_hamiltonian(J, transverse_field=B, model=model)
    psi0 = dynamics.prepare_state(n, flips)
    times = np.linspace(0.0, 1.0, 3) / (np.abs(J.values).max() + abs(B))
    expected = _full_space_oracle(H, full_space(psi0), times)

    counts = np.array([bin(b).count("1") for b in range(2 ** n)])
    labels = counts if model == "xy" else counts % 2
    outside = ~np.isin(labels, labels[full_space(psi0) != 0])
    # dense on the 2048-state Ising blocks of N = 12 runs the code already
    # checked at N <= 11 and would add seconds of eigh per case
    methods = ("krylov",) if model == "ising" and n == 12 else ("dense", "krylov")
    for method in methods:
        pin_propagator(method, 1e-12)
        traj = dynamics.evolve(psi0, H, times)
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


def test_quench_path_never_assembles_the_full_matrix(pin_propagator):
    pin_propagator("krylov")
    J = ionchain.power_law_coupling(9, 1.2, J0)
    H = dynamics.build_hamiltonian(J, transverse_field=40.0, model="ising")
    dynamics.evolve(dynamics.prepare_state(9, (2,)), H, np.linspace(0.0, 1e-3, 3))
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


def _flips(n, flips):
    return ((n + 1) // 2,) if flips == "centre" else flips


@pytest.mark.parametrize("n", range(4, 13))
@pytest.mark.parametrize("model,flips,field", MIRROR_CASES)
def test_mirror_sector_propagation_matches_full_space(n, model, flips, field,
                                                      pin_propagator):
    J = ionchain.power_law_coupling(n, 1.3, J0)
    assert np.array_equal(J.values, J.values[::-1, ::-1])
    B = field * np.abs(J.values).max()
    H = dynamics.build_hamiltonian(J, transverse_field=B, model=model)
    psi0 = dynamics.prepare_state(n, _flips(n, flips))
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
        pin_propagator(method, 1e-12)
        traj = dynamics.evolve(psi0, H, times)
        np.testing.assert_allclose(full_space(traj), expected, atol=1e-10, err_msg=method)
        assert np.all(full_space(traj)[:, outside] == 0.0)


@pytest.mark.parametrize("model,flips,field", [("xy", (2,), 0.0), ("ising", (1, 2), 50.0)])
def test_coupling_off_mirror_by_one_ulp_propagates_the_whole_block(model, flips, field,
                                                                    pin_propagator):
    n = 7
    values = ionchain.power_law_coupling(n, 1.1, J0).values.copy()
    values[0, 1] = values[1, 0] = np.nextafter(values[0, 1], np.inf)
    J = _coupling(values)
    B = field * np.abs(values).max()
    H = dynamics.build_hamiltonian(J, transverse_field=B, model=model)
    psi0 = dynamics.prepare_state(n, flips)
    every = np.arange(2 ** n)
    (sector,) = _check_sectors(H, every, mirrored=False)
    assert (_assembled(H, every, *sector) != _assembled(H, every)).nnz == 0
    times = np.linspace(0.0, 1.0, 3) / (np.abs(values).max() + B)
    expected = _full_space_oracle(H, full_space(psi0), times)
    for method in ("dense", "krylov"):
        pin_propagator(method, 1e-12)
        traj = dynamics.evolve(psi0, H, times)
        np.testing.assert_allclose(full_space(traj), expected, atol=1e-10, err_msg=method)


def test_reflected_but_asymmetric_couplings_propagate_the_whole_block(pin_propagator):
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
    psi0 = dynamics.prepare_state(n, (2,))
    times = np.linspace(0.0, 1.0, 3) / (51.0 * np.abs(values).max())
    pin_propagator("krylov", 1e-12)
    traj = dynamics.evolve(psi0, H, times)
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
    return H, dynamics.prepare_state(9, (3,))


def _ising_n11():
    """N = 11 Ising at B = 30 J0 with site 3 flipped: 2048 states in the full
    space and mirror sectors of 528 and 496, all above ``KRYLOV_ORDERS``,
    so no subspace becomes invariant and exact."""
    H = dynamics.build_hamiltonian(ionchain.power_law_coupling(11, 1.2, J0),
                                   transverse_field=30.0 * J0, model="ising")
    return H, dynamics.prepare_state(11, (3,))


def _norm(H) -> float:
    """The bound on ||H|| that ``evolve`` hands the Lanczos propagator: the
    largest absolute row sum (:func:`dynamics._row_sum_bound`)."""
    data, _, indptr = H._csr_arrays
    return dynamics._row_sum_bound(data, indptr)


class _Counting:
    """Counts the matvecs of H and the convergence tests of the Lanczos
    subspaces built on them: ``served`` holds the number of times (outputs
    or stops) each test served, ``subspaces`` each subspace tested, once
    (a stalled one is tested again)."""

    def __init__(self, H, monkeypatch):
        self.H, self.matvecs, self.served, self.subspaces = H, 0, [], []
        subspace = dynamics._lanczos_subspace

        def counted(lanczos, *args):
            result = subspace(lanczos, *args)
            self.served.append(result[0].shape[1])
            if not any(built is lanczos for built in self.subspaces):
                self.subspaces.append(lanczos)
            return result

        monkeypatch.setattr(dynamics, "_lanczos_subspace", counted)

    def matvec(self, psi):
        self.matvecs += 1
        return self.H.matvec(psi)


def test_one_krylov_subspace_serves_several_output_times(monkeypatch):
    H, psi0 = _ising_n9()
    count = _Counting(H, monkeypatch)
    times = np.linspace(0.0, 1e-3, 11)
    states = dynamics._krylov_trajectory(count.matvec, full_space(psi0), times, _norm(H))
    assert sum(count.served) == times.size and 0 not in count.served
    assert max(count.served) >= 2 and len(count.served) <= times.size // 2
    assert count.matvecs <= dynamics.KRYLOV_ORDERS * len(count.served)
    expected = expm_multiply(-1j * H._matrix, full_space(psi0), start=0.0, stop=1e-3,
                             num=11, endpoint=True)
    np.testing.assert_allclose(states, expected, atol=1e-9)


def test_krylov_halves_an_interval_too_long_for_one_subspace(monkeypatch, pin_propagator):
    H, psi0 = _ising_n11()
    count = _Counting(H, monkeypatch)
    t = 0.03
    (state,) = dynamics._krylov_trajectory(count.matvec, full_space(psi0), np.array([t]),
                                           _norm(H))
    assert count.served[0] == 0                 # the whole interval did not converge,
    assert len(count.served) > 2                # so stops short of it carried the state
    pin_propagator("dense")
    expected = full_space(dynamics.evolve(psi0, H, np.array([t])))[0]
    np.testing.assert_allclose(state, expected, atol=1e-9)


def _count_decompositions(monkeypatch) -> list:
    """Records the order of each ``eigh_tridiagonal`` call from now on."""
    import scipy.linalg

    decompose, calls = scipy.linalg.eigh_tridiagonal, []
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal",
                        lambda d, e: calls.append(d.size) or decompose(d, e))
    return calls


def test_a_stalled_subspace_is_tested_again_without_a_matvec(monkeypatch):
    """After a stall the kept subspace serves the shorter stops: the
    matvecs are the orders of the subspaces built, the decompositions the
    orders tested plus one for the replay that returns states, and the
    states are those of rebuilding the stalled subspace from its start,
    bit for bit."""
    H, psi0 = _ising_n11()
    times = np.array([0.0, 0.03])
    count = _Counting(H, monkeypatch)
    decompositions = _count_decompositions(monkeypatch)
    kept = dynamics._krylov_trajectory(count.matvec, full_space(psi0), times, _norm(H))
    assert count.served.count(0) >= 1
    assert count.matvecs == sum(lanczos.orders for lanczos in count.subspaces)
    assert len(count.subspaces) == len(count.served) - count.served.count(0)
    stalled = sum(1 for a, b in zip(count.served, count.served[1:]) if a == 0 < b)
    assert len(decompositions) == (sum(len(lanczos.tested) for lanczos in count.subspaces)
                                   + stalled)
    matvecs, stalls, decomposed = count.matvecs, count.served.count(0), len(decompositions)

    subspace = dynamics._lanczos_subspace

    def rebuilt(lanczos, *args):                    # every test grows from order 0
        lanczos.orders, lanczos.tested = 0, {}
        return subspace(lanczos, *args)

    monkeypatch.setattr(dynamics, "_lanczos_subspace", rebuilt)
    count = _Counting(H, monkeypatch)
    decompositions.clear()
    again = dynamics._krylov_trajectory(count.matvec, full_space(psi0), times, _norm(H))
    assert count.matvecs == matvecs + stalls * dynamics.KRYLOV_ORDERS
    assert len(decompositions) > decomposed
    np.testing.assert_array_equal(again.view(np.uint8), kept.view(np.uint8))


def test_a_subspace_that_never_converges_is_decomposed_once_per_tested_order(monkeypatch,
                                                                             pin_propagator):
    """A zero target stalls the 528-state sector for good: every halving
    replays the test, and each tested order (every 4th from the start
    order, which is the same for every replay) is decomposed once."""
    H, psi0 = _ising_n11()
    subspace, starts = dynamics._lanczos_subspace, set()
    monkeypatch.setattr(dynamics, "_lanczos_subspace", lambda lanczos, dts, start:
                        starts.add(start) or subspace(lanczos, dts, start))
    decompositions = _count_decompositions(monkeypatch)
    pin_propagator("krylov", 0.0)
    with pytest.raises(dynamics.PropagatorError, match="528-state sector"):
        dynamics.evolve(psi0, H, np.array([0.0, 1e-4, 2e-3]))
    (start,) = starts
    assert 4 < start < dynamics.KRYLOV_ORDERS
    assert decompositions == list(range(-(-start // 4) * 4, dynamics.KRYLOV_ORDERS + 1, 4))


def test_the_test_shortcut_skips_only_orders_whose_full_test_fails(monkeypatch,
                                                                    pin_propagator):
    """Every order tested before a subspace returns fails the full test,
    recomputed from ``lanczos.tested``: not every time converges there.  So
    the one-time check at the longest step (:func:`dynamics._fails_at`),
    which skips the full test at most of those orders, never skips an order
    that would have returned.  Covered: 201 times on both sectors of the
    N = 11 global Ising quench, tested from the predicted order, and a
    stall with its replay, on the whole parity half, tested every 4 orders
    from order 4."""
    calls, skipped = [], []
    subspace, fails_at = dynamics._lanczos_subspace, dynamics._fails_at

    def recorded(lanczos, dts, start):
        result = subspace(lanczos, dts, start)
        calls.append((lanczos, dts.copy(), result[1].shape[0] - 1))
        return result

    monkeypatch.setattr(dynamics, "_lanczos_subspace", recorded)
    monkeypatch.setattr(dynamics, "_fails_at", lambda *a: skipped.append(fails_at(*a)) or
                        skipped[-1])
    J = ionchain.power_law_coupling(11, 1.5, J0)
    H = dynamics.build_hamiltonian(J, transverse_field=50.0 * np.abs(J.values).max(),
                                   model="ising")
    pin_propagator("krylov")
    dynamics.evolve(dynamics.prepare_state(11), H, np.linspace(0.0, 0.005, 201))
    predicted = len(calls)
    H, psi0 = _ising_n11()
    monkeypatch.setattr(dynamics, "_lanczos_subspace", lambda lanczos, dts, start:
                        recorded(lanczos, dts, 4))
    dynamics._krylov_trajectory(H.matvec, full_space(psi0), np.array([0.0, 0.03]), _norm(H))
    checked = []                                    # orders checked per call
    for lanczos, dts, returned in calls:
        steps = np.abs(dts)
        checked.append(0)
        for m, (evals, first, last) in lanczos.tested.items():
            if m >= returned:
                continue
            defect = lanczos.beta[m] * np.abs((last * first) @ np.exp(-1j * np.outer(evals, dts)))
            err = steps * np.array([defect[steps <= s].max() for s in steps])
            assert not np.all(err < dynamics.STEP_TOL / 4), (m, returned)
            checked[-1] += 1
    assert sum(checked[:predicted]) > 0 and sum(checked) > 50 and sum(skipped) > 50


def _krylov_run(run, from_order_4=False):
    """(states, tests) of ``run()``, each Lanczos subspace tested from its
    start order, or every 4 orders from order 4 with ``from_order_4``;
    ``tests`` holds (start, accepted order, times served) per test."""
    subspace, tests = dynamics._lanczos_subspace, []

    def recorded(lanczos, dts, start):
        Y, V, estimates = subspace(lanczos, dts, 4 if from_order_4 else start)
        tests.append((start, V.shape[0], Y.shape[1]))
        return Y, V, estimates

    with mock.patch.object(dynamics, "_lanczos_subspace", recorded):
        states = run()
    return states, tests


def _start_order_window(model, n, flips, alpha, t_end, points, tol, pin_propagator):
    """``run()`` of a Krylov quench at B = 50 max|J| on a power law, with
    the error target ``tol``, its states as a contiguous array."""
    J = ionchain.power_law_coupling(n, alpha, J0)
    H = dynamics.build_hamiltonian(J, transverse_field=50.0 * np.abs(J.values).max(),
                                   model=model)
    psi0 = dynamics.prepare_state(n, flips or None)
    times = np.linspace(0.0, t_end, points)
    pin_propagator("krylov", tol)
    return lambda: np.ascontiguousarray(dynamics.evolve(psi0, H, times).states)


#: (model, N, flipped sites (none: global), alpha, t_end, points, error
#: target, the branch the window takes) for the start-order test below.
START_ORDER_WINDOWS = [
    ("ising", 10, (5,), 1.5, 0.01, 51, 1e-9, "climb"),
    ("ising", 11, (), 1.2, 0.005, 201, 1e-9, "climb"),        # benchmark, seed 1
    ("ising", 13, (7,), 1.9, 0.01, 51, 1e-9, "climb"),        # benchmark, seed 1
    ("ising", 13, (), 2.0, 0.005, 51, 1e-9, "climb"),
    ("ising", 13, (7,), 1.5, 0.02, 2, 1e-9, "stall"),
    ("xy", 16, (3, 8, 12), 1.5, 0.02, 51, 1e-9, "climb"),
    ("xy", 9, (2,), 1.3, 0.05, 6, 0.0, "breakdown"),
    ("xy", 9, (2, 5), 1.3, 0.05, 6, 0.0, "breakdown"),
    ("ising", 5, (2,), 1.3, 0.05, 6, 0.0, "breakdown"),
]


@pytest.mark.parametrize("model,n,flips,alpha,t_end,points,tol,branch", START_ORDER_WINDOWS,
                         ids=[f"{w[0]}-n{w[1]}-{'local' if w[2] else 'global'}-{w[-1]}"
                              for w in START_ORDER_WINDOWS])
def test_testing_from_the_start_order_keeps_every_order_and_state(model, n, flips, alpha,
                                                                  t_end, points, tol, branch,
                                                                  pin_propagator):
    """Each subspace tests its convergence first at a start order from the
    predicted one; where no order below that test passes, it accepts the
    order, and gives the states, of testing every 4 orders from order 4,
    bit for bit.  The windows take each such branch: a first test that
    fails and climbs, or passes at the lowest passing order; a stall and
    its replay; a breakdown below the start (the sectors of
    ``test_krylov_is_exact_on_an_invariant_subspace``, whose target of 0
    only a breakdown meets)."""
    run = _start_order_window(model, n, flips, alpha, t_end, points, tol, pin_propagator)
    states, tests = _krylov_run(run)
    scanned, scan = _krylov_run(run, from_order_4=True)
    assert [test[1:] for test in tests] == [test[1:] for test in scan]
    np.testing.assert_array_equal(states.view(np.uint8), scanned.view(np.uint8))
    assert all(start > 4 for start, _, _ in tests)
    if branch == "climb":   # no order below the first test (start rounded up to 4 k)
        assert all(order >= -(-start // 4) * 4 for start, order, served in tests if served)
    elif branch == "stall":
        assert any(served == 0 for _, _, served in tests)
    else:
        assert all(order < start for start, order, _ in tests)


#: Windows in which a subspace passes its first test (N = 9 global and
#: N = 12 with site 6 flipped, alpha = 1.0): the lowest passing order of a
#: scan from order 4 lies below it.
FIRST_TEST_WINDOWS = [("ising", 9, (), 1.0, 0.005, 201, 1e-9),
                      ("ising", 12, (6,), 1.0, 0.02, 51, 1e-9)]


@pytest.mark.parametrize("model,n,flips,alpha,t_end,points,tol", FIRST_TEST_WINDOWS,
                         ids=[f"{w[0]}-n{w[1]}-{'local' if w[2] else 'global'}"
                              for w in FIRST_TEST_WINDOWS])
def test_a_first_test_that_passes_is_accepted(model, n, flips, alpha, t_end, points, tol,
                                              pin_propagator):
    """A subspace accepts the first tested order that passes, also when
    that is its first test: no order below it is tried, so it accepts an
    order above the lowest that passes.  It serves the same times as a
    scan from order 4, and both propagations are within their error
    estimates of the exact one: tol / 4 per subspace, at most two
    subspaces a sector here, so they differ by at most tol."""
    run = _start_order_window(model, n, flips, alpha, t_end, points, tol, pin_propagator)
    states, tests = _krylov_run(run)
    scanned, scan = _krylov_run(run, from_order_4=True)
    assert [served for _, _, served in tests] == [served for _, _, served in scan]
    first = [-(-start // 4) * 4 for start, _, _ in tests]
    assert all(order >= at for (_, order, _), at in zip(tests, first))
    passed = [k for k, ((_, order, _), at) in enumerate(zip(tests, first)) if order == at]
    assert any(scan[k][1] < tests[k][1] for k in passed)
    assert np.abs(states - scanned).max() <= tol


@pytest.mark.parametrize("empty", [(), (0,), (2, 3), (5,), (0, 1, 2, 3, 4, 5)])
def test_the_norm_bound_is_the_largest_absolute_row_sum(empty):
    """Gershgorin's bound of the cost rule, with empty rows first, inside,
    last or everywhere."""
    A = random_coupling(6, seed=7)
    A[list(empty)] = 0.0
    A[:, list(empty)] = 0.0
    M = sp.csr_matrix(A)
    assert dynamics._row_sum_bound(M.data, M.indptr) == pytest.approx(
        np.abs(A).sum(axis=1).max(), rel=1e-15)


def _krylov_blocks():
    """A conserved block of each model that the cost model sends to Krylov,
    assembled whole (no mirror split), and its one-basis-state start, as a
    complex array: the 2048-state odd parity half of N = 12 Ising at
    B = 50 max|J|, site 6 flipped, and the 1225-state two-flip block of
    N = 50 XY, sites 10 and 30 flipped."""
    for n, model, flips, t_end in ((12, "ising", (6,), 0.01), (50, "xy", (10, 30), 0.02)):
        J = ionchain.power_law_coupling(n, 1.3, J0)
        H = dynamics.build_hamiltonian(J, transverse_field=50.0 * np.abs(J.values).max(),
                                       model=model)
        basis = dynamics._block_basis(H, len(flips) if model == "xy" else 1)
        block = dynamics.Hamiltonian(dynamics._assemble(H, basis), n, model,
                                     H.transverse_field, J)
        data, _, indptr = block._csr_arrays
        assert dynamics._propagator(basis.size, data.size,
                                    dynamics._row_sum_bound(data, indptr), t_end, 21)[0] == "krylov"
        psi = np.zeros(basis.size, dtype=complex)
        psi[np.searchsorted(basis, sum(1 << (s - 1) for s in flips))] = 1.0
        yield block, psi, np.linspace(0.0, t_end, 21)


@pytest.mark.parametrize("phase", [np.exp(0.3j), 1j], ids=["exp(0.3i)", "i"])
def test_a_real_start_runs_real_and_agrees_with_complex_arithmetic(phase, monkeypatch):
    """A start with no imaginary part is propagated with real matvecs; the
    same start times a phase runs in complex arithmetic and gives the same
    states, times that phase, to 1e-12 (3e-13 measured)."""
    matvec, dtypes = dynamics.Hamiltonian.matvec, []
    monkeypatch.setattr(dynamics.Hamiltonian, "matvec",
                        lambda self, psi: dtypes.append(psi.dtype) or matvec(self, psi))
    for block, psi, times in _krylov_blocks():
        dtypes.clear()
        real = dynamics._krylov_trajectory(block.matvec, psi, times, _norm(block))
        assert set(dtypes) == {np.dtype(float)}
        dtypes.clear()
        rotated = dynamics._krylov_trajectory(block.matvec, phase * psi, times, _norm(block))
        assert set(dtypes) == {np.dtype(complex)}
        np.testing.assert_allclose(rotated / phase, real, rtol=0, atol=1e-12)


def test_a_complex_start_agrees_with_expm_multiply():
    """A start with an imaginary part runs in complex arithmetic, to 1e-9."""
    H, _ = _ising_n9()
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
    psi /= np.linalg.norm(psi)
    times = np.linspace(0.0, 1e-3, 6)
    states = dynamics._krylov_trajectory(H.matvec, psi, times, _norm(H))
    expected = expm_multiply(-1j * H._matrix, psi, start=0.0, stop=1e-3, num=6,
                             endpoint=True)
    np.testing.assert_allclose(states, expected, rtol=0, atol=1e-9)


def test_krylov_raises_when_the_error_target_is_unreachable(pin_propagator, monkeypatch):
    H, psi0 = _ising_n11()
    times = np.array([0.0, 1e-4, 2e-3])
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "KRYLOV_ORDERS", 3)
        patch.setattr(dynamics, "MAX_SPLITS", 4)
        with pytest.raises(dynamics.PropagatorError) as err:
            dynamics._krylov_trajectory(H.matvec, full_space(psi0), times, _norm(H))
    assert str(err.value) == (
        "Krylov propagation of a 2048-state sector stalled at t = 0 s, short of the "
        "output time 0.0001 s: error target 1e-09 not met at subspace dimension 3 "
        "after 4 step halvings")
    # through evolve, in the 528-state mirror sector, a zero target is never met
    pin_propagator("krylov", 0.0)
    with pytest.raises(dynamics.PropagatorError,
                       match=rf"528-state sector .* target 0 not met at subspace dimension "
                             rf"{dynamics.KRYLOV_ORDERS} "):
        dynamics.evolve(psi0, H, times)


def test_krylov_error_stays_within_the_chained_estimates(monkeypatch, pin_propagator):
    """The error at an output time is at most tol / 4 per subspace chained
    up to it, and a looser target takes no more matvecs.  The first test
    sits where the norm bound predicts, whatever the target, so a loose
    target often passes there; tested every 4 orders from order 4, a
    looser target takes fewer."""
    H, psi0 = _ising_n9()
    psi = full_space(psi0)
    count = _Counting(H, monkeypatch)
    counted = dynamics._lanczos_subspace
    for times in (np.linspace(0.0, 2e-3, 9), np.linspace(0.0, 2e-2, 41)):
        expected = _full_space_oracle(H, psi, times)
        for from_order_4 in (False, True):
            monkeypatch.setattr(dynamics, "_lanczos_subspace",
                                lambda lanczos, dts, start, scan=from_order_4:
                                counted(lanczos, dts, 4 if scan else start))
            matvecs = []
            for tol in (1e-2, 1e-5, 1e-8):
                pin_propagator(step_tol=tol)
                count.matvecs, count.served = 0, []
                states = dynamics._krylov_trajectory(count.matvec, psi, times, _norm(H))
                error = np.linalg.norm(states - expected, axis=1)
                assert error.max() <= np.count_nonzero(count.served) * tol / 4
                matvecs.append(count.matvecs)
            if from_order_4:
                assert matvecs[0] < matvecs[1] < matvecs[2]
            else:
                assert matvecs[0] <= matvecs[1] <= matvecs[2]


@pytest.mark.parametrize("n,model,flips", [(9, "xy", (2,)), (9, "xy", (2, 5)),
                                           (5, "ising", (2,))])
def test_krylov_is_exact_on_an_invariant_subspace(n, model, flips, pin_propagator):
    # sectors of 4 to 20 states: the Lanczos recursion breaks down inside
    # them, and the subspace it spans then gives every time exactly, so
    # even an error target of 0 is met
    J = ionchain.power_law_coupling(n, 1.3, J0)
    H = dynamics.build_hamiltonian(J, transverse_field=50.0 * np.abs(J.values).max(),
                                   model=model)
    psi0 = dynamics.prepare_state(n, flips)
    times = np.linspace(0.0, 0.05, 6)
    pin_propagator("dense")
    dense = dynamics.evolve(psi0, H, times)
    pin_propagator("krylov", 0.0)
    krylov = dynamics.evolve(psi0, H, times)
    np.testing.assert_allclose(krylov.states, dense.states, atol=1e-12)


def test_krylov_starts_late_and_repeats_output_times(pin_propagator):
    H, psi0 = _ising_n9()
    times = np.array([3e-4, 3e-4, 3e-4, 7e-4, 7e-4, 1e-3, 1e-3])
    pin_propagator("krylov", 1e-12)
    traj = dynamics.evolve(psi0, H, times)
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
    psi0 = dynamics.prepare_state(n, tuple(flips))
    times = np.linspace(0.0, 0.01, 21)
    served = []
    subspace = dynamics._lanczos_subspace

    class Recorded(dynamics._Lanczos):             # keeps the start it was built from
        def __init__(self, matvec, psi, V):
            super().__init__(matvec, psi, V)
            self.start = psi.copy()

    def recorded(lanczos, dts, *args):
        Y, basis, estimates = subspace(lanczos, dts, *args)
        served.append((lanczos.start, dts[:Y.shape[1]], Y.T @ basis, estimates))
        return Y, basis, estimates

    with mock.patch.object(dynamics, "_Lanczos", Recorded), \
            mock.patch.object(dynamics, "_lanczos_subspace", recorded), \
            mock.patch.object(dynamics, "STEP_TOL", tol):
        for matrix, psi in _reached_sectors(H, psi0):
            served.clear()
            dynamics._krylov_trajectory(lambda v: matrix @ v, psi, times,
                                        np.abs(matrix).sum(axis=1).max())
            w, v = np.linalg.eigh(matrix)
            for start, dts, states, estimates in served:
                assert np.all(estimates < tol / 4)
                exact = (v @ (np.exp(-1j * np.outer(w, dts)) * (v.T @ start)[:, None])).T
                error = np.linalg.norm(states - exact, axis=1)
                roundoff = ROUNDOFF_EPS * np.finfo(float).eps * (1 + np.abs(w).max() * dts)
                assert np.all(error <= estimates + roundoff), (error, estimates)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_benchmark_ising_quench_needs_at_most_300_matvecs(alpha, monkeypatch, pin_propagator):
    """The N = 13 centre flip at B = 50 max|J|, 51 points to 10 ms: the
    step-length bound stops each subspace at the order 1e-9 needs."""
    J = ionchain.power_law_coupling(13, alpha, J0)
    H = dynamics.build_hamiltonian(J, transverse_field=50.0 * np.abs(J.values).max(),
                                   model="ising")
    psi0 = dynamics.prepare_state(13, (7,))
    times = np.linspace(0.0, 0.01, 51)
    matvec, calls = dynamics.Hamiltonian.matvec, []
    monkeypatch.setattr(dynamics.Hamiltonian, "matvec",
                        lambda self, psi: calls.append(1) or matvec(self, psi))
    traj = dynamics.evolve(psi0, H, times)
    assert dynamics.STEP_TOL == 1e-9 and len(calls) <= 300
    pin_propagator(step_tol=1e-13)
    reference = dynamics.evolve(psi0, H, times)
    assert np.linalg.norm(traj.states - reference.states, axis=1).max() <= 1e-9


#: The exponents the benchmark's quench jobs draw from (1.0 to 2.0, step 0.1).
ALPHA_GRID = tuple(round(1.0 + 0.1 * k, 1) for k in range(11))


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_benchmark_ising_quench_fits_one_lanczos_subspace(alpha, monkeypatch):
    """The N = 13 centre flip at B = 50 max|J|, 51 points to 10 ms, takes
    160-176 matvecs: so many Lanczos orders reach every output time, so a
    cap of ``KRYLOV_ORDERS`` no longer restarts the subspace.  Its start is
    real, and so is every matvec."""
    J = ionchain.power_law_coupling(13, alpha, J0)
    H = dynamics.build_hamiltonian(J, transverse_field=50.0 * np.abs(J.values).max(),
                                   model="ising")
    psi0 = dynamics.prepare_state(13, (7,))
    count = _Counting(None, monkeypatch)             # the times each subspace serves
    matvec, dtypes = dynamics.Hamiltonian.matvec, []
    monkeypatch.setattr(dynamics.Hamiltonian, "matvec",
                        lambda self, psi: dtypes.append(psi.dtype) or matvec(self, psi))
    dynamics.evolve(psi0, H, np.linspace(0.0, 0.01, 51))
    assert 160 <= len(dtypes) <= 176 and count.served == [51]
    assert set(dtypes) == {np.dtype(float)}


def test_benchmark_ising_passes_decompose_at_most_20_lanczos_matrices(monkeypatch):
    """Both Ising jobs of the benchmark (the global quench at N = 11, 201
    points to 5 ms, and the N = 13 centre flip, 51 points to 10 ms, at
    B = 50 max|J|) take the matvecs of testing every 4 orders from order
    4 at every exponent of ``ALPHA_GRID``, and a pass of the two makes at
    most 20 ``eigh_tridiagonal`` calls (12 to 18), where that scan made 88 to
    94."""
    decompositions = _count_decompositions(monkeypatch)
    matvec, matvecs = dynamics.Hamiltonian.matvec, []
    monkeypatch.setattr(dynamics.Hamiltonian, "matvec",
                        lambda self, psi: matvecs.append(1) or matvec(self, psi))
    counts = {}                                     # (job, from order 4) -> per exponent
    for job, n, spec, t_end, points in (("global", 11, None, 0.005, 201),
                                        ("local", 13, (7,), 0.01, 51)):
        for alpha in ALPHA_GRID:
            J = ionchain.power_law_coupling(n, alpha, J0)
            H = dynamics.build_hamiltonian(J, transverse_field=50.0 * np.abs(J.values).max(),
                                           model="ising")
            psi0 = dynamics.prepare_state(n, spec)
            for from_order_4 in (False, True):
                decompositions.clear()
                matvecs.clear()
                _krylov_run(lambda: dynamics.evolve(psi0, H, np.linspace(0.0, t_end, points)),
                            from_order_4)
                counts.setdefault((job, from_order_4), []).append(
                    (len(matvecs), len(decompositions)))
    for job in ("global", "local"):
        assert [c[0] for c in counts[job, False]] == [c[0] for c in counts[job, True]]
    passes = [g[1] + loc[1] for g in counts["global", False] for loc in counts["local", False]]
    scans = [g[1] + loc[1] for g in counts["global", True] for loc in counts["local", True]]
    assert max(passes) <= 20 and min(scans) >= 88, (passes, scans)


def test_evolve_refuses_a_trajectory_above_the_byte_limit(monkeypatch):
    """A (T, dim) complex trajectory over ``MAX_TRAJECTORY_BYTES`` is refused
    before it is allocated, naming both counts; one at the limit runs."""
    H = dynamics.build_hamiltonian(ionchain.power_law_coupling(7, 1.3, J0), model="xy")
    psi0 = dynamics.prepare_state(7, (2, 5))
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
def test_time_zero_returns_the_initial_state_exactly(method, pin_propagator):
    """No roundoff of either propagator at t = 0, so sigma-z starts at
    exactly +-1 and never leaves [-1, 1] there.  The centre flip lies wholly
    in the + mirror sector; a flip of site 2 is split between both, whose
    halves must not add back to 1 + 2e-16."""
    J = ionchain.power_law_coupling(9, 1.3, J0)
    for model, site in (("ising", 5), ("ising", 2), ("xy", 2)):
        H = dynamics.build_hamiltonian(J, transverse_field=50.0 * np.abs(J.values).max(),
                                       model=model)
        psi0 = dynamics.prepare_state(9, (site,))
        pin_propagator(method)
        traj = dynamics.evolve(psi0, H, np.array([0.0, 1e-3]))
        np.testing.assert_array_equal(full_space(traj)[0], full_space(psi0))
        np.testing.assert_array_equal(dynamics.magnetisation(traj)[0],
                                      np.where(np.arange(1, 10) == site, 1.0, -1.0))


@pytest.mark.parametrize("n", [4, 7, 10])
@pytest.mark.parametrize("model", ["xy", "ising"])
def test_dense_sector_propagation_equals_the_complex_product(n, model, pin_propagator):
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
    pin_propagator("dense")
    states = dynamics._propagate_block(block, psi, times)
    np.testing.assert_allclose(states, expected, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the Krylov path against closed-form oracles (independent of the sector code)


#: The pinned propagator of a property test is set again by every example,
#: so the fixture's one monkeypatch may serve them all.
SHARED_PIN = dict(suppress_health_check=[HealthCheck.function_scoped_fixture])


@settings(deadline=None, max_examples=10, **SHARED_PIN)
@given(n=st.integers(4, 15), alpha=st.floats(0.5, 3.0), data=st.data())
@example(n=14, alpha=1.3, data=None)
@example(n=17, alpha=1.3, data=None)
def test_krylov_ising_at_zero_field_is_a_product_of_cosines(n, alpha, data, pin_propagator):
    """At B = 0 the sigma^x sigma^x terms commute, and from a sigma^z product
    state <sigma_i^z(t)> = s_i prod_j cos(2 J_ij t) (Foss-Feig et al., PRA 87,
    042101 (2013)).  N = 17 is the largest chain whose 2^(N-1)-state parity
    half the state limit accepts, and is always run; drawn chains stop at
    N = 15, since one N = 16 or 17 case takes 2 to 9 s on a 2-core VM."""
    flips = (2, n - 1) if data is None else data.draw(
        st.sets(st.integers(1, n), min_size=1, max_size=n), label="flips")
    J = ionchain.power_law_coupling(n, alpha, J0)
    H = dynamics.build_hamiltonian(J, model="ising")
    psi0 = dynamics.prepare_state(n, tuple(flips))
    times = np.linspace(0.0, 0.02, 6)
    pin_propagator("krylov", 1e-12)
    traj = dynamics.evolve(psi0, H, times)
    s = np.where(np.isin(np.arange(1, n + 1), list(flips)), 1.0, -1.0)
    expected = s * np.prod(np.cos(2.0 * J.values * times[:, None, None]), axis=2)
    np.testing.assert_allclose(dynamics.magnetisation(traj), expected, atol=1e-10)


@settings(deadline=None, max_examples=10, **SHARED_PIN)
@given(n=st.integers(4, 40), method=st.sampled_from(["dense", "krylov"]), data=st.data())
@example(n=14, method="krylov", data=None)
@example(n=30, method="krylov", data=None)
@example(n=40, method="dense", data=None)
@example(n=40, method="krylov", data=None)
def test_krylov_nearest_neighbour_xy_is_free_fermions(n, method, data, pin_propagator):
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
    psi0 = dynamics.prepare_state(n, tuple(flips))
    times = np.linspace(0.0, 0.05, 6)
    pin_propagator(method, 1e-12)
    traj = dynamics.evolve(psi0, H, times)
    U = np.array([[a.amplitudes for a in magnon.evolve_single_excitation(J, s, times)]
                  for s in flips])                                  # (k, T, N)
    density = np.sum(np.abs(U) ** 2, axis=0)
    np.testing.assert_allclose(dynamics.magnetisation(traj), 2.0 * density - 1.0,
                               atol=1e-10)


def test_auto_method_takes_each_side_of_the_dense_limit(pin_propagator):
    """The cost rule sends one sector size to each side by the window: the
    two 528-state sectors of a global quench at N = 11 (power law with
    alpha = 1.5, B = 50 max|J|, 201 points) go to Krylov over 5 ms and to
    the dense eigendecomposition over 50 ms, whose ten times more phase
    takes about four times the Lanczos orders.  N = 7 quenches stay dense.
    The Krylov side agrees with the sectors' dense propagation to its error
    target."""
    krylov_trajectory, eigensystem = dynamics._krylov_trajectory, dynamics.Hamiltonian.eigensystem
    ran = []

    def krylov(matvec, psi, *args, **kwargs):
        ran.append(("krylov", psi.size))
        return krylov_trajectory(matvec, psi, *args, **kwargs)

    def dense(self):
        ran.append(("dense", self.dim))
        return eigensystem(self)

    def propagators(n, spec, t_end):
        J = ionchain.power_law_coupling(n, 1.5, J0)
        H = dynamics.build_hamiltonian(J, transverse_field=50.0 * np.abs(J.values).max(),
                                       model="ising")
        ran.clear()
        with mock.patch.object(dynamics, "_krylov_trajectory", krylov), \
                mock.patch.object(dynamics.Hamiltonian, "eigensystem", dense):
            traj = dynamics.evolve(dynamics.prepare_state(n, spec), H,
                                   np.linspace(0.0, t_end, 201))
        return list(ran), traj

    short, chosen = propagators(11, None, 0.005)
    assert short == [("krylov", 528), ("krylov", 528)]
    assert propagators(11, None, 0.05)[0] == [("dense", 528), ("dense", 528)]
    choice, reason = dynamics._propagator(528, 27888, 1.06e5, 0.05, 201)   # those sectors
    assert choice == "dense" and reason.startswith("dense: about ") and "for krylov" in reason
    for spec in (None, (2,), (4,)):
        assert {name for name, _ in propagators(7, spec, 0.005)[0]} == {"dense"}
    pin_propagator("dense")
    forced, exact = propagators(11, None, 0.005)
    assert forced == [("dense", 528), ("dense", 528)]
    np.testing.assert_array_equal(chosen.basis, exact.basis)
    np.testing.assert_allclose(chosen.states, exact.states, rtol=0, atol=1e-9)


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
    traj = dynamics.evolve(dynamics.prepare_state(n, flips or None), H,
                           np.linspace(0.0, 0.01, 5))
    np.testing.assert_allclose(np.linalg.norm(traj.states, axis=1), 1.0, rtol=0, atol=1e-10)
    weights = np.array([sector_weights(traj.state(t))
                        for t in range(traj.times.size)])                     # (T, N + 1)
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
    psi = dynamics.prepare_state(4)
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


@pytest.mark.parametrize("model,spec", [("xy", ((2, 5),)),     # prepare_state's sites
                                        ("ising", ())])
def test_trajectory_observables_match_per_state_results(model, spec):
    n = 6
    H = dynamics.build_hamiltonian(_coupling(random_coupling(n, seed=41)),
                                   transverse_field=70.0, model=model)
    traj = dynamics.evolve(dynamics.prepare_state(n, *spec), H, np.linspace(0, 0.01, 7))
    mag = dynamics.magnetisation(traj)
    corr = dynamics.two_point_correlations(traj)
    assert mag.shape == (7, n) and corr.shape == (7, n, n)
    for k in range(traj.times.size):
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


@pytest.mark.parametrize("model,spec", [("xy", ((2, 5, 6),)),     # prepare_state's sites
                                        ("ising", ())])
def test_correlations_in_blocks_of_rows_equal_the_per_site_formula(model, spec, monkeypatch):
    """The one product over blocks of basis rows gives C_ij of the N
    per-site products p @ (z z_i) to 1e-15 (|<z_i z_j>| <= 1), with block
    boundaries inside the 84 three-flip XY states and the 256 Ising ones."""
    n = 9 if model == "xy" else 8
    H = dynamics.build_hamiltonian(_coupling(random_coupling(n, seed=43)),
                                   transverse_field=70.0, model=model)
    traj = dynamics.evolve(dynamics.prepare_state(n, *spec), H, np.linspace(0, 0.01, 7))
    assert traj.basis.size == (84 if model == "xy" else 256)
    monkeypatch.setattr(dynamics, "_CORRELATION_CHUNK", 30 * n * (n + 1) // 2)
    z = 2.0 * ((traj.basis[:, None] >> np.arange(n)) & 1) - 1.0
    p = np.abs(traj.states) ** 2
    m = p @ z
    expected = (np.stack([p @ (z * z[:, [i]]) for i in range(n)], axis=-2)
                - m[..., :, None] * m[..., None, :])
    np.testing.assert_allclose(dynamics.two_point_correlations(traj), expected,
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(dynamics.two_point_correlations(traj.state(4)), expected[4],
                               rtol=0, atol=1e-15)


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
    state = dynamics.prepare_state(n)
    weights = sector_weights(state)
    from math import comb
    np.testing.assert_allclose(weights, [comb(n, k) / 2 ** n for k in range(n + 1)],
                               atol=1e-12)


@settings(deadline=None, max_examples=20)
@given(t=st.floats(min_value=0.0, max_value=0.05))
def test_xy_evolution_conserves_excitation_number(t):
    n = 5
    J = ionchain.power_law_coupling(n, 1.3, J0)
    H = dynamics.build_hamiltonian(J, model="xy")
    psi0 = dynamics.prepare_state(n, (2, 4))
    traj = dynamics.evolve(psi0, H, np.array([t]))
    weights = sector_weights(traj.state(0))
    assert weights[2] == pytest.approx(1.0, abs=1e-10)


def test_trajectory_state_round_trip():
    n = 3
    J = ionchain.nearest_neighbour_coupling(n, J0)
    H = dynamics.build_hamiltonian(J, model="xy")
    psi0 = dynamics.prepare_state(n, (2,))
    traj = dynamics.evolve(psi0, H, np.linspace(0, 0.01, 4))
    assert traj.times.size == 4
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
        psi0 = dynamics.prepare_state(n, (10, 15, 20))
        traj = dynamics.evolve(psi0, H, np.linspace(0.0, 0.02, 51))
        mag = dynamics.magnetisation(traj)
        corr = dynamics.two_point_correlations(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.basis.size == 4060 and corr.shape == (51, n, n)
    assert peak < 50e6, f"peak {peak / 1e6:.1f} MB"
    np.testing.assert_allclose(mag.sum(axis=1), 6.0 - n, atol=1e-9)
