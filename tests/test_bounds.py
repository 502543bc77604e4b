"""The test-side Lieb-Robinson oracles, the bound across the nearest-neighbour
ladder, and the NN cone reference."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

from conftest import lr_bound_bessel, lr_bound_series, path_count
from magnonchain import bounds, dynamics, ionchain, magnon

J0 = 2 * np.pi * 30.0


def _bessel_i(order, x):
    """I_order(x) as the closed-form oracle evaluates it: F(d, t) / 2 at
    4 g |t| = x (x / 4 and its product with 4 are exact)."""
    return float(lr_bound_bessel(order, x / 4.0, 1.0)) / 2.0


# ---------------------------------------------------------------------------
# path counting


def test_path_count_by_hand():
    assert path_count(0, 0) == 1
    assert path_count(3, 3) == 1          # only the direct walk
    assert path_count(4, 2) == 4          # C(4, 1)
    assert path_count(6, 0) == 20         # C(6, 3)
    assert path_count(5, 2) == 0          # parity mismatch
    assert path_count(2, 5) == 0          # too few steps


def test_path_count_total_over_distances():
    # summing C(m, (m-d)/2) over all reachable d (signed) gives 2^m
    m = 9
    total = path_count(m, 0) + 2 * sum(path_count(m, d) for d in range(1, m + 1))
    # d = 0 unreachable for odd m; count signed displacements
    assert total == 2 ** m


# ---------------------------------------------------------------------------
# the closed form, e^x ive(d, x), against independent references


@pytest.mark.parametrize("order", [0, 1, 2, 5, 10])
def test_bessel_series_region_against_scipy(order):
    for x in np.linspace(0.0, 90.0, 19):
        ref = float(special.iv(order, x))
        assert _bessel_i(order, float(x)) == pytest.approx(ref, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("x", [150.0, 400.0, 700.0])
def test_bessel_asymptotic_region_against_scipy(x):
    for order in (0, 1, 3, 8):
        assert _bessel_i(order, x) == pytest.approx(float(special.iv(order, x)), rel=1e-12)


@pytest.mark.parametrize("order", [0, 15, 20, 35, 50, 60])
def test_bessel_high_order_against_path_count_series(order):
    # order^2 ~ x is where a large-argument expansion breaks down; the
    # path-count series F(d, t) = 2 I_d(4 g t) converges up to x ~ 700
    for x in (50.0, 101.0, 150.0, 300.0, 700.0):
        series = lr_bound_series(order, x / 4.0, 1.0, m_max=2000, rtol=1e-15)
        assert _bessel_i(order, x) == pytest.approx(series / 2.0, rel=1e-12)


def _scaled_bessel_by_quadrature(order: int, x: float, points: int = 4096) -> float:
    """e^-x I_order(x) = (1/2pi) int e^(x (cos th - 1)) cos(order th) dth over a
    period; the trapezoid rule is exact here up to aliased terms of order
    e^-x I_(points - order)(x), far below double precision."""
    theta = 2.0 * np.pi * np.arange(points) / points
    return float(np.mean(np.exp(x * (np.cos(theta) - 1.0)) * np.cos(order * theta)))


@pytest.mark.parametrize("order", [0, 1, 20, 45, 60])
def test_bessel_beyond_overflow_against_quadrature(order):
    # the quadrature stays an independent oracle up to where e^x overflows
    # (x ~ 709); past it the closed form is inf, never nan
    expected = math.exp(700.0) * _scaled_bessel_by_quadrature(order, 700.0)
    assert _bessel_i(order, 700.0) == pytest.approx(expected, rel=1e-10)
    with np.errstate(over="ignore"):
        assert np.isinf(_bessel_i(order, 850.0))
        assert np.isinf(_bessel_i(order, 1000.0))


@settings(deadline=None, max_examples=40)
@given(order=st.integers(min_value=0, max_value=12),
       # scipy.special.iv underflows to 0 (or NaN on subnormals) once the
       # result drops below ~1e-270, so keep x out of that corner
       x=st.floats(min_value=1e-18, max_value=300.0))
def test_bessel_matches_scipy_everywhere(order, x):
    assert _bessel_i(order, x) == pytest.approx(float(special.iv(order, x)), rel=1e-11,
                                                abs=1e-300)


def test_bessel_tiny_argument_leading_term():
    # below iv's underflow threshold the scaled route still returns the
    # leading Taylor term (x/2)^n / n!
    assert _bessel_i(7, 1e-40) == pytest.approx(1.5500992063492054e-286, rel=1e-12)
    assert _bessel_i(0, 1e-200) == pytest.approx(1.0, rel=1e-15)


# ---------------------------------------------------------------------------
# the path-count series


def test_series_value_at_zero_time():
    # only the m = 0 term survives: F(0, 0) = 2, F(d>0, 0) = 0
    assert lr_bound_series(0, 0.0, 5.0) == 2.0
    assert lr_bound_series(3, 0.0, 5.0) == 0.0


def test_series_reports_truncation():
    # a converged sum is the closed form; one cut short is refused, not returned
    assert lr_bound_series(1, 0.01, J0) == pytest.approx(lr_bound_bessel(1, 0.01, J0),
                                                         rel=1e-12)
    with pytest.raises(RuntimeError, match="not converged"):
        lr_bound_series(0, 10.0, J0, m_max=10)


@settings(deadline=None, max_examples=30)
@given(d=st.integers(min_value=0, max_value=8),
       t=st.floats(min_value=1e-6, max_value=0.02))
def test_bound_decreases_with_distance(d, t):
    # deeper into the cone the bound can only shrink
    assert lr_bound_bessel(d + 1, t, J0) <= lr_bound_bessel(d, t, J0)


@settings(deadline=None, max_examples=30)
@given(d=st.integers(min_value=0, max_value=6))
def test_bound_grows_with_time(d):
    vals = lr_bound_bessel(d, np.linspace(1e-4, 0.03, 10), J0)
    assert all(a <= b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# NN cone reference


@pytest.mark.parametrize("n,jbar", [(2, J0), (3, J0), (9, J0), (201, J0), (9, -J0), (9, 0.0)],
                         ids=["n2", "n3", "n9", "n201", "negative", "zero"])
def test_nn_lightcone_of_uniform_chain(n, jbar):
    """The closed-form cone velocity is that of the diagonalized chain (0
    when there is no coupling)."""
    J = ionchain.nearest_neighbour_coupling(n, jbar)
    params = bounds.nn_lightcone(J)
    assert params.g == pytest.approx(abs(jbar))
    assert params.jbar == pytest.approx(jbar)
    if jbar == 0.0:
        assert params.v == 0.0
        return
    spec = magnon.diagonalize_magnons(J)
    assert params.v == pytest.approx(magnon.max_group_velocity(spec.energies), rel=1e-12)


def test_nn_lightcone_uses_mean_bond_of_nonuniform_chain():
    J = ionchain.power_law_coupling(9, 1.5, J0)
    params = bounds.nn_lightcone(J)
    assert params.jbar == pytest.approx(J0)      # power law: first diagonal is flat
    assert params.g == pytest.approx(J0)


def test_cone_arrival_times():
    params = bounds.LightConeParams(g=1.0, v=200.0, jbar=1.0)
    np.testing.assert_allclose(bounds.cone_arrival_times(params, [1, 2, 4]),
                               [0.005, 0.01, 0.02])
    frozen = bounds.LightConeParams(g=1.0, v=0.0, jbar=1.0)
    assert np.all(np.isinf(bounds.cone_arrival_times(frozen, [1, 2])))


@pytest.mark.parametrize("propagator,top", [("evolve", 63), ("magnon", 501)])
@settings(deadline=None, max_examples=8)
@given(data=st.data())
@example(data=None)
def test_lr_bound_holds_across_the_nearest_neighbour_ladder(propagator, top, data):
    """After one flip in a nearest-neighbour XY chain, |change in <sigma_z>|
    at distance d never exceeds 2 F(d, t) = 4 I_d(4 J0 t).  The full-space
    propagator runs N = 5..63 (63 sites is the most a basis state holds),
    the single-excitation one N = 5..501; the largest of each always runs,
    with a centre flip."""
    if data is None:
        n, flip = top, (top + 1) // 2
    else:
        n = data.draw(st.integers(5, top), label="n")
        flip = data.draw(st.integers(1, n), label="flip")
    J = ionchain.nearest_neighbour_coupling(n, J0)
    times = np.linspace(0.0, 0.02, 21)
    if propagator == "evolve":
        psi0 = dynamics.prepare_state(n, (flip,))
        traj = dynamics.evolve(psi0, dynamics.build_hamiltonian(J, model="xy"), times)
        mag = dynamics.magnetisation(traj)
    else:
        mag = np.vstack([2.0 * np.abs(s.amplitudes) ** 2 - 1.0
                         for s in magnon.evolve_single_excitation(J, flip, times)])
    start = np.full(n, -1.0)
    start[flip - 1] = 1.0
    distance = np.abs(np.arange(1, n + 1) - flip)
    bound = 2.0 * lr_bound_bessel(distance, times[:, None], J0)
    # 1e-12 absolute slack: at t = 0 the bound of d > 0 is exactly zero
    assert (np.abs(mag - start) <= bound + 1e-12).all()
