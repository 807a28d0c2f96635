import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidmimo import (FluidMimoConfig, IpmFailure, OverallChannel, SolverStats, build_lp,
                       generate_channel)
from fluidmimo.ipm import (_cho_factor_bumped, _cho_solve, _KktSolver, _Layout,
                           solve_epigraph_lp)
from scipy.linalg import cho_factor, cho_solve

from conftest import random_instance


def dense_constraint_matrix(lp):
    """A assembled explicitly from its definition, for cross-checks."""
    nx, ny, nt = lp.n_x, lp.n_y, lp.n_edges
    n = nx + ny + 3 * nt
    m = lp.m_r + lp.m_t + 2 * nt
    a = np.zeros((m, n))
    for r in range(nx):
        a[r // lp.n_r, r] = 1.0                 # receive antenna of port r
    for c in range(ny):
        a[lp.m_r + c // lp.n_t, nx + c] = 1.0   # transmit antenna of port c
    for e in range(nt):
        row1 = lp.m_r + lp.m_t + e
        row2 = row1 + nt
        a[row1, nx + ny + e] = 1.0            # t
        a[row1, nx + ny + nt + e] = 1.0       # s
        a[row1, lp.t_rows[e]] = -1.0          # -x
        a[row2, nx + ny + e] = 1.0            # t
        a[row2, nx + ny + 2 * nt + e] = 1.0   # w
        a[row2, nx + lp.t_cols[e]] = -1.0     # -y
    return a


@pytest.mark.parametrize("scaling", ["benign", "extreme"])
def test_kkt_solver_matches_dense_augmented_system(rng, scaling):
    for _ in range(8):
        ch = random_instance(rng, m_max=2, n_max=4)
        lp = build_lp(ch)
        a = dense_constraint_matrix(lp)
        n = a.shape[1]
        m = a.shape[0]
        if scaling == "benign":
            theta = rng.uniform(0.5, 2.0, n)
        else:
            theta = np.exp(rng.uniform(-1, 1, n)) * 10.0 ** rng.choice([-8, -4, 0, 4, 8], n)
        f = rng.standard_normal(n)
        g = rng.standard_normal(m)
        dv, dlam = _KktSolver(_Layout(lp), theta).solve(f, g)
        aug = np.block([[np.diag(-theta), a.T], [a, np.zeros((m, m))]])
        ref = np.linalg.solve(aug, np.concatenate([f, g]))
        sol = np.concatenate([dv, dlam])
        assert np.abs(sol - ref).max() <= 1e-6 * max(1.0, np.abs(ref).max())


def test_residuals_are_small_even_under_extreme_scaling(rng):
    # the raw KKT residual is what the interior-point loop actually needs
    ch = random_instance(rng, m_max=2, n_max=6)
    lp = build_lp(ch)
    a = dense_constraint_matrix(lp)
    n, m = a.shape[1], a.shape[0]
    theta = np.exp(rng.uniform(-1, 1, n)) * 10.0 ** rng.choice([-10, -5, 0, 5, 10], n)
    f = rng.standard_normal(n)
    g = rng.standard_normal(m)
    dv, dlam = _KktSolver(_Layout(lp), theta).solve(f, g)
    res_dual = -theta * dv + a.T @ dlam - f
    res_primal = a @ dv - g
    scale = max(1.0, np.abs(dv).max(), np.abs(dlam).max())
    assert np.abs(res_primal).max() <= 1e-7 * scale
    assert np.abs(res_dual).max() <= 1e-6 * scale * max(1.0, theta.max()) ** 0.5


def test_tight_convergence_on_random_instances(rng):
    for _ in range(20):
        ch = random_instance(rng, m_max=3, n_max=6)
        sol = solve_epigraph_lp(build_lp(ch))
        assert sol.stats.duality_gap <= 1e-7
        assert sol.stats.primal_residual <= 1e-8
        assert sol.stats.dual_residual <= 1e-8
        assert sol.objective >= 0.0


def test_iteration_counts_stay_modest(rng):
    worst = 0
    for _ in range(15):
        ch = random_instance(rng, m_max=2, n_max=8)
        sol = solve_epigraph_lp(build_lp(ch))
        worst = max(worst, sol.stats.iterations)
    assert worst <= 30


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6),
                       st.integers(1, 30), st.integers(1, 30)),
       w=st.sampled_from([0.0, 1e-6, 0.5, 5.0, 100.0]),
       gain_scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e200]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_lp_certifies_or_fails_cleanly(shape, w, gain_scale, seed):
    # the certification contract of solve_epigraph_lp over shapes, port
    # spacings and gain magnitudes: a certified optimum or an IpmFailure
    # carrying the stats, never another exception
    m_r, m_t, n_r, n_t = shape
    cfg = FluidMimoConfig(m_r=m_r, m_t=m_t, n_r=n_r, n_t=n_t, w=w)
    ch = OverallChannel(cfg, generate_channel(cfg, seed).entries * np.sqrt(gain_scale))
    try:
        sol = solve_epigraph_lp(build_lp(ch))
    except IpmFailure as exc:
        assert isinstance(exc.stats, SolverStats)
        return
    assert sol.stats.duality_gap <= 1e-7
    assert sol.stats.primal_residual <= 1e-8
    assert sol.stats.dual_residual <= 1e-8
    assert np.isfinite(sol.objective) and sol.objective >= 0.0


def scipy_factor_bumped(mat):
    """The bumped factorization through scipy's cho_factor, as the solver
    made it before it called LAPACK itself: the reference for bit identity."""
    bump, bumped = 1e-14, mat
    while True:
        try:
            return cho_factor(bumped)
        except np.linalg.LinAlgError:
            scale = max(1.0, float(np.max(np.abs(np.diagonal(mat)))))
            bumped = bumped.copy()
            bumped[np.diag_indices_from(bumped)] += bump * scale
            bump *= 100.0


def spd_matrices(rng):
    """SPD matrices of the solver's sizes and scalings, the last two of
    which dpotrf cannot factor without a diagonal bump."""
    for size in (2, 5, 40, 80):
        root = rng.standard_normal((size, size))
        yield root @ root.T + size * np.eye(size)
        scale = 10.0 ** rng.uniform(-8, 8, size)
        yield (root @ root.T + np.eye(size)) * np.outer(scale, scale)
    ones = rng.standard_normal(6)
    yield np.outer(ones, ones)                       # rank one
    root = rng.standard_normal((30, 3))
    yield root @ root.T                              # rank three


def test_lapack_calls_match_scipy_wrappers(rng):
    bumped = 0
    for mat in spd_matrices(rng):
        bumped += dpotrf(mat, lower=0, overwrite_a=0, clean=0)[1] != 0
        ref, lower = scipy_factor_bumped(mat)
        factor = _cho_factor_bumped(mat)
        assert not lower and np.array_equal(factor, ref)
        for b in (rng.standard_normal(len(mat)), rng.standard_normal((len(mat), 4))):
            assert np.array_equal(_cho_solve(factor, b), cho_solve((ref, lower), b))
    assert bumped == 2  # the bump path ran


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_finiteness_guard_raises_lin_alg_error(rng, bad):
    root = rng.standard_normal((5, 5))
    mat = root @ root.T + np.eye(5)
    factor = _cho_factor_bumped(mat)
    b = rng.standard_normal(5)
    b[2] = bad
    with pytest.raises(np.linalg.LinAlgError, match="inf or NaN"):
        _cho_solve(factor, b)
    for i, j in ((0, 0), (1, 3), (3, 1)):   # diagonal, upper, lower triangle
        broken = mat.copy()
        broken[i, j] = bad
        # silenced as inside solve_epigraph_lp: the diagonal bump of a
        # non-finite matrix is not finite either
        with pytest.raises(np.linalg.LinAlgError), np.errstate(invalid="ignore"):
            _cho_factor_bumped(broken)


@pytest.mark.parametrize("n, gain, message", [
    (30, 1.7e308, "no finite starting point"),   # the cost sums overflow
    (6, 1e200, "failed to converge"),            # the Newton systems overflow
])
def test_overflowing_costs_fail_with_stats(n, gain, message):
    cfg = FluidMimoConfig(m_r=2, m_t=2, n_r=n, n_t=n)
    ch = OverallChannel(cfg, np.full((2 * n, 2 * n), np.sqrt(gain), dtype=complex))
    with pytest.raises(IpmFailure, match=message) as err:
        solve_epigraph_lp(build_lp(ch))
    assert isinstance(err.value.stats, SolverStats)
