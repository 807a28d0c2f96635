import numpy as np
import pytest

from fluidmimo import (
    FluidMimoConfig,
    IpmFailure,
    OverallChannel,
    build_lp,
    generate_channel,
    solve_jcr,
    surrogate_u,
)
from fluidmimo.ipm import solve_epigraph_lp

from conftest import make_channel, random_instance
from oracles import binary_u_max, grid_u_max_2x2


class TestBuildLp:
    def test_singleton_counts(self):
        lp = build_lp(make_channel([[0.7]], 1, 1, 1, 1))
        assert (lp.m_r * lp.n_r, lp.m_t * lp.n_t, len(lp.t_costs)) == (1, 1, 1)

    def test_two_port_counts(self):
        lp = build_lp(make_channel(np.ones((2, 2)), 1, 1, 2, 2))
        assert (lp.m_r * lp.n_r, lp.m_t * lp.n_t, len(lp.t_costs)) == (2, 2, 4)

    def test_zero_entries_dropped(self):
        lp = build_lp(make_channel([[1.0, 0.0], [0.0, 2.0]], 1, 1, 2, 2))
        assert len(lp.t_costs) == 2
        assert set(zip(lp.t_rows.tolist(), lp.t_cols.tolist())) == {(0, 0), (1, 1)}

    def test_all_zero_channel(self):
        lp = build_lp(make_channel(np.zeros((2, 2)), 1, 1, 2, 2))
        assert len(lp.t_costs) == 0
        sol = solve_epigraph_lp(lp)
        assert sol.objective == pytest.approx(0.0, abs=1e-9)

    def test_all_zero_channel_full_solve(self):
        relaxed = solve_jcr(make_channel(np.zeros((2, 2)), 1, 1, 2, 2))
        assert relaxed.u_star == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(relaxed.x_hat.sum(), 1.0, atol=1e-8)


class TestSolveJcr:
    def test_diagonal_instance(self):
        # gains [[1, 0], [0, 2]]: all weight on the second port pair
        ch = make_channel([[1.0, 0.0], [0.0, np.sqrt(2.0)]], 1, 1, 2, 2)
        sol = solve_jcr(ch)
        assert sol.u_star == pytest.approx(2.0, abs=1e-6)
        assert np.allclose(sol.x_hat, [0.0, 1.0], atol=1e-6)
        assert np.allclose(sol.y_hat, [0.0, 1.0], atol=1e-6)

    def test_all_ones_gap_instance(self):
        # fractional optimum 2.0 at (1/2, 1/2) strictly beats the binary max 1.0
        ch = make_channel(np.ones((2, 2)), 1, 1, 2, 2)
        sol = solve_jcr(ch)
        assert sol.u_star == pytest.approx(grid_u_max_2x2(np.ones((2, 2))), abs=2e-3)
        assert sol.u_star == pytest.approx(2.0, abs=1e-6)
        assert binary_u_max(ch) == pytest.approx(1.0, abs=1e-12)

    def test_grid_oracle_on_random_2x2(self, rng):
        for _ in range(10):
            gains = rng.uniform(0.0, 3.0, size=(2, 2))
            ch = make_channel(np.sqrt(gains), 1, 1, 2, 2)
            sol = solve_jcr(ch)
            assert sol.u_star == pytest.approx(grid_u_max_2x2(gains), abs=2e-3)

    def test_dominates_binary_enumeration(self, rng):
        for _ in range(40):
            ch = random_instance(rng, m_max=2, n_max=4)
            sol = solve_jcr(ch)
            assert sol.u_star >= binary_u_max(ch) - 1e-6

    def test_objective_matches_surrogate(self, rng):
        for _ in range(25):
            ch = random_instance(rng, m_max=2, n_max=4)
            sol = solve_jcr(ch)
            u = surrogate_u(ch, sol.x_hat, sol.y_hat)
            assert abs(sol.u_star - u) <= 1e-6 * max(1.0, abs(sol.u_star))

    def test_feasibility_of_returned_weights(self, rng):
        for _ in range(25):
            ch = random_instance(rng, m_max=3, n_max=5)
            c = ch.config
            sol = solve_jcr(ch)
            assert sol.x_hat.min() >= 0.0 and sol.x_hat.max() <= 1.0
            assert np.allclose(sol.x_hat.reshape(c.m_r, c.n_r).sum(axis=1), 1.0, atol=1e-8)
            assert np.allclose(sol.y_hat.reshape(c.m_t, c.n_t).sum(axis=1), 1.0, atol=1e-8)

    def test_solver_stats_meet_contract(self, rng):
        for _ in range(15):
            ch = random_instance(rng, m_max=2, n_max=5)
            stats = solve_jcr(ch).solver_stats
            assert stats.duality_gap <= 1e-7
            assert stats.primal_residual <= 1e-8
            assert stats.iterations >= 1

    def test_repeat_solve_is_bit_identical(self, rng):
        # one relaxation per channel is shared between heuristics and SNR
        # points; that gives the same records only if a re-solve would
        # return the very same weights
        for _ in range(15):
            ch = random_instance(rng, m_max=3, n_max=6)
            first, second = solve_jcr(ch), solve_jcr(OverallChannel(ch.config, ch.entries.copy()))
            assert first.x_hat.tobytes() == second.x_hat.tobytes()
            assert first.y_hat.tobytes() == second.y_hat.tobytes()
            assert first.u_star == second.u_star

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("seed", range(5))
    def test_copied_port_gets_equal_weight(self, m, seed):
        # the interior (non-vertex) optimum treats identical ports alike;
        # a vertex optimum would put the weight on one of them
        cfg = FluidMimoConfig(m_r=m, m_t=m, n_r=6, n_t=6, snr_db=5.0, w=0.5)
        entries = generate_channel(cfg, seed).entries.copy()
        entries[4] = entries[1]  # receive antenna 0: port 5 copies port 2
        sol = solve_jcr(OverallChannel(cfg, entries))
        assert sol.x_hat[4] == sol.x_hat[1]

    def test_failure_carries_stats(self, rng):
        ch = random_instance(rng, m_max=2, n_max=4)
        with pytest.raises(IpmFailure) as err:
            solve_jcr(ch, max_iter=1)
        assert err.value.stats.iterations <= 1


class TestUniformOptimum:
    """At M >= 2 and N >= 10 the uniform point, 1/N on every port, is an
    LP optimum, so u_star = sum |g|^2 / N, and the solver returns it (to
    ~1e-9 relative), not a vertex of the optimal face. jcr-res and jcr-ao
    rank ports by how the iterates approach this interior point."""

    @pytest.mark.parametrize("m, n", [(2, 10), (2, 20), (3, 10)])
    @pytest.mark.parametrize("w", [0.5, 5.0])
    def test_u_star_is_the_uniform_value(self, m, n, w):
        for seed in range(3):
            ch = generate_channel(FluidMimoConfig(m_r=m, m_t=m, n_r=n, n_t=n, w=w), seed)
            uniform = float(np.sum(np.abs(ch.entries) ** 2)) / n
            sol = solve_jcr(ch)
            assert sol.u_star == pytest.approx(uniform, rel=1e-8, abs=0)
            for weights in (sol.x_hat, sol.y_hat):
                np.testing.assert_allclose(weights, 1.0 / n, rtol=1e-7, atol=0)


class TestKktCertificate:
    def test_duals_price_the_simplex_budgets(self, rng):
        # strong duality: antenna prices sum to the optimum
        for _ in range(15):
            ch = random_instance(rng, m_max=2, n_max=4)
            sol = solve_jcr(ch)
            total = float(np.sum(sol.rx_duals) + np.sum(sol.tx_duals))
            assert total == pytest.approx(sol.u_star, rel=1e-6, abs=1e-6)

    def test_complementary_slackness(self, rng):
        for _ in range(15):
            ch = random_instance(rng, m_max=2, n_max=4)
            lp = build_lp(ch)
            sol = solve_epigraph_lp(lp)
            primal = np.concatenate([
                sol.x, sol.y, sol.t,
                sol.x[lp.t_rows] - sol.t,      # slack of t <= x
                sol.y[lp.t_cols] - sol.t,      # slack of t <= y
            ])
            assert float(np.max(np.abs(primal * sol.reduced_costs))) <= 1e-6
            assert sol.stats.complementarity <= 1e-6

    def test_dual_feasibility_by_column(self, rng):
        # A^T lam + z = c column by column, in the maximize convention: a
        # port's reduced cost is its antenna's budget price less the coupling
        # prices of its edges, and the slack of t_e <= x[row_e] (y[col_e])
        # has reduced cost coupling_duals_x[e] (coupling_duals_y[e])
        for _ in range(10):
            ch = random_instance(rng, m_max=3, n_max=4)
            lp = build_lp(ch)
            sol = solve_epigraph_lp(lp)
            nx, ny, ne = lp.m_r * lp.n_r, lp.m_t * lp.n_t, len(lp.t_costs)
            z_x, z_y, z_t, z_s, z_w = np.split(sol.reduced_costs,
                                               np.cumsum([nx, ny, ne, ne]))
            cdx, cdy = sol.coupling_duals_x, sol.coupling_duals_y
            ant_x, ant_y = np.arange(nx) // lp.n_r, np.arange(ny) // lp.n_t
            tol = dict(rtol=0, atol=1e-7)
            np.testing.assert_allclose(
                z_x, sol.rx_duals[ant_x] - np.bincount(lp.t_rows, cdx, nx), **tol)
            np.testing.assert_allclose(
                z_y, sol.tx_duals[ant_y] - np.bincount(lp.t_cols, cdy, ny), **tol)
            np.testing.assert_allclose(z_t, cdx + cdy - lp.t_costs, **tol)
            np.testing.assert_allclose(z_s, cdx, **tol)
            np.testing.assert_allclose(z_w, cdy, **tol)

    def test_coupling_duals_sign_and_cover(self, rng):
        ch = random_instance(rng, m_max=2, n_max=3)
        lp = build_lp(ch)
        sol = solve_epigraph_lp(lp)
        # maximize-form prices of <= rows are nonnegative, and each edge's
        # pair covers its cost (dual feasibility of the t_e column)
        assert np.all(sol.coupling_duals_x >= -1e-8)
        assert np.all(sol.coupling_duals_y >= -1e-8)
        assert np.all(sol.coupling_duals_x + sol.coupling_duals_y >= lp.t_costs - 1e-6)


class TestScaleCovariance:
    def test_u_star_scales_linearly(self, rng):
        for alpha in (0.25, 3.0, 40.0):
            ch = random_instance(rng, m_max=2, n_max=4)
            sol = solve_jcr(ch)
            scaled = make_channel(np.sqrt(alpha) * ch.entries, ch.config.m_r,
                                  ch.config.m_t, ch.config.n_r, ch.config.n_t)
            sol_scaled = solve_jcr(scaled)
            assert sol_scaled.u_star == pytest.approx(alpha * sol.u_star, rel=1e-6)
            # optima may be non-unique: compare by objective cross-evaluation
            cross = alpha * surrogate_u(ch, sol_scaled.x_hat, sol_scaled.y_hat)
            assert cross == pytest.approx(sol_scaled.u_star, rel=1e-6)
            back = surrogate_u(scaled, sol.x_hat, sol.y_hat)
            assert back == pytest.approx(sol_scaled.u_star, rel=1e-6)
