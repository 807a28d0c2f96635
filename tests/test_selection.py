import math

import numpy as np
import pytest

from fluidmimo import (
    CombinationCapError,
    FluidMimoConfig,
    PortSelection,
    RelaxedSolution,
    ao_round,
    capacity,
    capacity_upper_bound,
    conventional_mimo,
    exhaustive_search,
    extract_effective,
    generate_channel,
    jcr_ao,
    jcr_res,
    random_selection,
    solve_jcr,
)
from fluidmimo.ipm import SolverStats
from fluidmimo.selection import (
    SelectionResult,
    _batch_capacities,
    _combinations,
    _paired_capacities,
    _top_ports,
    combination_count,
    default_random_samples,
    reduced_port_count,
)

from conftest import make_channel, random_instance
from oracles import loop_coordinate_ascent, loop_exhaustive


def _relaxed(x_hat, y_hat, m_r, n_r, m_t, n_t):
    stats = SolverStats(0, 0.0, 0.0, 0.0, 0.0)
    return RelaxedSolution(
        x_hat=np.asarray(x_hat, float), y_hat=np.asarray(y_hat, float),
        u_star=0.0, solver_stats=stats,
        rx_duals=np.zeros(m_r), tx_duals=np.zeros(m_t),
        m_r=m_r, m_t=m_t, n_r=n_r, n_t=n_t)


class TestExhaustive:
    def test_scalar_largest_gain_wins(self):
        ch = make_channel([[1.0, 0.0], [0.0, 3.0]], 1, 1, 2, 2)
        res = exhaustive_search(ch, 1.0)
        assert res.selection == PortSelection((2,), (2,))
        assert res.capacity_bits == pytest.approx(np.log2(10.0), abs=1e-12)
        assert res.evaluations == 4

    def test_zero_channel_tie_rule(self):
        ch = make_channel(np.zeros((4, 4)), 2, 2, 2, 2)
        res = exhaustive_search(ch, 1.0)
        assert res.selection == PortSelection((1, 1), (1, 1))
        assert res.capacity_bits == 0.0

    def test_matches_loop_oracle(self, rng):
        # m_max = 3 reaches the Cholesky branch (Gram size 3) and the
        # m_t < m_r Gram side as well as the closed forms
        for _ in range(25):
            ch = random_instance(rng, m_max=3, n_max=3)
            rho = ch.config.rho

            def eval_sel(rx, tx):
                return capacity(extract_effective(ch, PortSelection(rx, tx)), rho)

            _val, rx, tx = loop_exhaustive(ch, rho, eval_sel)
            res = exhaustive_search(ch, rho)
            assert res.selection == PortSelection(rx, tx)

    def test_equal_ports_tie_on_first_combination(self):
        # W = 0 puts every port of an antenna on the same coefficient, so
        # all combinations tie at one nonzero capacity
        base = np.array([[1.0 + 0.5j, -0.3j, 0.2],
                         [0.7, 1.1 - 0.2j, -0.4 + 0.1j]])
        ch = make_channel(np.kron(base, np.ones((3, 4))), 2, 3, 3, 4, w=0.0)
        rho = ch.config.rho
        res = exhaustive_search(ch, rho)
        assert res.selection == PortSelection((1, 1), (1, 1, 1))
        assert res.capacity_bits == pytest.approx(capacity(base, rho), rel=1e-12)
        assert res.capacity_bits > 1.0

    def test_generated_zero_width_channel_ties(self, monkeypatch):
        import fluidmimo.selection as sel_mod
        cfg = FluidMimoConfig(m_r=2, m_t=2, n_r=5, n_t=4, snr_db=5.0, w=0.0)
        ch = generate_channel(cfg, 17)
        first = ch.entries[np.ix_([0, 5], [0, 4])]
        assert np.array_equal(ch.entries, np.kron(first, np.ones((5, 4))))
        assert exhaustive_search(ch, cfg.rho).capacity_bits > 0.0

        # every selection ties; limits 7 and 3 split the enumeration into
        # whole receive rows (few transmit combinations) or into one
        # receive row cut over several transmit chunks
        for limit in (sel_mod._BATCH_LIMIT, 7, 3):
            monkeypatch.setattr(sel_mod, "_BATCH_LIMIT", limit)
            for m_r, m_t, n_r, n_t in ((2, 2, 5, 4), (3, 1, 3, 2), (1, 3, 2, 5)):
                cfg = FluidMimoConfig(m_r=m_r, m_t=m_t, n_r=n_r, n_t=n_t, snr_db=5.0, w=0.0)
                ch = generate_channel(cfg, 17)
                res = exhaustive_search(ch, cfg.rho)
                assert res.selection == PortSelection((1,) * m_r, (1,) * m_t)

                relaxed = solve_jcr(ch)
                kept_rx = [_top_ports(relaxed.x_hat[i * n_r:(i + 1) * n_r],
                                      reduced_port_count(n_r)) for i in range(m_r)]
                kept_tx = [_top_ports(relaxed.y_hat[j * n_t:(j + 1) * n_t],
                                      reduced_port_count(n_t)) for j in range(m_t)]
                assert jcr_res(ch, cfg.rho, relaxed=relaxed).selection == PortSelection(
                    tuple(int(k[0]) + 1 for k in kept_rx), tuple(int(k[0]) + 1 for k in kept_tx))

    @pytest.mark.parametrize("m_r", [1, 2, 3])
    @pytest.mark.parametrize("m_t", [1, 2, 3])
    def test_batch_kernel_matches_scalar_capacity(self, rng, m_r, m_t):
        for snr_db in (-5.0, 5.0, 15.0):
            cfg = FluidMimoConfig(m_r=m_r, m_t=m_t, n_r=3, n_t=2, snr_db=snr_db, w=0.5)
            ch = generate_channel(cfg, int(rng.integers(0, 2 ** 63)))
            rx = _combinations([np.arange(3)] * m_r, 0, 3 ** m_r)
            tx = _combinations([np.arange(2)] * m_t, 0, 2 ** m_t)
            caps = _batch_capacities(ch, rx, tx, cfg.rho)
            assert caps.shape == (len(rx), len(tx))
            expected = np.array([[capacity(extract_effective(ch, PortSelection(r + 1, t + 1)),
                                           cfg.rho) for t in tx] for r in rx])
            np.testing.assert_allclose(caps, expected, rtol=1e-12, atol=0.0)
            paired = _paired_capacities(ch, np.repeat(rx, len(tx), axis=0),
                                        np.tile(tx, (len(rx), 1)), cfg.rho)
            np.testing.assert_allclose(paired, expected.ravel(), rtol=1e-12, atol=0.0)

    def test_matches_loop_oracle_m2_n3(self, rng):
        cfg_channel = random_instance(rng, m_max=2, n_max=3)
        while cfg_channel.config.m_r != 2 or cfg_channel.config.n_r != 3:
            cfg_channel = random_instance(rng, m_max=2, n_max=3)
        rho = cfg_channel.config.rho

        def eval_sel(rx, tx):
            return capacity(extract_effective(cfg_channel, PortSelection(rx, tx)), rho)

        _val, rx, tx = loop_exhaustive(cfg_channel, rho, eval_sel)
        assert exhaustive_search(cfg_channel, rho).selection == PortSelection(rx, tx)

    def test_evaluation_count(self, rng):
        ch = random_instance(rng, m_max=2, n_max=4)
        res = exhaustive_search(ch, 1.0)
        assert res.evaluations == combination_count(ch.config)

    def test_cap_refusal_reports_count(self):
        cfg_entries = np.ones((8, 8))
        ch = make_channel(cfg_entries, 2, 2, 4, 4)
        with pytest.raises(CombinationCapError, match="256"):
            exhaustive_search(ch, 1.0, cap=255)

    def test_chunked_enumeration_matches_unchunked(self, rng, monkeypatch):
        import fluidmimo.selection as sel_mod
        for _ in range(6):
            ch = random_instance(rng, m_max=3, n_max=3)
            relaxed = solve_jcr(ch)
            full = [exhaustive_search(ch, 1.0), jcr_res(ch, 1.0, relaxed=relaxed)]
            for limit in (7, 3):
                monkeypatch.setattr(sel_mod, "_BATCH_LIMIT", limit)
                monkeypatch.setattr(sel_mod, "_BLOCK_ENTRIES", 1)
                assert [exhaustive_search(ch, 1.0), jcr_res(ch, 1.0, relaxed=relaxed)] == full
            monkeypatch.undo()


class TestReducedSearch:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 2), (7, 3),
                                            (10, 4), (15, 4), (20, 5)])
    def test_kept_port_count(self, n, expected):
        assert reduced_port_count(n) == expected

    def test_noop_reduction_equals_exhaustive(self, rng):
        # N = 2 keeps ceil(log2 3) = 2 ports: the reduction is a no-op
        for _ in range(10):
            ch = random_instance(rng, m_max=2, n_max=2)
            rho = ch.config.rho
            assert jcr_res(ch, rho).selection == exhaustive_search(ch, rho).selection

    @pytest.mark.parametrize("m_r, m_t, n_r, n_t", [
        (1, 2, 5, 3), (2, 1, 3, 6), (3, 1, 4, 7), (1, 3, 7, 4), (3, 2, 5, 3), (2, 3, 3, 5),
        (3, 3, 5, 3), (3, 3, 4, 6)])
    def test_matches_loop_oracle_on_kept_ports(self, m_r, m_t, n_r, n_t):
        # m_t < m_r scores on the mirrored Gram side; m_r = m_t = 3 reaches
        # the Cholesky branch
        rng = np.random.default_rng([m_r, m_t, n_r, n_t])
        for w in (0.3, 2.0):
            cfg = FluidMimoConfig(m_r=m_r, m_t=m_t, n_r=n_r, n_t=n_t,
                                  snr_db=float(rng.uniform(-5, 15)), w=w)
            ch = generate_channel(cfg, int(rng.integers(0, 2 ** 63)))
            res = jcr_res(ch, cfg.rho)

            def scalar(rx, tx):
                return capacity(extract_effective(ch, PortSelection(rx, tx)), cfg.rho)

            x = res.relaxation.x_hat.reshape(m_r, n_r)
            y = res.relaxation.y_hat.reshape(m_t, n_t)
            rx_sets = [_top_ports(weights, reduced_port_count(n_r)) + 1 for weights in x]
            tx_sets = [_top_ports(weights, reduced_port_count(n_t)) + 1 for weights in y]
            _val, rx, tx = loop_exhaustive(ch, cfg.rho, scalar, rx_sets, tx_sets)
            assert res.selection == PortSelection(rx, tx)
            assert res.capacity_bits == scalar(rx, tx)

    def test_reduced_evaluation_count(self, rng):
        cfg_channel = random_instance(rng, m_max=2, n_max=4)
        c = cfg_channel.config
        res = jcr_res(cfg_channel, c.rho)
        kr, kt = reduced_port_count(c.n_r), reduced_port_count(c.n_t)
        assert res.evaluations == kr ** c.m_r * kt ** c.m_t

    def test_recomputed_capacity_matches(self, rng):
        ch = random_instance(rng, m_max=2, n_max=6)
        rho = ch.config.rho
        res = jcr_res(ch, rho)
        assert res.capacity_bits == pytest.approx(
            capacity(extract_effective(ch, res.selection), rho), abs=1e-12)


class TestAoRound:
    def test_argmax(self):
        rel = _relaxed([0.2, 0.5, 0.3], [1.0], 1, 3, 1, 1)
        assert ao_round(rel) == PortSelection((2,), (1,))

    def test_tie_takes_lower_port(self):
        rel = _relaxed([0.5, 0.5], [0.5, 0.5], 1, 2, 1, 2)
        assert ao_round(rel) == PortSelection((1,), (1,))

    def test_binary_solution_is_identity(self, rng):
        for _ in range(10):
            ch = random_instance(rng, m_max=2, n_max=4)
            c = ch.config
            rx = tuple(int(rng.integers(1, c.n_r + 1)) for _ in range(c.m_r))
            tx = tuple(int(rng.integers(1, c.n_t + 1)) for _ in range(c.m_t))
            x, y = PortSelection(rx, tx).to_indicators(c.n_r, c.n_t)
            rel = _relaxed(x, y, c.m_r, c.n_r, c.m_t, c.n_t)
            assert ao_round(rel) == PortSelection(rx, tx)


class TestJcrAo:
    def test_monotone_trace_and_termination(self, rng):
        for _ in range(50):
            ch = random_instance(rng, m_max=2, n_max=6)
            res = jcr_ao(ch, ch.config.rho)
            tr = res.capacity_trace
            assert res.iterations <= 20
            assert len(tr) == res.iterations + 1
            assert all(b >= a - 1e-12 for a, b in zip(tr, tr[1:]))
            # final capacity never drops below the rounded start
            assert res.capacity_bits >= tr[0] - 1e-12

    def test_two_block_converges_within_two_sweeps(self, rng):
        # single antenna per side: relaxation-rounded coordinate ascent
        # settles in at most two sweeps; record the optimum-agreement rate
        agree = 0
        trials = 40
        for _ in range(trials):
            n = int(rng.integers(2, 9))
            ch = random_instance(rng, m_max=1, n_max=n)
            res = jcr_ao(ch, ch.config.rho)
            assert res.iterations <= 2
            ex = exhaustive_search(ch, ch.config.rho)
            agree += res.capacity_bits >= ex.capacity_bits - 1e-12
        print(f"\n2-block AO reached the global optimum in {agree}/{trials} instances")

    def test_stationary_start_terminates_in_one_sweep(self, rng):
        # when the rounded start is already the exhaustive optimum and no
        # sweep improves it, the relative-change guard fires after sweep 1
        found = 0
        for _ in range(30):
            ch = random_instance(rng, m_max=1, n_max=4)
            res = jcr_ao(ch, ch.config.rho)
            ex = exhaustive_search(ch, ch.config.rho)
            if ao_round(res.relaxation) == ex.selection:
                assert res.iterations == 1
                found += 1
        assert found > 0

    @pytest.mark.parametrize("m_r", [1, 2, 3])
    @pytest.mark.parametrize("m_t", [1, 2, 3])
    def test_matches_port_by_port_loop(self, m_r, m_t):
        # the batch-scored ascent takes the same steps as scoring one port
        # at a time with the scalar capacity, W = 0 (all ports tie) included
        rng = np.random.default_rng([m_r, m_t])
        for k in range(16):
            cfg = FluidMimoConfig(m_r=m_r, m_t=m_t, n_r=int(rng.integers(1, 8)),
                                  n_t=int(rng.integers(1, 8)),
                                  snr_db=float(rng.uniform(-5, 15)), w=(0.0, 0.1, 0.5, 2.0)[k % 4])
            ch = generate_channel(cfg, int(rng.integers(0, 2 ** 63)))
            res = jcr_ao(ch, cfg.rho)

            def scalar(rx, tx):
                return capacity(extract_effective(ch, PortSelection(rx, tx)), cfg.rho)

            start = ao_round(res.relaxation)
            rx, tx, sweeps, evaluations, trace = loop_coordinate_ascent(
                cfg, (start.rx_ports, start.tx_ports), scalar)
            assert res.selection == PortSelection(rx, tx)
            assert res.capacity_bits == scalar(rx, tx)
            assert (res.iterations, res.evaluations) == (sweeps, evaluations)
            assert res.capacity_trace == pytest.approx(trace, rel=1e-13)

    def test_all_ports_tie_at_zero_length(self):
        # W = 0: every port of an antenna sees the same coefficients, so
        # every candidate scores the same and the last port wins each step;
        # the first sweep improves nothing, so the ascent stops after it
        for m_r, m_t, n_r, n_t in ((1, 1, 4, 4), (2, 3, 4, 5), (3, 2, 6, 2), (3, 3, 3, 3)):
            ch = generate_channel(FluidMimoConfig(m_r=m_r, m_t=m_t, n_r=n_r, n_t=n_t, w=0.0), 7)
            assert all(np.ptp(ch.block(i, j)) == 0 for i in range(m_r) for j in range(m_t))
            res = jcr_ao(ch, ch.config.rho)
            assert res.selection == PortSelection((n_r,) * m_r, (n_t,) * m_t)
            assert res.iterations == 1

    def test_evaluation_count(self, rng):
        ch = random_instance(rng, m_max=2, n_max=5)
        c = ch.config
        res = jcr_ao(ch, c.rho)
        per_sweep = c.m_r * c.n_r + c.m_t * c.n_t
        assert res.evaluations == 1 + res.iterations * per_sweep

    def test_parameter_validation(self, rng):
        ch = random_instance(rng)
        for epsilon in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon"):
                jcr_ao(ch, 1.0, epsilon=epsilon)
        with pytest.raises(ValueError):
            jcr_ao(ch, 1.0, max_iters=0)


class TestSharedRelaxation:
    def test_precomputed_relaxation_gives_same_result(self, rng):
        for _ in range(15):
            ch = random_instance(rng, m_max=2, n_max=5)
            rho = ch.config.rho
            rel = solve_jcr(ch)
            for fn in (jcr_res, jcr_ao):
                own, shared = fn(ch, rho), fn(ch, rho, relaxed=rel)
                assert shared.selection == own.selection
                assert shared.capacity_bits == own.capacity_bits
                assert shared.iterations == own.iterations
                assert shared.evaluations == own.evaluations
                assert shared.capacity_trace == own.capacity_trace
                assert shared.relaxation is rel

    def test_result_carries_the_relaxation_it_rounded(self, rng):
        ch = random_instance(rng, m_max=2, n_max=4)
        rho = ch.config.rho
        res = jcr_res(ch, rho)
        assert res.relaxation.x_hat.tobytes() == solve_jcr(ch).x_hat.tobytes()
        assert jcr_ao(ch, rho, relaxed=res.relaxation).relaxation is res.relaxation
        for other in (exhaustive_search(ch, rho), random_selection(ch, rho),
                      conventional_mimo(ch, rho)):
            assert other.relaxation is None

    def test_relaxation_left_out_of_equality_and_repr(self, rng):
        ch = random_instance(rng, m_max=2, n_max=4)
        res = jcr_res(ch, ch.config.rho)
        bare = SelectionResult(res.selection, res.capacity_bits, res.algorithm,
                               res.iterations, res.evaluations)
        assert res == bare
        assert repr(res) == repr(bare)

    def test_mismatched_relaxation_rejected(self):
        small = generate_channel(FluidMimoConfig(m_r=2, m_t=2, n_r=3, n_t=3), 1)
        for m_r, m_t, n_r, n_t in ((1, 2, 3, 3), (2, 2, 3, 4)):
            other = generate_channel(FluidMimoConfig(m_r=m_r, m_t=m_t, n_r=n_r, n_t=n_t), 2)
            rel = solve_jcr(other)
            with pytest.raises(ValueError, match="does not fit"):
                jcr_res(small, 1.0, relaxed=rel)
            with pytest.raises(ValueError, match="does not fit"):
                jcr_ao(small, 1.0, relaxed=rel)


class TestRandomSelection:
    def test_deterministic_given_seed(self, rng):
        ch = random_instance(rng, m_max=2, n_max=5)
        a = random_selection(ch, 1.0, seed=77)
        b = random_selection(ch, 1.0, seed=77)
        assert a.selection == b.selection and a.capacity_bits == b.capacity_bits

    def test_single_sample(self, rng):
        ch = random_instance(rng, m_max=2, n_max=4)
        res = random_selection(ch, 1.0, samples=1, seed=5)
        assert res.evaluations == 1
        assert res.capacity_bits == pytest.approx(
            capacity(extract_effective(ch, res.selection), 1.0), abs=1e-12)

    def test_degenerate_single_combination(self):
        ch = make_channel([[2.0]], 1, 1, 1, 1)
        res = random_selection(ch, 1.0, samples=9, seed=1)
        assert res.selection == PortSelection((1,), (1,))

    def test_default_sample_budget(self):
        ch = make_channel(np.ones((4, 6)), 2, 2, 2, 3)
        res = random_selection(ch, 1.0, seed=0)
        assert res.evaluations == default_random_samples(ch.config) == 5 * (4 + 6)

    def test_miss_rate_matches_analytic_bound(self, rng):
        # M = 1, N = 4, 40 draws: P(miss the unique optimum) = (15/16)^40
        # ~ 0.0757; 400 instances give a standard error of ~0.013
        misses = 0
        trials = 400
        for k in range(trials):
            ch = random_instance(rng, m_max=1, n_max=4, snr_db=5.0, w=0.5)
            while ch.config.n_r != 4 or ch.config.n_t != 4:
                ch = random_instance(rng, m_max=1, n_max=4, snr_db=5.0, w=0.5)
            ex = exhaustive_search(ch, ch.config.rho)
            rd = random_selection(ch, ch.config.rho, samples=40,
                                  seed=int(rng.integers(0, 2 ** 63)))
            misses += rd.capacity_bits < ex.capacity_bits - 1e-12
        assert abs(misses / trials - (15 / 16) ** 40) < 0.05


class TestConventional:
    def test_always_first_ports(self, rng):
        ch = random_instance(rng, m_max=3, n_max=5)
        res = conventional_mimo(ch, 1.0)
        assert res.selection == PortSelection((1,) * ch.config.m_r, (1,) * ch.config.m_t)

    def test_single_port_equals_exhaustive(self, rng):
        ch = random_instance(rng, m_max=2, n_max=1)
        assert conventional_mimo(ch, 1.0).capacity_bits == exhaustive_search(ch, 1.0).capacity_bits

    def test_capacity_of_first_port_block_entries(self, rng):
        ch = random_instance(rng, m_max=2, n_max=3)
        c = ch.config
        first = ch.entries[np.ix_([i * c.n_r for i in range(c.m_r)],
                                  [j * c.n_t for j in range(c.m_t)])]
        assert conventional_mimo(ch, c.rho).capacity_bits == pytest.approx(
            capacity(first, c.rho), abs=1e-12)


class TestOptimalitySandwich:
    def test_all_strategies_bounded_by_exhaustive(self, rng):
        for _ in range(20):
            ch = random_instance(rng, m_max=2, n_max=4)
            rho = ch.config.rho
            ex = exhaustive_search(ch, rho)
            others = [
                jcr_res(ch, rho),
                jcr_ao(ch, rho),
                random_selection(ch, rho, seed=int(rng.integers(0, 2 ** 63))),
                conventional_mimo(ch, rho),
            ]
            for res in others:
                assert res.capacity_bits <= ex.capacity_bits + 1e-12
            # relaxation bound sandwiches the optimum from above
            rel = solve_jcr(ch)
            assert ex.capacity_bits <= capacity_upper_bound(rel.u_star, rho) + 1e-9


class TestOverflow:
    """Scores NaN or infinite because rho |g|^2 overflows float64: an
    algorithm raises OverflowError instead of deciding on them."""

    @pytest.mark.parametrize("search", [exhaustive_search, jcr_res, jcr_ao, random_selection])
    def test_search_with_overflowing_scores_raises(self, search):
        # the closed-form 2x2 determinant overflows to NaN at rho ~ 1e300;
        # before, exhaustive search decoded its -1 "best" to ports (3, 3)
        cfg = FluidMimoConfig(m_r=2, m_t=2, n_r=3, n_t=3, snr_db=3000.0)
        with pytest.raises(OverflowError, match="overflows"):
            search(generate_channel(cfg, 1), cfg.rho)

    def test_conventional_reports_the_finite_scalar_capacity(self):
        cfg = FluidMimoConfig(m_r=2, m_t=2, n_r=3, n_t=3, snr_db=3000.0)
        assert math.isfinite(conventional_mimo(generate_channel(cfg, 1), cfg.rho).capacity_bits)

    def test_partly_overflowing_scores_raise(self):
        # three of the four selections score finitely; the fourth, the true
        # optimum, overflows, so no finite score is the maximizer
        ch = make_channel([[1.0, 1.0], [1.0, 1e150]], m_r=1, m_t=1, n_r=2, n_t=2)
        with pytest.raises(OverflowError):
            exhaustive_search(ch, 1e300)
        with pytest.raises(OverflowError):
            random_selection(ch, 1e300, samples=50)

    def test_jcr_ao_raises_on_an_overflowing_candidate(self):
        # the start scores finitely; port 2 of receive antenna 1 has finite
        # |g|^2 = 1e300 but a NaN score, which a >= test would skip silently
        entries = np.ones((4, 4), dtype=complex)
        entries[1] = 1e150
        ch = make_channel(entries, m_r=2, m_t=2, n_r=2, n_t=2)
        start = _relaxed([1, 0, 1, 0], [1, 0, 1, 0], 2, 2, 2, 2)
        with pytest.raises(OverflowError):
            jcr_ao(ch, 1e10, relaxed=start)

    def test_overflowing_reported_capacity_raises(self):
        ch = make_channel([[1e150]], m_r=1, m_t=1, n_r=1, n_t=1)
        with pytest.warns(RuntimeWarning):
            assert capacity(ch.entries, 1e300) == math.inf
        with pytest.raises(OverflowError):
            conventional_mimo(ch, 1e300)


def test_scalar_capacity_only_reports(rng, monkeypatch):
    # every search scores through the batch kernel; the scalar capacity is
    # called once per run, for the reported capacity_bits
    import fluidmimo.selection as selection_mod

    calls = []

    def counting(h, rho):
        calls.append(h.shape)
        return capacity(h, rho)

    monkeypatch.setattr(selection_mod, "capacity", counting)
    ch = random_instance(rng, m_max=3, n_max=5)
    rho = ch.config.rho
    for run in (lambda: exhaustive_search(ch, rho), lambda: jcr_res(ch, rho),
                lambda: jcr_ao(ch, rho), lambda: random_selection(ch, rho),
                lambda: conventional_mimo(ch, rho)):
        calls.clear()
        res = run()
        assert len(calls) == 1
        assert res.capacity_bits == capacity(extract_effective(ch, res.selection), rho)
