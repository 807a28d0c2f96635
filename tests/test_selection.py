import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from fluidmimo.harness import run_algorithm
from fluidmimo.ipm import SolverStats
import fluidmimo.selection as sel_mod
from fluidmimo.selection import (
    ALGORITHMS,
    DEFAULT_EXHAUSTIVE_CAP,
    Realization,
    SelectionResult,
    _AscentTerms,
    _ascent_layout,
    _combinations,
    _grid_layout,
    _GridTerms,
    _kept_ports,
    _packed_logdet,
    _RowTerms,
    _scaled,
    _top_ports,
    _triangle,
    combination_count,
    default_random_samples,
    reduced_port_count,
)

from conftest import make_channel, random_instance
from oracles import (
    loop_coordinate_ascent,
    loop_exhaustive,
    reference_batch_capacities,
    reference_paired_capacities,
)


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
                res = jcr_res(ch, cfg.rho, realization=Realization(ch, relaxed))
                assert res.selection == PortSelection(
                    tuple(int(k[0]) + 1 for k in kept_rx), tuple(int(k[0]) + 1 for k in kept_tx))

    @pytest.mark.parametrize("m_r", [1, 2, 3])
    @pytest.mark.parametrize("m_t", [1, 2, 3])
    def test_batch_kernel_matches_scalar_capacity(self, rng, m_r, m_t):
        for snr_db in (-5.0, 5.0, 15.0):
            cfg = FluidMimoConfig(m_r=m_r, m_t=m_t, n_r=3, n_t=2, snr_db=snr_db, w=0.5)
            ch = generate_channel(cfg, int(rng.integers(0, 2 ** 63)))
            rx = _combinations([3] * m_r, 0, 3 ** m_r)
            tx = _combinations([2] * m_t, 0, 2 ** m_t)
            grid = _GridTerms(ch, [np.arange(3)] * m_r, [np.arange(2)] * m_t)
            caps = _grid_capacities(grid, cfg.rho, rx, tx)
            assert caps.shape == (len(rx), len(tx))
            expected = np.array([[capacity(extract_effective(ch, PortSelection(r + 1, t + 1)),
                                           cfg.rho) for t in tx] for r in rx])
            assert np.array_equal(caps, expected)
            paired = _RowTerms(ch, np.repeat(rx, len(tx), axis=0),
                               np.tile(tx, (len(rx), 1))).capacities([cfg.rho])[0]
            assert np.array_equal(paired, expected.ravel())

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
        for _ in range(6):
            ch = random_instance(rng, m_max=3, n_max=3)
            relaxed = solve_jcr(ch)
            # a new realization per run, so every run builds its tables under
            # the patched limits
            runs = (lambda: exhaustive_search(ch, 1.0),
                    lambda: jcr_res(ch, 1.0, realization=Realization(ch, relaxed)),
                    lambda: random_selection(ch, 1.0, seed=3))
            full = [run() for run in runs]
            # first passes of one row and of a few rows prune grids of any
            # size; the default leaves these small grids whole
            for first_pass in (1, 16, sel_mod._FIRST_PASS):
                for limit in (7, 3):
                    monkeypatch.setattr(sel_mod, "_FIRST_PASS", first_pass)
                    monkeypatch.setattr(sel_mod, "_BATCH_LIMIT", limit)
                    monkeypatch.setattr(sel_mod, "_BLOCK_ENTRIES", 1)
                    assert [run() for run in runs] == full
                monkeypatch.undo()


def _grid_capacities(grid, rho, rx, tx):
    """Capacity of every (rx[a], tx[b]) pair of positions in the port sets
    of the `_GridTerms` grid, shape (A, B): `scores` of the table that
    `_enumerate_best` forms at rho alone."""
    table = _scaled(grid.unscaled, [rho], grid.m * grid.ports)
    gram, summed = (tx, rx) if grid.mirrored else (rx, tx)
    cols = grid.cols[:, np.ravel_multi_index(tuple(gram.T), (grid.ports,) * grid.m)]
    out = grid.scores(table, tuple(summed.T), cols)[0]
    return out if grid.mirrored else out.T


def _first_grid_maximizer(ch, rho, rx_sets, tx_sets):
    """1-based ports of the first maximizer, in mixed-radix order, of the
    whole grid's `_grid_capacities`."""
    rx = _combinations([len(s) for s in rx_sets], 0, math.prod(len(s) for s in rx_sets))
    tx = _combinations([len(s) for s in tx_sets], 0, math.prod(len(s) for s in tx_sets))
    caps = _grid_capacities(_GridTerms(ch, rx_sets, tx_sets), rho, rx, tx)
    a, b = divmod(int(np.argmax(caps)), caps.shape[1])
    return PortSelection(tuple(int(s[p]) + 1 for s, p in zip(rx_sets, rx[a])),
                         tuple(int(s[p]) + 1 for s, p in zip(tx_sets, tx[b])))


def _count_scored(monkeypatch):
    """A list that gets the number of selections of every `_packed_logdet`
    call of the searches."""
    scored = []

    def counting(b):
        scored.append(b[0].size)
        return _packed_logdet(b)

    monkeypatch.setattr(sel_mod, "_packed_logdet", counting)
    return scored


class TestPrunedEnumeration:
    """Exhaustive search and jcr-res score only the rows whose Hadamard bound
    reaches the incumbent, and still return the grid's first maximizer."""

    @settings(max_examples=100, deadline=None)
    @given(m_r=st.integers(1, 3), m_t=st.integers(1, 3), n_r=st.integers(1, 4),
           n_t=st.integers(1, 4), w=st.sampled_from([0.0, 0.1, 0.5, 2.0]),
           snr_db=st.floats(-10.0, 30.0), zeroed=st.sampled_from([0.0, 0.3]),
           first_pass=st.sampled_from([1, 3, 40]), seed=st.integers(0, 2 ** 32))
    def test_first_maximizer_of_the_full_grid(self, m_r, m_t, n_r, n_t, w, snr_db, zeroed,
                                              first_pass, seed):
        # m_t < m_r scores on the transmit side's Gram; m = 1 and m = 3
        # (Cholesky) come up; W = 0 makes every port of an antenna tie, and
        # zeroed entries tie whole rows at 0 bits
        rng = np.random.default_rng(seed)
        cfg = FluidMimoConfig(m_r=m_r, m_t=m_t, n_r=n_r, n_t=n_t, snr_db=snr_db, w=w)
        entries = generate_channel(cfg, seed).entries.copy()
        entries[rng.random(entries.shape) < zeroed] = 0.0
        ch = make_channel(entries, m_r, m_t, n_r, n_t, snr_db=snr_db, w=w)
        relaxed = _relaxed(rng.random(m_r * n_r), rng.random(m_t * n_t), m_r, n_r, m_t, n_t)
        kept_rx, kept_tx, _, _ = _kept_ports(relaxed, reduced_port_count(n_r),
                                             reduced_port_count(n_t))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sel_mod, "_FIRST_PASS", first_pass)
            res = exhaustive_search(ch, cfg.rho)
            reduced = jcr_res(ch, cfg.rho, realization=Realization(ch, relaxed))
        assert res.selection == _first_grid_maximizer(
            ch, cfg.rho, [np.arange(n_r)] * m_r, [np.arange(n_t)] * m_t)
        assert res.evaluations == combination_count(cfg)
        assert reduced.selection == _first_grid_maximizer(ch, cfg.rho, kept_rx, kept_tx)

    @pytest.mark.parametrize("first_pass", [1, 2048])
    def test_ties_across_rows_and_columns_resolve_in_flat_order(self, first_pass, monkeypatch):
        # two maximizers, which a row-major and a column-major scan of the
        # scored grid would order apart: Gram side receive (m = 1), then
        # transmit (m_t < m_r)
        monkeypatch.setattr(sel_mod, "_FIRST_PASS", first_pass)
        ch = make_channel([[1.0, 2.0], [2.0, 1.0]], 1, 1, 2, 2)
        assert exhaustive_search(ch, 1.0).selection == PortSelection((1,), (2,))
        ch = make_channel([[1.0, 2.0], [2.0, 1.0], [0.0, 0.0], [0.0, 0.0]], 2, 1, 2, 2)
        assert exhaustive_search(ch, 1.0).selection == PortSelection((1, 1), (2,))

    def test_tied_rows_of_the_first_pass_keep_the_tie_rule(self, monkeypatch):
        # W = 0: every port of an antenna has the same coefficients, so every
        # selection ties and every row has the same bound; the first pass
        # (two rows of nine Gram-side selections) holds tied maximizers.
        # Gram side receive, then transmit (m_t < m_r)
        monkeypatch.setattr(sel_mod, "_FIRST_PASS", 18)
        for m_r, m_t in ((2, 2), (3, 2)):
            cfg = FluidMimoConfig(m_r=m_r, m_t=m_t, n_r=3, n_t=3, snr_db=5.0, w=0.0)
            res = exhaustive_search(generate_channel(cfg, 17), cfg.rho)
            assert res.selection == PortSelection((1,) * m_r, (1,) * m_t)

    def test_nothing_is_ruled_out_above_the_ceiling(self, monkeypatch):
        # scores near 1000 bits, each finite: rows are not ruled out there
        cfg = FluidMimoConfig(m_r=2, m_t=2, n_r=4, n_t=4, snr_db=5.0, w=0.5)
        ch = generate_channel(cfg, 3)
        monkeypatch.setattr(sel_mod, "_FIRST_PASS", 1)
        scored = _count_scored(monkeypatch)
        for rho, expected in ((1.0, 144), (1e150, 256)):
            scored.clear()
            exhaustive_search(ch, rho)
            assert sum(scored) == expected

    def test_one_gram_antenna_scores_every_row_without_bounds(self, monkeypatch):
        # with one Gram-side antenna a row's bound is its own best score, so
        # the bound pass would only add work: it does not run
        monkeypatch.setattr(sel_mod, "_FIRST_PASS", 1)
        monkeypatch.setattr(_GridTerms, "bounds",
                            lambda *args: pytest.fail("bound pass with one Gram-side antenna"))
        scored = _count_scored(monkeypatch)
        for m_r, m_t in ((1, 1), (2, 1), (1, 3)):
            cfg = FluidMimoConfig(m_r=m_r, m_t=m_t, n_r=5, n_t=4, snr_db=5.0, w=0.5)
            ch = generate_channel(cfg, 3)
            scored.clear()
            res = exhaustive_search(ch, cfg.rho)
            assert sum(scored) == combination_count(cfg)
            assert res.selection == _first_grid_maximizer(
                ch, cfg.rho, [np.arange(5)] * m_r, [np.arange(4)] * m_t)

    def test_most_combinations_are_ruled_out(self, monkeypatch):
        # M = 2, N = 20: 160,000 combinations; a fallback to the full grid
        # would send every one of them through _packed_logdet
        cfg = FluidMimoConfig(m_r=2, m_t=2, n_r=20, n_t=20, snr_db=5.0, w=0.5)
        ch = generate_channel(cfg, 11)
        scored = _count_scored(monkeypatch)
        res = exhaustive_search(ch, cfg.rho)
        assert res.evaluations == 160_000
        assert 0 < sum(scored) < 16_000
        monkeypatch.setattr(sel_mod, "_FIRST_PASS", 10 ** 6)    # the whole grid
        scored.clear()
        assert exhaustive_search(ch, cfg.rho) == res
        assert sum(scored) == 160_000

    def test_bounds_hold_every_score_of_their_row(self, rng):
        for m_r, m_t in ((1, 1), (2, 2), (3, 2), (3, 3)):
            cfg = FluidMimoConfig(m_r=m_r, m_t=m_t, n_r=4, n_t=3, snr_db=10.0, w=0.5)
            ch = generate_channel(cfg, int(rng.integers(0, 2 ** 63)))
            grid = _GridTerms(ch, [np.arange(4)] * m_r, [np.arange(3)] * m_t)
            table = _scaled(grid.unscaled, [cfg.rho], grid.m * grid.ports)
            sizes = [4] * m_r if grid.mirrored else [3] * m_t
            rows = np.unravel_index(np.arange(math.prod(sizes)), sizes)
            bounds = grid.bounds(table, [rows])[0]
            slack = sel_mod._BOUND_SLACK * np.maximum(1.0, bounds)
            assert np.all(grid.scores(table, rows, grid.cols)[0].max(axis=1) <= bounds + slack)

    def test_pruned_grid_with_an_overflowing_determinant_scores_every_row(self, monkeypatch):
        # rho |g|^2 ~ 1e300: bounds above the ceiling leave the grid whole,
        # and the determinants that overflow are rescued, so the search
        # returns the first maximizer of the whole grid
        monkeypatch.setattr(sel_mod, "_FIRST_PASS", 1)
        cfg = FluidMimoConfig(m_r=2, m_t=2, n_r=3, n_t=3, snr_db=3000.0)
        ch = generate_channel(cfg, 1)
        scored = _count_scored(monkeypatch)
        res = exhaustive_search(ch, cfg.rho)
        assert sum(scored) == combination_count(cfg)
        with np.errstate(over="ignore", invalid="ignore"):     # as in a search
            first = _first_grid_maximizer(ch, cfg.rho, [np.arange(3)] * 2, [np.arange(3)] * 2)
        assert res.selection == first
        assert math.isfinite(res.capacity_bits)

    def test_pruned_grid_with_overflowing_scores_raises(self, monkeypatch):
        # bounds above the ceiling leave the grid whole, so a NaN score
        # still raises instead of being ruled out
        monkeypatch.setattr(sel_mod, "_FIRST_PASS", 1)
        ch = make_channel([[1.0, 1.0], [1.0, 1e150]], m_r=1, m_t=1, n_r=2, n_t=2)
        with pytest.raises(OverflowError):
            exhaustive_search(ch, 1e300)


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


class TestScoreMargin:
    # receive weights keep ports 2, 3 (jcr-res, N = 3 keeps 2) or port 2
    # (jcr-ao); transmit weights keep ports 1, 2 or port 1
    RX, TX = [0.2, 0.5, 0.3], [0.5, 0.45, 0.05]

    def _run(self, search, x, y, n_r, n_t):
        ch = generate_channel(FluidMimoConfig(m_r=1, m_t=1, n_r=n_r, n_t=n_t), 1)
        return search(ch, 1.0, realization=Realization(ch, _relaxed(x, y, 1, n_r, 1, n_t)))

    def test_jcr_res_last_kept_against_first_dropped(self):
        res = self._run(jcr_res, self.RX, self.TX, 3, 3)
        assert res.score_margin == min(0.3 - 0.2, 0.45 - 0.05)
        assert res.score_margin_rel == res.score_margin / max(0.5 - 0.2, 0.5 - 0.05)

    def test_jcr_ao_argmax_against_runner_up(self):
        res = self._run(jcr_ao, self.RX, self.TX, 3, 3)
        assert res.score_margin == min(0.5 - 0.3, 0.5 - 0.45)
        assert res.score_margin_rel == res.score_margin / max(0.5 - 0.2, 0.5 - 0.05)

    def test_tie_has_zero_margin(self):
        res = self._run(jcr_ao, [0.5, 0.5], [1.0], 2, 1)
        assert (res.score_margin, res.score_margin_rel) == (0.0, 0.0)

    def test_none_without_a_dropped_port(self):
        # N = 2 keeps both ports in jcr-res; N = 1 has no runner-up
        assert self._run(jcr_res, [0.7, 0.3], [0.4, 0.6], 2, 2).score_margin is None
        res = self._run(jcr_ao, [1.0], [1.0], 1, 1)
        assert (res.score_margin, res.score_margin_rel) == (None, None)

    @pytest.mark.parametrize("m_r, m_t, n_r, n_t", [(2, 3, 4, 1), (3, 2, 5, 6), (4, 4, 2, 3)])
    def test_keep_sets_per_side_match_per_antenna(self, rng, m_r, m_t, n_r, n_t):
        # the per-antenna form of the keep-sets and margins, on weights drawn
        # from a few levels so that ties and near-ties occur
        levels = [0.1, 0.2, 0.2 + 2 ** -55, 0.5]
        for _ in range(20):
            x, y = rng.choice(levels, m_r * n_r), rng.choice(levels, m_t * n_t)
            relaxed = _relaxed(x, y, m_r, n_r, m_t, n_t)
            for keep_r, keep_t in ((1, 1), (reduced_port_count(n_r), reduced_port_count(n_t)),
                                   (n_r, n_t)):
                rx, tx, margin, margin_rel = _kept_ports(relaxed, keep_r, keep_t)
                sides = ([(w, keep_r) for w in x.reshape(m_r, n_r)]
                         + [(w, keep_t) for w in y.reshape(m_t, n_t)])
                kept = [np.sort(np.argsort(-w, kind="stable")[:keep]) for w, keep in sides]
                assert [k.tolist() for k in (*rx, *tx)] == [k.tolist() for k in kept]
                ranked = [(np.sort(w), keep) for w, keep in sides]
                gaps = [float(s[-keep] - s[-keep - 1]) for s, keep in ranked if keep < len(s)]
                if not gaps:
                    assert (margin, margin_rel) == (None, None)
                    continue
                spread = max(float(s[-1] - s[0]) for s, _ in ranked)
                assert margin == min(gaps)
                assert margin_rel == (margin / spread if spread > 0 else 0.0)

    def test_other_algorithms_carry_none(self, rng):
        ch = random_instance(rng, m_max=2, n_max=4)
        for res in (exhaustive_search(ch, 1.0), random_selection(ch, 1.0),
                    conventional_mimo(ch, 1.0)):
            assert res.score_margin is None and res.score_margin_rel is None


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
                own, shared = fn(ch, rho), fn(ch, rho, realization=Realization(ch, rel))
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
        shared = Realization(ch, res.relaxation)
        assert jcr_ao(ch, rho, realization=shared).relaxation is res.relaxation
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
                jcr_res(small, 1.0, realization=Realization(small, rel))
            with pytest.raises(ValueError, match="does not fit"):
                jcr_ao(small, 1.0, realization=Realization(small, rel))


SEARCHES = (exhaustive_search, jcr_res, jcr_ao, random_selection)


class TestRealization:
    def test_other_shape_or_entries_rejected(self):
        cfg = FluidMimoConfig(m_r=2, m_t=2, n_r=3, n_t=3)
        ch = generate_channel(cfg, 1)
        realization = Realization(ch)
        others = [generate_channel(replace(cfg, n_t=4), 1), generate_channel(cfg, 2)]
        for other, match in zip(others, ("does not fit", "other channel entries")):
            with pytest.raises(ValueError, match=match):
                realization.check(other)
            for search in SEARCHES:
                with pytest.raises(ValueError, match=match):
                    search(other, cfg.rho, realization=realization)

    def test_same_entries_under_another_config_accepted(self):
        # the SNR points of a sweep: a new config, the same entries
        cfg = FluidMimoConfig(m_r=2, m_t=2, n_r=3, n_t=3, snr_db=0.0)
        ch = generate_channel(cfg, 1)
        realization = Realization(ch)
        for snr_db in (0.0, 10.0):
            point = replace(ch, config=replace(cfg, snr_db=snr_db))
            copied = replace(ch, entries=ch.entries.copy())
            for search in SEARCHES:
                shared = search(point, point.config.rho, realization=realization)
                assert shared == search(point, point.config.rho)
                assert search(copied, point.config.rho, realization=realization) == shared

    def test_repeated_searches_leave_the_kept_parts_unchanged(self, rng):
        # jcr-ao commits on a table and ports of its own pass; a second run
        # on the same realization, at another rho and back, is the same
        for _ in range(10):
            ch = random_instance(rng, m_max=3, n_max=5)
            realization = Realization(ch)
            for search in SEARCHES:
                first = search(ch, 2.0, realization=realization)
                search(ch, 50.0, realization=realization)
                again = search(ch, 2.0, realization=realization)
                assert again == first
                assert again.capacity_trace == first.capacity_trace
                assert again == search(ch, 2.0)
            for seed, samples in ((1, 7), (2, 7), (1, 9)):
                assert random_selection(ch, 2.0, samples, seed, realization=realization) == (
                    random_selection(ch, 2.0, samples, seed))

    def test_keep_sets_per_keep_count(self):
        # jcr-ao keeps (1, 1) ports, jcr-res (1, 3) here: the receive counts
        # agree, and each search still gets its own keep-sets
        cfg = FluidMimoConfig(m_r=2, m_t=2, n_r=1, n_t=5)
        ch = generate_channel(cfg, 4)
        realization = Realization(ch)
        assert jcr_ao(ch, cfg.rho, realization=realization) == jcr_ao(ch, cfg.rho)
        assert jcr_res(ch, cfg.rho, realization=realization) == jcr_res(ch, cfg.rho)

    def test_memo_holds_only_the_relaxation_and_outcomes(self, rng):
        # a search builds its tables, keep-sets and draws for its one pass
        # and keeps none of them: after every search at a named and at an
        # unnamed rho, the memo holds the relaxation and the outcomes at the
        # named rhos alone
        for _ in range(3):
            ch = random_instance(rng, m_max=3, n_max=4)
            c = ch.config
            realization = Realization(ch, rhos=(c.rho, 2 * c.rho))
            for rho in (c.rho, 3 * c.rho + 1.0):
                for search in (*SEARCHES, conventional_mimo):
                    assert search(ch, rho, realization=realization) == search(ch, rho)
            assert set(realization._parts) == {"relaxation", *(("outcome", key) for key in (
                "exhaustive", "jcr-res", ("jcr-ao", 1e-3, 20),
                ("random", default_random_samples(c), 0), "conventional"))}

    def test_kept_ports_are_read_only(self):
        rx, tx, _, _ = _kept_ports(_relaxed([0.2, 0.8, 0.5] * 2, [0.6, 0.4, 0.1], 2, 3, 1, 3),
                                   2, 2)
        for arr in (rx, tx):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0


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


# (m_r, m_t, n_r, n_t, w): both Gram sides (m_r < m_t and m_t < m_r), M = 1,
# eight or more summed antennas on both sides (from eight on, np.sum along
# a contiguous antenna axis would add pairwise; every search adds antenna
# by antenna), the Cholesky branch (Gram size 3 and 4), n_r != n_t, W = 0
CONTRACT_SHAPES = [(2, 2, 5, 5, 0.5), (2, 3, 4, 3, 0.5), (3, 2, 3, 4, 2.0), (1, 1, 6, 4, 0.5),
                   (1, 8, 2, 2, 0.5), (2, 9, 2, 2, 0.5), (9, 2, 2, 2, 0.5), (3, 3, 3, 3, 0.5),
                   (4, 4, 2, 2, 1.0), (2, 2, 4, 6, 0.0), (3, 1, 2, 7, 0.5)]


def _contract_cases(shape):
    """Two channels of the shape, each at rho = 1e-3, the config's, 300."""
    m_r, m_t, n_r, n_t, w = shape
    rng = np.random.default_rng([m_r, m_t, n_r, n_t])
    for _ in range(2):
        cfg = FluidMimoConfig(m_r=m_r, m_t=m_t, n_r=n_r, n_t=n_t,
                              snr_db=float(rng.uniform(-5, 15)), w=w)
        ch = generate_channel(cfg, int(rng.integers(0, 2 ** 63)))
        for rho in (1e-3, cfg.rho, 300.0):
            yield ch, rho, rng


class TestBitwiseScores:
    """Every search scores a selection with the bits of the kernel's earlier
    formulas, the terms formed from gathered channel vectors on every call
    (oracles.packed_terms): np.array_equal, not approx."""

    @pytest.mark.parametrize("shape", CONTRACT_SHAPES)
    def test_exhaustive_and_reduced_grids(self, shape):
        for ch, rho, rng in _contract_cases(shape):
            c = ch.config
            every = [np.arange(c.n_r)] * c.m_r, [np.arange(c.n_t)] * c.m_t
            rx = _combinations([c.n_r] * c.m_r, 0, c.n_r ** c.m_r)
            tx = _combinations([c.n_t] * c.m_t, 0, c.n_t ** c.m_t)
            caps = _grid_capacities(_GridTerms(ch, *every), rho, rx, tx)
            assert np.array_equal(caps, reference_batch_capacities(ch, rx, tx, rho,
                                                                   _packed_logdet))

            # jcr-res: a table over kept sets, selections as positions in them
            keep_r, keep_t = reduced_port_count(c.n_r), reduced_port_count(c.n_t)
            rx_sets = [np.sort(rng.permutation(c.n_r)[:keep_r]) for _ in range(c.m_r)]
            tx_sets = [np.sort(rng.permutation(c.n_t)[:keep_t]) for _ in range(c.m_t)]
            rx = _combinations([keep_r] * c.m_r, 0, keep_r ** c.m_r)
            tx = _combinations([keep_t] * c.m_t, 0, keep_t ** c.m_t)
            caps = _grid_capacities(_GridTerms(ch, rx_sets, tx_sets), rho, rx, tx)
            expected = reference_batch_capacities(
                ch, np.asarray(rx_sets)[np.arange(c.m_r), rx],
                np.asarray(tx_sets)[np.arange(c.m_t), tx], rho, _packed_logdet)
            assert np.array_equal(caps, expected)

    @pytest.mark.parametrize("shape", CONTRACT_SHAPES)
    def test_random_rows(self, shape, monkeypatch):
        for ch, rho, rng in _contract_cases(shape):
            c = ch.config
            rx = rng.integers(0, c.n_r, size=(40, c.m_r))
            tx = rng.integers(0, c.n_t, size=(40, c.m_t))
            expected = reference_paired_capacities(ch, rx, tx, rho, _packed_logdet)
            assert np.array_equal(_RowTerms(ch, rx, tx).capacities([rho])[0], expected)
            # blocks of six selections, the last one of four
            monkeypatch.setattr(sel_mod, "_BLOCK_ENTRIES",
                                7 * c.m_r * c.m_t * min(c.m_r, c.m_t) - 1)
            assert np.array_equal(_RowTerms(ch, rx, tx).capacities([rho])[0], expected)
            monkeypatch.undo()

    @pytest.mark.parametrize("shape", CONTRACT_SHAPES)
    def test_ascent_steps_through_port_changes(self, shape):
        # every step's candidate scores, the ports moved between steps as
        # commits move them (a Gram-side move re-tabulates the pairs)
        for ch, rho, rng in _contract_cases(shape):
            c = ch.config
            ports = [rng.integers(0, c.n_r, size=c.m_r), rng.integers(0, c.n_t, size=c.m_t)]
            terms = _AscentTerms(ch, ports, (rho,))
            ports = [p[0] for p in terms.ports]
            assert terms.table.size == (2 * min(c.m_r, c.m_t) - 1) * ch.entries.size
            for _ in range(2):
                for side, n in ((0, c.n_r), (1, c.n_t)):
                    for antenna in range(len(ports[side])):
                        candidates = [np.tile(p, (n, 1)) for p in ports]
                        candidates[side][:, antenna] = np.arange(n)
                        expected = reference_paired_capacities(ch, *candidates, rho,
                                                               _packed_logdet)
                        assert np.array_equal(terms.step(side, antenna, [0])[0], expected)
                        terms.commit(0, side, antenna, int(rng.integers(0, n)))
                        assert terms.score()[0] == reference_paired_capacities(
                            ch, ports[0][None], ports[1][None], rho, _packed_logdet)[0]

    @pytest.mark.parametrize("shape", CONTRACT_SHAPES)
    def test_jcr_ao_trace(self, shape):
        relaxations = {}
        for ch, rho, _ in _contract_cases(shape):
            rel = relaxations.setdefault(id(ch), (ch, solve_jcr(ch)))[1]
            res = jcr_ao(ch, rho, realization=Realization(ch, rel))

            def reference(rx, tx):
                return reference_paired_capacities(ch, np.array([rx]) - 1, np.array([tx]) - 1,
                                                   rho, _packed_logdet)[0]

            start = ao_round(rel)
            rx, tx, sweeps, evaluations, trace = loop_coordinate_ascent(
                ch.config, (start.rx_ports, start.tx_ports), reference)
            assert res.capacity_trace == tuple(trace)
            assert (res.selection, res.iterations, res.evaluations) == (
                PortSelection(rx, tx), sweeps, evaluations)

    @pytest.mark.parametrize("m_r", [1, 2])
    def test_grid_and_row_scores_agree(self, m_r):
        # nine summed antennas on the transmit side: the grid and the row
        # terms score every selection with the same bits
        cfg = FluidMimoConfig(m_r=m_r, m_t=9, n_r=3, n_t=2, snr_db=5.0, w=0.5)
        ch = generate_channel(cfg, 5)
        rx = _combinations([3] * m_r, 0, 3 ** m_r)
        tx = _combinations([2] * 9, 0, 2 ** 9)
        for rho in (1e-3, cfg.rho, 300.0):
            grid = _grid_capacities(_GridTerms(ch, [np.arange(3)] * m_r, [np.arange(2)] * 9),
                                    rho, rx, tx)
            rows = _RowTerms(ch, np.repeat(rx, len(tx), axis=0),
                             np.tile(tx, (len(rx), 1))).capacities([rho])[0]
            assert np.array_equal(grid.ravel(), rows)

    @pytest.mark.parametrize("shape", CONTRACT_SHAPES)
    def test_reported_bits_are_the_capacity(self, shape):
        # every algorithm reports the score that chose its selection, and
        # that is `capacity` of the selection, bit for bit
        for ch, rho, _ in _contract_cases(shape):
            realization = Realization(ch)
            for search in (*SEARCHES, conventional_mimo):
                res = (search(ch, rho) if search is conventional_mimo
                       else search(ch, rho, realization=realization))
                assert res.capacity_bits == capacity(extract_effective(ch, res.selection), rho)
                if search is jcr_ao:
                    assert res.capacity_bits == res.capacity_trace[-1]

    def test_cached_layouts_are_read_only(self):
        for m in (1, 2, 3, 5):
            assert _triangle(m) is _triangle(m)
            for arr in (*_triangle(m), *_grid_layout(m, 4), *_ascent_layout(m, 4)):
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0


class TestOverflow:
    """Scores NaN or infinite because rho |g|^2 overflows float64: an
    algorithm raises OverflowError instead of deciding on them."""

    @pytest.mark.parametrize("search", [exhaustive_search, jcr_res, jcr_ao, random_selection])
    def test_search_with_overflowing_scores_raises(self, search):
        # rho |g|^2 itself overflows, so every score is NaN or infinite. The
        # relaxation is given: an LP on |g|^2 ~ 1e300 would fail first
        ch = generate_channel(FluidMimoConfig(m_r=2, m_t=2, n_r=3, n_t=3), 1)
        ch = replace(ch, entries=ch.entries * 1e150)
        start = _relaxed([1, 0, 0] * 2, [1, 0, 0] * 2, 2, 3, 2, 3)
        with pytest.raises(OverflowError, match="overflows"):
            search(ch, 1e10, realization=Realization(ch, start))

    @pytest.mark.parametrize("search", SEARCHES)
    def test_search_with_an_overflowing_determinant_reports(self, search):
        # rho |g|^2 ~ 1e300 is finite, its 2 x 2 determinant is not: every
        # search re-scores such selections exactly scaled, and reports the
        # finite capacity of the one it chose, as conventional does
        cfg = FluidMimoConfig(m_r=2, m_t=2, n_r=3, n_t=3, snr_db=3000.0)
        ch = generate_channel(cfg, 1)
        res = search(ch, cfg.rho)
        assert math.isfinite(res.capacity_bits)
        assert res.capacity_bits == capacity(extract_effective(ch, res.selection), cfg.rho)

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
            jcr_ao(ch, 1e10, realization=Realization(ch, start))

    def test_overflowing_reported_capacity_raises(self):
        ch = make_channel([[1e150]], m_r=1, m_t=1, n_r=1, n_t=1)
        with pytest.warns(RuntimeWarning):
            assert capacity(ch.entries, 1e300) == math.inf
        with pytest.raises(OverflowError):
            conventional_mimo(ch, 1e300)


def _run(algorithm, ch, rho, realization, samples=None, seed=0, epsilon=1e-3):
    return run_algorithm(algorithm, ch, rho, realization, cap=DEFAULT_EXHAUSTIVE_CAP,
                         epsilon=epsilon, max_iters=20, samples=samples, seed=seed)


class TestBatchedRhos:
    """A realization given the rhos its caller will score: the first call of
    an algorithm at one of them scores all of them in one pass, and every
    call returns the outcome of a single-rho call on a fresh realization."""

    # a grid of 144 Gram-side selections per row, which the default first
    # pass prunes, besides the contract shapes
    @pytest.mark.parametrize("shape", CONTRACT_SHAPES + [(2, 2, 12, 12, 0.5)])
    @pytest.mark.parametrize("first_pass", [sel_mod._FIRST_PASS, 1])
    def test_every_algorithm_matches_single_rho_calls(self, shape, first_pass, monkeypatch):
        # first_pass 1 prunes every exhaustive and jcr-res grid with two or
        # more Gram-side antennas, (3, 3, 3, 3) and (4, 4, 2, 2) among them
        monkeypatch.setattr(sel_mod, "_FIRST_PASS", first_pass)
        channels = {}
        for ch, rho, _ in _contract_cases(shape):
            channels.setdefault(id(ch), (ch, solve_jcr(ch)))
        for ch, rel in channels.values():
            # rho = 0 ties every selection and keeps every row of the grid,
            # so it comes last once: then no rho keeps the rows of another
            for rhos in ((0.0, 1e-3, ch.config.rho, 300.0), (300.0, ch.config.rho, 1e-3, 0.0)):
                batched = Realization(ch, rel, rhos=rhos)
                for options, rho, algorithm in itertools.product(
                        ({}, {"samples": 7, "seed": 3}, {"epsilon": 0.5}),
                        (rhos[2], *rhos[::-1], rhos[2]),          # not the first rho first
                        ALGORITHMS):
                    res = _run(algorithm, ch, rho, batched, **options)
                    alone = _run(algorithm, ch, rho, Realization(ch, rel), **options)
                    assert res == alone, (algorithm, rho, options)
                    assert res.capacity_trace == alone.capacity_trace
                    assert res.capacity_bits == capacity(extract_effective(ch, res.selection), rho)

    def test_one_pass_per_algorithm_and_options(self, monkeypatch):
        # every search runs its core once for all the rhos, and again only
        # for other options or a rho it was not given
        passes = []
        for name in ("_enumerate_best", "_ascend"):
            def counting(grid_or_realization, rhos, *args, core=getattr(sel_mod, name), name=name):
                passes.append((name, tuple(rhos)))
                return core(grid_or_realization, rhos, *args)
            monkeypatch.setattr(sel_mod, name, counting)
        ch = generate_channel(FluidMimoConfig(m_r=2, m_t=2, n_r=4, n_t=4), 2)
        rhos = (0.5, 2.0, 8.0)
        batched = Realization(ch, rhos=rhos)
        for rho in rhos:
            for algorithm in ALGORITHMS:
                _run(algorithm, ch, rho, batched)
        assert passes == [("_enumerate_best", rhos)] * 2 + [("_ascend", rhos)]
        passes.clear()
        _run("jcr-ao", ch, 2.0, batched, epsilon=0.5)
        _run("exhaustive", ch, 3.0, batched)
        assert passes == [("_ascend", rhos), ("_enumerate_best", (3.0,))]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_overflow_at_one_rho_is_raised_by_its_call_alone(self, algorithm):
        # |g|^2 ~ 1e300: rho |g|^2 overflows float64 at the largest rho only
        ch = generate_channel(FluidMimoConfig(m_r=2, m_t=2, n_r=3, n_t=3), 1)
        ch = replace(ch, entries=ch.entries * 1e150)
        start = _relaxed([1, 0, 0] * 2, [1, 0, 0] * 2, 2, 3, 2, 3)
        rhos = (1e-300, 1e-290, 1e10)
        for order in (rhos, rhos[::-1]):
            batched = Realization(ch, start, rhos=rhos)
            for rho in (*order, *order):
                if rho == 1e10:
                    with pytest.raises(OverflowError, match="overflows"):
                        _run(algorithm, ch, rho, batched)
                else:
                    assert _run(algorithm, ch, rho, batched) == _run(
                        algorithm, ch, rho, Realization(ch, start))

    @pytest.mark.parametrize("rho", [-1.0, math.nan, math.inf])
    def test_invalid_rho_in_rhos_raises_when_built(self, rho):
        ch = generate_channel(FluidMimoConfig(m_r=2, m_t=2, n_r=3, n_t=3), 1)
        with pytest.raises(ValueError, match="^rho must be finite and >= 0, got "):
            Realization(ch, rhos=(1.0, rho))


class TestSeeds:
    @pytest.mark.parametrize("seed", [True, False, 1.5, 2.0, "3", None, -1])
    def test_random_baseline_refuses_a_seed_that_is_no_integer(self, seed):
        ch = generate_channel(FluidMimoConfig(m_r=1, m_t=1, n_r=3, n_t=3), 1)
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got "):
            random_selection(ch, 1.0, seed=seed)

    def test_random_baseline_takes_numpy_integers(self):
        ch = generate_channel(FluidMimoConfig(m_r=1, m_t=1, n_r=3, n_t=3), 1)
        assert random_selection(ch, 1.0, seed=np.uint64(9)) == random_selection(ch, 1.0, seed=9)


class TestIntegerOptions:
    # a bool or a float used to be read as a number: exhaustive_search(ch,
    # True) scored at rho = 1, and jcr_ao(max_iters=2.5) ran
    @pytest.mark.parametrize("cap", [True, 2.5, 1e9])
    def test_exhaustive_search_refuses_a_cap_that_is_no_integer(self, cap):
        ch = generate_channel(FluidMimoConfig(m_r=1, m_t=1, n_r=3, n_t=3), 1)
        with pytest.raises(ValueError, match="^cap must be a nonnegative integer, got "):
            exhaustive_search(ch, 1.0, cap=cap)

    @pytest.mark.parametrize("max_iters", [True, 2.5, 2.0])
    def test_jcr_ao_refuses_max_iters_that_is_no_integer(self, monkeypatch, max_iters):
        lps = []
        monkeypatch.setattr(sel_mod, "solve_jcr", lambda channel: lps.append(channel))
        ch = generate_channel(FluidMimoConfig(m_r=1, m_t=1, n_r=3, n_t=3), 1)
        with pytest.raises(ValueError, match="^max_iters must be an integer >= 1, got "):
            jcr_ao(ch, 1.0, max_iters=max_iters)
        with pytest.raises(ValueError, match="^epsilon must be finite and > 0, got True"):
            jcr_ao(ch, 1.0, epsilon=True)
        assert lps == []

    @pytest.mark.parametrize("samples", [True, 2.5, 2.0])
    def test_random_baseline_refuses_samples_that_are_no_integer(self, samples):
        ch = generate_channel(FluidMimoConfig(m_r=1, m_t=1, n_r=3, n_t=3), 1)
        with pytest.raises(ValueError, match="^samples must be an integer >= 1, got "):
            random_selection(ch, 1.0, samples=samples)

    @pytest.mark.parametrize("rho", [True, np.True_, False])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_algorithm_refuses_a_bool_rho(self, algorithm, rho):
        ch = generate_channel(FluidMimoConfig(m_r=2, m_t=2, n_r=3, n_t=3), 1)
        with pytest.raises(ValueError, match="^rho must be finite and >= 0, got "):
            _run(algorithm, ch, rho, None)
        with pytest.raises(ValueError, match="^rho must be finite and >= 0, got "):
            Realization(ch, rhos=(1.0, rho))


@pytest.mark.parametrize("rho", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("shared", [False, True])
def test_invalid_rho_raises_before_any_part(monkeypatch, algorithm, rho, shared):
    # every algorithm refuses a negative, NaN or infinite rho with the
    # ValueError of `capacity`, before jcr-res or jcr-ao solves an LP;
    # before, the four searches raised OverflowError, the jcr ones after
    # the LP
    lps = []
    monkeypatch.setattr(sel_mod, "solve_jcr", lambda channel: lps.append(channel))
    ch = generate_channel(FluidMimoConfig(m_r=2, m_t=2, n_r=4, n_t=4), 1)
    with pytest.raises(ValueError, match="^rho must be finite and >= 0, got "):
        run_algorithm(algorithm, ch, rho, Realization(ch) if shared else None,
                      cap=DEFAULT_EXHAUSTIVE_CAP, epsilon=1e-3, max_iters=20, samples=None,
                      seed=0)
    assert lps == []


def test_scalar_capacity_only_reports(rng, monkeypatch):
    # every algorithm reports the batch score that chose its selection and
    # calls no `capacity`, conventional included: it scores its one
    # selection with the random baseline's row terms. capacity_bits is
    # still `capacity` of the selection
    import fluidmimo.selection as selection_mod

    calls = []

    def counting(h, rho):
        calls.append(h.shape)
        return capacity(h, rho)

    monkeypatch.setattr(selection_mod, "capacity", counting)
    ch = random_instance(rng, m_max=3, n_max=5)
    rho = ch.config.rho
    for run, count in ((lambda: exhaustive_search(ch, rho), 0), (lambda: jcr_res(ch, rho), 0),
                       (lambda: jcr_ao(ch, rho), 0), (lambda: random_selection(ch, rho), 0),
                       (lambda: conventional_mimo(ch, rho), 0)):
        calls.clear()
        res = run()
        assert len(calls) == count
        assert res.capacity_bits == capacity(extract_effective(ch, res.selection), rho)
