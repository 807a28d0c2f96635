import subprocess
import sys
import textwrap
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidmimo import (FluidMimoConfig, IpmFailure, OverallChannel, SolverStats, build_lp,
                       generate_channel)
from fluidmimo.ipm import (_cho_factor_bumped, _cho_solve, _KktSolver, _structure,
                           _structure_of, solve_epigraph_lp)
from scipy.linalg import cho_factor, cho_solve

from conftest import random_instance


def dense_constraint_matrix(lp):
    """A assembled explicitly from its definition, for cross-checks."""
    nx, ny, nt = lp.m_r * lp.n_r, lp.m_t * lp.n_t, len(lp.t_costs)
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
        dv, dlam = _KktSolver(_structure(lp)[0], theta).solve(f, g)
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
    dv, dlam = _KktSolver(_structure(lp)[0], theta).solve(f, g)
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


def solution_bytes(sol):
    """Every field of an LpSolution, as the bytes of its values."""
    return [np.asarray(getattr(sol, f.name)).tobytes() if f.name != "stats"
            else repr(sol.stats).encode() for f in fields(sol)]


def test_cold_and_warm_structure_give_the_same_bits(rng):
    lps = [build_lp(random_instance(rng, m_max=3, n_max=6)) for _ in range(6)]
    _structure_of.cache_clear()
    cold = [solution_bytes(solve_epigraph_lp(lp)) for lp in lps]
    assert _structure_of.cache_info().misses == len({
        (lp.m_r, lp.m_t, lp.n_r, lp.n_t, lp.t_rows.tobytes(), lp.t_cols.tobytes()) for lp in lps})
    warm = [solution_bytes(solve_epigraph_lp(lp)) for lp in lps]
    assert _structure_of.cache_info().hits >= len(lps)
    assert cold == warm


def test_structure_is_keyed_on_the_edges_not_the_shape():
    cfg = FluidMimoConfig(m_r=2, m_t=2, n_r=3, n_t=3)
    entries = generate_channel(cfg, 4).entries
    lps = []
    for zero in ((0, 0), (5, 2)):
        holed = entries.copy()
        holed[zero] = 0.0
        lps.append(build_lp(OverallChannel(cfg, holed)))
    first, second = (_structure(lp)[0] for lp in lps)
    assert first is not second
    assert not np.array_equal(first.edge_ports, second.edge_ports)
    # the same edges in another dtype share the one structure
    same = replace(lps[0], t_rows=lps[0].t_rows.astype(np.int32))
    assert _structure(same)[0] is first
    for lp in lps:
        sol = solve_epigraph_lp(lp)
        assert sol.stats.duality_gap <= 1e-7 and len(sol.t) == 35


def test_cached_structure_is_read_only(rng):
    lay, eye, v_start = _structure(build_lp(random_instance(rng)))
    arrays = [a for obj in (lay, eye) for a in vars(obj).values() if isinstance(a, np.ndarray)]
    assert len(arrays) >= 10
    for a in (*arrays, v_start):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code):
    """Run `code` in a fresh interpreter that imports fluidmimo from src/."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=SRC,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_runs_without_importing_scipy_linalg(tmp_path):
    out = run_python(f"""
        import contextlib, io, sys
        import fluidmimo.cli as cli
        assert "scipy.linalg" not in sys.modules, "import fluidmimo.cli"
        channel = {str(tmp_path / "ch.csv")!r}
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["generate", "--m", "2", "--n", "4", "--seed", "3",
                             "--out", channel]) == 0
            assert cli.main(["solve", "--channel", channel, "--algo", "all"]) == 0
        assert "scipy.linalg" not in sys.modules, "fluidmimo solve --algo all"
        assert not [name for name in sys.modules if name.startswith("scipy")]
        import scipy.linalg
        from fluidmimo import ipm
        assert ipm.dpotrf is scipy.linalg.lapack.dpotrf
        assert ipm.dpotrs is scipy.linalg._flapack.dpotrs
        print("ok")
    """)
    assert out.split() == ["ok"]


def test_lapack_falls_back_to_scipy_linalg():
    # with no spec for scipy, the routines come from scipy.linalg.lapack,
    # and the solver gives the same bits
    out = run_python("""
        import importlib, sys
        from dataclasses import astuple
        from unittest import mock
        import numpy as np
        from fluidmimo import FluidMimoConfig, build_lp, generate_channel
        from fluidmimo import ipm

        cfg = FluidMimoConfig(m_r=2, m_t=2, n_r=6, n_t=6)
        lps = [build_lp(generate_channel(cfg, seed)) for seed in range(4)]
        direct = [ipm.solve_epigraph_lp(lp) for lp in lps]
        assert "scipy.linalg" not in sys.modules
        with mock.patch("importlib.util.find_spec", return_value=None):
            importlib.reload(ipm)
        assert "scipy.linalg" in sys.modules
        import scipy.linalg.lapack
        assert ipm.dpotrf is scipy.linalg.lapack.dpotrf
        assert ipm.dpotrs is scipy.linalg.lapack.dpotrs
        for lp, before in zip(lps, direct):
            after = ipm.solve_epigraph_lp(lp)
            for name in ("x", "y", "t", "rx_duals", "tx_duals", "coupling_duals_x",
                         "coupling_duals_y", "reduced_costs"):
                assert np.array_equal(getattr(after, name), getattr(before, name)), name
            # the reload makes a new SolverStats class: compare the values
            assert after.objective == before.objective
            assert astuple(after.stats) == astuple(before.stats)
        print("ok")
    """)
    assert out.split() == ["ok"]
