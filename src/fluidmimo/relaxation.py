"""Joint convex relaxation of the port-selection problem, solved exactly.

Relaxing the binary selection problem keeps the per-antenna "exactly one
port" equalities, lets the indicator vectors range over [0, 1], and
replaces the capacity objective with the concave surrogate

    U(x, y) = sum_e |g_e|^2 * min(x[row_e], y[col_e]).

Maximizing U over the product of simplices is turned into a linear program
by the usual epigraph trick: one auxiliary variable t_e per nonzero
coefficient with t_e <= x[row_e], t_e <= y[col_e], t_e >= 0. Because every
cost is positive, the inner maximum over t recovers exactly U(x, y) for
any feasible (x, y), so the LP optimum equals the relaxation optimum.
Entries with |g|^2 = 0 cannot affect the optimum and are dropped.

The fractional optimum is generally non-unique; callers must treat the
returned weights as scores, never as a canonical solution.
"""

from dataclasses import dataclass

import numpy as np

from .ipm import IpmFailure, SolverStats, solve_epigraph_lp

__all__ = [
    "LpProblem", "RelaxedSolution", "build_lp", "solve_jcr", "IpmFailure",
]


@dataclass(frozen=True)
class LpProblem:
    """Epigraph LP for one channel: costs plus pure index structure.

    t_rows[e] / t_cols[e] give the flat x / y port index coupled to
    auxiliary variable e; t_costs[e] is its squared channel gain.
    """

    m_r: int
    m_t: int
    n_r: int
    n_t: int
    t_rows: np.ndarray
    t_cols: np.ndarray
    t_costs: np.ndarray


@dataclass(frozen=True)
class RelaxedSolution:
    """Fractional port weights with the optimal surrogate value.

    x_hat / y_hat are clamped to [0, 1] and sum to 1 (within solver
    feasibility tolerance) over each antenna's ports. rx_duals / tx_duals
    price the per-antenna budget equalities and sum to u_star.
    """

    x_hat: np.ndarray
    y_hat: np.ndarray
    u_star: float
    solver_stats: SolverStats
    rx_duals: np.ndarray
    tx_duals: np.ndarray
    m_r: int
    m_t: int
    n_r: int
    n_t: int


def build_lp(channel):
    """Epigraph LP for `channel`, with zero-gain entries dropped."""
    c = channel.config
    gains = np.abs(channel.entries) ** 2
    rows, cols = np.nonzero(gains)
    return LpProblem(
        m_r=c.m_r, m_t=c.m_t, n_r=c.n_r, n_t=c.n_t,
        t_rows=rows.astype(np.intp),
        t_cols=cols.astype(np.intp),
        t_costs=gains[rows, cols].astype(float),
    )


def solve_jcr(channel, tol_gap=1e-9, tol_feas=1e-10, max_iter=100):
    """Solve the joint convex relaxation for `channel`.

    Returns a RelaxedSolution; raises IpmFailure (with solver stats) if the
    interior-point method cannot certify the required accuracy.
    """
    lp = build_lp(channel)
    sol = solve_epigraph_lp(lp, tol_gap=tol_gap, tol_feas=tol_feas, max_iter=max_iter)
    return RelaxedSolution(
        x_hat=np.clip(sol.x, 0.0, 1.0),
        y_hat=np.clip(sol.y, 0.0, 1.0),
        u_star=sol.objective,
        solver_stats=sol.stats,
        rx_duals=sol.rx_duals,
        tx_duals=sol.tx_duals,
        m_r=lp.m_r, m_t=lp.m_t, n_r=lp.n_r, n_t=lp.n_t,
    )
