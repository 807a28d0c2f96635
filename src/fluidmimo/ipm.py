"""Primal-dual interior-point solver for the epigraph selection LP.

Solves, to high accuracy, the linear program

    maximize   sum_e cost_e * t_e
    subject to sum_{ports of antenna} x = 1   (per receive antenna)
               sum_{ports of antenna} y = 1   (per transmit antenna)
               t_e <= x[row_e],  t_e <= y[col_e],  x, y, t >= 0

using Mehrotra's predictor-corrector path-following method on the
standard-form equivalent min c^T v s.t. A v = b, v >= 0, whose primal and
dual block layouts `_Layout` states.

References: S. Mehrotra, "On the implementation of a primal-dual interior
point method", SIAM J. Optim. 2(4), 1992; Nocedal & Wright, "Numerical
Optimization", ch. 14; Y. Zhang's LIPSOL report for the starting point.

Each Newton step solves the symmetric quasi-definite system

    [ -Theta  A^T ] [dv  ]   [ f ]
    [    A     0  ] [dlam] = [ g ],     Theta = diag(z / v),

never formed explicitly: every t_e appears in exactly two coupling rows
and touches exactly one x and one y port, so the variables t, s, w and the
coupling duals eliminate edge-by-edge with scalar pivots. What remains is
a condensed SPD matrix H on the (n_x + n_y) port weights, assembled as a
diagonal plus one positive-definite 2x2 contribution per edge (no
cancellation), followed by a Schur complement onto the M_R + M_T simplex
duals. One iteration costs O(edges) assembly plus two small dense Cholesky
factorizations, regardless of the five-variables-per-edge standard form.

LAPACK dpotrf/dpotrs are called directly, with the arguments of
`scipy.linalg.cho_factor`/`cho_solve`, so results match those wrappers to
the bit. Their `check_finite` becomes one finiteness guard: each factor is
checked when it is made, each right-hand side before its solve. A failed
check means the iterates overflowed float64; the solve then raises
IpmFailure carrying the stats, never another exception.

The two routines come from scipy's compiled `scipy.linalg._flapack`
extension, loaded from its file: `scipy.linalg.lapack` re-exports the same
routine objects, but importing it runs all of `scipy.linalg`'s package
init, which imports numpy.f2py, numpy.testing and numpy.ma and costs more
than half of `import fluidmimo.cli` (~0.3 s, ~18 MB). If the file cannot
be found or loaded, the routines come from `scipy.linalg.lapack`.

What depends only on the LP's index structure (the `_Layout`, the
identity-Theta KKT factorization and the start primal) is built once per
structure and cached read-only (`_structure`), so the LPs of one channel
shape share it.
"""

import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader

import numpy as np

_CERTIFY_GAP = 1e-7    # weakest accuracy a returned solution may have
_CERTIFY_FEAS = 1e-8
_FLAPACK = "scipy.linalg._flapack"


def _flapack_path():
    """The file of scipy's compiled LAPACK extension, found without
    importing scipy; None if there is none."""
    spec = find_spec("scipy")
    if spec is None or spec.origin is None:
        return None
    base = os.path.join(os.path.dirname(spec.origin), "linalg", "_flapack")
    return next((base + suffix for suffix in EXTENSION_SUFFIXES
                 if os.path.isfile(base + suffix)), None)


def _bind_lapack():
    """(dpotrf, dpotrs), from the extension file when scipy.linalg is not
    imported yet, else (or if that fails) from `scipy.linalg.lapack`.

    The extension uses single-phase init, so Python caches it: when
    scipy.linalg imports it later, it gets these same routine objects. Its
    sys.modules entry is dropped again, as scipy.linalg must import it
    itself to bind it as its attribute.
    """
    if _FLAPACK not in sys.modules:
        try:
            path = _flapack_path()
            if path is not None:
                loader = ExtensionFileLoader(_FLAPACK, path)
                flapack = module_from_spec(spec_from_loader(_FLAPACK, loader))
                loader.exec_module(flapack)
                return flapack.dpotrf, flapack.dpotrs
        except (ImportError, OSError):
            pass
        finally:
            sys.modules.pop(_FLAPACK, None)
    from scipy.linalg import lapack
    return lapack.dpotrf, lapack.dpotrs


dpotrf, dpotrs = _bind_lapack()

# glibc's malloc hands freed memory at the top of the heap back to the OS
# once it exceeds the trim threshold, 128 KiB until malloc frees a block it
# had mapped on its own, which raises the threshold to twice that block.
# The solver and the searches free a few hundred KiB per call, so at the
# start value each call faults the same pages in again (~80 faults per
# exhaustive search at N=10, 7% of a serial SNR sweep). Importing
# scipy.linalg frees such a block as a side effect; without that import,
# one mapped MiB freed here raises the threshold to 2 MiB.
np.empty(1 << 17)


class IpmFailure(RuntimeError):
    """Solver did not certify the required accuracy; carries the stats."""

    def __init__(self, message, stats):
        super().__init__(f"{message} "
                         f"(iterations={stats.iterations}, gap={stats.duality_gap:.3e}, "
                         f"primal={stats.primal_residual:.3e}, dual={stats.dual_residual:.3e})")
        self.stats = stats


@dataclass(frozen=True)
class SolverStats:
    iterations: int
    duality_gap: float          # relative duality gap at termination
    primal_residual: float      # relative primal feasibility residual
    dual_residual: float        # relative dual feasibility residual
    complementarity: float      # max_i v_i z_i over all variable pairs


@dataclass(frozen=True)
class LpSolution:
    """Primal/dual optimum of the epigraph LP, in the maximize convention.

    rx_duals/tx_duals price the per-antenna simplex equalities: they are
    the marginal increase of the optimal objective per unit of budget, and
    they sum to the objective by strong duality.
    """

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    objective: float
    rx_duals: np.ndarray
    tx_duals: np.ndarray
    coupling_duals_x: np.ndarray   # prices of t_e <= x[row_e]
    coupling_duals_y: np.ndarray   # prices of t_e <= y[col_e]
    reduced_costs: np.ndarray      # dual slacks z for (x, y, t, s, w)
    stats: SolverStats


def _finite(a):
    """`a`, or LinAlgError if it holds inf or NaN: the finiteness guard."""
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("KKT system holds inf or NaN: float64 overflowed")
    return a


def _cho_factor_bumped(mat):
    """Upper Cholesky factor with escalating diagonal regularization.

    The condensed matrices are SPD in exact arithmetic but their
    conditioning degrades as the barrier scaling gets extreme; a tiny
    diagonal bump keeps the factorization alive. Step quality is judged on
    true residuals afterwards, never on the factorization itself. The
    strict lower triangle keeps mat's entries (clean=0, as in cho_factor),
    so the finiteness check of the factor covers the input too.
    """
    bump, bumped = 1e-14, mat
    while True:
        c, info = dpotrf(bumped, lower=0, overwrite_a=0, clean=0)
        if info == 0:
            return _finite(c)
        if bump > 1e-4:
            raise np.linalg.LinAlgError(f"{info}-th leading minor is not positive definite")
        scale = max(1.0, float(np.max(np.abs(np.diagonal(mat)))))
        bumped = bumped.copy()
        bumped[np.diag_indices_from(bumped)] += bump * scale
        bump *= 100.0


def _cho_solve(c, b):
    """Solve with the factor `c` of `_cho_factor_bumped`, as
    `scipy.linalg.cho_solve` does; `b` passes the finiteness guard first."""
    x, info = dpotrs(c, _finite(b), lower=0)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def _blocks(*sizes):
    """Consecutive slices with the given lengths."""
    stops = np.cumsum(sizes).tolist()
    return [slice(stop - size, stop) for size, stop in zip(sizes, stops)]


class _Layout:
    """Block layout of the standard-form vectors of one LP, and the
    constants that every KKT factorization of that LP reuses.

        primal  v   = (x, y, t, s, w)   lengths n_x, n_y, E, E, E
        dual    lam = (rx, tx, p, q)    lengths M_R, M_T, E, E

    Edge e has the slacks s_e = x[row_e] - t_e and w_e = y[col_e] - t_e;
    rx, tx price the per-antenna simplex rows and p_e, q_e the coupling
    rows t_e + s_e - x[row_e] = 0 and t_e + w_e - y[col_e] = 0. `ports`
    spans (x, y), `simplex` spans (rx, tx), and `sw`, `pq` span the two
    per-edge blocks, which are read as (2, E) stacks. `b` is the
    right-hand side of A v = b: one per simplex row, zero elsewhere.
    """

    def __init__(self, m_r, m_t, n_r, n_t, t_rows, t_cols):
        ne, n_x = len(t_rows), m_r * n_r
        self.x, self.y, self.t, self.s, self.w = _blocks(n_x, m_t * n_t, ne, ne, ne)
        self.rx, self.tx, self.p, self.q = _blocks(m_r, m_t, ne, ne)
        self.ports, self.sw = slice(0, self.y.stop), slice(self.s.start, self.w.stop)
        self.simplex, self.pq = slice(0, self.tx.stop), slice(self.p.start, self.q.stop)
        self.n, self.m = self.w.stop, self.q.stop
        self.b = np.zeros(self.m)
        self.b[self.simplex] = 1.0
        # index into v of each edge's x port, then of each edge's y port
        self.edge_ports = np.concatenate([t_rows, n_x + t_cols])
        self.ant = np.concatenate([np.repeat(np.arange(m_r), n_r),
                                   m_r + np.repeat(np.arange(m_t), n_t)])
        n_ports = self.ports.stop
        self.et = np.zeros((n_ports, self.simplex.stop))   # E^T, E = antenna sums
        self.et[np.arange(n_ports), self.ant] = 1.0
        # flat indices into the condensed port matrix: its diagonal, then the
        # (x, y) and the (y, x) entry of each edge
        rows, cols = self.edge_ports.reshape(2, -1)
        self.h_diag = np.arange(n_ports) * (n_ports + 1)
        self.h_upper, self.h_lower = rows * n_ports + cols, cols * n_ports + rows

    def a_mul(self, v):
        """A v: the antenna sums of (x, y), then t + s - x[row], t + w - y[col]."""
        out = np.empty(self.m)
        out[self.simplex] = np.bincount(self.ant, weights=v[self.ports],
                                        minlength=self.simplex.stop)
        pq = np.add(v[self.t], v[self.sw].reshape(2, -1), out=out[self.pq].reshape(2, -1))
        pq -= v[self.edge_ports].reshape(2, -1)
        return out

    def at_mul(self, lam):
        """A^T lam, in the primal layout."""
        out = np.empty(self.n)
        pq = out[self.sw] = lam[self.pq]
        np.subtract(lam[self.simplex][self.ant],
                    np.bincount(self.edge_ports, weights=pq, minlength=self.ports.stop),
                    out=out[self.ports])
        np.add(*pq.reshape(2, -1), out=out[self.t])
        return out


class _KktSolver:
    """One factorization of the quasi-definite KKT system for a fixed Theta."""

    def __init__(self, lay, theta):
        self.lay = lay
        th_t = theta[lay.t]
        self.th_sw = th_sw = theta[lay.sw].reshape(2, -1)
        th_ts = th_t + th_sw[0]
        self.sigma = th_ts + th_sw[1]

        # condensed SPD port matrix: diagonal Theta plus, per edge, the PD
        # 2x2 contribution [[ts(tt+tw), -ts*tw], [-ts*tw, tw(tt+ts)]]/sigma
        n_ports = lay.ports.stop
        h = np.zeros((n_ports, n_ports))
        flat = h.ravel()
        weights = np.empty_like(th_sw)
        np.multiply(th_sw[0], th_t + th_sw[1], out=weights[0])
        np.multiply(th_sw[1], th_ts, out=weights[1])
        weights /= self.sigma
        flat[lay.h_diag] = theta[lay.ports] + np.bincount(
            lay.edge_ports, weights=weights.ravel(), minlength=n_ports)
        flat[lay.h_upper] = flat[lay.h_lower] = -th_sw[0] * th_sw[1] / self.sigma  # unique edges
        self.cho_h = _cho_factor_bumped(h)

        # Schur complement on the simplex duals: E H^{-1} E^T
        self.cho_g = _cho_factor_bumped(lay.et.T @ _cho_solve(self.cho_h, lay.et))

    def solve(self, f, g):
        """Solve [[-Theta, A^T], [A, 0]] (dv, dlam) = (f, g)."""
        lay, th_sw, sigma = self.lay, self.th_sw, self.sigma
        f_sw = f[lay.sw].reshape(2, -1)
        g_pq = g[lay.pq].reshape(2, -1)

        # eliminate s, w (coupling-row pivots), then t (its own diagonal)
        th_g = th_sw * g_pq
        ht = f[lay.t] - f_sw[0]
        ht -= f_sw[1]
        ht -= th_g[0]
        ht -= th_g[1]
        weights = th_sw * ht
        weights /= sigma
        weights += np.add(f_sw, th_g, out=th_g)
        r1 = f[lay.ports] + np.bincount(
            lay.edge_ports, weights=weights.ravel(), minlength=lay.ports.stop)

        # simplex duals from the small Schur system, then port weights
        dv, dlam = np.empty(lay.n), np.empty(lay.m)
        lam = dlam[lay.simplex] = _cho_solve(
            self.cho_g, g[lay.simplex] + lay.et.T @ _cho_solve(self.cho_h, r1))
        u = dv[lay.ports] = _cho_solve(self.cho_h, lam[lay.ant] - r1)

        # back-substitute the eliminated variables and coupling duals
        u_edge = u[lay.edge_ports].reshape(2, -1)
        tt = np.multiply(th_sw[0], u_edge[0], out=dv[lay.t])
        tt += th_sw[1] * u_edge[1]
        tt -= ht
        tt /= sigma
        sw = np.subtract(g_pq, tt, out=dv[lay.sw].reshape(2, -1))
        sw += u_edge
        pq = np.multiply(th_sw, sw, out=dlam[lay.pq].reshape(2, -1))
        pq += f_sw
        return dv, dlam


def _max_step(val, step):
    """Largest alpha in (0, 1] keeping val + alpha*step >= 0."""
    return min(1.0, float(np.where(step < 0, -val / step, np.inf).min()))


def _structure(lp):
    """(layout, identity-Theta KKT solver, start primal) of `lp`: shared,
    read-only, by every LP with the same shape and edges."""
    return _structure_of(lp.m_r, lp.m_t, lp.n_r, lp.n_t,
                         np.asarray(lp.t_rows, dtype=np.intp).tobytes(),
                         np.asarray(lp.t_cols, dtype=np.intp).tobytes())


@lru_cache(maxsize=16)
def _structure_of(m_r, m_t, n_r, n_t, t_rows, t_cols):
    """`_structure` by its key: the shape and the edges' port indices as
    bytes. The start primal is the least-norm solution of A v = b."""
    lay = _Layout(m_r, m_t, n_r, n_t,
                  np.frombuffer(t_rows, dtype=np.intp), np.frombuffer(t_cols, dtype=np.intp))
    eye = _KktSolver(lay, np.ones(lay.n))
    v_start, _ = eye.solve(np.zeros(lay.n), lay.b)
    for a in (*vars(lay).values(), *vars(eye).values(), v_start):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return lay, eye, v_start


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_epigraph_lp(lp, tol_gap=1e-9, tol_feas=1e-10, max_iter=100):
    """Solve the epigraph LP for `lp` (an LpProblem) to high accuracy.

    Targets a relative duality gap of `tol_gap` and feasibility residuals
    of `tol_feas`; raises IpmFailure if it cannot at least certify a 1e-7
    gap and 1e-8 residuals within `max_iter` iterations, also when the
    iterates overflow float64 (numpy's overflow warnings are silenced).
    """
    lay, eye, v = _structure(lp)
    n, b = lay.n, lay.b
    c = np.zeros(n)
    c[lay.t] = -lp.t_costs
    norm_b = 1.0 + float(np.linalg.norm(b))
    norm_c = 1.0 + float(np.linalg.norm(c))

    # Mehrotra starting point: least-norm primal / least-squares dual,
    # shifted into the strictly positive orthant.
    try:
        z, lam_neg = eye.solve(-c, np.zeros(lay.m))
    except np.linalg.LinAlgError as exc:  # sums of the costs overflow
        nan = float("nan")
        raise IpmFailure(f"no finite starting point: {exc}",
                         SolverStats(0, nan, nan, nan, nan)) from exc
    lam = -lam_neg
    dv = max(-1.5 * float(v.min(initial=0.0)), 0.0)
    dz = max(-1.5 * float(z.min(initial=0.0)), 0.0)
    v = v + dv
    z = z + dz
    dot = float(v @ z)
    if z.sum() > 0:
        v = v + 0.5 * dot / float(z.sum())
    if v.sum() > 0:
        z = z + 0.5 * dot / float(v.sum())
    # degenerate objectives (all costs zero) leave z at exactly 0; any
    # strictly positive start is valid, so floor both iterates
    if float(v.min()) <= 0:
        v = np.maximum(v, 1.0)
    if float(z.min()) <= 0:
        z = np.maximum(z, 1.0)

    def metrics(v, lam, z):
        """The negated residuals b - A v and c - A^T lam - z, the relative
        gap and the relative residual norms. b is zero off the simplex rows
        and c off the t block, where c = -t_costs."""
        rb = lay.a_mul(v)
        rb[lay.simplex] -= 1.0
        rc = lay.at_mul(lam)
        rc += z
        rc[lay.t] += lp.t_costs
        pobj = float(c @ v)
        dobj = float(b @ lam)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj))
        return (np.negative(rb, out=rb), np.negative(rc, out=rc), gap,
                float(np.linalg.norm(rb)) / norm_b, float(np.linalg.norm(rc)) / norm_c)

    iterations = 0
    for iterations in range(1, max_iter + 1):
        neg_rb, neg_rc, gap, rp_rel, rd_rel = metrics(v, lam, z)
        if gap <= tol_gap and rp_rel <= tol_feas and rd_rel <= tol_feas:
            iterations -= 1
            break

        mu = float(v @ z) / n
        try:
            solver = _KktSolver(lay, z / v)

            # predictor (affine scaling) direction; dz comes from the
            # linearized dual equation so dual infeasibility contracts
            # exactly by (1 - ad) even when the KKT solve carries rounding
            # error
            dv_step, dlam = solver.solve(neg_rc + z, neg_rb)
            dz_step = neg_rc - lay.at_mul(dlam)
            ap = _max_step(v, dv_step)
            ad = _max_step(z, dz_step)
            mu_aff = float((v + ap * dv_step) @ (z + ad * dz_step)) / n
            sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-12)) if mu > 0 else 0.0

            # corrector: recenter and cancel the second-order term
            r_mu = v * z + dv_step * dz_step - sigma * mu
            dv_step, dlam = solver.solve(neg_rc + r_mu / v, neg_rb)
        except np.linalg.LinAlgError:
            break  # too extreme to factor, or not finite: certification decides
        dz_step = neg_rc - lay.at_mul(dlam)
        eta = 0.9995
        ap = min(1.0, eta * _max_step(v, dv_step))
        ad = min(1.0, eta * _max_step(z, dz_step))
        if ap < 1e-12 and ad < 1e-12:
            break  # stalled
        v = v + ap * dv_step
        lam = lam + ad * dlam
        z = z + ad * dz_step
    else:  # every break above leaves (v, lam, z) as last measured
        _, _, gap, rp_rel, rd_rel = metrics(v, lam, z)

    stats = SolverStats(
        iterations=iterations,
        duality_gap=gap,
        primal_residual=rp_rel,
        dual_residual=rd_rel,
        complementarity=float(np.max(v * z)) if n else 0.0,
    )
    if not (gap <= max(tol_gap, _CERTIFY_GAP)
            and rp_rel <= max(tol_feas, _CERTIFY_FEAS)
            and rd_rel <= max(tol_feas, _CERTIFY_FEAS)):
        raise IpmFailure("interior-point solver failed to converge", stats)

    return LpSolution(
        x=v[lay.x].copy(), y=v[lay.y].copy(), t=v[lay.t].copy(),
        objective=float(lp.t_costs @ v[lay.t]),
        rx_duals=-lam[lay.rx], tx_duals=-lam[lay.tx],
        coupling_duals_x=-lam[lay.p], coupling_duals_y=-lam[lay.q],
        reduced_costs=z.copy(), stats=stats,
    )
