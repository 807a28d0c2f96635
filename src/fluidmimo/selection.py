"""Port-selection strategies: exact search, relaxation-guided heuristics,
and the two baselines.

Five algorithms share the SelectionResult interface:

  exhaustive    - full mixed-radix enumeration; the global optimum and the
                  oracle every other strategy is judged against.
  jcr-res       - solve the convex relaxation, keep the ceil(log2(N+1))
                  highest-weighted ports per antenna, and enumerate the
                  kept ports of the channel itself.
  jcr-ao        - round the relaxation to a starting selection, then cyclic
                  per-antenna best-port substitution (coordinate ascent) on
                  the true capacity, the N candidate ports of an antenna
                  scored in one batch, until the relative improvement falls
                  below epsilon or the sweep cap is hit.
  random        - best of `samples` uniform feasible selections.
  conventional  - port 1 everywhere (fixed-antenna MIMO reference).

Every search (exhaustive, the reduced search of jcr-res, the random
baseline and the coordinate ascent of jcr-ao) scores selections of the
given channel in batches and builds no channel. Exhaustive search and
jcr-res share one enumerator over per-antenna port sets: all N ports, or
the kept ones. The Gram matrix on the side `capacity` uses is a sum of
per-antenna rank-one terms: each is formed once per (antenna, port) and
gathered per combination. log2 det(I + rho Gram) is then taken in closed
form for Gram size 1 and 2 and by a batched Cholesky above that. Every
combination runs the same arithmetic in the same order, so selections
with equal effective channels score bit-identically and the tie rules
below are exact. Batch scores agree with `capacity` to ~1e-14 relative;
the scalar `capacity` only reports. Every algorithm ends in `_result`,
the one constructor of a SelectionResult: it turns 0-based ports into
the 1-based selection and sets capacity_bits to `capacity` of it. A
score that is NaN or infinite (rho |g|^2 overflows float64) raises
OverflowError instead of deciding; each search silences numpy's overflow
warnings, so that error is the one report.

Tie rules are fixed for determinism: enumeration returns the first
maximizer in mixed-radix order (receive antennas are the outer digits,
ports ascending); the relaxation rounding and the top-N keep-sets prefer
the lower port index; the coordinate ascent commits the last maximizing
port of an antenna when it scores >= the best so far, so later ports win
there.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .capacity import PortSelection, capacity, extract_effective
from .relaxation import RelaxedSolution, solve_jcr

ALGORITHMS = ("exhaustive", "jcr-res", "jcr-ao", "random", "conventional")

DEFAULT_EXHAUSTIVE_CAP = 10 ** 8
_BATCH_LIMIT = 1 << 18  # evaluated combinations held in memory at once
# packed matrix entries per block of `_summed_logdets`: a block stays under
# 128 KiB of float64, the size from which glibc malloc maps fresh pages
# on every call, and in cache
_BLOCK_ENTRIES = 15_000


class CombinationCapError(RuntimeError):
    """Exhaustive enumeration refused: too many feasible combinations."""

    def __init__(self, combinations, cap):
        super().__init__(
            f"exhaustive search over {combinations} combinations exceeds the cap of {cap}"
        )
        self.combinations = combinations
        self.cap = cap


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one strategy on one channel realization.

    iterations is the coordinate-ascent sweep count (0 for the other
    algorithms); evaluations counts capacity evaluations performed by the
    search itself; capacity_trace, for jcr-ao, holds the batch-kernel score
    of the selection after the initial rounding and after each sweep
    (within ~1e-14 relative of `capacity`, which gives capacity_bits).
    relaxation, for jcr-res and jcr-ao, is the RelaxedSolution they
    rounded, so a later heuristic on the same channel can reuse it; it
    takes no part in equality or repr.
    """

    selection: PortSelection
    capacity_bits: float
    algorithm: str
    iterations: int
    evaluations: int
    capacity_trace: Optional[tuple] = None
    relaxation: Optional[RelaxedSolution] = field(default=None, compare=False, repr=False)


def _quiet():
    """Silences numpy's overflow warnings for one search: `_finite` turns a
    non-finite maximizer into OverflowError instead."""
    return np.errstate(over="ignore", invalid="ignore")


def _finite(score):
    """`score` as a float; OverflowError if it is NaN or infinite. A search
    checks its maximizer: np.argmax returns the first NaN if there is one."""
    if not math.isfinite(score):
        raise OverflowError(f"capacity evaluates to {score}: rho * |g|^2 overflows float64")
    return float(score)


def _result(channel, rho, algorithm, rx, tx, evaluations, iterations=0, **fields):
    """SelectionResult for the 0-based ports rx, tx; capacity_bits is
    `capacity` of that selection."""
    sel = PortSelection(tuple(int(p) + 1 for p in rx), tuple(int(p) + 1 for p in tx))
    with _quiet():
        bits = _finite(capacity(extract_effective(channel, sel), rho))
    return SelectionResult(selection=sel, algorithm=algorithm, iterations=iterations,
                           capacity_bits=bits, evaluations=evaluations, **fields)


def combination_count(config):
    """Number of feasible selections, N_R^M_R * N_T^M_T."""
    return config.n_r ** config.m_r * config.n_t ** config.m_t


def _combinations(sets, start, stop):
    """Selections start..stop-1, in mixed-radix order, of one port per
    antenna from that antenna's set: the first set is the most significant
    digit and each digit runs through its set in order. Shape (stop - start,
    len(sets))."""
    digits = np.unravel_index(np.arange(start, stop), [len(s) for s in sets])
    return np.stack([s[d] for s, d in zip(sets, digits)], axis=1)


def _packed_terms(vectors, rho):
    """rho v v^H for vectors v of shape (S, K, ..., m), axis 1 being the
    antenna, each m x m Hermitian term packed as m*m reals (half the bytes
    of the complex matrix): the diagonal, then the real and the imaginary
    parts of the strict upper triangle in row order. Antenna 0 also
    carries the identity, so a sum over axis 1 is I + rho G. Real ufuncs
    only, so every element runs the same rounding wherever it sits in the
    array."""
    m = vectors.shape[-1]
    iu, ju = np.triu_indices(m, 1)
    re, im = vectors.real, vectors.imag
    terms = rho * np.concatenate([re * re + im * im,
                                  re[..., iu] * re[..., ju] + im[..., iu] * im[..., ju],
                                  im[..., iu] * re[..., ju] - re[..., iu] * im[..., ju]],
                                 axis=-1)
    terms[:, 0, ..., :m] += 1.0
    return terms


def _summed_logdets(vectors, combos, rho):
    """log2 det(I + rho sum_k v v^H) with v = vectors[a, k, combos[b, k]].

    vectors has shape (A, K, N, m): per outer index a, the length-m vector
    that antenna k contributes from port n. The rank-one terms are formed
    once per (a, k, n), then gathered and added in antenna order, a block
    of combinations at a time so that the block stays in cache. Returns
    shape (B, A).
    """
    terms = np.ascontiguousarray(np.moveaxis(_packed_terms(vectors, rho), 0, -1))
    out = np.empty((len(combos), terms.shape[-1]))
    step = max(1, _BLOCK_ENTRIES // terms[0, 0].size)
    for b0 in range(0, len(combos), step):
        block = combos[b0:b0 + step]
        total = terms[0][block[:, 0]]
        for k in range(1, block.shape[1]):
            total += terms[k][block[:, k]]
        out[b0:b0 + step] = _packed_logdet(total.swapaxes(0, 1))
    return out


def _batch_capacities(channel, rx_combos, tx_combos, rho):
    """Capacity of every (rx_combo, tx_combo) pair, shape (A, B).

    Uses the Gram side of `capacity` without forming any channel: H H^H is
    the sum of the outer products of the columns of H, and column j
    depends only on the receive combination and the port of transmit
    antenna j, so the m_t * n_t column outer products of each receive
    combination are formed once and gathered per transmit combination.
    When m_t < m_r the roles mirror: the rows of H give conj(H^H H), which
    has the same determinant. Every combination runs the same arithmetic
    in the same order, so combinations with equal effective channels get
    bit-identical capacities and the first-maximizer tie rule is exact.
    Agrees with the scalar `capacity` to ~1e-14 relative.
    """
    c = channel.config
    g = channel.entries.reshape(c.m_r, c.n_r, c.m_t, c.n_t)
    if c.m_t < c.m_r:
        rows = g[:, :, np.arange(c.m_t), tx_combos]         # (m_r, n_r, B, m_t)
        return _summed_logdets(rows.transpose(2, 0, 1, 3), rx_combos, rho)
    cols = g[np.arange(c.m_r), rx_combos]                    # (A, m_r, m_t, n_t)
    return _summed_logdets(cols.transpose(0, 2, 3, 1), tx_combos, rho).T


def _paired_capacities(channel, rx_combos, tx_combos, rho):
    """Capacity of selection k = (rx_combos[k], tx_combos[k]), shape (S,)."""
    c = channel.config
    g = channel.entries.reshape(c.m_r, c.n_r, c.m_t, c.n_t)
    h = g[np.arange(c.m_r)[:, None], rx_combos[:, :, None],
          np.arange(c.m_t), tx_combos[:, None, :]]           # (S, m_r, m_t)
    vectors = h if c.m_t < c.m_r else h.swapaxes(1, 2)
    return _packed_logdet(_packed_terms(vectors, rho).sum(axis=1).T)


def _packed_logdet(b):
    """log2 det B for stacked Hermitian positive definite B = I + rho G,
    packed as by `_packed_terms` along axis 0; clipped at 0 like
    `capacity`.

    Closed forms for m = 1 and m = 2; for larger m the matrices are
    unpacked and go through a batched Cholesky.
    """
    m = math.isqrt(len(b))
    if m == 1:
        det = b[0]
    elif m == 2:
        det = b[0] * b[1] - (b[2] * b[2] + b[3] * b[3])
    else:
        iu, ju = np.triu_indices(m, 1)
        upper = np.moveaxis(b[m:m + len(iu)] + 1j * b[m + len(iu):], 0, -1)
        full = np.empty(b.shape[1:] + (m, m), dtype=np.complex128)
        full[..., np.arange(m), np.arange(m)] = np.moveaxis(b[:m], 0, -1)
        full[..., iu, ju] = upper
        full[..., ju, iu] = upper.conj()
        diag = np.diagonal(np.linalg.cholesky(full), axis1=-2, axis2=-1)
        return np.maximum(0.0, 2.0 * np.sum(np.log2(diag.real), axis=-1))
    return np.maximum(0.0, np.log2(det))


def _enumerate_best(channel, rho, rx_sets, tx_sets):
    """First-in-order maximizer over every selection that gives receive
    antenna i a port from rx_sets[i] and transmit antenna j one from
    tx_sets[j] (ascending 0-based ports). Returns (rx, tx, combinations).

    Streams the (rx, tx) product in chunks of consecutive flat indices:
    whole rx rows, or one rx row split over tx chunks. np.argmax picks the
    earliest maximizer of a chunk and a later chunk wins only when strictly
    greater, so the tie rule is exact regardless of chunking.
    """
    combos_r = math.prod(len(s) for s in rx_sets)
    combos_t = math.prod(len(s) for s in tx_sets)
    tx_chunk = min(combos_t, _BATCH_LIMIT)
    rx_chunk = max(1, _BATCH_LIMIT // tx_chunk)

    best_val = -np.inf
    with _quiet():
        for r0 in range(0, combos_r, rx_chunk):
            rxc = _combinations(rx_sets, r0, min(r0 + rx_chunk, combos_r))
            for t0 in range(0, combos_t, tx_chunk):
                txc = _combinations(tx_sets, t0, min(t0 + tx_chunk, combos_t))
                caps = _batch_capacities(channel, rxc, txc, rho)
                a, b = np.unravel_index(np.argmax(caps), caps.shape)
                val = _finite(caps[a, b])
                if val > best_val:
                    best_val, rx, tx = val, rxc[a], txc[b]
    return rx, tx, combos_r * combos_t


def exhaustive_search(channel, rho, cap=DEFAULT_EXHAUSTIVE_CAP):
    """Globally optimal selection by enumerating every feasible combination."""
    c = channel.config
    combos = combination_count(c)
    if combos > cap:
        raise CombinationCapError(combos, cap)
    return _result(channel, rho, "exhaustive", *_enumerate_best(
        channel, rho, [np.arange(c.n_r)] * c.m_r, [np.arange(c.n_t)] * c.m_t))


def reduced_port_count(n):
    """Ports kept per antenna by the reduced search, ceil(log2(N+1))."""
    return min(n, math.ceil(math.log2(n + 1)))


def _top_ports(weights, keep):
    """Indices (0-based, ascending) of the `keep` largest weights; ties go
    to the lower port index."""
    order = np.argsort(-weights, kind="stable")[:keep]
    return np.sort(order)


def _kept_ports(relaxed, keep_r, keep_t):
    """`_top_ports` of each antenna's relaxed weights: the keep-sets of the
    receive antennas, then those of the transmit antennas."""
    return ([_top_ports(w, keep_r) for w in relaxed.x_hat.reshape(relaxed.m_r, relaxed.n_r)],
            [_top_ports(w, keep_t) for w in relaxed.y_hat.reshape(relaxed.m_t, relaxed.n_t)])


def _relaxation_of(channel, relaxed):
    """`relaxed` if it fits the channel's shape, a fresh solve when None."""
    if relaxed is None:
        return solve_jcr(channel)
    c = channel.config
    shape = (c.m_r, c.m_t, c.n_r, c.n_t)
    given = (relaxed.m_r, relaxed.m_t, relaxed.n_r, relaxed.n_t)
    if given != shape:
        raise ValueError(f"relaxation of shape (m_r, m_t, n_r, n_t) = {given} "
                         f"does not fit a channel of shape {shape}")
    return relaxed


def jcr_res(channel, rho, relaxed=None):
    """Convex relaxation followed by exhaustive search on the kept ports.

    relaxed: the channel's RelaxedSolution from `solve_jcr`, e.g. another
    heuristic's `result.relaxation`; solved here when None. The relaxation
    depends only on |entries|^2, not on rho, so one solve serves every
    heuristic and SNR on the same entries.
    """
    c = channel.config
    relaxed = _relaxation_of(channel, relaxed)
    kept_rx, kept_tx = _kept_ports(relaxed, reduced_port_count(c.n_r), reduced_port_count(c.n_t))
    return _result(channel, rho, "jcr-res", *_enumerate_best(channel, rho, kept_rx, kept_tx),
                   relaxation=relaxed)


def ao_round(relaxed):
    """Per-antenna argmax rounding of a relaxed solution (ties: lower port):
    the keep-sets of `jcr_res` with one port kept."""
    rx, tx = _kept_ports(relaxed, 1, 1)
    return PortSelection(tuple(int(p[0]) + 1 for p in rx), tuple(int(p[0]) + 1 for p in tx))


def jcr_ao(channel, rho, epsilon=1e-3, max_iters=20, relaxed=None):
    """Convex relaxation, argmax rounding, then coordinate-ascent sweeps.

    Each sweep revisits every receive then every transmit antenna. The N
    selections that differ from the current one in that antenna's port are
    scored in one batch-kernel call, and the last maximizer is committed
    when it scores >= the best score so far: later ports win ties, as in a
    port-by-port >= loop. The score after each sweep is nondecreasing; the
    loop stops once the relative improvement is at most epsilon or after
    max_iters sweeps. capacity_trace holds these batch-kernel scores;
    capacity_bits is `capacity` of the final selection.
    relaxed: a precomputed relaxation of the channel, as for `jcr_res`.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    c = channel.config
    relaxed = _relaxation_of(channel, relaxed)
    start = ao_round(relaxed)
    ports = [np.array(start.rx_ports) - 1, np.array(start.tx_ports) - 1]
    steps = [(0, i, c.n_r) for i in range(c.m_r)] + [(1, j, c.n_t) for j in range(c.m_t)]

    c_old = 0.0
    evaluations = 1
    sweeps = 0
    with _quiet():
        c_new = c_best = _finite(
            _paired_capacities(channel, ports[0][None], ports[1][None], rho)[0])
        trace = [c_new]
        while abs(c_new - c_old) > abs(c_old) * epsilon and sweeps < max_iters:
            c_old = c_new
            for side, antenna, n in steps:
                candidates = [np.tile(p, (n, 1)) for p in ports]
                candidates[side][:, antenna] = np.arange(n)
                vals = _paired_capacities(channel, *candidates, rho)
                best = n - 1 - int(np.argmax(vals[::-1]))
                if _finite(vals[best]) >= c_best:
                    c_best = float(vals[best])
                    ports[side][antenna] = best
                evaluations += n
            c_new = c_best
            sweeps += 1
            trace.append(c_new)

    return _result(channel, rho, "jcr-ao", *ports, evaluations, iterations=sweeps,
                   capacity_trace=tuple(trace), relaxation=relaxed)


def default_random_samples(config):
    """Baseline sample budget: 5 (M_R N_R + M_T N_T), i.e. 10 N M when the
    two sides are symmetric."""
    return 5 * (config.m_r * config.n_r + config.m_t * config.n_t)


def random_selection(channel, rho, samples=None, seed=0):
    """Best of `samples` uniform feasible selections (with replacement).

    Deterministic given `seed`: a single PCG64 stream draws all receive
    port matrices first, then all transmit ones. The first-drawn maximizer
    wins ties.
    """
    c = channel.config
    if samples is None:
        samples = default_random_samples(c)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    rx_all = rng.integers(1, c.n_r + 1, size=(samples, c.m_r)) - 1
    tx_all = rng.integers(1, c.n_t + 1, size=(samples, c.m_t)) - 1
    with _quiet():
        caps = _paired_capacities(channel, rx_all, tx_all, rho)
    best = int(np.argmax(caps))
    _finite(caps[best])
    return _result(channel, rho, "random", rx_all[best], tx_all[best], samples)


def conventional_mimo(channel, rho):
    """Fixed-antenna reference: the first port of every fluid antenna."""
    c = channel.config
    return _result(channel, rho, "conventional", [0] * c.m_r, [0] * c.m_t, 1)
