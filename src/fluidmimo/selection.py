"""Port-selection strategies: exact search, relaxation-guided heuristics,
and the two baselines.

Five algorithms share the SelectionResult interface:

  exhaustive    - full mixed-radix enumeration; the global optimum and the
                  oracle every other strategy is judged against.
  jcr-res       - solve the convex relaxation, keep the ceil(log2(N+1))
                  highest-weighted ports per antenna, exhaustively search
                  the reduced channel, map the winner back.
  jcr-ao        - round the relaxation to a starting selection, then cyclic
                  per-antenna best-port substitution (coordinate ascent) on
                  the true capacity until the relative improvement falls
                  below epsilon or the sweep cap is hit.
  random        - best of `samples` uniform feasible selections.
  conventional  - port 1 everywhere (fixed-antenna MIMO reference).

Enumeration (exhaustive, and the reduced search of jcr-res) and the
random baseline score selections in batches without building a channel
per combination. The Gram matrix on the side `capacity` uses is a sum of
per-antenna rank-one terms: each is formed once per (antenna, port) and
gathered per combination. log2 det(I + rho Gram) is then taken in closed
form for Gram size 1 and 2 and by a batched Cholesky above that. Every
combination runs the same arithmetic in the same order, so selections
with equal effective channels score bit-identically and the tie rules
below are exact. Batch scores agree with `capacity` to ~1e-14 relative;
the reported capacity_bits is always `capacity` of the chosen selection.

Tie rules are fixed for determinism: enumeration returns the first
maximizer in mixed-radix order (receive antennas are the outer digits,
ports ascending); the relaxation rounding and the top-N keep-sets prefer
the lower port index; the coordinate-ascent inner loop keeps the last
examined port on ties (a >= comparison), so later ports win there.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .capacity import PortSelection, capacity, extract_effective
from .channel import FluidMimoConfig, OverallChannel
from .relaxation import solve_jcr

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
    search itself; capacity_trace, for jcr-ao, holds the capacity after the
    initial rounding and after each sweep.
    """

    selection: PortSelection
    capacity_bits: float
    algorithm: str
    iterations: int
    evaluations: int
    capacity_trace: Optional[tuple] = None


def combination_count(config):
    """Number of feasible selections, N_R^M_R * N_T^M_T."""
    return config.n_r ** config.m_r * config.n_t ** config.m_t


def _decode_mixed_radix(flat, base, digits):
    """Port tuples (0-based) for flat enumeration indices, first digit most
    significant, each digit running 0..base-1 in ascending order."""
    out = np.empty((len(flat), digits), dtype=np.intp)
    rem = np.asarray(flat, dtype=np.int64).copy()
    for pos in range(digits - 1, -1, -1):
        out[:, pos] = rem % base
        rem //= base
    return out


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


def _enumerate_best(channel, rho, n_r, n_t):
    """First-in-order maximizer over the full mixed-radix enumeration.

    Streams the (rx, tx) product in chunks; within a chunk np.argmax picks
    the earliest flat index, and across chunks ties keep the smaller global
    index, so the tie rule is exact regardless of chunking.
    """
    c = channel.config
    combos_r = n_r ** c.m_r
    combos_t = n_t ** c.m_t
    tx_chunk = min(combos_t, _BATCH_LIMIT)
    rx_chunk = max(1, _BATCH_LIMIT // tx_chunk)

    best_val = -np.inf
    best_flat = -1
    for r0 in range(0, combos_r, rx_chunk):
        rxc = _decode_mixed_radix(np.arange(r0, min(r0 + rx_chunk, combos_r)), n_r, c.m_r)
        for t0 in range(0, combos_t, tx_chunk):
            txc = _decode_mixed_radix(np.arange(t0, min(t0 + tx_chunk, combos_t)), n_t, c.m_t)
            caps = _batch_capacities(channel, rxc, txc, rho)
            idx = int(np.argmax(caps))
            val = float(caps.flat[idx])
            flat = (r0 + idx // len(txc)) * combos_t + (t0 + idx % len(txc))
            if val > best_val or (val == best_val and flat < best_flat):
                best_val = val
                best_flat = flat
    rx = _decode_mixed_radix(np.array([best_flat // combos_t]), n_r, c.m_r)[0]
    tx = _decode_mixed_radix(np.array([best_flat % combos_t]), n_t, c.m_t)[0]
    return rx, tx, combos_r * combos_t


def exhaustive_search(channel, rho, cap=DEFAULT_EXHAUSTIVE_CAP):
    """Globally optimal selection by enumerating every feasible combination."""
    c = channel.config
    combos = combination_count(c)
    if combos > cap:
        raise CombinationCapError(combos, cap)
    rx, tx, evaluations = _enumerate_best(channel, rho, c.n_r, c.n_t)
    sel = PortSelection(tuple(rx + 1), tuple(tx + 1))
    return SelectionResult(
        selection=sel,
        capacity_bits=capacity(extract_effective(channel, sel), rho),
        algorithm="exhaustive",
        iterations=0,
        evaluations=evaluations,
    )


def reduced_port_count(n):
    """Ports kept per antenna by the reduced search, ceil(log2(N+1))."""
    return min(n, math.ceil(math.log2(n + 1)))


def _top_ports(weights, keep):
    """Indices (0-based, ascending) of the `keep` largest weights; ties go
    to the lower port index."""
    order = np.argsort(-weights, kind="stable")[:keep]
    return np.sort(order)


def jcr_res(channel, rho):
    """Convex relaxation followed by exhaustive search on the kept ports."""
    c = channel.config
    relaxed = solve_jcr(channel)
    keep_r = reduced_port_count(c.n_r)
    keep_t = reduced_port_count(c.n_t)
    kept_rx = [_top_ports(relaxed.x_hat[i * c.n_r:(i + 1) * c.n_r], keep_r)
               for i in range(c.m_r)]
    kept_tx = [_top_ports(relaxed.y_hat[j * c.n_t:(j + 1) * c.n_t], keep_t)
               for j in range(c.m_t)]

    rows = np.concatenate([i * c.n_r + kept_rx[i] for i in range(c.m_r)])
    cols = np.concatenate([j * c.n_t + kept_tx[j] for j in range(c.m_t)])
    sub_config = FluidMimoConfig(m_r=c.m_r, m_t=c.m_t, n_r=keep_r, n_t=keep_t,
                                 snr_db=c.snr_db, w=c.w)
    sub = OverallChannel(sub_config, channel.entries[np.ix_(rows, cols)])

    rx_red, tx_red, evaluations = _enumerate_best(sub, rho, keep_r, keep_t)
    sel = PortSelection(
        tuple(int(kept_rx[i][rx_red[i]]) + 1 for i in range(c.m_r)),
        tuple(int(kept_tx[j][tx_red[j]]) + 1 for j in range(c.m_t)),
    )
    return SelectionResult(
        selection=sel,
        capacity_bits=capacity(extract_effective(channel, sel), rho),
        algorithm="jcr-res",
        iterations=0,
        evaluations=evaluations,
    )


def ao_round(relaxed):
    """Per-antenna argmax rounding of a relaxed solution (ties: lower port)."""
    rx = tuple(
        int(np.argmax(relaxed.x_hat[i * relaxed.n_r:(i + 1) * relaxed.n_r])) + 1
        for i in range(relaxed.m_r)
    )
    tx = tuple(
        int(np.argmax(relaxed.y_hat[j * relaxed.n_t:(j + 1) * relaxed.n_t])) + 1
        for j in range(relaxed.m_t)
    )
    return PortSelection(rx, tx)


def jcr_ao(channel, rho, epsilon=1e-3, max_iters=20):
    """Convex relaxation, argmax rounding, then coordinate-ascent sweeps.

    Each sweep revisits every receive then every transmit antenna and
    commits the best substitute port (>= keeps the last tie). The capacity
    recorded after each sweep is nondecreasing; the loop stops once the
    relative improvement is at most epsilon or after max_iters sweeps.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    c = channel.config
    relaxed = solve_jcr(channel)
    start = ao_round(relaxed)
    rx = list(start.rx_ports)
    tx = list(start.tx_ports)
    evaluations = 0

    def evaluate():
        nonlocal evaluations
        evaluations += 1
        sel = PortSelection(tuple(rx), tuple(tx))
        return capacity(extract_effective(channel, sel), rho)

    c_new = evaluate()
    c_best = c_new
    c_old = 0.0
    sweeps = 0
    trace = [c_new]
    while abs(c_new - c_old) > abs(c_old) * epsilon and sweeps < max_iters:
        c_old = c_new
        for i in range(c.m_r):
            n_best = rx[i]
            for port in range(1, c.n_r + 1):
                rx[i] = port
                val = evaluate()
                if val >= c_best:
                    c_best = val
                    n_best = port
            rx[i] = n_best
        for j in range(c.m_t):
            k_best = tx[j]
            for port in range(1, c.n_t + 1):
                tx[j] = port
                val = evaluate()
                if val >= c_best:
                    c_best = val
                    k_best = port
            tx[j] = k_best
        c_new = c_best
        sweeps += 1
        trace.append(c_new)

    sel = PortSelection(tuple(rx), tuple(tx))
    return SelectionResult(
        selection=sel,
        capacity_bits=capacity(extract_effective(channel, sel), rho),
        algorithm="jcr-ao",
        iterations=sweeps,
        evaluations=evaluations,
        capacity_trace=tuple(trace),
    )


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
    rx_all = rng.integers(1, c.n_r + 1, size=(samples, c.m_r))
    tx_all = rng.integers(1, c.n_t + 1, size=(samples, c.m_t))
    caps = _paired_capacities(channel, rx_all - 1, tx_all - 1, rho)
    best = int(np.argmax(caps))
    sel = PortSelection(tuple(int(p) for p in rx_all[best]),
                        tuple(int(p) for p in tx_all[best]))
    return SelectionResult(
        selection=sel,
        capacity_bits=capacity(extract_effective(channel, sel), rho),
        algorithm="random",
        iterations=0,
        evaluations=samples,
    )


def conventional_mimo(channel, rho):
    """Fixed-antenna reference: the first port of every fluid antenna."""
    c = channel.config
    sel = PortSelection((1,) * c.m_r, (1,) * c.m_t)
    return SelectionResult(
        selection=sel,
        capacity_bits=capacity(extract_effective(channel, sel), rho),
        algorithm="conventional",
        iterations=0,
        evaluations=1,
    )
