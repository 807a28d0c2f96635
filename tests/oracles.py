"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the production code paths: the Bessel
oracle is the defining power series, capacities come from Jacobi
eigenvalues of the Gram matrix, the exhaustive oracle is a plain nested
loop over itertools.product, the coordinate-ascent oracle scores one port
at a time, and the relaxation oracles are enumeration and grid search.
Tests compare the package against these, never the other way round.

The packed-term references are the exception: they are the selection
kernel's earlier formulas (rank-one terms formed from gathered channel
vectors on every call), kept so that tests can check the term tables and
`capacity` bit for bit. They take the package's packed log-det as an
argument.
"""

import itertools
import math

import numpy as np


def j0_series(x, terms=60):
    """J0 by its power series sum_m (-1)^m (x/2)^(2m) / (m!)^2.

    Converges to full double precision on [0, 16] well before 60 terms
    (the m-th term ratio is -(x/2)^2 / m^2).
    """
    x = np.asarray(x, dtype=float)
    acc = np.ones_like(x)
    term = np.ones_like(x)
    q = -((x / 2.0) ** 2)
    for m in range(1, terms + 1):
        term = term * q / (m * m)
        acc = acc + term
    return acc if acc.ndim else float(acc)


def j0_first_zero(lo=2.0, hi=3.0, tol=1e-12):
    """First positive zero of J0, located by bisection on the series."""
    flo = j0_series(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = j0_series(mid)
        if abs(fmid) < tol or hi - lo < tol:
            return mid
        if (flo > 0) == (fmid > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def jacobi_eigenvalues(sym, sweeps=100, tol=1e-14):
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(sym, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol * max(1.0, np.abs(np.diag(a)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def eig_capacity(h, rho):
    """Capacity as sum log2(1 + rho * lambda) over Gram eigenvalues.

    Hermitian complex Gram G embeds as the real symmetric [[Re, -Im],
    [Im, Re]], whose spectrum is that of G doubled, so the capacity is
    half the embedded sum. Uses Jacobi rotations, not a factorization.
    """
    h = np.asarray(h, dtype=complex)
    gram = h @ h.conj().T
    emb = np.block([[gram.real, -gram.imag], [gram.imag, gram.real]])
    lams = jacobi_eigenvalues(emb)
    return 0.5 * float(np.sum(np.log2(1.0 + rho * np.maximum(lams, 0.0))))


def loop_exhaustive(channel, rho, capacity_fn, rx_sets=None, tx_sets=None):
    """Plain quadruple-nested-loop enumeration, first maximizer wins.

    Structurally different from the production mixed-radix batch search;
    `capacity_fn(rx_ports, tx_ports)` evaluates one selection. rx_sets and
    tx_sets list the ascending 1-based ports each antenna may take; every
    port by default.
    """
    c = channel.config
    rx_sets = rx_sets or [range(1, c.n_r + 1)] * c.m_r
    tx_sets = tx_sets or [range(1, c.n_t + 1)] * c.m_t
    best = None
    for rx in itertools.product(*rx_sets):
        for tx in itertools.product(*tx_sets):
            val = capacity_fn(rx, tx)
            if best is None or val > best[0]:
                best = (val, rx, tx)
    return best


def loop_coordinate_ascent(config, start, capacity_fn, epsilon=1e-3, max_iters=20):
    """Port-by-port coordinate ascent, one scalar evaluation per port.

    Starting from `start` = (rx_ports, tx_ports), each sweep tries every
    port of every receive then every transmit antenna and keeps the last
    port whose value is >= the best so far; sweeps stop once the relative
    improvement is at most epsilon or after max_iters sweeps. Returns
    (rx, tx, sweeps, evaluations, trace).
    """
    rx, tx = list(start[0]), list(start[1])
    evaluations = 1
    c_new = c_best = capacity_fn(tuple(rx), tuple(tx))
    c_old = 0.0
    sweeps = 0
    trace = [c_new]
    while abs(c_new - c_old) > abs(c_old) * epsilon and sweeps < max_iters:
        c_old = c_new
        for ports, n in ((rx, config.n_r), (tx, config.n_t)):
            for a in range(len(ports)):
                keep = ports[a]
                for port in range(1, n + 1):
                    ports[a] = port
                    val = capacity_fn(tuple(rx), tuple(tx))
                    evaluations += 1
                    if val >= c_best:
                        c_best = val
                        keep = port
                ports[a] = keep
        c_new = c_best
        sweeps += 1
        trace.append(c_new)
    return tuple(rx), tuple(tx), sweeps, evaluations, trace


def packed_terms(vectors, rho):
    """rho v v^H for vectors v of shape (S, K, ..., m), axis 1 being the
    antenna, each m x m Hermitian term packed as m*m reals: the diagonal,
    then the real and the imaginary parts of the strict upper triangle in
    row order. Antenna 0 also carries the identity, so a sum over axis 1
    is I + rho G."""
    m = vectors.shape[-1]
    iu, ju = np.triu_indices(m, 1)
    re, im = vectors.real, vectors.imag
    terms = rho * np.concatenate([re * re + im * im,
                                  re[..., iu] * re[..., ju] + im[..., iu] * im[..., ju],
                                  im[..., iu] * re[..., ju] - re[..., iu] * im[..., ju]],
                                 axis=-1)
    terms[:, 0, ..., :m] += 1.0
    return terms


def _channel_blocks(channel):
    c = channel.config
    return c, channel.entries.reshape(c.m_r, c.n_r, c.m_t, c.n_t)


def reference_batch_capacities(channel, rx_combos, tx_combos, rho, packed_logdet):
    """Capacity of every (rx_combo, tx_combo) pair of 0-based ports, shape
    (A, B): per-antenna terms gathered per combination of the other side
    and added in antenna order."""
    c, g = _channel_blocks(channel)
    if c.m_t < c.m_r:
        vectors, combos = g[:, :, np.arange(c.m_t), tx_combos].transpose(2, 0, 1, 3), rx_combos
    else:
        vectors, combos = g[np.arange(c.m_r), rx_combos].transpose(0, 2, 3, 1), tx_combos
    terms = np.ascontiguousarray(np.moveaxis(packed_terms(vectors, rho), 0, -1))
    total = terms[0][combos[:, 0]]
    for k in range(1, combos.shape[1]):
        total += terms[k][combos[:, k]]
    caps = packed_logdet(total.swapaxes(0, 1))
    return caps if c.m_t < c.m_r else caps.T


def _antenna_order_sum(terms):
    """Terms (S, K, E) added in antenna order, one antenna at a time."""
    total = terms[:, 0]
    for k in range(1, terms.shape[1]):
        total = total + terms[:, k]
    return total


def reference_paired_capacities(channel, rx_combos, tx_combos, rho, packed_logdet):
    """Capacity of selection s = (rx_combos[s], tx_combos[s]), 0-based
    ports, shape (S,): the terms added in antenna order."""
    c, g = _channel_blocks(channel)
    h = g[np.arange(c.m_r)[:, None], rx_combos[:, :, None],
          np.arange(c.m_t), tx_combos[:, None, :]]
    vectors = h if c.m_t < c.m_r else h.swapaxes(1, 2)
    return packed_logdet(_antenna_order_sum(packed_terms(vectors, rho)).T)


def packed_capacity(h, rho, packed_logdet):
    """log2 det(I + rho Gram) of one effective channel h from its packed
    terms added in antenna order: the columns of h, or its rows when it
    has fewer columns than rows."""
    vectors = h if h.shape[1] < h.shape[0] else h.T
    return float(packed_logdet(_antenna_order_sum(packed_terms(vectors[None], rho)).T)[0])


def frozen_gram_logdet(h, rho):
    """The scalar capacity's log2 det(I + rho Gram) as first written: a
    BLAS Gram product, then a Cholesky."""
    m_r, m_t = h.shape
    if m_t < m_r:
        gram = h.conj().T @ h
    else:
        gram = h @ h.conj().T
    b = np.eye(gram.shape[0]) + rho * gram
    diag = np.real(np.diagonal(np.linalg.cholesky(b)))
    return max(0.0, 2.0 * float(np.sum(np.log2(diag))))


def binary_selections(config):
    """All feasible (rx_ports, tx_ports) tuples, 1-based."""
    rx_space = itertools.product(range(1, config.n_r + 1), repeat=config.m_r)
    for rx in rx_space:
        for tx in itertools.product(range(1, config.n_t + 1), repeat=config.m_t):
            yield rx, tx


def frobenius_u(channel, rx, tx):
    """U at a binary point via the effective submatrix Frobenius norm,
    independent of the min-based production formula."""
    c = channel.config
    rows = [i * c.n_r + p - 1 for i, p in enumerate(rx)]
    cols = [j * c.n_t + p - 1 for j, p in enumerate(tx)]
    sub = channel.entries[np.ix_(rows, cols)]
    return float(np.sum(np.abs(sub) ** 2))


def binary_u_max(channel):
    """Largest U over all feasible binary selections, by enumeration."""
    return max(frobenius_u(channel, rx, tx) for rx, tx in binary_selections(channel.config))


def grid_u_max_2x2(gains, steps=2001):
    """Relaxation optimum for M_R = M_T = 1, N = 2 by dense grid search.

    x = (a, 1-a), y = (b, 1-b); evaluates U on a steps x steps grid.
    """
    gains = np.asarray(gains, dtype=float)
    grid = np.linspace(0.0, 1.0, steps)
    a = grid[:, None]
    b = grid[None, :]
    u = (gains[0, 0] * np.minimum(a, b)
         + gains[0, 1] * np.minimum(a, 1.0 - b)
         + gains[1, 0] * np.minimum(1.0 - a, b)
         + gains[1, 1] * np.minimum(1.0 - a, 1.0 - b))
    return float(u.max())


def q_matrix_from_selection(channel, rx, tx):
    """Padded selection matrix built entrywise from its definition
    Q[r, c] = x_r * g[r, c] * y_c."""
    c = channel.config
    x = np.zeros(c.m_r * c.n_r)
    y = np.zeros(c.m_t * c.n_t)
    for i, p in enumerate(rx):
        x[i * c.n_r + p - 1] = 1.0
    for j, p in enumerate(tx):
        y[j * c.n_t + p - 1] = 1.0
    q = np.empty_like(channel.entries)
    for r in range(q.shape[0]):
        for col in range(q.shape[1]):
            q[r, col] = x[r] * channel.entries[r, col] * y[col]
    return q
