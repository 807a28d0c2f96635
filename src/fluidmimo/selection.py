"""Port-selection strategies: exact search, relaxation-guided heuristics,
and the two baselines.

Five algorithms share the SelectionResult interface:

  exhaustive    - mixed-radix enumeration, pruned by a bound without
                  changing its result; the global optimum and the oracle
                  every other strategy is judged against.
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
given channel in batches with the formula of `capacity`, and builds no
channel: I + rho G packed as a sum over the K antennas of the summed side
of rank-one terms (see the `capacity` module). A search forms these terms
as a term table and scores a selection by gathering K entry lists from it
and adding them in antenna order:

  exhaustive,  `_GridTerms` over per-antenna port sets (all N ports, or
  jcr-res      the kept ones), with every pair of Gram-side ports:
               (m + m(m-1) L) L floats per port of a summed antenna, L
               ports per set. The two share one enumerator, which sums
               the K entry lists of a row (one selection of the summed
               side) once and gathers each Gram-side selection's entries
               from that sum. Exhaustive search tabulates every port:
               N_r N_t floats at M = 1, as many as the channel has
               entries, and 4.0e6 floats (32 MB) at M = 2, N = 100. One
               search peaks at 66 MB there while it builds the table, and
               at 128 MB at M = 1, N = 2000 (tracemalloc).
  jcr-ao       `_AscentTerms`: each pair only against the partner's
               current port, 2m - 1 floats per channel entry, re-tabulated
               when a Gram-side port changes.
  random,      `_RowTerms`: the samples' own terms, _BLOCK_ENTRIES floats
  conventional at a time; conventional has one sample, the first ports.

The tables are built without rho, and a search multiplies one by each of
its rhos (`_scaled`). Every search scores a sequence of rhos in one pass,
with one implementation: a single rho is a batch of one. A pass builds
its table (and jcr-res and jcr-ao their keep-sets, random its draws)
once and scores every rho from it. The enumerator bounds every rho at
once and scores the rows any rho keeps at every rho; jcr-ao runs one
coordinate ascent per rho in lockstep, each step scoring the candidates
of every rho still ascending in one call. A `Realization` of the
channel, which every search takes, keeps what searches share: the JCR
relaxation, and the outcomes at the rhos its caller named. To score
several SNRs on one channel in one pass, name them in its `rhos`; a
search at an unnamed rho builds its table again. A search given no
realization builds its own. Besides a realization, only read-only index
layouts are kept across calls. Every entry comes from the same real
ufuncs on the same operands as `capacity` forms it with, rho times the
unscaled entry being the same IEEE product, and every sum adds antenna by
antenna (`+=` in the enumerations, `_antenna_sum` in jcr-ao and random).
A selection therefore scores the same bits in every search, at any batch
of rhos, and in `capacity`, selections with equal effective channels
score bit-identically, and the tie rules below are exact. Each algorithm
reports the score that chose its selection and calls no `capacity`.
Every algorithm ends in `_result`, the one constructor of a
SelectionResult, which turns 0-based ports into the 1-based selection. A
negative, NaN, infinite or bool rho raises ValueError before anything is
built. A score that is NaN or infinite (rho |g|^2 overflows float64)
raises OverflowError instead of deciding, at that rho alone; each search
silences numpy's overflow warnings, so that error is the one report.
`capacity` and `solve_jcr` stay bound in this module because the
benchmark's tracer wraps them here.

The enumeration is pruned by Hadamard's inequality, det B <= prod_i B_ii
for B positive definite. A row's scores read its own diagonal entries,
summed in the same order, so none exceeds its bound: log2 of the product
over the Gram-side antennas of the antenna's largest diagonal entry in
the row. That holds for the computed scores up to log2's rounding at
m <= 2, whose determinant is at most the rounded product of its diagonal,
and up to a few ulps of the Cholesky at m >= 3. The rows of highest bound
are scored first (_FIRST_PASS selections); the best of their scores is
the incumbent. Of the other rows, only those whose bound reaches the
incumbent less _BOUND_SLACK * max(1, incumbent), a margin far above those
errors, are scored. A row ruled out scores strictly below the incumbent,
so below the maximum: the first maximizer among the scored rows is the
first maximizer of the grid, and the tie rule is exact. When a bound
exceeds _BOUND_CEILING or is NaN, a determinant may overflow (and be
rescued) or a score be NaN, and every row is scored, so a NaN score
still raises. Grids of at most _FIRST_PASS selections are scored whole,
and so is every grid with one Gram-side antenna: there a row's bound is
its own best score, so the bound pass would only add work.

Tie rules are fixed for determinism: enumeration returns the first
maximizer in mixed-radix order (receive antennas are the outer digits,
ports ascending); the relaxation rounding and the top-N keep-sets prefer
the lower port index; the coordinate ascent commits the last maximizing
port of an antenna when it scores >= the best so far, so later ports win
there.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .capacity import (_BLOCK_ENTRIES, PortSelection, _check_rho, _packed_logdet, _pair_entries,
                       _scaled, _triangle, _unscaled_terms, capacity)  # noqa: F401 (capacity)
from .channel import _check_int
from .relaxation import RelaxedSolution, solve_jcr

ALGORITHMS = ("exhaustive", "jcr-res", "jcr-ao", "random", "conventional")

DEFAULT_EXHAUSTIVE_CAP = 10 ** 8
_BATCH_LIMIT = 1 << 18  # evaluated combinations held in memory at once
# pruned enumeration (see the module docstring): selections scored before
# the first rows are ruled out, the margin below the incumbent, relative,
# and the largest bound, in bits, at which rows are ruled out (log2 1e300)
_FIRST_PASS = 2048
_BOUND_SLACK = 1e-9
_BOUND_CEILING = 996.0


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
    algorithms); evaluations counts the selections the search covered:
    those it scored, and in exhaustive search and jcr-res also those the
    bound ruled out (every combination); capacity_bits is the score that
    chose the selection, which is `capacity` of it bit for bit;
    capacity_trace, for jcr-ao, holds the score of the selection after the
    initial rounding and after each sweep, so it ends in capacity_bits.
    relaxation, for jcr-res and jcr-ao, is the RelaxedSolution they
    rounded; Realization(channel, relaxation) hands it to later searches
    on the same entries.
    score_margin, for them, is how close the relaxed weights came to
    another keep-set: the smallest gap, over the antennas that drop a port,
    between the weights of the last kept and the first dropped port (None
    when no antenna drops one); score_margin_rel divides it by the largest
    spread (max - min) of one antenna's weights, and is 0 when every
    weight is equal. These three fields take no part in equality or repr.
    """

    selection: PortSelection
    capacity_bits: float
    algorithm: str
    iterations: int
    evaluations: int
    capacity_trace: Optional[tuple] = None
    relaxation: Optional[RelaxedSolution] = field(default=None, compare=False, repr=False)
    score_margin: Optional[float] = field(default=None, compare=False, repr=False)
    score_margin_rel: Optional[float] = field(default=None, compare=False, repr=False)


def _quiet():
    """Silences numpy's overflow warnings for one search's pass:
    `_finite` turns a non-finite maximizer into OverflowError instead."""
    return np.errstate(over="ignore", invalid="ignore")


def _finite(score):
    """`score` as a float, or the OverflowError to report if it is NaN or
    infinite. A search checks its maximizer: np.argmax returns the first
    NaN if there is one."""
    if not math.isfinite(score):
        return OverflowError(f"capacity evaluates to {score}: rho * |g|^2 overflows float64")
    return float(score)


def _result(algorithm, rx, tx, bits, evaluations, iterations=0, **fields):
    """SelectionResult for the 0-based ports rx, tx, whose capacity the
    search scored as `bits`."""
    sel = PortSelection(tuple(int(p) + 1 for p in rx), tuple(int(p) + 1 for p in tx))
    return SelectionResult(selection=sel, algorithm=algorithm, iterations=iterations,
                           capacity_bits=bits, evaluations=evaluations, **fields)


def combination_count(config):
    """Number of feasible selections, N_R^M_R * N_T^M_T."""
    return config.n_r ** config.m_r * config.n_t ** config.m_t


def _combinations(sizes, start, stop):
    """Selections start..stop-1, in mixed-radix order, of one position per
    antenna, antenna i having sizes[i] to choose from: the first antenna is
    the most significant digit. Shape (stop - start, len(sizes))."""
    return np.stack(np.unravel_index(np.arange(start, stop), sizes), axis=1)


def _summed_side(channel):
    """The channel as g[q, k, i, p]: port q of antenna k of the side whose
    rank-one terms are summed, then antenna i and port p of the Gram side.
    The Gram matrix is the m x m one of the side with fewer antennas
    (receive on a tie), as `capacity` uses: H H^H sums the outer products
    of the columns of H, one per transmit antenna; when m_t < m_r the rows
    of H give conj(H^H H), which has the same determinant. Returns
    (g, mirrored), mirrored True when the Gram side is the transmit side."""
    c = channel.config
    g = channel.entries.reshape(c.m_r, c.n_r, c.m_t, c.n_t)
    mirrored = c.m_t < c.m_r
    return g.transpose((1, 0, 2, 3) if mirrored else (3, 2, 0, 1)), mirrored


@lru_cache(maxsize=16)
def _grid_layout(m, ports):
    """Where the m*m packed entries of each Gram-side selection sit in an
    entry list of `_GridTerms`, with `ports` positions per antenna: column
    x holds them for the selection with flat index x in mixed-radix order
    (the first antenna is the most significant digit). Read-only, shape
    (m*m, ports**m)."""
    iu, ju = _triangle(m)
    pairs = np.arange(len(iu))
    sq = ports * ports
    off = np.concatenate([np.arange(m) * ports, m * ports + pairs * sq,
                          m * ports + (len(iu) + pairs) * sq])
    stride = np.zeros((m, m * m), dtype=np.intp)
    stride[np.arange(m), np.arange(m)] = 1
    for block in (m + pairs, m + len(iu) + pairs):
        stride[iu, block] = ports
        stride[ju, block] = 1
    cols = np.ascontiguousarray((off + _combinations([ports] * m, 0, ports ** m) @ stride).T)
    cols.flags.writeable = False
    return cols


class _GridTerms:
    """Term table over per-antenna port sets: receive antenna i may take
    the ports rx_sets[i], transmit antenna j the ports tx_sets[j] (equal
    lengths per side). Per (port, antenna) of the summed side it lists the
    diagonal entry of every Gram-side (antenna, port) and the off-diagonal
    entries of every pair of Gram-side antennas at every pair of their
    ports: (m + m(m-1) L) L floats for L ports per antenna. Selections are
    given as positions in the sets. A row is one selection of the summed
    side, given as one array of positions per summed antenna; its entry
    list is the sum of its antennas' ones, added in antenna order.

    The table is built without rho and is read-only; a search scores the
    `_scaled` copy of `unscaled` at its rhos, which it passes as `table`
    (its first axis one per rho)."""

    def __init__(self, channel, rx_sets, tx_sets):
        g, self.mirrored = _summed_side(channel)
        self.sets = rx_sets, tx_sets
        sets_k, sets_v = (rx_sets, tx_sets) if self.mirrored else (tx_sets, rx_sets)
        sets_k, sets_v = np.asarray(sets_k), np.asarray(sets_v)
        self.m, self.ports = sets_v.shape
        iu, ju = _triangle(self.m)
        v = g[sets_k.T[:, :, None, None], np.arange(len(sets_k))[:, None, None],
              np.arange(self.m)[:, None], sets_v]              # (L_k, K, m, L)
        self.unscaled = _unscaled_terms(v, v[:, :, iu, :, None], v[:, :, ju, None, :])
        self.cols = _grid_layout(self.m, self.ports)

    def bounds(self, table, chunks):
        """Hadamard bound of each row at each rho, for the rows of each
        chunk in turn: log2 of the product over the Gram-side antennas of
        the antenna's largest diagonal entry of I + rho G. The diagonal
        entries are the rows' own, laid out port-major first. Shape (rhos,
        rows)."""
        diag = np.ascontiguousarray(table[..., :self.m * self.ports].reshape(
            table.shape[:3] + (self.m, self.ports)).transpose(2, 0, 4, 3, 1))
        out = []
        for summed in chunks:
            total = np.take(diag[0], summed[0], axis=3)        # (rhos, L, m, rows)
            for k in range(1, len(summed)):
                total += np.take(diag[k], summed[k], axis=3)
            out.append(np.log2(total.max(axis=1).prod(axis=1)))
        return np.concatenate(out, axis=1)

    @staticmethod
    def scores(table, summed, cols):
        """Capacity of every (row, column) pair at each rho, shape (rhos,
        rows, columns), for columns of `_grid_layout`: each row's entry
        list is summed once, then the entries of each column are gathered
        from it; a block of rows at a time."""
        out = np.empty((len(table), len(summed[0]), cols.shape[1]))
        step = max(1, _BLOCK_ENTRIES // (len(table) * max(cols.size, table.shape[-1])))
        for s0 in range(0, out.shape[1], step):
            total = table[:, summed[0][s0:s0 + step], 0]       # (rhos, rows, E)
            for k in range(1, len(summed)):
                total += table[:, summed[k][s0:s0 + step], k]
            out[:, s0:s0 + step] = _packed_logdet(np.take(
                total.reshape(-1, total.shape[-1]), cols, axis=1).swapaxes(0, 1)).reshape(
                    len(out), -1, cols.shape[1])
        return out


def _antenna_sum(terms):
    """log2 det of the packed I + rho G of each selection, shape (...): its
    terms (..., K, E), a new array, added antenna by antenna."""
    flat = terms.reshape((-1,) + terms.shape[-2:])
    total = flat[:, 0]
    for k in range(1, flat.shape[1]):
        total += flat[:, k]
    return _packed_logdet(total.T).reshape(terms.shape[:-2])


class _RowTerms:
    """Terms of the selections s = (rx[s], tx[s]), without rho: row s of a
    table holds the terms of selection s alone. The random baseline scores
    its draws with them, and conventional its one selection."""

    def __init__(self, channel, rx, tx):
        c = channel.config
        self.g = channel.entries.reshape(c.m_r, c.n_r, c.m_t, c.n_t)
        self.rx, self.tx = rx, tx

    def capacities(self, rhos):
        """Capacity of each selection at each of `rhos`, shape (rhos, S):
        a block of selections at a time, _BLOCK_ENTRIES floats or one
        selection, its table built and scored by `_antenna_sum`."""
        m_r, _, m_t, _ = self.g.shape
        m = min(m_r, m_t)
        iu, ju = _triangle(m)
        step = max(1, _BLOCK_ENTRIES // (m_r * m_t * m))
        out = []
        for s0 in range(0, len(self.rx), step):
            rx, tx = self.rx[s0:s0 + step], self.tx[s0:s0 + step]
            h = self.g[np.arange(m_r)[:, None], rx[:, :, None], np.arange(m_t), tx[:, None, :]]
            v = h if m_t < m_r else h.swapaxes(1, 2)           # (S, K, m)
            out.append(_antenna_sum(_scaled(_unscaled_terms(v, v[..., iu], v[..., ju]), rhos, m)))
        return np.concatenate(out, axis=1)


@lru_cache(maxsize=64)
def _ascent_layout(m, ports):
    """Where the m*m packed entries of a selection sit in an entry list of
    `_AscentTerms`, for m Gram-side antennas of `ports` ports each, as
    read-only (off, who, moves, shifts): with ports p, entry e is at
    off[i, e] + p[who[i, e]] for any antenna i; with antenna i moved to
    port n it is at off[i, e] + p[who[i, e]] - p[i] * moves[i, e] +
    shifts[i, n, e], moves[i] marking the entries of antenna i."""
    iu, ju = _triangle(m)
    pairs, antennas = np.arange(len(iu)), np.arange(m)[:, None]
    held = ju == antennas                       # antenna i is the pair's column
    pair_off = (m + pairs + len(iu) * held) * ports
    pair_who = np.where(held, antennas, iu)
    off = np.concatenate([np.broadcast_to(antennas.T * ports, (m, m)), pair_off,
                          pair_off + 2 * len(iu) * ports], axis=1)
    who = np.concatenate([np.broadcast_to(antennas.T, (m, m)), pair_who, pair_who], axis=1)
    moves = (who == antennas).astype(np.intp)
    shifts = np.arange(ports)[:, None] * moves[:, None, :]
    for arr in (off, who, moves, shifts):
        arr.flags.writeable = False
    return off, who, moves, shifts


class _AscentTerms:
    """Scores for coordinate ascent from one term table, for the ports
    [rx, tx]. Per (port, antenna) of the summed side it lists the diagonal
    entry of every Gram-side (antenna, port) and the off-diagonal entry of
    each pair i < j twice: with i at each of its ports against j at its
    current port, and with j at each of its ports against i at its current
    one. That is 2m - 1 floats per channel entry; a Gram-side port change
    re-tabulates the pairs.

    It scores and commits at each of the sequence `rhos` in lockstep, with
    a table and ports of its own per rho, all starting at `ports`. Its
    `table` stacks the tables at each rho: row r n + q holds port q of the
    summed side at rhos[r], for n ports, and `base` holds the r n. Its
    ports are one row per rho, an array (len(rhos), M) per side. `commit`
    updates both, per rho."""

    def __init__(self, channel, ports, rhos):
        self.g, mirrored = _summed_side(channel)
        self.gram_side, self.rhos = int(mirrored), rhos
        n_rows, n_k, m, n_ports = self.g.shape
        self.off, self.who, self.moves, self.shifts = _ascent_layout(m, n_ports)
        self.iu, self.ju = _triangle(m)
        self.gram_ports = np.arange(n_ports)
        self.summed_ports = np.arange(n_rows)[:, None]
        self.antennas = np.arange(n_k)[:, None]
        self.onehot = np.eye(n_k, dtype=bool)
        unscaled = _unscaled_terms(self.g, *self._pairs(ports[self.gram_side]))
        self.table = _scaled(unscaled, rhos, m * n_ports).reshape((-1,) + unscaled.shape[1:])
        self.base = np.arange(len(rhos))[:, None, None] * n_rows
        current, moved = self._positions(ports[self.gram_side])
        self.current = current[None].repeat(len(rhos), axis=0)
        self.moved = moved[None].repeat(len(rhos), axis=0)
        self.ports = [p[None].repeat(len(rhos), axis=0) for p in ports]
        self.gram, self.summed = self.ports[self.gram_side], self.ports[1 - self.gram_side]

    def _pairs(self, gram):
        """Coefficients of the row and the column antenna of each pair, at
        the Gram-side ports `gram`: the row antenna at each of its ports
        against the column antenna at its port, then the other way round."""
        iu, ju, ports = self.iu[:, None], self.ju[:, None], self.gram_ports
        first = np.array([True, False])[:, None, None]
        return (self.g[:, :, iu, np.where(first, ports, gram[iu])],
                self.g[:, :, ju, np.where(first, gram[ju], ports)])

    def _positions(self, gram):
        """Where the entries of the selection at the Gram-side ports `gram`
        sit in an entry list, and those of each of its moves less the
        moved port: shapes (E,) and (m, E)."""
        now = self.off + gram[self.who]
        return now[0], now - gram[:, None] * self.moves

    def _scores(self, rows, inner):
        """log2 det of the term sums of selections (a, s), shape (A, S):
        summed-side antenna k at table row rows[a, s, k] contributes its
        entries inner[a, s] (either broadcasts over s), gathered as (A, S,
        K, E) and scored by `_antenna_sum`."""
        return _antenna_sum(self.table[rows[:, :, :, None], self.antennas, inner[:, :, None]])

    def score(self):
        """Score of the current selection at each rho."""
        return self._scores(self.summed[:, None] + self.base, self.current[:, None])[:, 0]

    def step(self, side, antenna, live):
        """Scores, shape (A, N), of the selections that move antenna
        `antenna` of `side` (0 receive, 1 transmit) to each of its ports,
        at the A rhos that `live` (an index array or a slice) picks."""
        rows, base = self.summed[live, None], self.base[live]
        if side == self.gram_side:
            return self._scores(rows + base, self.moved[live, antenna, None] + self.shifts[antenna])
        return self._scores(np.where(self.onehot[antenna], self.summed_ports, rows) + base,
                            self.current[live, None])

    def commit(self, r, side, antenna, port):
        """Moves antenna `antenna` of `side` to `port` at rhos[r]."""
        moved = self.ports[side][r, antenna] != port
        self.ports[side][r, antenna] = port
        if moved and side == self.gram_side:
            gram, n_rows = self.gram[r], len(self.g)
            np.multiply(_pair_entries(*self._pairs(gram)), self.rhos[r],
                        out=self.table[r * n_rows:(r + 1) * n_rows, :, self.g[0, 0].size:])
            self.current[r], self.moved[r] = self._positions(gram)


def _enumerate_best(grid, rhos):
    """First-in-order maximizer at each of `rhos` over every selection of
    the `_GridTerms` grid, which gives receive antenna i a port from
    rx_sets[i] and transmit antenna j one from tx_sets[j] (ascending 0-based
    ports), pruned as the module docstring describes. Returns, per rho,
    (rx, tx, its score, combinations), or the OverflowError of a rho whose
    maximizer is NaN or infinite.

    The grid's table at every rho is formed once (`_scaled`) and serves
    the bounds and every score; every scored row is scored at every rho.
    The first pass scores the rows of highest bound at any rho whose bounds
    allow pruning, then each rho keeps the rows its own bounds and
    incumbent keep (every row, when they do not allow pruning), and the
    rows that any rho keeps are scored. Extra rows only add scores below a
    rho's maximum, so each rho keeps its own first maximizer. Rows are
    scored in ascending order against every Gram-side selection, at most
    _BATCH_LIMIT scores at a time. At each rho the first maximum of a chunk
    in flat order (np.argmax, which returns the first NaN if there is one)
    replaces the best so far when it is greater, or equal and earlier.
    """
    rx_sets, tx_sets = grid.sets
    sizes_r, sizes_t = [len(s) for s in rx_sets], [len(s) for s in tx_sets]
    combos_r, combos_t = math.prod(sizes_r), math.prod(sizes_t)
    table = _scaled(grid.unscaled, rhos, grid.m * grid.ports)
    sizes_k, n_rows = (sizes_r, combos_r) if grid.mirrored else (sizes_t, combos_t)
    n_gram = grid.cols.shape[1]
    gram_chunk = min(n_gram, max(1, _BATCH_LIMIT // len(rhos)))
    row_chunk = max(1, _BATCH_LIMIT // (len(rhos) * gram_chunk))
    best = [(-math.inf, 0)] * len(rhos)     # per rho: (score, -flat index) or its error

    def scan(rows):
        """Updates `best` with the ascending rows against every Gram-side
        selection."""
        for r0 in range(0, len(rows), row_chunk):
            chunk = rows[r0:r0 + row_chunk]
            summed = np.unravel_index(chunk, sizes_k)
            for g0 in range(0, n_gram, gram_chunk):
                caps = grid.scores(table, summed, grid.cols[:, g0:g0 + gram_chunk])
                for i, c in enumerate(caps):
                    if isinstance(best[i], OverflowError):
                        continue
                    if grid.mirrored:       # flat index: row * n_gram + column
                        a, b = divmod(int(c.argmax()), c.shape[1])
                        flat = int(chunk[a]) * n_gram + g0 + b
                    else:                   # column * n_rows + row
                        b, a = divmod(int(c.T.argmax()), c.shape[0])
                        flat = (g0 + b) * n_rows + int(chunk[a])
                    score = _finite(c[a, b])
                    best[i] = score if isinstance(score, OverflowError) else max(
                        best[i], (score, -flat))

    rows = np.arange(n_rows)
    first = max(1, _FIRST_PASS // n_gram)
    if first < n_rows and grid.m > 1:
        step = max(1, _BATCH_LIMIT // (len(rhos) * grid.m * grid.ports))
        bound = grid.bounds(table, (np.unravel_index(rows[r0:r0 + step], sizes_k)
                                    for r0 in range(0, n_rows, step)))
        pruned = bound.max(axis=1) <= _BOUND_CEILING
        if pruned.any():
            top = np.zeros(n_rows, dtype=bool)
            top[np.argpartition(bound, n_rows - first, axis=1)[pruned, n_rows - first:]] = True
            scan(np.flatnonzero(top))
            floor = [-math.inf if isinstance(found, OverflowError) or not ok
                     else found[0] - _BOUND_SLACK * max(1.0, found[0])
                     for found, ok in zip(best, pruned)]
            keep = (bound >= np.array(floor)[:, None]).any(axis=0)
            keep[top] = False
            rows = np.flatnonzero(keep)
    scan(rows)
    out = []
    for found in best:
        if not isinstance(found, OverflowError):
            r, t = divmod(-found[1], combos_t)
            found = ([s[p] for s, p in zip(rx_sets, np.unravel_index(r, sizes_r))],
                     [s[p] for s, p in zip(tx_sets, np.unravel_index(t, sizes_t))],
                     found[0], combos_r * combos_t)
        out.append(found)
    return out


def _each(found, make):
    """make(*f) for each rho's f of `found`; an OverflowError stays as it is."""
    return [f if isinstance(f, OverflowError) else make(*f) for f in found]


def exhaustive_search(channel, rho, cap=DEFAULT_EXHAUSTIVE_CAP, realization=None):
    """Globally optimal selection by enumerating every feasible combination.

    Each pass tabulates every port once (`_GridTerms`) and scores each of
    its rhos from that table. cap: the most combinations it enumerates, a
    nonnegative integer. realization: the channel's `Realization`; a new
    one when None.
    """
    _check_int("cap", cap, 0)
    c = channel.config
    combos = combination_count(c)
    if combos > cap:
        raise CombinationCapError(combos, cap)
    realization = _realization(channel, realization, rho)
    every = [np.arange(c.n_r)] * c.m_r, [np.arange(c.n_t)] * c.m_t
    return realization.outcome("exhaustive", rho, lambda rhos: _each(
        _enumerate_best(_GridTerms(realization.channel, *every), rhos),
        lambda *found: _result("exhaustive", *found)))


def reduced_port_count(n):
    """Ports kept per antenna by the reduced search, ceil(log2(N+1))."""
    return min(n, math.ceil(math.log2(n + 1)))


def _top_ports(weights, keep):
    """Indices (0-based, ascending) of the `keep` largest weights along the
    last axis, one row per antenna; ties go to the lower port index."""
    order = np.argsort(-weights, axis=-1, kind="stable")[..., :keep]
    return np.sort(order, axis=-1)


def _kept_ports(relaxed, keep_r, keep_t):
    """`_top_ports` of each antenna's relaxed weights, one read-only (M,
    keep) array per side: the keep-sets of the receive antennas, then
    those of the transmit antennas, then the score margin and its relative
    form (see SelectionResult)."""
    sides = [(relaxed.x_hat.reshape(relaxed.m_r, relaxed.n_r), keep_r),
             (relaxed.y_hat.reshape(relaxed.m_t, relaxed.n_t), keep_t)]
    ranked = [(np.sort(w, axis=1), keep) for w, keep in sides]
    gaps = [(s[:, -keep] - s[:, -keep - 1]).min() for s, keep in ranked if keep < s.shape[1]]
    margin = margin_rel = None
    if gaps:
        margin = float(min(gaps))
        spread = float(max((s[:, -1] - s[:, 0]).max() for s, _ in ranked))
        margin_rel = margin / spread if spread > 0 else 0.0
    rx, tx = _top_ports(*sides[0]), _top_ports(*sides[1])
    rx.flags.writeable = tx.flags.writeable = False
    return rx, tx, margin, margin_rel


class Realization:
    """What the searches on one channel realization's entries share, in one
    memo (`_part`): the JCR relaxation, from `solve_jcr` unless given, and
    the outcomes at the SNR factors `rhos` its caller will score. The first
    search at one of them, for an algorithm and its options, scores every
    rho of `rhos` in one pass and keeps each rho's outcome, its
    SelectionResult or the OverflowError it raises, for the later searches
    at the others. A pass builds its search's tables, keep-sets and draws
    and keeps none of them: a search at a rho not in `rhos` builds them
    again and scores that rho alone, as a batch of one. Every search takes
    the realization of the channel it is given, or builds its own when
    given none. ValueError unless each of `rhos` is finite and >= 0.
    """

    def __init__(self, channel, relaxed=None, rhos=()):
        if relaxed is not None:
            _check_shape("relaxation", relaxed, channel.config)
        for rho in rhos:
            _check_rho(rho)
        self.channel = channel
        self.rhos = tuple(dict.fromkeys(rhos))
        self._parts = {} if relaxed is None else {"relaxation": relaxed}

    def check(self, channel):
        """ValueError unless `channel` has this realization's shape and
        entries."""
        _check_shape("realization", self.channel.config, channel.config)
        if channel.entries is not self.channel.entries and not np.array_equal(
                channel.entries, self.channel.entries):
            raise ValueError("realization holds other channel entries than the channel given")

    def _part(self, key, build):
        """The part stored under `key`; the first call builds it by
        `build()`, with numpy's overflow warnings silenced."""
        if key not in self._parts:
            with _quiet():
                self._parts[key] = build()
        return self._parts[key]

    def outcome(self, search, rho, run):
        """The SelectionResult at rho of `search` (a key: the algorithm and
        its options), or its OverflowError raised. run(rhos) scores each
        rho of a tuple in one pass and gives one SelectionResult or
        OverflowError per rho; for a rho of `rhos` it runs once for all of
        them, as a part."""
        if rho in self.rhos:
            found = self._part(("outcome", search),
                               lambda: tuple(run(self.rhos)))[self.rhos.index(rho)]
        else:
            with _quiet():
                found = run((rho,))[0]
        if isinstance(found, OverflowError):
            raise OverflowError(*found.args)
        return found

    def relaxation(self):
        """The channel's RelaxedSolution. It depends only on |entries|^2."""
        return self._part("relaxation", lambda: solve_jcr(self.channel))


def _check_shape(what, given, config):
    """ValueError unless `given` (a config or a RelaxedSolution) has the
    antenna and port counts of `config`."""
    shape, own = [(x.m_r, x.m_t, x.n_r, x.n_t) for x in (given, config)]
    if shape != own:
        raise ValueError(f"{what} of shape (m_r, m_t, n_r, n_t) = {shape} "
                         f"does not fit a channel of shape {own}")


def _realization(channel, realization, rho):
    """`realization`, checked to hold the channel, or a new one when None;
    first, ValueError unless rho is finite and >= 0."""
    _check_rho(rho)
    if realization is None:
        return Realization(channel)
    realization.check(channel)
    return realization


def jcr_res(channel, rho, realization=None):
    """Convex relaxation followed by exhaustive search on the kept ports.

    Each pass finds the keep-sets (`_kept_ports`), tabulates their ports
    once (`_GridTerms`) and scores each of its rhos from that table.
    realization: the channel's `Realization`, whose relaxation serves every
    heuristic and SNR on the same entries; a new one, which solves the
    relaxation, when None.
    """
    c = channel.config
    realization = _realization(channel, realization, rho)
    keep = reduced_port_count(c.n_r), reduced_port_count(c.n_t)

    def run(rhos):
        relaxed = realization.relaxation()
        rx, tx, margin, margin_rel = _kept_ports(relaxed, *keep)
        return _each(_enumerate_best(_GridTerms(realization.channel, rx, tx), rhos),
                     lambda *found: _result("jcr-res", *found, relaxation=relaxed,
                                            score_margin=margin, score_margin_rel=margin_rel))
    return realization.outcome("jcr-res", rho, run)


def ao_round(relaxed):
    """Per-antenna argmax rounding of a relaxed solution (ties: lower port):
    the keep-sets of `jcr_res` with one port kept."""
    rx, tx, _, _ = _kept_ports(relaxed, 1, 1)
    return PortSelection(tuple(int(p[0]) + 1 for p in rx), tuple(int(p[0]) + 1 for p in tx))


def jcr_ao(channel, rho, epsilon=1e-3, max_iters=20, realization=None):
    """Convex relaxation, argmax rounding, then coordinate-ascent sweeps.

    Each sweep revisits every receive then every transmit antenna. The N
    selections that differ from the current one in that antenna's port are
    scored in one batch-kernel call, and the last maximizer is committed
    when it scores >= the best score so far: later ports win ties, as in a
    port-by-port >= loop. The score after each sweep is nondecreasing; the
    loop stops once the relative improvement is at most epsilon or after
    max_iters sweeps. capacity_trace holds these scores; capacity_bits is
    the last.
    realization: the channel's `Realization`, as for `jcr_res`.
    """
    if isinstance(epsilon, (bool, np.bool_)) or not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    _check_int("max_iters", max_iters, 1)
    realization = _realization(channel, realization, rho)
    return realization.outcome(("jcr-ao", epsilon, max_iters), rho,
                               lambda rhos: _ascend(realization, rhos, epsilon, max_iters))


def _ascend(realization, rhos, epsilon, max_iters):
    """`jcr_ao`'s coordinate ascent at each of `rhos`, in lockstep: each
    (side, antenna) step scores the candidates of every rho still
    ascending in one call. Each rho commits, re-tabulates and stops on its
    own. Returns its SelectionResult or OverflowError per rho."""
    c = realization.channel.config
    relaxed = realization.relaxation()
    rx, tx, margin, margin_rel = _kept_ports(relaxed, 1, 1)    # ao_round's start
    steps = [(0, i, c.n_r) for i in range(c.m_r)] + [(1, j, c.n_t) for j in range(c.m_t)]
    terms = _AscentTerms(realization.channel, [rx[:, 0], tx[:, 0]], rhos)
    c_best = [_finite(score) for score in terms.score()]
    error = [score if isinstance(score, OverflowError) else None for score in c_best]
    c_old, c_new = [0.0] * len(rhos), list(c_best)
    evaluations, sweeps = [1] * len(rhos), [0] * len(rhos)
    traces = [[score] for score in c_new]

    def ascending(r):
        return (error[r] is None and abs(c_new[r] - c_old[r]) > abs(c_old[r]) * epsilon
                and sweeps[r] < max_iters)

    def index(live):
        return slice(None) if len(live) == len(rhos) else np.array(live, dtype=np.intp)

    live = [r for r in range(len(rhos)) if ascending(r)]
    while live:
        picked = index(live)
        for r in live:
            c_old[r] = c_new[r]
        for side, antenna, n in steps:
            vals = terms.step(side, antenna, picked)
            failed = False
            for r, row in zip(live, vals):
                port = n - 1 - int(row[::-1].argmax())
                score = _finite(row[port])
                if isinstance(score, OverflowError):
                    error[r], failed = score, True
                    continue
                if score >= c_best[r]:
                    c_best[r] = score
                    terms.commit(r, side, antenna, port)
                evaluations[r] += n
            if failed:
                live = [r for r in live if error[r] is None]
                if not live:
                    break
                picked = index(live)
        for r in live:
            c_new[r] = c_best[r]
            sweeps[r] += 1
            traces[r].append(c_new[r])
        live = [r for r in live if ascending(r)]
    return [error[r] or _result(
        "jcr-ao", terms.ports[0][r], terms.ports[1][r], c_best[r], evaluations[r],
        iterations=sweeps[r], capacity_trace=tuple(traces[r]),
        relaxation=relaxed, score_margin=margin, score_margin_rel=margin_rel)
        for r in range(len(rhos))]


def default_random_samples(config):
    """Baseline sample budget: 5 (M_R N_R + M_T N_T), i.e. 10 N M when the
    two sides are symmetric."""
    return 5 * (config.m_r * config.n_r + config.m_t * config.n_t)


def _row_best(caps):
    """(index, score) of the first maximum of each row of `caps` (np.argmax,
    which returns the first NaN if there is one), or the OverflowError of
    a row whose maximum is NaN or infinite."""
    out = []
    for row in caps:
        best = int(row.argmax())
        score = _finite(row[best])
        out.append(score if isinstance(score, OverflowError) else (best, score))
    return out


def random_selection(channel, rho, samples=None, seed=0, realization=None):
    """Best of `samples` uniform feasible selections (with replacement).

    Deterministic given `seed`, a nonnegative integer: a single PCG64
    stream draws all receive port matrices first, then all transmit ones.
    The first-drawn maximizer wins ties. The samples are scored a block at
    a time, so the term table stays within _BLOCK_ENTRIES floats per rho;
    each pass draws once and scores every rho from the same draws.
    samples: an integer >= 1. realization: the channel's `Realization`; a
    new one when None.
    """
    c = channel.config
    if samples is None:
        samples = default_random_samples(c)
    _check_int("samples", samples, 1)
    _check_int("seed", seed, 0)
    realization = _realization(channel, realization, rho)

    def run(rhos):
        rng = np.random.default_rng(seed)
        rx = rng.integers(1, c.n_r + 1, size=(samples, c.m_r)) - 1
        tx = rng.integers(1, c.n_t + 1, size=(samples, c.m_t)) - 1
        return _each(_row_best(_RowTerms(realization.channel, rx, tx).capacities(rhos)),
                     lambda best, bits: _result("random", rx[best], tx[best], bits, samples))
    return realization.outcome(("random", samples, seed), rho, run)


def conventional_mimo(channel, rho, realization=None):
    """Fixed-antenna reference: the first port of every fluid antenna,
    scored with the random baseline's `_RowTerms`. realization: the
    channel's `Realization`; a new one when None."""
    c = channel.config
    realization = _realization(channel, realization, rho)
    first = np.zeros((1, c.m_r), dtype=np.intp), np.zeros((1, c.m_t), dtype=np.intp)
    return realization.outcome("conventional", rho, lambda rhos: _each(
        _row_best(_RowTerms(realization.channel, *first).capacities(rhos)),
        lambda _, bits: _result("conventional", [0] * c.m_r, [0] * c.m_t, bits, 1)))
