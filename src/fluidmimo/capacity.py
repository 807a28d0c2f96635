"""Channel capacity of a port selection, and the concave surrogate.

The capacity of an effective channel H (M_R x M_T, one selected port per
fluid antenna) under equal power split and AWGN is

    C = log2 det(I + rho H H^H) = log2 det(I + rho H^H H)   [bits/s/Hz]

This module owns its one formula, which the searches of `selection` score
with too. The Gram matrix, m x m for m the smaller antenna count (the
receive side on a tie), is a sum over the K antennas of the other side,
the summed side, of rank-one terms rho v v^H, each packed as m*m reals:
the diagonal, then the real and the imaginary parts of the strict upper
triangle in row order (`_unscaled_terms`, then `_scaled` at each rho, which
puts the identity on antenna 0). `_antenna_sum` adds the terms of a
selection antenna by antenna and takes log2 det of the sum with
`_packed_logdet`: in closed form for m = 1 and 2, by Cholesky above.
`capacity` scores H with it, and so do the row scores of `selection`; the
enumerations gather the same entries from their tables and add them in
the same order, so a selection scores the same bits in every search and
in `capacity`.

`capacity_q_form` evaluates the same quantity through the padded matrix
Q = diag(x) G diag(y) built from the binary selection vectors; it exists
to let tests exercise that equivalence. `surrogate_u` is the jointly
concave selection objective

    U(x, y) = sum |g[r,c]|^2 * min(x[r], y[c])

which coincides with ||Q||_F^2 on binary selections, and
`capacity_upper_bound` is the resulting bound C <= (rho / ln 2) * U.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import _check_int, _check_real

_Q_FORM_MAX_ENTRIES = 10 ** 7  # floats in the padded Q form's term table, a test-scale tool


@dataclass(frozen=True)
class PortSelection:
    """One selected port per fluid antenna, 1-based.

    rx_ports[i] is the port of receive antenna i, in {1..N_R}; tx_ports[j]
    likewise in {1..N_T}. Equivalent to the binary selection vectors with
    one 1 per antenna.
    """

    rx_ports: tuple
    tx_ports: tuple

    def __post_init__(self):
        for side in ("rx_ports", "tx_ports"):
            ports = tuple(getattr(self, side))
            for p in ports:
                _check_int(f"each port of {side}", p, 1)
            object.__setattr__(self, side, tuple(int(p) for p in ports))
        if not self.rx_ports or not self.tx_ports:
            raise ValueError("selection must cover at least one antenna per side")

    def validate(self, config):
        if len(self.rx_ports) != config.m_r or len(self.tx_ports) != config.m_t:
            raise ValueError(
                f"selection covers {len(self.rx_ports)}x{len(self.tx_ports)} antennas, "
                f"channel has {config.m_r}x{config.m_t}"
            )
        for i, p in enumerate(self.rx_ports):
            if not 1 <= p <= config.n_r:
                raise ValueError(f"receive antenna {i+1}: port {p} outside 1..{config.n_r}")
        for j, p in enumerate(self.tx_ports):
            if not 1 <= p <= config.n_t:
                raise ValueError(f"transmit antenna {j+1}: port {p} outside 1..{config.n_t}")

    def to_indicators(self, n_r, n_t):
        """Binary vectors (x, y) of lengths M_R*N_R and M_T*N_T."""
        x = np.zeros(len(self.rx_ports) * n_r)
        y = np.zeros(len(self.tx_ports) * n_t)
        for i, p in enumerate(self.rx_ports):
            x[i * n_r + p - 1] = 1.0
        for j, p in enumerate(self.tx_ports):
            y[j * n_t + p - 1] = 1.0
        return x, y


def extract_effective(channel, sel):
    """M_R x M_T effective channel for the selected ports."""
    c = channel.config
    sel.validate(c)
    rows = np.array([i * c.n_r + p - 1 for i, p in enumerate(sel.rx_ports)])
    cols = np.array([j * c.n_t + p - 1 for j, p in enumerate(sel.tx_ports)])
    return channel.entries[rows[:, None], cols]


def capacity(effective, rho):
    """log2 det(I + rho H H^H) in bits/s/Hz: the packed terms of H, one
    table of K m^2 floats built at once (K and m the larger and the smaller
    side of H), added antenna by antenna and scored by `_antenna_sum`. A
    result that is not finite comes with a RuntimeWarning."""
    h = np.asarray(effective, dtype=np.complex128)
    if h.ndim != 2:
        raise ValueError(f"effective channel must be 2-D, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("effective channel has non-finite entries")
    _check_real("rho", rho, 0)
    terms = _terms(h[None], (rho,))
    with np.errstate(over="ignore", invalid="ignore"):   # `_packed_logdet` rescues
        bits = float(_antenna_sum(terms)[0, 0])
    if not math.isfinite(bits):
        warnings.warn(f"capacity evaluates to {bits}: I + rho H H^H overflows float64",
                      RuntimeWarning, stacklevel=2)
    return bits


def _terms(h, rhos):
    """The packed terms of stacked effective channels h, shape (S, M_R,
    M_T), at each of `rhos`: shape (rhos, S, K, m*m), the summed side (the
    larger, transmit on a tie) first."""
    m = min(h.shape[1:])
    iu, ju = _triangle(m)
    v = h if h.shape[2] < h.shape[1] else h.swapaxes(1, 2)
    return _scaled(_unscaled_terms(v, v[..., iu], v[..., ju]), rhos, m)


def _antenna_sum(terms):
    """log2 det of the packed I + rho G of each selection, shape (...): its
    terms (..., K, E), a new array, added antenna by antenna."""
    flat = terms.reshape((-1,) + terms.shape[-2:])
    total = flat[:, 0]
    for k in range(1, flat.shape[1]):
        total += flat[:, k]
    return _packed_logdet(total.T).reshape(terms.shape[:-2])


@lru_cache(maxsize=64)
def _triangle(m):
    """Row and column indices of the strict upper triangle of an m x m
    matrix in row order, read-only: the pair order of the packed layout."""
    iu, ju = np.triu_indices(m, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _unscaled_terms(v, a, b):
    """Rank-one terms v v^H without rho, as a read-only table T[r, k, :] of
    packed entries: row r (a port, or one selection), antenna k of the
    summed side.

    An entry list holds the diagonal entries |v|^2 of v (shape (R, K, ...)),
    then `_pair_entries` of a and b; each block flattened. Real ufuncs only,
    so an entry has the same bits wherever it sits. `_scaled` turns it into
    the terms at one rho.
    """
    diag = v.real * v.real + v.imag * v.imag
    table = np.concatenate([diag.reshape(v.shape[:2] + (-1,)), _pair_entries(a, b)], axis=-1)
    table.flags.writeable = False
    return table


def _scaled(unscaled, rhos, n_diag):
    """The terms rho v v^H of an `_unscaled_terms` table at each of the
    sequence `rhos`, a new array with the table at rhos[i] in row i:
    antenna 0 carries the identity on its n_diag diagonal entries,
    so the terms of a selection, added in antenna order, give I + rho G
    packed as `_packed_logdet` reads it. Each entry is the IEEE product of
    rho and the unscaled one, as forming rho |v|^2 directly would give."""
    table = np.multiply.outer(rhos, unscaled)
    table[:, :, 0, :n_diag] += 1.0
    return table


def _pair_entries(a, b):
    """The real parts re_a re_b + im_a im_b, then the imaginary parts
    im_a re_b - re_a im_b of off-diagonal entries without rho, flattened
    per (row, antenna): a and b are the coefficients of the row and the
    column antenna of each entry, broadcast together over (R, K, ...)."""
    lead = a.shape[:2] + (-1,)
    re = a.real * b.real
    re += a.imag * b.imag
    im = a.imag * b.real
    im -= a.real * b.imag
    return np.concatenate([re.reshape(lead), im.reshape(lead)], axis=-1)


def _packed_logdet(b):
    """log2 det B for stacked Hermitian positive definite B = I + rho G,
    packed as by `_scaled` along axis 0; clipped at 0.

    Closed forms for m = 1 and m = 2; for larger m the matrices are
    unpacked and go through a batched Cholesky. A 2 x 2 determinant that
    overflows although its entries do not is taken again of B 2^-e, e the
    exponent of the largest entry, plus 2e: exact scaling, so only those
    columns change, and the range is that of the entries (~1e308).
    """
    m = math.isqrt(len(b))
    if m == 1:
        return np.maximum(0.0, np.log2(b[0]))
    if m == 2:
        det = b[0] * b[1] - (b[2] * b[2] + b[3] * b[3])
        out = np.log2(det)
        if not math.isfinite(det.sum()):            # a NaN or infinite det, or a large sum
            lost = ~np.isfinite(det) & np.isfinite(b).all(axis=0)
            e = np.frexp(np.abs(b[:, lost]).max(axis=0))[1]
            s = np.ldexp(b[:, lost], -e)
            out[lost] = np.log2(s[0] * s[1] - (s[2] * s[2] + s[3] * s[3])) + 2.0 * e
        return np.maximum(0.0, out)
    iu, ju = _triangle(m)
    upper = np.moveaxis(b[m:m + len(iu)] + 1j * b[m + len(iu):], 0, -1)
    full = np.empty(b.shape[1:] + (m, m), dtype=np.complex128)
    full[..., np.arange(m), np.arange(m)] = np.moveaxis(b[:m], 0, -1)
    full[..., iu, ju] = upper
    full[..., ju, iu] = upper.conj()
    diag = np.diagonal(np.linalg.cholesky(full), axis1=-2, axis2=-1)
    return np.maximum(0.0, 2.0 * np.sum(np.log2(diag.real), axis=-1))


def capacity_q_form(channel, sel, rho):
    """Capacity through the padded selection matrix Q = diag(x) G diag(y).

    Kept at full (M_R N_R) x (M_T N_T) size on purpose, so `capacity`
    builds a term table of rx_dim * tx_dim * min(rx_dim, tx_dim) floats;
    refuses one above 1e7 entries since this path only exists for
    equivalence testing.
    """
    c = channel.config
    entries = c.rx_dim * c.tx_dim * min(c.rx_dim, c.tx_dim)
    if entries > _Q_FORM_MAX_ENTRIES:
        raise ValueError(
            f"padded Q would have a term table of {entries} entries "
            f"(limit {_Q_FORM_MAX_ENTRIES}); use capacity(extract_effective(...)) instead"
        )
    _check_real("rho", rho, 0)
    sel.validate(c)
    x, y = sel.to_indicators(c.n_r, c.n_t)
    q = x[:, None] * channel.entries * y[None, :]
    return capacity(q, rho)


def surrogate_u(channel, x, y):
    """Concave selection objective sum |g|^2 * min(x_r, y_c).

    x and y may be fractional (per-port weights in [0, 1]); on binary
    selection vectors this equals the squared Frobenius norm of Q.
    """
    c = channel.config
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (c.rx_dim,) or y.shape != (c.tx_dim,):
        raise ValueError(
            f"weight vectors must have shapes ({c.rx_dim},) and ({c.tx_dim},), "
            f"got {x.shape} and {y.shape}"
        )
    for name, vec in (("x", x), ("y", y)):
        if np.any(~np.isfinite(vec)) or np.any(vec < 0.0) or np.any(vec > 1.0):
            raise ValueError(f"{name} components must lie in [0, 1]")
    gains = np.abs(channel.entries) ** 2
    return float(np.sum(gains * np.minimum(x[:, None], y[None, :])))


def capacity_upper_bound(u_value, rho):
    """Capacity bound (rho / ln 2) * U implied by log det B <= tr(B - I)."""
    _check_real("u_value", u_value, 0)
    _check_real("rho", rho, 0)
    return rho * u_value / np.log(2.0)
