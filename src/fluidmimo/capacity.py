"""Channel capacity of a port selection, and the concave surrogate.

The capacity of an effective channel H (M_R x M_T, one selected port per
fluid antenna) under equal power split and AWGN is

    C = log2 det(I + rho H H^H) = log2 det(I + rho H^H H)   [bits/s/Hz]

computed here on whichever Gram matrix is smaller (H^H H iff M_T < M_R).
I + rho * Gram is Hermitian positive definite, so the log-determinant is
accumulated from the diagonal of its Cholesky factor, which is both
cheaper and better conditioned than a generic LU route.

`capacity_q_form` evaluates the same quantity through the padded matrix
Q = diag(x) G diag(y) built from the binary selection vectors; the two
routes agree identically and the Q form exists to let tests exercise that
equivalence. `surrogate_u` is the jointly concave selection objective

    U(x, y) = sum |g[r,c]|^2 * min(x[r], y[c])

which coincides with ||Q||_F^2 on binary selections, and
`capacity_upper_bound` is the resulting bound C <= (rho / ln 2) * U.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_Q_FORM_MAX_ENTRIES = 10 ** 7  # the padded Q form is a test-scale tool only


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
                if not isinstance(p, (int, np.integer)) or isinstance(p, bool):
                    raise ValueError(f"selection field {side} must hold integers, got {p!r}")
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
    """log2 det(I + rho H H^H) in bits/s/Hz, via the smaller Gram matrix."""
    h = np.asarray(effective, dtype=np.complex128)
    if h.ndim != 2:
        raise ValueError(f"effective channel must be 2-D, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("effective channel has non-finite entries")
    if not (math.isfinite(rho) and rho >= 0):
        raise ValueError(f"rho must be finite and >= 0, got {rho}")
    return _gram_logdet(h, rho)


@lru_cache(maxsize=16)
def _identity(m):
    """Read-only m x m identity."""
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


def _gram_logdet(h, rho):
    m_r, m_t = h.shape
    if m_t < m_r:
        gram = h.conj().T @ h
    else:
        gram = h @ h.conj().T
    b = _identity(len(gram)) + rho * gram
    return max(0.0, 2.0 * float(np.log2(np.linalg.cholesky(b).diagonal().real).sum()))


def capacity_q_form(channel, sel, rho):
    """Capacity through the padded selection matrix Q = diag(x) G diag(y).

    Kept at full (M_R N_R) x (M_T N_T) size on purpose; refuses products
    above 1e7 entries since this path only exists for equivalence testing.
    """
    c = channel.config
    if c.rx_dim * c.tx_dim > _Q_FORM_MAX_ENTRIES:
        raise ValueError(
            f"padded Q would have {c.rx_dim * c.tx_dim} entries "
            f"(limit {_Q_FORM_MAX_ENTRIES}); use capacity(extract_effective(...)) instead"
        )
    if not np.isfinite(rho) or rho < 0:
        raise ValueError(f"rho must be finite and >= 0, got {rho}")
    sel.validate(c)
    x, y = sel.to_indicators(c.n_r, c.n_t)
    q = x[:, None] * channel.entries * y[None, :]
    return _gram_logdet(q, rho)


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
    if u_value < 0:
        raise ValueError(f"u_value must be >= 0, got {u_value}")
    if not np.isfinite(rho) or rho < 0:
        raise ValueError(f"rho must be finite and >= 0, got {rho}")
    return rho * u_value / np.log(2.0)
