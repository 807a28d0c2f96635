"""Spatially correlated fluid-MIMO channel generation.

System geometry: the receiver has M_R fluid antennas with N_R candidate
ports each, the transmitter M_T antennas with N_T ports each. Ports of one
antenna sit evenly spaced on a line segment of length W wavelengths, so
they fade in a correlated way; distinct fluid antennas are far enough
apart to fade independently.

The overall channel is the (M_R*N_R) x (M_T*N_T) complex matrix G whose
(i,j) block holds the port-to-port coefficients between receive antenna i
and transmit antenna j. Each normalized coefficient (E|g|^2 = 1) is built
from four independent Gaussian components with variance 1/2,

    g = (sqrt(1-mu^2) u + mu u0) + 1j (sqrt(1-mu^2) v + mu v0),

where u, v are per-port draws, u0, v0 are shared across the whole (i,j)
block, and the Jakes-style correlation parameter couples the receive and
transmit port positions through the zero-order Bessel function:

    mu[n,k] = 0.5 * (J0(2 pi n W / (N_R - 1)) + J0(2 pi k W / (N_T - 1)))

with n, k counted from 0 here. When a side has a single port the
corresponding argument is taken as 0 (the lone port trivially correlates
with itself), which also keeps the n = 0 row/column continuous. W = 0
collapses every port of a block onto the same coefficient; W -> infinity
decorrelates all ports with n, k >= 1.

Randomness: one PCG64 sub-stream per (i,j) block, spawned from
SeedSequence(seed) in row-major block order (child index i*M_T + j). Each
block draws, in order, the per-port matrix u in row-major (n,k) order,
then v, then the scalars u0 and v0. Identical (config, seed) therefore
reproduce the matrix bit-exactly within this implementation.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bessel import bessel_j0

_GAUSS_SCALE = np.sqrt(0.5)  # component variance 1/2
_FLOAT_MAX = float(np.finfo(np.float64).max)


def _check_int(name, value, low):
    """ValueError naming the field `name` unless value is an int or a numpy
    integer scalar >= low: a bool, a float or a str is refused, not read as
    a number. It and `_check_real` are the library's only scalar rules."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low:
        kind = "a nonnegative integer" if low == 0 else f"an integer >= {low}"
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def _check_real(name, value, low=None, strict=False):
    """ValueError naming the field `name` unless value is a finite int, float,
    numpy integer or floating scalar, or 0-d array of one, >= low (> low if
    strict) when low is given: a bool, str, None, complex, Fraction or int
    beyond float64 is refused, not read as a number."""
    number = value
    if type(value) is not float:                # the searches check rho on every call
        item = value[()] if isinstance(value, np.ndarray) and value.ndim == 0 else value
        real = isinstance(item, (int, float, np.integer, np.floating)) and type(item) is not bool
        number = (item if isinstance(item, int) else float(item)) if real else math.nan
    if not (abs(number) <= _FLOAT_MAX           # False on NaN and on an int beyond float64
            and (low is None or number > low or (not strict and number == low))):
        kind = "a real number" if low is None else f"finite and {'>' if strict else '>='} {low}"
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def _check_profile(n_r, n_t, w, prefix=""):
    """ValueError naming the field unless the port counts n_r, n_t are
    integers >= 1 and w is a real number >= 0 (`_check_real`) whose
    largest J0 argument in `correlation_profile`, 2 pi (N - 1) W / (N - 1)
    formed in its order, is finite. prefix leads each field name."""
    for name, n in (("n_r", n_r), ("n_t", n_t)):
        _check_int(prefix + name, n, 1)
    _check_real(prefix + "w", w, 0)
    top = [2.0 * np.pi * k * float(w) / k for k in (int(n_r) - 1, int(n_t) - 1) if k]
    if not all(map(math.isfinite, top)):
        raise ValueError(f"{prefix}w must be finite and >= 0, and 2 pi (N - 1) W finite "
                         f"at n_r = {n_r}, n_t = {n_t}, got {w}")


@dataclass(frozen=True)
class FluidMimoConfig:
    """Dimensions and scalar knobs of one fluid-MIMO instance.

    m_r, m_t: number of receive/transmit fluid antennas (>= 1)
    n_r, n_t: ports per receive/transmit fluid antenna (>= 1)
    snr_db:   average SNR per receive fluid antenna, in dB
    w:        normalized antenna length (segment of W wavelengths), >= 0
    """

    m_r: int
    m_t: int
    n_r: int
    n_t: int
    snr_db: float = 5.0
    w: float = 0.5

    def __post_init__(self):
        for name in ("m_r", "m_t"):
            _check_int(f"config field {name}", getattr(self, name), 1)
        _check_profile(self.n_r, self.n_t, self.w, "config field ")
        _check_real("config field snr_db", self.snr_db)
        try:
            linear = self.snr_linear
        except OverflowError:
            linear = np.inf
        if not np.isfinite(linear):
            raise ValueError(f"config field snr_db must be finite, with a finite linear "
                             f"SNR 10^(snr_db/10), got {self.snr_db}")

    @property
    def snr_linear(self):
        """Average receive SNR on a linear scale."""
        return 10.0 ** (float(self.snr_db) / 10.0)

    @property
    def rho(self):
        """Per-transmit-antenna SNR factor (receive SNR / M_T)."""
        return self.snr_linear / self.m_t

    @property
    def rx_dim(self):
        return self.m_r * self.n_r

    @property
    def tx_dim(self):
        return self.m_t * self.n_t


@dataclass(frozen=True)
class OverallChannel:
    """Full port-level channel matrix plus the config it was drawn for.

    entries[(i*N_R + n), (j*N_T + k)] is the coefficient between port n of
    receive antenna i and port k of transmit antenna j (all zero-based).
    """

    config: FluidMimoConfig
    entries: np.ndarray

    def __post_init__(self):
        expected = (self.config.rx_dim, self.config.tx_dim)
        if self.entries.shape != expected:
            raise ValueError(
                f"channel entries shape {self.entries.shape} does not match "
                f"config dimensions {expected}"
            )
        with np.errstate(over="ignore"):
            gains = np.abs(self.entries) ** 2
        if not np.isfinite(gains).all():
            raise ValueError("channel entries must be finite, with finite |g|^2")


def correlation_profile(n_r, n_t, w):
    """Port-pair correlation matrix mu of shape (n_r, n_t).

    Entries are clipped to [-1, 1]; mathematically they already lie there
    (each is the mean of two J0 values in [-0.4028, 1]), the clip only
    absorbs the ~1e-9 wiggle of the rational J0 fit near its maximum.
    ValueError, naming the field, on the inputs `FluidMimoConfig` refuses.
    """
    _check_profile(n_r, n_t, w)

    def port_terms(n):
        if n == 1:
            return np.ones(1)
        return bessel_j0(2.0 * np.pi * np.arange(n) * w / (n - 1))

    mu = 0.5 * (port_terms(n_r)[:, None] + port_terms(n_t)[None, :])
    return np.clip(mu, -1.0, 1.0)


@lru_cache(maxsize=64)
def _mixing(n_r, n_t, w):
    """(mu, sqrt(1 - mu^2)) for `correlation_profile(n_r, n_t, w)`, computed
    once per shape and W and shared read-only by every draw."""
    mu = correlation_profile(n_r, n_t, w)
    mix = np.sqrt(np.maximum(0.0, 1.0 - mu * mu))
    mu.flags.writeable = mix.flags.writeable = False
    return mu, mix


def generate_channel(config, seed):
    """Draw one overall channel for `config` from a nonnegative integer seed.

    Deterministic: identical (config, seed) give bit-identical matrices.
    See the module docstring for the exact stream-splitting and draw order.
    """
    c = config
    _check_int("seed", seed, 0)
    mu, mix = _mixing(c.n_r, c.n_t, float(c.w))

    entries = np.empty((c.rx_dim, c.tx_dim), dtype=np.complex128)
    children = np.random.SeedSequence(seed).spawn(c.m_r * c.m_t)
    for i in range(c.m_r):
        for j in range(c.m_t):
            rng = np.random.default_rng(children[i * c.m_t + j])
            u = rng.standard_normal((c.n_r, c.n_t)) * _GAUSS_SCALE
            v = rng.standard_normal((c.n_r, c.n_t)) * _GAUSS_SCALE
            u0 = rng.standard_normal() * _GAUSS_SCALE
            v0 = rng.standard_normal() * _GAUSS_SCALE
            entries[i * c.n_r:(i + 1) * c.n_r, j * c.n_t:(j + 1) * c.n_t] = (
                mix * u + mu * u0 + 1j * (mix * v + mu * v0)
            )
    return OverallChannel(config=c, entries=entries)
