"""Channel matrix file format: diffable, language-neutral CSV text.

Layout:

    # fluid-mimo channel m_r=2 m_t=2 n_r=10 n_t=10 snr_db=5.0 w=0.5
    i,n,j,k,re,im
    1,1,1,1,-0.6051458620016473,1.2414438237148687
    ...

One data row per coefficient, indices 1-based (i,n receive antenna/port,
j,k transmit antenna/port), written in row-major order of the full matrix.
Floats use Python's shortest round-trip decimal representation, so
load(save(G)) reproduces G (and its config) exactly.
"""

import math
import os

import numpy as np

from .channel import FluidMimoConfig, OverallChannel

_MAGIC = "# fluid-mimo channel"
_COLUMNS = "i,n,j,k,re,im"
_HEADER_KEYS = ("m_r", "m_t", "n_r", "n_t", "snr_db", "w")


class ChannelFormatError(ValueError):
    """Malformed channel file; message carries the offending line number."""


def save_channel(channel, destination):
    """Write `channel` to a path or text file object."""
    if hasattr(destination, "write"):
        _write(channel, destination)
    else:
        with open(os.fspath(destination), "w", newline="") as fh:
            _write(channel, fh)


def _write(channel, fh):
    c = channel.config
    fh.write(
        f"{_MAGIC} m_r={c.m_r} m_t={c.m_t} n_r={c.n_r} n_t={c.n_t}"
        f" snr_db={c.snr_db!r} w={c.w!r}\n"
    )
    fh.write(_COLUMNS + "\n")
    for i in range(c.m_r):
        for n in range(c.n_r):
            for j in range(c.m_t):
                for k in range(c.n_t):
                    g = channel.entries[i * c.n_r + n, j * c.n_t + k]
                    fh.write(f"{i+1},{n+1},{j+1},{k+1},"
                             f"{float(g.real)!r},{float(g.imag)!r}\n")


def load_channel(source):
    """Read a channel from a path or text file object."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(os.fspath(source)) as fh:
            lines = fh.read().splitlines()
    return _parse(lines)


def _parse(lines):
    if not lines or not lines[0].startswith(_MAGIC):
        raise ChannelFormatError(f"line 1: expected header starting with {_MAGIC!r}")
    fields = {}
    for token in lines[0][len(_MAGIC):].split():
        key, _, val = token.partition("=")
        if not _ or key not in _HEADER_KEYS:
            raise ChannelFormatError(f"line 1: unexpected header token {token!r}")
        fields[key] = val
    missing = [k for k in _HEADER_KEYS if k not in fields]
    if missing:
        raise ChannelFormatError(f"line 1: header missing {', '.join(missing)}")
    try:
        config = FluidMimoConfig(
            m_r=int(fields["m_r"]), m_t=int(fields["m_t"]),
            n_r=int(fields["n_r"]), n_t=int(fields["n_t"]),
            snr_db=float(fields["snr_db"]), w=float(fields["w"]),
        )
    except ValueError as exc:
        raise ChannelFormatError(f"line 1: bad header value ({exc})") from exc

    if len(lines) < 2 or lines[1].strip() != _COLUMNS:
        raise ChannelFormatError(f"line 2: expected column header {_COLUMNS!r}")

    expected = config.rx_dim * config.tx_dim
    rows = sum(1 for line in lines[2:] if line.strip())
    # each data row fills one more cell or raises, so only too few rows can
    # leave the matrix short; counted before allocating what the header declares
    if rows < expected:
        raise ChannelFormatError(
            f"line {len(lines)}: header declares {expected} entries, found {rows}")
    entries = np.full((config.rx_dim, config.tx_dim), np.nan, dtype=np.complex128)
    seen = np.zeros(entries.shape, dtype=bool)
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise ChannelFormatError(f"line {lineno}: expected 6 fields, got {len(parts)}")
        try:
            i, n, j, k = (int(p) for p in parts[:4])
            re, im = float(parts[4]), float(parts[5])
        except ValueError as exc:
            raise ChannelFormatError(f"line {lineno}: {exc}") from exc
        mag = math.hypot(re, im)
        if not math.isfinite(mag * mag):
            raise ChannelFormatError(
                f"line {lineno}: non-finite coefficient or |g|^2 for {re!r},{im!r}")
        if not (1 <= i <= config.m_r and 1 <= n <= config.n_r
                and 1 <= j <= config.m_t and 1 <= k <= config.n_t):
            raise ChannelFormatError(
                f"line {lineno}: index ({i},{n},{j},{k}) outside declared dimensions"
            )
        r, col = (i - 1) * config.n_r + (n - 1), (j - 1) * config.n_t + (k - 1)
        if seen[r, col]:
            raise ChannelFormatError(f"line {lineno}: duplicate entry ({i},{n},{j},{k})")
        seen[r, col] = True
        entries[r, col] = complex(re, im)
    return OverallChannel(config=config, entries=entries)
