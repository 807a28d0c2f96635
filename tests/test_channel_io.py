import io

import numpy as np
import pytest

from fluidmimo import (
    ChannelFormatError,
    FluidMimoConfig,
    OverallChannel,
    generate_channel,
    load_channel,
    save_channel,
)

from conftest import make_channel


def roundtrip(channel):
    buf = io.StringIO()
    save_channel(channel, buf)
    return load_channel(io.StringIO(buf.getvalue()))


def test_single_entry_layout():
    ch = make_channel([[1.0 + 2.0j]], 1, 1, 1, 1)
    buf = io.StringIO()
    save_channel(ch, buf)
    lines = buf.getvalue().splitlines()
    assert lines[1] == "i,n,j,k,re,im"
    assert lines[2] == "1,1,1,1,1.0,2.0"
    assert len(lines) == 3


def test_roundtrip_exact(rng):
    cfg = FluidMimoConfig(m_r=2, m_t=3, n_r=4, n_t=2, snr_db=7.25, w=1.5)
    ch = generate_channel(cfg, int(rng.integers(0, 2 ** 63)))
    back = roundtrip(ch)
    assert back.config == ch.config
    assert np.array_equal(back.entries, ch.entries)


def test_string_is_always_a_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(OSError):
        load_channel("no\nsuch.csv")


def test_roundtrip_file_path(tmp_path, rng):
    cfg = FluidMimoConfig(m_r=1, m_t=1, n_r=5, n_t=3)
    ch = generate_channel(cfg, 42)
    path = tmp_path / "channel.csv"
    save_channel(ch, path)
    back = load_channel(path)
    assert np.array_equal(back.entries, ch.entries)


def test_missing_rows_rejected():
    ch = make_channel(np.ones((2, 2)), 1, 1, 2, 2)
    buf = io.StringIO()
    save_channel(ch, buf)
    lines = buf.getvalue().splitlines()
    truncated = "\n".join(lines[:-1]) + "\n"
    with pytest.raises(ChannelFormatError, match="declares 4 entries, found 3"):
        load_channel(io.StringIO(truncated))


def test_overstated_header_rejected_before_allocating():
    # 10^18 declared entries above one data row: numpy refuses that array
    # without allocating, so this message shows no allocation was tried
    text = ("# fluid-mimo channel m_r=1000000 m_t=1000000 n_r=1000 n_t=1000 snr_db=5.0 w=0.5\n"
            "i,n,j,k,re,im\n"
            "1,1,1,1,0.5,0.5\n")
    with pytest.raises(ChannelFormatError,
                       match="line 3: header declares 1000000000000000000 entries, found 1"):
        load_channel(io.StringIO(text))


def test_duplicate_row_rejected():
    ch = make_channel(np.ones((1, 2)), 1, 1, 1, 2)
    buf = io.StringIO()
    save_channel(ch, buf)
    lines = buf.getvalue().splitlines()
    doubled = "\n".join(lines + [lines[-1]]) + "\n"
    with pytest.raises(ChannelFormatError, match="line 5: duplicate"):
        load_channel(io.StringIO(doubled))


def test_bad_index_names_line():
    text = ("# fluid-mimo channel m_r=1 m_t=1 n_r=1 n_t=1 snr_db=5.0 w=0.5\n"
            "i,n,j,k,re,im\n"
            "1,2,1,1,0.0,0.0\n")
    with pytest.raises(ChannelFormatError, match="line 3"):
        load_channel(io.StringIO(text))


def test_garbled_float_names_line():
    text = ("# fluid-mimo channel m_r=1 m_t=1 n_r=1 n_t=1 snr_db=5.0 w=0.5\n"
            "i,n,j,k,re,im\n"
            "1,1,1,1,zero,0.0\n")
    with pytest.raises(ChannelFormatError, match="line 3"):
        load_channel(io.StringIO(text))


@pytest.mark.parametrize("re, im", [("nan", "0.0"), ("0.0", "inf"), ("-inf", "1.0")])
def test_non_finite_coefficient_names_line(re, im):
    text = ("# fluid-mimo channel m_r=1 m_t=1 n_r=1 n_t=2 snr_db=5.0 w=0.5\n"
            "i,n,j,k,re,im\n"
            "1,1,1,1,0.5,0.5\n"
            f"1,1,1,2,{re},{im}\n")
    with pytest.raises(ChannelFormatError, match="line 4: non-finite"):
        load_channel(io.StringIO(text))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_channel_rejects_non_finite_entries(bad):
    cfg = FluidMimoConfig(m_r=1, m_t=1, n_r=2, n_t=2)
    entries = np.ones((2, 2), dtype=complex)
    entries[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        OverallChannel(cfg, entries)


def test_overflowing_gain_names_line():
    # finite parts whose |g|^2 overflows float64
    text = ("# fluid-mimo channel m_r=1 m_t=1 n_r=1 n_t=2 snr_db=5.0 w=0.5\n"
            "i,n,j,k,re,im\n"
            "1,1,1,1,0.5,0.5\n"
            "1,1,1,2,1e+160,-1e+160\n")
    with pytest.raises(ChannelFormatError, match="line 4: non-finite"):
        load_channel(io.StringIO(text))


@pytest.mark.parametrize("bad", [1e160, complex(1e154, -1e154)])
def test_channel_rejects_overflowing_gain(bad):
    cfg = FluidMimoConfig(m_r=1, m_t=1, n_r=2, n_t=2)
    entries = np.ones((2, 2), dtype=complex)
    entries[0, 1] = bad
    with pytest.raises(ValueError, match=r"\|g\|\^2"):
        OverallChannel(cfg, entries)


def test_missing_header_key():
    text = ("# fluid-mimo channel m_r=1 m_t=1 n_r=1 n_t=1 w=0.5\n"
            "i,n,j,k,re,im\n"
            "1,1,1,1,0.0,0.0\n")
    with pytest.raises(ChannelFormatError, match="snr_db"):
        load_channel(io.StringIO(text))


def test_duplicate_header_key():
    # the last m_r used to win without naming the conflict
    text = ("# fluid-mimo channel m_r=2 m_t=1 n_r=1 n_t=1 snr_db=5.0 w=0.5 m_r=3\n"
            "i,n,j,k,re,im\n"
            "1,1,1,1,0.0,0.0\n")
    with pytest.raises(ChannelFormatError, match="line 1: duplicate header key 'm_r'"):
        load_channel(io.StringIO(text))


def test_wrong_column_header():
    text = ("# fluid-mimo channel m_r=1 m_t=1 n_r=1 n_t=1 snr_db=5.0 w=0.5\n"
            "i,n,j,k,real,imag\n"
            "1,1,1,1,0.0,0.0\n")
    with pytest.raises(ChannelFormatError, match="line 2"):
        load_channel(io.StringIO(text))
