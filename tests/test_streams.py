"""Click-stream file formats: binary layout and round trips."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ionpair.streams import (MAGIC, StreamFormatError, load_stream,
                             read_stream, read_stream_csv, save_stream,
                             write_stream, write_stream_csv)
from ionpair.trajectory import ClickStream


def random_stream(rng, n=257, channel=1):
    ts = np.sort(rng.choice(10_000_000, size=n, replace=False)).astype(np.int64)
    return ClickStream(
        timestamps_ps=ts,
        pol=rng.integers(0, 3, size=n).astype(np.uint8),
        wavelength=rng.integers(0, 2, size=n).astype(np.uint8),
        duration_ps=10_000_001,
        channel=channel)


@st.composite
def streams(draw):
    """Any valid stream: int64 timestamps up to the duration, all tags."""
    n = draw(st.integers(0, 60))
    first = draw(st.integers(0, 2**62))
    gaps = draw(st.lists(st.integers(1, 2**50), min_size=max(n - 1, 0),
                         max_size=max(n - 1, 0)))
    ts = first + np.cumsum(np.array([0] + gaps, dtype=np.int64))[:n]
    end = int(ts[-1]) + 1 if n else 1
    return ClickStream(
        timestamps_ps=ts,
        pol=np.array(draw(st.lists(st.integers(0, 2), min_size=n,
                                   max_size=n)), dtype=np.uint8),
        wavelength=np.array(draw(st.lists(st.integers(0, 1), min_size=n,
                                          max_size=n)), dtype=np.uint8),
        duration_ps=draw(st.integers(end, 2**63 - 1)),
        channel=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=100, database=None)
@given(s=streams())
def test_round_trips_any_stream(tmp_path_factory, s):
    base = tmp_path_factory.getbasetemp()
    for suffix in (".clk", ".csv"):
        path = base / f"round_trip{suffix}"
        save_stream(path, s)
        assert_streams_equal(load_stream(path), s)


@pytest.fixture()
def stream():
    return random_stream(np.random.default_rng(0))


def assert_streams_equal(a, b):
    assert np.array_equal(a.timestamps_ps, b.timestamps_ps)
    assert np.array_equal(a.pol, b.pol)
    assert np.array_equal(a.wavelength, b.wavelength)
    assert a.duration_ps == b.duration_ps
    assert a.channel == b.channel


class TestBinary:
    def test_round_trip(self, tmp_path, stream):
        path = tmp_path / "run.clk"
        write_stream(path, stream)
        assert_streams_equal(read_stream(path), stream)

    def test_round_trip_empty(self, tmp_path):
        empty = ClickStream(np.array([], dtype=np.int64), np.array([]),
                            np.array([]), duration_ps=500, channel=2)
        path = tmp_path / "empty.clk"
        write_stream(path, empty)
        out = read_stream(path)
        assert len(out) == 0
        assert out.duration_ps == 500 and out.channel == 2

    def test_layout_is_frozen(self, tmp_path, stream):
        # header: 7s magic, u32 channel, u64 count, u64 duration; then
        # 10-byte packed events (u64 ts, u8 pol, u8 wl), little endian
        path = tmp_path / "run.clk"
        write_stream(path, stream)
        raw = path.read_bytes()
        assert len(raw) == 27 + 10 * len(stream)
        magic, chan, count, dur = struct.unpack_from("<7sIQQ", raw, 0)
        assert magic == MAGIC
        assert chan == stream.channel
        assert count == len(stream)
        assert dur == stream.duration_ps
        ts0, pol0, wl0 = struct.unpack_from("<QBB", raw, 27)
        assert ts0 == stream.timestamps_ps[0]
        assert pol0 == stream.pol[0] and wl0 == stream.wavelength[0]

    def test_bad_magic_rejected(self, tmp_path, stream):
        path = tmp_path / "run.clk"
        write_stream(path, stream)
        raw = bytearray(path.read_bytes())
        raw[:7] = b"NOTCLK1"
        path.write_bytes(bytes(raw))
        with pytest.raises(StreamFormatError, match="magic"):
            read_stream(path)

    def test_truncated_header_rejected(self, tmp_path, stream):
        path = tmp_path / "run.clk"
        write_stream(path, stream)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(StreamFormatError):
            read_stream(path)

    def test_truncated_payload_rejected(self, tmp_path, stream):
        path = tmp_path / "run.clk"
        write_stream(path, stream)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(StreamFormatError, match="payload"):
            read_stream(path)

    def test_trailing_garbage_rejected(self, tmp_path, stream):
        path = tmp_path / "run.clk"
        write_stream(path, stream)
        path.write_bytes(path.read_bytes() + b"\x00" * 3)
        with pytest.raises(StreamFormatError):
            read_stream(path)


class TestCsv:
    def test_round_trip(self, tmp_path, stream):
        path = tmp_path / "run.csv"
        write_stream_csv(path, stream)
        assert_streams_equal(read_stream_csv(path), stream)

    def test_header_names_polarizations(self, tmp_path, stream):
        path = tmp_path / "run.csv"
        write_stream_csv(path, stream)
        text = path.read_text()
        assert "timestamp_ps" in text.splitlines()[0] or \
            any("timestamp_ps" in ln for ln in text.splitlines()[:4])
        assert "sigma-" in text and "pi" in text

    def test_bad_pol_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# channel=1\n# duration_ps=100\n"
                        "timestamp_ps,pol,wavelength\n10,diagonal,397\n")
        with pytest.raises(StreamFormatError):
            read_stream_csv(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("10,sigma-,397\n")
        with pytest.raises(StreamFormatError):
            read_stream_csv(path)


class TestLoad:
    def test_dispatch_by_suffix(self, tmp_path, stream):
        bpath = tmp_path / "a.clk"
        cpath = tmp_path / "a.csv"
        write_stream(bpath, stream)
        write_stream_csv(cpath, stream)
        assert_streams_equal(load_stream(bpath), stream)
        assert_streams_equal(load_stream(cpath), stream)

    def test_non_csv_suffix_treated_as_binary(self, tmp_path):
        path = tmp_path / "a.dat"
        path.write_bytes(b"definitely not a click stream")
        with pytest.raises(StreamFormatError, match="magic"):
            load_stream(path)
