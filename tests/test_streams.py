"""Click-stream file formats: binary layout and round trips."""

import csv
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ionpair import atom
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


def _per_row_stream_csv(path, stream):
    """Oracle: the row-by-row csv.writer mirror that write_stream_csv's
    single format call replaces."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# channel = {stream.channel}\n")
        fh.write(f"# duration_ps = {stream.duration_ps}\n")
        writer = csv.writer(fh)
        writer.writerow(["timestamp_ps", "pol", "wavelength"])
        for ts, pol, wl in zip(stream.timestamps_ps, stream.pol,
                               stream.wavelength):
            writer.writerow([int(ts), atom.POL_NAMES[int(pol)],
                             atom.WL_NAMES[int(wl)]])


def _per_line_stream_csv(path):
    """Oracle: the line-by-line parser that read_stream_csv's single
    np.loadtxt call replaces."""
    channel, duration_ps, header_seen = 0, None, False
    ts, pol, wl = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in filter(None, map(str.strip, fh)):
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                if key.strip() == "channel":
                    channel = int(val)
                elif key.strip() == "duration_ps":
                    duration_ps = int(val)
                continue
            cells = next(csv.reader([line]))
            if not header_seen:
                assert cells == ["timestamp_ps", "pol", "wavelength"]
                header_seen = True
                continue
            ts.append(int(cells[0]))
            pol.append(atom.POL_TAGS[cells[1].strip()])
            wl.append(atom.WL_TAGS[cells[2].strip()])
    assert header_seen
    return ClickStream(np.array(ts, dtype=np.int64),
                       np.array(pol, dtype=np.uint8),
                       np.array(wl, dtype=np.uint8),
                       duration_ps=(duration_ps if duration_ps is not None
                                    else (ts[-1] + 1 if ts else 1)),
                       channel=channel)


class TestCsvCodec:
    """The CSV mirror against the row-by-row writer and reader it
    replaced, and the rows that reader let through or rejected."""

    @settings(max_examples=100, database=None)
    @given(s=streams())
    def test_bytes_and_streams_match_per_row_codec(self, s):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            write_stream_csv(got, s)
            _per_row_stream_csv(want, s)
            assert got.read_bytes() == want.read_bytes()
            assert_streams_equal(read_stream_csv(want),
                                 _per_line_stream_csv(want))

    def test_hand_edited_file_reads_as_before(self, tmp_path):
        path = tmp_path / "edited.csv"
        path.write_bytes(b"  # channel = 2 \r\n#duration_ps=900\n\n"
                         b"timestamp_ps,pol,wavelength\r\n"
                         b" 10 , sigma+ ,866\n\n   \n20,pi, 397\r\n")
        got = read_stream_csv(path)
        assert_streams_equal(got, _per_line_stream_csv(path))
        assert got.channel == 2 and got.duration_ps == 900
        assert got.timestamps_ps.tolist() == [10, 20]

    def test_header_only_is_an_empty_stream(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("timestamp_ps,pol,wavelength\n")
        got = read_stream_csv(path)
        assert len(got) == 0 and got.duration_ps == 1 and got.channel == 0

    def test_meta_after_the_header_is_a_comment(self, tmp_path):
        path = tmp_path / "late.csv"
        path.write_text("# channel = 1\ntimestamp_ps,pol,wavelength\n"
                        "10,pi,397\n# channel = 5\n20,pi,397\n")
        got = read_stream_csv(path)
        assert got.channel == 1 and len(got) == 2

    @pytest.mark.parametrize("text, where", [
        ("# channel = 1\ntimestamp_ps,pol,wavelength\n10,pi,397\n\n"
         "20,sigmaX,397\n", "'sigmaX' to uint8 at line 5, column 2"),
        ("timestamp_ps,pol,wavelength\n10,pi,397\n20,pi,397,junk\n",
         "requires 3 columns but 4 were found at line 3"),
        ("timestamp_ps,pol,wavelength\r\n# c\r\nx,pi,397\r\n",
         "'x' to int64 at line 3, column 1"),
    ])
    def test_errors_name_the_file_line(self, tmp_path, text, where):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(StreamFormatError) as info:
            read_stream_csv(path)
        assert where in str(info.value) and "row" not in str(info.value)

    @pytest.mark.parametrize("text", [
        "# channel = x\ntimestamp_ps,pol,wavelength\n10,pi,397\n",
        "# duration_ps = 1e3\ntimestamp_ps,pol,wavelength\n10,pi,397\n",
        "timestamp_ps,pol,wavelength\n10,sigma-,397,junk\n",
        "timestamp_ps,pol,wavelength\n10,sigma-\n",
        "timestamp_ps,pol,wavelength\n10,pi,532\n",
        "timestamp_ps,pol,wavelength\n1_000,pi,397\n",
        "timestamp_ps,pol,wavelength\n9223372036854775808,pi,397\n",
        "timestamp_ps,pol,wavelength\n20,pi,397\n10,pi,397\n",
        "# only meta\n",
    ])
    def test_malformed_rows_and_meta_rejected(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(StreamFormatError, match="bad.csv"):
            read_stream_csv(path)
