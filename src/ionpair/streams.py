"""Binary and CSV serialization of click streams.

IONCLK1 layout, little-endian throughout:

    header:  7s  magic   b"IONCLK1"
             u32 channel id
             u64 event count
             u64 duration in picoseconds
    events:  u64 timestamp_ps, u8 polarization, u8 wavelength
             (packed, 10 bytes per event)

Polarization codes 0/1/2 = sigma-/pi/sigma+; wavelength 0/1 = 397/866 nm.
The CSV mirror holds the same fields as text in the layout of the
correlations tables: channel and duration_ps as '# key = value' lines
before the header, then one row per event with the tags by name.
"""

from __future__ import annotations

import struct

import numpy as np

from . import atom
from .correlations import _read_csv, _write_csv
from .trajectory import ClickStream

MAGIC = b"IONCLK1"
_HEADER = struct.Struct("<7sIQQ")
_EVENT_DTYPE = np.dtype([("ts", "<u8"), ("pol", "u1"), ("wl", "u1")])

_CSV_HEADER = ["timestamp_ps", "pol", "wavelength"]
_CSV_DTYPE = np.dtype([("ts", "i8"), ("pol", "u1"), ("wl", "u1")])
_CSV_TAGS = {1: lambda cell: atom.POL_TAGS[cell.strip()],
             2: lambda cell: atom.WL_TAGS[cell.strip()]}
_POL_CELLS = np.array(list(atom.POL_NAMES.values()), dtype=object)
_WL_CELLS = np.array(list(atom.WL_NAMES.values()), dtype=object)


class StreamFormatError(ValueError):
    """The file is not a well-formed IONCLK1 or CSV click stream."""


def write_stream(path, stream: ClickStream) -> None:
    events = np.empty(len(stream), dtype=_EVENT_DTYPE)
    events["ts"] = stream.timestamps_ps
    events["pol"] = stream.pol
    events["wl"] = stream.wavelength
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, stream.channel, len(stream),
                              stream.duration_ps))
        fh.write(events.tobytes())


def read_stream(path) -> ClickStream:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise StreamFormatError(f"{path}: truncated header")
        magic, channel, count, duration_ps = _HEADER.unpack(head)
        if magic != MAGIC:
            raise StreamFormatError(f"{path}: bad magic {magic!r}")
        payload = fh.read()
    expected = count * _EVENT_DTYPE.itemsize
    if len(payload) != expected:
        raise StreamFormatError(
            f"{path}: payload is {len(payload)} bytes, header promises {expected}")
    events = np.frombuffer(payload, dtype=_EVENT_DTYPE)
    ts = events["ts"].astype(np.int64)
    try:
        return ClickStream(
            timestamps_ps=ts,
            pol=events["pol"].copy(),
            wavelength=events["wl"].copy(),
            duration_ps=int(duration_ps),
            channel=int(channel),
            meta={"path": str(path)})
    except ValueError as exc:
        raise StreamFormatError(f"{path}: {exc}") from None


def write_stream_csv(path, stream: ClickStream) -> None:
    cells = np.column_stack([stream.timestamps_ps.astype(object),
                             _POL_CELLS[stream.pol],
                             _WL_CELLS[stream.wavelength]])
    _write_csv(path, _CSV_HEADER, "%d,%s,%s\r\n", cells,
               {"channel": stream.channel,
                "duration_ps": stream.duration_ps})


def read_stream_csv(path) -> ClickStream:
    try:
        meta, header, rows = _read_csv(path, _CSV_DTYPE, _CSV_TAGS)
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected header {header}")
        last = int(rows["ts"][-1]) if len(rows) else 0
        return ClickStream(rows["ts"], rows["pol"], rows["wl"],
                           int(meta.get("duration_ps", last + 1)),
                           int(meta.get("channel", 0)), {"path": str(path)})
    except ValueError as exc:
        raise StreamFormatError(f"{path}: {exc}") from None


def load_stream(path) -> ClickStream:
    """Dispatch on suffix: .csv text mirror, anything else binary."""
    if str(path).endswith(".csv"):
        return read_stream_csv(path)
    return read_stream(path)


def save_stream(path, stream: ClickStream) -> None:
    """Mirror of load_stream, suffix picks the format."""
    if str(path).endswith(".csv"):
        write_stream_csv(path, stream)
    else:
        write_stream(path, stream)
