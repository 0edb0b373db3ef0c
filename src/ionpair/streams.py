"""Binary and CSV serialization of click streams.

IONCLK1 layout, little-endian throughout:

    header:  7s  magic   b"IONCLK1"
             u32 channel id
             u64 event count
             u64 duration in picoseconds
    events:  u64 timestamp_ps, u8 polarization, u8 wavelength
             (packed, 10 bytes per event)

Polarization codes 0/1/2 = sigma-/pi/sigma+; wavelength 0/1 = 397/866 nm.
The CSV mirror holds the same fields as text in the _csvcodec layout
of the tables: channel and duration_ps as '# key = value' lines before
the header, then one row per event with the tags by name.
"""

from __future__ import annotations

import struct

import numpy as np

from . import atom
from ._csvcodec import read_csv, write_csv
from .trajectory import ClickStream

MAGIC = b"IONCLK1"
_HEADER = struct.Struct("<7sIQQ")
_EVENT_DTYPE = np.dtype([("ts", "<u8"), ("pol", "u1"), ("wl", "u1")])

_CSV_HEADER = ["timestamp_ps", "pol", "wavelength"]
# the tags are read as padded byte strings; np.loadtxt cuts a longer cell
# to the width silently, so a cell that fills it is never a tag
_TAG_WIDTH = 16
_CSV_DTYPE = np.dtype([("ts", "i8"), ("pol", f"S{_TAG_WIDTH}"),
                       ("wl", f"S{_TAG_WIDTH}")])
# field -> (file column, tag names in sorted order, their codes, and the
# names as the first of a cell's two uint64 words: each fits in 8 bytes,
# so the second word of a cell that equals a tag is 0)
_CSV_TAGS = {field: (column, np.array(sorted(tags), dtype="S"),
                     np.array([tags[k] for k in sorted(tags)], dtype=np.uint8),
                     np.array(sorted(tags), dtype="S8").view(np.uint64))
             for field, column, tags in (("pol", 2, atom.POL_TAGS),
                                         ("wl", 3, atom.WL_TAGS))}
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
    write_csv(path, _CSV_HEADER, "%d,%s,%s\r\n", cells,
              {"channel": stream.channel,
               "duration_ps": stream.duration_ps})


def _tag_codes(rows: np.ndarray) -> dict[str, np.ndarray]:
    """The pol and wavelength cells of the parsed rows as uint8 codes, by
    field; a cell that names no tag is a ValueError at its row.  A cell
    that equals a tag byte for byte maps by a compare of its two words;
    only the other cells are stripped and searched."""
    codes = {"ts": rows["ts"]}
    for field, (column, names, values, words) in _CSV_TAGS.items():
        cells = rows[field]
        cell_words = cells.view(np.dtype((np.uint64, 2)))
        first = cell_words[:, 0].copy()
        code = np.zeros(cells.size, dtype=np.uint8)
        exact = np.zeros(cells.size, dtype=bool)
        for word, value in zip(words, values):
            hit = first == word
            code += hit * value
            exact |= hit
        rest = np.flatnonzero(~exact | (cell_words[:, 1] != 0))
        if rest.size:
            odd = cells[rest]
            stripped = np.char.strip(odd)
            at = np.searchsorted(names, stripped).clip(max=names.size - 1)
            bad = (names[at] != stripped) | (np.char.str_len(odd)
                                             >= _TAG_WIDTH)
            if bad.any():
                i = int(rest[np.argmax(bad)])
                raise ValueError(
                    f"could not convert string {cells[i].decode('latin-1')!r} "
                    f"to uint8 at row {i + 1}, column {column}.")
            code[rest] = values[at]
        codes[field] = code
    return codes


def read_stream_csv(path) -> ClickStream:
    try:
        meta, header, rows = read_csv(path, _CSV_DTYPE, _tag_codes)
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected header {header}")
        last = int(rows["ts"][-1]) if rows["ts"].size else 0
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
