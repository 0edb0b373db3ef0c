"""The CSV layout shared by tables and click streams: '# key = value'
meta lines, a csv header row, one record a line."""

import csv
import re
import warnings

import numpy as np


def write_csv(path, header: list[str], row: str, cells: np.ndarray,
              meta: dict | None = None) -> None:
    """Meta by key, the header, then the body as one `row` % call per
    record of the 2-D `cells`: "%.10g" % v == f"{v:.10g}"."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key in sorted(meta or {}):
            fh.write(f"# {key} = {meta[key]}\n")
        csv.writer(fh).writerow(header)
        fh.write(row * len(cells) % tuple(np.ravel(cells).tolist()))


def read_csv(path, dtype=None, convert=None):
    """(meta, header, records): meta from the '#' lines before the
    header, records by np.loadtxt into `dtype`, by default a float per
    header cell, then through `convert` if given.  The body is parsed
    from the path by numpy's chunked reader, skipping every line through
    the header (blank ones counted) and any later blank or '#' line; a
    body that this parse rejects is parsed again from its stripped
    non-blank lines, which a hand-edited file may need (whitespace-only
    lines, padded rows).  A row that this second parse or `convert`
    rejects (with a ValueError saying "at row i") is reported by its
    line number in the file; the caller names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        meta, header, skip = _head(fh)
        if dtype is None:
            dtype = [(f"c{j}", "f8") for j in range(len(header))]

        def parse(rows, skiprows=0):
            records = np.loadtxt(rows, dtype=dtype, delimiter=",",
                                 quotechar='"', comments="#", ndmin=1,
                                 skiprows=skiprows, encoding="utf-8")
            return records if convert is None else convert(records)

        with warnings.catch_warnings():   # no rows: empty, not a warning
            warnings.simplefilter("ignore", UserWarning)
            try:
                return meta, header, parse(path, skip)
            except ValueError:
                fh.seek(0)
                _head(fh)
            try:
                records = parse(filter(None, map(str.strip, fh)))
            except ValueError as exc:
                text = str(exc).split("; use `usecols`")[0]
                bad = _first_bad_line(path, parse)
                raise ValueError(re.sub(r"at row \d+", f"at line {bad}",
                                        text)) from None
    return meta, header, records


def _head(lines) -> tuple[dict[str, str], list[str], int]:
    """Meta, header cells and the number of lines taken, the header row
    being the last of them; blank lines are skipped but counted."""
    meta: dict[str, str] = {}
    for count, line in enumerate(map(str.strip, lines), 1):
        if not line:
            continue
        if not line.startswith("#"):
            return meta, next(csv.reader([line])), count
        key, eq, val = line[1:].partition("=")
        if eq:
            meta[key.strip()] = val.strip()
    raise ValueError("no header row")


def _first_bad_line(path, parse) -> int:
    """File line number of the first body row that `parse` rejects; rows
    fail on their own, so halving the body finds it in about one parse."""
    with open(path, "r", encoding="utf-8") as fh:
        body = [(n, s) for n, line in enumerate(fh, 1) if (s := line.strip())]
    body = body[1 + next(i for i, (_, s) in enumerate(body) if s[0] != "#"):]
    while len(body) > 1:
        half = body[:len(body) // 2]
        try:
            parse([s for _, s in half])
            body = body[len(half):]
        except ValueError:
            body = half
    return body[0][0]
