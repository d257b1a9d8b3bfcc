"""The text readers as they were before they shared one line reader, kept
verbatim (apart from their names) as references for the current ones:
read_pmf_csv over csv with a per-character bits parser, read_samples_csv
with one int() per entry, and the CLI's pmf sniff.  The vector reader's
reference is test_graph.reference_read_vector.
"""

import csv
from typing import Optional

import numpy as np

from begin import Pmf
from begin.bitgroup import WIDTH_CAP


def reference_parse_bits(text: str) -> tuple[int, int]:
    """Bit pattern from a {+,-} or {0,1} string; returns (cell, width)."""
    cell = 0
    for ch in text:
        if ch in "+0":
            cell = cell << 1
        elif ch in "-1":
            cell = (cell << 1) | 1
        else:
            raise ValueError(f"bad bits string {text!r}")
    if not text:
        raise ValueError("empty bits string")
    return cell, len(text)


def reference_read_pmf_csv(path: str) -> Pmf:
    """Load the pmf CSV format; missing cells mean probability zero.

    A table whose sum lies within 1e-9 of 1 but not within 1e-12 is rescaled
    to sum to 1, and meta["renormalised_from"] records repr of its sum.
    """
    meta: dict = {}
    rows: list[tuple[int, float]] = []
    width: Optional[int] = None
    with open(path, newline="") as fh:
        reader = csv.reader(line for line in fh if line.strip())
        for row in reader:
            if row[0].lstrip().startswith("#"):
                text = ",".join(row).lstrip()[1:].strip()
                if ":" in text:
                    key, _, val = text.partition(":")
                    meta[key.strip()] = val.strip()
                continue
            if row[0] == "bits":
                continue
            if len(row) != 2:
                raise ValueError(f"malformed pmf row: {row!r}")
            cell, w = reference_parse_bits(row[0].strip())
            if width is None:
                if w > WIDTH_CAP:
                    raise ValueError(f"{w}-bit cells exceed the {WIDTH_CAP}-bit cap")
                width = w
            elif w != width:
                raise ValueError(f"inconsistent bits width in {row!r}")
            rows.append((cell, float(row[1])))
    if width is None:
        raise ValueError("pmf file has no data rows")
    probs = np.zeros(1 << width)
    seen = set()
    for cell, prob in rows:
        if cell in seen:
            raise ValueError(f"duplicate cell {cell:0{width}b}")
        seen.add(cell)
        probs[cell] = prob
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"pmf file sums to {total!r}")
    if abs(total - 1.0) > 1e-12:
        probs = probs / total
        meta["renormalised_from"] = repr(float(total))
    return Pmf(width, probs, meta=meta)


def reference_read_samples_csv(path: str) -> np.ndarray:
    """Load a +-1 sample matrix; malformed entries raise."""
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([int(v) for v in line.split(",")])
    if not rows:
        raise ValueError("sample file has no rows")
    arr = np.array(rows, dtype=np.int64)
    if arr.ndim != 2 or not np.isin(arr, (-1, 1)).all():
        raise ValueError("sample entries must be +1 or -1")
    return arr


def reference_sniff_pmf_file(path: str) -> bool:
    """True when the CSV is a pmf table (bits,prob header), else samples."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            return line.replace(" ", "").startswith("bits,prob")
    raise ValueError(f"{path} has no data lines")
