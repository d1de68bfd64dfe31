"""Loading observed series from text files and exporting diagnostics.

The on-disk format is one observation per line with ``d`` finite
numeric columns, whitespace- or comma-separated.  Multi-sequence files carry a
leading integer sequence-id column followed by ``d`` value columns
(a non-integral id is a ``DataError``); rows are grouped by id in
order of appearance.  Angle layouts hold one angle per line, in
degrees or radians, and are converted to radians in [0, 2*pi) on
load.  Every layout reads exactly ``d`` value columns.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimator import OrderEstimate
from .series import CIRCULAR, LINEAR, ObservedSeries

COLUMNS = "columns"
ANGLES_DEGREES = "deg"
ANGLES_RADIANS = "rad"
MULTI_SEQUENCE = "multiseq"

LAYOUTS = (COLUMNS, ANGLES_DEGREES, ANGLES_RADIANS, MULTI_SEQUENCE)


class DataError(ValueError):
    """A data file could not be parsed."""


@dataclass(frozen=True)
class DatasetDescriptor:
    """Where and how to read a series."""

    path: str | Path
    layout: str = COLUMNS
    dim: int = 1
    stride: int = 1

    def __post_init__(self):
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}; expected one of {LAYOUTS}")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.layout in (ANGLES_DEGREES, ANGLES_RADIANS) and self.dim != 1:
            raise ValueError(f"angle layouts are univariate, got dim={self.dim}")


def _parse_rows(path: Path) -> list:
    """Numeric rows with their 1-based line numbers; a field that is not
    a finite number is a ``DataError`` naming its line."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read: {exc}") from None
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        fields = stripped.replace(",", " ").split()
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric field in {stripped!r}") from None
        if not all(map(math.isfinite, values)):
            raise DataError(f"{path}:{lineno}: non-finite field in {stripped!r}")
        rows.append((lineno, values))
    if not rows:
        raise DataError(f"{path}: file contains no data rows")
    return rows


def load_series(desc: DatasetDescriptor) -> ObservedSeries:
    """Read a series according to its descriptor.

    The subsampling stride is applied per sequence before pairing, so a
    stride of k keeps every k-th observation and pairs are formed among
    the kept points.
    """
    path = Path(desc.path)
    if not path.exists():
        raise DataError(f"{path}: no such file")
    rows = _parse_rows(path)

    if desc.layout == MULTI_SEQUENCE:
        width = len(rows[0][1])
        if width != desc.dim + 1:
            raise DataError(
                f"{path}:{rows[0][0]}: multi-sequence rows need an id column and "
                f"{desc.dim} value columns, found {width} fields"
            )
        groups: dict[int, list] = {}
        order = []
        for lineno, fields in rows:
            if len(fields) != width:
                raise DataError(
                    f"{path}:{lineno}: expected {width} fields, found {len(fields)}"
                )
            if not float(fields[0]).is_integer():
                raise DataError(f"{path}:{lineno}: sequence id {fields[0]!r} is not an integer")
            seq_id = int(fields[0])
            if seq_id not in groups:
                groups[seq_id] = []
                order.append(seq_id)
            groups[seq_id].append(fields[1:])
        sequences = []
        for seq_id in order:
            arr = np.asarray(groups[seq_id], dtype=float)[:: desc.stride]
            if arr.shape[0] < 2:
                raise DataError(
                    f"{path}: sequence {seq_id} has fewer than 2 observations after stride"
                )
            sequences.append(arr)
        return ObservedSeries(sequences=tuple(sequences), kind=LINEAR)

    width = len(rows[0][1])
    for lineno, fields in rows:
        if len(fields) != width:
            raise DataError(f"{path}:{lineno}: expected {width} fields, found {len(fields)}")
    data = np.asarray([fields for _, fields in rows], dtype=float)[:: desc.stride]
    if data.shape[0] < 2:
        raise DataError(f"{path}: fewer than 2 observations after stride")

    if desc.layout == COLUMNS:
        if width != desc.dim:
            raise DataError(f"{path}: expected {desc.dim} columns, found {width}")
        return ObservedSeries.from_points(data, kind=LINEAR)

    if width != 1:
        raise DataError(f"{path}: angle layouts expect a single column, found {width}")
    angles = data[:, 0]
    if desc.layout == ANGLES_DEGREES:
        if np.any((angles < 0) | (angles >= 360)):
            bad = int(np.argwhere((angles < 0) | (angles >= 360))[0][0])
            raise DataError(f"{path}: angle out of [0, 360) range at data row {bad + 1}")
        angles = np.deg2rad(angles)
    return ObservedSeries.from_points(angles, kind=CIRCULAR)


def save_series(series: ObservedSeries, path) -> None:
    """Write a series in the loadable text format.

    Values are printed with 17 significant digits so linear data round
    trip bit-exactly.  Multi-sequence series gain a leading id column.
    """
    path = Path(path)
    lines = []
    multi = series.n_sequences > 1
    for seq_id, seq in enumerate(series.sequences, start=1):
        for row in seq:
            fields = [f"{v:.17g}" for v in row]
            if multi:
                fields.insert(0, str(seq_id))
            lines.append(" ".join(fields))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def export_diagnostics(estimate: OrderEstimate, path) -> None:
    """Write the tail statistics behind an estimate as CSV.

    Columns: ell, r_ell, tau, exceeds (0/1, strict comparison); one row
    per inspected index.
    """
    path = Path(path)
    tau = float(estimate.tau)
    lines = ["ell,r_ell,tau,exceeds"]
    for ell, r in enumerate(estimate.r_values, start=1):
        lines.append(f"{ell},{float(r)!r},{tau!r},{1 if r > tau else 0}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
