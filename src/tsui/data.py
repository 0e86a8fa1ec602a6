"""File formats and the input checks that every layer shares.

A noise-versus-weight scan (:class:`NoiseDataset`) and a theory curve
(:class:`CurveTable`) are written as CSV with ``# key = value`` metadata
lines and shortest round-trip floats, through one atomic writer.
:data:`RANGES` holds the accepted range of every bounded input, and
:func:`check_range` is the one check against it.  This module imports
no other tsui module, so any layer can use it.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "CurveTable",
    "MAX_CUTOFF",
    "MAX_GAIN",
    "NoiseDataset",
    "RANGES",
    "check_grid",
    "check_range",
    "format_csv",
    "format_float",
    "load_noise_csv",
    "write_atomic",
]

# Largest accepted amplifier intensity gain.  Four-wave-mixing and
# parametric amplifiers stay far below 1e3; the cap only keeps the model's
# products of two gains (G (G - 1) in sinh 2r, the G^2 of a photon-number
# variance) below the largest double, 1.8e308.
MAX_GAIN = 1e150

# Largest accepted Fock cutoff.  The moment path holds (cutoff + 1)^2 arrays
# and multiplies (cutoff + 1)-square matrices: at 400 a two-arm lossy
# bundle (G=1.67, alpha=5, eta 0.76/0.79) takes 0.10-0.14 s on 2 cores
# with a 17 MiB tracemalloc peak, and the cost grows as cutoff^3.
MAX_CUTOFF = 400

# The closed range [lo, hi] of every bounded input, by name; NaN lies in
# none.  Every layer checks its inputs against this table through
# check_range, and nowhere else.
RANGES = {
    "gain": (1.0, MAX_GAIN),
    "alpha": (0.0, math.sqrt(MAX_GAIN)),  # the seed rule's bound at G = 1
    # A phase readout's seed and probe transmission: its fringe slope
    # 2 sqrt(eta_p G) alpha, a divisor, stays far from 0.
    "alpha (bright seed)": (1.0 / math.sqrt(MAX_GAIN), math.sqrt(MAX_GAIN)),
    "eta_p (phase readout)": (1.0 / MAX_GAIN, 1.0),
    # A simulated record's samples are about sqrt(2 G) while its squeezed
    # readout is about 1 / sqrt(2 G): past 1e12 lossless, round-off in the
    # difference moves that reading by more than 1e-4 dB.
    "gain (simulated)": (1.0, 1e12),
    # The seed rule, on the amplified seed's photon number: with the gain
    # cap it keeps the probe's 4 Var(n) below 8 MAX_GAIN^2.
    "gain * alpha^2": (0.0, MAX_GAIN),
    # Transmissions, the joint readout's weight (an amplitude transmission),
    # and the simulator's tone depth and lock-jitter rms in radians.
    **dict.fromkeys(("eta", "eta_p", "eta_c", "lam", "tone_depth", "lock_jitter_rms"), (0.0, 1.0)),
    # A reading beyond 1000 dB (a power ratio of 1e100) or an uncertainty
    # outside [1e-6, 1000] dB describes no spectrum analyser; inside them
    # the fit's weights 1 / sigma^2 and their sum stay finite and nonzero.
    "noise_db": (-1e3, 1e3),
    "sigma_db": (1e-6, 1e3),
    # Shot-noise units: at most 1000 dB above, the top of the noise_db range.
    "electronic_noise_var": (0.0, 1e100),
    "loss_offset": (-0.2, 0.2),  # the fit's fixed eta_c - eta_p
    "cutoff": (1, MAX_CUTOFF),
}


def check_range(name: str, value) -> "float | np.ndarray":
    """``value`` as a float, or a float array, checked to lie in ``RANGES[name]``."""
    lo, hi = RANGES[name]
    values = np.asarray(value, dtype=float)
    # A scalar compares in Python, several times faster than numpy.
    if values.ndim == 0 and lo <= (scalar := float(values)) <= hi:
        return scalar
    bad = np.flatnonzero(~((values >= lo) & (values <= hi)))
    if bad.size:
        where = f" at index {bad[0]}" if values.ndim else ""
        got = float(values.flat[bad[0]])
        raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}], got {got!r}{where}")
    return values


def check_grid(name: str, grid) -> np.ndarray:
    """``grid`` as floats: 1-D, >= 2 points, increasing, each in ``RANGES[name]``."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError(f"{name} grid must be 1-D with at least 2 points")
    check_range(name, grid)
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError(f"{name} grid must be strictly increasing")
    return grid


def format_csv(comments, columns: Sequence[str], rows) -> str:
    """CSV text: a ``# key = value`` line per ``(key, value)`` pair in
    ``comments``, the header, then the float rows via :func:`format_float`."""
    lines = [f"# {key} = {value}" for key, value in comments]
    lines.append(",".join(columns))
    lines += [",".join(format_float(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def format_float(value: float) -> str:
    """Shortest decimal string that round-trips the float exactly."""
    return np.format_float_positional(value, unique=True, trim="0")


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and a rename.

    A failed write leaves neither ``path`` nor the temp file behind, and
    its ``OSError`` names ``path``.  The mode is 0o666 & ~umask, as
    ``open(path, "w")`` gives a new file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tsui-tmp-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


@dataclass
class CurveTable:
    """Column-oriented numeric table with provenance metadata.

    The first column is the abscissa and must be strictly increasing;
    all values must be finite.  Serializes to CSV (metadata as ``#``
    comment lines, full round-trip precision) and to JSON.
    """

    label: str
    columns: tuple[str, ...]
    rows: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.columns = tuple(str(c) for c in self.columns)
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(self.columns):
            raise ValueError(
                f"rows must be 2-D with {len(self.columns)} columns, "
                f"got shape {rows.shape}"
            )
        if rows.shape[0] < 1:
            raise ValueError("table must have at least one row")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("column names must be unique")
        if not np.all(np.isfinite(rows)):
            raise ValueError("table values must be finite")
        if np.any(np.diff(rows[:, 0]) <= 0.0):
            raise ValueError(f"abscissa {self.columns[0]!r} must be strictly increasing")
        self.rows = rows

    def csv_text(self) -> str:
        comments = [("label", self.label)] + sorted(self.meta.items())
        return format_csv(comments, self.columns, self.rows)

    def json_text(self) -> str:
        payload = {
            "label": self.label,
            "meta": self.meta,
            "columns": list(self.columns),
            "rows": [
                {c: float(v) for c, v in zip(self.columns, row)}
                for row in self.rows
            ],
        }
        return json.dumps(payload, indent=2) + "\n"

    def to_csv(self, path: str) -> None:
        write_atomic(path, self.csv_text())

    def to_json(self, path: str) -> None:
        write_atomic(path, self.json_text())


@dataclass
class NoiseDataset:
    """One noise-versus-weight scan with per-point uncertainties.

    Rows are sorted by weight on construction.  Duplicate weights are
    allowed (replicate measurements); fitting requires at least five
    distinct ones.
    """

    lam: np.ndarray
    noise_db: np.ndarray
    sigma_db: np.ndarray
    source: str = "measured"
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        lam = np.asarray(self.lam, dtype=float)
        noise = np.asarray(self.noise_db, dtype=float)
        sigma = np.asarray(self.sigma_db, dtype=float)
        if not (lam.shape == noise.shape == sigma.shape) or lam.ndim != 1:
            raise ValueError("lam, noise_db and sigma_db must be equal-length 1-D arrays")
        if lam.size < 5:
            raise ValueError(f"need at least 5 rows, got {lam.size}")
        for name, values in (("lam", lam), ("noise_db", noise), ("sigma_db", sigma)):
            check_range(name, values)
        order = np.argsort(lam, kind="stable")
        self.lam = lam[order]
        self.noise_db = noise[order]
        self.sigma_db = sigma[order]

    def __len__(self) -> int:
        return int(self.lam.size)

    def n_distinct(self) -> int:
        return int(np.unique(self.lam).size)

    def csv_text(self) -> str:
        comments = [("source", self.source)] + sorted(self.meta.items())
        rows = zip(self.lam, self.noise_db, self.sigma_db)
        return format_csv(comments, ("lambda", "noise_db", "sigma_db"), rows)

    def to_csv(self, path: str) -> None:
        write_atomic(path, self.csv_text())


def load_noise_csv(path: str) -> NoiseDataset:
    """Read a noise scan written by :meth:`NoiseDataset.to_csv`.

    Expects ``#`` metadata comments, a ``lambda,noise_db,sigma_db``
    header, and one float triple per row.  Malformed content raises
    ``ValueError`` naming the offending line.

    Args:
        path: CSV file to read.

    Returns:
        The parsed :class:`NoiseDataset`.
    """
    meta: dict = {}
    source = "measured"
    rows: list[tuple[float, float, float]] = []
    header_seen = False
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    key = key.strip()
                    value = value.strip()
                    if key == "source":
                        source = value
                    elif key:
                        meta[key] = value
                continue
            if not header_seen:
                names = [c.strip().lower() for c in line.split(",")]
                if names != ["lambda", "noise_db", "sigma_db"]:
                    raise ValueError(
                        f"{path}:{lineno}: expected header 'lambda,noise_db,sigma_db', "
                        f"got {line!r}"
                    )
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 columns, got {len(parts)}")
            try:
                rows.append(tuple(float(p) for p in parts))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: could not parse row {line!r}") from None
    if not header_seen:
        raise ValueError(f"{path}: missing 'lambda,noise_db,sigma_db' header")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.array(rows)
    return NoiseDataset(
        lam=data[:, 0], noise_db=data[:, 1], sigma_db=data[:, 2], source=source, meta=meta
    )
