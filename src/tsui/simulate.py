"""Time-domain emulation of the homodyne records and the scan's readout.

The scan (:func:`measure_noise_vs_lambda`) reads the band power of the
weighted probe/conjugate pair the way a spectrum analyzer would: a Welch
estimator (Welch, IEEE Trans. Audio Electroacoust. 15, 70 (1967)) over
zero-overlap Hann segments, normalized so that unit-variance white noise
sits at 0 dB.  The arms' noise comes from the model's closed-form
coefficients (V_p, V_c, C) (:func:`tsui.metrology.joint_variance_quadratic`),
optionally with a calibration phase tone on the probe, slow homodyne-lock
jitter, and white electronic noise.

A scan draws band spectra, not samples: within a jitter block the arms
are white Gaussian noise, so the in-band spectra of a segment, or of its
part in one block, are N(mean, S x G), with S the arms' 2 x 2 covariance
and G the Gram matrix of the part's in-band DFT rows.  Reads and Grams
alike come from one set of windowed rows (:func:`_rows`), at any segment
length.  Nor are the spectra built: a segment's band sums are fixed
quadratic forms in the inner products of its drawn noise rows and its
reads (:func:`_segment_sums`).  A trial takes them in one pass per draw
group: one product per chunk of segments gives every noise row and read
projection as a contiguous vector over the chunk's segments, and the
forms are written out on those vectors' column dots.

What a scan draws from depends on no seed, trial, model parameter or
noise level: the band's basis, the parts that jitter-block edges cut
segments into, each part's factor and map, and the reads' Gram.  That is
the scan's plan (:func:`_plan`), a pure function of the record length,
sample rate, band, block length and tone step.  The latest plan is held, read-only,
until a scan at another setting replaces it, so scans over seeds or
trials at one setting build it once and a trial does only its draw, into
one buffer held per thread (at most 1 MiB without cuts).

:func:`simulate_records` draws the same arms as samples; no scan reads
them, and it stays as the time-domain reference the scan is checked
against.  Determinism: a record or a scan trial is a pure function of
``(config, trial)``.  Random draws always happen in the same order (block
jitter phases, then the normals, then a record's white electronic noise
for probe and conjugate), so identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, fields

import numpy as np

from .data import NoiseDataset, check_grid, check_range
from .gaussian import InterferometerParams
from .metrology import fringe_slope, joint_variance, joint_variance_quadratic

__all__ = [
    "MeasurementRecord",
    "SimConfig",
    "load_sim_config",
    "measure_noise_vs_lambda",
    "simulate_records",
]

# Welch bins per resolution bandwidth; 8 keeps a band average honest
# while leaving hundreds of segments in a default-length record.
_BINS_PER_RBW = 8

# Most samples drawn or read at once: a record's runs, and the rows a
# plan reads through at once.  Also the most basis rows a plan holds
# (144 B each at 9 band bins), for as long as it is the latest plan.
_CHUNK = 2**13

# Most numbers in one array of a scan trial's buffer: a chunk of a draw
# group's normals, or the products they map to, so a plan's chunks hold
# _RUN / (2 M) segments for M noise-row and read columns (1,927 at the
# default band, whose 1,638 segments then take one chunk).  The buffer
# holds one chunk's normals and products, at most 2 _RUN numbers (1 MiB)
# without cuts, and a cut's folded normals besides: 2 numbers per segment
# of the cut group for each row of its parts' factors (64 at the default
# band).  It is held per thread at the largest size a scan has asked for
# (:func:`_buffer`).  One made per scan was mapped afresh each time, and
# freeing it raised glibc's mmap threshold: perfbench's reference job
# (FFTs and sorts of 2^16 numbers) then took 7,040 page faults against
# 4,736 after each op.
_RUN = 2**16

# Input caps: the longest record is 8x the default length (2 x 64 MiB
# from simulate_records; a scan draws no samples and holds one trial's
# band sums, 0.3 MiB at 2^23 samples.  Its buffer and its plan stay held
# after it: the buffer 1 MiB there, 3.1 MiB when 960-sample jitter blocks
# cut every other segment at one place; the plan 0.4 MiB, 6.2 MiB with
# 641-sample jitter blocks that cut at 639 places, 37 MiB at most, with a
# tone and 2,897-sample blocks that cut each of 2,896 segments at its own
# place), and a scan takes at most 1000 trials.
_MIN_SAMPLES = 2**14
_MAX_SAMPLES = 2**23
_MAX_TRIALS = 1000


def _is_int(value) -> bool:
    # bool is a subclass of int, but True is no seed or count.
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimConfig:
    """Acquisition settings for one simulated homodyne run.

    Attributes:
        params: amplifier and transmission settings.
        sample_rate: detector sampling rate in Hz.
        duration: record length in seconds (2^14 to 2^23 samples).
        tone_freq: frequency of the phase calibration tone, Hz.  For
            exact band capture keep it on the analysis-bin grid
            (multiples of rbw / 8 for the default estimator).
        tone_depth: amplitude of the applied phase modulation in
            radians; 0 disables the tone.
        lock_jitter_rms: rms of the slow homodyne-lock phase error in
            radians; 0 disables jitter.
        electronic_noise_var: white detector noise variance in
            shot-noise units, added independently per detector.
        rng_seed: base seed; combined with the trial index.
        jitter_block: correlation time of the lock error in seconds, one
            phase error per block; a scan needs a Welch segment or more.
    """

    params: InterferometerParams
    sample_rate: float = 8e6
    duration: float = 2**20 / 8e6
    tone_freq: float = 1e6
    tone_depth: float = 0.0
    lock_jitter_rms: float = 0.0
    electronic_noise_var: float = 0.0
    rng_seed: int = 0
    jitter_block: float = 1e-3

    def __post_init__(self) -> None:
        if not isinstance(self.params, InterferometerParams):
            raise ValueError("params must be an InterferometerParams")
        check_range("gain (simulated)", self.params.gain)
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0.0):
            raise ValueError(f"sample_rate must be > 0, got {self.sample_rate!r}")
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ValueError(f"duration must be > 0, got {self.duration!r}")
        if self.n_samples < _MIN_SAMPLES:
            raise ValueError(
                f"record too short for spectral estimates: {self.n_samples} "
                f"samples, need >= {_MIN_SAMPLES}"
            )
        if self.n_samples > _MAX_SAMPLES:
            raise ValueError(
                f"record too long: {self.duration * self.sample_rate:.6g} samples > {_MAX_SAMPLES}"
            )
        if not 0.0 < self.tone_freq < self.sample_rate / 2.0:
            raise ValueError("tone_freq must lie in (0, sample_rate / 2)")
        for name in ("tone_depth", "lock_jitter_rms", "electronic_noise_var"):
            check_range(name, getattr(self, name))
        if not _is_int(self.rng_seed) or self.rng_seed < 0:
            raise ValueError(f"rng_seed must be a nonnegative int, got {self.rng_seed!r}")
        if not (math.isfinite(self.jitter_block) and self.jitter_block > 0.0):
            raise ValueError("jitter_block must be > 0")
        if self.jitter_block * self.sample_rate <= 0.5:  # rounds to 0 samples
            raise ValueError("jitter_block is shorter than one sample")

    @property
    def n_samples(self) -> int:
        # min: round() cannot make an int of an infinite product.
        return int(round(min(self.duration * self.sample_rate, 2.0 * _MAX_SAMPLES)))


@dataclass(frozen=True)
class MeasurementRecord:
    """Sampled phase-quadrature voltages of both detectors."""

    probe: np.ndarray
    conjugate: np.ndarray
    config: SimConfig
    trial: int = 0


def _runs(lo: int, hi: int, step: int) -> list[tuple[int, int]]:
    """``(start, stop)`` runs of at most ``step`` samples tiling ``[lo, hi)``."""
    return [(a, min(a + step, hi)) for a in range(lo, hi, step)]


def _model(p: InterferometerParams) -> tuple[float, ...]:
    """(V_p, V_c, C), r = (V_p V_c - C^2) / V_p, each arm's carrier
    2 sqrt(eta G) alpha, which lock jitter leaks in, and Var(P + C)."""
    v_p, v_c, cross = joint_variance_quadratic(p.gain, p.eta_p, p.eta_c)
    # r as the arms-swapped variance at its vertex, and Var(P + C): sums of
    # nonnegative terms, where the differences would lose every digit.
    rest = float(joint_variance(p.gain, p.eta_c, p.eta_p, -cross / v_p))
    v_sum = float(joint_variance(p.gain, p.eta_p, p.eta_c, 1.0))
    carrier_c = 2.0 * math.sqrt(p.eta_c * (p.gain - 1.0)) * p.alpha
    carrier_p = float(fringe_slope(p.gain, p.eta_p, p.alpha))
    return v_p, v_c, cross, rest, carrier_p, carrier_c, v_sum


def _block_samples(config: SimConfig) -> int:
    """Samples per lock-jitter block; without jitter the record is one block."""
    if config.lock_jitter_rms == 0.0:
        return config.n_samples
    # min: round() cannot make an int of an infinite product.
    return int(round(min(config.jitter_block * config.sample_rate, config.n_samples)))


def _phases(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Each jitter block's phase errors (e_p, e_c), a record's first draw.
    Without jitter the record is one block at zero phase, which is exact
    (sin 0 = 0, cos 0 = 1) and draws nothing."""
    if config.lock_jitter_rms == 0.0:
        return np.zeros((1, 2))
    n_blocks = -(-config.n_samples // _block_samples(config))
    return rng.normal(0.0, config.lock_jitter_rms, size=(n_blocks, 2))


def simulate_records(config: SimConfig, trial: int = 0) -> MeasurementRecord:
    """Generate one pair of synchronized detector records.

    No scan or command reads records.  They stay as the time-domain
    reference: tests check the scan against their rfft readout in
    distribution, and the perfbench tracer times and sizes them.

    The two phase quadratures are a correlated Gaussian pair, drawn
    through the closed-form Cholesky factor of their covariance (its
    corner a sum of nonnegative terms, so it holds up to the gain cap).
    With lock jitter, each arm's quadrature rotates by a block-constant
    phase (e_p, e_c): the covariance becomes [[V_p, C cos s], [C cos s,
    V_c]] with s = e_p + e_c, and each arm's carrier 2 sqrt(eta G) alpha
    leaks in as an offset times sin e.  Each block's terms are spread
    over its samples as arrays: time linear in samples for any block
    length.  The calibration tone enters only the probe, with amplitude
    2 sqrt(eta_p G) alpha tone_depth.  White electronic noise is drawn
    last, the probe's samples then the conjugate's.

    Args:
        config: acquisition settings.
        trial: index of the acquisition; seeds the generator together
            with ``config.rng_seed``.

    Returns:
        A :class:`MeasurementRecord` with ``n_samples`` points per arm.
    """
    if not _is_int(trial) or trial < 0:
        raise ValueError(f"trial must be a nonnegative int, got {trial!r}")
    rng = np.random.default_rng([config.rng_seed, trial])
    v_p, _, cross, rest, carrier, carrier_c, _ = _model(config.params)
    block, phases = _block_samples(config), _phases(config, rng)
    omega, depth = 2.0 * math.pi * config.tone_freq, carrier * config.tone_depth
    out = np.empty((2, config.n_samples))
    root_vp = math.sqrt(v_p)
    # Terms of blocks start, start + 1, ..., up to _CHUNK + 1 (any run's) at a time.
    start, terms = 0, np.empty((5, 0))
    # The normals _CHUNK pairs at a time, in the order of one whole draw.
    for lo, hi in _runs(0, out.shape[1], _CHUNK):
        n_p, n_c = rng.standard_normal((hi - lo, 2)).T
        first, last = lo // block, (hi - 1) // block
        if last >= start + terms.shape[1]:
            # Per block: the lower entries (l_2, l_3) of the Cholesky factor
            # [[sqrt(V_p), 0], [l_2, l_3]] of the rotated quadratures'
            # covariance [[V_p, C cos s], [C cos s, V_c]], s = e_p + e_c,
            # each arm's offset, and the tone amplitude.
            e_p, e_c = phases[first : first + _CHUNK + 1].T
            start, terms = first, np.array([
                cross * np.cos(e_p + e_c) / root_vp,
                np.sqrt(rest + (cross * np.sin(e_p + e_c)) ** 2 / v_p),
                carrier * np.sin(e_p),
                carrier_c * np.sin(e_c),
                depth * np.cos(e_p),
            ])
        run = terms[:, first - start : last + 1 - start]
        if last > first:  # spread each block's terms over its samples
            edges = np.clip(np.arange(first, last + 2) * block, lo, hi)
            run = np.repeat(run, np.diff(edges), axis=1)
        l_2, l_3, offset_p, offset_c, tone = run
        probe, conj = out[:, lo:hi]
        np.multiply(n_p, root_vp, out=probe)
        probe += offset_p
        np.multiply(n_p, l_2, out=conj)
        conj += n_c * l_3
        conj += offset_c
        if config.tone_depth > 0.0:
            probe += tone * np.sin(omega * (np.arange(lo, hi) / config.sample_rate))
    if config.electronic_noise_var > 0.0:
        noise = rng.standard_normal(out.shape)
        noise *= math.sqrt(config.electronic_noise_var)
        out += noise
    probe, conj = out
    probe.flags.writeable = False
    conj.flags.writeable = False
    return MeasurementRecord(probe=probe, conjugate=conj, config=config, trial=trial)


def _hann(offsets: np.ndarray, nperseg: int) -> np.ndarray:
    # np.hanning(nperseg)[offsets] by its own formula, without the
    # segment-length array.
    return 0.5 + 0.5 * np.cos(np.pi * (2 * offsets + 1 - nperseg) / (nperseg - 1))


@dataclass(frozen=True)
class _Band:
    """Welch readout of one band: Hann-windowed, zero-overlap segments of
    ``nperseg`` samples, bin spacing rbw / 8, the ``bins`` within rbw / 2
    of the center.  Row t of ``basis`` holds [cos | -sin] of each bin at
    segment position t, for the first min(``nperseg``, ``_CHUNK``)
    positions; :func:`_rows` windows them, scales them by ``scale``, the
    readout's normalization, and turns them to any run of positions.
    """

    nperseg: int
    n_seg: int
    bins: np.ndarray
    basis: np.ndarray
    scale: float


def _band(n_samples: int, sample_rate: float, center_freq: float, rbw: float) -> _Band:
    """Check the band against a record of ``n_samples`` and build its basis."""
    if not (0.0 < rbw < math.inf and 0.0 < sample_rate < math.inf):
        raise ValueError("rbw and sample_rate must be finite and > 0")
    if not rbw / 2.0 < center_freq < sample_rate / 2.0 - rbw / 2.0:
        raise ValueError("analysis band must lie strictly inside (0, sample_rate / 2)")
    segment = _BINS_PER_RBW * sample_rate / rbw
    # min: an rbw near 0 gives a segment that round() cannot make an int.
    nperseg = int(round(min(segment, 2.0 * n_samples)))
    if n_samples < nperseg:
        raise ValueError(
            f"series too short: {n_samples} samples, need >= {segment:.6g} "
            "for the requested resolution bandwidth"
        )
    # The band's entries of np.fft.rfftfreq(nperseg, 1 / sample_rate),
    # by its own formula, from the few bins around the band.
    df = 1.0 / (nperseg * (1.0 / sample_rate))
    k = np.arange(
        max(math.floor((center_freq - rbw / 2.0) / df) - 1, 0),
        min(math.ceil((center_freq + rbw / 2.0) / df) + 1, nperseg // 2) + 1,
    )
    bins = k[np.abs(k * df - center_freq) <= rbw / 2.0]
    if bins.size == 0:
        raise ValueError("no analysis bins fall inside the requested band")
    t = np.arange(min(nperseg, _CHUNK))
    # (t k) mod nperseg is exact, so every angle stays below 2 pi.
    angle = (2.0 * math.pi / nperseg) * (np.outer(t, bins) % nperseg)
    # One-sided PSD 2|X|^2 / (fs W) integrated over the band (times df),
    # over the white-noise reference 2 n_bins df / fs: |X|^2 / (W n_bins),
    # where the squared Hann window sums to W = 3 (nperseg - 1) / 8.
    scale = 1.0 / math.sqrt(3.0 * (nperseg - 1) / 8.0 * bins.size)
    basis = np.hstack([np.cos(angle), -np.sin(angle)])
    return _Band(nperseg, n_samples // nperseg, bins, basis, scale)


def _twiddle(band: _Band, x: np.ndarray, offset: int) -> np.ndarray:
    """Turn [cos | -sin] columns from segment position 0 to ``offset``:
    exp(-2 pi i k offset / n) per bin, as one product with a block
    rotation, exact at offset 0."""
    phi = (2.0 * math.pi / band.nperseg) * ((band.bins * offset) % band.nperseg)
    cos, sin = np.diag(np.cos(phi)), np.diag(np.sin(phi))
    return x @ np.block([[cos, -sin], [sin, cos]])


def _rows(band: _Band, lo: int, hi: int) -> np.ndarray:
    """The readout's rows (hi - lo, 2 n_bins) at segment positions
    [lo, hi), hi - lo <= ``_CHUNK``: the basis times ``scale`` and the
    Hann window, turned to lo.  A run's samples read through them give its
    share of the segment's band spectra, and their Gram its share of G."""
    rows = _twiddle(band, band.basis[: hi - lo], lo)
    rows *= band.scale * _hann(np.arange(lo, hi), band.nperseg)[:, np.newaxis]
    return rows


def _pieces(band: _Band, edges: list[int], tone_step: float | None) -> tuple:
    """Gram matrices and reads of the segment positions between consecutive
    ``edges``, in one pass over their rows (:func:`_rows`).  The reads are
    the rows read against 1, cos(tone_step t) and sin(tone_step t): a unit
    offset's and the tone's two quadratures' band spectra.  Without a tone
    (``tone_step`` None) the last two are 0, and no cos or sin is taken."""
    m = band.basis.shape[1]
    gram, reads = np.zeros((len(edges) - 1, m, m)), np.zeros((len(edges) - 1, 3, m))
    for i, (s0, s1) in enumerate(zip(edges, edges[1:])):
        for lo, hi in _runs(s0, s1, _CHUNK):
            rows, waves = _rows(band, lo, hi), np.zeros((3, hi - lo))
            waves[0] = 1.0
            if tone_step is not None:
                angle = tone_step * np.arange(lo, hi)
                waves[1], waves[2] = np.cos(angle), np.sin(angle)
            # Three rows either way: the unit read sums in the same order.
            reads[i] += waves @ rows
            gram[i] += rows.T @ rows
    return gram, reads


def _factor(gram: np.ndarray) -> np.ndarray:
    """Upper-triangular F with a nonnegative diagonal and F^T F = ``gram``,
    through a QR of sqrt(Lambda) V^T: the Cholesky factor's transpose where
    the Gram has full rank, one row per kept eigenvalue where a short
    part's has not, and unmoved by degenerate eigenvalue pairs."""
    lam, vec = np.linalg.eigh(gram)
    keep = lam > lam[-1] * len(gram) * np.finfo(float).eps
    r = np.linalg.qr(np.sqrt(lam[keep, np.newaxis]) * vec[:, keep].T, mode="r")
    return np.where(np.diag(r)[:, np.newaxis] < 0.0, -r, r)


def _layout(band: _Band, block: int, tone_step: float | None) -> list:
    """A scan's layout groups ``(F, reads, segments, blocks, tone phases, part)``.

    With blocks of at least a segment, a segment lies in one block or is
    cut once, at c, into [0, c) and [c, n).  Whole segments come first
    (part 0), then each cut in ascending order, [0, c) (part 1) just
    before [c, n) (part 2).  F factors the Gram of a part's rows, summed
    from the pieces between cuts in one pass: a whole segment's Gram and
    reads are the sums over all its pieces.  A segment's tone phase is
    ``tone_step`` times its start, 0 without a tone (None)."""
    n = band.nperseg
    start = n * np.arange(band.n_seg)
    first = start // block
    cut = (first + 1) * block - start  # the next block edge
    cuts = sorted(set(cut[cut < n].tolist()))  # np.unique would import numpy.ma
    gram, reads = _pieces(band, [0, *cuts, n], tone_step)
    # [0, c_k) sums the pieces before cut k, [c_k, n) those after it, and
    # the whole segment all of them.
    head, head_reads = np.cumsum(gram, axis=0), np.cumsum(reads, axis=0)
    whole = np.flatnonzero(cut >= n)
    groups = [(head[-1], head_reads[-1], whole, first[whole], 0)]
    tail, tail_reads = np.cumsum(gram[::-1], axis=0)[::-1], np.cumsum(reads[::-1], axis=0)[::-1]
    for k, c in enumerate(cuts):
        segments = np.flatnonzero(cut == c)
        groups += [(head[k], head_reads[k], segments, first[segments], 1)]
        groups += [(tail[k + 1], tail_reads[k + 1], segments, first[segments] + 1, 2)]
    step = 0.0 if tone_step is None else tone_step
    return [
        (_factor(g), r, segments, blocks, step * start[segments], part)
        for g, r, segments, blocks, part in groups
        if segments.size
    ]


@dataclass(frozen=True)
class _Plan:
    """What a scan draws from that no seed, trial or model changes: its
    band, its draw groups and the size of a trial's buffer.

    A draw group is a group of :func:`_layout` with a cut's head and tail
    together, ``(map, ranks, step, read Gram, segments, blocks, tone)``.
    Its map stacks each part's [F | F r^T], which takes the part's normals
    to its noise rows and their projections on the group's reads r;
    ``ranks`` are the parts' ranks, the rows each contributes.  A trial
    draws the group ``step`` segments at a time.  The read Gram is r r^T,
    ``blocks`` holds each part's jitter block per segment, and ``tone``
    the sin and cos of each segment's tone phase, None without a tone.
    Without draws when the blocks are shorter than a segment, which a scan
    refuses once it has counted its segments."""

    band: _Band
    draws: tuple | None
    buffer: int


def _read_only(*arrays: np.ndarray | None) -> None:
    for array in arrays:
        if array is not None:
            array.flags.writeable = False


@functools.lru_cache(maxsize=1)
def _plan(
    n_samples: int,
    sample_rate: float,
    center_freq: float,
    rbw: float,
    block: int,
    tone_step: float | None,
) -> _Plan:
    """The plan of every scan of ``n_samples`` at this band, block and tone
    step (None without a tone), all arrays read-only.  Only the latest plan
    is held, so scans at one setting, over seeds, trials or parameters,
    build it once."""
    band = _band(n_samples, sample_rate, center_freq, rbw)
    _read_only(band.bins, band.basis)
    if block < band.nperseg:
        return _Plan(band, None, 0)
    n_reads = 1 if tone_step is None else 3
    draws, groups, buffer = [], iter(_layout(band, block, tone_step)), 0
    for factor, reads, segments, blocks, phases, part in groups:
        factors, reads, blocks = [factor], [reads[:n_reads]], [blocks]
        if part == 1:  # the head of a cut, whose tail group comes next
            tail = next(groups)
            factors.append(tail[0])
            reads.append(tail[1][:n_reads])
            blocks.append(tail[3])
        reads = np.concatenate(reads)
        map_ = np.concatenate([np.concatenate([f, f @ reads.T], 1) for f in factors])
        ranks = tuple(len(f) for f in factors)
        step = max(1, _RUN // (2 * map_.shape[1]))
        tone = None if tone_step is None else np.stack([np.sin(phases), np.cos(phases)])
        blocks, read_gram = np.stack(blocks), reads @ reads.T
        _read_only(map_, read_gram, segments, blocks, tone)
        draws.append((map_, ranks, step, read_gram, segments, blocks, tone))
        # A chunk's normals and products, and a cut's folded normals.
        chunk = min(segments.size, step)
        held = 2 * segments.size * len(map_) if len(ranks) > 1 else 0
        buffer = max(buffer, held + 2 * chunk * (max(ranks) + map_.shape[1]))
    return _Plan(band, tuple(draws), buffer)


def _scan_plan(config: SimConfig, center_freq: float, rbw: float) -> _Plan:
    """The plan of ``config``'s scans of the band: its key is what the
    plan depends on in ``config``, the record length, the sample rate,
    the block length and the tone step."""
    step = 2.0 * math.pi * config.tone_freq / config.sample_rate
    return _plan(
        config.n_samples,
        config.sample_rate,
        center_freq,
        rbw,
        _block_samples(config),
        step if config.tone_depth else None,
    )


_held = threading.local()


def _buffer(size: int) -> np.ndarray:
    """``size`` numbers of this thread's scan buffer.  It grows to the
    largest size asked for and is then held, so scans after it allocate
    no buffer; a trial overwrites whatever it reads of it."""
    buffer = getattr(_held, "buffer", None)
    if buffer is None or buffer.size < size:
        buffer = _held.buffer = np.empty(size)
    return buffer[:size]


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Column dots of two (rows, k) arrays: one inner product per segment."""
    return np.einsum("ik,ik->k", x, y)


def _band_sums(products, m, noise, reads, read_gram, out) -> None:
    """(|U|^2, Re(U W*), |W|^2) of k segments into ``out`` (3, k).

    ``products`` (2, M, k) holds each segment's noise rows y_0 and y_1 (its
    first ``m`` rows) and their projections on the reads r (the rest),
    segments last, so that every row is a contiguous vector over segments.
    U = a y_0 + b y_1 + c_U r and W = c y_0 + c_W r, with ``noise`` holding
    (a, b, c) and ``reads`` (2, n_reads, k) c_U and c_W.  The forms K Z K^T
    in the Gram Z of z = (y_0, y_1, r) are written out on those vectors:
    the noise rows' column dots, their projections and the reads' Gram
    r r^T, weighted by K; W has no y_1 term."""
    a, b, c = noise
    y0, y1 = products[:, :m]
    # y_s . (c_t r) for s in (0, 1) and t in (U, W), and (c_s r) . (c_t r).
    t = np.einsum("sjk,tjk->stk", products[:, m:], reads)
    r = np.einsum("sjk,tjk->stk", reads, read_gram @ reads)
    d00, d01 = _dots(y0, y0), _dots(y0, y1)
    u0 = a * d00 + b * d01 + t[0, 0]  # U . y_0
    u1 = a * d01 + b * _dots(y1, y1) + t[1, 0]  # U . y_1
    out[0] = a * (u0 + t[0, 0]) + b * (u1 + t[1, 0]) + r[0, 0]
    out[1] = c * u0 + a * t[0, 1] + b * t[1, 1] + r[0, 1]
    out[2] = c * (c * d00 + 2.0 * t[0, 1]) + r[1, 1]


def _segment_sums(config: SimConfig, trial: int, plan: _Plan, model: tuple) -> np.ndarray:
    """(|U|^2, Re(U W*), |W|^2) band sums of one trial, one column per
    segment in the plan's draw order (its draw groups' ``segments`` in
    turn), in the sum U = P + C and difference W = P - C of its arms' band
    spectra; ``model`` is ``_model(config.params)``.

    In a block whose (W, U) covariance is S, a part's spectra are W =
    c y_0 and U = a y_0 + b y_1, c = sqrt(S_WW), a = S_WU / c and b =
    sqrt(det S / S_WW), y = xi F for standard normals xi, plus their means:
    each arm's carrier offset times the part's unit read and, with a tone,
    the tone times its two tone reads.  S_WW and det S are sums of
    nonnegative terms (C <= 0), so at high gain, where P and C nearly
    cancel in U, U keeps its digits.  No spectrum and no per-segment Gram
    is built: one product per chunk of segments, map^T xi^T, gives every
    noise row and read projection as a contiguous vector over segments,
    and :func:`_band_sums` takes the sums from their column dots.

    A cut segment's head and tail lie in two blocks, with two sets of
    coefficients, so each part's normals are first folded into the
    segment's W and U normals (c xi_0, a xi_0 + b xi_1), side by side in
    the columns of the stacked map.  The product then gives W's and U's
    noise rows, and the same sums serve with (a, b, c) = (0, 1, 1).
    Folding keeps three dots per segment where the parts' four noise rows
    would need ten, and the folded head is what a cut holds of its group
    until the tail is drawn.

    After the block phases, each draw group draws its normals part by
    part, ``step`` segments at a time into the buffer, in the order of one
    whole draw: a run of ``standard_normal(out=...)`` calls gives the
    numbers of one call.
    """
    rng = np.random.default_rng([config.rng_seed, trial])
    p, var = config.params, config.electronic_noise_var
    v_p, v_c, cross, rest, carrier_p, carrier_c, v_sum = model
    e_p, e_c = _phases(config, rng).T
    s = e_p + e_c
    # Per block: a, b, c, each arm's offsets on the unit read of U and of
    # W, and the tone's amplitude.
    coef = np.empty((6, s.size))
    s_ww = v_sum - 4 * cross * np.cos(s / 2) ** 2 + 2 * var
    # det S = 4 ((V_p + var)(V_c + var) - C^2 cos^2 s), and V_p V_c - C^2 = V_p r.
    det = 4.0 * (v_p * rest + (cross * np.sin(s)) ** 2 + var * (v_p + v_c + var))
    coef[2] = np.sqrt(s_ww)
    coef[1] = np.sqrt(det / s_ww)
    coef[0] = 2.0 * (p.eta_p - p.eta_c) * (p.gain - 1.0) / coef[2]  # S_WU = V_p - V_c
    o_p, o_c = carrier_p * np.sin(e_p), carrier_c * np.sin(e_c)
    coef[3], coef[4] = o_p + o_c, o_p - o_c
    coef[5] = carrier_p * config.tone_depth * np.cos(e_p)
    fold = None  # per block [[c, 0], [a, b]], made for the first cut
    buffer, m = _buffer(plan.buffer), plan.band.basis.shape[1]

    sums, at = np.empty((3, plan.band.n_seg)), 0
    for map_, ranks, step, read_gram, segments, blocks, tone in plan.draws:
        size, width, last = segments.size, len(map_), len(ranks) - 1
        chunk, free, col = min(size, step), buffer, 0
        if last:  # a cut: its segments' (W, U) normals, held over the group
            if fold is None:
                fold = np.zeros((s.size, 2, 2))
                fold[:, 0, 0], fold[:, 1, 0], fold[:, 1, 1] = coef[2], coef[0], coef[1]
            held, free = buffer[: 2 * size * width].reshape(size, 2, width), free[2 * size * width :]
        for part, rank in enumerate(ranks):
            for lo, hi in _runs(0, size, step):
                normals = free[: 2 * (hi - lo) * rank].reshape(hi - lo, 2, rank)
                rng.standard_normal(out=normals)
                x = normals
                if last:
                    folded = held[lo:hi, :, col : col + rank]
                    np.matmul(np.take(fold, blocks[part, lo:hi], axis=0), normals, out=folded)
                    if part < last:
                        continue
                    x = held[lo:hi]
                products = free[2 * chunk * rank :][: 2 * (hi - lo) * map_.shape[1]]
                products = products.reshape(2, -1, hi - lo)
                np.matmul(map_.T, x.transpose(1, 2, 0), out=products)
                on = np.take(coef, blocks[:, lo:hi], axis=1)  # (6, parts, k)
                reads = on[3:5]  # each part's unit read in U and in W
                if tone is not None:  # the tone sin(omega (t0 + t)) of a segment at t0
                    wave = on[5, :, np.newaxis] * tone[:, lo:hi]  # (parts, 2, k)
                    reads = np.concatenate(
                        [reads[:, :, np.newaxis], np.broadcast_to(wave, (2, *wave.shape))], 2
                    ).reshape(2, -1, hi - lo)
                noise = (0.0, 1.0, 1.0) if last else on[:3, 0]
                _band_sums(products, m, noise, reads, read_gram, sums[:, at + lo : at + hi])
            col += rank
        at += size
    return sums


_PARAM_KEYS = tuple(f.name for f in fields(InterferometerParams))
_CONFIG_KEYS = tuple(f.name for f in fields(SimConfig) if f.name != "params")


def measure_noise_vs_lambda(
    config: SimConfig,
    lambda_grid,
    trials: int = 2,
    center_freq: float = 1e6,
    rbw: float = 1e5,
) -> NoiseDataset:
    """Simulated noise-versus-weight scan, as the experiment records it.

    Reads the band power of probe + lam * conjugate in ``trials``
    independent acquisitions.  A segment's band power is a^2 |U|^2 +
    2 a b Re(U W*) + b^2 |W|^2, a = (1 + lam) / 2, b = (1 - lam) / 2, in
    the arms' band spectra U = P + C and W = P - C, drawn directly
    (:func:`_segment_sums`): one draw serves every weight, and the scan
    matches a Welch readout of :func:`simulate_records` in distribution.  The
    trials' counts, mean sums and centred co-moments are pooled in order
    (Chan, Golub & LeVeque, Am. Stat. 37, 242 (1983)); sigma_db is the
    standard error of the pooled mean, in dB.

    Because every weight reuses the same draws, the scan's points are
    strongly correlated across lambda: the whole curve shifts together
    with the noise realization.  Each sigma_db is honest for its own
    point, but residuals of a good model fit will sit well below it.

    Args:
        config: acquisition settings (the tone is normally off here).
            With lock jitter its blocks must be at least one Welch
            segment (8 sample_rate / rbw samples) long.
        lambda_grid: strictly increasing weights in [0, 1].
        trials: number of independent acquisitions, 1 to 1000.
        center_freq: analysis frequency in Hz.
        rbw: resolution bandwidth in Hz.

    Returns:
        A :class:`~tsui.data.NoiseDataset` tagged ``source="simulated"``.
        Its ``meta`` holds the settings the numbers depend on: every
        parameter and :class:`SimConfig` field, ``n_samples``, the band,
        the segment length ``nperseg``, the pooled ``segments`` and
        ``trials``.
    """
    grid = check_grid("lam", lambda_grid)
    if not _is_int(trials) or not 1 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must be an int in [1, {_MAX_TRIALS}], got {trials!r}")
    # The band and the blocks are checked before any draw; the plan is
    # built once per setting (:func:`_plan`), the model once per scan.
    plan = _scan_plan(config, center_freq, rbw)
    band = plan.band
    if trials * band.n_seg < 2:
        raise ValueError(
            f"the scan would pool {trials * band.n_seg} segment of {band.nperseg} "
            "samples; its uncertainty needs at least 2 (more trials, a longer "
            "record or a wider rbw)"
        )
    if plan.draws is None:
        raise ValueError(
            f"jitter blocks of {_block_samples(config)} samples are shorter than a "
            f"{band.nperseg}-sample Welch segment; a scan needs a longer jitter_block "
            "or a wider rbw"
        )
    model = _model(config.params)
    count, mean, comoment = 0, np.zeros(3), np.zeros((3, 3))
    for trial in range(trials):
        sums = _segment_sums(config, trial, plan, model)
        size, trial_mean = sums.shape[1], sums.mean(axis=1)
        centred, delta = sums - trial_mean[:, np.newaxis], trial_mean - mean
        count += size
        mean = mean + delta * (size / count)
        comoment += centred @ centred.T + np.outer(delta, delta) * ((count - size) * size / count)
    # P + lam C = a U + b W with a = (1 + lam) / 2 and b = (1 - lam) / 2.
    a, b = (1.0 + grid) / 2.0, (1.0 - grid) / 2.0
    coef = np.stack([a * a, 2.0 * a * b, b * b])
    mean_power = mean @ coef
    variance = np.einsum("il,ij,jl->l", coef, comoment / (count - 1), coef)
    stderr = np.sqrt(variance / count)
    noise_db = 10.0 * np.log10(mean_power)
    sigma_db = (10.0 / math.log(10.0)) * stderr / mean_power
    meta = {k: getattr(config.params, k) for k in _PARAM_KEYS}
    meta.update({k: getattr(config, k) for k in _CONFIG_KEYS})
    meta.update(n_samples=config.n_samples, center_freq=center_freq, rbw=rbw)
    meta.update(nperseg=band.nperseg, segments=count, trials=trials)
    return NoiseDataset(
        lam=grid, noise_db=noise_db, sigma_db=sigma_db, source="simulated", meta=meta
    )


def load_sim_config(path: str) -> SimConfig:
    """Read a ``key = value`` simulation config file.

    Recognized keys are the four parameter fields (gain, eta_p, eta_c,
    alpha) and the :class:`SimConfig` scalars; ``#`` starts a comment.
    Unknown or duplicate keys and malformed lines raise ``ValueError``
    naming the offending line.

    Args:
        path: file to read.

    Returns:
        The parsed :class:`SimConfig`.
    """
    values: dict[str, float] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in _PARAM_KEYS and key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                # A float holds integers exactly only up to 2^53, so a seed
                # written as digits is read as an int.
                exact = key == "rng_seed" and text.isdecimal()
                values[key] = int(text) if exact else float(text)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: could not parse value {text!r} for {key!r}"
                ) from None
    if "gain" not in values:
        raise ValueError(f"{path}: missing required key 'gain'")
    params = InterferometerParams(**{k: values.pop(k) for k in _PARAM_KEYS if k in values})
    if isinstance(values.get("rng_seed"), float):
        seed = values["rng_seed"]
        if not math.isfinite(seed) or seed != int(seed):
            raise ValueError(f"{path}: rng_seed must be an integer, got {seed!r}")
        values["rng_seed"] = int(seed)
    return SimConfig(params=params, **values)
