"""Time-domain emulation of the homodyne records and spectrum analysis.

Generates correlated phase-quadrature noise for the probe/conjugate
detector pair from the model's closed-form coefficients (V_p, V_c, C)
(:func:`tsui.metrology.joint_variance_quadratic`), optionally with a
calibration phase tone on the probe, slow homodyne-lock jitter, and white
electronic noise.  A Welch-style band-power estimator then reads the
records back the way a spectrum analyzer would, normalized so that
unit-variance white noise sits at 0 dB.

Determinism: a record is a pure function of ``(config, trial)``.  Random
draws always happen in the same order (block jitter phases, then the
quadrature normals, then white electronic noise for probe and
conjugate), so identical inputs give bit-identical records.

The readout never needs a whole record.  A scan draws each record on
its readout's span grid: runs of whole Welch segments, or one block of
a long segment, of at most ``_CHUNK`` samples each.  Every span's
in-band DFT (a small GEMM against a cached window x cos/sin basis) is
added into per-segment band spectra where the span lies.  A scan
draws no electronic noise samples: white noise's band spectra are
Gaussian with the Gram matrix of one segment's in-band DFT rows as
covariance, independent across segments and arms, so after every
quadrature normal the scan draws those spectra directly, 2 n_bins
normals per segment and arm.  A scan keeps three sums per segment, runs
its trials on one thread per trial and usable CPU, each from its own
generator, and pools the sums in trial order, so a scan does not depend
on the number of workers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .data import NoiseDataset, check_grid, check_range
from .gaussian import InterferometerParams, measurement_weight
from .metrology import fringe_slope, joint_variance, joint_variance_quadratic

__all__ = [
    "MeasurementRecord",
    "SimConfig",
    "SpectrumResult",
    "combine_weighted",
    "load_sim_config",
    "measure_noise_vs_lambda",
    "simulate_records",
    "spectrum_power",
]

# Welch bins per resolution bandwidth; 8 keeps a band average honest
# while leaving hundreds of segments in a default-length record.
_BINS_PER_RBW = 8

# Most samples per span, the unit in which a record is drawn and read,
# and normals per in-band noise draw; also the most basis rows cached
# (144 B each at 9 band bins).  A GEMM this size against the (rows,
# 2 n_bins) basis stays below OpenBLAS's threading threshold (2^18
# multiply-adds) for up to 16 bins, so it runs on the calling thread and
# concurrent scan workers do not oversubscribe the cores.
_CHUNK = 2**13

# Input caps: the longest record is 8x the default length (2 x 64 MiB
# when simulate_records returns it; a scan reads it span by span and
# holds only its per-segment band spectra), and a scan takes at most
# 1000 records.
_MIN_SAMPLES = 2**14
_MAX_SAMPLES = 2**23
_MAX_TRIALS = 1000


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
        jitter_block: correlation time of the lock error in seconds
            (the phase error is redrawn once per block).
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
        if not isinstance(self.rng_seed, int) or self.rng_seed < 0:
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


@dataclass(frozen=True)
class SpectrumResult:
    """Band power readout at one analysis frequency."""

    center_freq: float
    rbw: float
    power_db: float
    is_peak: bool


def _runs(lo: int, hi: int, step: int) -> list[tuple[int, int]]:
    """``(start, stop)`` runs of at most ``step`` samples tiling ``[lo, hi)``."""
    return [(a, min(a + step, hi)) for a in range(lo, hi, step)]


def _record_pieces(config: SimConfig, rng: np.random.Generator, spans):
    """Draw one record's quadrature signal span by span, as ``(lo, values)``.

    ``spans`` are ``(lo, hi)`` pairs that tile ``[0, n_samples)`` in order;
    ``values`` holds samples lo .. hi - 1 of the probe (row 0) and the
    conjugate (row 1), offset and tone included.  A span takes its
    quadrature normals in one draw, so any tiling takes ``rng``'s numbers
    in the order of one whole-record draw, and each jitter block's part of
    a span is one product with that block's factor.  Electronic noise is
    left to the caller, which draws it from ``rng`` after the last span.
    """
    n = config.n_samples
    p = config.params
    v_p, _, cross = joint_variance_quadratic(p.gain, p.eta_p, p.eta_c)
    # (V_p V_c - C^2) / V_p as the arms-swapped variance at its vertex: a
    # sum of nonnegative terms, where the difference would lose every digit.
    rest = float(joint_variance(p.gain, p.eta_c, p.eta_p, -cross / v_p))
    if config.lock_jitter_rms > 0.0:
        block = int(round(min(config.jitter_block * config.sample_rate, n)))
        phases = rng.normal(0.0, config.lock_jitter_rms, size=(-(-n // block), 2))
    else:
        # Without jitter the record is one block at zero phase, which is
        # exact (sin 0 = 0, cos 0 = 1) and draws nothing.
        block, phases = n, np.zeros((1, 2))
    # Each arm's carrier 2 sqrt(eta G) alpha, which the jitter leaks in.
    carrier = float(fringe_slope(p.gain, p.eta_p, p.alpha))
    carrier_c = 2.0 * math.sqrt(p.eta_c * (p.gain - 1.0)) * p.alpha
    omega = 2.0 * math.pi * config.tone_freq
    for lo, hi in spans:
        normals = rng.standard_normal((hi - lo, 2))
        values = np.empty((2, hi - lo))
        for b in range(lo // block, (hi - 1) // block + 1):
            e_p, e_c = phases[b]
            # The Cholesky factor, transposed, of the rotated quadratures'
            # covariance [[V_p, C cos s], [C cos s, V_c]], s = e_p + e_c.
            l_1, l_2 = math.sqrt(v_p), cross * math.cos(e_p + e_c) / math.sqrt(v_p)
            l_3 = math.sqrt(rest + (cross * math.sin(e_p + e_c)) ** 2 / v_p)
            chol_t = np.array([[l_1, l_2], [0.0, l_3]])
            offset = np.array([carrier * math.sin(e_p), carrier_c * math.sin(e_c)])
            start, stop = max(lo, b * block), min(hi, (b + 1) * block)
            part = slice(start - lo, stop - lo)
            np.add((normals[part] @ chol_t).T, offset[:, np.newaxis], out=values[:, part])
            if config.tone_depth > 0.0:
                t = np.arange(start, stop) / config.sample_rate
                values[0, part] += carrier * config.tone_depth * math.cos(e_p) * np.sin(omega * t)
        yield lo, values


def simulate_records(config: SimConfig, trial: int = 0) -> MeasurementRecord:
    """Generate one pair of synchronized detector records.

    The two phase quadratures are drawn as a correlated Gaussian pair
    through the Cholesky factor of their covariance, written in closed
    form from the model's (V_p, V_c, C); its corner comes from a sum of
    nonnegative terms, so the factor holds up to the simulator's gain cap.
    With lock jitter enabled, each arm's measured quadrature rotates by a
    block-constant random phase (e_p, e_c): the covariance becomes
    [[V_p, C cos s], [C cos s, V_c]] with s = e_p + e_c, and each arm's
    bright carrier 2 sqrt(eta G) alpha leaks in as a block-constant offset
    times sin e.
    The calibration tone enters only the probe record, with amplitude
    slope * tone_depth where slope = 2 sqrt(eta_p G) alpha.  White
    electronic noise is drawn last, the probe's samples then the
    conjugate's.

    Args:
        config: acquisition settings.
        trial: index of the acquisition; seeds the generator together
            with ``config.rng_seed``.

    Returns:
        A :class:`MeasurementRecord` with ``n_samples`` points per arm.
    """
    if not isinstance(trial, int) or trial < 0:
        raise ValueError(f"trial must be a nonnegative int, got {trial!r}")
    rng = np.random.default_rng([config.rng_seed, trial])
    out = np.empty((2, config.n_samples))
    for lo, values in _record_pieces(config, rng, _runs(0, out.shape[1], _CHUNK)):
        out[:, lo : lo + values.shape[1]] = values
    if config.electronic_noise_var > 0.0:
        noise = rng.standard_normal(out.shape)
        noise *= math.sqrt(config.electronic_noise_var)
        out += noise
    probe, conj = out
    probe.flags.writeable = False
    conj.flags.writeable = False
    return MeasurementRecord(probe=probe, conjugate=conj, config=config, trial=trial)


def combine_weighted(record: MeasurementRecord, lam: float) -> np.ndarray:
    """Weighted sum of the two detector records, probe + lam * conjugate.

    Args:
        record: simulated (or loaded) detector pair.
        lam: attenuator weight in [0, 1].

    Returns:
        The combined time series.
    """
    return record.probe + measurement_weight(lam) * record.conjugate


def _hann(offsets: np.ndarray, nperseg: int) -> np.ndarray:
    # np.hanning(nperseg)[offsets] by its own formula, without the
    # segment-length array.
    return 0.5 + 0.5 * np.cos(np.pi * (2 * offsets + 1 - nperseg) / (nperseg - 1))


@dataclass(frozen=True)
class _Band:
    """Welch readout of one analysis band in a record of known length.

    Hann-windowed, zero-overlap segments of ``nperseg`` samples with bin
    spacing rbw / 8; the band collects the ``bins`` within rbw / 2 of the
    center.  Row t of ``basis`` holds the columns [cos | -sin] of each
    band bin at segment position t, so that samples @ basis is their
    in-band DFT in real layout.  Segments of at most ``_CHUNK`` samples
    get one row per position with the window folded in; longer segments
    get ``_CHUNK`` rows without it, reused for every block of the segment.
    ``scale`` is the readout's normalization, folded into ``basis``.
    ``spans`` is the grid a record is drawn and read on (:func:`_spans`).
    """

    nperseg: int
    n_seg: int
    bins: np.ndarray
    basis: np.ndarray
    scale: float
    spans: list[tuple[int, int]]

    @cached_property
    def noise_factor(self) -> np.ndarray:
        """F = L^T, where L L^T = G is the Gram matrix of one segment's
        windowed, scaled basis rows: standard normals xi give xi @ F with
        the distribution of the band spectra of one segment of
        unit-variance white noise.  Factored on first use, so only a scan
        with electronic noise pays for it."""
        gram = self.scale * self.scale * _band_gram(self.nperseg, self.bins)
        return np.linalg.cholesky(gram).T


def _sinpi(num: np.ndarray, den: int) -> np.ndarray:
    """sin(pi num / den) for integer ``num``, reduced exactly to |angle| <= pi / 2."""
    r = num % (2 * den)
    sign = np.where(r < den, 1.0, -1.0)
    r = r % den
    return sign * np.sin(np.pi * np.minimum(r, den - r) / den)


# The squared Hann window as cosines: w(t)^2 = sum_j c_j exp(i j theta t)
# with theta = 2 pi / (nperseg - 1), as ((j, c_j), ...).
_HANN_SQUARED = ((-2, 1 / 16), (-1, -1 / 4), (0, 3 / 8), (1, -1 / 4), (2, 1 / 16))


def _band_gram(nperseg: int, bins: np.ndarray) -> np.ndarray:
    """Gram matrix of a Hann segment's in-band DFT rows, in closed form.

    The rows are w(t) [cos(2 pi k t / n) | -sin(2 pi k t / n)] over the
    band bins k and t = 0 .. n - 1.  Every entry is a window-squared sum
    E(d) = sum_t w(t)^2 exp(2 pi i d t / n) at a bin difference or sum d,
    and since w^2 is three cosines, E(d) is five Dirichlet kernels
    sum_t exp(i psi t) = exp(i psi (n - 1) / 2) sin(n psi / 2) / sin(psi / 2).
    Each psi / 2 pi is the integer ratio (d (n - 1) + j n) / (n (n - 1)),
    so every sine is reduced exactly and the entries are accurate to
    round-off relative to the largest, at any segment length.
    """
    n = nperseg
    q = n * (n - 1)
    d = np.concatenate([np.subtract.outer(bins, bins), np.add.outer(bins, bins)])
    e = np.zeros(d.shape, dtype=complex)
    for j, c in _HANN_SQUARED:
        p = d * (n - 1) + j * n
        # psi is a multiple of 2 pi only at j = 0 on the difference diagonal.
        whole = p % q == 0
        kernel = _sinpi(p, n - 1) / np.where(whole, 1.0, _sinpi(p, q))
        phase = _sinpi(n - 2 * p, 2 * n) + 1j * _sinpi(p, n)
        e += c * np.where(whole, n, phase * kernel)
    diff, total = np.split(e, 2)
    # cos a cos b, sin a sin b and cos a (-sin b) as halves of E(a -+ b).
    cc = 0.5 * (diff.real + total.real)
    ss = 0.5 * (diff.real - total.real)
    cs = 0.5 * (diff.imag - total.imag)
    return np.block([[cc, cs], [cs.T, ss]])


def _spans(n_samples: int, nperseg: int) -> list[tuple[int, int]]:
    """The readout's ``(lo, hi)`` spans, tiling ``[0, n_samples)`` in order.

    Runs of whole segments of at most ``_CHUNK`` samples, or one
    ``_CHUNK`` block of a longer segment; then the tail after the last
    whole segment, in ``_CHUNK`` runs.
    """
    used = n_samples - n_samples % nperseg
    if nperseg <= _CHUNK:
        read = _runs(0, used, _CHUNK - _CHUNK % nperseg)
    else:
        read = [s for g in range(0, used, nperseg) for s in _runs(g, g + nperseg, _CHUNK)]
    return read + _runs(used, n_samples, _CHUNK)


def _band(n_samples: int, sample_rate: float, center_freq: float, rbw: float) -> _Band:
    """Check the band against a record of ``n_samples`` and build its basis."""
    if not (0.0 < rbw < math.inf and 0.0 < sample_rate < math.inf):
        raise ValueError("rbw and sample_rate must be finite and > 0")
    if not rbw / 2.0 < center_freq < sample_rate / 2.0 - rbw / 2.0:
        raise ValueError(
            "analysis band must lie strictly inside (0, sample_rate / 2)"
        )
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
    rows = min(nperseg, _CHUNK)
    t = np.arange(rows)
    # (t k) mod nperseg is exact, so every angle stays below 2 pi.
    angle = (2.0 * math.pi / nperseg) * (np.outer(t, bins) % nperseg)
    # One-sided PSD 2|X|^2 / (fs W) integrated over the band (times df),
    # over the white-noise reference 2 n_bins df / fs: |X|^2 / (W n_bins),
    # where the squared Hann window sums to W = 3 (nperseg - 1) / 8.
    scale = 1.0 / math.sqrt(3.0 * (nperseg - 1) / 8.0 * bins.size)
    weight = scale * _hann(t, nperseg) if rows == nperseg else np.full(rows, scale)
    basis = np.empty((rows, 2 * bins.size))
    np.multiply(np.cos(angle), weight[:, np.newaxis], out=basis[:, : bins.size])
    np.multiply(np.sin(angle), -weight[:, np.newaxis], out=basis[:, bins.size :])
    return _Band(
        nperseg=nperseg,
        n_seg=n_samples // nperseg,
        bins=bins,
        basis=basis,
        scale=scale,
        spans=_spans(n_samples, nperseg),
    )


def _band_spectra(band: _Band, pieces, arms: int) -> np.ndarray:
    """Per-segment band spectra of each arm, read from a record's pieces.

    ``pieces`` yields ``(lo, values)`` over ``band.spans``, as
    :func:`_record_pieces` does, with ``values`` holding the ``arms``
    rows of samples lo .. hi - 1.  Row g of an arm's spectra holds segment
    g's band bins as [real parts, imaginary parts], scaled so that its
    squared norm is the segment's normalized band power: unit-variance
    white noise averages to 1.  Each span is read where it lies, one GEMM
    per arm; the tail after the last whole segment is not read.
    """
    n = band.nperseg
    spectra = np.zeros((arms, band.n_seg, band.basis.shape[1]))
    for lo, values in pieces:
        seg, offset = divmod(lo, n)
        size = values.shape[1]
        if seg >= band.n_seg:  # the tail, drawn but not read
            continue
        if n <= _CHUNK:
            rows = size // n
            spectra[:, seg : seg + rows] += values.reshape(arms, rows, n) @ band.basis
            continue
        # A block of a long segment: window the samples here, and move the
        # basis's phases from position 0 to the block's offset with one
        # twiddle exp(-2 pi i k offset / n) per bin.
        window = _hann(np.arange(offset, offset + size), n)
        # One product per arm: a single (arms, size) product rounds differently.
        dft = np.stack([(v * window) @ band.basis[:size] for v in values])
        if offset:
            phi = (2.0 * math.pi / n) * ((band.bins * offset) % n)
            re, im = np.split(dft, 2, axis=1)
            dft = np.hstack(
                [re * np.cos(phi) + im * np.sin(phi), im * np.cos(phi) - re * np.sin(phi)]
            )
        spectra[:, seg] += dft
    return spectra


def _cross_power(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-segment sum of Re(a b*) over the band bins: a row dot."""
    return np.einsum("ij,ij->i", a, b)


def spectrum_power(
    series: np.ndarray,
    center_freq: float,
    rbw: float,
    sample_rate: float,
    tone_freq: float | None = None,
) -> SpectrumResult:
    """Spectrum-analyzer style band power of a time series.

    Args:
        series: real-valued samples.
        center_freq: analysis frequency in Hz.
        rbw: resolution bandwidth in Hz.
        sample_rate: sampling rate of ``series`` in Hz.
        tone_freq: frequency of any injected tone, used only to flag
            whether the band contains it.

    Returns:
        :class:`SpectrumResult`; ``power_db`` is 0 dB for unit-variance
        white noise.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ValueError("series must be 1-D")
    band = _band(series.size, sample_rate, center_freq, rbw)
    pieces = ((lo, series[np.newaxis, lo:hi]) for lo, hi in band.spans)
    (spectra,) = _band_spectra(band, pieces, arms=1)
    mean_power = float(_cross_power(spectra, spectra).mean())
    is_peak = tone_freq is not None and abs(tone_freq - center_freq) <= rbw / 2.0
    return SpectrumResult(
        center_freq=center_freq,
        rbw=rbw,
        power_db=10.0 * math.log10(mean_power),
        is_peak=is_peak,
    )


def _scan_workers(trials: int) -> int:
    """Number of worker threads of a scan: one per trial and usable CPU.

    A worker holds one ``_CHUNK``-sample span and the band spectra of
    the record it reads, never the record itself.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        cpus = os.cpu_count() or 1
    return min(trials, cpus)


def _segment_sums(config: SimConfig, trial: int, band: _Band) -> np.ndarray:
    """Per-segment (|U|^2, Re(U W*), |W|^2) band sums of one record, in the
    sum and difference U = P + C, W = P - C of its probe and conjugate
    band spectra.

    The record's quadrature signal is drawn span by span on the band's
    grid and read where it lies; no record-sized array is made.  The white
    electronic noise of every segment and arm is then drawn as its band
    spectra, xi @ (sigma ``band.noise_factor``), which for zero-overlap
    segments has the distribution of the time-domain draw's spectra.
    The normals xi come in runs of at most ``_CHUNK`` numbers, which take
    the stream's numbers in the order of one (2, n_seg, 2 n_bins) draw.
    At high gain P and C nearly cancel in U, the squeezed readout, whose
    power the (|P|^2, Re(P C*), |C|^2) sums would leave to round-off.
    """
    rng = np.random.default_rng([config.rng_seed, trial])
    spectra = _band_spectra(band, _record_pieces(config, rng, band.spans), arms=2)
    if config.electronic_noise_var > 0.0:
        factor = math.sqrt(config.electronic_noise_var) * band.noise_factor
        rows = spectra.reshape(-1, len(factor))
        step = _CHUNK // len(factor)
        for lo in range(0, len(rows), step):
            block = rows[lo : lo + step]
            block += rng.standard_normal(block.shape) @ factor
    u, w = spectra[0] + spectra[1], spectra[0] - spectra[1]
    return np.stack([_cross_power(u, u), _cross_power(u, w), _cross_power(w, w)])


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

    Generates ``trials`` independent records at the given settings and
    reads the band power of probe + lam * conjugate at the analysis
    frequency.  Each segment's band power is the quadratic a^2 |U|^2 +
    2 a b Re(U W*) + b^2 |W|^2 in the sum U = P + C and difference
    W = P - C of the arms' band spectra, with a = (1 + lam) / 2 and
    b = (1 - lam) / 2, so one spectral pass per record serves every
    weight, and the squeezed readout keeps its digits at high gain.
    White electronic noise enters as band spectra drawn per segment and
    arm after every quadrature normal, with the distribution the readout
    of :func:`simulate_records`' samples would give; so with it the scan
    matches that readout in distribution, and without it to round-off.
    Segments from all trials are pooled; the quoted uncertainty is the
    standard error of their mean, mapped to dB.  Trials run on up to one
    thread per usable CPU, with the same result for any number; no
    record is held whole.

    Because every weight reuses the same records, the scan's points are
    strongly correlated across lambda: the whole curve shifts together
    with the noise realization.  Each sigma_db is honest for its own
    point, but residuals of a good model fit will sit well below it.

    Args:
        config: acquisition settings (the tone is normally off here).
        lambda_grid: strictly increasing weights in [0, 1].
        trials: number of independent records, 1 to 1000.
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
    if not isinstance(trials, int) or not 1 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must be an int in [1, {_MAX_TRIALS}], got {trials!r}")
    # The band is checked, and its basis built once, before any draw.
    band = _band(config.n_samples, config.sample_rate, center_freq, rbw)
    if trials * band.n_seg < 2:
        raise ValueError(
            f"the scan would pool {trials * band.n_seg} segment of {band.nperseg} "
            "samples; its uncertainty needs at least 2 (more trials, a longer "
            "record or a wider rbw)"
        )
    # map returns the trials in order, whatever the number of workers.
    with ThreadPoolExecutor(max_workers=_scan_workers(trials)) as pool:
        sums = np.concatenate(
            list(pool.map(lambda i: _segment_sums(config, i, band), range(trials))), axis=1
        )
    # P + lam C = a U + b W with a = (1 + lam) / 2 and b = (1 - lam) / 2.
    a, b = (1.0 + grid) / 2.0, (1.0 - grid) / 2.0
    coef = np.stack([a * a, 2.0 * a * b, b * b])
    mean_power = sums.mean(axis=1) @ coef
    variance = np.einsum("il,ij,jl->l", coef, np.cov(sums), coef)
    stderr = np.sqrt(variance / sums.shape[1])
    noise_db = 10.0 * np.log10(mean_power)
    sigma_db = (10.0 / math.log(10.0)) * stderr / mean_power
    meta = {k: getattr(config.params, k) for k in _PARAM_KEYS}
    meta.update({k: getattr(config, k) for k in _CONFIG_KEYS})
    meta.update(n_samples=config.n_samples, center_freq=center_freq, rbw=rbw)
    meta.update(nperseg=band.nperseg, segments=sums.shape[1], trials=trials)
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
