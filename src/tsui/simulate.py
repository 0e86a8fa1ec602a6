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

A scan draws band spectra, not samples: within a jitter block the arms
are white Gaussian noise, so the in-band spectra of a zero-overlap Hann
segment, or of its part in one block, are N(mean, S x G), with S the
arms' 2 x 2 covariance and G the Gram matrix of the part's in-band DFT
rows (Welch, IEEE Trans. Audio Electroacoust. 15, 70 (1967)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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

# Most samples drawn or read at once, and normals per draw of band
# spectra; also the most basis rows cached (144 B each at 9 band bins).
_CHUNK = 2**13

# Input caps: the longest record is 8x the default length (2 x 64 MiB
# from simulate_records; a scan draws no samples and holds one trial's
# band spectra), and a scan takes at most 1000 trials.
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


def _model(p: InterferometerParams) -> tuple[float, float, float, float, float, float]:
    """(V_p, V_c, C), r = (V_p V_c - C^2) / V_p, and each arm's carrier
    2 sqrt(eta G) alpha, which lock jitter leaks in."""
    v_p, v_c, cross = joint_variance_quadratic(p.gain, p.eta_p, p.eta_c)
    # r as the arms-swapped variance at its vertex: a sum of nonnegative
    # terms, where the difference would lose every digit.
    rest = float(joint_variance(p.gain, p.eta_c, p.eta_p, -cross / v_p))
    carrier_c = 2.0 * math.sqrt(p.eta_c * (p.gain - 1.0)) * p.alpha
    return v_p, v_c, cross, rest, float(fringe_slope(p.gain, p.eta_p, p.alpha)), carrier_c


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
    if not isinstance(trial, int) or trial < 0:
        raise ValueError(f"trial must be a nonnegative int, got {trial!r}")
    rng = np.random.default_rng([config.rng_seed, trial])
    v_p, _, cross, rest, carrier, carrier_c = _model(config.params)
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
    """Welch readout of one band: Hann-windowed, zero-overlap segments of
    ``nperseg`` samples, bin spacing rbw / 8, the ``bins`` within rbw / 2
    of the center.  Row t of ``basis`` holds [cos | -sin] of each bin at
    segment position t times ``scale``, the readout's normalization, and
    the window for segments of at most ``_CHUNK`` samples; longer ones get
    ``_CHUNK`` rows without it, turned to each block by :func:`_twiddle`.
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
    return _Band(nperseg, n_samples // nperseg, bins, basis, scale)


def _twiddle(band: _Band, x: np.ndarray, offset: int) -> np.ndarray:
    """Turn [cos | -sin] columns, or spectra read through them, from
    segment position 0 to ``offset``: exp(-2 pi i k offset / n) per bin."""
    phi = (2.0 * math.pi / band.nperseg) * ((band.bins * offset) % band.nperseg)
    re, im = np.split(x, 2, axis=-1)
    return np.concatenate(
        [re * np.cos(phi) + im * np.sin(phi), im * np.cos(phi) - re * np.sin(phi)], axis=-1
    )


def _read(band: _Band, x: np.ndarray, lo: int) -> np.ndarray:
    """In-band DFT (..., 2 n_bins) of samples ``x`` (..., size <= ``_CHUNK``)
    at segment positions lo .. lo + size - 1: one GEMM, then in a long
    segment (windowed samples, unwindowed basis) one twiddle."""
    n, size = band.nperseg, x.shape[-1]
    if n <= _CHUNK:
        return x @ band.basis[lo : lo + size]
    return _twiddle(band, (x * _hann(np.arange(lo, lo + size), n)) @ band.basis[:size], lo)


def _band_spectra(band: _Band, series: np.ndarray) -> np.ndarray:
    """Per-segment band spectra of a series, the tail after the last whole
    segment unread.  Row g holds segment g's band bins as [real parts,
    imaginary parts], scaled so that its squared norm is the segment's
    normalized band power: unit-variance white noise averages to 1."""
    n = band.nperseg
    if n <= _CHUNK:
        segments = series[: band.n_seg * n].reshape(band.n_seg, n)
        step = _CHUNK // n  # segments per GEMM, which the product's rounding depends on
        return np.concatenate(
            [_read(band, segments[g : g + step], 0) for g in range(0, band.n_seg, step)]
        )
    return np.array([
        sum(_read(band, series[g * n + lo : g * n + hi], lo) for lo, hi in _runs(0, n, _CHUNK))
        for g in range(band.n_seg)
    ])


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
    spectra = _band_spectra(band, series)
    mean_power = float(_cross_power(spectra, spectra).mean())
    is_peak = tone_freq is not None and abs(tone_freq - center_freq) <= rbw / 2.0
    return SpectrumResult(
        center_freq=center_freq,
        rbw=rbw,
        power_db=10.0 * math.log10(mean_power),
        is_peak=is_peak,
    )


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
    """Gram matrix of a whole Hann segment's in-band DFT rows, unscaled,
    in O(n_bins^2) at any segment length.  Each entry is a sum
    E(d) = sum_t w(t)^2 exp(2 pi i d t / n) at a bin difference or sum d:
    five Dirichlet kernels, as w^2 is three cosines, each at an integer
    ratio psi / 2 pi = (d (n - 1) + j n) / (n (n - 1)) whose sines reduce
    exactly."""
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


def _pieces(band: _Band, edges: list[int], tone_step: float, grams: bool) -> tuple:
    """Gram matrices (if ``grams``) and reads of the segment positions
    between consecutive ``edges``, in one pass over their basis rows.  The
    reads are the rows read against 1, cos(tone_step t) and sin(tone_step t):
    a unit offset's and the tone's two quadratures' band spectra."""
    n, m = band.nperseg, band.basis.shape[1]
    gram, reads = np.zeros((len(edges) - 1, m, m)), np.zeros((len(edges) - 1, 3, m))
    for i, (s0, s1) in enumerate(zip(edges, edges[1:])):
        for lo, hi in _runs(s0, s1, _CHUNK):
            angle = tone_step * np.arange(lo, hi)
            reads[i] += _read(band, np.stack([np.ones(hi - lo), np.cos(angle), np.sin(angle)]), lo)
            if grams and n <= _CHUNK:
                gram[i] += band.basis[lo:hi].T @ band.basis[lo:hi]
            elif grams:  # the cached basis's window-squared Gram, turned to lo on both sides
                base = _hann(np.arange(lo, hi), n)[:, np.newaxis] * band.basis[: hi - lo]
                gram[i] += _twiddle(band, _read(band, base.T, lo).T, lo)
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


def _layout(config: SimConfig, band: _Band) -> list:
    """A scan's draw groups ``(F, reads, segments, blocks, tone phases, part)``.

    With blocks of at least a segment, a segment lies in one block or is
    cut once, at c, into [0, c) and [c, n).  Whole segments come first
    (part 0), then each cut in ascending order, [0, c) (part 1) just
    before [c, n) (part 2).  F factors the Gram of a part's rows: closed
    form for a whole segment, and summed from the pieces between cuts for
    the rest, one pass for any cuts."""
    n, block = band.nperseg, _block_samples(config)
    if block < n:
        raise ValueError(
            f"jitter blocks of {block} samples are shorter than a {n}-sample Welch "
            "segment; a scan needs a longer jitter_block or a wider rbw"
        )
    start = n * np.arange(band.n_seg)
    first = start // block
    cut = (first + 1) * block - start  # the next block edge
    cuts = np.unique(cut[cut < n]).tolist()
    step = 2.0 * math.pi * config.tone_freq / config.sample_rate
    gram, reads = _pieces(band, [0, *cuts, n], step, grams=bool(cuts))
    whole = np.flatnonzero(cut >= n)
    whole_gram = band.scale**2 * _band_gram(n, band.bins)
    groups = [(whole_gram, reads.sum(axis=0), whole, first[whole], 0)]
    # [0, c_k) sums the pieces before cut k, [c_k, n) those after it.
    head, head_reads = np.cumsum(gram, axis=0), np.cumsum(reads, axis=0)
    tail, tail_reads = np.cumsum(gram[::-1], axis=0)[::-1], np.cumsum(reads[::-1], axis=0)[::-1]
    for k, c in enumerate(cuts):
        segments = np.flatnonzero(cut == c)
        groups += [(head[k], head_reads[k], segments, first[segments], 1)]
        groups += [(tail[k + 1], tail_reads[k + 1], segments, first[segments] + 1, 2)]
    return [
        (_factor(g), r, segments, blocks, step * start[segments], part)
        for g, r, segments, blocks, part in groups
        if segments.size
    ]


def _segment_sums(config: SimConfig, trial: int, band: _Band, layout: list) -> np.ndarray:
    """Per-segment (|U|^2, Re(U W*), |W|^2) band sums of one trial, in the
    sum U = P + C and difference W = P - C of its arms' band spectra.

    After the block phases, each group draws (k, 2, rank) normals xi for
    its k segments, in runs of at most ``_CHUNK`` numbers.  In a block
    whose (W, U) covariance is S, a part gets W = sqrt(S_WW) xi_0 @ F and
    U = S_WU / sqrt(S_WW) xi_0 @ F + sqrt(det S / S_WW) xi_1 @ F plus its
    mean.  S_WW and det S are sums of nonnegative terms (C <= 0), so at
    high gain, where P and C nearly cancel in U, U keeps its digits.  A
    whole segment's sums are taken from its run at once; only the spectra
    of the segments at one cut are held, from their first part to their
    second.
    """
    rng = np.random.default_rng([config.rng_seed, trial])
    p, var = config.params, config.electronic_noise_var
    v_p, v_c, cross, rest, carrier_p, carrier_c = _model(p)
    e_p, e_c = _phases(config, rng).T
    s = e_p + e_c
    s_ww = joint_variance(p.gain, p.eta_p, p.eta_c, 1.0) - 4 * cross * np.cos(s / 2) ** 2 + 2 * var
    # det S = 4 ((V_p + var)(V_c + var) - C^2 cos^2 s), and V_p V_c - C^2 = V_p r.
    det = 4.0 * (v_p * rest + (cross * np.sin(s)) ** 2 + var * (v_p + v_c + var))
    l_w, l_u = np.sqrt(s_ww), np.sqrt(det / s_ww)
    l_uw = 2.0 * (p.eta_p - p.eta_c) * (p.gain - 1.0) / l_w  # S_WU = V_p - V_c
    o_p, o_c = carrier_p * np.sin(e_p), carrier_c * np.sin(e_c)
    o_w, o_u = o_p - o_c, o_p + o_c
    tone = carrier_p * config.tone_depth * np.cos(e_p)

    def band_sums(w, u):
        return np.stack([_cross_power(u, u), _cross_power(u, w), _cross_power(w, w)])

    sums = np.empty((3, band.n_seg))
    for factor, reads, segments, blocks, phases, part in layout:
        step = _CHUNK // max(2 * len(factor), 1)
        if part == 1:
            cut = np.empty((2, segments.size, band.basis.shape[1]))
        for lo in range(0, segments.size, step):
            g, b = segments[lo : lo + step], blocks[lo : lo + step, np.newaxis]
            y = rng.standard_normal((g.size, 2, len(factor))) @ factor
            w = l_w[b] * y[:, 0] + o_w[b] * reads[0]
            u = l_uw[b] * y[:, 0] + l_u[b] * y[:, 1] + o_u[b] * reads[0]
            if config.tone_depth:  # else the tone's mean is 0 and adds nothing
                # The tone sin(omega (t0 + t)) of a segment starting at t0.
                phase = phases[lo : lo + step, np.newaxis]
                mean = tone[b] * (np.sin(phase) * reads[1] + np.cos(phase) * reads[2])
                w += mean
                u += mean
            if part == 0:
                sums[:, g] = band_sums(w, u)
            elif part == 1:
                cut[:, lo : lo + step] = w, u
            else:
                cut[:, lo : lo + step] += w, u
        if part == 2:
            sums[:, segments] = band_sums(*cut)
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
    matches the readout of :func:`simulate_records` in distribution.  The
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
    if not isinstance(trials, int) or not 1 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must be an int in [1, {_MAX_TRIALS}], got {trials!r}")
    # The band and the blocks are checked, and the parts' constants built
    # once, before any draw.
    band = _band(config.n_samples, config.sample_rate, center_freq, rbw)
    if trials * band.n_seg < 2:
        raise ValueError(
            f"the scan would pool {trials * band.n_seg} segment of {band.nperseg} "
            "samples; its uncertainty needs at least 2 (more trials, a longer "
            "record or a wider rbw)"
        )
    layout = _layout(config, band)
    count, mean, comoment = 0, np.zeros(3), np.zeros((3, 3))
    for trial in range(trials):
        sums = _segment_sums(config, trial, band, layout)
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
