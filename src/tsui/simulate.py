"""Time-domain emulation of the homodyne records and spectrum analysis.

Generates correlated phase-quadrature noise for the probe/conjugate
detector pair from the Gaussian model, optionally with a calibration
phase tone on the probe, slow homodyne-lock jitter, and white electronic
noise.  A Welch-style band-power estimator then reads the records back
the way a spectrum analyzer would, normalized so that unit-variance
white noise sits at 0 dB.

Determinism: a record is a pure function of ``(config, trial)``.  Random
draws always happen in the same order (block jitter phases, then the
quadrature normals, then electronic noise for probe and conjugate), so
identical inputs give bit-identical records.  A scan generates its
trials on up to one thread per usable CPU, each from its own generator,
and pools their segment sums in trial order, so records and scans do
not depend on the number of workers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .fitting import NoiseDataset
from .gaussian import InterferometerParams, apply_loss, seeded_tmss
from .metrology import _validate_grid

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

# Segments windowed and transformed per rfft call, so the readout's
# temporaries stay a few MiB whatever the record length.
_SEGMENTS_PER_FFT = 64

# Input caps: the longest record is 8x the default length (2 x 64 MiB,
# about 130 MiB while generating and reading it), and a scan takes at
# most 1000 records.  A scan keeps at most _MAX_SAMPLES samples per arm
# in flight, however many workers it runs.
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
            raise ValueError(f"record too long: {self.n_samples} samples > {_MAX_SAMPLES}")
        if not 0.0 < self.tone_freq < self.sample_rate / 2.0:
            raise ValueError("tone_freq must lie in (0, sample_rate / 2)")
        if not 0.0 <= self.tone_depth <= 1.0:
            raise ValueError(f"tone_depth must lie in [0, 1], got {self.tone_depth!r}")
        if not 0.0 <= self.lock_jitter_rms <= 1.0:
            raise ValueError(
                f"lock_jitter_rms must lie in [0, 1] rad, got {self.lock_jitter_rms!r}"
            )
        if not 0.0 <= self.electronic_noise_var < math.inf:
            raise ValueError("electronic_noise_var must be finite and >= 0")
        if not isinstance(self.rng_seed, int) or self.rng_seed < 0:
            raise ValueError(f"rng_seed must be a nonnegative int, got {self.rng_seed!r}")
        if not (math.isfinite(self.jitter_block) and self.jitter_block > 0.0):
            raise ValueError("jitter_block must be > 0")
        if int(round(self.jitter_block * self.sample_rate)) < 1:
            raise ValueError("jitter_block is shorter than one sample")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration * self.sample_rate))


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


def simulate_records(
    config: SimConfig, trial: int = 0, *, out: np.ndarray | None = None
) -> MeasurementRecord:
    """Generate one pair of synchronized detector records.

    The two phase quadratures are drawn as a correlated Gaussian pair
    using the Cholesky factor of the loss-propagated covariance.  With
    lock jitter enabled, each arm's measured quadrature rotates by a
    block-constant random phase, which both mixes in amplitude-quadrature
    noise and leaks the bright carrier in as a block-constant offset.
    The calibration tone enters only the probe record, with amplitude
    slope * tone_depth where slope = 2 sqrt(eta_p G) alpha.

    Args:
        config: acquisition settings.
        trial: index of the acquisition; seeds the generator together
            with ``config.rng_seed``.
        out: optional float64 array of shape (2, n_samples) to draw into,
            so that a caller reading many records can reuse one buffer.
            The record's arrays are then read-only views of its rows.

    Returns:
        A :class:`MeasurementRecord` with ``n_samples`` points per arm.
    """
    if not isinstance(trial, int) or trial < 0:
        raise ValueError(f"trial must be a nonnegative int, got {trial!r}")
    n = config.n_samples
    if out is None:
        out = np.empty((2, n))
    elif not (isinstance(out, np.ndarray) and out.shape == (2, n) and out.dtype == float):
        raise ValueError(f"out must be a float64 array of shape (2, {n})")
    p = config.params
    state = apply_loss(seeded_tmss(p), p.eta_p, p.eta_c)
    cov4 = state.cov
    mean4 = state.mean
    rng = np.random.default_rng([config.rng_seed, trial])

    block = int(round(config.jitter_block * config.sample_rate))
    n_blocks = -(-n // block)
    if config.lock_jitter_rms > 0.0:
        phases = rng.normal(0.0, config.lock_jitter_rms, size=(n_blocks, 2))
    else:
        # Zero phase is exact (sin 0 = 0, cos 0 = 1) and draws nothing.
        phases = np.zeros((n_blocks, 2))
    blocks = [slice(b * block, min((b + 1) * block, n)) for b in range(n_blocks)]
    tone_amp = 2.0 * math.sqrt(p.eta_p * p.gain) * p.alpha * config.tone_depth
    omega = 2.0 * math.pi * config.tone_freq
    probe, conj = out
    # Block by block, the draws take the stream's numbers in the same
    # order as one whole-record draw would, so no record-sized
    # temporary is needed.
    for sl, (e_p, e_c) in zip(blocks, phases):
        # Rows pick out the rotated measurement direction per arm.
        u = np.array(
            [
                [math.sin(e_p), math.cos(e_p), 0.0, 0.0],
                [0.0, 0.0, math.sin(e_c), math.cos(e_c)],
            ]
        )
        chol = np.linalg.cholesky(u @ cov4 @ u.T)
        seg = rng.standard_normal((sl.stop - sl.start, 2)) @ chol.T
        offset = u @ mean4
        probe[sl] = seg[:, 0] + offset[0]
        conj[sl] = seg[:, 1] + offset[1]
        if config.tone_depth > 0.0:
            t = np.arange(sl.start, sl.stop) / config.sample_rate
            probe[sl] += tone_amp * math.cos(e_p) * np.sin(omega * t)
    if config.electronic_noise_var > 0.0:
        sigma = math.sqrt(config.electronic_noise_var)
        for arm in (probe, conj):
            for sl in blocks:
                arm[sl] += rng.normal(0.0, sigma, sl.stop - sl.start)
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
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam!r}")
    return record.probe + lam * record.conjugate


def _band_spectra(
    series: np.ndarray, sample_rate: float, center_freq: float, rbw: float
) -> np.ndarray:
    """In-band rfft bins of each independent Welch segment.

    Hann-windowed, zero-overlap segments with bin spacing rbw / 8; the
    band collects bins within rbw / 2 of the center.  The bins are scaled
    so that the sum of |S|^2 over a segment is its normalized band power:
    unit-variance white noise averages to 1.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ValueError("series must be 1-D")
    if not (rbw > 0.0 and sample_rate > 0.0):
        raise ValueError("rbw and sample_rate must be > 0")
    if not rbw / 2.0 < center_freq < sample_rate / 2.0 - rbw / 2.0:
        raise ValueError(
            "analysis band must lie strictly inside (0, sample_rate / 2)"
        )
    nperseg = int(round(_BINS_PER_RBW * sample_rate / rbw))
    if series.size < nperseg:
        raise ValueError(
            f"series too short: {series.size} samples, need >= {nperseg} "
            "for the requested resolution bandwidth"
        )
    n_seg = series.size // nperseg
    freqs = np.fft.rfftfreq(nperseg, 1.0 / sample_rate)
    band = np.abs(freqs - center_freq) <= rbw / 2.0
    n_bins = int(band.sum())
    if n_bins == 0:
        raise ValueError("no analysis bins fall inside the requested band")
    window = np.hanning(nperseg)
    segs = series[: n_seg * nperseg].reshape(n_seg, nperseg)
    # One-sided PSD 2|X|^2 / (fs W) integrated over the band (times df),
    # over the white-noise reference 2 n_bins df / fs: |X|^2 / (W n_bins).
    scale = 1.0 / math.sqrt(float(window @ window) * n_bins)
    # Fortran order is the layout a whole-array rfft()[:, band] has, so
    # later row sums reduce in the same order.
    out = np.empty((n_seg, n_bins), dtype=complex, order="F")
    for start in range(0, n_seg, _SEGMENTS_PER_FFT):
        rows = slice(start, start + _SEGMENTS_PER_FFT)
        out[rows] = np.fft.rfft(segs[rows] * window, axis=1)[:, band] * scale
    return out


def _cross_power(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-segment sum of Re(a b*) over the band bins."""
    return (a.real * b.real + a.imag * b.imag).sum(axis=1)


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
    spectra = _band_spectra(series, sample_rate, center_freq, rbw)
    mean_power = float(_cross_power(spectra, spectra).mean())
    is_peak = tone_freq is not None and abs(tone_freq - center_freq) <= rbw / 2.0
    return SpectrumResult(
        center_freq=center_freq,
        rbw=rbw,
        power_db=10.0 * math.log10(mean_power),
        is_peak=is_peak,
    )


def _scan_workers(config: SimConfig, trials: int) -> int:
    """Number of worker threads, each with one record buffer, of a scan.

    One per usable CPU and trial, but never more than fit in the sample
    cap of one record, so a scan holds at most ``_MAX_SAMPLES`` samples
    per arm however many records are in flight.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        cpus = os.cpu_count() or 1
    return min(trials, cpus, _MAX_SAMPLES // config.n_samples)


def _segment_sums(
    config: SimConfig, trial: int, center_freq: float, rbw: float, out: np.ndarray
) -> np.ndarray:
    """Per-segment (|P|^2, Re(P C*), |C|^2) band sums of one record.

    The record is drawn into ``out``, a (2, n_samples) buffer that the
    worker reuses for each of its trials.
    """
    record = simulate_records(config, trial=trial, out=out)
    p = _band_spectra(record.probe, config.sample_rate, center_freq, rbw)
    c = _band_spectra(record.conjugate, config.sample_rate, center_freq, rbw)
    return np.stack([_cross_power(p, p), _cross_power(p, c), _cross_power(c, c)])


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
    frequency.  Each segment's band power is the quadratic |P|^2 +
    2 lam Re(P C*) + lam^2 |C|^2 in the arms' band spectra, so one
    spectral pass per record serves every weight.  Segments from all
    trials are pooled; the quoted uncertainty is the standard error of
    their mean, mapped to dB.  Trials run on up to one thread per usable
    CPU (fewer for long records), with the same result for any number.

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
        A :class:`~tsui.fitting.NoiseDataset` tagged ``source="simulated"``.
    """
    grid = _validate_grid("lambda_grid", lambda_grid, 0.0, 1.0)
    if not isinstance(trials, int) or not 1 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must be an int in [1, {_MAX_TRIALS}], got {trials!r}")
    workers = _scan_workers(config, trials)
    # Worker k reads trials k, k + W, ... into one buffer that this thread
    # allocates: records allocated in the workers would be freed into
    # per-thread malloc arenas, which keep the memory (peak RSS).
    buffers = [np.empty((2, config.n_samples)) for _ in range(workers)]

    def read_trials(k: int) -> list[np.ndarray]:
        return [
            _segment_sums(config, i, center_freq, rbw, buffers[k])
            for i in range(k, trials, workers)
        ]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        per_worker = list(pool.map(read_trials, range(workers)))
    sums = np.concatenate(
        [per_worker[i % workers][i // workers] for i in range(trials)], axis=1
    )
    coef = np.stack([np.ones_like(grid), 2.0 * grid, grid * grid])
    mean_power = sums.mean(axis=1) @ coef
    variance = np.einsum("il,ij,jl->l", coef, np.cov(sums), coef)
    stderr = np.sqrt(variance / sums.shape[1])
    noise_db = 10.0 * np.log10(mean_power)
    sigma_db = (10.0 / math.log(10.0)) * stderr / mean_power
    p = config.params
    meta = {
        "gain": p.gain,
        "eta_p": p.eta_p,
        "eta_c": p.eta_c,
        "alpha": p.alpha,
        "center_freq": center_freq,
        "rbw": rbw,
        "trials": trials,
        "rng_seed": config.rng_seed,
    }
    return NoiseDataset(
        lam=grid, noise_db=noise_db, sigma_db=sigma_db, source="simulated", meta=meta
    )


_PARAM_KEYS = tuple(f.name for f in fields(InterferometerParams))
_CONFIG_KEYS = tuple(f.name for f in fields(SimConfig) if f.name != "params")


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
