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
identical inputs give bit-identical records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

_MIN_SAMPLES = 2**14


@dataclass(frozen=True)
class SimConfig:
    """Acquisition settings for one simulated homodyne run.

    Attributes:
        params: amplifier and transmission settings.
        sample_rate: detector sampling rate in Hz.
        duration: record length in seconds.
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
        if not 0.0 < self.tone_freq < self.sample_rate / 2.0:
            raise ValueError("tone_freq must lie in (0, sample_rate / 2)")
        if not 0.0 <= self.tone_depth <= 1.0:
            raise ValueError(f"tone_depth must lie in [0, 1], got {self.tone_depth!r}")
        if not 0.0 <= self.lock_jitter_rms <= 1.0:
            raise ValueError(
                f"lock_jitter_rms must lie in [0, 1] rad, got {self.lock_jitter_rms!r}"
            )
        if self.electronic_noise_var < 0.0:
            raise ValueError("electronic_noise_var must be >= 0")
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


def simulate_records(config: SimConfig, trial: int = 0) -> MeasurementRecord:
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

    Returns:
        A :class:`MeasurementRecord` with ``n_samples`` points per arm.
    """
    if not isinstance(trial, int) or trial < 0:
        raise ValueError(f"trial must be a nonnegative int, got {trial!r}")
    p = config.params
    state = apply_loss(seeded_tmss(p), p.eta_p, p.eta_c)
    cov4 = state.cov
    mean4 = state.mean
    n = config.n_samples
    rng = np.random.default_rng([config.rng_seed, trial])

    probe = np.empty(n)
    conj = np.empty(n)
    if config.lock_jitter_rms == 0.0:
        cov2 = cov4[np.ix_([1, 3], [1, 3])]
        chol = np.linalg.cholesky(cov2)
        noise = rng.standard_normal((n, 2)) @ chol.T
        probe[:] = noise[:, 0]
        conj[:] = noise[:, 1]
        tone_scale = np.ones(n)
    else:
        block = int(round(config.jitter_block * config.sample_rate))
        n_blocks = -(-n // block)
        phases = rng.normal(0.0, config.lock_jitter_rms, size=(n_blocks, 2))
        normals = rng.standard_normal((n, 2))
        tone_scale = np.empty(n)
        for b in range(n_blocks):
            sl = slice(b * block, min((b + 1) * block, n))
            e_p, e_c = phases[b]
            # Rows pick out the rotated measurement direction per arm.
            u = np.array(
                [
                    [math.sin(e_p), math.cos(e_p), 0.0, 0.0],
                    [0.0, 0.0, math.sin(e_c), math.cos(e_c)],
                ]
            )
            chol = np.linalg.cholesky(u @ cov4 @ u.T)
            seg = normals[sl] @ chol.T
            offset = u @ mean4
            probe[sl] = seg[:, 0] + offset[0]
            conj[sl] = seg[:, 1] + offset[1]
            tone_scale[sl] = math.cos(e_p)
    if config.tone_depth > 0.0:
        slope = 2.0 * math.sqrt(p.eta_p * p.gain) * p.alpha
        t = np.arange(n) / config.sample_rate
        probe += (
            slope
            * config.tone_depth
            * tone_scale
            * np.sin(2.0 * math.pi * config.tone_freq * t)
        )
    if config.electronic_noise_var > 0.0:
        sigma = math.sqrt(config.electronic_noise_var)
        probe += rng.normal(0.0, sigma, n)
        conj += rng.normal(0.0, sigma, n)
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


def _segment_band_powers(
    series: np.ndarray, sample_rate: float, center_freq: float, rbw: float
) -> np.ndarray:
    """Normalized band power of each independent Welch segment.

    Hann-windowed, zero-overlap segments with bin spacing rbw / 8; the
    band collects bins within rbw / 2 of the center and is normalized so
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
    window = np.hanning(nperseg)
    win_power = float(window @ window)
    segs = series[: n_seg * nperseg].reshape(n_seg, nperseg) * window
    spec = np.fft.rfft(segs, axis=1)
    freqs = np.fft.rfftfreq(nperseg, 1.0 / sample_rate)
    band = np.abs(freqs - center_freq) <= rbw / 2.0
    if not np.any(band):
        raise ValueError("no analysis bins fall inside the requested band")
    # One-sided PSD per segment, integrated over the band.  For white
    # noise of variance v each band integrates to v * (2 n_bins df / fs),
    # so dividing by that reference makes the output variance-calibrated.
    df = sample_rate / nperseg
    psd = 2.0 * np.abs(spec[:, band]) ** 2 / (sample_rate * win_power)
    band_power = psd.sum(axis=1) * df
    reference = 2.0 * int(band.sum()) * df / sample_rate
    return band_power / reference


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
    powers = _segment_band_powers(series, sample_rate, center_freq, rbw)
    mean_power = float(powers.mean())
    is_peak = tone_freq is not None and abs(tone_freq - center_freq) <= rbw / 2.0
    return SpectrumResult(
        center_freq=center_freq,
        rbw=rbw,
        power_db=10.0 * math.log10(mean_power),
        is_peak=is_peak,
    )


def measure_noise_vs_lambda(
    config: SimConfig,
    lambda_grid,
    trials: int = 2,
    center_freq: float = 1e6,
    rbw: float = 1e5,
) -> NoiseDataset:
    """Simulated noise-versus-weight scan, as the experiment records it.

    Generates ``trials`` independent records at the given settings, then
    for each weight combines the detector signals and reads the band
    power at the analysis frequency.  Per-segment band powers from all
    trials are pooled; the quoted uncertainty is the standard error of
    their mean, mapped to dB.

    Because every weight reuses the same records, the scan's points are
    strongly correlated across lambda: the whole curve shifts together
    with the noise realization.  Each sigma_db is honest for its own
    point, but residuals of a good model fit will sit well below it.

    Args:
        config: acquisition settings (the tone is normally off here).
        lambda_grid: strictly increasing weights in [0, 1].
        trials: number of independent records, >= 1.
        center_freq: analysis frequency in Hz.
        rbw: resolution bandwidth in Hz.

    Returns:
        A :class:`~tsui.fitting.NoiseDataset` tagged ``source="simulated"``.
    """
    grid = _validate_grid("lambda_grid", lambda_grid, 0.0, 1.0)
    if not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be a positive int, got {trials!r}")
    records = [simulate_records(config, trial=i) for i in range(trials)]
    noise_db = np.empty(grid.size)
    sigma_db = np.empty(grid.size)
    for i, lam in enumerate(grid):
        powers = np.concatenate(
            [
                _segment_band_powers(
                    combine_weighted(rec, float(lam)),
                    config.sample_rate,
                    center_freq,
                    rbw,
                )
                for rec in records
            ]
        )
        mean_power = float(powers.mean())
        stderr = float(powers.std(ddof=1)) / math.sqrt(powers.size)
        noise_db[i] = 10.0 * math.log10(mean_power)
        sigma_db[i] = (10.0 / math.log(10.0)) * stderr / mean_power
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


_PARAM_KEYS = ("gain", "eta_p", "eta_c", "alpha")
_CONFIG_KEYS = (
    "sample_rate",
    "duration",
    "tone_freq",
    "tone_depth",
    "lock_jitter_rms",
    "electronic_noise_var",
    "rng_seed",
    "jitter_block",
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
                values[key] = float(text)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: could not parse value {text!r} for {key!r}"
                ) from None
    if "gain" not in values:
        raise ValueError(f"{path}: missing required key 'gain'")
    params = InterferometerParams(
        gain=values.pop("gain"),
        eta_p=values.pop("eta_p", 1.0),
        eta_c=values.pop("eta_c", 1.0),
        alpha=values.pop("alpha", 0.0),
    )
    if "rng_seed" in values:
        seed = values["rng_seed"]
        if seed != int(seed):
            raise ValueError(f"{path}: rng_seed must be an integer, got {seed!r}")
        values["rng_seed"] = int(seed)
    return SimConfig(params=params, **values)
