import dataclasses
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scan_reference import materialised_segment_sums, serial_band_spectra

from tsui import simulate
from tsui.data import RANGES
from tsui.gaussian import InterferometerParams, apply_loss, seeded_tmss
from tsui.metrology import joint_noise_power, joint_variance_quadratic, lambda_opt
from tsui.simulate import (
    _MAX_SAMPLES,
    _MIN_SAMPLES,
    SimConfig,
    load_sim_config,
    measure_noise_vs_lambda,
    simulate_records,
)

FS = 8e6
SHORT = 0.004
MEDIUM = 0.016


@pytest.fixture
def cold_plan():
    """An empty plan cache before the test and after it, so that no later
    test holds a plan built through a monkeypatched _band or _pieces."""
    simulate._plan.cache_clear()
    yield
    simulate._plan.cache_clear()


def plan_layout(cfg, plan):
    """The layout groups (simulate._layout) that ``plan``, ``cfg``'s scan
    plan, draws from."""
    step = 2.0 * math.pi * cfg.tone_freq / cfg.sample_rate if cfg.tone_depth else None
    return simulate._layout(plan.band, simulate._block_samples(cfg), step)


def draw_order(plan):
    """The segments of ``plan``'s draw groups in turn: the order of
    simulate._segment_sums' columns."""
    return np.concatenate([segments for _, _, _, _, segments, *_ in plan.draws])


def config(gain=2.0, eta_p=1.0, eta_c=1.0, alpha=0.0, **kwargs):
    params = InterferometerParams(gain=gain, eta_p=eta_p, eta_c=eta_c, alpha=alpha)
    kwargs.setdefault("duration", SHORT)
    return SimConfig(params=params, **kwargs)


def serial_records(cfg, trial):
    """Whole-record reference generator: one normals draw for the record,
    one matmul per jitter block, then the tone and each arm's electronic
    noise over the whole record."""
    p = cfg.params
    state = apply_loss(seeded_tmss(p), p.eta_p, p.eta_c)
    n = cfg.n_samples
    rng = np.random.default_rng([cfg.rng_seed, trial])
    block = int(round(cfg.jitter_block * cfg.sample_rate))
    n_blocks = -(-n // block)
    if cfg.lock_jitter_rms > 0.0:
        phases = rng.normal(0.0, cfg.lock_jitter_rms, size=(n_blocks, 2))
    else:
        phases = np.zeros((n_blocks, 2))
    normals = rng.standard_normal((n, 2))
    probe = np.empty(n)
    conj = np.empty(n)
    tone_scale = np.empty(n)
    for b in range(n_blocks):
        sl = slice(b * block, min((b + 1) * block, n))
        e_p, e_c = phases[b]
        u = np.array(
            [
                [math.sin(e_p), math.cos(e_p), 0.0, 0.0],
                [0.0, 0.0, math.sin(e_c), math.cos(e_c)],
            ]
        )
        chol = np.linalg.cholesky(u @ state.cov @ u.T)
        seg = normals[sl] @ chol.T
        offset = u @ state.mean
        probe[sl] = seg[:, 0] + offset[0]
        conj[sl] = seg[:, 1] + offset[1]
        tone_scale[sl] = math.cos(e_p)
    if cfg.tone_depth > 0.0:
        slope = 2.0 * math.sqrt(p.eta_p * p.gain) * p.alpha
        t = np.arange(n) / cfg.sample_rate
        probe += (
            slope * cfg.tone_depth * tone_scale * np.sin(2.0 * math.pi * cfg.tone_freq * t)
        )
    if cfg.electronic_noise_var > 0.0:
        sigma = math.sqrt(cfg.electronic_noise_var)
        probe += rng.normal(0.0, sigma, n)
        conj += rng.normal(0.0, sigma, n)
    return probe, conj


def serial_scan(records, sample_rate, grid, center_freq=1e6, rbw=1e5):
    """(noise_db, sigma_db) of the records' pooled segments, in order."""

    def cross(a, b):
        return (a.real * b.real + a.imag * b.imag).sum(axis=1)

    per_trial = []
    for probe, conj in records:
        p = serial_band_spectra(probe, sample_rate, center_freq, rbw)
        c = serial_band_spectra(conj, sample_rate, center_freq, rbw)
        per_trial.append(np.stack([cross(p, p), cross(p, c), cross(c, c)]))
    sums = np.concatenate(per_trial, axis=1)
    coef = np.stack([np.ones_like(grid), 2.0 * grid, grid * grid])
    mean_power = sums.mean(axis=1) @ coef
    variance = np.einsum("il,ij,jl->l", coef, np.cov(sums), coef)
    stderr = np.sqrt(variance / sums.shape[1])
    return 10.0 * np.log10(mean_power), (10.0 / math.log(10.0)) * stderr / mean_power


class TestSimConfig:
    def test_n_samples(self):
        assert config(duration=SHORT).n_samples == 32000

    def test_validation(self):
        with pytest.raises(ValueError, match="record too short"):
            config(duration=1e-3)
        with pytest.raises(ValueError, match="tone_freq"):
            config(tone_freq=5e6)
        with pytest.raises(ValueError, match="tone_depth"):
            config(tone_depth=1.5)
        with pytest.raises(ValueError, match="lock_jitter_rms"):
            config(lock_jitter_rms=-0.1)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="electronic_noise_var"):
                config(electronic_noise_var=bad)
        with pytest.raises(ValueError, match="too long"):
            config(duration=(2**23 + 1) / FS)
        assert config(duration=2**23 / FS).n_samples == 2**23
        with pytest.raises(ValueError, match="rng_seed"):
            config(rng_seed=1.5)
        with pytest.raises(ValueError, match="rng_seed must be a nonnegative int, got True"):
            config(rng_seed=True)
        with pytest.raises(ValueError, match="jitter_block"):
            config(jitter_block=0.0)
        with pytest.raises(ValueError, match="params"):
            SimConfig(params=2.0)


class TestSimulateRecords:
    def test_deterministic(self):
        cfg = config(gain=1.67, eta_p=0.76, eta_c=0.79, rng_seed=7)
        a = simulate_records(cfg, trial=3)
        b = simulate_records(cfg, trial=3)
        assert np.array_equal(a.probe, b.probe)
        assert np.array_equal(a.conjugate, b.conjugate)

    def test_trials_independent(self):
        cfg = config(rng_seed=7)
        a = simulate_records(cfg, trial=0)
        b = simulate_records(cfg, trial=1)
        assert not np.array_equal(a.probe, b.probe)

    def test_outputs_read_only(self):
        rec = simulate_records(config())
        for arm in (rec.probe, rec.conjugate):
            with pytest.raises(ValueError):
                arm[0] = 0.0

    def test_vacuum_statistics(self):
        rec = simulate_records(config(gain=1.0, rng_seed=1))
        assert abs(rec.probe.var() - 1.0) < 0.05
        assert abs(rec.conjugate.var() - 1.0) < 0.05
        assert abs(np.cov(rec.probe, rec.conjugate)[0, 1]) < 0.05

    def test_lossy_covariance_matches_theory(self):
        gain, ep, ec = 2.0, 0.76, 0.79
        rec = simulate_records(config(gain=gain, eta_p=ep, eta_c=ec, rng_seed=2))
        vp, vc, cr = joint_variance_quadratic(gain, ep, ec)
        emp = np.cov(rec.probe, rec.conjugate)
        # 32000 samples: relative scatter of a variance is ~0.8%.
        assert abs(emp[0, 0] - vp) < 0.05 * vp
        assert abs(emp[1, 1] - vc) < 0.05 * vc
        assert abs(emp[0, 1] - cr) < 0.05 * abs(cr)

    def test_bright_mean_offsets(self):
        gain, alpha = 2.0, 30.0
        rec = simulate_records(config(gain=gain, alpha=alpha, rng_seed=3))
        # Phase quadratures carry no displacement; the seed lives in the
        # amplitude quadratures, so both records average to zero.
        assert abs(rec.probe.mean()) < 0.05
        assert abs(rec.conjugate.mean()) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_records(config(), trial=-1)
        with pytest.raises(ValueError, match="trial must be a nonnegative int, got True"):
            simulate_records(config(), trial=True)

    def test_no_jitter_keeps_the_random_stream(self):
        # Without jitter the records are the quadrature normals through
        # the Cholesky factor of the phase-quadrature covariance, drawn
        # first from the stream, with no jitter phases drawn before them.
        cfg = config(gain=1.67, eta_p=0.76, eta_c=0.79, rng_seed=7)
        rec = simulate_records(cfg, trial=2)
        state = apply_loss(seeded_tmss(cfg.params), 0.76, 0.79)
        chol = np.linalg.cholesky(state.cov[np.ix_([1, 3], [1, 3])])
        normals = np.random.default_rng([7, 2]).standard_normal((cfg.n_samples, 2))
        expected = normals @ chol.T
        assert np.allclose(rec.probe, expected[:, 0], rtol=0.0, atol=1e-12)
        assert np.allclose(rec.conjugate, expected[:, 1], rtol=0.0, atol=1e-12)


    def test_one_sample_blocks_take_time_linear_in_samples(self):
        # Every sample its own jitter block: the record matches the serial
        # reference to round-off, and a 2^20-sample one is drawn without a
        # Python iteration per block (which took about 10 s).
        cfg = config(
            gain=1.67, eta_p=0.76, eta_c=0.79, alpha=50.0, rng_seed=5, duration=2**14 / FS,
            lock_jitter_rms=0.05, tone_depth=0.05, electronic_noise_var=0.1, jitter_block=1 / FS,
        )
        rec = simulate_records(cfg)
        for arm, ref in zip((rec.probe, rec.conjugate), serial_records(cfg, 0)):
            assert np.abs(arm - ref).max() <= 1e-13 * ref.std()
        long = dataclasses.replace(cfg, duration=2**20 / FS)
        t0 = time.perf_counter()
        simulate_records(long)
        assert time.perf_counter() - t0 < 3.0


class TestReadoutRows:
    @pytest.mark.parametrize(
        "n, nperseg", [(2**20, 2**20), (100_003, 100_003), (80_017, 40_000), (2**15, 9_000)]
    )
    def test_rows_match_rfft(self, n, nperseg):
        # Segments read through the scan's windowed rows, _CHUNK positions
        # at a time, against whole-segment rffts: one segment spanning the
        # record, a long segment with a short last run, several long
        # segments, and segments followed by an unread tail.
        series = np.random.default_rng(n).standard_normal(n)
        rbw = 8 * FS / nperseg
        band = simulate._band(n, FS, 1e6, rbw)
        assert band.nperseg == nperseg
        assert band.basis.shape[0] == min(nperseg, simulate._CHUNK)
        segments = series[: band.n_seg * nperseg].reshape(band.n_seg, nperseg)
        spectra = sum(
            segments[:, lo:hi] @ simulate._rows(band, lo, hi)
            for lo, hi in simulate._runs(0, nperseg, simulate._CHUNK)
        )
        re, im = np.split(spectra, 2, axis=1)
        ref = serial_band_spectra(series, FS, 1e6, rbw)
        assert ref.shape == re.shape
        assert np.abs(re + 1j * im - ref).max() <= 1e-12 * np.abs(ref).max()


class TestMeasuredScan:
    def test_matches_analytic_noise_curve(self):
        gain, ep, ec = 1.67, 0.76, 0.79
        cfg = config(gain=gain, eta_p=ep, eta_c=ec, duration=MEDIUM, rng_seed=5)
        params = cfg.params
        grid = [0.0, 0.25, 0.5, lambda_opt(params), 1.0]
        data = measure_noise_vs_lambda(cfg, grid, trials=2)
        assert data.source == "simulated"
        assert data.meta["gain"] == gain
        for lam, db, sigma in zip(data.lam, data.noise_db, data.sigma_db):
            theory = joint_noise_power(params, lam).variance_db
            assert abs(db - theory) < 5.0 * sigma
            assert sigma > 0.0

    def test_vacuum_scan_flat_at_zero_db(self):
        cfg = config(gain=1.0, duration=MEDIUM, rng_seed=6)
        data = measure_noise_vs_lambda(cfg, [0.0, 0.25, 0.5, 0.75, 1.0], trials=2)
        for lam, db in zip(data.lam, data.noise_db):
            assert abs(db - 10.0 * math.log10(1.0 + lam**2)) < 0.3

    def test_jitter_raises_squeezed_floor(self):
        # Lock error rotates anti-squeezed quadrature noise into the
        # readout, lifting the optimally weighted floor monotonically.
        lam = lambda_opt(InterferometerParams(gain=2.0))
        grid = [0.0, 0.25, 0.5, lam, 1.0]
        floors = []
        for jit in (0.0, 0.1, 0.3):
            cfg = config(
                gain=2.0, duration=MEDIUM, rng_seed=8, lock_jitter_rms=jit
            )
            data = measure_noise_vs_lambda(cfg, grid, trials=2)
            floors.append(data.noise_db[3])
        assert floors[0] < floors[1] < floors[2]

    def test_electronic_noise_raises_floor(self):
        quiet = config(gain=2.0, duration=MEDIUM, rng_seed=9)
        noisy = config(
            gain=2.0, duration=MEDIUM, rng_seed=9, electronic_noise_var=0.5
        )
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        db_quiet = measure_noise_vs_lambda(quiet, grid, trials=1).noise_db[-1]
        db_noisy = measure_noise_vs_lambda(noisy, grid, trials=1).noise_db[-1]
        var = joint_noise_power(quiet.params, 1.0).variance
        expected_jump = 10.0 * math.log10((var + 0.5 * 2.0) / var)
        assert abs((db_noisy - db_quiet) - expected_jump) < 0.35

    def test_grid_validation(self):
        cfg = config()
        full = [0.0, 0.25, 0.5, 0.75, 1.0]
        with pytest.raises(ValueError):
            measure_noise_vs_lambda(cfg, [], trials=1)
        with pytest.raises(ValueError):
            measure_noise_vs_lambda(cfg, [0.0, 0.25, 0.5, 0.75, 2.0], trials=1)
        with pytest.raises(ValueError):
            measure_noise_vs_lambda(cfg, full, trials=0)
        with pytest.raises(ValueError):
            measure_noise_vs_lambda(cfg, [0.0, 1.0], trials=1)
        with pytest.raises(ValueError, match="trials"):
            measure_noise_vs_lambda(cfg, full, trials=1001)
        with pytest.raises(ValueError, match=r"trials must be an int in \[1, 1000\], got True"):
            measure_noise_vs_lambda(cfg, full, trials=True)

    def test_quadratic_readout_matches_direct_combination(self):
        # Three trials: every point is the mean of the per-segment band
        # powers a^2 |U|^2 + 2 a b Re(U W*) + b^2 |W|^2 of the drawn sums,
        # and sigma_db their standard error from np.cov, both to 1e-12.
        cfg = config(gain=1.67, eta_p=0.76, eta_c=0.79, duration=MEDIUM, rng_seed=10)
        grid = np.linspace(0.0, 1.0, 11)
        data = measure_noise_vs_lambda(cfg, grid, trials=3, center_freq=1.5e6, rbw=2e5)
        plan, model = simulate._scan_plan(cfg, 1.5e6, 2e5), simulate._model(cfg.params)
        band = plan.band
        sums = np.hstack([simulate._segment_sums(cfg, trial, plan, model) for trial in range(3)])
        assert data.meta["segments"] == sums.shape[1] == 3 * band.n_seg
        for lam, db, sigma in zip(grid, data.noise_db, data.sigma_db):
            a, b = (1.0 + lam) / 2.0, (1.0 - lam) / 2.0
            coef = np.array([a * a, 2.0 * a * b, b * b])
            powers = coef @ sums
            assert abs(db - 10.0 * math.log10(powers.mean())) <= 1e-12
            stderr = math.sqrt(coef @ np.cov(sums) @ coef / powers.size) / powers.mean()
            assert math.isclose(sigma, 10.0 / math.log(10.0) * stderr, rel_tol=1e-12)

    def test_scan_calls_no_rfft_and_builds_basis_once(self, monkeypatch, cold_plan):
        # Once per setting per process: a repeat with another seed, grid
        # and trial count builds nothing, a new rbw builds again.
        def no_rfft(*args, **kwargs):
            raise AssertionError("the scan called np.fft.rfft")

        band = simulate._band
        builds = []
        monkeypatch.setattr(np.fft, "rfft", no_rfft)
        monkeypatch.setattr(simulate, "_band", lambda *args: builds.append(args) or band(*args))
        for seed, n_lam, trials, rbw, n_builds in (
            (11, 5, 3, 1e5, 1), (12, 41, 2, 1e5, 0), (12, 41, 2, 2e5, 1)
        ):
            builds.clear()
            grid = np.linspace(0.0, 1.0, n_lam)
            measure_noise_vs_lambda(config(rng_seed=seed), grid, trials=trials, rbw=rbw)
            assert len(builds) == n_builds

    def test_band_checked_before_any_draw(self, monkeypatch):
        # A bad band fails before a 2^23-sample scan draws.
        segment_sums = simulate._segment_sums
        draws = []
        monkeypatch.setattr(
            simulate, "_segment_sums", lambda *args: draws.append(args) or segment_sums(*args)
        )
        longest = config(duration=_MAX_SAMPLES / FS)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        for kwargs, word in (
            ({"center_freq": 5e6}, "inside"),
            ({"center_freq": 1e3}, "inside"),
            ({"rbw": 1.0}, "too short"),
            ({"rbw": math.inf}, "finite"),
        ):
            with pytest.raises(ValueError, match=word):
                measure_noise_vs_lambda(longest, grid, trials=2, **kwargs)
        assert draws == []
        measure_noise_vs_lambda(config(), grid, trials=1)
        assert len(draws) == 1

    def test_fewer_than_two_segments_fail_before_any_draw(self, monkeypatch):
        # One 16384-sample segment in one trial leaves no spread to take a
        # standard error from; the scan says so before drawing.
        draws = []
        monkeypatch.setattr(simulate, "_segment_sums", lambda *args: draws.append(args))
        cfg = config(duration=_MIN_SAMPLES / FS)
        with pytest.raises(ValueError, match="pool 1 segment of 16384 samples"):
            measure_noise_vs_lambda(cfg, [0.0, 1.0], trials=1, rbw=3906.25)
        assert draws == []

    def test_memory_does_not_grow_with_trials(self):
        # Each trial's band spectra (2 x 144 B per segment) and sums are
        # gone before the next trial, which pools only its count, mean and
        # co-moments.  So 64 trials peak within 128 KiB of one; keeping
        # every segment's sums cost 64 x 409 x 3 x 8 B, about 0.6 MiB.
        cfg = config(duration=2**18 / FS, rng_seed=12)
        grid = np.linspace(0.0, 1.0, 21)
        measure_noise_vs_lambda(cfg, grid, trials=1)
        peaks = {}
        tracemalloc.start()
        try:
            for trials in (1, 64):
                tracemalloc.reset_peak()
                measure_noise_vs_lambda(cfg, grid, trials=trials)
                peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peaks[64] <= peaks[1] + 128 * 1024

    def test_longest_record_scan_peaks_far_below_a_record(self, monkeypatch):
        # A scan draws band spectra, never a sample, so a 2-trial scan of
        # the longest records peaks below an eighth of one record.
        longest = config(duration=_MAX_SAMPLES / FS, rng_seed=23)
        assert longest.n_samples == 2**23
        monkeypatch.setattr(simulate, "simulate_records", None)
        tracemalloc.start()
        try:
            measure_noise_vs_lambda(longest, [0.0, 0.25, 0.5, 0.75, 1.0], trials=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * longest.n_samples * 8 / 8

    def test_single_segment_scan_peaks_far_below_a_whole_segment_basis(self):
        # One segment spans the whole record.  The basis caches _CHUNK rows
        # and turns each run to its offset with one twiddle per bin, so a
        # 2-trial scan peaks far below the 144 B per segment sample of a
        # whole-segment basis (144 MiB here).
        n = 2**20
        cfg = config(duration=n / FS, rng_seed=24)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        measure_noise_vs_lambda(config(), grid, trials=1)  # numpy's first-call set-up
        tracemalloc.start()
        try:
            data = measure_noise_vs_lambda(cfg, grid, trials=2, rbw=61.03515625)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (data.meta["nperseg"], data.meta["segments"]) == (n, 2)
        assert peak < 144 * n / 32

    def test_jitter_blocks_shorter_than_a_segment_fail_before_any_draw(self, monkeypatch):
        # A segment over blocks shorter than itself would have up to one
        # distinct part per sample; a scan refuses such blocks.  The default
        # 1 ms block is 8,000 samples, and --rbw 5e3 makes 12,800-sample
        # segments.
        draws = []
        segment_sums = simulate._segment_sums
        monkeypatch.setattr(
            simulate, "_segment_sums", lambda *args: draws.append(args) or segment_sums(*args)
        )
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        jittered = config(lock_jitter_rms=0.02)
        message = (
            "jitter blocks of 8000 samples are shorter than a 12800-sample Welch "
            "segment; a scan needs a longer jitter_block or a wider rbw"
        )
        with pytest.raises(ValueError, match=message):
            measure_noise_vs_lambda(jittered, grid, trials=1, rbw=5e3)
        assert draws == []
        # A block of one segment runs, as does the capped largest block,
        # a scan without jitter, and a record of 1-sample blocks.
        for cfg in (
            dataclasses.replace(jittered, jitter_block=12_800 / FS),
            dataclasses.replace(jittered, jitter_block=sys.float_info.max),
            dataclasses.replace(jittered, lock_jitter_rms=0.0),
        ):
            data = measure_noise_vs_lambda(cfg, grid, trials=1, rbw=5e3)
            assert np.all(np.isfinite(data.noise_db))
        assert len(draws) == 3
        simulate_records(dataclasses.replace(jittered, jitter_block=1 / FS))


class TestParallelScan:
    """The serial whole-record algorithm, which factors each jitter
    block's covariance with LAPACK, stays here as the reference.  Records
    draw each block from the model's closed-form factor, so they match it
    to round-off (1e-13 of each arm's rms).  Scans draw band spectra, so
    they match its readout in distribution (TestInBandNoise)."""

    CONFIGS = {
        "plain": {},
        # A 5600-sample block leaves a partial last block.
        "jitter_electronic": {
            "lock_jitter_rms": 0.05,
            "electronic_noise_var": 0.1,
            "jitter_block": 0.0007,
        },
        "jitter_tone": {"lock_jitter_rms": 0.05, "tone_depth": 0.05},
        # 20000-sample blocks: a record draws each in pieces of at most
        # _CHUNK samples.
        "long_blocks": {
            "lock_jitter_rms": 0.05,
            "electronic_noise_var": 0.1,
            "jitter_block": 0.0025,
        },
        # 800-sample blocks: about 10 per 8192-sample piece, cut at both
        # edges of most; a scan cuts most 640-sample segments in two.
        "short_blocks": {"lock_jitter_rms": 0.05, "tone_depth": 0.05, "jitter_block": 1e-4},
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_matches_serial_reference(self, name):
        cfg = config(
            gain=1.67, eta_p=0.76, eta_c=0.79, alpha=50.0, duration=MEDIUM,
            rng_seed=21, **self.CONFIGS[name],
        )
        for trial in range(8):
            probe, conj = serial_records(cfg, trial)
            rec = simulate_records(cfg, trial=trial)
            for arm, ref in ((rec.probe, probe), (rec.conjugate, conj)):
                assert np.abs(arm - ref).max() <= 1e-13 * ref.std()


class TestClosedFormDraw:
    """Records and scans draw each jitter block from the model's
    closed-form (V_p, V_c, C), with no LAPACK Cholesky, and a scan's
    spectra of the sum and difference of the arms keep the squeezed
    readout's digits at high gain."""

    def test_no_cholesky_in_records_or_scans(self, monkeypatch):
        def no_cholesky(*args, **kwargs):
            raise AssertionError("np.linalg.cholesky was called")

        monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
        cfg = config(
            gain=1.67, eta_p=0.76, eta_c=0.79, alpha=50.0, rng_seed=30,
            lock_jitter_rms=0.05, tone_depth=0.05, jitter_block=1e-4,
        )
        simulate_records(dataclasses.replace(cfg, electronic_noise_var=0.1))
        measure_noise_vs_lambda(cfg, np.linspace(0.0, 1.0, 5), trials=2)

    @pytest.mark.parametrize("gain", [1e3, 1e4, 1e6, 1e12])
    def test_high_gain_scan_matches_theory_in_distribution(self, gain):
        # Lossless, probe + conjugate has variance about 1 / (2 G) against
        # about 2 G per arm, which samples would leave to round-off past
        # G ~ 1e6.  Over 60 seeds of a 1-trial scan, the mean noise_db lies
        # within 4 standard errors of theory at every weight.
        grid = np.linspace(0.0, 1.0, 11)
        params = InterferometerParams(gain=gain)
        theory = np.array([joint_noise_power(params, lam).variance_db for lam in grid])
        scans = np.array([
            measure_noise_vs_lambda(
                config(gain=gain, duration=2**16 / FS, rng_seed=seed), grid, trials=1
            ).noise_db
            for seed in range(60)
        ])
        stderr = scans.std(axis=0, ddof=1) / math.sqrt(len(scans))
        assert np.all(np.abs(scans.mean(axis=0) - theory) <= 4.0 * stderr)


def dense_band_gram(nperseg, bins, s0=0, s1=None):
    """Gram matrix of a Hann segment's in-band impulse responses at
    positions s0 .. s1 - 1, summed densely: the rfft of a windowed unit
    impulse at t is w(t) exp(-2 pi i k t / nperseg) on bin k, laid out as
    [real parts, imaginary parts]."""
    t = np.arange(nperseg)[s0:s1]
    angle = (2.0 * math.pi / nperseg) * (np.outer(t, bins) % nperseg)
    rows = np.hanning(nperseg)[t, np.newaxis] * np.hstack([np.cos(angle), -np.sin(angle)])
    return rows.T @ rows


class TestInBandNoise:
    """A scan draws each segment's band spectra, or those of its parts in
    two jitter blocks, as N(mean, S x G), with G the Gram matrix of the
    part's in-band DFT rows, instead of drawing samples."""

    @pytest.mark.parametrize("nperseg", [640, 9_000, 20_000])
    def test_gram_matches_dense_impulse_responses(self, nperseg):
        # The default segment, and two longer than _CHUNK whose last
        # basis block is short; whole, and cut into [0, c) and [c, n),
        # with one part shorter than 2 n_bins (and so rank-deficient: F
        # has one row per kept eigenvalue).
        band = simulate._band(2**20, FS, 1e6, 8 * FS / nperseg)
        assert band.nperseg == nperseg
        ref = dense_band_gram(nperseg, band.bins) * band.scale**2
        ((gram,), _) = simulate._pieces(band, [0, nperseg], 0.0)
        assert np.abs(gram - ref).max() <= 1e-12 * np.abs(ref).max()
        short = 2 * band.bins.size - 5
        for s0, s1 in ((0, nperseg), (0, short), (short, nperseg), (0, 250), (250, nperseg)):
            # The factor reproduces the readout's scaled Gram.
            scaled = dense_band_gram(nperseg, band.bins, s0, s1) * band.scale**2
            ((gram,), _) = simulate._pieces(band, [s0, s1], 0.0)
            factor = simulate._factor(gram)
            assert np.array_equal(factor, np.triu(factor))
            assert np.all(np.diag(factor) >= 0.0)
            assert np.abs(factor.T @ factor - scaled).max() <= 1e-12 * np.abs(scaled).max()
            assert len(factor) <= min(s1 - s0, len(scaled))

    @pytest.mark.parametrize("jitter_block", [None, 0.0007])
    def test_layout_whole_segments_factor_dense_gram(self, jitter_block):
        # Without jitter every segment is whole; 5600-sample blocks cut
        # most 640-sample segments, and the whole ones sum every piece
        # between the cuts.  Either way the whole-segment group's F^T F is
        # the dense Gram of the segment's rows.
        extra = {} if jitter_block is None else {
            "lock_jitter_rms": 0.05, "jitter_block": jitter_block
        }
        cfg = config(duration=MEDIUM, rng_seed=12, **extra)
        plan = simulate._scan_plan(cfg, 1e6, 1e5)
        band, layout = plan.band, plan_layout(cfg, plan)
        factor, _, segments, _, _, part = layout[0]
        assert part == 0 and segments.size > 0
        assert (len(layout) > 1) == (jitter_block is not None)
        ref = dense_band_gram(band.nperseg, band.bins) * band.scale**2
        assert np.abs(factor.T @ factor - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "extra, grid, trials",
        [
            ({}, np.linspace(0.0, 1.0, 21), 2),
            ({"lock_jitter_rms": 0.02, "electronic_noise_var": 0.1}, np.linspace(0.6, 1.0, 5), 8),
            ({"tone_depth": 0.05, "lock_jitter_rms": 0.05, "jitter_block": 1e-4},
             np.linspace(0.0, 1.0, 11), 2),
        ],
        ids=["plain", "jitter", "tone"],
    )
    def test_tone_rows_only_with_a_tone(self, monkeypatch, cold_plan, extra, grid, trials):
        # A scan builds the tone's read rows only when it has a tone.
        # Without one, the unit read still comes from a three-row product,
        # so the scan is bit-identical to one whose pieces read a tone too.
        cfg = config(gain=1.67, eta_p=0.76, eta_c=0.79, alpha=50.0, rng_seed=5, **extra)
        plain = measure_noise_vs_lambda(cfg, grid, trials=trials)
        pieces, steps = simulate._pieces, []

        def with_tone_rows(band, edges, tone_step):
            steps.append(tone_step)
            return pieces(band, edges, 0.3 if tone_step is None else tone_step)

        monkeypatch.setattr(simulate, "_pieces", with_tone_rows)
        simulate._plan.cache_clear()
        forced = measure_noise_vs_lambda(cfg, grid, trials=trials)
        assert steps and all((step is None) == (cfg.tone_depth == 0.0) for step in steps)
        assert np.array_equal(plain.noise_db, forced.noise_db)
        assert np.array_equal(plain.sigma_db, forced.sigma_db)

    @pytest.mark.parametrize("name", sorted(TestParallelScan.CONFIGS))
    def test_scan_matches_time_domain_draw_in_distribution(self, name):
        # 200 seeds of a 1-trial scan against the rfft readout of the same
        # seeds' records, which draw every sample.  The paired mean
        # difference has |z| <= 4 at every weight; the seed-to-seed spread
        # and the mean quoted sigma agree within [0.8, 1.25] and 3 %.
        grid = np.linspace(0.0, 1.0, 5)
        scans, refs, sigmas, ref_sigmas = [], [], [], []
        for seed in range(1000, 1200):
            cfg = config(
                gain=1.67, eta_p=0.76, eta_c=0.79, alpha=50.0, rng_seed=seed,
                **TestParallelScan.CONFIGS[name],
            )
            data = measure_noise_vs_lambda(cfg, grid, trials=1)
            noise_db, sigma_db = serial_scan([serial_records(cfg, 0)], FS, grid)
            scans.append(data.noise_db)
            sigmas.append(data.sigma_db)
            refs.append(noise_db)
            ref_sigmas.append(sigma_db)
        scans, refs = np.array(scans), np.array(refs)
        diff = scans - refs
        z = diff.mean(axis=0) / (diff.std(axis=0, ddof=1) / math.sqrt(len(diff)))
        assert np.abs(z).max() <= 4.0
        spread = scans.std(axis=0, ddof=1) / refs.std(axis=0, ddof=1)
        assert np.all((0.8 <= spread) & (spread <= 1.25))
        sigma_ratio = np.mean(sigmas, axis=0) / np.mean(ref_sigmas, axis=0)
        assert np.all(np.abs(sigma_ratio - 1.0) <= 0.03)


class TestSegmentSumsReference:
    """A scan's band sums are quadratic forms in the inner products of its
    drawn rows and reads; tests/scan_reference.py builds each segment's W
    and U instead.  Same layout, seeds, trials and normals: every segment's
    three sums agree to 1e-12 of its |U|^2 + |W|^2."""

    LOSSY = {"gain": 1.67, "eta_p": 0.76, "eta_c": 0.79, "alpha": 50.0}
    CASES = {
        "no_jitter": (LOSSY, {}, 1e5),
        # 8000-sample blocks cut every other 640-sample segment at 320.
        "jitter": (LOSSY, {"lock_jitter_rms": 0.02, "electronic_noise_var": 0.1}, 1e5),
        # Off the bin grid, the tone starts each segment at its own phase.
        "jitter_tone": (
            LOSSY, {"lock_jitter_rms": 0.05, "tone_depth": 0.05, "tone_freq": 1.003e6}, 1e5
        ),
        # 12,800-sample segments, longer than _CHUNK, cut by 16,000-sample blocks.
        "long_segments": (
            LOSSY,
            {"lock_jitter_rms": 0.02, "electronic_noise_var": 0.1, "jitter_block": 0.002},
            5e3,
        ),
        # 641-sample blocks cut almost every segment at its own place, some
        # so near its start that the head's Gram is 0 (a rank-0 factor).
        "short_blocks": (LOSSY, {"lock_jitter_rms": 0.05, "jitter_block": 641 / FS}, 1e5),
        "lossless_1e8": ({"gain": 1e8}, {}, 1e5),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_materialised_spectra(self, name):
        params, extra, rbw = self.CASES[name]
        for seed in (3, 11):
            cfg = config(duration=MEDIUM, rng_seed=seed, **params, **extra)
            plan, model = simulate._scan_plan(cfg, 1e6, rbw), simulate._model(cfg.params)
            band, layout = plan.band, plan_layout(cfg, plan)
            if "jitter_block" in extra or "lock_jitter_rms" in extra:
                assert any(part == 1 for *_, part in layout)
            for trial in range(2):
                sums = simulate._segment_sums(cfg, trial, plan, model)
                ref = materialised_segment_sums(cfg, trial, band, layout)[:, draw_order(plan)]
                assert sums.shape == ref.shape == (3, band.n_seg)
                assert np.all(np.abs(sums - ref) <= 1e-12 * (ref[0] + ref[2]))

    def test_cases_reach_long_segments_and_empty_heads(self):
        _, extra, rbw = self.CASES["long_segments"]
        cfg = config(duration=MEDIUM, **extra)
        assert simulate._band(cfg.n_samples, FS, 1e6, rbw).nperseg > simulate._CHUNK
        _, extra, rbw = self.CASES["short_blocks"]
        cfg = config(duration=MEDIUM, **extra)
        layout = plan_layout(cfg, simulate._scan_plan(cfg, 1e6, rbw))
        assert min(len(factor) for factor, *_ in layout) == 0


class TestBandSumKernel:
    """A trial draws each group's normals a chunk of segments at a time
    into one buffer, takes every noise row and read projection as a
    vector over segments, and reads the band sums from their column dots
    (simulate._segment_sums).  Neither the chunk size nor what the buffer
    held before moves the sums."""

    LOSSY = TestSegmentSumsReference.LOSSY

    def test_chunked_draw_equals_one_draw(self):
        # A run of standard_normal(out=...) calls gives the numbers of one
        # call, in order: 66 segments of rank 16, drawn 7 segments at a
        # time into views of one buffer.
        size, rank, step = 66, 16, 7
        whole = np.random.default_rng([3, 0]).standard_normal((size, 2, rank))
        rng, buffer, chunks = np.random.default_rng([3, 0]), np.empty(2 * step * rank), []
        for lo, hi in simulate._runs(0, size, step):
            normals = buffer[: 2 * (hi - lo) * rank].reshape(hi - lo, 2, rank)
            rng.standard_normal(out=normals)
            chunks.append(normals.copy())
        assert np.array_equal(np.concatenate(chunks), whole)

    @pytest.mark.parametrize("name", ["jitter", "jitter_tone"])
    def test_small_chunks_leave_the_sums_unchanged(self, monkeypatch, cold_plan, name):
        # With 128-number runs every group spans chunks of at most 3
        # segments, a cut's head held over all of them; the sums agree
        # with one chunk per group to 1e-12 of |U|^2 + |W|^2.
        params, extra, rbw = TestSegmentSumsReference.CASES[name]
        cfg = config(duration=MEDIUM, rng_seed=3, **params, **extra)
        model = simulate._model(cfg.params)
        plan = simulate._scan_plan(cfg, 1e6, rbw)
        assert all(segments.size <= step for _, _, step, _, segments, *_ in plan.draws)
        refs = [simulate._segment_sums(cfg, trial, plan, model) for trial in range(2)]
        monkeypatch.setattr(simulate, "_RUN", 128)
        simulate._plan.cache_clear()
        small = simulate._scan_plan(cfg, 1e6, rbw)
        assert any(
            len(ranks) == 2 and segments.size > step
            for _, ranks, step, _, segments, *_ in small.draws
        )
        for trial, ref in enumerate(refs):
            sums = simulate._segment_sums(cfg, trial, small, model)
            assert np.all(np.abs(sums - ref) <= 1e-12 * (ref[0] + ref[2]))

    def test_a_larger_scan_between_leaves_no_trace(self):
        # Scan A, then B with four times the segments and a tone (a larger
        # buffer), then A again: A's two scans are identical.  A trial
        # overwrites whatever the held buffer held.
        a = config(rng_seed=5, lock_jitter_rms=0.02, electronic_noise_var=0.1, **self.LOSSY)
        b = dataclasses.replace(a, duration=MEDIUM, tone_depth=0.05, tone_freq=1.003e6)
        assert simulate._scan_plan(b, 1e6, 1e5).buffer > simulate._scan_plan(a, 1e6, 1e5).buffer
        grid = np.linspace(0.6, 1.0, 5)
        first = measure_noise_vs_lambda(a, grid, trials=2)
        measure_noise_vs_lambda(b, grid, trials=2)
        again = measure_noise_vs_lambda(a, grid, trials=2)
        assert np.array_equal(first.noise_db, again.noise_db)
        assert np.array_equal(first.sigma_db, again.sigma_db)
        for cfg in (a, b):
            plan, model = simulate._scan_plan(cfg, 1e6, 1e5), simulate._model(cfg.params)
            sums = simulate._segment_sums(cfg, 0, plan, model)
            simulate._buffer(plan.buffer)[:] = np.nan
            assert np.array_equal(simulate._segment_sums(cfg, 0, plan, model), sums)

    def test_buffer_of_the_longest_record_stays_small(self, monkeypatch):
        # 13,107 segments at 2^23 samples: the buffer holds one chunk's
        # normals and products, at most _RUN numbers each (1 MiB together),
        # and a 2-trial scan with jitter, its plan held, peaks under 3 MiB,
        # with the buffer, its segments' sums (0.3 MiB) and their
        # co-moments.
        cfg = config(
            duration=_MAX_SAMPLES / FS, rng_seed=23, lock_jitter_rms=0.02,
            electronic_noise_var=0.1,
        )
        grid = np.linspace(0.6, 1.0, 5)
        measure_noise_vs_lambda(cfg, grid, trials=1)  # the plan, held
        plan = simulate._scan_plan(cfg, 1e6, 1e5)
        assert plan.band.n_seg == 13_107 and any(len(ranks) == 2 for _, ranks, *_ in plan.draws)
        assert plan.buffer <= 2 * simulate._RUN
        monkeypatch.setattr(simulate._held, "buffer", None)  # made under tracemalloc
        tracemalloc.start()
        try:
            measure_noise_vs_lambda(cfg, grid, trials=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert simulate._held.buffer.size == plan.buffer
        assert peak <= 3 * 2**20, peak


class TestScanPlan:
    """A scan's plan (band and draw maps) is built once per
    setting and held until a scan at another setting: it must depend on
    every input that shapes it, and a held plan must be read-only and
    leave every input check where it was."""

    LOSSY = {"gain": 1.67, "eta_p": 0.76, "eta_c": 0.79, "alpha": 50.0}
    # Jitter, a tone off the analysis bin and 32,768 samples: every field
    # below reshapes the plan.
    BASE = {
        "duration": 2**15 / FS, "lock_jitter_rms": 0.05, "jitter_block": 1e-3,
        "tone_depth": 0.05, "tone_freq": 1.003e6,
    }
    CHANGES = {
        "duration": st.integers(_MIN_SAMPLES, 2**16).map(lambda n: {"duration": n / FS}),
        "sample_rate": st.floats(6e6, 1e7).map(lambda fs: {"sample_rate": fs}),
        "center_freq": st.floats(5e5, 2e6).map(lambda f: {"center_freq": f}),
        "rbw": st.floats(6e4, 2e5).map(lambda rbw: {"rbw": rbw}),
        "jitter": st.just({"lock_jitter_rms": 0.0}),
        "jitter_block": st.floats(1e-4, 2e-3).map(lambda s: {"jitter_block": s}),
        "tone": st.just({"tone_depth": 0.0}),
        "tone_freq": st.floats(5e5, 2e6).map(lambda f: {"tone_freq": f}),
    }

    def scan(self, fields, seed=5):
        band = {k: fields[k] for k in ("center_freq", "rbw") if k in fields}
        extra = {k: v for k, v in fields.items() if k not in band}
        cfg = config(rng_seed=seed, **self.LOSSY, **extra)
        return measure_noise_vs_lambda(cfg, [0.0, 0.25, 0.5, 0.75, 1.0], trials=1, **band)

    @settings(max_examples=64, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_key_is_complete(self, data):
        # Two settings that differ in one field: a scan straight after a
        # scan at the other setting equals, bit for bit, the same scan on
        # an empty cache.
        name = data.draw(st.sampled_from(sorted(self.CHANGES)))
        other = {**self.BASE, **data.draw(self.CHANGES[name])}
        first, second = data.draw(st.permutations([self.BASE, other]))
        simulate._plan.cache_clear()
        self.scan(first)
        after = self.scan(second)
        simulate._plan.cache_clear()
        cold = self.scan(second)
        assert np.array_equal(after.noise_db, cold.noise_db), name
        assert np.array_equal(after.sigma_db, cold.sigma_db), name

    def test_held_plan_is_read_only(self):
        cfg = config(rng_seed=3, **self.LOSSY, **self.BASE)
        plan = simulate._scan_plan(cfg, 1e6, 1e5)
        arrays = [plan.band.bins, plan.band.basis]
        for map_, _, _, read_gram, segments, blocks, tone in plan.draws:
            arrays += [map_, read_gram, segments, blocks, tone]
        assert any(len(ranks) == 2 for _, ranks, *_ in plan.draws)  # a cut's head and tail
        assert len(arrays) > 10
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1.0
        # A scan does not write into the plan it draws from.
        assert simulate._scan_plan(cfg, 1e6, 1e5) is plan
        self.scan(self.BASE, seed=3)
        assert simulate._scan_plan(cfg, 1e6, 1e5) is plan

    def test_one_plan_held(self):
        self.scan(self.BASE)
        self.scan({**self.BASE, "rbw": 2e5})
        info = simulate._plan.cache_info()
        assert (info.currsize, info.maxsize) == (1, 1)

    def test_warm_cache_checks_before_any_draw(self, monkeypatch):
        # One 16,384-sample segment over 8,000-sample jitter blocks, at a
        # band off the record's spectrum: whichever checks fail, the
        # scan raises the first in the order band, segment count, blocks,
        # on a cache warm at another setting and on one warm at its own.
        draws = []
        segment_sums = simulate._segment_sums
        monkeypatch.setattr(
            simulate, "_segment_sums", lambda *args: draws.append(args) or segment_sums(*args)
        )
        cfg = config(duration=_MIN_SAMPLES / FS, lock_jitter_rms=0.05)
        blocks = (
            "jitter blocks of 8000 samples are shorter than a 16384-sample Welch "
            "segment; a scan needs a longer jitter_block or a wider rbw"
        )
        cases = [
            ({"center_freq": 5e6, "trials": 1}, "analysis band must lie strictly inside"),
            ({"trials": 1}, "the scan would pool 1 segment of 16384 samples"),
            ({"trials": 2}, blocks),
        ]
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        for kwargs, message in cases:
            measure_noise_vs_lambda(config(), grid, trials=1)
            for _ in range(2):
                with pytest.raises(ValueError, match=message):
                    measure_noise_vs_lambda(cfg, grid, rbw=3906.25, **kwargs)
        assert len(draws) == len(cases)  # the warming scans' own


class TestLoadSimConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "sim.cfg"
        path.write_text(text)
        return str(path)

    def test_full_file(self, tmp_path):
        path = self.write(
            tmp_path,
            "# comment line\n"
            "gain = 1.67\n"
            "eta_p = 0.76  # inline comment\n"
            "eta_c = 0.79\n"
            "alpha = 50\n"
            "sample_rate = 8e6\n"
            "duration = 0.004\n"
            "tone_freq = 1e6\n"
            "tone_depth = 0.02\n"
            "lock_jitter_rms = 0.05\n"
            "electronic_noise_var = 0.1\n"
            "rng_seed = 42\n"
            "jitter_block = 0.001\n",
        )
        cfg = load_sim_config(path)
        assert cfg.params.gain == 1.67
        assert cfg.params.eta_p == 0.76
        assert cfg.params.alpha == 50.0
        assert cfg.rng_seed == 42
        assert cfg.n_samples == 32000

    def test_defaults_fill_in(self, tmp_path):
        cfg = load_sim_config(self.write(tmp_path, "gain = 2.0\n"))
        assert cfg.params.eta_p == 1.0
        assert cfg.sample_rate == FS
        assert cfg.rng_seed == 0

    def test_unknown_key_names_line(self, tmp_path):
        path = self.write(tmp_path, "gain = 2.0\nbogus = 1\n")
        with pytest.raises(ValueError, match=r":2: unknown key 'bogus'"):
            load_sim_config(path)

    def test_duplicate_key(self, tmp_path):
        path = self.write(tmp_path, "gain = 2.0\ngain = 3.0\n")
        with pytest.raises(ValueError, match=r":2: duplicate key"):
            load_sim_config(path)

    def test_missing_gain(self, tmp_path):
        path = self.write(tmp_path, "eta_p = 0.8\n")
        with pytest.raises(ValueError, match="missing required key 'gain'"):
            load_sim_config(path)

    def test_bad_value(self, tmp_path):
        path = self.write(tmp_path, "gain = huge\n")
        with pytest.raises(ValueError, match=r":1: could not parse"):
            load_sim_config(path)

    def test_missing_equals(self, tmp_path):
        path = self.write(tmp_path, "gain 2.0\n")
        with pytest.raises(ValueError, match=r":1: expected 'key = value'"):
            load_sim_config(path)

    def test_fractional_seed_rejected(self, tmp_path):
        path = self.write(tmp_path, "gain = 2.0\nrng_seed = 1.5\n")
        with pytest.raises(ValueError, match="rng_seed must be an integer"):
            load_sim_config(path)

    def test_large_seed_read_exactly(self, tmp_path):
        # 2^53 + 1 has no float; it used to load as 2^53.
        cfg = load_sim_config(self.write(tmp_path, "gain = 2.0\nrng_seed = 9007199254740993\n"))
        assert cfg.rng_seed == 2**53 + 1
        assert load_sim_config(self.write(tmp_path, "gain = 2.0\nrng_seed = 1e3\n")).rng_seed == 1000

    @settings(
        max_examples=200,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_round_trip(self, tmp_path, data):
        # Any valid config written as key = value lines reads back equal.
        unit = st.floats(0.0, 1.0)
        params = InterferometerParams(
            gain=data.draw(st.floats(1.0, 1e6)),
            eta_p=data.draw(unit),
            eta_c=data.draw(unit),
            alpha=data.draw(st.floats(0.0, 1e9)),
        )
        fs = data.draw(st.floats(1.0, 1e12))
        duration = data.draw(st.integers(_MIN_SAMPLES, _MAX_SAMPLES)) / fs
        cfg = SimConfig(
            params=params,
            sample_rate=fs,
            duration=duration,
            tone_freq=data.draw(st.floats(0.0, fs / 2.0, exclude_min=True, exclude_max=True)),
            tone_depth=data.draw(unit),
            lock_jitter_rms=data.draw(unit),
            electronic_noise_var=data.draw(st.floats(*RANGES["electronic_noise_var"])),
            rng_seed=data.draw(st.integers(0, 2**128)),
            jitter_block=data.draw(st.floats(1.0 / fs, duration)),
        )
        lines = [f"{k} = {v!r}" for k, v in dataclasses.asdict(params).items()]
        lines += [
            f"{f.name} = {getattr(cfg, f.name)!r}"
            for f in dataclasses.fields(cfg)
            if f.name != "params"
        ]
        assert load_sim_config(self.write(tmp_path, "\n".join(lines) + "\n")) == cfg
