"""Test-side references for a scan's readout.

:func:`serial_band_spectra` is the Welch readout of a time series, every
segment in one rfft call: records (:func:`tsui.simulate.simulate_records`)
read through it, and the scan's windowed rows are checked against it.

:func:`tsui.simulate._segment_sums` takes each segment's (|U|^2,
Re(U W*), |W|^2) from inner products of its noise rows and reads.
:func:`materialised_segment_sums` builds the band spectra W and U
themselves, as (segments, 2 n_bins) arrays, from the same layout and the
same normals in the same order, and takes the three sums as row dots: the
long way to the same numbers.
"""

import math

import numpy as np

from tsui.metrology import joint_variance
from tsui.simulate import _model, _phases

# Segments per draw; the normals do not depend on it.
RUN_SEGMENTS = 64


def serial_band_spectra(series, sample_rate, center_freq, rbw):
    """Per-segment band spectra (complex, segments x bins) of Hann-windowed,
    zero-overlap segments of 8 sample_rate / rbw samples, the tail after
    the last whole segment unread, scaled so that unit-variance white noise
    has a mean squared norm of 1 (0 dB)."""
    nperseg = int(round(8 * sample_rate / rbw))
    n_seg = series.size // nperseg
    band = np.abs(np.fft.rfftfreq(nperseg, 1.0 / sample_rate) - center_freq) <= rbw / 2.0
    window = np.hanning(nperseg)
    segs = series[: n_seg * nperseg].reshape(n_seg, nperseg) * window
    scale = 1.0 / math.sqrt(float(window @ window) * int(band.sum()))
    return np.fft.rfft(segs, axis=1)[:, band] * scale


def _cross_power(a, b):
    """Per-segment sum of Re(a b*) over the band bins of [real parts,
    imaginary parts] rows: a row dot."""
    return np.einsum("ij,ij->i", a, b)


def materialised_segment_sums(config, trial, band, layout):
    """Per-segment (|U|^2, Re(U W*), |W|^2) of one trial, from W and U.

    After the block phases, each layout group draws (k, 2, rank) normals
    xi for its k segments.  In a block whose (W, U) covariance is S, a
    part gets W = sqrt(S_WW) xi_0 @ F and U = S_WU / sqrt(S_WW) xi_0 @ F +
    sqrt(det S / S_WW) xi_1 @ F, plus each arm's carrier offset on the unit
    read and the tone on its two reads.  A cut segment's W and U are the
    sums of its two parts'.
    """
    rng = np.random.default_rng([config.rng_seed, trial])
    p, var = config.params, config.electronic_noise_var
    v_p, v_c, cross, rest, carrier_p, carrier_c = _model(p)
    e_p, e_c = _phases(config, rng).T
    s = e_p + e_c
    s_ww = joint_variance(p.gain, p.eta_p, p.eta_c, 1.0) - 4 * cross * np.cos(s / 2) ** 2 + 2 * var
    det = 4.0 * (v_p * rest + (cross * np.sin(s)) ** 2 + var * (v_p + v_c + var))
    l_w, l_u = np.sqrt(s_ww), np.sqrt(det / s_ww)
    l_uw = 2.0 * (p.eta_p - p.eta_c) * (p.gain - 1.0) / l_w
    o_p, o_c = carrier_p * np.sin(e_p), carrier_c * np.sin(e_c)
    o_w, o_u = o_p - o_c, o_p + o_c
    tone = carrier_p * config.tone_depth * np.cos(e_p)

    sums = np.empty((3, band.n_seg))
    for factor, reads, segments, blocks, phases, part in layout:
        if part == 1:
            cut = np.empty((2, segments.size, band.basis.shape[1]))
        for lo in range(0, segments.size, RUN_SEGMENTS):
            g, b = segments[lo : lo + RUN_SEGMENTS], blocks[lo : lo + RUN_SEGMENTS, np.newaxis]
            y = rng.standard_normal((g.size, 2, len(factor))) @ factor
            w = l_w[b] * y[:, 0] + o_w[b] * reads[0]
            u = l_uw[b] * y[:, 0] + l_u[b] * y[:, 1] + o_u[b] * reads[0]
            if config.tone_depth:
                # The tone sin(omega (t0 + t)) of a segment starting at t0.
                phase = phases[lo : lo + RUN_SEGMENTS, np.newaxis]
                mean = tone[b] * (np.sin(phase) * reads[1] + np.cos(phase) * reads[2])
                w += mean
                u += mean
            if part == 0:
                sums[:, g] = _cross_power(u, u), _cross_power(u, w), _cross_power(w, w)
            elif part == 1:
                cut[:, lo : lo + RUN_SEGMENTS] = w, u
            else:
                cut[:, lo : lo + RUN_SEGMENTS] += w, u
        if part == 2:
            w, u = cut
            sums[:, segments] = _cross_power(u, u), _cross_power(u, w), _cross_power(w, w)
    return sums
