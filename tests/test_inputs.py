"""The input contract: every bounded input is checked against its row of
``tsui.data.RANGES`` wherever it is read, and no command line, however
extreme, ends in anything but a finite answer or a message."""

import contextlib
import io
import json
import math
import os
import pathlib
import re
import sys
import tempfile
import warnings
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsui import fock
from tsui.cli import main
from tsui.data import RANGES, NoiseDataset, check_range
from tsui.fitting import FitOptions
from tsui.gaussian import (
    InterferometerParams,
    WeightedMeasurement,
    apply_loss,
    joint_quadrature_stats,
    measurement_weight,
    seeded_tmss,
)
from tsui.metrology import (
    SqlKind,
    curve_lambda_opt_vs_gain,
    curve_noise_vs_lambda,
    curve_sensitivity_vs_gain,
    curve_snri_vs_lambda,
    joint_variance,
    joint_variance_quadratic,
    optimal_weight,
    phase_sensitivity,
    snri,
    sql_sensitivity,
)
from tsui.simulate import SimConfig, measure_noise_vs_lambda

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _grid(value, other):
    # A two-point grid holding value, increasing whenever value is a number.
    return np.array([value, other] if value < other else [other, value])


def _five(value):
    # Four weights in [0.2, 0.8] and value, sorted: a weight grid, or a
    # scan column, that only value can take out of its range.
    return np.sort([0.2, 0.4, 0.6, 0.8, value])


def _column(name, value):
    cols = {"lam": _five(0.0), "noise_db": _five(0.0), "sigma_db": _five(0.1), name: _five(value)}
    return NoiseDataset(lam=cols["lam"], noise_db=cols["noise_db"], sigma_db=cols["sigma_db"])


_STATE = seeded_tmss(InterferometerParams(gain=2.0, alpha=1.0))
_FOCK = fock.FockState(np.eye(3))
_SIM = InterferometerParams(gain=1.67, eta_p=0.76, eta_c=0.79, alpha=1.0)

# The public callables that read each input, each taking its value.
ENTRY_POINTS = {
    "gain": [
        lambda v: InterferometerParams(gain=v),
        lambda v: joint_variance_quadratic(v, 1.0, 1.0),
        lambda v: joint_variance(v, 0.5, 0.9, 0.5),
        lambda v: optimal_weight(v, 0.5, 0.9),
        lambda v: curve_lambda_opt_vs_gain([1.0], _grid(v, 2.0)),
        lambda v: curve_sensitivity_vs_gain(1.0, _grid(v, 2.0)),
    ],
    "alpha": [lambda v: InterferometerParams(gain=1.0, alpha=v)],
    "alpha (bright seed)": [
        lambda v: phase_sensitivity(InterferometerParams(gain=1.0, alpha=v), 1.0),
        lambda v: sql_sensitivity(SqlKind.SQL1, InterferometerParams(gain=1.0, alpha=v)),
        lambda v: curve_sensitivity_vs_gain(v, np.array([1.0, 1.0 + 2.0**-52])),
    ],
    # G alpha^2 = v exactly, with G inside the gain range where v is.
    "gain * alpha^2": [
        lambda v: InterferometerParams(gain=v / 4.0, alpha=2.0) if v else InterferometerParams(1.0)
    ],
    "eta_p (phase readout)": [
        lambda v: phase_sensitivity(InterferometerParams(2.0, eta_p=v, alpha=1.0), 0.5),
        lambda v: sql_sensitivity(SqlKind.SQL2, InterferometerParams(2.0, eta_p=v, alpha=1.0)),
    ],
    "gain (simulated)": [lambda v: SimConfig(InterferometerParams(gain=v))],
    "eta": [lambda v: fock.apply_loss_fock(_FOCK, v, "probe")],
    "lam": [
        measurement_weight,
        WeightedMeasurement,
        lambda v: joint_quadrature_stats(_STATE, v),
        lambda v: snri(_SIM, v, SqlKind.SQL2),
        lambda v: fock.oracle_moment_bundle(_FOCK, [0.5, v]),
        lambda v: curve_noise_vs_lambda(_SIM, _five(v)),
        lambda v: curve_snri_vs_lambda([_SIM], _five(v)),
        lambda v: _column("lam", v),
        lambda v: measure_noise_vs_lambda(SimConfig(_SIM, duration=2**14 / 8e6), _five(v)),
    ],
    "noise_db": [lambda v: _column("noise_db", v)],
    "sigma_db": [lambda v: _column("sigma_db", v)],
    "loss_offset": [lambda v: FitOptions(loss_offset=v)],
    "cutoff": [lambda v: fock.build_seeded_tmss_fock(1.0, 0.0, cutoff=v)],
}
for _arm in ("eta_p", "eta_c"):
    ENTRY_POINTS[_arm] = [
        lambda v, a=_arm: InterferometerParams(gain=2.0, **{a: v}),
        lambda v, a=_arm: apply_loss(_STATE, **{"eta_p": 1.0, "eta_c": 1.0, a: v}),
        lambda v, a=_arm: joint_variance_quadratic(2.0, **{"eta_p": 1.0, "eta_c": 1.0, a: v}),
        lambda v, a=_arm: fock.FockState(np.eye(3), **{a: v}),
        lambda v, a=_arm: curve_lambda_opt_vs_gain(
            [(v, 1.0) if a == "eta_p" else (1.0, v)], np.array([1.0, 2.0])
        ),
    ]
for _name in ("tone_depth", "lock_jitter_rms", "electronic_noise_var"):
    ENTRY_POINTS[_name] = [lambda v, n=_name: SimConfig(_SIM, **{n: v})]


def test_every_range_has_entry_points():
    assert sorted(ENTRY_POINTS) == sorted(RANGES)


@pytest.mark.parametrize("name", sorted(RANGES))
def test_range_is_checked_where_it_is_read(name):
    lo, hi = RANGES[name]
    outside = [math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf), math.nan]
    for value in (lo, hi):
        assert check_range(name, value) == value
    message = re.escape(f"{name} must lie in [{lo:g}, {hi:g}], got ")
    for value in outside:
        with pytest.raises(ValueError, match=message):
            check_range(name, value)
    # Through an entry point, a value may meet the row of the input it is
    # made from first: G alpha^2 that of gain, a bright seed that of alpha.
    named = re.escape(name.split()[0]) + r"\b.* must lie in \["
    for call in ENTRY_POINTS[name]:
        call(lo)
        call(hi)
        for value in outside:
            with pytest.raises(ValueError, match=named):
                call(value)


def test_phase_readout_needs_a_transmitting_probe_arm():
    # No fringe at eta_p = 0: a message naming eta_p, not a ZeroDivisionError.
    for call in ENTRY_POINTS["eta_p (phase readout)"]:
        with pytest.raises(ValueError, match=r"eta_p \(phase readout\) must lie in .*, got 0\.0$"):
            call(0.0)


def test_array_message_names_the_index():
    with pytest.raises(ValueError, match=r"lam must lie in \[0, 1\], got 1\.5 at index 2"):
        check_range("lam", [0.0, 0.5, 1.5, -1.0])
    assert check_range("lam", np.array([0.0, 1.0])).tolist() == [0.0, 1.0]


def test_readme_lists_every_range():
    text = README.read_text()
    for name, (lo, hi) in RANGES.items():
        assert f"| `{name}` | [{lo:g}, {hi:g}] |" in text, name


# -- every subcommand under edge-value arguments ---------------------------

# Edge values: zero, infinities, NaN, extreme magnitudes, and each range
# bound with its neighbours.  Each flag mixes them with ordinary settings of
# its own, so that many runs get through to the numbers.
_EDGES = sorted(
    {0.0, -0.0, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300, 5e-324, sys.float_info.max}
    | {math.nextafter(b, to) for bounds in RANGES.values() for b in bounds
       for to in (-math.inf, b, math.inf)}
) + [math.nan]


def _number(*ordinary):
    edges = st.sampled_from([repr(v) for v in _EDGES])
    if not ordinary:
        return edges
    return st.one_of(st.sampled_from([repr(float(v)) for v in ordinary]), edges)


def _grid_flag(*ordinary):
    # Empty, 100,001 points, malformed ranges, lists of edge values.
    special = ["", ",", "0:100000:1", "1:100001:1", "0:1:0", "1:0:0.1", "nan:1:0.1", "0:1", "x,1"]
    return st.one_of(
        st.sampled_from(list(ordinary) + special),
        st.lists(_number(), min_size=1, max_size=3).map(",".join),
    )


_GAIN = _number(1.0, 1.2, 1.67, 2.0, 5.0, 1e4, 1e8, 1e150)
_ETA1 = _number(0.5, 0.76, 0.79, 1.0)
_ETA = st.one_of(_ETA1, st.tuples(_ETA1, _ETA1).map(",".join))
_ALPHA = _number(0.0, 1.0, 5.0, 100.0, 1e6)
_WEIGHTS = _grid_flag("0:1:0.05", "0:1:0.25", "0,0.5,1", "0.99,1")


def _flags(**strategies):
    # Each flag is left out, or given one drawn value as --flag=value (a
    # value may start with '-').
    pairs = [
        st.one_of(st.just([]), value.map(lambda v, f=flag: [f"--{f.replace('_', '-')}={v}"]))
        for flag, value in strategies.items()
    ]
    return st.tuples(*pairs).map(lambda parts: [a for part in parts for a in part])


_CURVE_VALUES = {
    "gain": _grid_flag("1:5:0.5", "1e7,1e8", "1,1e150", "1.2,1.5,2", "2"),
    "alpha": _ALPHA,
    "lambdas": _WEIGHTS,
}


def _curves(figure):
    # Mostly the flags the figure reads (cli._CURVE_FLAGS), now and then one
    # it does not.
    read = {"fig3": ("gain", "alpha"), "fig4a": ("gain", "alpha", "lambdas"),
            "fig6": ("gain", "lambdas")}.get(figure, ("gain",))
    keys = st.one_of(st.just(read), st.sampled_from([read + (k,) for k in _CURVE_VALUES]))
    return st.tuples(
        keys.flatmap(lambda ks: _flags(**{k: _CURVE_VALUES[k] for k in dict.fromkeys(ks)})),
        st.lists(_ETA, max_size=0 if figure == "fig3" else 2),
        st.sampled_from(["csv", "json"]),
    ).map(
        lambda t: (["curves", figure, *t[0], *[f"--eta={e}" for e in t[1]],
                    "--format", t[2], "--out", "{dir}/table." + t[2]], {})
    )


_CURVES = st.sampled_from(["fig3", "fig4a", "fig4b", "fig6", "fig8"]).flatmap(_curves)
_LAMBDA_OPT = st.tuples(
    _GAIN, _flags(eta_p=_ETA1, eta_c=_ETA1), st.booleans()
).map(lambda t: (["lambda-opt", f"--gain={t[0]}", *t[1]] + ["--numeric"] * t[2], {}))

# Simulation settings: a short valid run, with up to three lines replaced
# by edge values or malformed lines.  No drawn value lengthens the record
# past 2^15 samples.
_CONFIG = {
    "gain": "1.67", "eta_p": "0.76", "eta_c": "0.79", "alpha": "1.0", "duration": "0.004",
}
_EXTREMES = ("0", "-1", "nan", "inf", "1e300", repr(sys.float_info.max), "1e-300", "5e-324")
_CONFIG_EDGES = {
    "duration": st.sampled_from(_EXTREMES + (repr(2**14 / 8e6), repr(2**15 / 8e6))),
    # 16,000 samples (too short) and 4e9 (too long) at the 0.004 s default.
    "sample_rate": st.sampled_from(_EXTREMES + ("8e6", "4e6", "1e12")),
    "tone_freq": st.sampled_from(_EXTREMES + ("4e6", "3.99e6", "1e6")),
    "jitter_block": st.sampled_from(_EXTREMES + ("1e-4", "1e-6")),
    "rng_seed": st.sampled_from(_EXTREMES + ("7", "1.5", str(2**64))),
    "gain": _GAIN,
    "eta_p": _ETA1,
    "eta_c": _ETA1,
    "alpha": _ALPHA,
    "tone_depth": _number(0.0, 0.05, 1.0),
    "lock_jitter_rms": _number(0.02, 0.2, 1.0),
    "electronic_noise_var": _number(0.1, 1.0, 1e6),
}
_MALFORMED = ["gain 1.67", "bogus = 1", "gain = abc", "gain = 2", "= 5", "alpha ="]


def _config_text(edits, malformed):
    values = dict(_CONFIG, **dict(edits))
    lines = [f"{key} = {value}" for key, value in values.items()]
    return "\n".join(lines + malformed) + "\n"


_SIMULATE = st.tuples(
    st.lists(st.sampled_from(sorted(_CONFIG_EDGES)), unique=True, max_size=3).flatmap(
        lambda keys: st.tuples(*[st.tuples(st.just(k), _CONFIG_EDGES[k]) for k in keys])
    ),
    st.lists(st.sampled_from(_MALFORMED), max_size=1),
    _flags(lambdas=_WEIGHTS, center_freq=_number(1e6, 2e6), rbw=_number(1e5, 3906.25, 2e5)),
    st.sampled_from(["1", "2", "0", "-1", "1001"]),
).map(
    lambda t: (["simulate", "--config", "{dir}/run.cfg", *t[2], f"--trials={t[3]}",
                "--out", "{dir}/scan.csv"], {"run.cfg": _config_text(t[0], t[1])})
)


def _scan_text(edits, mangle):
    lam = [i / 10.0 for i in range(11)]
    rows = [[repr(x), repr(10.0 * math.log10(1.0 + x * x)), "0.05"] for x in lam]
    for row, column, value in edits:
        rows[row][column] = value
    lines = ["# source = measured", "lambda,noise_db,sigma_db"] + [",".join(r) for r in rows]
    if mangle == "no header":
        lines.pop(1)
    elif mangle == "no rows":
        lines = lines[:2]
    elif mangle:
        lines.append(mangle)
    return "\n".join(lines) + "\n"


_FIT = st.tuples(
    st.lists(st.tuples(st.integers(0, 10), st.integers(0, 2), _number(0.5, 1.0)), max_size=2),
    st.sampled_from([None, None, "no header", "no rows", "1,2", "a,b,c", "1,2,3,4"]),
    _flags(offset=_number(0.03, 0.0, -0.1),
           initial=st.lists(_number(1.67, 0.76, 0.79, 0.0), min_size=4, max_size=4).map(",".join),
           lambdas=_WEIGHTS),
    st.booleans(),
    st.booleans(),
).map(
    lambda t: (["fit", "--data", "{dir}/scan.csv", *t[2], "--out", "{dir}/fit.json"]
               + ["--unconstrained"] * t[3] + ["--overlay", "{dir}/ov"] * t[4],
               {"scan.csv": _scan_text(t[0], t[1])})
)
_VERIFY = st.tuples(
    _flags(gain=_GAIN, alpha=_ALPHA, eta=_ETA, lambdas=_WEIGHTS),
    st.sampled_from([[], [], ["--cutoff=-1"], ["--cutoff=1"], ["--cutoff=12"],
                     ["--cutoff=400"], ["--cutoff=401"]]),
).map(lambda t: (["verify", *t[0], *t[1]], {}))

_NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")


def _table(path):
    # Columns and rows of a curve table written as CSV or JSON.
    text = path.read_text()
    if path.suffix == ".json":
        data = json.loads(text)
        return data["columns"], np.array([[r[c] for c in data["columns"]] for r in data["rows"]])
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows)


def _run(argv, files):
    """Run one command line in a fresh directory; check how it ended."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            pathlib.Path(tmp, name).write_text(text)
        argv = [a.replace("{dir}", tmp) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        written = sorted(set(os.listdir(tmp)) - set(files))
        if code == 0:
            for name in written:
                text = pathlib.Path(tmp, name).read_text()
                assert not _NON_FINITE.search(text), (name, text[:2000])
            assert not _NON_FINITE.search(out), out
            if argv[:2] == ["curves", "fig3"]:
                # No readout beats the quantum bound (to round-off), and none is 0.
                _, rows = _table(pathlib.Path(tmp, written[0]))
                balanced, optimal, bound = rows[:, 1:].T
                assert np.all(bound > 0.0) and np.all(optimal >= bound * (1.0 - 1e-12))
                assert np.all(balanced >= optimal * (1.0 - 1e-12)), rows
            if argv[:2] == ["curves", "fig4a"]:
                assert np.all(_table(pathlib.Path(tmp, written[0]))[1][:, 1] > 0.0)
            return
        assert written == [], written
        assert "Traceback" not in err
        if code == 2:
            # A message, not a table that came out non-finite.
            assert "error:" in err and "table values must be finite" not in err, err
            return
        assert code == 1, (code, out, err)
        # 1 only when verify's checks fail, or for a fit or truncation failure.
        verify_failed = argv[0] == "verify" and (
            "verification FAILED" in out or "norm deficit" in err
        )
        assert verify_failed or (argv[0] == "fit" and "no fit start converged" in err), err


@settings(derandomize=True, max_examples=150, deadline=timedelta(seconds=10))
@given(case=st.one_of(_CURVES, _LAMBDA_OPT, _SIMULATE, _FIT, _VERIFY))
# A seed past alpha ~ 5e153 / G overflowed the quantum bound into 0.0
# with a RuntimeWarning.
@example(case=(["curves", "fig3", "--alpha", "1e200", "--out", "{dir}/t.csv"], {}))
# V_p + lam^2 V_c + 2 lam C cancelled to 0.0 (fig3: below the quantum
# bound) or to a non-finite dB value (fig4a, fig6).
@example(case=(["curves", "fig3", "--gain", "1e7,1e8", "--out", "{dir}/t.csv"], {}))
@example(case=(["curves", "fig6", "--gain", "1e8", "--out", "{dir}/t.csv"], {}))
@example(
    case=(["curves", "fig4a", "--gain", "1e9", "--lambdas", "0.99,1", "--out", "{dir}/t.csv"], {})
)
# Found by this test.  A seed below ~1e-308 overflowed fig3's readout
# columns with a RuntimeWarning.
@example(case=(["curves", "fig3", "--alpha", "5e-324", "--out", "{dir}/t.csv"], {}))
# Electronic noise near the largest double overflowed the scan's sums.
@example(case=(["simulate", "--config", "{dir}/r.cfg", "--out", "{dir}/s.csv"],
               {"r.cfg": "gain = 1.67\nduration = 0.004\nelectronic_noise_var = 1e300\n"}))
# round() of an infinite sample count raised OverflowError: a segment at
# rbw 5e-324, the record at the largest duration, a jitter block.
@example(case=(["simulate", "--config", "{dir}/r.cfg", "--rbw", "5e-324", "--out", "{dir}/s.csv"],
               {"r.cfg": "gain = 1.67\nduration = 0.004\n"}))
@example(case=(["simulate", "--config", "{dir}/r.cfg", "--out", "{dir}/s.csv"],
               {"r.cfg": "gain = 1.67\nduration = 1.7976931348623157e308\n"}))
@example(case=(["simulate", "--config", "{dir}/r.cfg", "--out", "{dir}/s.csv"],
               {"r.cfg": "gain = 1.67\nduration = 0.004\nlock_jitter_rms = 0.1\n"
                         "jitter_block = 1.7976931348623157e308\n"}))
def test_every_command_ends_in_a_finite_answer_or_a_message(case):
    """Exit 0 with only finite numbers printed and written, or exit 2 with
    a message and no file; exit 1 only for verify's failed checks, a
    truncation or a fit that did not converge.  No RuntimeWarning."""
    _run(*case)
