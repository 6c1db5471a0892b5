import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icvmd.analytic import analytic_split
from icvmd.dataset import DEFAULT_MODULATIONS, DatasetSpec, synthesize_one
from icvmd.decompose import icvmd_decompose
from icvmd.errors import DegenerateInputError, ParameterError
from icvmd.modulation import ModulationKind
from icvmd.pa import emitter_bank
from icvmd.signals import ComplexSignal
from icvmd import vmd
from icvmd.vmd import VmdConfig, half_grid, vmd_decompose
from oracles import (
    center_frequency,
    convergence_metric,
    extension_phase,
    mirror_extend,
    reference_init_omegas,
    reference_vmd_decompose,
    uniform_spread,
    wiener_mode_update,
)


# ---------------------------------------------------------------- primitives


def test_mirror_extend_even_and_odd():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(mirror_extend(x), [2, 1, 1, 2, 3, 4, 4, 3])
    y = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(mirror_extend(y), [1, 1, 2, 3, 3, 2])
    assert mirror_extend(y).size == 2 * y.size


def test_half_grid_endpoints_and_spacing():
    g = half_grid(8)
    assert g.shape == (5,)
    assert g[0] == 0.0
    assert g[-1] == pytest.approx(np.pi)
    assert np.allclose(np.diff(g), 2.0 * np.pi / 8)


@pytest.mark.parametrize("n", [4, 5, 16, 17, 700, 701, 2100])
def test_extension_rfft_is_real_coefficients_times_the_phase(n):
    # The extension is half-sample symmetric about n//2 - 1/2, so its rfft is
    # real coefficients times exp(-1j*w*(n//2 - 1/2)) (Makhoul 1980): the
    # sweep runs on those coefficients.
    f_hat = np.fft.rfft(mirror_extend(np.random.default_rng(n).normal(size=n)))
    phase = extension_phase(n)
    assert np.max(np.abs((f_hat * phase.conj()).imag)) <= 1e-12 * np.max(np.abs(f_hat))
    # The outer product is the phase at angles reduced to [0, 2*pi) one bin at a time.
    angles = 0.5 * np.pi / n * (np.arange(n + 1) * (2 * (n // 2) - 1) % (4 * n))
    assert np.max(np.abs(phase - np.exp(-1j * angles))) <= 1e-14


@pytest.mark.parametrize("n", [8, 9, 257, 700, 2100])
def test_the_length_n_transforms_match_the_extension_oracle(n):
    # The solver takes the coefficients with one length-n rfft and returns
    # the modes with length-n irffts; the oracle transforms the 2n extension.
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    want = (np.fft.rfft(mirror_extend(x)) * extension_phase(n).conj()).real
    got = vmd._dct(x)
    assert got.shape == (n + 1,) and got[n] == 0.0
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    rows = rng.normal(size=(3, n + 1))  # an odd count: blocks of two rows and one
    rows[:, n] = 0.0  # as in every row of a solve
    for dtype in (np.float64, np.float32):
        got_modes = np.empty((3, n))
        vmd._idct(rows.astype(dtype), got_modes)
        want_modes = np.array([np.fft.irfft(c * extension_phase(n), 2 * n)[n // 2 : n // 2 + n] for c in rows.astype(dtype).astype(float)])
        assert np.max(np.abs(got_modes - want_modes)) <= 1e-13 * np.max(np.abs(want_modes))


def test_wiener_update_closed_form_by_hand():
    grid = np.array([0.0, 0.5, 1.0])
    f = np.array([1.0 + 0j, 2.0, 3.0])
    others = np.array([0.0 + 0j, 1.0, 0.0])
    out = wiener_mode_update(f, others, omega_k=0.5, alpha=1.0, grid=grid)
    denom = 1.0 + 2.0 * (grid - 0.5) ** 2
    assert np.allclose(out, (f - others) / denom)
    # At the mode center the filter is transparent.
    assert out[1] == pytest.approx((2.0 - 1.0) / 1.0)


def test_wiener_update_validates():
    g = np.zeros(3)
    with pytest.raises(ParameterError):
        wiener_mode_update(np.zeros(4), np.zeros(3), 0.1, 1.0, g)
    with pytest.raises(ParameterError):
        wiener_mode_update(np.zeros(3), np.zeros(3), 0.1, 0.0, g)


def test_center_frequency_hand_value():
    grid = np.array([0.1, 0.2, 0.3])
    spec = np.array([1.0, 2.0, 1.0])  # power weights 1, 4, 1
    assert center_frequency(spec, grid) == pytest.approx(
        (0.1 + 4 * 0.2 + 0.3) / 6.0
    )
    sym = np.array([1.0, 5.0, 1.0])
    assert center_frequency(sym, grid) == pytest.approx(0.2)


def test_center_frequency_degenerate():
    with pytest.raises(DegenerateInputError):
        center_frequency(np.zeros(4), half_grid(6))


def test_convergence_metric_hand_value():
    prev = np.array([[1.0 + 0j, 0.0]])
    curr = 2.0 * prev
    # ||curr - prev||^2 / ||prev||^2 = 1
    assert convergence_metric(prev, curr) == pytest.approx(1.0)
    assert convergence_metric(prev, prev) == 0.0


def test_convergence_metric_guards():
    with pytest.raises(DegenerateInputError):
        convergence_metric(np.zeros((2, 4), dtype=complex), np.ones((2, 4), dtype=complex))
    with pytest.raises(ParameterError):
        convergence_metric(np.zeros((2, 4)), np.zeros((2, 5)))


def test_config_validation():
    with pytest.raises(ParameterError):
        VmdConfig(n_modes=0)
    with pytest.raises(ParameterError):
        VmdConfig(alpha=0.0)
    with pytest.raises(ParameterError):
        VmdConfig(tol=0.0)
    # An infinite tol would stop every solve after its second sweep.
    for tol in (float("inf"), float("nan")):
        with pytest.raises(ParameterError, match="tol must be positive and finite"):
            VmdConfig(tol=tol)
    # A manifest's JSON true is not the number 1.
    for name in ("alpha", "tol"):
        with pytest.raises(ParameterError, match=f"^{name} must be positive and finite, got True$"):
            VmdConfig(**{name: True})
    with pytest.raises(ParameterError):
        VmdConfig(max_iter=0)


@pytest.mark.parametrize(
    "field,value",
    [("n_modes", 2.5), ("n_modes", True), ("max_iter", 10.5), ("max_iter", "300")],
)
def test_config_rejects_non_integer_counts(field, value):
    # A hand-edited checkpoint manifest's n_modes reaches VmdConfig through `icvmd eval`.
    with pytest.raises(ParameterError, match=f"{field} must be an integer"):
        VmdConfig(**{field: value})
    with pytest.raises(ParameterError, match=f"^{field} must be >= 1, got 0$"):
        VmdConfig(**{field: 0})


# ------------------------------------------------------------------- solver


def tone_mix(n, freqs, amps):
    t = np.arange(n)
    return sum(a * np.cos(2.0 * np.pi * f * t) for f, a in zip(freqs, amps))


def test_two_tone_recovery():
    x = tone_mix(1024, [0.05, 0.25], [1.0, 1.0])
    res = vmd_decompose(x, VmdConfig(n_modes=2, alpha=2000.0, tol=1e-7, max_iter=500))
    want = np.array([0.05, 0.25]) * 2.0 * np.pi
    assert np.allclose(res.omegas, want, atol=0.01)
    assert res.mode_set.converged


def test_omegas_sorted_ascending():
    x = tone_mix(600, [0.3, 0.08, 0.17], [1.0, 1.0, 1.0])
    res = vmd_decompose(x, VmdConfig(n_modes=3, alpha=1000.0, tol=1e-7, max_iter=500))
    assert np.all(np.diff(res.omegas) >= 0)


def test_modes_hold_one_row_per_mode_on_the_input_support():
    rng = np.random.default_rng(0)
    x = rng.normal(size=300)
    res = vmd_decompose(x, VmdConfig(n_modes=3, alpha=500.0, tol=1e-7, max_iter=50))
    assert res.modes.shape == (3, 300)


def test_returned_spectra_satisfy_wiener_fixed_point():
    x = tone_mix(512, [0.1], [1.0]) + 0.1 * np.sin(2 * np.pi * 0.33 * np.arange(512))
    cfg = VmdConfig(n_modes=2, alpha=800.0, tol=1e-8, max_iter=500)
    res = vmd_decompose(x, cfg)
    ms = res.mode_set
    grid = half_grid(2 * x.size)
    f_hat = np.fft.rfft(mirror_extend(x))
    spectra = ms.coefficients * extension_phase(x.size)
    total = spectra.sum(axis=0)
    for k in range(2):
        others = total - spectra[k]
        expect = wiener_mode_update(f_hat, others, ms.omegas[k], cfg.alpha, grid)
        err = np.linalg.norm(spectra[k] - expect) / np.linalg.norm(expect)
        # The refresh is a sequential sweep, so earlier modes lag the later
        # ones by one update; without the refresh this error sits near the
        # convergence tolerance (~1e-4), with it the gap is tiny.
        assert err < 1e-8


def _coefficients(x):
    """The real coefficients the solver reads its start off."""
    return (np.fft.rfft(mirror_extend(x)) * extension_phase(x.size).conj()).real


def _start(x, cfg):
    return vmd._init_omegas(cfg, _coefficients(x))


START_SIGNALS = {
    "two_tones": lambda: tone_mix(700, [0.05, 0.3], [1.0, 0.5]),
    "mirror_periodic_tone": lambda: np.cos(2 * np.pi * 0.1 * (np.arange(700) + 0.5)),
    "noise": lambda: np.random.default_rng(16).normal(size=600),
    "cw_side": lambda: _colliding_cw_side(),
}


@pytest.mark.parametrize("name", START_SIGNALS)
@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_start_reads_the_same_centers_off_the_coefficients_as_off_the_rfft(name, k):
    x = START_SIGNALS[name]()
    cfg = VmdConfig(n_modes=k)
    assert np.array_equal(_start(x, cfg), vmd._init_omegas(cfg, np.fft.rfft(mirror_extend(x))))


def test_start_lands_on_the_two_tones():
    n = 700
    om = _start(tone_mix(n, [0.05, 0.3], [1.0, 0.5]), VmdConfig(n_modes=2))
    window = (n + 1) // vmd._PEAK_WINDOW_DIV * np.pi / n  # one smoothing window in radians
    assert np.all(np.abs(om - 2.0 * np.pi * np.array([0.05, 0.3])) <= window)


def test_start_bisects_the_widest_gaps_when_peaks_run_out():
    # One spectral line: one local maximum, so three centers come from bisection.
    spectrum = np.zeros(701, dtype=complex)
    spectrum[140] = 1.0
    om = vmd._init_omegas(VmdConfig(n_modes=4), spectrum)
    line = np.pi * 140 / 700
    assert om[0] == pytest.approx(line, abs=5 * np.pi / 700)
    assert np.min(np.diff(om)) >= np.pi / 16
    a, b, c, d = om
    assert b == pytest.approx((a + c) / 2) and c == pytest.approx((a + np.pi) / 2)
    assert d == pytest.approx((c + np.pi) / 2)


def test_start_bisects_past_maxima_at_rounding_level():
    # A mirror-periodic tone: off its line the smoothed power is FFT rounding
    # (about 1e-29 of the peak), so the three spare centers must bisect the
    # gaps above the line rather than sit on those maxima.
    n = 700
    om = _start(np.cos(2 * np.pi * 0.1 * (np.arange(n) + 0.5)), VmdConfig(n_modes=4))
    window = (n + 1) // vmd._PEAK_WINDOW_DIV * np.pi / n
    assert om[0] == pytest.approx(0.2 * np.pi, abs=window)
    assert np.diff(om) == pytest.approx([(np.pi - om[0]) / 4] * 3, abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(16, 600),
    k=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_start_is_ascending_inside_the_band(n, k, seed):
    x = np.random.default_rng(seed).normal(size=n)
    om = _start(x, VmdConfig(n_modes=k))
    assert om.shape == (k,)
    assert np.all(np.diff(om) >= np.pi / (4 * k))
    assert 0.0 <= om[0] and om[-1] <= np.pi


@settings(deadline=None, max_examples=60)
@given(
    n_bins=st.integers(3, 1500),
    k=st.integers(1, 8),
    lines=st.integers(0, 12),
    seed=st.integers(0, 2**16),
)
def test_start_picks_the_peaks_of_the_per_peak_loop(n_bins, k, lines, seed):
    # A noise floor plus a few strong lines, some close enough to one another
    # for the separation rule to drop them, and one close enough to dc.
    rng = np.random.default_rng(seed)
    spectrum = rng.normal(size=n_bins) + 1j * rng.normal(size=n_bins)
    at = rng.integers(0, n_bins, size=lines)
    spectrum[at] += 30.0 * rng.random(lines) * n_bins ** 0.5
    spectrum[1 + n_bins // (16 * k)] += 40.0 * n_bins ** 0.5
    cfg = VmdConfig(n_modes=k)
    got = vmd._init_omegas(cfg, spectrum)
    assert np.array_equal(got, reference_init_omegas(cfg, spectrum))


def test_solver_input_validation():
    with pytest.raises(ParameterError):
        vmd_decompose(np.zeros((4, 4)), VmdConfig(n_modes=1))
    with pytest.raises(ParameterError):
        vmd_decompose(np.ones(5), VmdConfig(n_modes=3))  # too short
    with pytest.raises(ParameterError):
        vmd_decompose(np.array([1.0, np.inf, 0.0, 0.0]), VmdConfig(n_modes=1))
    with pytest.raises(DegenerateInputError):
        vmd_decompose(np.zeros(64), VmdConfig(n_modes=2))


def test_solver_rejects_complex_input():
    # A complex signal must not be decomposed as its real part.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="signal must be real, got dtype complex128"):
            vmd_decompose(np.exp(2j * np.pi * 0.1 * np.arange(200)), VmdConfig(n_modes=2))


def test_an_alpha_whose_filter_overflows_the_sweep_dtype_is_refused():
    # 1 + 2*alpha*pi^2 passes float32's largest value from alpha ~1.7e37; the
    # filters would turn every mode into NaN over max_iter sweeps.
    x = tone_mix(300, [0.05, 0.2], [1.0, 0.5])
    with pytest.raises(ParameterError, match="^alpha 1e\\+39 overflows the float32 Wiener filter"):
        vmd_decompose(x.astype(np.float32), VmdConfig(n_modes=2, alpha=1e39))
    with pytest.raises(ParameterError, match="float64"):
        vmd_decompose(x, VmdConfig(n_modes=2, alpha=1e308))
    res = vmd_decompose(x, VmdConfig(n_modes=2, alpha=1e39))  # float64 holds that filter
    assert res.mode_set.converged and np.all(np.isfinite(res.modes))


def test_memory_budget_rejects_before_allocating():
    # 5e5 modes of a 1e6-sample signal would need ~16 TB of spectra; the
    # check must refuse it before any of them exists.
    with pytest.raises(ParameterError, match="budget"):
        vmd_decompose(np.ones(1_000_000), VmdConfig(n_modes=500_000))


@pytest.mark.parametrize("n,k", [(20_000, 4), (20_000, 16), (4_000, 64)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_memory_budget_covers_the_measured_peak(monkeypatch, n, k, dtype):
    x = np.random.default_rng(k).normal(size=n).astype(dtype)
    cfg = VmdConfig(n_modes=k, alpha=200.0, tol=1e-7, max_iter=2)
    tracemalloc.start()
    try:
        vmd_decompose(x, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The estimate is at least the peak (a budget one byte under the peak
    # refuses the solve) and less than twice it.
    monkeypatch.setattr(vmd, "_MEMORY_BUDGET_BYTES", peak - 1)
    with pytest.raises(ParameterError, match="budget"):
        vmd.check_memory_budget(n, k, dtype)
    monkeypatch.setattr(vmd, "_MEMORY_BUDGET_BYTES", 2 * peak)
    vmd.check_memory_budget(n, k, dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_solve_peaks_at_two_real_rows_per_mode_and_keeps_no_extension(dtype):
    n, k = 4_000, 64
    x = np.random.default_rng(k).normal(size=n).astype(dtype)
    tracemalloc.start()
    try:
        res = vmd_decompose(x, VmdConfig(n_modes=k, alpha=200.0, tol=1e-7, max_iter=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A float64 row is 8 bytes per rfft bin of the 2n-sample extension; each
    # mode holds at most two at a time (its row beside its filter, its
    # sorted copy or its time-domain mode), and sixteen more per bin cover
    # the shared buffers.  This bound is check_memory_budget's estimate.
    assert peak <= 8 * (n + 1) * (2 * k + 16)
    # The modes own their [K, n] rows, not a view of the [K, 2n] irfft.
    assert res.modes.shape == (k, n) and res.modes.base is None


def _sweep_case_signal(n, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return (
        0.4
        + np.cos(2 * np.pi * 0.04 * t)
        + 0.6 * np.cos(2 * np.pi * 0.19 * t + 0.3)
        + 0.3 * np.sin(2 * np.pi * 0.41 * t)
        + 0.2 * rng.normal(size=n)
    )


def _colliding_cw_side():
    """The pos side of one n=700 CW capture, on which the solve retires two
    modes whose centers close within one Wiener half-width; no seeded mix
    below retires one."""
    sig = synthesize_one(
        DatasetSpec(n_samples=700), emitter_bank()[6], ModulationKind.CW, 18.0, 2274038596, 4283324809
    )
    return analytic_split(sig)[0]


def _case_signal(source):
    """A case's input: the seeded mix of that length, or the side a function builds."""
    return source() if callable(source) else _sweep_case_signal(source, seed=source)


FUSED_SWEEP_CASES = [
    (300, VmdConfig(n_modes=1, alpha=100.0, tol=1e-8, max_iter=500)),
    (301, VmdConfig(n_modes=2, alpha=500.0, tol=1e-7, max_iter=500)),
    (512, VmdConfig(n_modes=3, alpha=2000.0, tol=1e-7, max_iter=500)),
    (257, VmdConfig(n_modes=4, alpha=200.0, tol=1e-6, max_iter=300)),
    (400, VmdConfig(n_modes=5, alpha=800.0, tol=1e-7, max_iter=500)),
    (333, VmdConfig(n_modes=6, alpha=300.0, tol=1e-7, max_iter=500)),
    (431, VmdConfig(n_modes=3, alpha=1000.0, tol=1e-7, max_iter=500)),
    (700, VmdConfig(n_modes=4, alpha=200.0, tol=1e-16, max_iter=40)),  # tol below rounding
    (_colliding_cw_side, VmdConfig()),
]


@pytest.mark.parametrize("source,cfg", FUSED_SWEEP_CASES)
def test_fused_sweep_matches_reference_loop(source, cfg):
    x = _case_signal(source)
    got = vmd_decompose(x, cfg)
    want, want_spectra = reference_vmd_decompose(x, cfg)
    assert got.mode_set.iterations == want.mode_set.iterations
    assert got.mode_set.converged == want.mode_set.converged
    assert want.mode_set.converged or want.mode_set.iterations == cfg.max_iter
    for a, b in (
        (got.omegas, want.omegas),
        (got.mode_set.coefficients * extension_phase(x.size), want_spectra),
        (got.modes, want.modes),
    ):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-10 * max(np.max(np.abs(b)), 1e-300)


@pytest.mark.parametrize("n", [81, 701, 2101])
def test_vecdot_over_float32_rows_gives_the_bytes_of_a_dot_per_row(n):
    # The sweep metric reads every step's squared norm off one np.vecdot of
    # the step rows, where it once took one .dot per row; a NumPy whose two
    # differ in a byte would move sweep counts, so it fails here first.
    rng = np.random.default_rng(n)
    for _ in range(50):
        rows = (rng.normal(size=(4, n)) * 10.0 ** rng.uniform(-20, 15, size=(4, 1))).astype(np.float32)
        assert np.vecdot(rows, rows).tobytes() == np.array([r.dot(r) for r in rows]).tobytes()


def test_fused_sweep_cases_retire_a_mode():
    # At these alphas the start never puts two centers within one half-width
    # (they are at least pi/(4K) apart), so the comparison above covers the
    # retirement only if some case retires a mode on its way.
    retired = 0
    for source, cfg in FUSED_SWEEP_CASES:
        ms = vmd_decompose(_case_signal(source), cfg).mode_set
        retired += int(np.sum(~ms.coefficients.any(axis=1)))
    assert retired >= 1


def _bench_shaped_sides():
    """Both sides of six n=700 captures: one per emitter and modulation,
    alternating between 18 and -4 dB."""
    spec = DatasetSpec(n_samples=700)
    sides = []
    for i, profile in enumerate(emitter_bank()[:6]):
        sig = synthesize_one(spec, profile, DEFAULT_MODULATIONS[i], (18.0, -4.0)[i % 2], i, 100 + i)
        sides += analytic_split(sig)
    return VmdConfig(), sides


def test_relaxed_solver_is_no_farther_from_the_fixed_point_in_fewer_sweeps():
    # The tol-1e-11 plain solve stands in for the exact fixed point; the plain
    # tol-1e-6 solve is the bar the relaxed solver must meet.
    cfg, sides = _bench_shaped_sides()
    tight = dataclasses.replace(cfg, tol=1e-11, max_iter=6000)
    stars = [reference_vmd_decompose(x, tight, relax=1.0)[0] for x in sides]
    assert all(s.mode_set.converged for s in stars)
    plain = [reference_vmd_decompose(x, cfg, relax=1.0)[0] for x in sides]
    relaxed = [vmd_decompose(x, cfg) for x in sides]

    def distances(results):
        return np.array([np.max(np.abs(r.omegas - s.omegas)) for r, s in zip(results, stars)])

    d_plain, d_relaxed = distances(plain), distances(relaxed)
    assert np.median(d_relaxed) <= np.median(d_plain)
    assert np.percentile(d_relaxed, 90) <= np.percentile(d_plain, 90)
    sweeps = [sum(r.mode_set.iterations for r in rs) for rs in (plain, relaxed)]
    assert sweeps[1] < sweeps[0]


def test_relaxed_solver_converges_where_the_metric_keeps_rising():
    # An n=700 LFM side at 18 dB whose metric rises on most late sweeps; a
    # relaxation that paused for every rise would stall it at the cap.
    sig = synthesize_one(DatasetSpec(n_samples=700), emitter_bank()[3], DEFAULT_MODULATIONS[1], 18.0, 1, 1040)
    x = analytic_split(sig)[0]
    cfg = VmdConfig()
    star, _ = reference_vmd_decompose(x, dataclasses.replace(cfg, tol=1e-11, max_iter=6000), relax=1.0)
    plain, _ = reference_vmd_decompose(x, cfg, relax=1.0)
    assert star.mode_set.converged and not plain.mode_set.converged
    bar = np.max(np.abs(plain.omegas - star.omegas))
    for dtype in (np.float64, np.float32):
        res = vmd_decompose(x.astype(dtype), cfg)
        assert res.mode_set.converged
        assert np.max(np.abs(res.omegas - star.omegas)) < bar


def test_peak_start_takes_fewer_sweeps_than_the_uniform_spread(monkeypatch):
    cfg, sides = _bench_shaped_sides()
    peaks = sum(vmd_decompose(x, cfg).mode_set.iterations for x in sides)
    monkeypatch.setattr(vmd, "_init_omegas", lambda cfg, spectrum: uniform_spread(cfg))
    uniform = sum(vmd_decompose(x, cfg).mode_set.iterations for x in sides)
    assert peaks < uniform


def test_solver_runs_in_the_precision_of_its_input():
    x = tone_mix(300, [0.05, 0.2], [1.0, 0.5])
    cfg = VmdConfig(n_modes=2, alpha=500.0, tol=1e-7, max_iter=500)
    single = vmd_decompose(x.astype(np.float32), cfg)
    assert single.mode_set.coefficients.dtype == np.float32
    assert single.modes.dtype == single.omegas.dtype == np.float64
    for other in (x, np.round(100 * x).astype(np.int64), x.astype(np.float16)):
        res = vmd_decompose(other, cfg)
        assert res.mode_set.coefficients.dtype == np.float64
        assert res.modes.dtype == np.float64


def test_icvmd_sweeps_each_side_in_float32_rows():
    sig = synthesize_one(DatasetSpec(n_samples=700), emitter_bank()[2], ModulationKind.QPSK, 18.0, 3, 103)
    res = icvmd_decompose(sig, VmdConfig())
    for side in (res.pos, res.neg):
        assert side.mode_set.coefficients.dtype == np.float32
        assert side.modes.dtype == np.float64


def test_float32_solve_stays_near_the_float64_solve():
    cfg, sides = _bench_shaped_sides()
    double = [vmd_decompose(x, cfg) for x in sides]
    single = [vmd_decompose(x.astype(np.float32), cfg) for x in sides]
    for a, b in zip(double, single):
        assert np.max(np.abs(a.omegas - b.omegas)) <= 1e-3
    assert [r.mode_set.converged for r in single] == [r.mode_set.converged for r in double]
    sweeps = [sum(r.mode_set.iterations for r in rs) for rs in (double, single)]
    assert abs(sweeps[1] - sweeps[0]) <= 0.02 * sweeps[0], sweeps


def _quiet_two_tone_side(n=256):
    """The positive side of tones at 0.1 and -0.23 cycles/sample (amplitudes 1 and 0.5)."""
    t = np.arange(n)
    return analytic_split(ComplexSignal(np.exp(2j * np.pi * 0.1 * t) + 0.5 * np.exp(-2j * np.pi * 0.23 * t)))[0]


@pytest.mark.parametrize("scale", [1e-15, 1e-30, 1e-100])
def test_the_float64_solve_does_not_depend_on_the_signal_scale(scale):
    # An absolute energy guard froze the centers from about 1e-15 down and
    # ran every sweep without converging from 1e-20.
    x = _quiet_two_tone_side()
    unit, quiet = vmd_decompose(x, VmdConfig()), vmd_decompose(scale * x, VmdConfig())
    assert np.max(np.abs(quiet.omegas - unit.omegas)) <= 1e-9
    assert quiet.mode_set.converged == unit.mode_set.converged


@pytest.mark.parametrize("scale", [1e-36, 1e-30, 1e30, 1e34])
def test_a_float32_signal_is_swept_at_any_finite_scale(scale):
    # At 1e-30 the float32 sweep's squares underflowed, and such an input was refused.
    x = _quiet_two_tone_side()
    unit, res = (vmd_decompose((s * x).astype(np.float32), VmdConfig()) for s in (1.0, scale))
    assert res.mode_set.coefficients.dtype == np.float32
    assert np.max(np.abs(res.omegas - unit.omegas)) <= 1e-3
    assert res.mode_set.converged == unit.mode_set.converged
    assert np.max(np.abs(res.modes / scale - unit.modes)) <= 1e-3 * np.max(np.abs(unit.modes))


def test_a_float32_signal_whose_rows_overflow_at_its_scale_is_refused():
    # Finite in float32 (its peak is 9.15e37), but its coefficient rows are not.
    x = np.ldexp(_quiet_two_tone_side(), 126).astype(np.float32)
    with pytest.raises(ParameterError, match="^the float32 coefficient rows of a signal with peak 9.15e[+]37 overflow at its scale$"):
        vmd_decompose(x, VmdConfig())


@pytest.mark.parametrize("k", [-100, 100])
def test_a_float32_solve_at_a_power_of_two_scale_is_the_unit_solve_scaled_bit_for_bit(k):
    x = _quiet_two_tone_side().astype(np.float32)
    unit, res = vmd_decompose(x, VmdConfig()), vmd_decompose(np.ldexp(x, k), VmdConfig())
    for got, want in ((res.modes, unit.modes), (res.mode_set.coefficients, unit.mode_set.coefficients)):
        assert got.dtype == want.dtype and np.array_equal(got, np.ldexp(want, k))
    assert np.array_equal(res.omegas, unit.omegas)
    assert (res.mode_set.iterations, res.mode_set.converged) == (unit.mode_set.iterations, unit.mode_set.converged)


def test_iteration_cap_respected():
    x = tone_mix(256, [0.05, 0.25], [1.0, 1.0])
    res = vmd_decompose(x, VmdConfig(n_modes=2, alpha=2000.0, tol=1e-16, max_iter=7))
    assert res.mode_set.iterations == 7
    assert not res.mode_set.converged


@settings(deadline=None, max_examples=25)
@given(
    f=st.floats(0.03, 0.45),
    n=st.integers(128, 700),
)
def test_single_tone_center_found(f, n):
    x = np.cos(2 * np.pi * f * np.arange(n))
    res = vmd_decompose(x, VmdConfig(n_modes=1, alpha=100.0, tol=1e-8, max_iter=500))
    # One mode, one tone: the center lands on the tone within grid resolution.
    assert res.omegas[0] == pytest.approx(2 * np.pi * f, abs=0.05)
