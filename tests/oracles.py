"""Independent reference implementations used to cross-check the package.

Everything here is written for clarity over speed, on purpose, and avoids
calling into lnoisim so that a bug in the package cannot hide inside its
own oracle.  The SciPy references import SciPy inside the function, so
this module loads without it.
"""

import csv
import dataclasses
import io
import itertools
import math

import numpy as np


def permanent_by_permutation_sum(a):
    """Permanent as a literal sum over all permutations. O(n! n)."""
    a = np.asarray(a)
    n = a.shape[0]
    total = 0.0 + 0.0j
    for sigma in itertools.permutations(range(n)):
        term = 1.0 + 0.0j
        for i, j in enumerate(sigma):
            term *= a[i, j]
        total += term
    return total


def two_photon_probabilities_by_mode_expansion(u, k, l, x):
    """Two-photon output distribution from an explicit mode expansion.

    One photon enters port k in some internal wave-packet state e0; the
    other enters port l in sqrt(x) e0 + sqrt(1-x) e1, so |<psi_k|psi_l>|^2
    equals x.  Both photons are expanded over 2n creation operators
    (spatial mode, internal label), the unordered two-excitation
    amplitudes are squared, and the internal label is traced out.

    Returns a dict mapping sorted output pairs (i, j) to probabilities.
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    dim = 2 * n  # flat index = 2 * mode + label
    v1 = np.zeros(dim, dtype=complex)
    v2 = np.zeros(dim, dtype=complex)
    for i in range(n):
        v1[2 * i] = u[i, k]
        v2[2 * i] = math.sqrt(x) * u[i, l]
        v2[2 * i + 1] = math.sqrt(1.0 - x) * u[i, l]
    probs = {}
    for alpha in range(dim):
        for beta in range(alpha, dim):
            if alpha == beta:
                amp = math.sqrt(2.0) * v1[alpha] * v2[alpha]
            else:
                amp = v1[alpha] * v2[beta] + v1[beta] * v2[alpha]
            pair = tuple(sorted((alpha // 2, beta // 2)))
            probs[pair] = probs.get(pair, 0.0) + abs(amp) ** 2
    return probs


def hom_fringe_law(phase_rad, x):
    """Closed-form coincidence fringe of an ideal 50:50 cell."""
    return (1.0 - x + (1.0 + x) * np.cos(phase_rad) ** 2) / 2.0


def first_order_lowpass_gain_db(freq_ghz, f_3db_ghz):
    """|H|^2 = 1 / (1 + (f/f3db)^2) in dB, the analog reference response."""
    return -10.0 * math.log10(1.0 + (freq_ghz / f_3db_ghz) ** 2)


def first_order_step(t_ns, f_3db_ghz):
    """Unit step response 1 - exp(-t / tau) with tau = 1/(2 pi f3db)."""
    tau = 1.0 / (2.0 * math.pi * f_3db_ghz)
    return 1.0 - np.exp(-np.asarray(t_ns, dtype=float) / tau)


def extinction_by_dense_sweep(transfer, n_phases=10_000):
    """Extinction ratio in dB from a brute-force phase sweep.

    ``transfer`` maps a phase to a 2x2 matrix; the bar power is its
    [0, 0] element squared.
    """
    phases = np.linspace(0.0, 2.0 * math.pi, n_phases, endpoint=False)
    powers = np.array([abs(transfer(p)[0, 0]) ** 2 for p in phases])
    return 10.0 * math.log10(powers.max() / powers.min())


def mzi_by_matmul(ratio_in, ratio_out, insertion_loss_db, phase_rad):
    """One MZI cell as the literal product C_out . diag(e^{i phase}, 1) . C_in.

    ``ratio_in`` and ``ratio_out`` are the couplers' cross-coupled power
    fractions; insertion loss scales every amplitude by 10^(-dB / 20).
    """

    def coupler(r):
        t, k = math.sqrt(1.0 - r), math.sqrt(r)
        return np.array([[t, 1j * k], [1j * k, t]])

    inner = np.array([[complex(math.cos(phase_rad), math.sin(phase_rad)), 0.0], [0.0, 1.0]])
    return 10.0 ** (-insertion_loss_db / 20.0) * (coupler(ratio_out) @ inner @ coupler(ratio_in))


def mesh_by_embedding(n, cells, output_phases, ratio_in=0.5, ratio_out=0.5, insertion_loss_db=0.0):
    """Mesh transfer matrix as a product of full n x n matrices.

    ``cells`` holds ``((i, i + 1), theta, phi)`` in propagation order.  Each
    cell is ``mzi_by_matmul(...) @ diag(e^{i phi}, 1)`` embedded into an
    n x n identity; the output phases apply last as a diagonal.
    """
    u = np.eye(n, dtype=complex)
    for (a, b), theta, phi in cells:
        cell = mzi_by_matmul(ratio_in, ratio_out, insertion_loss_db, theta)
        emb = np.eye(n, dtype=complex)
        emb[a : b + 1, a : b + 1] = cell @ np.diag([complex(math.cos(phi), math.sin(phi)), 1.0])
        u = emb @ u
    return np.diag(np.exp(1j * np.asarray(output_phases))) @ u


def demux_by_photon_loop(transfers, phases):
    """Output probabilities of the 1-to-4 switch tree, one photon at a time.

    ``transfers`` holds three callables phase -> 2x2 matrix (the first-layer
    switch, then the switches feeding outputs 0-1 and 2-3); ``phases`` has
    shape (3, n), each switch's phase at each photon.  The photon enters
    port 0 of the first switch, whose two outputs feed port 0 of the two
    second-layer switches.  Returns an (n, 4) array.
    """
    n = phases.shape[1]
    out = np.empty((n, 4))
    for k in range(n):
        first = transfers[0](phases[0, k]) @ np.array([1.0, 0.0])
        pair01 = transfers[1](phases[1, k]) @ np.array([first[0], 0.0])
        pair23 = transfers[2](phases[2, k]) @ np.array([first[1], 0.0])
        out[k] = np.abs(np.concatenate([pair01, pair23])) ** 2
    return out


def csv_by_writer(header, rows):
    """CSV bytes from the csv module, every value written as repr(float(v))."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue().encode("utf-8")


def tustin_lowpass_by_sample_loop(drive, f_3db_ghz, sample_rate_ghz):
    """Single-pole low-pass, one sample at a time, over the whole grid.

    The bilinear transform prewarped to f_3db gives
    y[n] = g (x[n] + x[n-1]) + r y[n-1] with lam = tan(pi f_3db / fs),
    g = lam / (1 + lam) and r = (1 - lam) / (1 + lam).  The drive is taken
    as held at its first sample forever before the grid starts.  An
    infinite bandwidth passes the drive through unchanged.
    """
    x = [float(v) for v in drive]
    if math.isinf(f_3db_ghz):
        return np.array(x)
    lam = math.tan(math.pi * f_3db_ghz / sample_rate_ghz)
    g = lam / (1.0 + lam)
    r = (1.0 - lam) / (1.0 + lam)
    y = []
    prev_x = prev_y = x[0]
    for value in x:
        prev_y = g * (value + prev_x) + r * prev_y
        prev_x = value
        y.append(prev_y)
    return np.array(y)


def slot_response_by_accumulate(levels, samples_per_slot, f_3db_ghz, sample_rate_ghz, indices):
    """Slot-rate shifter filter at the given grid samples, one slot at a time.

    The drive holds ``levels[j]`` for samples ``j S .. j S + S - 1``.  With
    the Tustin coefficients of :func:`tustin_lowpass_by_sample_loop`, the
    response at sample ``j S + m`` is ``v_j + r^m d_j``, where ``d_0 = 0``
    and ``d_j = (1 - g) (v_{j-1} - v_j) + r^S d_{j-1}`` runs sequentially
    in Python floats, one ``accumulate`` step per slot.
    """
    v = np.asarray(levels, dtype=float)
    lam = math.tan(math.pi * f_3db_ghz / sample_rate_ghz)
    g = lam / (1.0 + lam)
    r = (1.0 - lam) / (1.0 + lam)
    q = r**samples_per_slot
    steps = ((1.0 - g) * (v[:-1] - v[1:])).tolist()
    d = np.array(list(itertools.accumulate(steps, lambda prev, c: c + q * prev, initial=0.0)))
    slot, m = np.divmod(np.asarray(indices), samples_per_slot)
    return v[slot] + r**m * d[slot]


def switch_fractions_by_event_loop(outputs, assignment):
    """(average, per-slot averages) of each event's share in its assigned output.

    Event k sits in slot k mod 4 and is routed to ``assignment[k % 4]``;
    its share is that output's probability over the event's total, and
    the sums run one event at a time.
    """
    totals = [0.0] * 4
    counts = [0] * 4
    for k, row in enumerate(np.asarray(outputs, dtype=float).tolist()):
        totals[k % 4] += row[assignment[k % 4]] / sum(row)
        counts[k % 4] += 1
    return sum(totals) / sum(counts), [t / c for t, c in zip(totals, counts)]


def fringe_model(phase, amplitude, visibility, scale, offset):
    """A (1 - V + (1 + V) cos^2(s phase + d)) / 2, the fitted HOM fringe."""
    shifted = scale * np.asarray(phase) + offset
    return amplitude * (1.0 - visibility + (1.0 + visibility) * np.cos(shifted) ** 2) / 2.0


def fringe_fit_by_curve_fit(phases, counts, sigma=None):
    """(V, stderr of V, parameters) of :func:`fringe_model` from SciPy's curve_fit.

    Started at (max counts, 1 - 2 min/max, 1, 0) inside the box
    A >= 0, 0 <= V <= 1.2, 0.2 <= s <= 5, |d| <= pi; the covariance is
    curve_fit's default, scaled by chi^2 / (N - 4).  The tolerances are
    tightened from curve_fit's 1e-8 to 1e-14: at 1e-8 a noisy 41-point
    sweep can stop 1e-6 short of the optimum in V.
    """
    from scipy.optimize import curve_fit

    counts = np.asarray(counts, dtype=float)
    top = float(counts.max())
    p0 = [top, float(np.clip(1.0 - 2.0 * counts.min() / top, 0.0, 1.0)), 1.0, 0.0]
    bounds = ([0.0, 0.0, 0.2, -math.pi], [np.inf, 1.2, 5.0, math.pi])
    popt, pcov = curve_fit(
        fringe_model, phases, counts, p0=p0, sigma=sigma, bounds=bounds, maxfev=20000,
        xtol=1e-14, ftol=1e-14, gtol=1e-14,
    )
    return float(popt[1]), math.sqrt(pcov[1, 1]), popt


def tustin_lowpass_by_lfilter(drive, f_3db_ghz, sample_rate_ghz):
    """The filter of :func:`tustin_lowpass_by_sample_loop`, run by SciPy's lfilter."""
    from scipy.signal import lfilter, lfilter_zi

    x = np.asarray(drive, dtype=float)
    lam = math.tan(math.pi * f_3db_ghz / sample_rate_ghz)
    b = [lam / (1.0 + lam), lam / (1.0 + lam)]
    a = [1.0, (lam - 1.0) / (1.0 + lam)]
    return lfilter(b, a, x, zi=lfilter_zi(b, a) * x[0])[0]


def s21_db_by_sine_fit(f_3db_ghz, freq_ghz, sample_rate_ghz):
    """Power response in dB of :func:`tustin_lowpass_by_lfilter`, measured in time.

    A unit sine runs through the filter for 12 time constants
    1 / (2 pi f_3db) to settle plus 40 periods; the amplitude of the
    settled output comes from a least-squares fit of sin, cos and a
    constant.
    """
    settle_ns = 12.0 / (2.0 * math.pi * f_3db_ghz)
    n = int(math.ceil((settle_ns + 40.0 / freq_ghz) * sample_rate_ghz)) + 1
    t = np.arange(n) / sample_rate_ghz
    y = tustin_lowpass_by_lfilter(np.sin(2.0 * math.pi * freq_ghz * t), f_3db_ghz, sample_rate_ghz)
    keep = t >= settle_ns
    ts = t[keep]
    design = np.column_stack(
        [np.sin(2.0 * math.pi * freq_ghz * ts), np.cos(2.0 * math.pi * freq_ghz * ts), np.ones_like(ts)]
    )
    coef = np.linalg.lstsq(design, y[keep], rcond=None)[0]
    return 20.0 * math.log10(math.hypot(coef[0], coef[1]))


def s21_crossing_by_scan(f_3db_ghz, threshold_db, sample_rate_ghz, n_points=41):
    """Where :func:`s21_db_by_sine_fit` crosses ``threshold_db``, from a scan.

    The scan is geometric over [f_3db / 4, min(4 f_3db, fs / 2.2)]; the
    crossing is interpolated linearly in log-frequency between the two
    points that bracket it.
    """
    freqs = np.geomspace(f_3db_ghz / 4.0, min(4.0 * f_3db_ghz, sample_rate_ghz / 2.2), n_points)
    s21 = np.array([s21_db_by_sine_fit(f_3db_ghz, f, sample_rate_ghz) for f in freqs])
    hi = int(np.argmax(s21 <= threshold_db))
    assert 0 < hi and s21[hi] <= threshold_db, "threshold not bracketed by the scan"
    frac = (threshold_db - s21[hi - 1]) / (s21[hi] - s21[hi - 1])
    return math.exp(math.log(freqs[hi - 1]) + frac * math.log(freqs[hi] / freqs[hi - 1]))


def tustin_step_by_lfilter(n_samples, f_3db_ghz, sample_rate_ghz):
    """Unit step through the same filter with zero drive before it, by lfilter."""
    from scipy.signal import lfilter

    lam = math.tan(math.pi * f_3db_ghz / sample_rate_ghz)
    b = [lam / (1.0 + lam), lam / (1.0 + lam)]
    a = [1.0, (lam - 1.0) / (1.0 + lam)]
    return lfilter(b, a, np.ones(n_samples), zi=np.zeros(1))[0]


def least_squares_by_minpack(fun, x0, jac="2-point"):
    """(x, sum of squared residuals) from SciPy's MINPACK Levenberg-Marquardt.

    ``jac`` maps x to the Jacobian of ``fun``; by default MINPACK takes
    forward differences, which can stop a few 1e-6 short of the optimum.
    """
    from scipy.optimize import least_squares

    fit = least_squares(fun, x0, jac=jac, method="lm", xtol=1e-14, ftol=1e-14, gtol=1e-14)
    return fit.x, 2.0 * fit.cost


def reconstruction_residual_by_pair_loop(u, singles, pairs, x):
    """Residual vector of the reconstruction fit for one matrix, one input pair at a time.

    ``pairs`` maps each input pair (k, l) to its collision-free
    probabilities in ``np.triu_indices`` order.  The residual is the
    singles |u|^2 minus ``singles``, row-major, then for each input pair in
    sorted order the pair probabilities x |a + b|^2 + (1 - x)(|a|^2 + |b|^2),
    with a = u[i, k] u[j, l] and b = u[j, k] u[i, l], minus the data.
    """
    n = u.shape[0]
    iu, ju = np.triu_indices(n, 1)
    parts = [(np.abs(u) ** 2 - singles).ravel()]
    for (k, l), data in sorted(pairs.items()):
        amp = np.outer(u[:, k], u[:, l])
        a, b = amp[iu, ju], amp[ju, iu]
        parts.append(x * np.abs(a + b) ** 2 + (1.0 - x) * (np.abs(a) ** 2 + np.abs(b) ** 2) - data)
    return np.concatenate(parts)


def forward_difference_by_columns(fun, x, rel_step):
    """Forward-difference Jacobian of ``fun`` at ``x``, one column at a time.

    Column c steps x[c] by ``rel_step * max(1, |x[c]|)`` and divides by the
    step actually taken, ``(x[c] + step) - x[c]``.
    """
    r = fun(x)
    jac = np.empty((r.size, x.size))
    for col in range(x.size):
        shifted = x.copy()
        shifted[col] += rel_step * max(1.0, abs(x[col]))
        jac[:, col] = (fun(shifted) - r) / (shifted[col] - x[col])
    return jac


def sweep_by_rebuilt_budgets(budget, grating, wavelengths_nm, coupler_labels):
    """End-to-end transmission per wavelength, from a whole budget rebuilt at each one.

    Every entry labelled in ``coupler_labels`` is replaced, through
    ``dataclasses.replace``, by a fixed loss equal to the grating's insertion
    loss at that wavelength; the rebuilt budget's own
    ``end_to_end_transmission`` is the result.
    """
    out = []
    for wl in wavelengths_nm:
        loss_db = -grating.efficiency_db(float(wl))
        entries = tuple(
            dataclasses.replace(e, loss_db=loss_db, db_per_cm=None, length_cm=None)
            if e.label in coupler_labels
            else e
            for e in budget.entries
        )
        out.append(dataclasses.replace(budget, entries=entries).end_to_end_transmission)
    return np.array(out)
