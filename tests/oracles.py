"""Independent reference implementations used to cross-check the package.

Everything here is written for clarity over speed, on purpose, and avoids
calling into lnoisim so that a bug in the package cannot hide inside its
own oracle.  The SciPy references import SciPy inside the function, so
this module loads without it.
"""

import bisect
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


def tree_transmissions_by_matmul(cells, phases):
    """Total output power per input port of the 1-to-4 switch tree, by matrices.

    ``cells`` holds three ``MZIParams`` (the first-layer switch, then the
    switches feeding outputs 0-1 and 2-3) and ``phases`` one phase each;
    each switch is :func:`mzi_by_matmul`.  The tree is the literal 4x4
    product (m1 (+) m2) . P . (m0 (+) 1), where P sends the first switch's
    outputs to input 0 of switches 1 and 2 and ports 2 and 3 to their
    input 1.  Port j's transmission is the power of column j.
    """
    m0, m1, m2 = (
        mzi_by_matmul(0.5 + c.coupler_imbalance, 0.5, c.insertion_loss_db, ph)
        for c, ph in zip(cells, phases, strict=True)
    )
    first = np.eye(4, dtype=complex)
    first[:2, :2] = m0
    wiring = np.eye(4)[[0, 2, 1, 3]]
    second = np.zeros((4, 4), dtype=complex)
    second[:2, :2] = m1
    second[2:, 2:] = m2
    tree = second @ wiring @ first
    return np.sum(np.abs(tree) ** 2, axis=0)


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


def modulator_layout_by_touched_modes(pairs):
    """Drivable modulators of a mesh with cells on ``pairs``, in list order:
    name -> (cell index, role).

    Every cell has an internal modulator.  A cell's external phase is
    drivable only when some earlier cell already touched its upper mode;
    otherwise it sits directly on a chip input, where it is pure gauge and
    no electrode exists.  This holds for any cell order.
    """
    layout = {}
    touched = set()
    for idx, (upper, lower) in enumerate(pairs):
        layout[f"cell{idx}.theta"] = (idx, "internal")
        if upper in touched:
            layout[f"cell{idx}.phi"] = (idx, "external")
        touched.update((upper, lower))
    return layout


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


def pole_response_by_photon_loop(levels, slot_ns, f_3db_ghz, times_ns):
    """A single pole's response to a drive held one level per slot, one instant at a time.

    Slot j holds ``levels[j]`` from ``t_j = j slot_ns`` on; the first level
    was held forever before, and the last is held after the final slot.
    With tau = 1 / (2 pi f_3db), the output in slot j is
    ``v_j + d_j exp(-(t - t_j) / tau)``; it is continuous at each edge, so
    ``d_0 = 0`` and ``d_j = (v_(j-1) - v_j) + exp(-slot_ns / tau) d_(j-1)``,
    run sequentially in Python floats.  An infinite bandwidth returns the
    held level.
    """
    v = [float(x) for x in levels]
    times = [float(t) for t in times_ns]
    starts = [j * slot_ns for j in range(len(v))]
    out = []
    if math.isinf(f_3db_ghz):
        for t in times:
            out.append(v[max(bisect.bisect_right(starts, t) - 1, 0)])
        return np.array(out)
    tau = 1.0 / f_3db_ghz / (2.0 * math.pi)
    q = math.exp(-slot_ns / tau)
    d = [0.0]
    for prev, cur in zip(v, v[1:]):
        d.append((prev - cur) + q * d[-1])
    for t in times:
        j = max(bisect.bisect_right(starts, t) - 1, 0)
        out.append(v[j] + d[j] * math.exp(-max(t - starts[j], 0.0) / tau))
    return np.array(out)


def zoh_lowpass_by_lfilter(drive, f_3db_ghz, sample_rate_ghz):
    """1 / (1 + s tau) after a zero-order hold of ``drive``, at the sample instants.

    SciPy's ``cont2discrete`` derives the step-invariant equivalent of the
    pole, and ``lfilter`` runs it from the first sample held forever.
    """
    from scipy.signal import cont2discrete, lfilter, lfilter_zi

    x = np.asarray(drive, dtype=float)
    tau = 1.0 / (2.0 * math.pi * f_3db_ghz)
    num, den, _ = cont2discrete(([1.0], [tau, 1.0]), 1.0 / sample_rate_ghz, method="zoh")
    b = num.ravel()
    return lfilter(b, den, x, zi=lfilter_zi(b, den) * x[0])[0]


def s21_db_by_lsim_fit(f_3db_ghz, freq_ghz, points_per_period=400):
    """Power response in dB of 1 / (1 + s tau), measured in time by SciPy's ``lsim``.

    A unit sine, sampled ``points_per_period`` times a period and joined
    linearly, runs through the pole for 20 time constants to settle plus
    20 periods; the amplitude of the settled output comes from a
    least-squares fit of sin, cos and a constant.  Joining the samples
    linearly scales the sine by about 1 - (pi / points_per_period)^2 / 3,
    which reads 1.8e-4 dB low at 400 points.
    """
    from scipy.signal import lsim

    tau = 1.0 / (2.0 * math.pi * f_3db_ghz)
    settle_ns = 20.0 * tau
    dt = 1.0 / (points_per_period * freq_ghz)
    t = dt * np.arange(int(math.ceil((settle_ns + 20.0 / freq_ghz) / dt)) + 1)
    _, y, _ = lsim(([1.0], [tau, 1.0]), np.sin(2.0 * math.pi * freq_ghz * t), t)
    keep = t >= settle_ns
    ts = t[keep]
    design = np.column_stack(
        [np.sin(2.0 * math.pi * freq_ghz * ts), np.cos(2.0 * math.pi * freq_ghz * ts), np.ones_like(ts)]
    )
    coef = np.linalg.lstsq(design, y[keep], rcond=None)[0]
    return 20.0 * math.log10(math.hypot(coef[0], coef[1]))


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


def fringe_model(phase, amplitude, visibility):
    """A (1 - V + (1 + V) cos^2 phase) / 2, the fitted HOM fringe."""
    return amplitude * (1.0 - visibility + (1.0 + visibility) * np.cos(phase) ** 2) / 2.0


def fringe_fit_by_curve_fit(phases, counts, sigma=None):
    """(V, stderr of V, parameters) of :func:`fringe_model` from SciPy's curve_fit.

    Unbounded Levenberg-Marquardt, started at (max counts, 1 - 2 min/max);
    the covariance is curve_fit's default, scaled by chi^2 / (N - 2).  The
    tolerances are tightened from curve_fit's 1e-8 to 1e-14, so that the
    fit stops at the optimum in V to well under 1e-6.
    """
    from scipy.optimize import curve_fit

    counts = np.asarray(counts, dtype=float)
    top = float(counts.max())
    p0 = [top, 1.0 - 2.0 * counts.min() / top]
    popt, pcov = curve_fit(
        fringe_model, phases, counts, p0=p0, sigma=sigma, maxfev=20000,
        xtol=1e-14, ftol=1e-14, gtol=1e-14,
    )
    return float(popt[1]), math.sqrt(pcov[1, 1]), popt


def least_squares_by_minpack(fun, x0, jac):
    """(x, sum of squared residuals) from SciPy's MINPACK Levenberg-Marquardt.

    ``jac`` maps x to the Jacobian of ``fun``.  The variables are unscaled
    (MINPACK's ``diag`` of ones), whatever SciPy's default: since SciPy 1.16
    it is Moré's column-norm scaling, with which MINPACK stops short of the
    reconstruction optimum, at a higher cost and 1e-6 to 6e-5 from it, on
    about 1 draw in 1,100 of noisy statistics.
    """
    from scipy.optimize import least_squares

    fit = least_squares(
        fun, x0, jac=jac, method="lm", xtol=1e-14, ftol=1e-14, gtol=1e-14, x_scale=1.0
    )
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


def canonical_form_by_first_row_and_column(u, tol=1e-9):
    """Port phases fixed on row 0 and column 0 alone, then one conjugation
    for the whole matrix: the canonical form for a matrix with no zero there."""
    w = np.array(u, dtype=complex)
    for j in range(w.shape[1]):
        if abs(w[0, j]) > tol:
            w[:, j] *= np.conj(w[0, j]) / abs(w[0, j])
    for i in range(1, w.shape[0]):
        if abs(w[i, 0]) > tol:
            w[i, :] *= np.conj(w[i, 0]) / abs(w[i, 0])
    for value in w.ravel():
        if abs(value.imag) > tol:
            return np.conj(w) if value.imag < 0 else w
    return w
