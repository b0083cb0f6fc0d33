"""Physical models of the integrated building blocks.

Conventions used throughout:

* A directional coupler with cross-coupled power fraction ``r`` has the
  symmetric transfer matrix ``[[sqrt(1-r), i sqrt(r)], [i sqrt(r), sqrt(1-r)]]``;
  the balanced case is ``(1/sqrt 2) [[1, i], [i, 1]]``.
* An MZI applies its internal phase on the upper arm between the two
  couplers.  With ideal couplers the bar-port power transmission is
  ``sin^2(phase/2)``: zero phase is a full cross state, phase pi is bar.
* Finite extinction comes from an imbalanced input coupler against a
  balanced output coupler, not from phase error.
* The phase shifter's phase is pi V / V_pi, and its bandwidth is a single
  pole at its -3 dB corner.  Its response to a drive held one level per
  slot, its S21 and its -3 dB crossing are closed forms.

Building and calibrating a cell needs only the standard library.  Numpy
is imported inside the array kernels alone: :func:`mzi_transfer` and its
column helper, :func:`eom_response`,
:func:`eom_slot_response` and :func:`eom_s21_db`.

A cell built without a shifter shares one stock ``PhaseShifterParams()``.
A calibration (:meth:`MZIParams.with_extinction`, :func:`extinction_ratio_db`,
:func:`demux_input_transmissions`, :func:`estimate_mzi_loss_from_demux`)
therefore builds the cell and no shifter; the tree's transmissions are
straight-line scalar code, and the loss estimate is one pass over the
named inputs, with no copy of the tree, generator or dict per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EXTINCTION_CAP_DB",
    "MZIParams",
    "PhaseShifterParams",
    "demux_input_transmissions",
    "eom_response",
    "eom_s21_db",
    "eom_slot_response",
    "estimate_mzi_loss_from_demux",
    "extinction_ratio_db",
    "mzi_transfer",
    "phase_from_voltage",
    "s21_crossing_ghz",
    "voltage_for_phase",
]

#: Reported in place of an unbounded extinction ratio (a balanced input coupler).
EXTINCTION_CAP_DB = 300.0

#: Switches in the 1-to-4 tree: one first-layer switch feeding two second-layer ones.
N_TREE_SWITCHES = 3

#: Most sweeps of the slot recurrence worth running before one slot at a time is cheaper.
_MAX_SWEEPS = 16


@dataclass(frozen=True)
class PhaseShifterParams:
    """Electro-optic phase shifter: voltage-to-phase map plus analog bandwidth.

    Attributes:
        v_pi_volts: voltage producing a pi phase shift; zero volts is zero phase.
        f_3db_ghz: single-pole small-signal bandwidth; ``math.inf`` models an
            instantaneous shifter.
    """

    v_pi_volts: float = 4.5
    f_3db_ghz: float = 6.5

    def __post_init__(self):
        if not (math.isfinite(self.v_pi_volts) and self.v_pi_volts > 0):
            raise ValueError(f"v_pi_volts must be positive and finite, got {self.v_pi_volts}")
        if not (self.f_3db_ghz > 0):
            raise ValueError(f"f_3db_ghz must be positive, got {self.f_3db_ghz}")


#: The shifter of every cell built without one; frozen, so one instance serves them all.
_STOCK_SHIFTER = PhaseShifterParams()


@dataclass(frozen=True)
class MZIParams:
    """A 2x2 Mach-Zehnder switch cell: two couplers around one phase shifter.

    Attributes:
        shifter: the phase shifter on the upper arm; a cell built without
            one shares the module's stock ``PhaseShifterParams()``.
        coupler_imbalance: the input coupler's cross-coupled power fraction
            is 1/2 plus this, in [0, 1]; the output coupler is balanced.
        insertion_loss_db: loss of the whole cell, shared by both paths.
    """

    shifter: PhaseShifterParams = _STOCK_SHIFTER
    coupler_imbalance: float = 0.0
    insertion_loss_db: float = 0.0

    def __post_init__(self):
        # Written so that nan fails it.
        if not abs(self.coupler_imbalance) <= 0.5:
            raise ValueError(f"coupler_imbalance must lie in [-0.5, 0.5], got {self.coupler_imbalance}")
        if not (math.isfinite(self.insertion_loss_db) and self.insertion_loss_db >= 0):
            raise ValueError("insertion_loss_db is a finite, non-negative magnitude")

    @classmethod
    def ideal(cls, shifter: PhaseShifterParams | None = None) -> "MZIParams":
        return cls(shifter or _STOCK_SHIFTER)

    @classmethod
    def with_bar_leakage(
        cls, leakage: float, shifter: PhaseShifterParams | None = None, insertion_loss_db: float = 0.0
    ) -> "MZIParams":
        """Cell whose worst-port power leakage equals ``leakage`` (linear).

        An input coupler detuned by delta gives a minimum bar power of
        l = 1/2 - sqrt(1/4 - delta^2); inverting, delta = sqrt(l (1 - l)).
        The same l is also the bar-state leakage into the cross port, so a
        single number calibrates both switch states.
        """
        if not (0.0 <= leakage < 0.5):
            raise ValueError(f"leakage must lie in [0, 0.5), got {leakage}")
        delta = math.sqrt(leakage * (1.0 - leakage))
        return cls(shifter or _STOCK_SHIFTER, delta, insertion_loss_db)

    @classmethod
    def with_extinction(
        cls, er_db: float, shifter: PhaseShifterParams | None = None, insertion_loss_db: float = 0.0
    ) -> "MZIParams":
        """Cell whose bar-port extinction ratio equals ``er_db``, in
        (0, ``EXTINCTION_CAP_DB``]: its leakage l gives ``er_db = 10 log10((1 - l) / l)``.

        It is the :meth:`with_bar_leakage` cell of that l, bit for bit.
        Below about 1.45e-15 dB l rounds to 1/2, which that method refuses;
        the cell is then the fully crossed one, at 0 dB.
        """
        # Written so that nan fails it.
        if not 0.0 < er_db <= EXTINCTION_CAP_DB:
            raise ValueError(f"extinction ratio must lie in (0, {EXTINCTION_CAP_DB:g}] dB, got {er_db}")
        leakage = 1.0 / (1.0 + 10.0 ** (er_db / 10.0))
        return cls(shifter or _STOCK_SHIFTER, math.sqrt(leakage * (1.0 - leakage)), insertion_loss_db)


def phase_from_voltage(p: PhaseShifterParams, volts: float | np.ndarray) -> float | np.ndarray:
    """Linear electro-optic phase pi * V / V_pi, elementwise on arrays; a
    voltage that is not finite passes through as a phase that is not finite."""
    return math.pi * volts / p.v_pi_volts


def voltage_for_phase(p: PhaseShifterParams, phase_rad: float) -> float:
    """Smallest-|V| drive realizing ``phase_rad`` modulo 2 pi.

    The phase request is reduced to the representative in (-pi, pi], so a
    pi request returns +V_pi rather than -V_pi.

    Raises:
        ValueError: for a phase that is not finite.
    """
    if not math.isfinite(phase_rad):
        raise ValueError(f"phase_rad must be finite, got {phase_rad}")
    wrapped = math.remainder(phase_rad, 2.0 * math.pi)
    if wrapped == -math.pi:
        wrapped = math.pi
    return wrapped * p.v_pi_volts / math.pi


def mzi_transfer(m: MZIParams, phase_rad: float | np.ndarray) -> np.ndarray:
    """Transfer matrix C_out . diag(e^{i phase}, 1) . C_in with uniform loss.

    ``phase_rad`` may be a scalar or an array of shape S; the result has
    shape S + (2, 2), one matrix per phase.  The product expands to
    ``e^{i phase} (c_out[:, 0] x c_in[0, :]) + c_out[:, 1] x c_in[1, :]``.
    Insertion loss scales amplitudes by 10^(-insertion_loss_db / 20).  A
    phase that is not finite passes through as a matrix of nan.
    """
    import numpy as np
    entries = _mzi_columns(m, phase_rad, slice(None))
    # C order, so that each 2x2 block multiplies as a plain matrix.
    return np.ascontiguousarray(entries.transpose(*range(2, entries.ndim), 0, 1))


def _mzi_columns(m: MZIParams, phase_rad: float | np.ndarray, inputs: slice) -> np.ndarray:
    """The ``inputs`` columns of :func:`mzi_transfer`, entry first: shape (2, k) + S.

    Each entry is one pass over all the phases.
    """
    import numpy as np
    r = 0.5 + m.coupler_imbalance
    t, k = math.sqrt(1.0 - r), math.sqrt(r)
    h = math.sqrt(0.5)  # the balanced output coupler's bar and cross amplitude
    rotation = np.exp(1j * np.asarray(phase_rad, dtype=float))
    per_phase = (...,) + (np.newaxis,) * rotation.ndim
    upper = np.outer([h, 1j * h], np.array([t, 1j * k])[inputs])[per_phase]
    lower = np.outer([1j * h, h], np.array([1j * k, t])[inputs])[per_phase]
    return 10.0 ** (-m.insertion_loss_db / 20.0) * (rotation * upper + lower)


def extinction_ratio_db(m: MZIParams) -> float:
    """Bar-port extinction ratio 10 log10(max/min) over the internal phase.

    The bar amplitude is ``e^{i phase} t1 t2 - k1 k2`` (times the loss
    factor, which cancels), so the ratio is
    ``20 log10((t1 t2 + k1 k2) / |t1 t2 - k1 k2|)`` with t, k the bar and
    cross amplitudes of the two couplers.  A cell with zero minimum
    leakage (a balanced input coupler) is reported at the cap
    ``EXTINCTION_CAP_DB``.
    """
    r1 = 0.5 + m.coupler_imbalance
    t1, k1 = math.sqrt(1.0 - r1), math.sqrt(r1)
    t2 = k2 = math.sqrt(0.5)  # the balanced output coupler
    leak = abs(t1 * t2 - k1 * k2)
    if leak == 0.0:
        return EXTINCTION_CAP_DB
    return min(20.0 * math.log10((t1 * t2 + k1 * k2) / leak), EXTINCTION_CAP_DB)


def eom_response(p: PhaseShifterParams, drive: Sequence[float], sample_rate_ghz: float) -> np.ndarray:
    """The shifter's response to a drive that holds each sample for ``1 / sample_rate_ghz``.

    This is :func:`eom_slot_response` with one slot per sample, read at
    each sample's instant, so constant drives pass through unchanged.

    Args:
        p: shifter parameters; ``f_3db_ghz = math.inf`` bypasses filtering.
        drive: waveform samples (volts), uniformly sampled.
        sample_rate_ghz: sample rate, positive and finite.
    """
    import numpy as np
    x = np.asarray(drive, dtype=float)
    if x.ndim != 1:
        raise ValueError("drive must be a 1-d waveform")
    if not (math.isfinite(sample_rate_ghz) and sample_rate_ghz > 0):
        raise ValueError(f"sample_rate_ghz must be positive and finite, got {sample_rate_ghz}")
    if x.size == 0:
        return x.copy()
    dt = 1.0 / sample_rate_ghz
    return eom_slot_response(p, x, dt, dt * np.arange(x.size))


def eom_slot_response(
    p: PhaseShifterParams, levels: Sequence[float], slot_ns: float, times_ns: np.ndarray
) -> np.ndarray:
    """The shifter's response at ``times_ns`` to a drive held one level per slot.

    Slot j holds ``levels[j]`` from ``t_j = j slot_ns`` on; the first level
    was held forever before, and the last is held after the final slot.
    The shifter is one pole with ``tau = 1 / (2 pi f_3db)``, whose exact
    response to a piecewise-constant drive is

        y(t) = v_j + d_j exp(-(t - t_j) / tau)   in slot j,
        d_j = (v_{j-1} - v_j) + q d_{j-1},   d_0 = 0,   q = exp(-slot_ns / tau),

    continuous at every slot edge.  Numpy sweeps ``d <- c + q shift(d)``
    over all slots, with ``c`` the steps, until the array stops changing.
    A fixed point rounds every step as the sequential recurrence does, and
    only one sequence with ``d_0 = 0`` does that, so by induction on j it
    is that recurrence, bit for bit.  Sweep k settles at least slots
    0 .. k, and an offset in d_{j-k} reaches d_j as q^k, so the sweeps stop
    about when q^k underflows.  When that takes more than ``_MAX_SWEEPS``
    sweeps, q is too close to one and the recurrence runs one slot at a
    time; q alone picks the path.
    """
    import numpy as np
    v = np.asarray(levels, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("levels must be a non-empty 1-d array")
    if not (math.isfinite(slot_ns) and slot_ns > 0):
        raise ValueError(f"slot_ns must be positive and finite, got {slot_ns}")
    t = np.asarray(times_ns, dtype=float)
    starts = slot_ns * np.arange(v.size)
    slot = np.maximum(np.searchsorted(starts, t, side="right") - 1, 0)
    if not math.isfinite(p.f_3db_ghz):
        return v[slot]
    # 1 / f_3db first: for a band near the float range, 2 pi f_3db overflows.
    tau = 1.0 / p.f_3db_ghz / (2.0 * math.pi)
    q = math.exp(-slot_ns / tau)
    steps = v[:-1] - v[1:]
    if q**_MAX_SWEEPS > 0.0:  # long memory
        d = np.fromiter(
            accumulate(steps.tolist(), lambda prev, c: c + q * prev, initial=0.0), float, v.size
        )
    else:
        d = np.concatenate([[0.0], steps])
        # Sweep v.size - 1 settles every slot, whatever the input.
        for _ in range(v.size - 1):
            swept = steps + q * d[:-1]
            if np.array_equal(swept.view(np.int64), d[1:].view(np.int64)):
                break
            d[1:] = swept
    # Instants before the first slot see the first level.  A narrow tau
    # sends the exponent to inf, whose e^-inf = 0 is the limit it stands for.
    with np.errstate(over="ignore"):
        decay = np.exp(-np.maximum(t - starts[slot], 0.0) / tau)
    return v[slot] + decay * d[slot]


def eom_s21_db(p: PhaseShifterParams, freqs_ghz: Iterable[float]) -> np.ndarray:
    """Small-signal power response (dB, 0 dB at DC) at the given frequencies.

    The single pole gives ``-10 log10(1 + (f / f_3db)^2)``.  An
    instantaneous shifter passes every frequency at 0 dB.

    Raises:
        ValueError: for a frequency that is not positive and finite.
    """
    import numpy as np
    f = np.fromiter(freqs_ghz, dtype=float)
    if not np.all((f > 0.0) & (f < math.inf)):
        raise ValueError("probe frequencies must be positive and finite")
    # hypot keeps 1 + (f / f_3db)^2 from overflowing.
    return -20.0 * np.log10(np.hypot(1.0, f / p.f_3db_ghz))


def s21_crossing_ghz(p: PhaseShifterParams) -> float:
    """Frequency where the shifter's S21 (:func:`eom_s21_db`) crosses -3 dB.

    Inverting the single pole gives ``f = f_3db sqrt(10^0.3 - 1)``, 6.4846 GHz
    for a 6.5 GHz shifter: just below f_3db, as -3 dB is not exactly half power.

    Raises:
        ValueError: for an instantaneous shifter, whose S21 never falls.
    """
    if math.isinf(p.f_3db_ghz):
        raise ValueError("an instantaneous shifter's S21 crosses no threshold")
    # With u = 3 ln(10) / 20 the root is e^u sqrt(1 - e^(-2u)).
    u = 3.0 * math.log(10.0) / 20.0
    return p.f_3db_ghz * math.sqrt(-math.expm1(-2.0 * u)) * math.exp(u)


def demux_input_transmissions(
    tree: Sequence[MZIParams],
) -> tuple[tuple[float, ...], tuple[int, ...], tuple[int, ...]]:
    """Total output power for light injected into each input port of the 1-to-4 tree.

    Port order: 0 and 1 are the two first-layer inputs (internal, two MZIs
    to any output); 2 and 3 are the spare second-layer inputs (external,
    one MZI).  Returns ``(transmissions, external_indices, internal_indices)``
    ready for :func:`estimate_mzi_loss_from_demux`; ``transmissions`` is a
    tuple of the four ports' floats.

    The couplers are lossless, so switch s passes L_s^2 = 10^(-IL_s / 10)
    of the power from either input: port 2 gives L_1^2, port 3 gives L_2^2
    and port c gives L_0^2 (f_c L_1^2 + (1 - f_c) L_2^2).  Here f_0 =
    (1-r1)(1-r2) + r1 r2 - 2 sqrt(r1 (1-r1) r2 (1-r2)) cos(phase_0) is the
    share of switch 0's input 0 that leaves by its output 0, r1 and r2 =
    1/2 are its input and output coupler ratios, and f_1 = 1 - f_0.
    Switch 0 is held at phase_0 = pi/2; the phases of switches 1 and 2
    drop out, and a lossless tree gives exactly 1 on every port.
    """
    try:
        m0, m1, m2 = tree
    except ValueError:
        raise ValueError(f"tree needs exactly {N_TREE_SWITCHES} switches") from None
    r1, r2 = 0.5 + m0.coupler_imbalance, 0.5
    # Switch 0 at pi/2, whose float cosine is 6.1e-17, not 0.
    mix = 2.0 * math.sqrt(r1 * (1.0 - r1) * r2 * (1.0 - r2)) * math.cos(0.5 * math.pi)
    f0 = (1.0 - r1) * (1.0 - r2) + r1 * r2 - mix
    f1 = 1.0 - f0
    l0 = 10.0 ** (-m0.insertion_loss_db / 10.0)
    l1 = 10.0 ** (-m1.insertion_loss_db / 10.0)
    l2 = 10.0 ** (-m2.insertion_loss_db / 10.0)
    return (l0 * (f0 * l1 + f1 * l2), l0 * (f1 * l1 + (1.0 - f1) * l2), l1, l2), (2, 3), (0, 1)


def estimate_mzi_loss_from_demux(
    transmissions: Sequence[float],
    external_inputs: Iterable[int],
    internal_inputs: Iterable[int],
) -> float:
    """Per-MZI insertion loss from total transmissions of a switch tree.

    Light entering an external (spare second-layer) port crosses one MZI;
    light entering an internal (first-layer) port crosses two.  Averaging
    in dB and differencing cancels everything shared between the paths.

    Args:
        transmissions: per-input total linear output power, in (0, 1].
        external_inputs: indices of one-MZI inputs.
        internal_inputs: indices of two-MZI inputs.

    Returns:
        Per-MZI loss in positive dB.
    """
    # tuple() returns a tuple argument itself, as demux_input_transmissions gives.
    ext = tuple(external_inputs)
    internal = tuple(internal_inputs)
    if not ext or not internal:
        raise ValueError("need at least one external and one internal input")
    if not set(ext).isdisjoint(internal):
        raise ValueError("an input cannot be both external and internal")
    db = []
    for idx in ext + internal:
        if not (0 <= idx < len(transmissions)):
            raise IndexError(f"input index {idx} out of range")
        value = float(transmissions[idx])
        if not (0.0 < value <= 1.0):
            raise ValueError(f"transmission at index {idx} must lie in (0, 1]")
        db.append(10.0 * math.log10(value))
    n_ext = len(ext)
    return sum(db[:n_ext]) / n_ext - sum(db[n_ext:]) / len(internal)
