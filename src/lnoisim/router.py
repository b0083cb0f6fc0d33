"""Time-domain simulation of a 1-to-4 MZI switch tree.

The tree has one first-layer switch (index 0) feeding two second-layer
switches (1: outputs 0 and 1, 2: outputs 2 and 3).  A photon train with
one photon per repetition period enters port 0 of the first switch; square
drive waveforms route consecutive photons to consecutive outputs.  Drive
channels pass through each shifter's analog low-pass response before the
phase is evaluated at the photon arrival instants (slot centers).

Drive levels use {0, V_pi}: zero volts is a full cross state, V_pi is bar.
The first-layer channel toggles every two slots (it selects the output
pair) and the shared second-layer channel toggles every slot (it selects
the output within the pair), giving a frame of four slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .components import (
    MZIParams,
    PhaseShifterParams,
    _mzi_columns,
    eom_slot_response,
    phase_from_voltage,
)
from .errors import DimensionError, TimingError, TopologyError
from .photons import SourceModel

__all__ = [
    "PulseProgram",
    "SWITCH_CHANNELS",
    "SwitchMetrics",
    "TimeTrace",
    "default_pulse_program",
    "demux_input_transmissions",
    "simulate_demux",
    "switch_metrics",
]

#: Output pair fed by each switch: switch 1 -> outputs (0, 1), switch 2 -> (2, 3).
N_TREE_SWITCHES = 3
N_OUTPUTS = 4
SLOTS_PER_FRAME = 4

#: Slack allowed when checking that a program covers the photon train.
TIMING_TOLERANCE_NS = 1e-9

#: The channel driving each switch: "A" the first layer, "B" both second-layer switches.
SWITCH_CHANNELS = ("A", "B", "B")


@dataclass(frozen=True, eq=False)
class PulseProgram:
    """Drive levels held for whole slots on a shared uniform sample grid.

    Every channel holds one level per slot; slot j covers the samples
    ``j S .. j S + S - 1`` of a grid with spacing ``slot_ns / S``.

    Attributes:
        slot_ns: slot duration.
        samples_per_slot: grid samples per slot (S, at least 2).
        levels: per-slot drive (volts) of channels "A" and "B", equally long;
            :data:`SWITCH_CHANNELS` names the switches each one drives.
        start_ns: time of the first sample.
    """

    slot_ns: float
    samples_per_slot: int
    levels: dict[str, np.ndarray]
    start_ns: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.slot_ns) and self.slot_ns > 0):
            raise ValueError(f"slot_ns must be positive and finite, got {self.slot_ns}")
        if int(self.samples_per_slot) != self.samples_per_slot or self.samples_per_slot < 2:
            raise ValueError("samples_per_slot must be an integer of at least 2")
        if not math.isfinite(self.start_ns):
            raise ValueError("start_ns must be finite")
        object.__setattr__(self, "slot_ns", float(self.slot_ns))
        object.__setattr__(self, "samples_per_slot", int(self.samples_per_slot))
        object.__setattr__(self, "start_ns", float(self.start_ns))
        if set(self.levels) != set(SWITCH_CHANNELS):
            raise TopologyError(f"the channels must be 'A' and 'B', got {list(self.levels)}")
        levels = {}
        for name, values in self.levels.items():
            arr = np.array(values, dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise DimensionError(f"channel {name!r} needs a 1-d array of slot levels")
            if levels and arr.size != next(iter(levels.values())).size:
                raise DimensionError(f"channel {name!r} holds a different number of slots")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"channel {name!r} has non-finite levels")
            arr.setflags(write=False)
            levels[name] = arr
        object.__setattr__(self, "levels", levels)

    @property
    def n_samples(self) -> int:
        return next(iter(self.levels.values())).size * self.samples_per_slot

    @property
    def dt_ns(self) -> float:
        return self.slot_ns / self.samples_per_slot

    @property
    def sample_rate_ghz(self) -> float:
        return 1.0 / self.dt_ns

    @property
    def end_ns(self) -> float:
        """Time of the last sample."""
        return self.start_ns + self.dt_ns * (self.n_samples - 1)

    @property
    def t_ns(self) -> np.ndarray:
        """Sample times, built on each access."""
        t = self.start_ns + self.dt_ns * np.arange(self.n_samples)
        t.setflags(write=False)
        return t

    @property
    def channels(self) -> dict[str, np.ndarray]:
        """Waveform per channel on the sample grid, built on each access."""
        waves = {name: np.repeat(v, self.samples_per_slot) for name, v in self.levels.items()}
        for wave in waves.values():
            wave.setflags(write=False)
        return waves

    def filtered_drive(
        self, channel: str, shifter: PhaseShifterParams, times_ns: np.ndarray
    ) -> np.ndarray:
        """Channel drive after the shifter's low-pass response, at ``times_ns``.

        The filtered grid samples on either side of each instant come from
        :func:`eom_slot_response` and are joined linearly; instants outside
        the grid take the nearest end sample, as ``np.interp`` on
        ``t_ns`` does.
        """
        last = self.n_samples - 1
        u = np.clip((np.asarray(times_ns, dtype=float) - self.start_ns) / self.dt_ns, 0.0, last)
        lo = np.floor(u).astype(np.intp)
        w = u - lo
        ends = eom_slot_response(
            shifter,
            self.levels[channel],
            self.samples_per_slot,
            self.sample_rate_ghz,
            np.concatenate([lo, np.minimum(lo + 1, last)]),
        )
        below, above = ends[: lo.size], ends[lo.size :]
        return below + w * (above - below)


def default_pulse_program(
    repetition_period_ns: float = 13.8,
    v_pi_volts: float = 4.5,
    n_frames: int = 1,
    samples_per_slot: int = 256,
    start_ns: float = 0.0,
) -> PulseProgram:
    """Square-wave program routing slot k of every frame to output k.

    Channel "A" drives the first-layer switch and toggles every two slots;
    channel "B" is fanned out to both second-layer switches and toggles
    every slot.  Levels are exactly {0, v_pi_volts}.

    The default grid density keeps the sample rate above twice the stock
    shifter bandwidth (6.5 GHz) so the drive can be low-pass filtered
    without aliasing.
    """
    if repetition_period_ns <= 0:
        raise ValueError("repetition_period_ns must be positive")
    if n_frames < 1 or samples_per_slot < 2:
        raise ValueError("need at least one frame and two samples per slot")
    levels = {
        "A": np.tile([v_pi_volts, v_pi_volts, 0.0, 0.0], n_frames),
        "B": np.tile([v_pi_volts, 0.0, v_pi_volts, 0.0], n_frames),
    }
    return PulseProgram(repetition_period_ns, samples_per_slot, levels, start_ns)


@dataclass(frozen=True, eq=False)
class TimeTrace:
    """Per-output photon probabilities at each photon arrival instant."""

    times_ns: np.ndarray
    outputs: np.ndarray  # shape (n_events, N_OUTPUTS)

    def __post_init__(self):
        times = np.asarray(self.times_ns, dtype=float)
        outs = np.asarray(self.outputs, dtype=float)
        if outs.shape != (times.size, N_OUTPUTS):
            raise DimensionError(f"outputs must be (n_events, {N_OUTPUTS})")
        times.setflags(write=False)
        outs.setflags(write=False)
        object.__setattr__(self, "times_ns", times)
        object.__setattr__(self, "outputs", outs)

    @property
    def n_events(self) -> int:
        return int(self.times_ns.size)


def _switch_phases(
    tree: Sequence[MZIParams], program: PulseProgram, photon_times: np.ndarray
) -> np.ndarray:
    """Filtered drive phases per switch at each photon instant, shape (3, n)."""
    phases = np.empty((N_TREE_SWITCHES, photon_times.size))
    volts_cache: dict[tuple[str, float], np.ndarray] = {}
    for s, name in enumerate(SWITCH_CHANNELS):
        shifter = tree[s].shifter
        key = (name, shifter.f_3db_ghz)
        if key not in volts_cache:
            volts_cache[key] = program.filtered_drive(name, shifter, photon_times)
        phases[s] = phase_from_voltage(shifter, volts_cache[key])
    return phases


def simulate_demux(
    tree: Sequence[MZIParams],
    program: PulseProgram,
    source: SourceModel,
    n_frames: int,
    train_offset_ns: float = 0.0,
    phase_errors_rad: Sequence[float] = (0.0, 0.0, 0.0),
) -> TimeTrace:
    """Propagate a photon train through the actively switched tree.

    Photons arrive as instants at slot centers,
    ``t_k = train_offset_ns + (k + 1/2) T`` for ``k = 0 .. 4 n_frames - 1``
    with ``T`` the source repetition period.  Each switch's drive waveform
    is low-pass filtered by its shifter bandwidth, sampled at the photon
    instants, and converted to a phase (plus an optional static
    calibration error per switch).  The resulting per-output probabilities
    sum to one at every instant for a lossless tree.

    Raises:
        TimingError: when the program does not cover the photon train.
    """
    tree = list(tree)
    if len(tree) != N_TREE_SWITCHES:
        raise TopologyError(f"tree needs exactly {N_TREE_SWITCHES} switches")
    errors = tuple(float(e) for e in phase_errors_rad)
    if len(errors) != N_TREE_SWITCHES:
        raise DimensionError("phase_errors_rad needs one entry per switch")
    if n_frames < 1:
        raise ValueError("n_frames must be at least 1")
    period = source.repetition_period_ns
    times = train_offset_ns + period * (np.arange(SLOTS_PER_FRAME * n_frames) + 0.5)
    if (
        times[0] < program.start_ns - TIMING_TOLERANCE_NS
        or times[-1] > program.end_ns + TIMING_TOLERANCE_NS
    ):
        raise TimingError(
            f"photon train spans [{times[0]:.6g}, {times[-1]:.6g}] ns but the program "
            f"covers [{program.start_ns:.6g}, {program.end_ns:.6g}] ns"
        )

    phases = _switch_phases(tree, program, times) + np.array(errors)[:, None]
    # The photon enters port 0 of every cell, so only column 0 is needed;
    # each is (2, n), one row per output port of the cell.
    first, pair01, pair23 = (
        _mzi_columns(cell, ph, slice(0, 1))[:, 0] for cell, ph in zip(tree, phases)
    )
    amplitudes = np.empty((times.size, N_OUTPUTS), dtype=complex)
    np.multiply(pair01, first[0], out=amplitudes[:, :2].T)
    np.multiply(pair23, first[1], out=amplitudes[:, 2:].T)
    return TimeTrace(times, np.abs(amplitudes) ** 2)


@dataclass(frozen=True)
class SwitchMetrics:
    """Routing quality of a demultiplexer run."""

    average_probability: float
    per_slot_probability: tuple[float, float, float, float]
    suppression_db: float
    n_frames: int

    def to_json_dict(self) -> dict:
        suppression = self.suppression_db if math.isfinite(self.suppression_db) else None
        return {
            "average_probability": self.average_probability,
            "per_slot_probability": list(self.per_slot_probability),
            "suppression_db": suppression,
            "n_frames": self.n_frames,
        }


def switch_metrics(trace: TimeTrace) -> SwitchMetrics:
    """Average probability of routing slot k of each frame to output k.

    Per-event probabilities are normalized by the event's total output
    mass, so uniform tree loss does not masquerade as switching error.
    The unswitched residual is reported as ``10 log10(1 - p)``;
    perfect routing gives ``-inf``.
    """
    if trace.n_events == 0:
        raise DimensionError("trace holds no events")
    if trace.n_events % SLOTS_PER_FRAME:
        raise DimensionError("trace length must be a whole number of frames")

    totals = trace.outputs.sum(axis=1)
    if np.any(totals <= 0):
        raise ValueError("trace contains events with zero total probability")
    # Row f, column s: the event in slot s of frame f.
    frames = trace.outputs.reshape(-1, SLOTS_PER_FRAME, N_OUTPUTS)
    slots = np.arange(SLOTS_PER_FRAME)
    fractions = frames[:, slots, slots] / totals.reshape(-1, SLOTS_PER_FRAME)
    per_slot = tuple(float(np.mean(fractions[:, s])) for s in range(SLOTS_PER_FRAME))
    p = float(np.mean(fractions))
    residual = 1.0 - p
    suppression = 10.0 * math.log10(residual) if residual > 0 else -math.inf
    return SwitchMetrics(p, per_slot, suppression, trace.n_events // SLOTS_PER_FRAME)


def demux_input_transmissions(
    tree: Sequence[MZIParams], phases_rad: Sequence[float] = (0.5 * math.pi,) * 3
) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]:
    """Total output power for light injected into each tree input port.

    Port order: 0 and 1 are the two first-layer inputs (internal, two MZIs
    to any output); 2 and 3 are the spare second-layer inputs (external,
    one MZI).  Returns ``(transmissions, external_indices, internal_indices)``
    ready for :func:`lnoisim.components.estimate_mzi_loss_from_demux`.

    The couplers are lossless, so switch s passes L_s^2 = 10^(-IL_s / 10)
    of the power from either input: port 2 gives L_1^2, port 3 gives L_2^2
    and port c gives L_0^2 (f_c L_1^2 + (1 - f_c) L_2^2).  Here f_0 =
    (1-r1)(1-r2) + r1 r2 - 2 sqrt(r1 (1-r1) r2 (1-r2)) cos(phase_0) is the
    share of switch 0's input 0 that leaves by its output 0, r1 and r2
    are that switch's input and output coupler ratios, and f_1 = 1 - f_0.
    The phases of switches 1 and 2 drop out, and a lossless tree gives
    exactly 1 on every port.
    """
    tree = list(tree)
    if len(tree) != N_TREE_SWITCHES:
        raise TopologyError(f"tree needs exactly {N_TREE_SWITCHES} switches")
    if len(phases_rad) != N_TREE_SWITCHES:
        raise DimensionError(f"need one phase per switch, got {len(phases_rad)}")
    r1, r2 = tree[0].coupler_in.effective_ratio, tree[0].coupler_out.effective_ratio
    mix = 2.0 * math.sqrt(r1 * (1.0 - r1) * r2 * (1.0 - r2)) * math.cos(phases_rad[0])
    f0 = (1.0 - r1) * (1.0 - r2) + r1 * r2 - mix
    l0, l1, l2 = (10.0 ** (-m.insertion_loss_db / 10.0) for m in tree)
    internal = [l0 * (f * l1 + (1.0 - f) * l2) for f in (f0, 1.0 - f0)]
    return np.array(internal + [l1, l2]), (2, 3), (0, 1)
