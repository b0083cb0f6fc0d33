"""Time-domain simulation of a 1-to-4 MZI switch tree.

The tree has one first-layer switch (index 0) feeding two second-layer
switches (1: outputs 0 and 1, 2: outputs 2 and 3).  A photon train with
one photon per repetition period enters port 0 of the first switch; square
drive waveforms route consecutive photons to consecutive outputs.  Drive
channels pass through each shifter's single-pole response, evaluated in
closed form at the photon arrival instants (slot centers).

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
    N_TREE_SWITCHES,
    MZIParams,
    PhaseShifterParams,
    _mzi_columns,
    eom_slot_response,
    phase_from_voltage,
)
from .core import is_integer

__all__ = [
    "PulseProgram",
    "SWITCH_CHANNELS",
    "SourceModel",
    "SwitchMetrics",
    "TimeTrace",
    "default_pulse_program",
    "simulate_demux",
    "switch_metrics",
]

N_OUTPUTS = 4
SLOTS_PER_FRAME = 4

#: Slack allowed when checking that a program covers the photon train.
TIMING_TOLERANCE_NS = 1e-9

#: The channel driving each switch: "A" the first layer, "B" both second-layer switches.
SWITCH_CHANNELS = ("A", "B", "B")


@dataclass(frozen=True)
class SourceModel:
    """Triggered single-photon source feeding the processor.

    Attributes:
        repetition_period_ns: pulse-to-pulse separation.
    """

    repetition_period_ns: float = 13.8

    def __post_init__(self):
        if not (math.isfinite(self.repetition_period_ns) and self.repetition_period_ns > 0):
            raise ValueError("repetition_period_ns must be positive and finite")


@dataclass(frozen=True, eq=False)
class PulseProgram:
    """Drive levels held for whole slots; slot j starts at ``j slot_ns``.

    Attributes:
        slot_ns: slot duration.
        samples_per_slot: density of the sampled view :attr:`channels` (at
            least 2); the filtered drive needs no grid.
        levels: per-slot drive (volts) of channels "A" and "B", equally long;
            :data:`SWITCH_CHANNELS` names the switches each one drives.
    """

    slot_ns: float
    samples_per_slot: int
    levels: dict[str, np.ndarray]

    def __post_init__(self):
        if not (math.isfinite(self.slot_ns) and self.slot_ns > 0):
            raise ValueError(f"slot_ns must be positive and finite, got {self.slot_ns}")
        if not (is_integer(self.samples_per_slot) and self.samples_per_slot >= 2):
            raise ValueError("samples_per_slot must be an integer of at least 2")
        object.__setattr__(self, "slot_ns", float(self.slot_ns))
        object.__setattr__(self, "samples_per_slot", int(self.samples_per_slot))
        if set(self.levels) != set(SWITCH_CHANNELS):
            raise ValueError(f"the channels must be 'A' and 'B', got {list(self.levels)}")
        levels = {}
        for name, values in self.levels.items():
            arr = np.array(values, dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"channel {name!r} needs a 1-d array of slot levels")
            if levels and arr.size != next(iter(levels.values())).size:
                raise ValueError(f"channel {name!r} holds a different number of slots")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"channel {name!r} has non-finite levels")
            arr.setflags(write=False)
            levels[name] = arr
        object.__setattr__(self, "levels", levels)
        if not math.isfinite(self.end_ns):
            n = levels["A"].size
            raise ValueError(f"{n} slots of {self.slot_ns} ns end past the float range")

    @property
    def sample_rate_ghz(self) -> float:
        """Sample rate of :attr:`channels`."""
        return self.samples_per_slot / self.slot_ns

    @property
    def end_ns(self) -> float:
        """End of the last slot."""
        return self.slot_ns * self.levels["A"].size

    @property
    def channels(self) -> dict[str, np.ndarray]:
        """Waveform per channel on the sample grid, built on each access."""
        waves = {name: np.repeat(v, self.samples_per_slot) for name, v in self.levels.items()}
        for wave in waves.values():
            wave.setflags(write=False)
        return waves


def default_pulse_program(
    repetition_period_ns: float = SourceModel.repetition_period_ns,
    v_pi_volts: float = PhaseShifterParams.v_pi_volts,
    n_frames: int = 1,
    samples_per_slot: int = 256,
) -> PulseProgram:
    """Square-wave program routing slot k of every frame to output k.

    Channel "A" drives the first-layer switch and toggles every two slots;
    channel "B" is fanned out to both second-layer switches and toggles
    every slot.  Levels are exactly {0, v_pi_volts}.  ``samples_per_slot``
    sets only the density of the sampled view ``channels``.
    """
    if repetition_period_ns <= 0:
        raise ValueError("repetition_period_ns must be positive")
    if not (is_integer(n_frames) and n_frames >= 1) or samples_per_slot < 2:
        raise ValueError("need at least one frame and two samples per slot")
    levels = {
        "A": np.tile([v_pi_volts, v_pi_volts, 0.0, 0.0], n_frames),
        "B": np.tile([v_pi_volts, 0.0, v_pi_volts, 0.0], n_frames),
    }
    return PulseProgram(repetition_period_ns, samples_per_slot, levels)


@dataclass(frozen=True, eq=False)
class TimeTrace:
    """Per-output photon probabilities at each photon arrival instant."""

    times_ns: np.ndarray
    outputs: np.ndarray  # shape (n_events, N_OUTPUTS)

    def __post_init__(self):
        times = np.asarray(self.times_ns, dtype=float)
        outs = np.asarray(self.outputs, dtype=float)
        if outs.shape != (times.size, N_OUTPUTS):
            raise ValueError(f"outputs must be (n_events, {N_OUTPUTS})")
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
            volts_cache[key] = eom_slot_response(
                shifter, program.levels[name], program.slot_ns, photon_times
            )
        phases[s] = phase_from_voltage(shifter, volts_cache[key])
    return phases


def _photon_times(
    program: PulseProgram, period_ns: float, n_frames: int, train_offset_ns: float
) -> np.ndarray:
    """The photon instants of :func:`simulate_demux`; ValueError unless ``program`` covers them."""
    count = SLOTS_PER_FRAME * int(n_frames)
    # The array's ends by its own formula, in Python floats: they overflow without a warning.
    first = float(train_offset_ns) + float(period_ns) * 0.5
    last = float(train_offset_ns) + float(period_ns) * (count - 0.5)
    # Rounding can put a photon on the last slot edge a few ulps past a long
    # program's end.  Written so that a nan instant fails it too.
    late = TIMING_TOLERANCE_NS + 4 * math.ulp(program.end_ns)
    if not (first >= -TIMING_TOLERANCE_NS and last <= program.end_ns + late):
        raise ValueError(
            f"photon train spans [{first:.10g}, {last:.10g}] ns but the program "
            f"covers [0, {program.end_ns:.10g}] ns"
        )
    return train_offset_ns + period_ns * (np.arange(count) + 0.5)


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
    with ``T`` the source repetition period.  Each switch's drive, after
    its shifter's single pole, is read at the photon instants and
    converted to a phase (plus an optional static
    calibration error per switch).  The resulting per-output probabilities
    sum to one at every instant for a lossless tree.

    Raises:
        ValueError: when the program does not cover the photon train.
    """
    tree = list(tree)
    if len(tree) != N_TREE_SWITCHES:
        raise ValueError(f"tree needs exactly {N_TREE_SWITCHES} switches")
    errors = tuple(float(e) for e in phase_errors_rad)
    if len(errors) != N_TREE_SWITCHES:
        raise ValueError("phase_errors_rad needs one entry per switch")
    if not all(map(math.isfinite, errors)):
        raise ValueError(f"phase_errors_rad must be finite, got {errors}")
    if not (is_integer(n_frames) and n_frames >= 1):
        raise ValueError(f"n_frames must be an integer of at least 1, got {n_frames!r}")
    times = _photon_times(program, source.repetition_period_ns, n_frames, train_offset_ns)
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
        raise ValueError("trace holds no events")
    if trace.n_events % SLOTS_PER_FRAME:
        raise ValueError("trace length must be a whole number of frames")

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
