"""Rectangular meshes of 2x2 interferometer cells.

A mesh on ``n`` modes is the ``n (n - 1) / 2`` cells of
:func:`clements_layout`, in its order, followed by one phase per output; no
other order is a :class:`MeshConfig`, so ``cell<k>`` names the k-th cell of
that layout everywhere.  Each cell is an MZI whose internal phase ``theta``
sets the splitting (``theta = pi`` is bar, ``theta = 0`` is cross) with an
external phase ``phi`` applied to the upper mode just before the cell.  Any
unitary factors exactly through this structure; :func:`decompose` computes
the factorization by alternately nulling matrix elements from the left and
the right and then pushing the residual diagonal to the outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .components import (
    MZIParams,
    PhaseShifterParams,
    mzi_transfer,
    voltage_for_phase,
)
from .core import as_complex_matrix, check_fields, finite_number_array, is_finite_number, is_integer, is_unitary

__all__ = [
    "MeshCell",
    "MeshConfig",
    "VoltageProgram",
    "clements_layout",
    "compose",
    "decompose",
    "gauge_input_phases",
    "modulator_layout",
    "phases_to_voltages",
    "wrap_phase",
]

MESH_SCHEMA_VERSION = 1

_TWO_PI = 2.0 * math.pi

#: The electrical limit on each drive voltage's magnitude.
COMPLIANCE_VOLTS = 10.0


def wrap_phase(value: float) -> float:
    """Canonical representative of a phase in [0, 2 pi).

    Raises:
        ValueError: for a phase that is not finite.
    """
    if not math.isfinite(value):
        raise ValueError(f"phase must be finite, got {value}")
    wrapped = float(value) % _TWO_PI
    if _TWO_PI - wrapped < 1e-12:
        wrapped = 0.0
    return abs(wrapped)


@dataclass(frozen=True)
class MeshCell:
    """One interferometer cell: adjacent mode pair plus (theta, phi)."""

    modes: tuple[int, int]
    theta: float
    phi: float = 0.0

    def __post_init__(self):
        i, j = self.modes
        if j != i + 1 or i < 0:
            raise ValueError(f"cell must act on adjacent modes, got {self.modes}")
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("cell phases must be finite")
        object.__setattr__(self, "modes", (int(i), int(j)))


@dataclass(frozen=True, eq=False)
class MeshConfig:
    """Complete phase configuration of a rectangular mesh."""

    n_modes: int
    cells: tuple[MeshCell, ...]
    output_phases: np.ndarray

    def __post_init__(self):
        n = self.n_modes
        if not (is_integer(n) and n >= 2):
            raise ValueError(f"n_modes must be an integer of at least 2, got {n!r}")
        n = int(n)
        object.__setattr__(self, "n_modes", n)
        layout = clements_layout(n)
        cells = tuple(self.cells)
        object.__setattr__(self, "cells", cells)
        if len(cells) != len(layout):
            raise ValueError(f"{n}-mode mesh requires {len(layout)} cells, got {len(cells)}")
        modes = [cell.modes for cell in cells]
        if modes != layout:
            raise ValueError(f"{n}-mode mesh needs the cell pairs {layout} in order, got {modes}")
        phases = np.asarray(self.output_phases, dtype=float)
        if phases.shape != (n,):
            raise ValueError(f"output_phases must have length {n}, got {phases.shape}")
        if not np.all(np.isfinite(phases)):
            raise ValueError("output phases must be finite")
        phases = phases.copy()
        phases.setflags(write=False)
        object.__setattr__(self, "output_phases", phases)

    @property
    def phase_count(self) -> int:
        """Number of independently drivable phases (see :func:`modulator_layout`)."""
        return self.n_modes * (self.n_modes - 1) - self.n_modes // 2

    def to_json_dict(self) -> dict:
        return {
            "schema_version": MESH_SCHEMA_VERSION,
            "n_modes": self.n_modes,
            "cells": [
                {"modes": list(c.modes), "theta": float(c.theta), "phi": float(c.phi)}
                for c in self.cells
            ],
            "output_phases": [float(p) for p in self.output_phases],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MeshConfig":
        check_fields(data, ("schema_version", "n_modes", "cells", "output_phases"))
        version = data.get("schema_version")
        if not is_integer(version) or version != MESH_SCHEMA_VERSION:
            raise ValueError(f"unsupported mesh schema_version {version!r}")
        n_modes = data["n_modes"]
        if not is_integer(n_modes):
            raise ValueError(f"n_modes must be an integer, got {n_modes!r}")
        cells = []
        for idx, entry in enumerate(data["cells"]):
            check_fields(entry, ("modes", "theta", "phi"), f"cells[{idx}]")
            modes = tuple(entry["modes"])
            if not all(is_integer(m) for m in modes):
                raise ValueError(f"cell modes must be integers, got {list(modes)}")
            phases = (entry["theta"], entry.get("phi", 0.0))
            if not all(is_finite_number(v) for v in phases):
                raise ValueError(f"cell {list(modes)}: theta and phi must be finite numbers")
            cells.append(MeshCell(modes, *(float(v) for v in phases)))
        outputs = finite_number_array(data["output_phases"], 1, "output_phases")
        return cls(n_modes, cells, outputs)


def clements_layout(n: int) -> list[tuple[int, int]]:
    """Mode pairs of the rectangular mesh in propagation order.

    Columns alternate between pairs starting at mode 0 and mode 1; the
    total count is n (n - 1) / 2.
    """
    if not is_integer(n):
        raise ValueError(f"mode count must be an integer, got {n}")
    pairs = []
    for col in range(n):
        for top in range(col % 2, n - 1, 2):
            pairs.append((top, top + 1))
    return pairs[: n * (n - 1) // 2]


def _ideal_cell_matrix(theta: float, phi: float) -> np.ndarray:
    # Equal to mzi_transfer(ideal, theta) @ diag(e^{i phi}, 1); decompose
    # builds its cells one at a time, where this scalar form is fastest.
    half = 0.5 * theta
    s, c = math.sin(half), math.cos(half)
    pref = 1j * complex(math.cos(half), math.sin(half))
    eip = complex(math.cos(phi), math.sin(phi))
    return pref * np.array([[eip * s, c], [eip * c, -s]], dtype=np.complex128)


def _mesh_product(n, modes, thetas, phis, cell_params: MZIParams | None = None) -> np.ndarray:
    """Product of the cells in list order (first cell hits the input first).

    ``thetas`` and ``phis`` have shape ``(..., cells)`` and the result has
    shape ``(..., n, n)``, one matrix per phase vector.  Every cell comes
    from one ``mzi_transfer`` call (ideal cells when ``cell_params`` is
    None), with ``e^{i phi}`` on each cell's upper input.
    """
    thetas = np.asarray(thetas, dtype=float)
    blocks = mzi_transfer(cell_params or MZIParams(), thetas)
    blocks[..., 0] *= np.exp(1j * np.asarray(phis, dtype=float))[..., None]
    u = np.broadcast_to(np.eye(n, dtype=np.complex128), thetas.shape[:-1] + (n, n)).copy()
    # MeshCell guarantees j = i + 1, so rows i : i + 2 are the cell's pair.
    for c, (i, _) in enumerate(modes):
        u[..., i : i + 2, :] = blocks[..., c, :, :] @ u[..., i : i + 2, :]
    return u


def compose(config: MeshConfig, cell_params: MZIParams | None = None) -> np.ndarray:
    """Transfer matrix of the configured mesh.

    Cells multiply in list order (first cell hits the input first), then
    the output phases apply as a diagonal.  With ``cell_params`` every
    cell uses that one physical MZI model instead of the ideal one.

    Args:
        config: mesh phases and layout.
        cell_params: None for ideal cells, or one ``MZIParams`` shared by
            all cells.
    """
    if cell_params is not None and not isinstance(cell_params, MZIParams):
        raise TypeError(f"cell_params must be MZIParams or None, got {type(cell_params).__name__}")
    modes, thetas, phis = zip(*((cell.modes, cell.theta, cell.phi) for cell in config.cells))
    u = _mesh_product(config.n_modes, modes, thetas, phis, cell_params)
    return u * np.exp(1j * config.output_phases)[:, None]


def _nulling_phases(num: complex, den: complex) -> tuple[float, float]:
    """Phases (theta, phi) of the cell that nulls an element, from the ratio
    ``num / den`` of the two entries it mixes."""
    if abs(den) < 1e-300:
        # Element already null (or the cell must go full bar); bar is canonical.
        return math.pi, 0.0
    ratio = num / den
    theta = 2.0 * math.atan(abs(ratio))
    phi = -np.angle(ratio) if ratio != 0 else 0.0
    return theta, float(phi)


def decompose(u: object, tol: float = 1e-8) -> MeshConfig:
    """Factor a unitary into mesh phases (rectangular decomposition).

    The returned configuration reproduces ``u`` exactly through
    :func:`compose` with ideal cells, and all phases are canonical in
    [0, 2 pi).  Identity maps to all-bar cells with zero external and
    output phases.

    Raises:
        ValueError: when ``u`` is not unitary within ``tol``.
    """
    mat = as_complex_matrix(u)
    n, m = mat.shape
    if n != m:
        raise ValueError(f"decompose requires a square matrix, got {mat.shape}")
    if n < 2:
        raise ValueError("decompose requires at least 2 modes")
    if not is_unitary(mat, tol=tol):
        raise ValueError("matrix is not unitary within tolerance")

    work = mat.astype(np.complex128, copy=True)
    right_cells: list[MeshCell] = []
    left_ops: list[tuple[int, float, float]] = []  # (upper mode, theta, phi)

    for diag in range(1, n):
        if diag % 2 == 1:
            for j in range(diag):
                row, col = n - 1 - j, diag - 1 - j
                # u @ T(theta, phi)^{-1} on columns (col, col + 1) zeroes u[row, col].
                theta, phi = _nulling_phases(-work[row, col + 1], work[row, col])
                tinv = _ideal_cell_matrix(theta, phi).conj().T
                work[:, [col, col + 1]] = work[:, [col, col + 1]] @ tinv
                work[row, col] = 0.0
                right_cells.append(MeshCell((col, col + 1), wrap_phase(theta), wrap_phase(phi)))
        else:
            for j in range(1, diag + 1):
                row, col = n + j - diag - 1, j - 1
                # T(theta, phi) @ u on rows (row - 1, row) zeroes u[row, col].
                theta, phi = _nulling_phases(work[row - 1, col], work[row, col])
                t = _ideal_cell_matrix(theta, phi)
                work[[row - 1, row], :] = t @ work[[row - 1, row], :]
                work[row, col] = 0.0
                left_ops.append((row - 1, theta, phi))

    diag_phases = np.diagonal(work).copy()
    # Push the diagonal through the left factors: T^{-1} D = D' T', which
    # keeps theta and rotates phi and the two diagonal entries.
    converted: list[MeshCell] = []
    for upper, theta, phi in reversed(left_ops):
        d1, d2 = diag_phases[upper], diag_phases[upper + 1]
        new_phi = float(np.angle(d1 / d2))
        e_mt = complex(math.cos(theta), -math.sin(theta))
        e_mp = complex(math.cos(phi), -math.sin(phi))
        diag_phases[upper] = -e_mt * e_mp * d2
        diag_phases[upper + 1] = -e_mt * d2
        converted.append(MeshCell((upper, upper + 1), wrap_phase(theta), wrap_phase(new_phi)))

    outputs = [wrap_phase(p) for p in np.angle(diag_phases).tolist()]
    # Cells on disjoint pairs commute, so the k-th cell on a pair in nulling
    # order takes that pair's k-th slot of the layout.
    on_pair: dict[tuple[int, int], list[MeshCell]] = {}
    for cell in right_cells + converted:
        on_pair.setdefault(cell.modes, []).append(cell)
    queues = {pair: iter(cells) for pair, cells in on_pair.items()}
    return MeshConfig(n, tuple(next(queues[pair]) for pair in clements_layout(n)), outputs)


def modulator_layout(config: MeshConfig) -> dict[str, tuple[int, str]]:
    """Drivable modulators of a mesh: name -> (cell index, role).

    Every cell carries an internal modulator.  The first ``n // 2`` cells
    (column 0) sit directly on chip inputs, where an external phase is pure
    gauge and no electrode exists; every later cell has one.  For four modes
    this yields the device's ten modulators (six internal plus four external).
    """
    layout: dict[str, tuple[int, str]] = {}
    for idx in range(len(config.cells)):
        layout[f"cell{idx}.theta"] = (idx, "internal")
        if idx >= config.n_modes // 2:
            layout[f"cell{idx}.phi"] = (idx, "external")
    return layout


def gauge_input_phases(config: MeshConfig) -> tuple[MeshConfig, np.ndarray]:
    """Move undrivable external phases onto the chip inputs.

    Returns ``(reduced, input_phases)`` where the reduced configuration has
    zero external phase on every input-facing cell and
    ``compose(config) == compose(reduced) @ diag(exp(i input_phases))``.
    Input phases only ever multiply measured amplitudes by a global factor
    per input, so photon statistics are unchanged.
    """
    input_phases = np.zeros(config.n_modes)
    cells = list(config.cells)
    for idx in range(config.n_modes // 2):
        cell = cells[idx]
        input_phases[cell.modes[0]] = wrap_phase(cell.phi)
        cells[idx] = MeshCell(cell.modes, cell.theta, 0.0)
    reduced = MeshConfig(config.n_modes, tuple(cells), config.output_phases)
    return reduced, input_phases


@dataclass(frozen=True)
class VoltageProgram:
    """Static drive voltages realizing a mesh configuration.

    Attributes:
        voltages: volts per modulator name, each within ``COMPLIANCE_VOLTS``.
        modulators: modulator name -> (cell index, "internal" | "external").
    """

    voltages: dict[str, float]
    modulators: dict[str, tuple[int, str]]

    def __post_init__(self):
        for name, volts in self.voltages.items():
            if not math.isfinite(volts):
                raise ValueError(f"voltage for {name} must be finite")
            if abs(volts) > COMPLIANCE_VOLTS:
                raise ValueError(f"{name}: |{volts:.6g} V| exceeds compliance {COMPLIANCE_VOLTS} V")
            if name not in self.modulators:
                raise ValueError(f"voltage for unknown modulator {name}")


def phases_to_voltages(config: MeshConfig, shifter: PhaseShifterParams) -> VoltageProgram:
    """Convert mesh phases into per-modulator drive voltages.

    Every requested phase is reduced modulo 2 pi to the smallest-|V|
    representative for its shifter, so reapplying
    ``phase_from_voltage`` reproduces the phase up to whole turns.

    Args:
        config: mesh configuration; input-facing external phases must be
            zero (apply :func:`gauge_input_phases` first).
        shifter: the parameters shared by every modulator.

    Raises:
        ValueError: when an undrivable input-facing phase is nonzero, or
            a voltage exceeds ``COMPLIANCE_VOLTS``.
    """
    layout = modulator_layout(config)
    for idx in range(config.n_modes // 2):
        residual = wrap_phase(config.cells[idx].phi)
        if min(residual, _TWO_PI - residual) > 1e-9:
            raise ValueError(
                f"cell {idx} carries input-facing phase {residual:.6g} rad with no "
                "modulator; call gauge_input_phases() first"
            )
    voltages: dict[str, float] = {}
    for name, (idx, role) in layout.items():
        cell = config.cells[idx]
        voltages[name] = voltage_for_phase(shifter, cell.theta if role == "internal" else cell.phi)
    return VoltageProgram(voltages, layout)
