"""Rectangular meshes of 2x2 interferometer cells.

A mesh on ``n`` modes is the ``n (n - 1) / 2`` cells of
:func:`clements_layout`, in its order, followed by one phase per output.  A
:class:`MeshConfig` is its phases alone: cell k, named ``cell<k>``
everywhere, sits on the k-th pair of the layout with internal phase
``thetas[k]``, which sets the splitting (pi is bar, 0 is cross), and
external phase ``phis[k]`` on its upper input.  ``mesh.json`` still lists
each cell's ``modes``, checked on read.  Any unitary factors exactly
through this structure; :func:`decompose` computes the factorization by
alternately nulling matrix elements from the left and the right and then
pushing the residual diagonal to the outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .components import (
    MZIParams,
    PhaseShifterParams,
    mzi_transfer,
    voltage_for_phase,
)
from .core import as_complex_matrix, check_fields, finite_number_array, is_finite_number, is_integer, is_unitary

__all__ = [
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


def _mode_count(n_modes) -> int:
    if not (is_integer(n_modes) and n_modes >= 2):
        raise ValueError(f"n_modes must be an integer of at least 2, got {n_modes!r}")
    return int(n_modes)


_CellPhases = NamedTuple("_CellPhases", [("theta", float), ("phi", float)])


@dataclass(frozen=True, eq=False)
class MeshConfig:
    """Complete phase configuration of a rectangular mesh.

    Cell k of ``clements_layout(n_modes)`` has internal phase ``thetas[k]``
    and external phase ``phis[k]``; the arrays are read-only.
    """

    n_modes: int
    thetas: np.ndarray
    phis: np.ndarray
    output_phases: np.ndarray

    def __post_init__(self):
        n = _mode_count(self.n_modes)
        object.__setattr__(self, "n_modes", n)
        n_cells = n * (n - 1) // 2
        for name, length in (("thetas", n_cells), ("phis", n_cells), ("output_phases", n)):
            phases = np.array(getattr(self, name), dtype=float)
            if phases.shape != (length,):
                raise ValueError(f"{n}-mode mesh requires {length} {name}, got shape {phases.shape}")
            if not np.all(np.isfinite(phases)):
                raise ValueError(f"{name} must be finite")
            phases.setflags(write=False)
            object.__setattr__(self, name, phases)

    @property
    def phase_count(self) -> int:
        """Number of independently drivable phases (see :func:`modulator_layout`)."""
        return self.n_modes * (self.n_modes - 1) - self.n_modes // 2

    @property
    def cells(self) -> tuple[_CellPhases, ...]:
        """``(theta, phi)`` of each cell, in layout order; kept because the
        benchmark in ``perfbench/`` reads ``cells[k].theta`` and ``.phi``."""
        return tuple(map(_CellPhases, self.thetas.tolist(), self.phis.tolist()))

    def to_json_dict(self) -> dict:
        return {
            "schema_version": MESH_SCHEMA_VERSION,
            "n_modes": self.n_modes,
            "cells": [
                {"modes": list(pair), "theta": theta, "phi": phi}
                for pair, theta, phi in zip(
                    clements_layout(self.n_modes), self.thetas.tolist(), self.phis.tolist()
                )
            ],
            "output_phases": self.output_phases.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MeshConfig":
        check_fields(data, ("schema_version", "n_modes", "cells", "output_phases"))
        version = data.get("schema_version")
        if not is_integer(version) or version != MESH_SCHEMA_VERSION:
            raise ValueError(f"unsupported mesh schema_version {version!r}")
        n = _mode_count(data["n_modes"])
        entries, n_cells = list(data["cells"]), n * (n - 1) // 2
        # Count before building the layout, whose size grows as n squared.
        if len(entries) != n_cells:
            raise ValueError(f"{n}-mode mesh requires {n_cells} cells, got {len(entries)}")
        cells = []
        for idx, entry in enumerate(entries):
            check_fields(entry, ("modes", "theta", "phi"), f"cells[{idx}]")
            pair, theta, phi = tuple(entry["modes"]), entry["theta"], entry.get("phi", 0.0)
            if not all(is_integer(m) for m in pair):
                raise ValueError(f"cell modes must be integers, got {list(pair)}")
            if not (is_finite_number(theta) and is_finite_number(phi)):
                raise ValueError(f"cell {list(pair)}: theta and phi must be finite numbers")
            cells.append((pair, float(theta), float(phi)))
        modes, thetas, phis = map(list, zip(*cells))
        layout = clements_layout(n)
        if modes != layout:
            raise ValueError(f"{n}-mode mesh needs the cell pairs {layout} in order, got {modes}")
        outputs = finite_number_array(data["output_phases"], 1, "output_phases")
        return cls(n, thetas, phis, outputs)


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


def _mesh_product(n, thetas, phis, cell_params: MZIParams | None = None) -> np.ndarray:
    """Product of the cells of ``clements_layout(n)`` in its order (first cell
    hits the input first).

    ``thetas`` and ``phis`` have shape ``(..., cells)`` and the result has
    shape ``(..., n, n)``, one matrix per phase vector.  Every cell comes
    from one ``mzi_transfer`` call (ideal cells when ``cell_params`` is
    None), with ``e^{i phi}`` on each cell's upper input.
    """
    thetas = np.asarray(thetas, dtype=float)
    blocks = mzi_transfer(cell_params or MZIParams(), thetas)
    blocks[..., 0] *= np.exp(1j * np.asarray(phis, dtype=float))[..., None]
    u = np.broadcast_to(np.eye(n, dtype=np.complex128), thetas.shape[:-1] + (n, n)).copy()
    for c, (i, _) in enumerate(clements_layout(n)):
        u[..., i : i + 2, :] = blocks[..., c, :, :] @ u[..., i : i + 2, :]
    return u


def compose(config: MeshConfig, cell_params: MZIParams | None = None) -> np.ndarray:
    """Transfer matrix of the configured mesh.

    Cells multiply in list order (first cell hits the input first), then
    the output phases apply as a diagonal.  With ``cell_params`` every
    cell uses that one physical MZI model instead of the ideal one.

    Args:
        config: mesh phases.
        cell_params: None for ideal cells, or one ``MZIParams`` shared by
            all cells.
    """
    if cell_params is not None and not isinstance(cell_params, MZIParams):
        raise TypeError(f"cell_params must be MZIParams or None, got {type(cell_params).__name__}")
    u = _mesh_product(config.n_modes, config.thetas, config.phis, cell_params)
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
    right_cells: list[tuple[int, float, float]] = []  # (upper mode, theta, phi), wrapped
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
                right_cells.append((col, wrap_phase(theta), wrap_phase(phi)))
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
    converted: list[tuple[int, float, float]] = []
    for upper, theta, phi in reversed(left_ops):
        d1, d2 = diag_phases[upper], diag_phases[upper + 1]
        new_phi = float(np.angle(d1 / d2))
        e_mt = complex(math.cos(theta), -math.sin(theta))
        e_mp = complex(math.cos(phi), -math.sin(phi))
        diag_phases[upper] = -e_mt * e_mp * d2
        diag_phases[upper + 1] = -e_mt * d2
        converted.append((upper, wrap_phase(theta), wrap_phase(new_phi)))

    outputs = [wrap_phase(p) for p in np.angle(diag_phases).tolist()]
    # Cells on disjoint pairs commute, so the k-th cell on a pair in nulling
    # order takes that pair's k-th slot of the layout.
    on_pair: dict[int, list[tuple[float, float]]] = {}
    for upper, theta, phi in right_cells + converted:
        on_pair.setdefault(upper, []).append((theta, phi))
    queues = {upper: iter(cells) for upper, cells in on_pair.items()}
    thetas, phis = zip(*(next(queues[upper]) for upper, _ in clements_layout(n)))
    return MeshConfig(n, thetas, phis, outputs)


def modulator_layout(config: MeshConfig) -> dict[str, tuple[int, str]]:
    """Drivable modulators of a mesh: name -> (cell index, role).

    Every cell carries an internal modulator.  The first ``n // 2`` cells
    (column 0) sit directly on chip inputs, where an external phase is pure
    gauge and no electrode exists; every later cell has one.  For four modes
    this yields the device's ten modulators (six internal plus four external).
    """
    layout: dict[str, tuple[int, str]] = {}
    for idx in range(len(config.thetas)):
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
    # Column 0: cell k sits on modes (2k, 2k + 1).
    half = config.n_modes // 2
    input_phases = np.zeros(config.n_modes)
    input_phases[: 2 * half : 2] = [wrap_phase(phi) for phi in config.phis[:half].tolist()]
    phis = np.concatenate([np.zeros(half), config.phis[half:]])
    return MeshConfig(config.n_modes, config.thetas, phis, config.output_phases), input_phases


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
    for idx, phi in enumerate(config.phis[: config.n_modes // 2].tolist()):
        residual = wrap_phase(phi)
        if min(residual, _TWO_PI - residual) > 1e-9:
            raise ValueError(
                f"cell {idx} carries input-facing phase {residual:.6g} rad with no "
                "modulator; call gauge_input_phases() first"
            )
    phases = {"internal": config.thetas.tolist(), "external": config.phis.tolist()}
    voltages = {name: voltage_for_phase(shifter, phases[role][idx]) for name, (idx, role) in layout.items()}
    return VoltageProgram(voltages, layout)
