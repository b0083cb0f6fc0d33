"""Cascaded insertion-loss accounting for a photonic link.

A budget is an ordered list of entries, each contributing a loss in dB
either directly or as a propagation-loss density times a length.  Totals
compose additively in dB; the end-to-end transmission is ``10**(-total/10)``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .components import GratingSpectrum

__all__ = ["BudgetEntry", "LossBudget", "sweep_wavelength"]

BUDGET_SCHEMA_VERSION = 1


def is_finite_number(value) -> bool:
    """A finite real number; bools, NaN, +-inf and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


@dataclass(frozen=True)
class BudgetEntry:
    """One lossy element: either a fixed dB value or a density x length.

    Exactly one of ``loss_db`` and the (``db_per_cm``, ``length_cm``) pair
    must be given.
    """

    label: str
    loss_db: float | None = None
    db_per_cm: float | None = None
    length_cm: float | None = None

    def __post_init__(self):
        for name in ("loss_db", "db_per_cm", "length_cm"):
            value = getattr(self, name)
            if value is not None and not is_finite_number(value):
                raise ValueError(f"entry {self.label!r}: {name} must be a finite number")
        has_direct = self.loss_db is not None
        has_density = self.db_per_cm is not None or self.length_cm is not None
        if has_direct == has_density:
            raise ValueError(
                f"entry {self.label!r}: give either loss_db or db_per_cm with length_cm"
            )
        if has_density and (self.db_per_cm is None or self.length_cm is None):
            raise ValueError(f"entry {self.label!r}: db_per_cm and length_cm go together")
        if has_density and self.length_cm < 0:
            raise ValueError(f"entry {self.label!r}: negative length")

    @property
    def effective_loss_db(self) -> float:
        if self.loss_db is not None:
            return float(self.loss_db)
        return float(self.db_per_cm * self.length_cm)

    def to_json_dict(self) -> dict:
        out: dict = {"label": self.label}
        if self.loss_db is not None:
            out["loss_db"] = float(self.loss_db)
        else:
            out["db_per_cm"] = float(self.db_per_cm)
            out["length_cm"] = float(self.length_cm)
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "BudgetEntry":
        return cls(
            label=str(data["label"]),
            loss_db=data.get("loss_db"),
            db_per_cm=data.get("db_per_cm"),
            length_cm=data.get("length_cm"),
        )


@dataclass(frozen=True)
class LossBudget:
    """Ordered chain of lossy elements."""

    entries: tuple[BudgetEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        labels = [e.label for e in self.entries]
        if len(set(labels)) != len(labels):
            raise ValueError("budget entry labels must be unique")

    @property
    def total_db(self) -> float:
        return float(sum(e.effective_loss_db for e in self.entries))

    @property
    def end_to_end_transmission(self) -> float:
        return float(10.0 ** (-self.total_db / 10.0))

    def breakdown(self) -> dict[str, float]:
        return {e.label: e.effective_loss_db for e in self.entries}

    def replace_entry(self, label: str, entry: BudgetEntry) -> "LossBudget":
        if label not in {e.label for e in self.entries}:
            raise KeyError(f"no budget entry labelled {label!r}")
        return LossBudget(tuple(entry if e.label == label else e for e in self.entries))

    def to_json_dict(self) -> dict:
        return {
            "schema_version": BUDGET_SCHEMA_VERSION,
            "entries": [e.to_json_dict() for e in self.entries],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LossBudget":
        version = data.get("schema_version")
        if version != BUDGET_SCHEMA_VERSION:
            raise ValueError(f"unsupported budget schema_version {version!r}")
        return cls(tuple(BudgetEntry.from_json_dict(e) for e in data["entries"]))


def sweep_wavelength(
    budget: LossBudget,
    grating: GratingSpectrum,
    wavelengths_nm: Iterable[float],
    coupler_labels: Sequence[str],
) -> np.ndarray:
    """End-to-end transmission vs wavelength with chromatic grating couplers.

    For each wavelength, every entry named in ``coupler_labels`` is replaced
    by the grating's (positive) insertion loss at that wavelength; all other
    entries keep their nominal values.

    Returns:
        Array of linear end-to-end transmissions, one per wavelength.
    """
    labels = {e.label for e in budget.entries}
    missing = [lbl for lbl in coupler_labels if lbl not in labels]
    if missing:
        raise KeyError(f"budget has no entries named {missing}")
    out = []
    for wl in wavelengths_nm:
        loss_db = -grating.efficiency_db(float(wl))
        swept = budget
        for lbl in coupler_labels:
            swept = swept.replace_entry(lbl, BudgetEntry(label=lbl, loss_db=loss_db))
        out.append(swept.end_to_end_transmission)
    return np.array(out)
