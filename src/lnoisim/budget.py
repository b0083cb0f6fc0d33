"""Cascaded insertion-loss accounting for a photonic link.

A budget is an ordered list of entries, each contributing a loss in dB
either directly or as a propagation-loss density times a length.  Totals
compose additively in dB; the end-to-end transmission is ``10**(-total/10)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from .components import GratingSpectrum
from .core import check_fields, is_finite_number

__all__ = ["BudgetEntry", "LossBudget", "sweep_wavelength"]

#: The total loss at and below which ``10**(-total/10)`` overflows a float:
#: a net gain of about 3,082.5 dB.
_MIN_TOTAL_DB = -10.0 * math.log10(sys.float_info.max)


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

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "BudgetEntry":
        check_fields(data, [field.name for field in fields(cls)])
        if not isinstance(data.get("label"), str):
            raise ValueError("an entry needs a string 'label'")
        entry = cls(**data)
        if entry.effective_loss_db < 0:
            raise ValueError(f"entry {entry.label!r}: a loss is a magnitude, at least 0 dB")
        return entry


@dataclass(frozen=True)
class LossBudget:
    """Ordered chain of lossy elements."""

    entries: tuple[BudgetEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        labels = [e.label for e in self.entries]
        if len(set(labels)) != len(labels):
            raise ValueError("budget entry labels must be unique")
        if not np.isfinite(self.total_db):
            raise ValueError(f"the total loss must be finite, got {self.total_db} dB")
        if self.total_db <= _MIN_TOTAL_DB:
            raise ValueError(
                f"the total loss must be above {_MIN_TOTAL_DB:.1f} dB, where the end-to-end "
                f"transmission overflows a float; got {self.total_db} dB"
            )

    @property
    def total_db(self) -> float:
        return float(sum(e.effective_loss_db for e in self.entries))

    @property
    def end_to_end_transmission(self) -> float:
        return float(10.0 ** (-self.total_db / 10.0))

    def breakdown(self) -> dict[str, float]:
        return {e.label: e.effective_loss_db for e in self.entries}


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

    Raises:
        ValueError: if the total loss at some wavelength is at or below
            the net gain where the transmission overflows a float, as
            :class:`LossBudget` refuses.
    """
    labels = {e.label for e in budget.entries}
    missing = [lbl for lbl in coupler_labels if lbl not in labels]
    if missing:
        raise KeyError(f"budget has no entries named {missing}")
    swept = set(coupler_labels)
    out = []
    for wl in wavelengths_nm:
        loss_db = -grating.efficiency_db(float(wl))
        total_db = float(
            sum(loss_db if e.label in swept else e.effective_loss_db for e in budget.entries)
        )
        if total_db <= _MIN_TOTAL_DB:
            raise ValueError(
                f"at {wl} nm the total loss {total_db} dB is at or below {_MIN_TOTAL_DB:.1f} dB, "
                "where the end-to-end transmission overflows a float"
            )
        out.append(float(10.0 ** (-total_db / 10.0)))
    return np.array(out)
