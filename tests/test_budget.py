import json

import numpy as np
import pytest

from lnoisim import BandRangeError, BudgetEntry, GratingSpectrum, LossBudget, sweep_wavelength
from lnoisim.cli import _dump_json


def chain():
    return LossBudget(
        (
            BudgetEntry("input_coupler", loss_db=3.4),
            BudgetEntry("routing", db_per_cm=0.3, length_cm=2.0),
            BudgetEntry("mesh", loss_db=2.4),
            BudgetEntry("output_coupler", loss_db=3.4),
        )
    )


def test_entry_requires_exactly_one_form():
    with pytest.raises(ValueError):
        BudgetEntry("x")
    with pytest.raises(ValueError):
        BudgetEntry("x", loss_db=1.0, db_per_cm=0.3, length_cm=1.0)
    with pytest.raises(ValueError):
        BudgetEntry("x", db_per_cm=0.3)  # missing length
    assert BudgetEntry("x", db_per_cm=0.3, length_cm=2.0).effective_loss_db == pytest.approx(0.6)


def test_budget_totals():
    b = chain()
    assert b.total_db == pytest.approx(9.8)
    assert b.end_to_end_transmission == pytest.approx(10 ** (-0.98))
    assert b.breakdown()["routing"] == pytest.approx(0.6)


def test_ten_db_is_ten_percent():
    b = LossBudget((BudgetEntry("all", loss_db=10.0),))
    assert b.end_to_end_transmission == pytest.approx(0.1)


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        LossBudget((BudgetEntry("a", loss_db=1.0), BudgetEntry("a", loss_db=2.0)))


def test_replace_entry():
    b = chain().replace_entry("mesh", BudgetEntry("mesh", loss_db=5.0))
    assert b.total_db == pytest.approx(12.4)
    with pytest.raises(KeyError):
        chain().replace_entry("nope", BudgetEntry("nope", loss_db=1.0))


def test_json_round_trip():
    b = chain()
    loaded = LossBudget.from_json_dict(json.loads(_dump_json(b.to_json_dict())))
    assert loaded.total_db == b.total_db
    assert [e.label for e in loaded.entries] == [e.label for e in b.entries]
    data = b.to_json_dict()
    data["schema_version"] = 3
    with pytest.raises(ValueError):
        LossBudget.from_json_dict(data)


def test_wavelength_sweep_peaks_at_center():
    b = chain()
    g = GratingSpectrum()
    wl = np.array([920.0, 930.0, 940.0])
    t = sweep_wavelength(b, g, wl, ["input_coupler", "output_coupler"])
    assert t[1] == pytest.approx(b.end_to_end_transmission)  # couplers already at 3.4 dB
    assert t[0] < t[1] and t[2] < t[1]
    assert t[0] == pytest.approx(t[2])  # symmetric parabola
    # detuned 6 nm: each coupler costs 1 dB more -> 2 dB total
    t6 = sweep_wavelength(b, g, [936.0], ["input_coupler", "output_coupler"])
    assert t6[0] == pytest.approx(b.end_to_end_transmission * 10 ** (-0.2))


def test_sweep_validation():
    b = chain()
    g = GratingSpectrum()
    with pytest.raises(KeyError):
        sweep_wavelength(b, g, [930.0], ["not_there"])
    with pytest.raises(BandRangeError):
        sweep_wavelength(b, g, [890.0], ["input_coupler"])
