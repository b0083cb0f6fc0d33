import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnoisim import BandRangeError, BudgetEntry, GratingSpectrum, LossBudget, sweep_wavelength
from lnoisim.budget import _MIN_TOTAL_DB
from oracles import sweep_by_rebuilt_budgets


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


def test_gain_past_float_range_rejected():
    # 4,000 dB of gain would be a transmission of 1e400.
    with pytest.raises(ValueError, match="overflows a float"):
        LossBudget((BudgetEntry("gain", loss_db=-4000.0),))
    with pytest.raises(ValueError, match="overflows a float"):
        LossBudget((BudgetEntry("gain", loss_db=_MIN_TOTAL_DB),))
    edge = LossBudget((BudgetEntry("gain", loss_db=float(np.nextafter(_MIN_TOTAL_DB, 0.0))),))
    assert 1.79e308 < edge.end_to_end_transmission < np.inf


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


losses = st.floats(-5.0, 40.0)
entry_forms = st.one_of(
    st.builds(dict, loss_db=losses),
    st.builds(dict, db_per_cm=st.floats(0.0, 10.0), length_cm=st.floats(0.0, 5.0)),
)


@settings(max_examples=200)
@given(
    st.lists(entry_forms, min_size=1, max_size=6),
    st.data(),
    st.floats(910.0, 950.0),
    st.floats(-10.0, 0.0),
    st.floats(0.5, 40.0),
)
def test_sweep_equals_rebuilt_budgets(forms, data, center, peak, bandwidth):
    budget = LossBudget(tuple(BudgetEntry(f"e{k}", **form) for k, form in enumerate(forms)))
    labels = data.draw(st.lists(st.sampled_from([e.label for e in budget.entries]), min_size=1))
    grating = GratingSpectrum(center, peak, bandwidth)
    wavelengths = data.draw(st.lists(st.floats(905.0, 955.0), max_size=5))
    got = sweep_wavelength(budget, grating, wavelengths, labels)
    want = sweep_by_rebuilt_budgets(budget, grating, wavelengths, labels)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_sweep_refuses_a_total_whose_transmission_overflows():
    # the budget itself nets 2,990 dB of gain; at 930 nm the swept coupler
    # costs 3.4 dB, not 100 dB, which takes the total past _MIN_TOTAL_DB
    budget = LossBudget((BudgetEntry("gain", loss_db=-3090.0), BudgetEntry("c", loss_db=100.0)))
    with pytest.raises(ValueError, match="at 930.0 nm"):
        sweep_wavelength(budget, GratingSpectrum(), [930.0], ["c"])
    with pytest.raises(ValueError):
        sweep_by_rebuilt_budgets(budget, GratingSpectrum(), [930.0], ["c"])


def test_sweep_past_float_range_reads_zero_transmission():
    # 1 nm off a 1e-300 nm wide peak the grating loss overflows to +inf dB.
    grating = GratingSpectrum(bandwidth_1db_nm=1e-300)
    t = sweep_wavelength(chain(), grating, [930.0, 931.0], ["input_coupler"])
    assert t[1] == 0.0
    assert t[0] == pytest.approx(chain().end_to_end_transmission)
