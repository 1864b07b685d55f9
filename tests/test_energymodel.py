from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telerag.energymodel import (
    DEFAULT_EQ2_PARAMS,
    ENERGY_CSV_COLUMNS,
    FORMULAS,
    EnergyRecord,
    FittedEnergyModel,
    fit,
    generate_synthetic,
    mape,
    predict,
    read_records_csv,
    write_plot_csv,
)
from telerag.errors import DataError, DegenerateDataError
from telerag.evalharness import csv_text

TRUE_PARAMS = {"PS": 0.31, "alpha": 0.18, "beta": 3.4}


def eq1(L, MTX, DSS, c):
    return FORMULAS["eq1"].predict({"c": c}, L, MTX, DSS)


def eq2(L, MTX, DSS, PS, alpha, beta):
    return FORMULAS["eq2"].predict({"PS": PS, "alpha": alpha, "beta": beta}, L, MTX, DSS)


def test_eq1_vanishes_with_any_zero_factor():
    assert eq1(0.0, 1.0, 1.0, 7.3) == 0.0
    assert eq1(1.0, 1.0, 1.0, 1.0) == 1.0
    # Structural flaw: zero shutdown activation implies zero energy.
    assert eq1(0.9, 1.0, 0.0, 5.0) == 0.0


def test_eq2_direct_substitution():
    assert eq2(0.5, 1.0, 0.0, 0.2, 0.1, 4.0) == pytest.approx(2.2)
    assert eq2(0.0, 1.0, 0.0, 0.2, 0.1, 4.0) == pytest.approx(0.2)


def test_eq2_decreasing_in_shutdown():
    low = eq2(0.5, 1.0, 0.2, 0.3, 0.18, 3.4)
    high = eq2(0.5, 1.0, 0.8, 0.3, 0.18, 3.4)
    assert high < low


coefficients = st.floats(-10.0, 10.0, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(n_bs=st.integers(1, 60), seed=st.integers(0, 2**32 - 1), c=coefficients,
       PS=coefficients, alpha=coefficients, beta=coefficients)
def test_predict_is_the_written_formula_bit_for_bit(n_bs, seed, c, PS, alpha, beta):
    records = generate_synthetic(n_bs, noise_sd=0.02, seed=seed)
    L = np.array([r.load for r in records])
    MTX = np.array([r.max_tx_power for r in records])
    DSS = np.array([r.shutdown_duration for r in records])
    simple = FittedEnergyModel(kind="eq1", params={"c": c}, mape_percent=0.0, n_records=n_bs)
    affine = FittedEnergyModel(kind="eq2", params={"PS": PS, "alpha": alpha, "beta": beta},
                               mape_percent=0.0, n_records=n_bs)
    assert np.array_equal(predict(simple, records), c * L * MTX * DSS)
    assert np.array_equal(predict(affine, records), PS - alpha * DSS + beta * L * MTX)


def test_record_validation():
    with pytest.raises(DataError):
        EnergyRecord(bs_id="b", load=1.5, max_tx_power=1.0, shutdown_duration=0.5, energy=1.0)
    with pytest.raises(DataError):
        EnergyRecord(bs_id="b", load=0.5, max_tx_power=1.0, shutdown_duration=0.5, energy=-1.0)


def test_fit_recovers_noiseless_parameters():
    records = generate_synthetic(90, TRUE_PARAMS, noise_sd=0.0, seed=42)
    model = fit(records, "eq2")
    for key, true_value in TRUE_PARAMS.items():
        assert abs(model.params[key] - true_value) / abs(true_value) < 1e-6
    assert model.mape_percent <= 1e-6
    residuals = predict(model, records) - np.array([r.energy for r in records])
    assert float(np.max(np.abs(residuals))) <= 1e-9


def test_fit_eq1_on_constant_product_is_degenerate():
    records = [
        EnergyRecord(bs_id=f"b{i}", load=0.5, max_tx_power=1.0, shutdown_duration=0.4,
                     energy=1.0 + 0.01 * i)
        for i in range(10)
    ]
    with pytest.raises(DegenerateDataError, match=r"L\*MTX\*DSS"):
        fit(records, "eq1")


def test_fit_eq2_names_collinear_regressor():
    # Constant shutdown duration makes the DSS column collinear with the intercept.
    rng = np.random.default_rng(3)
    records = [
        EnergyRecord(bs_id=f"b{i}", load=float(rng.uniform(0, 1)), max_tx_power=1.0,
                     shutdown_duration=0.5, energy=float(rng.uniform(0.5, 2.0)))
        for i in range(20)
    ]
    with pytest.raises(DegenerateDataError, match="DSS"):
        fit(records, "eq2")


def test_fit_requires_enough_records():
    records = generate_synthetic(2, TRUE_PARAMS, seed=1)
    with pytest.raises(DataError):
        fit(records, "eq2")
    with pytest.raises(ValueError):
        fit(records, "eq7")


def test_mape_basics():
    records = generate_synthetic(30, TRUE_PARAMS, noise_sd=0.0, seed=9)
    exact = FittedEnergyModel(kind="eq2", params=dict(TRUE_PARAMS), mape_percent=0.0,
                              n_records=30)
    assert mape(records, exact) == pytest.approx(0.0, abs=1e-10)
    # A constant +10% overestimate has MAPE exactly 10.
    scaled = FittedEnergyModel(
        kind="eq2",
        params={"PS": TRUE_PARAMS["PS"] * 1.1, "alpha": TRUE_PARAMS["alpha"] * 1.1,
                "beta": TRUE_PARAMS["beta"] * 1.1},
        mape_percent=0.0,
        n_records=30,
    )
    assert mape(records, scaled) == pytest.approx(10.0, abs=1e-9)


def test_mape_single_record():
    record = EnergyRecord(bs_id="b", load=0.0, max_tx_power=1.0, shutdown_duration=0.0,
                          energy=2.0)
    model = FittedEnergyModel(kind="eq2", params={"PS": 1.0, "alpha": 0.0, "beta": 0.0},
                              mape_percent=0.0, n_records=1)
    assert mape([record], model) == pytest.approx(50.0)


def test_mape_rejects_zero_energy():
    record = EnergyRecord(bs_id="b", load=0.1, max_tx_power=1.0, shutdown_duration=0.1,
                          energy=0.0)
    model = FittedEnergyModel(kind="eq1", params={"c": 1.0}, mape_percent=0.0, n_records=1)
    with pytest.raises(DataError):
        mape([record], model)


def test_eq1_predicts_zero_at_zero_shutdown_regardless_of_fit():
    # The product form forces E=0 whenever DSS=0, however the scale was fitted;
    # this is the structural reason its error stays large on realistic data.
    records = generate_synthetic(90, TRUE_PARAMS, noise_sd=0.02, seed=21)
    model = fit(records, "eq1")
    idle = EnergyRecord(bs_id="idle", load=0.9, max_tx_power=1.0,
                        shutdown_duration=0.0, energy=3.0)
    assert float(predict(model, [idle])[0]) == 0.0


def test_eq1_mape_an_order_of_magnitude_above_eq2():
    records = generate_synthetic(90, TRUE_PARAMS, noise_sd=0.02, seed=7)
    simple = fit(records, "eq1")
    affine = fit(records, "eq2")
    assert affine.mape_percent < 10.0
    assert simple.mape_percent > 10.0 * affine.mape_percent


def test_generate_synthetic_deterministic_and_sized():
    first = generate_synthetic(90, TRUE_PARAMS, noise_sd=0.02, seed=5)
    second = generate_synthetic(90, TRUE_PARAMS, noise_sd=0.02, seed=5)
    assert first == second
    assert len(first) == 90
    assert generate_synthetic(90, TRUE_PARAMS, noise_sd=0.02, seed=6) != first


def test_least_squares_optimality_under_perturbation():
    records = generate_synthetic(90, TRUE_PARAMS, noise_sd=0.05, seed=11)
    energy = np.array([r.energy for r in records])
    for kind in ("eq1", "eq2"):
        model = fit(records, kind)
        base_ssr = float(np.sum((predict(model, records) - energy) ** 2))
        for key in model.params:
            for factor in (0.99, 1.01):
                perturbed = FittedEnergyModel(
                    kind=kind,
                    params={**model.params, key: model.params[key] * factor},
                    mape_percent=0.0,
                    n_records=model.n_records,
                )
                ssr = float(np.sum((predict(perturbed, records) - energy) ** 2))
                assert ssr >= base_ssr - 1e-12


def test_records_csv_round_trip(tmp_path):
    records = generate_synthetic(20, TRUE_PARAMS, noise_sd=0.01, seed=13)
    path = tmp_path / "energy.csv"
    rows = (
        [r.bs_id, repr(r.load), repr(r.max_tx_power), repr(r.shutdown_duration), repr(r.energy)]
        for r in records
    )
    path.write_text(csv_text(ENERGY_CSV_COLUMNS, rows), encoding="utf-8")
    assert read_records_csv(path) == records


def test_records_csv_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("bs_id,L,DSS,E\nb,0.5,0.5,1.0\n", encoding="utf-8")
    with pytest.raises(DataError, match="MTX"):
        read_records_csv(path)


def test_plot_csv_columns_and_sorting(tmp_path):
    records = generate_synthetic(10, TRUE_PARAMS, noise_sd=0.0, seed=14)
    models = [fit(records, "eq1"), fit(records, "eq2")]
    path = tmp_path / "plot.csv"
    write_plot_csv(records, models, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "L,E,eq1,eq2"
    loads = [float(line.split(",")[0]) for line in lines[1:]]
    assert loads == sorted(loads)
    assert len(lines) == 11


def test_default_params_are_the_reference_values():
    assert DEFAULT_EQ2_PARAMS == TRUE_PARAMS
