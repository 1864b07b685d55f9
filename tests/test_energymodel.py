from __future__ import annotations

import numpy as np
import pytest

from telerag.energymodel import (
    DEFAULT_EQ2_PARAMS,
    ENERGY_CSV_COLUMNS,
    EnergyRecord,
    FittedEnergyModel,
    check_feature_selection,
    eval_eq1,
    eval_eq2,
    fit,
    generate_synthetic,
    mape,
    predict,
    read_records_csv,
    render_task_prompts,
    write_plot_csv,
)
from telerag.errors import DataError, DegenerateDataError
from telerag.evalharness import csv_text

TRUE_PARAMS = {"PS": 0.31, "alpha": 0.18, "beta": 3.4}


def test_eq1_vanishes_with_any_zero_factor():
    assert eval_eq1(0.0, 1.0, 1.0, 7.3) == 0.0
    assert eval_eq1(1.0, 1.0, 1.0, 1.0) == 1.0
    # Structural flaw: zero shutdown activation implies zero energy.
    assert eval_eq1(0.9, 1.0, 0.0, 5.0) == 0.0


def test_eq2_direct_substitution():
    assert eval_eq2(0.5, 1.0, 0.0, 0.2, 0.1, 4.0) == pytest.approx(2.2)
    assert eval_eq2(0.0, 1.0, 0.0, 0.2, 0.1, 4.0) == pytest.approx(0.2)


def test_eq2_decreasing_in_shutdown():
    low = eval_eq2(0.5, 1.0, 0.2, 0.3, 0.18, 3.4)
    high = eval_eq2(0.5, 1.0, 0.8, 0.3, 0.18, 3.4)
    assert high < low


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


def test_task_prompts_list_all_nine_parameters_in_order():
    selection_prompt, formula_prompt = render_task_prompts()
    expected_order = [
        "- BS load",
        "- latitude",
        "- longitude",
        "- serial number",
        "- production year",
        "- maximum transmit power",
        "- duration of activation of symbol shutdown",
        "- weight",
        "- number of antennas",
    ]
    positions = [selection_prompt.index(line) for line in expected_order]
    assert positions == sorted(positions)
    assert selection_prompt.endswith("Output:")
    assert "- BS load (L)" in formula_prompt
    assert "- maximum transmit power (MTX)" in formula_prompt
    assert "- duration of activation of symbol shutdown (DSS)" in formula_prompt
    assert formula_prompt.endswith("Output:")
    assert render_task_prompts() == (selection_prompt, formula_prompt)


def test_feature_selection_exact_match():
    output = (
        "The key parameters are BS load, maximum transmit power, and the "
        "duration of activation of symbol shutdown."
    )
    result = check_feature_selection(output)
    assert result.matches_expected
    assert len(result.selected) == 3


def test_feature_selection_extra_parameter():
    output = (
        "Use BS load, maximum transmit power, duration of activation of symbol "
        "shutdown, and weight."
    )
    result = check_feature_selection(output)
    assert not result.matches_expected
    assert len(result.selected) == 4


def test_feature_selection_empty_output():
    result = check_feature_selection("")
    assert result.selected == frozenset()
    assert not result.matches_expected


def test_feature_selection_does_not_match_inside_words():
    assert "weight" not in check_feature_selection("the weighted average").selected


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
