"""Base-station energy modeling: candidate formulas, fitting, MAPE, synthetic data.

Two candidate formulas for normalized energy consumption E as a function of
load L, maximum transmit power MTX, and symbol-shutdown activation DSS:

    eq1: E = c * L * MTX * DSS          (pure product; c=1 is the bare form)
    eq2: E = PS - alpha*DSS + beta*L*MTX (static floor, shutdown saving,
                                          amplifier term; beta = 1/efficiency)

Both are linear in their parameters, so fitting is ordinary least squares.
eq1 predicts zero energy whenever DSS is zero, which is why it tracks real
consumption poorly compared to eq2. ``FORMULAS`` holds each formula once: its
parameters, the regressors it is fitted on and its prediction.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DataError, DegenerateDataError, read_utf8
from .evalharness import csv_text


@dataclass(frozen=True)
class Formula:
    """One candidate formula. ``columns(L, MTX, DSS)`` gives one design column
    per parameter, named by ``regressors``; ``predict(params, L, MTX, DSS)``
    gives E, for scalars or numpy arrays."""

    params: tuple[str, ...]
    regressors: tuple[str, ...]
    columns: Callable[..., list]
    predict: Callable[..., np.ndarray]


# Each prediction keeps its written order of operations, which a product
# with the design matrix would not, so predictions stay bit for bit the same.
FORMULAS = {
    "eq1": Formula(
        params=("c",),
        regressors=("L*MTX*DSS",),
        columns=lambda L, MTX, DSS: [L * MTX * DSS],
        predict=lambda p, L, MTX, DSS: p["c"] * L * MTX * DSS,
    ),
    "eq2": Formula(
        params=("PS", "alpha", "beta"),
        regressors=("intercept", "DSS", "L*MTX"),
        columns=lambda L, MTX, DSS: [np.ones_like(L), -DSS, L * MTX],
        predict=lambda p, L, MTX, DSS: p["PS"] - p["alpha"] * DSS + p["beta"] * L * MTX,
    ),
}

MODEL_KINDS = tuple(FORMULAS)

DEFAULT_EQ2_PARAMS = {"PS": 0.31, "alpha": 0.18, "beta": 3.4}

ENERGY_CSV_COLUMNS = ("bs_id", "L", "MTX", "DSS", "E")


@dataclass(frozen=True)
class EnergyRecord:
    """One base station's normalized telemetry sample."""

    bs_id: str
    load: float
    max_tx_power: float
    shutdown_duration: float
    energy: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.load <= 1.0):
            raise DataError(f"{self.bs_id}: load must be in [0, 1], got {self.load}")
        if not (0.0 <= self.shutdown_duration <= 1.0):
            raise DataError(
                f"{self.bs_id}: shutdown_duration must be in [0, 1], got {self.shutdown_duration}"
            )
        if not np.isfinite(self.max_tx_power) or self.max_tx_power < 0:
            raise DataError(f"{self.bs_id}: max_tx_power must be finite and >= 0")
        if not np.isfinite(self.energy) or self.energy < 0:
            raise DataError(f"{self.bs_id}: energy must be finite and >= 0")


@dataclass(frozen=True)
class FittedEnergyModel:
    """A fitted formula: kind, parameter estimates, and training MAPE."""

    kind: str
    params: dict[str, float]
    mape_percent: float
    n_records: int


def _arrays(records: Sequence[EnergyRecord]) -> tuple[np.ndarray, ...]:
    load = np.array([r.load for r in records], dtype=np.float64)
    mtx = np.array([r.max_tx_power for r in records], dtype=np.float64)
    dss = np.array([r.shutdown_duration for r in records], dtype=np.float64)
    energy = np.array([r.energy for r in records], dtype=np.float64)
    return load, mtx, dss, energy


def _check_degeneracy(design: np.ndarray, names: Sequence[str]) -> None:
    n_params = design.shape[1]
    rank = int(np.linalg.matrix_rank(design))
    collinear: list[str] = []
    if rank < n_params:
        for j in range(n_params):
            others = np.delete(design, j, axis=1)
            col = design[:, j]
            if others.shape[1] == 0:
                residual = col
            else:
                coef, *_ = np.linalg.lstsq(others, col, rcond=None)
                residual = col - others @ coef
            if np.linalg.norm(residual) <= 1e-10 * max(1.0, np.linalg.norm(col)):
                collinear.append(names[j])
        raise DegenerateDataError(
            f"design matrix rank {rank} < {n_params}; collinear regressors: "
            + ", ".join(collinear or names)
        )
    if n_params == 1 and np.ptp(design[:, 0]) == 0.0:
        raise DegenerateDataError(f"regressor {names[0]} is constant across all records")


def predict(model: FittedEnergyModel, records: Sequence[EnergyRecord]) -> np.ndarray:
    """Model predictions for each record."""
    load, mtx, dss, _ = _arrays(records)
    return FORMULAS[model.kind].predict(model.params, load, mtx, dss)


def mape(records: Sequence[EnergyRecord], model: FittedEnergyModel) -> float:
    """Mean absolute percentage error, 100/N * sum(|pred - E| / E)."""
    _, _, _, energy = _arrays(records)
    if np.any(energy <= 0.0):
        raise DataError("MAPE is undefined for records with E <= 0")
    pred = predict(model, records)
    return float(np.mean(np.abs(pred - energy) / energy) * 100.0)


def fit(records: Sequence[EnergyRecord], kind: str) -> FittedEnergyModel:
    """Least-squares fit of the chosen formula; MAPE is computed on the fit."""
    if kind not in FORMULAS:
        raise ValueError(f"unknown model kind: {kind!r}")
    formula = FORMULAS[kind]
    n_params = len(formula.params)
    if len(records) < n_params:
        raise DataError(f"need at least {n_params} records to fit {kind}, got {len(records)}")
    load, mtx, dss, energy = _arrays(records)
    design = np.column_stack(formula.columns(load, mtx, dss))
    _check_degeneracy(design, formula.regressors)
    # SVD-based: unlike the normal equations it does not square the condition number.
    solution = np.linalg.lstsq(design, energy, rcond=None)[0]
    params = {name: float(value) for name, value in zip(formula.params, solution)}
    model = FittedEnergyModel(kind=kind, params=params, mape_percent=0.0, n_records=len(records))
    return FittedEnergyModel(
        kind=kind, params=params, mape_percent=mape(records, model), n_records=len(records)
    )


def generate_synthetic(
    n_bs: int,
    params: Mapping[str, float] | None = None,
    noise_sd: float = 0.0,
    seed: int = 0,
) -> list[EnergyRecord]:
    """Seeded synthetic fleet: one record per base station, eq2 ground truth.

    Load is uniform on [0,1]; shutdown opportunity shrinks with load
    (DSS = max(0, 0.8 - 0.7*L) plus jitter, clamped to [0,1]); each station
    has a fixed transmit power in [0.5, 1]; energy is eq2 plus additive
    gaussian noise of standard deviation noise_sd, clamped positive.
    """
    if n_bs < 1:
        raise ValueError("n_bs must be >= 1")
    p = dict(DEFAULT_EQ2_PARAMS if params is None else params)
    for key in FORMULAS["eq2"].params:
        if key not in p:
            raise ValueError(f"params missing {key!r}")
    rng = np.random.default_rng(seed)
    load = rng.uniform(0.0, 1.0, n_bs)
    mtx = rng.uniform(0.5, 1.0, n_bs)
    dss = np.clip(np.maximum(0.0, 0.8 - 0.7 * load) + rng.normal(0.0, 0.05, n_bs), 0.0, 1.0)
    energy = FORMULAS["eq2"].predict(p, load, mtx, dss)
    if noise_sd > 0.0:
        energy = energy + rng.normal(0.0, noise_sd, n_bs)
    energy = np.maximum(energy, 1e-6)
    return [
        EnergyRecord(
            bs_id=f"bs-{i:04d}",
            load=float(load[i]),
            max_tx_power=float(mtx[i]),
            shutdown_duration=float(dss[i]),
            energy=float(energy[i]),
        )
        for i in range(n_bs)
    ]


def read_records_csv(path: str | Path) -> list[EnergyRecord]:
    """Load records from CSV with columns bs_id,L,MTX,DSS,E."""
    reader = csv.DictReader(io.StringIO(read_utf8(path), newline=""))
    header = reader.fieldnames or []
    missing = [c for c in ENERGY_CSV_COLUMNS if c not in header]
    if missing:
        raise DataError(f"energy CSV missing column(s): {', '.join(missing)}")
    records = []
    for lineno, row in enumerate(reader, start=2):
        try:
            records.append(
                EnergyRecord(
                    bs_id=row["bs_id"],
                    load=float(row["L"]),
                    max_tx_power=float(row["MTX"]),
                    shutdown_duration=float(row["DSS"]),
                    energy=float(row["E"]),
                )
            )
        except (ValueError, TypeError) as exc:
            raise DataError(f"bad energy CSV row at line {lineno}: {exc}") from exc
    if not records:
        raise DataError(f"energy CSV has no data rows: {path}")
    return records


def write_plot_csv(
    records: Sequence[EnergyRecord],
    models: Sequence[FittedEnergyModel],
    path: str | Path,
) -> None:
    """Load vs ground-truth energy vs per-model predictions, sorted by load."""
    predictions = {m.kind: predict(m, records) for m in models}
    order = sorted(range(len(records)), key=lambda i: (records[i].load, records[i].bs_id))
    rows = (
        [repr(records[i].load), repr(records[i].energy)]
        + [repr(float(predictions[m.kind][i])) for m in models]
        for i in order
    )
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(csv_text(["L", "E"] + [m.kind for m in models], rows))
