"""Loading, validation, splitting, and standardization of right-censored
survival datasets.

A dataset couples an n x d covariate matrix with an observed time, an event
indicator (1 = event observed, 0 = right-censored), and optionally a
treatment-group label per patient. Datasets are immutable after construction;
every operation here returns a new object.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


class SchemaError(ValueError):
    """A required column is missing or the header is malformed."""


class CsvParseError(ValueError):
    """A cell failed validation; the message cites the 1-based data row."""


@dataclass(frozen=True)
class SurvivalDataset:
    """Right-censored survival data for n patients with d covariates."""

    covariates: np.ndarray
    times: np.ndarray
    events: np.ndarray
    treatments: np.ndarray | None = None
    feature_names: tuple[str, ...] = ()

    def __post_init__(self):
        cov = np.atleast_2d(np.asarray(self.covariates, dtype=float))
        times = np.asarray(self.times, dtype=float)
        events = np.asarray(self.events)
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "events", events.astype(np.int64))
        if cov.ndim != 2 or cov.shape[0] < 1 or cov.shape[1] < 1:
            raise ValueError("covariates must be a non-empty n x d matrix")
        n, d = cov.shape
        if times.shape != (n,) or self.events.shape != (n,):
            raise ValueError("times/events length must match covariate rows")
        if not np.all(np.isfinite(cov)):
            raise ValueError("covariates contain non-finite values")
        if not np.all(np.isfinite(times)) or np.any(times <= 0):
            raise ValueError("times must be strictly positive and finite")
        if not np.all(np.isin(self.events, (0, 1))):
            raise ValueError("events must contain only 0 or 1")
        if self.treatments is not None:
            treat = np.asarray(self.treatments).astype(np.int64)
            object.__setattr__(self, "treatments", treat)
            if treat.shape != (n,):
                raise ValueError("treatments length must match covariate rows")
            labels = np.unique(treat)
            if labels.min() < 0:
                raise ValueError("treatment labels must be non-negative")
        if not self.feature_names:
            object.__setattr__(
                self, "feature_names", tuple(f"x{i}" for i in range(d))
            )
        elif len(self.feature_names) != d:
            raise ValueError("feature_names length must equal covariate columns")
        else:
            object.__setattr__(self, "feature_names", tuple(self.feature_names))
        self.covariates.setflags(write=False)
        self.times.setflags(write=False)
        self.events.setflags(write=False)
        if self.treatments is not None:
            self.treatments.setflags(write=False)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def d(self) -> int:
        return self.covariates.shape[1]

    @property
    def n_events(self) -> int:
        return int(self.events.sum())

    def subset(self, index) -> "SurvivalDataset":
        """New dataset restricted to the given row indices (order preserved)."""
        index = np.asarray(index)
        return SurvivalDataset(
            covariates=self.covariates[index],
            times=self.times[index],
            events=self.events[index],
            treatments=None if self.treatments is None else self.treatments[index],
            feature_names=self.feature_names,
        )


@dataclass(frozen=True)
class StandardizationParams:
    """Per-feature location/scale fitted on a training split.

    Zero-variance features keep stddev 1 so they pass through unscaled;
    `constant_mask` records which features were degenerate.
    """

    means: np.ndarray
    stddevs: np.ndarray
    constant_mask: np.ndarray = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "means", np.asarray(self.means, dtype=float))
        object.__setattr__(self, "stddevs", np.asarray(self.stddevs, dtype=float))
        if self.constant_mask is None:
            object.__setattr__(
                self, "constant_mask", np.zeros(self.means.shape, dtype=bool)
            )
        else:
            object.__setattr__(
                self, "constant_mask", np.asarray(self.constant_mask, dtype=bool)
            )
        if np.any(self.stddevs <= 0):
            raise ValueError("stddevs must be strictly positive")

    @property
    def has_constant_features(self) -> bool:
        return bool(self.constant_mask.any())


@dataclass(frozen=True)
class SortedSurvivalView:
    """Patients ordered by non-increasing time, with ranges of tied times.

    `permutation[k]` is the original index of the k-th patient in descending
    time order (stable within ties). `tie_groups` is a (g, 2) array of
    [start, stop) ranges into the sorted order; in this order the risk set of
    any event time is a contiguous prefix ending at its group's stop.
    """

    permutation: np.ndarray
    tie_groups: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "permutation", np.asarray(self.permutation, dtype=np.int64)
        )
        object.__setattr__(
            self, "tie_groups", np.asarray(self.tie_groups, dtype=np.int64)
        )
        self.permutation.setflags(write=False)
        self.tie_groups.setflags(write=False)

    @property
    def n(self) -> int:
        return self.permutation.shape[0]


def sort_view(ds: SurvivalDataset) -> SortedSurvivalView:
    """Order patients by descending time, grouping exact ties."""
    perm = np.argsort(-ds.times, kind="stable")
    sorted_times = ds.times[perm]
    boundaries = np.flatnonzero(sorted_times[1:] != sorted_times[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [ds.n]))
    return SortedSurvivalView(perm, np.stack([starts, stops], axis=1))


def _parse_cell(raw: str, column: str, row: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise CsvParseError(
            f"non-numeric value {raw!r} in column {column!r} at row {row}"
        ) from None
    if not np.isfinite(value):
        raise CsvParseError(
            f"non-finite value {raw!r} in column {column!r} at row {row}"
        )
    return value


def load_csv(
    path,
    time_col: str = "time",
    event_col: str = "event",
    treatment_col: str | None = "treatment",
) -> SurvivalDataset:
    """Read a survival dataset from a headered CSV file.

    All columns other than the time, event, and (optional) treatment columns
    are treated as features, in header order. The treatment column is used
    when present and silently skipped when absent; pass ``treatment_col=None``
    to force a column literally named like it to be read as a feature.
    Lines starting with ``#`` are ignored (provenance comments).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, header row required") from None
        header = [name.strip() for name in header]
        for required in (time_col, event_col):
            if required not in header:
                raise SchemaError(f"{path}: missing required column {required!r}")
        has_treatment = treatment_col is not None and treatment_col in header
        special = {time_col, event_col} | ({treatment_col} if has_treatment else set())
        feature_names = [name for name in header if name not in special]
        if not feature_names:
            raise SchemaError(f"{path}: no feature columns beyond {sorted(special)}")
        col_index = {name: header.index(name) for name in header}

        rows_x, rows_t, rows_e, rows_tr = [], [], [], []
        for row_num, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                raise CsvParseError(
                    f"row {row_num}: expected {len(header)} cells, got {len(row)}"
                )
            t = _parse_cell(row[col_index[time_col]], time_col, row_num)
            if t <= 0:
                raise CsvParseError(
                    f"non-positive time {t} in column {time_col!r} at row {row_num}"
                )
            e = _parse_cell(row[col_index[event_col]], event_col, row_num)
            if e not in (0.0, 1.0):
                raise CsvParseError(
                    f"event value {e} outside {{0,1}} in column "
                    f"{event_col!r} at row {row_num}"
                )
            if has_treatment:
                tr = _parse_cell(row[col_index[treatment_col]], treatment_col, row_num)
                if tr != int(tr) or tr < 0:
                    raise CsvParseError(
                        f"treatment label {tr} is not a non-negative integer "
                        f"at row {row_num}"
                    )
                rows_tr.append(int(tr))
            rows_x.append(
                [_parse_cell(row[col_index[name]], name, row_num) for name in feature_names]
            )
            rows_t.append(t)
            rows_e.append(int(e))

    if not rows_x:
        raise CsvParseError(f"{path}: no data rows")
    return SurvivalDataset(
        covariates=np.array(rows_x, dtype=float),
        times=np.array(rows_t, dtype=float),
        events=np.array(rows_e, dtype=np.int64),
        treatments=np.array(rows_tr, dtype=np.int64) if rows_tr else None,
        feature_names=tuple(feature_names),
    )


def write_csv(
    ds: SurvivalDataset,
    path,
    time_col: str = "time",
    event_col: str = "event",
    treatment_col: str = "treatment",
    comment: str | None = None,
) -> None:
    """Write a dataset to CSV; `load_csv` of the result round-trips exactly.

    Floats are written with `repr`, which is lossless for float64.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        header = list(ds.feature_names) + [time_col, event_col]
        if ds.treatments is not None:
            header.append(treatment_col)
        writer.writerow(header)
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.covariates[i]]
            row.append(repr(float(ds.times[i])))
            row.append(str(int(ds.events[i])))
            if ds.treatments is not None:
                row.append(str(int(ds.treatments[i])))
            writer.writerow(row)


def split_indices(
    n: int, fractions: tuple[float, float, float], seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shuffled index partition behind `split`; same contract, raw indices.

    Useful when sidecar arrays (e.g. ground-truth risks) must be carved the
    same way as the dataset.
    """
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3:
        raise ValueError("fractions must have exactly three entries")
    if any(f <= 0 for f in fractions):
        raise ValueError(f"all fractions must be positive, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    cut1 = int(round(fractions[0] * n))
    cut2 = int(round((fractions[0] + fractions[1]) * n))
    if n >= 3:
        cut1 = min(max(cut1, 1), n - 2)
        cut2 = min(max(cut2, cut1 + 1), n - 1)
    return order[:cut1], order[cut1:cut2], order[cut2:]


def split(
    ds: SurvivalDataset, fractions: tuple[float, float, float], seed: int
) -> tuple[SurvivalDataset, SurvivalDataset, SurvivalDataset]:
    """Deterministic disjoint train/validation/test partition.

    Indices are shuffled with a generator seeded by `seed`, then cut at
    cumulative fraction boundaries (rounded), so the three parts are
    exhaustive and their sizes match the fractions up to rounding.
    """
    idx = split_indices(ds.n, fractions, seed)
    return ds.subset(idx[0]), ds.subset(idx[1]), ds.subset(idx[2])


def standardize_fit(ds: SurvivalDataset) -> StandardizationParams:
    """Per-feature mean and population (n-denominator) stddev.

    Fit on the training split only; apply the same params to validation and
    test data.
    """
    means = ds.covariates.mean(axis=0)
    stds = ds.covariates.std(axis=0)
    constant = stds == 0.0
    stds = np.where(constant, 1.0, stds)
    return StandardizationParams(means=means, stddevs=stds, constant_mask=constant)


def standardize_apply(
    ds: SurvivalDataset, params: StandardizationParams
) -> SurvivalDataset:
    """Center and scale covariates; times, events, and treatments untouched."""
    if params.means.shape[0] != ds.d:
        raise ValueError(
            f"params fitted for {params.means.shape[0]} features, dataset has {ds.d}"
        )
    return SurvivalDataset(
        covariates=(ds.covariates - params.means) / params.stddevs,
        times=ds.times,
        events=ds.events,
        treatments=ds.treatments,
        feature_names=ds.feature_names,
    )


def append_treatment_feature(ds: SurvivalDataset) -> tuple[SurvivalDataset, int]:
    """Append the treatment label as the last covariate column.

    Risk models take the treatment group as a plain input feature; this keeps
    the label out of standardization (append after standardizing). Returns the
    augmented dataset and the index of the new column.
    """
    if ds.treatments is None:
        raise ValueError("dataset has no treatments")
    augmented = np.column_stack([ds.covariates, ds.treatments.astype(float)])
    return (
        SurvivalDataset(
            covariates=augmented,
            times=ds.times,
            events=ds.events,
            treatments=ds.treatments,
            feature_names=tuple(ds.feature_names) + ("treatment",),
        ),
        ds.d,
    )
