"""Loading, validation, splitting, and standardization of right-censored
survival datasets.

A dataset couples an n x d covariate matrix with an observed time, an event
indicator (1 = event observed, 0 = right-censored), and optionally a
treatment-group label per patient. Datasets are immutable after construction;
every operation here returns a new object.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

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
        # events and labels are checked as read, by the CSV reader's rules,
        # before the int64 cast could truncate them
        events = np.asarray(self.events)
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "times", times)
        if cov.ndim != 2 or cov.shape[0] < 1 or cov.shape[1] < 1:
            raise ValueError("covariates must be a non-empty n x d matrix")
        n, d = cov.shape
        if times.shape != (n,) or events.shape != (n,):
            raise ValueError("times/events length must match covariate rows")
        if not np.all(np.isfinite(cov)):
            raise ValueError("covariates contain non-finite values")
        if not np.all(np.isfinite(times)) or np.any(times <= 0):
            raise ValueError("times must be strictly positive and finite")
        if np.any(_RULES["event"][0](events)):
            raise ValueError("events must contain only 0 or 1")
        object.__setattr__(self, "events", events.astype(np.int64))
        if self.treatments is not None:
            treat = np.asarray(self.treatments)
            if treat.shape != (n,):
                raise ValueError("treatments length must match covariate rows")
            if np.any(_RULES["treatment"][0](treat)):
                raise ValueError("treatment labels must be non-negative integers")
            object.__setattr__(self, "treatments", treat.astype(np.int64))
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

    Zero-variance features keep stddev 1 so they pass through unscaled.
    """

    means: np.ndarray
    stddevs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "means", np.asarray(self.means, dtype=float))
        object.__setattr__(self, "stddevs", np.asarray(self.stddevs, dtype=float))
        if not (np.all(np.isfinite(self.means)) and np.all(np.isfinite(self.stddevs))):
            raise ValueError("means and stddevs must be finite")
        if np.any(self.stddevs <= 0):
            raise ValueError("stddevs must be strictly positive")


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


# Characters numpy's C parser skips as blanks around a number although
# float() rejects them (\x1c-\x1f), or drops from the end of a label (\x00).
_C_PARSER_QUIRKS = "\x00\x1c\x1d\x1e\x1f"

# Every value read must be finite. Column rule -> where a finite value,
# scalar or array, breaks it, and the error then raised.
_RULES = {
    "value": (lambda v: False, ""),
    "time": (lambda v: v <= 0, "non-positive time {value} in column {name!r} at row {row}"),
    "event": (
        lambda v: (v != 0) & (v != 1),
        "event value {value} outside {{0,1}} in column {name!r} at row {row}",
    ),
    "treatment": (  # labels are stored as int64
        lambda v: (v != np.trunc(v)) | (v < 0) | (v >= 2.0**63),
        "treatment label {value} is not a non-negative integer at row {row}",
    ),
}


def _read_header(path, required) -> tuple[list[str], list[str]]:
    """The stripped header names and the lines below them, ``#`` lines dropped."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    try:
        header = [name.strip() for name in next(reader)]
    except StopIteration:
        raise SchemaError(f"{path}: empty file, header row required") from None
    for name in required:
        if name not in header:
            raise SchemaError(f"{path}: missing required column {name!r}")
    return header, lines[reader.line_num:]


def _parse_cell(raw: str, column: str, rule: str, row: int) -> float:
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
    breaks, message = _RULES[rule]
    if breaks(value):
        raise CsvParseError(message.format(value=value, name=column, row=row))
    return value


def _parse_rows(path, header, body, columns, whole_rows, label):
    """`_parse_body` row by row through `csv` and `float`: the reference, and
    the path that raises the first bad cell's error."""
    used = [header.index(name) for name, _ in columns]
    used += [] if label is None else [header.index(label)]
    width = len(header) if whole_rows else 1 + max(used)
    table, labels = [], []
    for row_num, row in enumerate(csv.reader(body), start=1):
        if not row:
            continue
        if len(row) != width if whole_rows else len(row) < width:
            at_least = "" if whole_rows else "at least "
            raise CsvParseError(
                f"row {row_num}: expected {at_least}{width} cells, got {len(row)}"
            )
        table.append([
            _parse_cell(row[i], name, rule, row_num)
            for (name, rule), i in zip(columns, used)
        ])
        if label is not None:
            labels.append(row[used[-1]].strip())
    if not table:
        raise CsvParseError(f"{path}: no data rows")
    return np.array(table, dtype=float), None if label is None else labels


def _parse_vectorised(header, body, columns, whole_rows, label):
    """`_parse_rows`'s result by numpy's C parser; ValueError where the parser
    or a check refuses the body."""
    text = "".join(body)
    if not text.strip("\r\n") or any(quirk in text for quirk in _C_PARSER_QUIRKS):
        raise ValueError("no data rows, or a character float() reads differently")
    index = [header.index(name) for name, _ in columns]
    # quotechar splits cells as csv.reader does, so a quoted comma in a cell
    # left unread cannot shift the columns that usecols picks
    parse = dict(delimiter=",", comments=None, quotechar='"', ndmin=2)
    table = np.loadtxt(body, float, usecols=None if whole_rows else index, **parse)
    if whole_rows and table.shape[1] != len(header):
        raise ValueError("rows do not match the header")
    table = table[:, index] if whole_rows else table
    if not np.isfinite(table).all() or any(
        np.any(_RULES[rule][0](table[:, j])) for j, (_, rule) in enumerate(columns)
    ):
        raise ValueError("a value breaks its column's rule")
    if label is None:
        return table, None
    labels = np.loadtxt(body, object, usecols=[header.index(label)], **parse)[:, 0]
    return table, np.char.strip(labels.astype(str)).tolist()


def _parse_body(path, header, body, columns, whole_rows, label=None):
    try:
        return _parse_vectorised(header, body, columns, whole_rows, label)
    except ValueError:
        return _parse_rows(path, header, body, columns, whole_rows, label)


def read_columns(path, columns, label: str | None = None):
    """Named columns of a headered CSV file; lines starting with ``#`` are ignored.

    `columns` lists (name, rule) pairs, rules as in `_RULES`. Returns an n x
    len(columns) float array in that order, and the stripped cells of the
    `label` column (None without one). Rows may hold cells beyond the last
    one read. Raises `SchemaError` for a missing column and `CsvParseError`,
    citing the 1-based data row, for a malformed or rule-breaking cell.
    """
    names = [name for name, _ in columns] + ([] if label is None else [label])
    header, body = _read_header(path, names)
    return _parse_body(path, header, body, columns, False, label)


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
    Lines starting with ``#`` are ignored (provenance comments). Each row must
    have one cell per header name.
    """
    header, body = _read_header(path, (time_col, event_col))
    has_treatment = treatment_col is not None and treatment_col in header
    special = {time_col, event_col} | ({treatment_col} if has_treatment else set())
    feature_names = [name for name in header if name not in special]
    if not feature_names:
        raise SchemaError(f"{path}: no feature columns beyond {sorted(special)}")
    columns = [(time_col, "time"), (event_col, "event")]
    if has_treatment:
        columns.append((treatment_col, "treatment"))
    first_feature = len(columns)
    columns += [(name, "value") for name in feature_names]
    table, _ = _parse_body(path, header, body, columns, whole_rows=True)
    return SurvivalDataset(
        covariates=table[:, first_feature:].copy(),
        times=table[:, 0].copy(),
        events=table[:, 1],
        treatments=table[:, 2] if has_treatment else None,
        feature_names=tuple(feature_names),
    )


def write_csv(ds: SurvivalDataset, path, comment: str | None = None) -> None:
    """Write a dataset to CSV; `load_csv` of the result round-trips exactly.

    Floats are written with `repr`, which is lossless for float64.
    """
    header = list(ds.feature_names) + ["time", "event"]
    columns = list(ds.covariates.T) + [ds.times, ds.events]
    if ds.treatments is not None:
        header.append("treatment")
        columns.append(ds.treatments)
    write_columns(path, header, columns, comment)


# Rows formatted per write: bounds the Python strings alive at once.
_WRITE_BLOCK_ROWS = 2048


def write_columns(path, header, columns, comment: str | None = None) -> None:
    """Write equal-length columns under a header row: the mirror of `read_columns`.

    An optional ``# comment`` line comes first; the header goes through
    `csv.writer`, and body rows end in its ``\\r\\n`` terminator. Integer and
    boolean columns are written with `str` of their int64 value, every other
    column with `repr` of its float64 value, which is lossless.
    """
    cells = []
    for column in columns:
        column = np.asarray(column)
        if column.dtype.kind in "biu":
            cells.append((column.astype(np.int64, copy=False), str))
        else:
            cells.append((np.asarray(column, dtype=float), repr))
    n_rows = cells[0][0].size if cells else 0
    if any(column.shape != (n_rows,) for column, _ in cells):
        raise ValueError("columns must be 1-d and of equal length")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        csv.writer(fh).writerow(header)
        for start in range(0, n_rows, _WRITE_BLOCK_ROWS):
            block = [
                map(fmt, column[start : start + _WRITE_BLOCK_ROWS].tolist())
                for column, fmt in cells
            ]
            fh.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")


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
    stds = np.where(stds == 0.0, 1.0, stds)
    return StandardizationParams(means=means, stddevs=stds)


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
