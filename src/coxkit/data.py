"""Loading, validation, splitting, and model inputs of right-censored
survival datasets.

A dataset couples an n x d covariate matrix with an observed time, an event
indicator (1 = event observed, 0 = right-censored), and optionally a
treatment-group label per patient. Datasets are immutable after construction;
every operation here returns a new object.

Every frozen record (`SurvivalDataset`, `SortedSurvivalView`,
`StandardizationParams`, and `coxlinear.LinearCoxModel`) copies the arrays
it is given and makes the copies read-only, so what it validated cannot
change through the caller's arrays. Only `SurvivalDataset.subset` skips the
copy: its fancy-indexed arrays are already its own.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import os
import signal
import tempfile
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
        cov = np.atleast_2d(np.array(self.covariates, dtype=float))
        times = np.array(self.times, dtype=float)
        # events and labels are checked as read, by the CSV reader's rules,
        # before the int64 cast could truncate them
        events = np.asarray(self.events)
        treat = None if self.treatments is None else np.asarray(self.treatments)
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
        if treat is not None:
            if treat.shape != (n,):
                raise ValueError("treatments length must match covariate rows")
            if np.any(_RULES["treatment"][0](treat)):
                raise ValueError("treatment labels must be non-negative integers")
            treat = treat.astype(np.int64)
        _freeze(
            self,
            covariates=cov,
            times=times,
            events=events.astype(np.int64),
            treatments=treat,
        )
        if not self.feature_names:
            object.__setattr__(
                self, "feature_names", tuple(f"x{i}" for i in range(d))
            )
        elif len(self.feature_names) != d:
            raise ValueError("feature_names length must equal covariate columns")
        else:
            object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def d(self) -> int:
        return self.covariates.shape[1]

    @functools.cached_property
    def n_events(self) -> int:
        return int(self.events.sum())

    def subset(self, index) -> "SurvivalDataset":
        """New dataset restricted to the given row indices (order preserved).

        The rows of a validated dataset are valid, so the new one skips
        `__post_init__`'s checks, all but the non-empty one; its arrays are
        fancy-indexed copies, read-only like every dataset's.
        """
        index = np.asarray(index)
        covariates = self.covariates[index]
        if covariates.ndim != 2 or covariates.shape[0] < 1:
            raise ValueError("covariates must be a non-empty n x d matrix")
        part = object.__new__(SurvivalDataset)
        _freeze(
            part,
            covariates=covariates,
            times=self.times[index],
            events=self.events[index],
            treatments=None if self.treatments is None else self.treatments[index],
        )
        object.__setattr__(part, "feature_names", self.feature_names)
        return part


def _freeze(record, **arrays) -> None:
    """Set the array fields of a frozen record, read-only. The record owns
    them: its constructor passes copies, `subset` fancy-indexed arrays."""
    for name, array in arrays.items():
        if array is not None:
            array.setflags(write=False)
        object.__setattr__(record, name, array)


@dataclass(frozen=True)
class StandardizationParams:
    """Per-feature location/scale fitted on a training split.

    Zero-variance features keep stddev 1 so they pass through unscaled.
    """

    means: np.ndarray
    stddevs: np.ndarray

    def __post_init__(self):
        _freeze(
            self,
            means=np.array(self.means, dtype=float),
            stddevs=np.array(self.stddevs, dtype=float),
        )
        if self.means.ndim != 1 or self.means.shape != self.stddevs.shape:
            raise ValueError("means and stddevs must be 1-d arrays of equal length")
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
        _freeze(
            self,
            permutation=np.array(self.permutation, dtype=np.int64),
            tie_groups=np.array(self.tie_groups, dtype=np.int64),
        )


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


def _lines(fh):
    """The lines of an open CSV file, lines starting with ``#`` dropped."""
    return (line for line in fh if not line.startswith("#"))


def _read_header(path, lines, required) -> list[str]:
    """The stripped header names, read from `lines` up to the header's end;
    `SchemaError` for a repeated name, which would alias another column."""
    try:
        header = [name.strip() for name in next(csv.reader(lines))]
    except StopIteration:
        raise SchemaError(f"{path}: empty file, header row required") from None
    if len(set(header)) < len(header):
        repeated = next(name for name in header if header.count(name) > 1)
        raise SchemaError(f"{path}: column {repeated!r} appears more than once in the header")
    for name in required:
        if name not in header:
            raise SchemaError(f"{path}: missing required column {name!r}")
    return header


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


def _parse_rows(path, header, columns, whole_rows, label):
    """`_parse_body` row by row through `csv` and `float`, reading the file
    afresh: the reference, and the path that raises the first bad cell's error."""
    used = [header.index(name) for name, _ in columns]
    used += [] if label is None else [header.index(label)]
    width = len(header) if whole_rows else 1 + max(used)
    table, labels = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(_lines(fh))
        next(rows)  # the header
        for row_num, row in enumerate(rows, start=1):
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


# Lines per `np.loadtxt` call: bounds the lines and parser buffers alive at once.
_READ_BLOCK_LINES = 4096


def _one_row_per_line(lines) -> bool:
    """Whether no quoted cell in `lines` holds a line break or runs past them."""
    try:
        return sum(1 for _ in csv.reader(lines, strict=True)) == len(lines)
    except csv.Error:
        return False


def _parse_vectorised(header, lines, columns, whole_rows, label):
    """`_parse_rows`'s result by numpy's C parser, `_READ_BLOCK_LINES` lines
    at a time; ValueError where the parser or a check refuses a block."""
    index = [header.index(name) for name, _ in columns]
    # quotechar splits cells as csv.reader does, so a quoted comma in a cell
    # left unread cannot shift the columns that usecols picks
    parse = dict(delimiter=",", comments=None, quotechar='"', ndmin=2)
    tables, labels = [], []
    while block := list(itertools.islice(lines, _READ_BLOCK_LINES)):
        text = "".join(block)
        if any(quirk in text for quirk in _C_PARSER_QUIRKS):
            raise ValueError("a character float() reads differently")
        if not text.strip("\r\n"):
            continue
        if '"' in text and not _one_row_per_line(block):
            raise ValueError("a quoted cell spans lines, maybe across blocks")
        table = np.loadtxt(block, float, usecols=None if whole_rows else index, **parse)
        if whole_rows and table.shape[1] != len(header):
            raise ValueError("rows do not match the header")
        table = table[:, index] if whole_rows else table
        if not np.isfinite(table).all() or any(
            np.any(_RULES[rule][0](table[:, j])) for j, (_, rule) in enumerate(columns)
        ):
            raise ValueError("a value breaks its column's rule")
        tables.append(table)
        if label is not None:
            cells = np.loadtxt(block, object, usecols=[header.index(label)], **parse)
            labels += np.char.strip(cells[:, 0].astype(str)).tolist()
    if not tables:
        raise ValueError("no data rows")
    return np.concatenate(tables), None if label is None else labels


def _parse_body(path, header, lines, columns, whole_rows, label=None):
    """The table (and labels) of the body lines left in `lines`."""
    try:
        return _parse_vectorised(header, lines, columns, whole_rows, label)
    except ValueError:
        return _parse_rows(path, header, columns, whole_rows, label)


def read_columns(path, columns, label: str | None = None):
    """Named columns of a headered CSV file; lines starting with ``#`` are ignored.

    `columns` lists (name, rule) pairs, rules as in `_RULES`. Returns an n x
    len(columns) float array in that order, and the stripped cells of the
    `label` column (None without one). Rows may hold cells beyond the last
    one read. Raises `SchemaError` for a missing column and `CsvParseError`,
    citing the 1-based data row, for a malformed or rule-breaking cell.
    """
    names = [name for name, _ in columns] + ([] if label is None else [label])
    with open(path, newline="", encoding="utf-8") as fh:
        lines = _lines(fh)
        header = _read_header(path, lines, names)
        return _parse_body(path, header, lines, columns, False, label)


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
    with open(path, newline="", encoding="utf-8") as fh:
        lines = _lines(fh)
        header = _read_header(path, lines, (time_col, event_col))
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
        table, _ = _parse_body(path, header, lines, columns, whole_rows=True)
    return SurvivalDataset(
        covariates=table[:, first_feature:],
        times=table[:, 0],
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

# Fewest cells worth a forked process of their own: about 35 ms of `repr`
# (0.7 us a cell on 2 vCPUs of a 2.0 GHz Xeon) against the 10-20 ms it took
# there to fork a process, wait for it and append its part.
_PART_CELLS = 50_000

# Most bytes one `os.sendfile` call is asked to copy.
_SENDFILE_BYTES = 1 << 30


def usable_cpus() -> int:
    """The CPUs this process may run on: the size of its affinity mask
    (`os.sched_getaffinity`, so `taskset` limits it), or 1 on a system
    without one. Every forking site sizes its work by this count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def fork_child(body, *args) -> int:
    """Fork a child that runs `body(*args)`; return its pid. The child leaves
    only through `os._exit`, flushing nothing: 0 once the body returns, the
    errno of an `OSError` (255 from 255 up), else 255."""
    pid = os.fork()
    if pid == 0:
        code = 255
        try:
            body(*args)
            code = 0
        except OSError as exc:
            code = exc.errno if exc.errno and exc.errno < 255 else 255
        finally:
            os._exit(code)
    return pid


def reap_child(pid: int) -> str | None:
    """Wait for the child `pid`: None if it exited 0, else how it ended:
    ``killed by signal N``, its errno's text, or ``exit status N``. A wait
    that is interrupted kills and reaps the child, then propagates."""
    try:
        status = os.waitpid(pid, 0)[1]
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return f"killed by signal {-code}"
    if code == 0:
        return None
    return os.strerror(code) if code < 255 else f"exit status {code}"


def _part_bounds(n_rows: int, n_columns: int) -> list[int]:
    """Row bounds of the parts `write_columns` writes a table in: at most one
    part per usable CPU, per `_PART_CELLS` cells and per row."""
    parts = max(1, min(usable_cpus(), n_rows, n_rows * n_columns // _PART_CELLS))
    return [n_rows * k // parts for k in range(parts + 1)]


def _write_rows(fh, cells, start: int, stop: int) -> None:
    """Rows [start, stop) of formatted columns, `_WRITE_BLOCK_ROWS` at a time, flushed."""
    for begin in range(start, stop, _WRITE_BLOCK_ROWS):
        end = min(begin + _WRITE_BLOCK_ROWS, stop)
        block = [map(fmt, column[begin:end].tolist()) for column, fmt in cells]
        fh.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")
    fh.flush()


def write_columns(path, header, columns, comment: str | None = None) -> None:
    """Write equal-length columns under a header row: the mirror of `read_columns`.

    An optional ``# comment`` line comes first; the header goes through
    `csv.writer`, and body rows end in its ``\\r\\n`` terminator. Integer and
    boolean columns are written with `str` of their int64 value, every other
    column with `repr` of its float64 value, which is lossless.

    A large table is written by one process per CPU in the affinity mask
    (`os.sched_getaffinity`, so `taskset` limits them), each part of at least
    `_PART_CELLS` cells. Before writing, one child per part after the first
    is forked by `fork_child`; it formats its rows, block by block as the
    serial loop does, into an unnamed temporary file in the output's
    directory. This process writes the comment, the header and the first
    part, then reaps each child in order (`reap_child`) and appends its file
    through `os.sendfile`. The bytes do not depend on the number of parts.
    Every child is waited for, also when this raises; a failed child raises
    `OSError` naming `path`, its rows and how it ended. A small table, or a
    system without an affinity mask, is written here, serially.
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
    bounds = _part_bounds(n_rows, len(cells))
    with contextlib.ExitStack() as stack:
        fh = stack.enter_context(open(path, "w", newline="", encoding="utf-8"))
        children = []  # (pid, part file, first row, stop row), not yet reaped
        stack.callback(lambda: [reap_child(pid) for pid, *_ in children])
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            part = stack.enter_context(tempfile.TemporaryFile(
                "w", newline="", encoding="utf-8", dir=os.path.dirname(os.path.abspath(path))
            ))
            # the child only formats and writes: no BLAS, whose threads a fork does not copy
            pid = fork_child(_write_rows, part, cells, start, stop)
            children.append((pid, part, start, stop))
        if comment is not None:
            fh.write(f"# {comment}\n")
        csv.writer(fh).writerow(header)
        _write_rows(fh, cells, 0, bounds[1])
        while children:
            pid, part, start, stop = children.pop(0)
            if reason := reap_child(pid):
                raise OSError(
                    f"{path}: the process writing rows {start}-{stop - 1} failed: {reason}"
                )
            offset = 0
            while sent := os.sendfile(fh.fileno(), part.fileno(), offset, _SENDFILE_BYTES):
                offset += sent


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

    Fit on the training split only; `model_inputs` applies the same params to
    every split.
    """
    means = ds.covariates.mean(axis=0)
    stds = ds.covariates.std(axis=0)
    stds = np.where(stds == 0.0, 1.0, stds)
    return StandardizationParams(means=means, stddevs=stds)


def model_inputs(ds: SurvivalDataset, params: StandardizationParams) -> SurvivalDataset:
    """The inputs a risk model takes: the covariates centered and scaled by
    `params`, then the treatment label, when `ds` has one, as the last input.

    The label is never rescaled. Like every dataset, the result owns copies
    of its arrays, so it shares no memory with `ds`.
    """
    if params.means.shape[0] != ds.d:
        raise ValueError(
            f"params fitted for {params.means.shape[0]} features, dataset has {ds.d}"
        )
    names = ds.feature_names
    inputs = np.empty((ds.n, ds.d + (ds.treatments is not None)))
    scaled = inputs[:, : ds.d]  # written in place: no n x d temporary
    np.subtract(ds.covariates, params.means, out=scaled)
    np.divide(scaled, params.stddevs, out=scaled)
    if ds.treatments is not None:
        inputs[:, -1] = ds.treatments
        names += ("treatment",)
    return SurvivalDataset(
        covariates=inputs,
        times=ds.times,
        events=ds.events,
        treatments=ds.treatments,
        feature_names=names,
    )
