import errno
import os
import re
import signal
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxkit import data
from coxkit.data import (
    CsvParseError,
    SchemaError,
    SortedSurvivalView,
    StandardizationParams,
    SurvivalDataset,
    load_csv,
    model_inputs,
    read_columns,
    sort_view,
    split,
    split_indices,
    standardize_fit,
    write_columns,
    write_csv,
)
from coxkit.metrics import kaplan_meier, write_km_csv
from helpers import (
    assert_no_child_left,
    identity_standardization,
    random_dataset,
    reference_model_inputs,
    reference_write_csv,
    reference_write_km_csv,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic(self, tmp_path):
        ds = load_csv(write(tmp_path, "x0,time,event\n0.5,2.0,1\n-0.5,3.0,0\n"))
        assert ds.n == 2 and ds.d == 1
        assert np.array_equal(ds.times, [2.0, 3.0])
        assert np.array_equal(ds.events, [1, 0])
        assert ds.treatments is None
        assert ds.feature_names == ("x0",)

    def test_row_order_preserved(self, tmp_path):
        ds = load_csv(write(tmp_path, "x0,time,event\n9,1,1\n8,2,1\n7,3,0\n"))
        assert np.array_equal(ds.covariates[:, 0], [9.0, 8.0, 7.0])

    def test_negative_time_cites_row(self, tmp_path):
        path = write(tmp_path, "x0,time,event\n0.5,-1,1\n-0.5,3.0,0\n")
        with pytest.raises(CsvParseError, match="row 1"):
            load_csv(path)

    def test_treatment_column(self, tmp_path):
        ds = load_csv(
            write(tmp_path, "x0,time,event,treatment\n1,2,1,0\n2,3,0,1\n")
        )
        assert np.array_equal(ds.treatments, [0, 1])
        assert ds.d == 1

    def test_treatment_opt_out(self, tmp_path):
        path = write(tmp_path, "x0,time,event,treatment\n1,2,1,0\n2,3,0,1\n")
        ds = load_csv(path, treatment_col=None)
        assert ds.treatments is None
        assert ds.d == 2  # treatment read as a plain feature

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "x0,when,event\n1,2,1\n")
        with pytest.raises(SchemaError, match="'time'"):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path, "x0,time,event\n1,2,1\nfoo,3,0\n")
        with pytest.raises(CsvParseError, match="row 2"):
            load_csv(path)

    def test_missing_cell_rejected(self, tmp_path):
        path = write(tmp_path, "x0,time,event\n,2,1\n")
        with pytest.raises(CsvParseError, match="row 1"):
            load_csv(path)

    def test_every_row_too_long_rejected(self, tmp_path):
        path = write(tmp_path, "x0,time,event\n1,2,1,5\n3,4,0,6\n")
        with pytest.raises(CsvParseError, match="row 1: expected 3 cells, got 4"):
            load_csv(path)

    def test_event_outside_01(self, tmp_path):
        path = write(tmp_path, "x0,time,event\n1,2,2\n")
        with pytest.raises(CsvParseError, match="row 1"):
            load_csv(path)

    @pytest.mark.parametrize("label", ["1.5", "-1", "1e19"])
    def test_treatment_not_a_label_rejected(self, tmp_path, label):
        path = write(tmp_path, f"x0,time,event,treatment\n1,2,1,0\n1,2,1,{label}\n")
        with pytest.raises(CsvParseError, match="treatment label .* at row 2"):
            load_csv(path)

    def test_comment_lines_skipped(self, tmp_path):
        ds = load_csv(write(tmp_path, "# provenance\nx0,time,event\n1,2,1\n"))
        assert ds.n == 1

    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        for k in range(20):
            ds = random_dataset(rng, n=int(rng.integers(1, 40)), d=int(rng.integers(1, 5)))
            path = tmp_path / f"rt{k}.csv"
            write_csv(ds, path)
            back = load_csv(path)
            assert np.array_equal(back.covariates, ds.covariates)
            assert np.array_equal(back.times, ds.times)
            assert np.array_equal(back.events, ds.events)

    def test_roundtrip_wide(self, tmp_path):
        ds = random_dataset(np.random.default_rng(6), n=300, d=64)
        ds = SurvivalDataset(
            covariates=ds.covariates * 10.0 ** np.arange(-32, 32),
            times=ds.times,
            events=ds.events,
            treatments=np.arange(ds.n) % 3,
        )
        path = tmp_path / "wide.csv"
        write_csv(ds, path, comment="wide")
        back = load_csv(path)
        assert np.array_equal(back.covariates, ds.covariates)
        assert np.array_equal(back.times, ds.times)
        assert np.array_equal(back.events, ds.events)
        assert np.array_equal(back.treatments, ds.treatments)
        assert back.feature_names == ds.feature_names

    def test_roundtrip_with_treatments(self, tmp_path):
        ds = SurvivalDataset(
            covariates=[[0.1], [0.2]],
            times=[1.0, 2.0],
            events=[1, 0],
            treatments=[1, 0],
        )
        path = tmp_path / "t.csv"
        write_csv(ds, path, comment="hello")
        back = load_csv(path)
        assert np.array_equal(back.treatments, [1, 0])


def _extreme_dataset(n, d, with_treatments, seed=8):
    """Covariates and times holding -0.0, subnormal, huge and ordinary values."""
    rng = np.random.default_rng(seed)
    covariates = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-30, 30, size=(n, d))
    covariates.flat[: 3 * min(n, 4)] = [-0.0, 1e-320, 1e300] * min(n, 4)
    times = rng.uniform(0.1, 10.0, size=n)
    times[: min(n, 3)] = [1e-320, 1e300, 0.1][: min(n, 3)]
    events = rng.integers(0, 2, size=n)
    treatments = rng.integers(0, 3, size=n) if with_treatments else None
    return SurvivalDataset(covariates, times, events, treatments)


class TestWriteCsvMatchesRowWriter:
    @pytest.mark.parametrize("with_treatments", [False, True])
    @pytest.mark.parametrize("comment", [None, '{"seed":1}'])
    @pytest.mark.parametrize("n, d", [(1, 1), (9000, 1), (300, 64)])
    def test_same_bytes(self, tmp_path, with_treatments, comment, n, d):
        ds = _extreme_dataset(n, d, with_treatments)
        write_csv(ds, tmp_path / "new.csv", comment=comment)
        reference_write_csv(ds, tmp_path / "old.csv", comment=comment)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_quoted_header(self, tmp_path):
        ds = SurvivalDataset([[1.5], [-0.0]], [1.0, 2.0], [1, 0],
                             feature_names=('a,"b"',))
        write_csv(ds, tmp_path / "new.csv")
        reference_write_csv(ds, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert load_csv(tmp_path / "new.csv").feature_names == ('a,"b"',)

    def test_memory_stays_below_file_size(self, tmp_path):
        # 1e5 rows x 13 columns: the writer's strings live one block at a time
        ds = _extreme_dataset(100_000, 10, with_treatments=True)
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            write_csv(ds, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 20e6
        assert peak < size / 4, f"peak {peak / 1e6:.1f} MB for a {size / 1e6:.1f} MB file"

    def test_write_columns_rejects_ragged(self, tmp_path):
        with pytest.raises(ValueError, match="equal length"):
            write_columns(tmp_path / "x.csv", ["a", "b"], [[1.0, 2.0], [1.0]])
        with pytest.raises(ValueError, match="1-d"):
            write_columns(tmp_path / "x.csv", ["a"], [np.zeros((2, 2))])

    def test_write_columns_header_only(self, tmp_path):
        write_columns(tmp_path / "x.csv", ["a", "b"], [[], []], comment="c")
        assert (tmp_path / "x.csv").read_bytes() == b"# c\na,b\r\n"


def _end(how):
    """Raise `how` if it is an exception, send this process the signal `how`
    if it is one, or return for None."""
    if isinstance(how, BaseException):
        raise how
    if how is not None:
        os.kill(os.getpid(), how)


def _mixed_columns(n):
    """Float columns holding -0.0, subnormals, 1e300 and ordinary values, an
    int column and a bool column, of `n` rows each."""
    rng = np.random.default_rng(n)
    floats = rng.normal(size=(2, n)) * 10.0 ** rng.integers(-300, 300, size=(2, n))
    floats.flat[: 4 * min(n, 2)] = [-0.0, 5e-324, 1e300, -2.5e-310] * min(n, 2)
    return [*floats, rng.integers(-(2**62), 2**62, size=n), rng.random(n) < 0.5]


class TestWriteColumnsInParts:
    """A table written by forked processes, one part each, is the table the
    serial loop writes, and leaves no process or file behind."""

    @pytest.mark.parametrize("comment", [None, '{"seed":1}'])
    @pytest.mark.parametrize("n", [0, 1, 3, 4500])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_same_bytes_as_serial(self, tmp_path, cpus, forks, k, n, comment):
        header = ["f", "g", "i", "b"]
        cpus(1)
        write_columns(tmp_path / "serial.csv", header, _mixed_columns(n), comment)
        assert not forks
        cpus(k)
        write_columns(tmp_path / "parts.csv", header, _mixed_columns(n), comment)
        assert len(forks) == max(0, min(k, n) - 1)
        serial = (tmp_path / "serial.csv").read_bytes()
        assert (tmp_path / "parts.csv").read_bytes() == serial
        assert serial.count(b"\r\n") == n + 1
        assert_no_child_left()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["parts.csv", "serial.csv"]

    @pytest.mark.parametrize("comment", [None, '{"seed":1}'])
    @pytest.mark.parametrize("n", [1, 3, 4500])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_dataset_matches_reference_and_round_trips(self, tmp_path, cpus, k, n, comment):
        ds = _extreme_dataset(n, 3, with_treatments=True)
        cpus(k)
        write_csv(ds, tmp_path / "new.csv", comment=comment)
        reference_write_csv(ds, tmp_path / "old.csv", comment=comment)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        back = load_csv(tmp_path / "new.csv")
        for name in ("covariates", "times", "events", "treatments"):
            assert getattr(back, name).tobytes() == getattr(ds, name).tobytes(), name
        assert_no_child_left()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_km_csv_matches_reference(self, tmp_path, cpus, forks, k):
        km = kaplan_meier(np.arange(9000) % 6000 + 0.5, (np.arange(9000) % 5 != 0).astype(int))
        cpus(k)
        write_km_csv(km, tmp_path / "new.csv", comment="prov")
        assert len(forks) == k - 1
        reference_write_km_csv(km, tmp_path / "old.csv", comment="prov")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert_no_child_left()

    def test_parts_hold_a_row_each(self, monkeypatch):
        monkeypatch.setattr(data, "_PART_CELLS", 1)
        monkeypatch.setattr(data.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        assert data._part_bounds(0, 5) == [0, 0]
        assert data._part_bounds(3, 5) == [0, 1, 2, 3]
        assert data._part_bounds(10, 1) == [0, 2, 5, 7, 10]

    def test_small_table_never_forks(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(data.os, "sched_getaffinity", lambda pid: set(range(4)),
                            raising=False)
        # 49,998 cells: one short of a second part
        ds = _extreme_dataset(16_666, 1, with_treatments=True)
        write_csv(ds, tmp_path / "x.csv")
        monkeypatch.setattr(data, "_PART_CELLS", 1)
        write_csv(ds.subset([0]), tmp_path / "one_row.csv")
        assert not forks

    def test_usable_cpus_is_the_affinity_mask_or_one(self, monkeypatch):
        monkeypatch.setattr(data.os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        assert data.usable_cpus() == 3
        monkeypatch.delattr(data.os, "sched_getaffinity", raising=False)
        assert data.usable_cpus() == 1

    def test_no_affinity_mask_never_forks(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(data, "_PART_CELLS", 1)
        monkeypatch.delattr(data.os, "sched_getaffinity", raising=False)
        write_csv(_extreme_dataset(100, 3, with_treatments=False), tmp_path / "x.csv")
        assert not forks

    @pytest.mark.parametrize(
        "error, reason",
        [
            (OSError(errno.ENOSPC, "No space left on device"), "No space left on device"),
            (ValueError("bad cell"), "exit status 255"),
            (signal.SIGKILL, f"killed by signal {signal.SIGKILL:d}"),
        ],
    )
    def test_failed_child_names_the_path(self, tmp_path, cpus, monkeypatch, error, reason):
        parent, write_rows = os.getpid(), data._write_rows

        def fail_in_child(fh, cells, start, stop):
            if os.getpid() != parent:
                _end(error)
            write_rows(fh, cells, start, stop)

        monkeypatch.setattr(data, "_write_rows", fail_in_child)
        cpus(3)
        path = tmp_path / "out.csv"
        message = f"{path}: the process writing rows 1-1 failed: {reason}"
        with pytest.raises(OSError, match=re.escape(message)):
            write_columns(path, ["a"], [[1.0, 2.0, 3.0]])
        assert_no_child_left()
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_parent_reaps_children(self, tmp_path, cpus, monkeypatch, forks):
        parent, write_rows = os.getpid(), data._write_rows

        def fail_in_parent(fh, cells, start, stop):
            if os.getpid() == parent:
                raise RuntimeError("parent failed")
            write_rows(fh, cells, start, stop)

        monkeypatch.setattr(data, "_write_rows", fail_in_parent)
        cpus(4)
        with pytest.raises(RuntimeError, match="parent failed"):
            write_columns(tmp_path / "out.csv", ["a"], [np.arange(100.0)])
        assert len(forks) == 3
        assert_no_child_left()
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


class TestForkAndReap:
    """`reap_child` names how a child of `fork_child` ended, and leaves no
    child behind."""

    @pytest.mark.parametrize("how, reason", [
        (None, None),
        (OSError(errno.ENOSPC, "disk full"), os.strerror(errno.ENOSPC)),
        (OSError("no errno"), "exit status 255"),
        (OSError(300, "errno past 254"), "exit status 255"),
        (ValueError("bad cell"), "exit status 255"),
        (signal.SIGKILL, f"killed by signal {signal.SIGKILL:d}"),
    ])
    def test_ending(self, how, reason):
        assert data.reap_child(data.fork_child(_end, how)) == reason
        assert_no_child_left()

    def test_interrupted_wait_kills_and_reaps(self, monkeypatch):
        waitpid, calls = os.waitpid, []

        def interrupted_once(pid, options):
            calls.append(pid)
            if len(calls) == 1:
                raise KeyboardInterrupt
            return waitpid(pid, options)

        pid = data.fork_child(time.sleep, 60)
        monkeypatch.setattr(os, "waitpid", interrupted_once)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            data.reap_child(pid)
        monkeypatch.undo()
        assert calls == [pid, pid]
        assert time.monotonic() - started < 30
        assert_no_child_left()


_finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
# per column, cells that pass its checks
_valid = {
    "time": st.floats(min_value=1e-300, max_value=1e300).map(repr),
    "event": st.sampled_from(["0", "1", " 1", "0.0", "1e0"]),
    "treatment": st.sampled_from(["0", "1", "2", "1.0"]),
    "group": st.sampled_from(
        ["a", " a ", '"a"', ' "b" ', '"c,d"', '"e""f"', "", "b", "a\x00", '"g\nh"']
    ),
    "note": st.sampled_from(["x", '"y,1.5"', '"z"', '"1,\n2"']),
}
# cells float() reads and numpy's parser does not ("1_0", quoted), or the
# other way round ("1\x1c"); non-finite and malformed cells; edge spellings
_odd = st.sampled_from(
    [" 1.5 ", "+.5", "1_0", '"1.5"', "nan", "inf", "-Infinity", "1e400", "",
     " ", "abc", "0", "1", "2", "-1", "1.0", "1\x1c"]
)
_blank_or_comment = st.sampled_from(["\n", "\r\n", "# note\n"])

# each reader, with the header its generated files get
_READERS = {
    "load_csv": (
        ["x0", "time", "x1", "event", "treatment"],
        lambda path: _dataset_fields(load_csv(path)),
    ),
    "km": (
        ["group", "time", "event", "x0"],
        lambda path: read_columns(path, [("time", "time"), ("event", "event")], "group"),
    ),
    "risks": (["note", "true_risk"], lambda path: read_columns(path, [("true_risk", "value")])),
}


def _dataset_fields(ds):
    return ds.covariates, ds.times, ds.events, ds.treatments, ds.feature_names


@st.composite
def _csv_text(draw, header):
    """A CSV file: mostly well-formed rows, with short and long rows, blank
    and comment lines in the body, and sometimes no data rows at all."""
    lines = [draw(st.sampled_from(["", "# provenance\n"]))]
    lines.append(",".join(draw(st.sampled_from([n, f" {n} "])) for n in header) + "\n")
    for _ in range(draw(st.integers(0, 5))):
        cells = [
            draw(_odd if draw(st.integers(0, 9)) == 0 else _valid.get(name, _finite))
            for name in header
        ]
        shape = draw(st.sampled_from(["whole"] * 8 + ["short", "long"]))
        if shape == "short":
            cells = cells[: draw(st.integers(0, len(cells) - 1))]
        elif shape == "long":
            cells.append(draw(_finite))
        lines.append(",".join(cells) + draw(st.sampled_from(["\n", "\r\n"])))
        lines.extend(draw(st.lists(_blank_or_comment, max_size=1)))
    return "".join(lines)


def _outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return type(exc), str(exc)


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b)
        )
    if isinstance(a, (tuple, list)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    return a == b


class TestReaderMatchesRowLoop:
    """The public readers equal the row loop alone (`_parse_rows`, the
    reference parse) on generated files: same arrays, or the same error."""

    @pytest.mark.parametrize("reader", sorted(_READERS))
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_same_result(self, tmp_path_factory, reader, draw):
        header, read = _READERS[reader]
        path = tmp_path_factory.getbasetemp() / f"differential_{reader}.csv"
        path.write_bytes(draw.draw(_csv_text(header)).encode("utf-8"))
        # small blocks put block boundaries among the generated lines
        block_lines = draw.draw(st.sampled_from([1, 2, 3, data._READ_BLOCK_LINES]))
        with mock.patch.object(data, "_READ_BLOCK_LINES", block_lines):
            got = _outcome(read, path)
        with mock.patch.object(data, "_parse_vectorised", side_effect=ValueError):
            want = _outcome(read, path)
        assert _same(got, want), (got, want)

    @pytest.mark.parametrize("quirk", ["\x1c", "\x1f"])
    def test_separator_around_number_rejected(self, tmp_path, quirk):
        # numpy's parser skips \x1c-\x1f around a number as blanks; float() does not
        path = write(tmp_path, f"x0,time,event\n1{quirk},2,1\n")
        with pytest.raises(CsvParseError, match="non-numeric value .* at row 1"):
            load_csv(path)

    def test_label_keeps_trailing_nul(self, tmp_path):
        # numpy's string arrays drop trailing NULs
        path = write(tmp_path, "g,time,event\na\x00,2,1\n")
        _, labels = read_columns(path, [("time", "time"), ("event", "event")], "g")
        assert labels == ["a\x00"]


_HEADER_NAMES = ["x0", "time", "event", "treatment", "group"]


@st.composite
def _repeated_header_csv(draw):
    """(name, text): a file whose header holds `name` twice, maybe padded;
    its body may hold a quoted line break, which forces the row loop."""
    header = list(draw(st.permutations(_HEADER_NAMES)))
    name = draw(st.sampled_from(header))
    header.insert(draw(st.integers(0, len(header))), name)
    header = [draw(st.sampled_from([n, f" {n} "])) for n in header]
    rows = [["1"] * len(header) for _ in range(draw(st.integers(0, 3)))]
    if rows and draw(st.booleans()):
        rows[-1][-1] = '"1,\n2"'
    return name, "".join(",".join(cells) + "\n" for cells in [header, *rows])


class TestRepeatedHeaderName:
    """Each column is found by its name, so a second column of one name
    would read the first's cells: both readers refuse such a header."""

    @settings(max_examples=100, deadline=None)
    @given(_repeated_header_csv())
    def test_both_readers_raise(self, tmp_path_factory, case):
        name, text = case
        path = tmp_path_factory.getbasetemp() / "repeated.csv"
        path.write_text(text, encoding="utf-8")
        message = f"column {name!r} appears more than once in the header"
        with pytest.raises(SchemaError, match=message):
            load_csv(path)
        with pytest.raises(SchemaError, match=message):
            read_columns(path, [("time", "time"), ("event", "event")], "group")


def _body(rows):
    """Data lines under `TestStreamedReader.HEADER`, row i's time 1 + i % 7."""
    return [f"{i * 0.5},{1 + i % 7},{-i},{i % 2},{i % 3}\n" for i in range(1, rows + 1)]


class TestStreamedReader:
    """Files whose body crosses `_READ_BLOCK_LINES`: each reader equals the
    row loop alone, or raises its error."""

    HEADER = "x0,time,x1,event,treatment\n"

    def same_as_row_loop(self, path):
        """`load_csv`'s outcome, after checking it and km's read against the
        row loop."""
        outcomes = []
        for read in (
            lambda p: _dataset_fields(load_csv(p)),
            lambda p: read_columns(p, [("time", "time"), ("x1", "value")], "treatment"),
        ):
            got = _outcome(read, path)
            with mock.patch.object(data, "_parse_vectorised", side_effect=ValueError):
                want = _outcome(read, path)
            assert _same(got, want), (got, want)
            outcomes.append(got)
        return outcomes[0]

    def test_body_across_blocks(self, tmp_path):
        rows = 2 * data._READ_BLOCK_LINES + 5
        path = write(tmp_path, "# note\n" + self.HEADER + "".join(_body(rows)))
        covariates, times, *_ = self.same_as_row_loop(path)
        assert covariates.shape == (rows, 2)
        assert np.array_equal(times, 1 + np.arange(1, rows + 1) % 7)

    def test_comment_and_blank_lines_at_the_boundary(self, tmp_path):
        body = _body(data._READ_BLOCK_LINES + 10)
        cut = data._READ_BLOCK_LINES - 1
        body[cut:cut] = ["# note\n", "\n", "# note\n", "\r\n"]
        path = write(tmp_path, self.HEADER + "".join(body))
        self.same_as_row_loop(path)

    def test_quoted_line_break_across_the_boundary(self, tmp_path):
        # each block alone parses, the second with one row too many
        lines = [f"{i * 0.5},x\n" for i in range(1, data._READ_BLOCK_LINES + 5)]
        lines[data._READ_BLOCK_LINES - 1] = '1.5,"a\n'
        lines[data._READ_BLOCK_LINES] = '2.5,b"\n'
        path = write(tmp_path, "true_risk,note\n" + "".join(lines))
        table, _ = read_columns(path, [("true_risk", "value")])
        with mock.patch.object(data, "_parse_vectorised", side_effect=ValueError):
            want, _ = read_columns(path, [("true_risk", "value")])
        assert _same(table, want)
        assert table.shape == (data._READ_BLOCK_LINES + 3, 1)

    @pytest.mark.parametrize(
        "cell, message",
        [("1\x1c", "non-numeric value '1\\x1c' in column 'x0' at row 5000"),
         ("abc", "non-numeric value 'abc' in column 'x0' at row 5000")],
    )
    def test_bad_cell_in_the_second_block_cites_its_row(self, tmp_path, cell, message):
        body = _body(6000)
        body[4999] = cell + body[4999][body[4999].index(","):]
        path = write(tmp_path, self.HEADER + "".join(body))
        assert self.same_as_row_loop(path) == (CsvParseError, message)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "# note\n" + self.HEADER)
        assert self.same_as_row_loop(path) == (CsvParseError, f"{path}: no data rows")

    def test_load_memory_is_bounded_by_the_table(self, tmp_path):
        path = write(tmp_path, self.HEADER + "".join(_body(20_000)))
        tracemalloc.start()
        try:
            ds = load_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = sum(a.nbytes for a in (ds.covariates, ds.times, ds.events, ds.treatments))
        assert peak < 2.5 * table, f"peak {peak / table:.2f} x the {table} bytes returned"


class TestDatasetValidation:
    def test_nonpositive_time(self):
        with pytest.raises(ValueError, match="positive"):
            SurvivalDataset(covariates=[[1.0]], times=[0.0], events=[1])

    def test_bad_event(self):
        with pytest.raises(ValueError, match="0 or 1"):
            SurvivalDataset(covariates=[[1.0]], times=[1.0], events=[2])

    def test_nonfinite_covariate(self):
        with pytest.raises(ValueError, match="finite"):
            SurvivalDataset(covariates=[[np.nan]], times=[1.0], events=[1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SurvivalDataset(covariates=[[1.0], [2.0]], times=[1.0], events=[1])

    @pytest.mark.parametrize(
        "events, treatments, message",
        [
            ([0.5, 1.7, 1.0], None, "0 or 1"),  # once truncated to [0, 1, 1]
            ([1, np.nan, 0], None, "0 or 1"),
            ([1, 0, 1], [0.5, 1.2, 2.0], "treatment labels"),  # once [0, 1, 2]
            ([1, 0, 1], [0, -1, 1], "treatment labels"),
            ([1, 0, 1], [0, np.nan, 1], "treatment labels"),
            ([1, 0, 1], [0, 2.0**63, 1], "treatment labels"),
        ],
    )
    def test_events_and_labels_checked_before_cast(self, events, treatments, message):
        with pytest.raises(ValueError, match=message):
            SurvivalDataset(
                covariates=[[1.0], [2.0], [3.0]],
                times=[1.0, 2.0, 3.0],
                events=events,
                treatments=treatments,
            )


class TestDatasetArrays:
    def test_caller_arrays_stay_writeable_and_unshared(self):
        cov, t = np.ones((3, 2)), np.array([1.0, 2.0, 3.0])
        ds = SurvivalDataset(cov, t, [1, 0, 1])
        t[0] = 5.0
        cov[:, 1] = 7.0
        assert ds.times.tolist() == [1.0, 2.0, 3.0]
        assert ds.covariates.tolist() == [[1.0, 1.0]] * 3
        for caller, own in [(cov, ds.covariates), (t, ds.times)]:
            assert caller.flags.writeable and not own.flags.writeable
            assert not np.shares_memory(caller, own)

    def test_caller_views_are_copied(self):
        table = np.arange(1.0, 10.0).reshape(3, 3)
        ds = SurvivalDataset(table[:, 1:], table[:, 0], [1, 0, 1])
        assert not np.shares_memory(ds.covariates, table)
        assert not np.shares_memory(ds.times, table)
        assert table.flags.writeable

    def test_read_only_arrays_and_views_are_copied(self):
        cov, t = np.ones((3, 2)), np.array([1.0, 2.0, 3.0])
        cov.setflags(write=False)
        t.setflags(write=False)
        ds = SurvivalDataset(cov, t, [1, 0, 1])
        assert not np.shares_memory(ds.covariates, cov)
        assert not np.shares_memory(ds.times, t)
        # a read-only view does not make its base read-only
        table = np.arange(1.0, 10.0).reshape(3, 3)
        cov, t = table[:, 1:], table[:, 0]
        cov.setflags(write=False)
        t.setflags(write=False)
        ds = SurvivalDataset(cov, t, [1, 0, 1])
        table[0, 0] = -5.0
        table[1, 1] = np.nan
        assert ds.times.tolist() == [1.0, 4.0, 7.0]
        assert ds.covariates.tolist() == [[2.0, 3.0], [5.0, 6.0], [8.0, 9.0]]

    def test_converted_inputs_are_read_only(self):
        ds = SurvivalDataset([[1], [2]], np.array([1, 2]), [1, 0])
        assert ds.covariates.dtype == ds.times.dtype == float
        assert not ds.covariates.flags.writeable and not ds.times.flags.writeable


@st.composite
def _subset_case(draw):
    """(dataset, index): a dataset of 1-8 patients, maybe with treatments and
    named features, and an index into it: repeated, unsorted or negative row
    numbers, or a boolean mask; either may select nothing."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ds = random_dataset(rng, n, d=draw(st.integers(1, 3)))
    if draw(st.booleans()):
        ds = SurvivalDataset(
            covariates=ds.covariates,
            times=ds.times,
            events=ds.events,
            treatments=rng.integers(0, 3, size=n),
            feature_names=tuple(f"f{j}" for j in range(ds.d)),
        )
    if draw(st.booleans()):
        index = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    else:
        index = np.array(draw(st.lists(st.integers(-n, n - 1), max_size=2 * n)), dtype=np.int64)
    return ds, index


class TestSubset:
    """`subset` skips the constructor's checks for rows of a validated
    dataset; it must still equal the constructor on the same rows."""

    @settings(max_examples=200, deadline=None)
    @given(_subset_case())
    def test_matches_constructor(self, case):
        ds, index = case
        try:
            want = SurvivalDataset(
                covariates=ds.covariates[index],
                times=ds.times[index],
                events=ds.events[index],
                treatments=None if ds.treatments is None else ds.treatments[index],
                feature_names=ds.feature_names,
            )
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                ds.subset(index)
            assert str(raised.value) == str(exc)
            return
        got = ds.subset(index)
        for name in ("covariates", "times", "events", "treatments"):
            a, b = getattr(got, name), getattr(want, name)
            if b is None:
                assert a is None
                continue
            assert a.dtype == b.dtype and np.array_equal(a, b)
            assert not a.flags.writeable
            assert not np.shares_memory(a, getattr(ds, name))
        assert got.feature_names == want.feature_names
        assert got.n_events == want.n_events == int(want.events.sum())

    def test_empty_index_raises_the_constructors_error(self):
        ds = random_dataset(np.random.default_rng(3), n=5)
        message = "covariates must be a non-empty n x d matrix"
        with pytest.raises(ValueError, match=message):
            ds.subset(np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match=message):
            ds.subset(np.zeros(5, dtype=bool))

    @pytest.mark.parametrize("index", [[5], [0, -6], np.ones(4, dtype=bool)])
    def test_index_outside_the_rows_raises(self, index):
        ds = random_dataset(np.random.default_rng(4), n=5)
        with pytest.raises(IndexError):
            ds.subset(index)


class TestSplit:
    def test_paper_sizes(self):
        ds = random_dataset(np.random.default_rng(0), n=6000)
        tr, va, te = split(ds, (4000 / 6000, 1000 / 6000, 1000 / 6000), seed=1)
        assert (tr.n, va.n, te.n) == (4000, 1000, 1000)

    def test_zero_fraction_rejected(self):
        ds = random_dataset(np.random.default_rng(0), n=10)
        with pytest.raises(ValueError, match="positive"):
            split(ds, (1.0, 0.0, 0.0), seed=1)

    def test_must_sum_to_one(self):
        ds = random_dataset(np.random.default_rng(0), n=10)
        with pytest.raises(ValueError, match="sum to 1"):
            split(ds, (0.5, 0.2, 0.2), seed=1)

    def test_deterministic(self):
        ds = random_dataset(np.random.default_rng(0), n=100)
        a = split(ds, (0.6, 0.2, 0.2), seed=7)
        b = split(ds, (0.6, 0.2, 0.2), seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x.times, y.times)
            assert np.array_equal(x.covariates, y.covariates)

    @pytest.mark.parametrize("seed", range(5))
    def test_partition_exhaustive(self, seed):
        n = 101
        i1, i2, i3 = split_indices(n, (0.5, 0.25, 0.25), seed=seed)
        merged = np.sort(np.concatenate([i1, i2, i3]))
        assert np.array_equal(merged, np.arange(n))


class TestStandardize:
    def test_two_point_column(self):
        ds = SurvivalDataset(covariates=[[1.0], [3.0]], times=[1, 2], events=[1, 1])
        params = standardize_fit(ds)
        assert params.means[0] == 2.0
        assert params.stddevs[0] == 1.0  # population convention
        out = model_inputs(ds, params)
        assert np.array_equal(out.covariates[:, 0], [-1.0, 1.0])

    def test_constant_column_flagged(self):
        ds = SurvivalDataset(covariates=[[5.0], [5.0]], times=[1, 2], events=[1, 1])
        params = standardize_fit(ds)
        assert params.stddevs[0] == 1.0
        out = model_inputs(ds, params)
        assert np.array_equal(out.covariates[:, 0], [0.0, 0.0])

    def test_fit_apply_normalizes(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, n=200, d=4)
        out = model_inputs(ds, standardize_fit(ds))
        assert np.all(np.abs(out.covariates.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(out.covariates.std(axis=0) - 1.0) < 1e-9)

    def test_test_set_means_not_zero(self):
        rng = np.random.default_rng(4)
        train = random_dataset(rng, n=100, d=2)
        test = random_dataset(rng, n=100, d=2)
        out = model_inputs(test, standardize_fit(train))
        assert np.any(np.abs(out.covariates.mean(axis=0)) > 1e-6)

    def test_times_events_untouched(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n=50)
        out = model_inputs(ds, standardize_fit(ds))
        assert np.array_equal(out.times, ds.times)
        assert np.array_equal(out.events, ds.events)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(6)
        params = standardize_fit(random_dataset(rng, n=10, d=3))
        with pytest.raises(ValueError, match="features"):
            model_inputs(random_dataset(rng, n=10, d=2), params)

    @pytest.mark.parametrize(
        "means, stddevs",
        [([0.0, np.nan], [1.0, 1.0]), ([0.0, 0.0], [1.0, np.inf]), ([0.0, 0.0], [np.nan, 1.0])],
    )
    def test_non_finite_params_rejected(self, means, stddevs):
        with pytest.raises(ValueError, match="means and stddevs must be finite"):
            data.StandardizationParams(means, stddevs)

    @pytest.mark.parametrize(
        "means, stddevs",
        [([0.0, 0.0], [1.0]), ([[0.0, 0.0]], [[1.0, 1.0]]), (0.0, 1.0)],
        ids=["short-stddevs", "two-d", "scalars"],
    )
    def test_misshapen_params_rejected(self, means, stddevs):
        with pytest.raises(ValueError, match="1-d arrays of equal length"):
            data.StandardizationParams(means, stddevs)

    def test_caller_arrays_are_copied(self):
        means, stddevs = np.zeros(2), np.array([1.0, 2.0])
        params = StandardizationParams(means, stddevs)
        means[0] = np.nan
        stddevs[1] = -3.0  # would flip the feature's sign
        assert params.means.tolist() == [0.0, 0.0]
        assert params.stddevs.tolist() == [1.0, 2.0]
        assert not params.means.flags.writeable and not params.stddevs.flags.writeable


class TestSortView:
    def test_descending_permutation(self):
        ds = SurvivalDataset(
            covariates=[[0.0]] * 3, times=[2.0, 5.0, 3.0], events=[1, 1, 1]
        )
        view = sort_view(ds)
        assert np.array_equal(view.permutation, [1, 2, 0])

    def test_tie_group(self):
        ds = SurvivalDataset(
            covariates=[[0.0]] * 3, times=[4.0, 4.0, 1.0], events=[1, 1, 1]
        )
        view = sort_view(ds)
        assert np.array_equal(view.tie_groups, [[0, 2], [2, 3]])
        assert np.array_equal(view.permutation[:2], [0, 1])  # stable within ties

    def test_single_patient(self):
        ds = SurvivalDataset(covariates=[[0.0]], times=[1.0], events=[1])
        view = sort_view(ds)
        assert np.array_equal(view.permutation, [0])
        assert np.array_equal(view.tie_groups, [[0, 1]])

    def test_view_invariants(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            ds = random_dataset(rng, n=int(rng.integers(1, 60)), tie_times=True)
            view = sort_view(ds)
            sorted_times = ds.times[view.permutation]
            assert np.all(np.diff(sorted_times) <= 0)
            assert view.tie_groups[0, 0] == 0
            assert view.tie_groups[-1, 1] == ds.n
            assert np.array_equal(view.tie_groups[1:, 0], view.tie_groups[:-1, 1])
            for start, stop in view.tie_groups:
                assert np.all(sorted_times[start:stop] == sorted_times[start])

    def test_caller_arrays_stay_writeable_and_unshared(self):
        perm, groups = np.array([1, 0, 2]), np.array([[0, 2], [2, 3]])
        view = SortedSurvivalView(perm, groups)
        perm[0] = 2
        groups[0, 1] = 1
        assert view.permutation.tolist() == [1, 0, 2]
        assert view.tie_groups.tolist() == [[0, 2], [2, 3]]
        assert not view.permutation.flags.writeable and not view.tie_groups.flags.writeable


class TestTreatmentFeature:
    def test_append(self):
        ds = SurvivalDataset(
            covariates=[[0.1], [0.2]],
            times=[1.0, 2.0],
            events=[1, 1],
            treatments=[1, 0],
        )
        out = model_inputs(ds, identity_standardization(1))
        assert out.d == 2
        assert np.array_equal(out.covariates[:, 1], [1.0, 0.0])
        assert out.feature_names[-1] == "treatment"

    def test_without_treatments_appends_nothing(self):
        ds = SurvivalDataset(covariates=[[0.1]], times=[1.0], events=[1])
        out = model_inputs(ds, identity_standardization(1))
        assert out.d == 1
        assert out.feature_names == ds.feature_names
        assert out.treatments is None


class TestModelInputs:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 6),
        d=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        treated=st.booleans(),
        constant=st.booleans(),
        params_kind=st.sampled_from(["fitted", "drawn", "identity"]),
    )
    @example(n=1, d=1, seed=0, treated=True, constant=False, params_kind="fitted")
    @example(n=1, d=1, seed=1, treated=False, constant=True, params_kind="identity")
    def test_equals_reference_bit_for_bit(self, n, d, seed, treated, constant, params_kind):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=d)
        x[rng.random((n, d)) < 0.3] = -0.0
        if constant:  # a zero-variance column
            x[:, 0] = x[0, 0]
        ds = SurvivalDataset(
            covariates=x,
            times=rng.uniform(0.1, 10.0, size=n),
            events=rng.integers(0, 2, size=n),
            treatments=rng.integers(0, 3, size=n) if treated else None,
        )
        params = {
            "fitted": lambda: standardize_fit(ds),
            "drawn": lambda: StandardizationParams(
                rng.normal(size=d), rng.uniform(0.1, 10.0, size=d)
            ),
            "identity": lambda: identity_standardization(d),
        }[params_kind]()

        out = model_inputs(ds, params)
        ref = reference_model_inputs(ds, params)
        assert out.covariates.shape == ref.covariates.shape == (n, d + treated)
        assert out.covariates.tobytes() == ref.covariates.tobytes()
        assert out.feature_names == ref.feature_names
        assert out.times.tobytes() == ref.times.tobytes()
        assert out.events.tobytes() == ref.events.tobytes()
        if treated:
            assert out.treatments.tobytes() == ref.treatments.tobytes()
        else:
            assert out.treatments is ref.treatments is None
        if params_kind == "identity":
            assert out.covariates[:, :d].tobytes() == ds.covariates.tobytes()

        outputs = [out.covariates, out.times, out.events]
        sources = [ds.covariates, ds.times, ds.events, params.means, params.stddevs]
        if treated:
            outputs.append(out.treatments)
            sources.append(ds.treatments)
        assert not any(a.flags.writeable for a in outputs)
        assert not any(np.shares_memory(a, b) for a in outputs for b in sources)

    @pytest.mark.parametrize("treated", [False, True])
    def test_width_mismatch_keeps_message(self, treated):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, n=10, d=2)
        if treated:
            ds = SurvivalDataset(
                covariates=ds.covariates, times=ds.times, events=ds.events,
                treatments=rng.integers(0, 2, size=10),
            )
        # params for the inputs (covariates plus label) do not fit the covariates
        params = standardize_fit(random_dataset(rng, n=10, d=3))
        with pytest.raises(ValueError, match="params fitted for 3 features, dataset has 2"):
            model_inputs(ds, params)
