import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit import data
from coxkit.data import (
    CsvParseError,
    SchemaError,
    SurvivalDataset,
    append_treatment_feature,
    load_csv,
    read_columns,
    sort_view,
    split,
    split_indices,
    standardize_apply,
    standardize_fit,
    write_columns,
    write_csv,
)
from helpers import random_dataset, reference_write_csv


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


_finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
# per column, cells that pass its checks
_valid = {
    "time": st.floats(min_value=1e-300, max_value=1e300).map(repr),
    "event": st.sampled_from(["0", "1", " 1", "0.0", "1e0"]),
    "treatment": st.sampled_from(["0", "1", "2", "1.0"]),
    "group": st.sampled_from(
        ["a", " a ", '"a"', ' "b" ', '"c,d"', '"e""f"', "", "b", "a\x00"]
    ),
    "note": st.sampled_from(["x", '"y,1.5"', '"z"']),
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
        out = standardize_apply(ds, params)
        assert np.array_equal(out.covariates[:, 0], [-1.0, 1.0])

    def test_constant_column_flagged(self):
        ds = SurvivalDataset(covariates=[[5.0], [5.0]], times=[1, 2], events=[1, 1])
        params = standardize_fit(ds)
        assert params.stddevs[0] == 1.0
        out = standardize_apply(ds, params)
        assert np.array_equal(out.covariates[:, 0], [0.0, 0.0])

    def test_fit_apply_normalizes(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, n=200, d=4)
        out = standardize_apply(ds, standardize_fit(ds))
        assert np.all(np.abs(out.covariates.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(out.covariates.std(axis=0) - 1.0) < 1e-9)

    def test_test_set_means_not_zero(self):
        rng = np.random.default_rng(4)
        train = random_dataset(rng, n=100, d=2)
        test = random_dataset(rng, n=100, d=2)
        out = standardize_apply(test, standardize_fit(train))
        assert np.any(np.abs(out.covariates.mean(axis=0)) > 1e-6)

    def test_times_events_untouched(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n=50)
        out = standardize_apply(ds, standardize_fit(ds))
        assert np.array_equal(out.times, ds.times)
        assert np.array_equal(out.events, ds.events)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(6)
        params = standardize_fit(random_dataset(rng, n=10, d=3))
        with pytest.raises(ValueError, match="features"):
            standardize_apply(random_dataset(rng, n=10, d=2), params)

    @pytest.mark.parametrize(
        "means, stddevs",
        [([0.0, np.nan], [1.0, 1.0]), ([0.0, 0.0], [1.0, np.inf]), ([0.0, 0.0], [np.nan, 1.0])],
    )
    def test_non_finite_params_rejected(self, means, stddevs):
        with pytest.raises(ValueError, match="means and stddevs must be finite"):
            data.StandardizationParams(means, stddevs)


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


class TestTreatmentFeature:
    def test_append(self):
        ds = SurvivalDataset(
            covariates=[[0.1], [0.2]],
            times=[1.0, 2.0],
            events=[1, 1],
            treatments=[1, 0],
        )
        out, index = append_treatment_feature(ds)
        assert index == 1
        assert np.array_equal(out.covariates[:, 1], [1.0, 0.0])
        assert out.feature_names[-1] == "treatment"

    def test_requires_treatments(self):
        ds = SurvivalDataset(covariates=[[0.1]], times=[1.0], events=[1])
        with pytest.raises(ValueError, match="no treatments"):
            append_treatment_feature(ds)
