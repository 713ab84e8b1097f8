"""Command-line driver: simulate, train, search, recommend, km.

Every command writes plain JSON/CSV/SVG artifacts that embed
a provenance block (config hash plus seeds) and contain no timestamps, so
rerunning a command with identical inputs reproduces byte-identical files.

Exit codes: 0 success, 1 runtime failure (e.g. training divergence),
2 usage or config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from coxkit import coxlinear, metrics, optim, recommend, riskmlp
from coxkit.data import (
    StandardizationParams,
    load_csv,
    model_inputs,
    read_columns,
    split_indices,
    standardize_fit,
    write_columns,
    write_csv,
)
from coxkit.plots import render_km_svg
from coxkit.simulate import SimulationSpec, generate

SCHEMA_VERSION = 1
# the module that writes and reads each `model_type` of a model file
MODEL_KINDS = {"linear_cph": coxlinear, "deep_cox": riskmlp}
# the keys `train` writes to every model file, next to the model's own
MODEL_ENVELOPE_KEYS = {
    "model_type", "feature_names", "standardization", "treatment_labels", "provenance"
}


class UsageError(ValueError):
    """Bad flags, config files, or input data; maps to exit code 2."""


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_hash(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()[:16]


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_svg(path, svg: str, provenance: dict) -> None:
    """Write an SVG document under an XML comment holding the provenance JSON.

    A comment may not contain "--", so it is written "-\\u002d", which
    decodes to the same JSON.
    """
    comment = canonical_json(provenance).replace("--", "-\\u002d")
    Path(path).write_text(f"<!-- {comment} -->\n" + svg, encoding="utf-8")


def _provenance(command: str, effective_config: dict, seeds: dict) -> dict:
    return {
        "command": command,
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash(effective_config),
        "seeds": seeds,
    }


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    spec = SimulationSpec(
        n=args.n,
        d=args.d,
        risk_kind=args.risk,
        lambda_max=args.lambda_max,
        r=args.r,
        observed_fraction=args.observed_fraction,
        with_treatment=args.with_treatment,
        seed=0 if args.seed is None else args.seed,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sim = generate(spec)
    spec_dict = asdict(spec)
    prov = _provenance("simulate", spec_dict, {"simulation": spec.seed})

    write_csv(sim.dataset, out_dir / "dataset.csv", comment=canonical_json(prov))
    write_columns(
        out_dir / "true_risks.csv",
        ["true_risk"],
        [sim.true_risks],
        comment=canonical_json(prov),
    )
    write_json(
        out_dir / "provenance.json",
        {
            "provenance": prov,
            "spec": spec_dict,
            "censor_time": sim.censor_time,
            "n_events": sim.dataset.n_events,
            "event_fraction": sim.dataset.n_events / sim.dataset.n,
        },
    )
    print(
        f"simulate: wrote {sim.dataset.n} patients "
        f"({sim.dataset.n_events} events) to {out_dir}"
    )
    return 0


# ------------------------------------------------------------------- train


@dataclass(frozen=True)
class DatasetConfig:
    """Where `train`, `search` and `recommend` get their patients: a CSV file
    and, for `train`, an optional true-risk sidecar."""

    csv: str
    time_col: str = "time"
    event_col: str = "event"
    treatment_col: str | None = "treatment"
    risks_csv: str | None = None


@dataclass(frozen=True)
class SplitConfig:
    """Train/validation/test fractions and the seed of their shuffle."""

    fractions: tuple[float, float, float] = (2 / 3, 1 / 6, 1 / 6)
    seed: int = 0


@dataclass(frozen=True)
class EvaluationConfig:
    """The bootstrap behind the test C-index's confidence interval."""

    bootstrap_replicates: int = 200
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.bootstrap_replicates < 2:
            raise ValueError("bootstrap_replicates must be >= 2")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class TrainConfig:
    """A `train --config` file; every section but `dataset` has defaults."""

    dataset: DatasetConfig
    schema_version: int = SCHEMA_VERSION
    split: SplitConfig = SplitConfig()
    model: str = "deep_cox"
    network: riskmlp.NetworkConfig = riskmlp.NetworkConfig()
    optimizer: optim.OptimizerConfig = optim.OptimizerConfig()
    evaluation: EvaluationConfig = EvaluationConfig()
    out_dir: str = "."

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(f"schema_version must be {SCHEMA_VERSION}")
        if self.model not in MODEL_KINDS:
            raise ValueError(f"model must be deep_cox or linear_cph, got {self.model!r}")


# the config sections whose seed `--seed` overrides and provenance records
SEEDED_SECTIONS = ("split", "optimizer", "evaluation")
_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _from_json(cls, value, path: str):
    """`value`, as parsed from JSON, checked against the type hint `cls`.

    An int passes for a float (unconverted, so a config hashes as written), a
    bool never for a number, null only for `X | None`, an object only for a
    dataclass and an array of its length only for a tuple. Errors start with
    `path`, the dotted key; a `__post_init__` message names its field first.
    """
    optional = get_origin(cls) is UnionType  # `X | None`, the only union used
    if optional and value is None:
        return None
    cls = get_args(cls)[0] if optional else cls
    args = get_args(cls)
    if is_dataclass(cls):
        kind, ok = "a JSON object", isinstance(value, dict)
    elif get_origin(cls) is tuple:  # of one type: `tuple[X, X]` or `tuple[X, ...]`
        size = None if args[-1] is Ellipsis else len(args)
        kind = f"an array of {size} entries" if size else "an array"
        ok = isinstance(value, list) and size in (None, len(value))
    else:
        kind = _KINDS[cls]
        ok = isinstance(value, (int, float) if cls is float else cls)
        ok = ok and (cls is bool or not isinstance(value, bool))
    if not ok:
        where = f"{path} " if path else ""
        raise UsageError(f"{where}must be {kind}{' or null' * optional}, got {value!r}")
    if get_origin(cls) is tuple:
        return tuple(_from_json(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if not is_dataclass(cls):
        return value

    prefix = f"{path}." if path else ""
    hints = get_type_hints(cls)
    for key in value:
        if key not in hints:
            raise UsageError(f"{prefix}{key} is not a known key")
    for f in fields(cls):
        if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
            raise UsageError(f"{prefix}{f.name} is required")
    kwargs = {key: _from_json(hints[key], v, prefix + key) for key, v in value.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise UsageError(prefix + str(exc)) from None


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


def _load_json(path, what: str):
    """The JSON file at `path`; a missing file, bad syntax, NaN or Infinity exit 2."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text, parse_constant=_no_constant)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise UsageError(f"cannot read {what} {path}: {exc}") from None


def _read_json(path, cls, what: str):
    """The `cls` built from the JSON file at `path`; faults exit 2."""
    raw = _load_json(path, what)
    try:
        return _from_json(cls, raw, "")
    except UsageError as exc:
        raise UsageError(f"bad {what}: {exc}") from None


def load_config(path, seed_override=None, out_dir_override=None) -> TrainConfig:
    """The effective train config: what `train` runs and its provenance hashes."""
    config = _read_json(path, TrainConfig, "config")
    if seed_override is not None:
        config = replace(config, **{
            section: replace(getattr(config, section), seed=seed_override)
            for section in SEEDED_SECTIONS
        })
    if out_dir_override is not None:
        config = replace(config, out_dir=out_dir_override)
    return config


def _load_source(dataset: DatasetConfig):
    """Dataset plus optional aligned ground-truth risks."""
    ds = load_csv(dataset.csv, dataset.time_col, dataset.event_col, dataset.treatment_col)
    risks = None
    if dataset.risks_csv is not None:
        table, _ = read_columns(dataset.risks_csv, [("true_risk", "value")])
        risks = table[:, 0]
        if risks.shape[0] != ds.n:
            raise UsageError(
                f"risks sidecar has {risks.shape[0]} rows, dataset has {ds.n}"
            )
    return ds, risks


def _prepare_splits(config: TrainConfig):
    """Load and split, then build each part's model inputs by the training
    part's standardization; the three parts, the test part's true risks (or
    None) and the standardization."""
    ds, true_risks = _load_source(config.dataset)
    idx = split_indices(ds.n, config.split.fractions, config.split.seed)
    parts = [ds.subset(i) for i in idx]
    params = standardize_fit(parts[0])
    parts = [model_inputs(p, params) for p in parts]
    test_risks = None if true_risks is None else true_risks[idx[2]]
    standardization = {"means": params.means.tolist(), "stddevs": params.stddevs.tolist()}
    return parts, test_risks, standardization


def cmd_train(args) -> int:
    config = load_config(args.config, args.seed, args.out_dir)
    seeds = {section: getattr(config, section).seed for section in SEEDED_SECTIONS}
    prov = _provenance("train", asdict(config), seeds)

    (train_ds, val_ds, test_ds), true_risks, standardization = _prepare_splits(config)

    history = None
    if config.model == "linear_cph":
        model = coxlinear.fit_cph(train_ds)
    else:
        model, history = optim.train(train_ds, config.network, config.optimizer, val_ds)
    test_risks = recommend.predict(model, test_ds.covariates)
    c_index = metrics.concordance_index(test_ds.times, test_ds.events, test_risks)
    interval = metrics.bootstrap_ci(
        test_ds.times,
        test_ds.events,
        test_risks,
        n_replicates=config.evaluation.bootstrap_replicates,
        alpha=config.evaluation.alpha,
        seed=config.evaluation.seed,
    )
    report = {
        "model": config.model,
        "n_train": train_ds.n,
        "n_val": val_ds.n,
        "n_test": test_ds.n,
        "c_index": c_index,
        "ci_lower": interval.lower,
        "ci_upper": interval.upper,
        "bootstrap_replicates": config.evaluation.bootstrap_replicates,
        "bootstrap_redraws": interval.redraws,
        "alpha": config.evaluation.alpha,
        "risk_mse": None,
        "provenance": prov,
    }
    if true_risks is not None:
        report["risk_mse"] = metrics.risk_mse(test_risks, true_risks)

    # every metric above may fail, so nothing is written before them
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(
        out_dir / "model.json",
        {
            "model_type": config.model,
            **MODEL_KINDS[config.model].to_dict(model),
            "feature_names": list(test_ds.feature_names),
            "standardization": standardization,
            "treatment_labels": None
            if train_ds.treatments is None
            else np.unique(train_ds.treatments).tolist(),
            "provenance": prov,
        },
    )
    if history is not None:
        write_columns(
            out_dir / "history.csv",
            ["epoch", "learning_rate", "train_loss", "val_cindex"],
            [
                np.arange(len(history.train_loss)),
                history.learning_rates,
                history.train_loss,
                history.val_cindex,
            ],
            comment=canonical_json(prov),
        )
    write_json(out_dir / "metrics.json", report)
    print(
        f"train[{config.model}]: test C-index {c_index:.4f} "
        f"({interval.lower:.4f}, {interval.upper:.4f})"
        + (f", risk MSE {report['risk_mse']:.4f}" if report["risk_mse"] is not None else "")
    )
    return 0


# ------------------------------------------------------------------ search


def _flag_dataset(args) -> DatasetConfig:
    """The dataset named by the `--data` and column flags of `search` and `recommend`."""
    return DatasetConfig(args.data, args.time_col, args.event_col, args.treatment_col)


def cmd_search(args) -> int:
    seed = 0 if args.seed is None else args.seed
    space = optim.SearchSpace()
    if args.space is not None:
        space = _read_json(args.space, optim.SearchSpace, "search space")
    config = TrainConfig(dataset=_flag_dataset(args))

    effective = {
        "dataset": asdict(config.dataset),
        "split": asdict(config.split),
        "space": asdict(space),
        "trials": args.trials,
        "k": args.k,
        "epochs": args.epochs,
        "optimizer": args.optimizer,
        "seed": seed,
    }
    prov = _provenance("search", effective, {"search": seed})
    # the folds are those of `train`'s training part, in its standardization
    best_net, best_opt, trials, best_index = optim.random_search(
        space,
        _prepare_splits(config)[0][0],
        k=args.k,
        n_trials=args.trials,
        seed=seed,
        epochs=args.epochs,
        optimizer_kind=args.optimizer,
    )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log = [
        {**t, "network": asdict(t["network"]), "optimizer": asdict(t["optimizer"])}
        for t in trials
    ]
    write_json(
        out_dir / "search_trials.json",
        {"trials": log, "best_trial": best_index, "provenance": prov},
    )
    best = replace(config, network=best_net, optimizer=best_opt)
    write_json(out_dir / "best_config.json", asdict(best))
    print(
        f"search: best trial {best_index} "
        f"mean C-index {trials[best_index]['mean_cindex']:.4f}"
    )
    return 0


# --------------------------------------------------------------- recommend


def _read_model(path):
    """The model of a `train` model file, its input names, standardization,
    treatment labels and config hash; a missing or malformed file, or one with
    a key `train` does not write, exits 2."""
    payload = _load_json(path, "model")
    try:
        kind = MODEL_KINDS[payload["model_type"]]
        model = kind.from_dict(payload)
        unknown = sorted(payload.keys() - MODEL_ENVELOPE_KEYS - kind.to_dict(model).keys())
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        std = payload["standardization"]
        params = StandardizationParams(std["means"], std["stddevs"])
        names = tuple(payload["feature_names"])
        labels = payload["treatment_labels"]
        if labels is not None and not all(type(label) is int for label in labels):
            raise ValueError("treatment_labels must be null or a list of integers")
        return model, names, params, labels, payload["provenance"]["config_hash"]
    except (LookupError, TypeError, ValueError) as exc:
        raise UsageError(f"bad model file {path}: {type(exc).__name__}: {exc}") from None


def cmd_recommend(args) -> int:
    model, feature_names, params, labels, model_hash = _read_model(args.model)
    # no name holds the loaded data, so it is freed once its inputs are built
    ds = model_inputs(_load_source(_flag_dataset(args))[0], params)
    if ds.treatments is None:
        raise UsageError(f"{args.data}: no treatment column {args.treatment_col!r}")
    if ds.feature_names != feature_names:
        raise UsageError(
            f"{args.data}: model {args.model} takes inputs {list(feature_names)}, "
            f"data gives {list(ds.feature_names)}"
        )
    unseen = np.setdiff1d(ds.treatments, labels or [])
    if unseen.size:
        raise UsageError(
            f"{args.data}: treatment label {unseen[0]} is not one model "
            f"{args.model} was trained on ({labels})"
        )

    report = recommend.evaluate_recommendations(ds, model)
    effective = {
        "model": str(args.model),
        "data": str(args.data),
        "model_config_hash": model_hash,
    }
    prov = _provenance("recommend", effective, {})

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    body = recommend.report_to_dict(report)
    body["provenance"] = prov
    write_json(out_dir / "recommendation.json", body)
    files = {
        "km_recommendation.csv": ("Recommendation", report.km_recommendation),
        "km_anti_recommendation.csv": ("Anti-Recommendation", report.km_anti_recommendation),
    }
    _write_curves(out_dir, prov, files, "recommendation.svg",
                  title="Survival by recommendation concordance",
                  p_value=report.log_rank_result.p_value)
    medians = body["median_survival"]
    print(
        f"recommend: median survival {medians['recommendation']} (Rec) vs "
        f"{medians['anti_recommendation']} (Anti-Rec), "
        f"log-rank p = {report.log_rank_result.p_value:.3g}"
    )
    return 0


# ---------------------------------------------------------------------- km


def _safe_label(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in label)


def _write_curves(out_dir, prov, files, svg_name, *, title, p_value) -> None:
    """Write each Kaplan-Meier curve of `files` (CSV name -> (label, curve)) to
    its CSV, then all of them, in that order, to the SVG plot `svg_name`."""
    for name, (_, curve) in files.items():
        metrics.write_km_csv(curve, out_dir / name, comment=canonical_json(prov))
    svg = render_km_svg(list(files.values()), title=title, p_value=p_value)
    write_svg(out_dir / svg_name, svg, prov)


def cmd_km(args) -> int:
    table, groups = read_columns(
        args.data, [(args.time_col, "time"), (args.event_col, "event")], args.group_by
    )
    times, events = table[:, 0], table[:, 1].astype(np.int64)
    effective = {
        "data": str(args.data),
        "time_col": args.time_col,
        "event_col": args.event_col,
        "group_by": args.group_by,
        "alpha": args.alpha,
    }
    prov = _provenance("km", effective, {})

    if args.group_by is None:
        labels, codes = ["all"], np.zeros(times.shape[0], dtype=np.int64)
    else:
        # each row's group as a code of its exact label: a numpy string array
        # would drop a trailing NUL and merge `a\x00` into `a`
        labels = sorted(set(groups))
        code_of = {label: code for code, label in enumerate(labels)}
        codes = np.fromiter(map(code_of.__getitem__, groups), np.int64, len(groups))
    names = {}
    for label in labels:
        name = "km.csv" if args.group_by is None else f"km_{_safe_label(label)}.csv"
        if names.setdefault(name, label) != label:
            raise UsageError(
                f"groups {names[name]!r} and {label!r} would both be written to {name}"
            )

    masks = [codes == code for code in range(len(labels))]
    curves, test = recommend.compare_groups(times, events, masks, alpha=args.alpha)
    files = {name: (label, curve) for (name, label), curve in zip(names.items(), curves)}
    summary = {label: {"n": int(mask.sum()), "events": int(events[mask].sum()),
                       "median_survival": metrics.median_survival(curve)}
               for label, mask, curve in zip(labels, masks, curves)}

    # every curve and test above may fail, so nothing is written before them
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(
        out_dir / "km.json",
        {"groups": summary, "log_rank": None if test is None else asdict(test),
         "provenance": prov},
    )
    _write_curves(out_dir, prov, files, "km.svg", title="Kaplan-Meier survival",
                  p_value=None if test is None else test.p_value)
    print(f"km: wrote {len(files)} curve(s) to {out_dir}")
    return 0


# -------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxkit",
        description="Survival analysis experiments: Cox regression, deep Cox "
        "risk networks, and treatment recommendations.",
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out-dir", default=".", help="output directory")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="master seed")
    columns = argparse.ArgumentParser(add_help=False)
    columns.add_argument("--data", required=True, help="dataset CSV")
    columns.add_argument("--time-col", default="time")
    columns.add_argument("--event-col", default="event")
    treated = argparse.ArgumentParser(add_help=False, parents=[columns])
    treated.add_argument("--treatment-col", default="treatment")

    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate", parents=[out, seeded], help="generate synthetic survival data"
    )
    p_sim.add_argument("--risk", choices=["linear", "gaussian"], required=True)
    p_sim.add_argument("--n", type=int, required=True, help="number of patients")
    p_sim.add_argument("--d", type=int, default=10, help="number of covariates")
    p_sim.add_argument("--lambda-max", type=float, default=5.0)
    p_sim.add_argument("--r", type=float, default=0.5)
    p_sim.add_argument("--observed-fraction", type=float, default=0.9)
    p_sim.add_argument("--with-treatment", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    p_train = sub.add_parser("train", parents=[seeded], help="train and evaluate a model")
    p_train.add_argument("--out-dir", default=None, help="overrides the config's out_dir")
    p_train.add_argument("--config", required=True, help="experiment config JSON")
    p_train.set_defaults(func=cmd_train)

    p_search = sub.add_parser(
        "search", parents=[out, seeded, treated], help="random hyperparameter search"
    )
    p_search.add_argument("--trials", type=int, default=10)
    p_search.add_argument("--k", type=int, default=3)
    p_search.add_argument("--epochs", type=int, default=200)
    p_search.add_argument("--optimizer", choices=["adam", "sgd"], default="adam")
    p_search.add_argument("--space", default=None, help="search-space JSON file")
    p_search.set_defaults(func=cmd_search)

    p_rec = sub.add_parser(
        "recommend", parents=[out, treated], help="evaluate treatment recommendations"
    )
    p_rec.add_argument("--model", required=True, help="model JSON from train")
    p_rec.set_defaults(func=cmd_recommend)

    p_km = sub.add_parser("km", parents=[out, columns], help="Kaplan-Meier curves")
    p_km.add_argument("--group-by", default=None, help="column defining curve groups")
    p_km.add_argument("--alpha", type=float, default=0.05)
    p_km.set_defaults(func=cmd_km)
    return parser


def main(argv=None) -> int:
    # the bytes a command writes must not depend on the host's CPU count
    optim._cap_blas_threads(1)
    parser = build_parser()
    args = parser.parse_args(argv)
    # UsageError, SchemaError and CsvParseError are ValueErrors;
    # TrainingDiverged and FitError are RuntimeErrors
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
