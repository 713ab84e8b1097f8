"""Command-line driver: simulate, train, search, recommend, km.

Every command writes plain JSON/CSV (and optionally SVG) artifacts that embed
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
    CsvParseError,
    SchemaError,
    StandardizationParams,
    append_treatment_feature,
    load_csv,
    read_columns,
    split_indices,
    standardize_apply,
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
MODEL_ENVELOPE_KEYS = {"model_type", "feature_names", "standardization", "provenance"}


class UsageError(ValueError):
    """Bad flags, config files, or input data; maps to exit code 2."""


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_hash(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()[:16]


def write_json(path, payload) -> None:
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


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
        mean_u=args.mean_u,
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
    """Where `train` gets its patients: a CSV file or a simulation."""

    csv: str | None = None
    time_col: str = "time"
    event_col: str = "event"
    treatment_col: str | None = "treatment"
    risks_csv: str | None = None
    simulate: SimulationSpec | None = None

    def __post_init__(self):
        if (self.csv is None) == (self.simulate is None):
            raise ValueError("csv or simulate must be set, and not both")
        if self.risks_csv is not None and self.simulate is not None:
            raise ValueError("risks_csv must be null when simulate is set")


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
    standardize: bool = True
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
        # a tuple too: `train` checks the effective config, which `asdict` made
        ok = isinstance(value, (list, tuple)) and size in (None, len(value))
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
    """The JSON file at `path` and the `cls` built from it; faults exit 2."""
    raw = _load_json(path, what)
    try:
        return raw, _from_json(cls, raw, "")
    except UsageError as exc:
        raise UsageError(f"bad {what}: {exc}") from None


def load_config(path, seed_override=None, out_dir_override=None) -> dict:
    """The effective train config: what `train` runs and its provenance hashes."""
    user, config = _read_json(path, TrainConfig, "config")
    cfg = asdict(config)
    # as written, so that a default SimulationSpec gains does not change the hash
    cfg["dataset"]["simulate"] = user["dataset"].get("simulate")
    if seed_override is not None:
        for section in SEEDED_SECTIONS:
            cfg[section]["seed"] = seed_override
        if cfg["dataset"]["simulate"] is not None:
            cfg["dataset"]["simulate"]["seed"] = seed_override
    if out_dir_override is not None:
        cfg["out_dir"] = out_dir_override
    return cfg


def _load_source(dataset: DatasetConfig):
    """Dataset plus optional aligned ground-truth risks."""
    if dataset.simulate is not None:
        sim = generate(dataset.simulate)
        return sim.dataset, sim.true_risks
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


def _load_data(args):
    return load_csv(args.data, args.time_col, args.event_col, args.treatment_col)


def _model_inputs(ds, params: StandardizationParams | None):
    """The model's inputs from `ds`, and the treatment feature's column or None.

    Covariates are standardized by `params` (unless None) before the treatment
    label is appended as the last feature, so labels are never rescaled; train,
    search and recommend all build their inputs here.
    """
    if params is not None:
        ds = standardize_apply(ds, params)
    if ds.treatments is None:
        return ds, None
    return append_treatment_feature(ds)


def _prepare_splits(config: TrainConfig):
    """Load, split, standardize, and append the treatment feature."""
    ds, true_risks = _load_source(config.dataset)
    idx = split_indices(ds.n, config.split.fractions, config.split.seed)
    parts = [ds.subset(i) for i in idx]
    risk_parts = [None, None, None]
    if true_risks is not None:
        risk_parts = [true_risks[i] for i in idx]

    params = standardize_fit(parts[0]) if config.standardize else None
    parts = [_model_inputs(p, params)[0] for p in parts]
    standardization = None
    if params is not None:
        standardization = {
            "means": params.means.tolist(),
            "stddevs": params.stddevs.tolist(),
        }
    return parts, risk_parts, standardization


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed, args.out_dir)
    config = _from_json(TrainConfig, cfg, "")
    seeds = {section: cfg[section]["seed"] for section in SEEDED_SECTIONS}
    prov = _provenance("train", cfg, seeds)

    (train_ds, val_ds, test_ds), risk_parts, standardization = _prepare_splits(config)

    history = None
    if config.model == "linear_cph":
        model = coxlinear.fit_cph(train_ds)
    else:
        model, history = optim.train(train_ds, config.network, config.optimizer, val_ds)
    test_risks = recommend.predict(model, test_ds.covariates)

    model_payload = {
        "model_type": config.model,
        **MODEL_KINDS[config.model].to_dict(model),
        "feature_names": list(test_ds.feature_names),
        "standardization": standardization,
        "provenance": prov,
    }
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "model.json", model_payload)

    if history is not None:
        header = ["epoch", "learning_rate", "train_loss"]
        columns = [
            np.arange(len(history.train_loss)),
            history.learning_rates,
            history.train_loss,
        ]
        if history.val_cindex is not None:
            header.append("val_cindex")
            columns.append(history.val_cindex)
        write_columns(
            out_dir / "history.csv", header, columns, comment=canonical_json(prov)
        )

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
    if risk_parts[2] is not None:
        report["risk_mse"] = metrics.risk_mse(test_risks, risk_parts[2])
    write_json(out_dir / "metrics.json", report)
    print(
        f"train[{config.model}]: test C-index {c_index:.4f} "
        f"({interval.lower:.4f}, {interval.upper:.4f})"
        + (f", risk MSE {report['risk_mse']:.4f}" if report["risk_mse"] is not None else "")
    )
    return 0


# ------------------------------------------------------------------ search


def cmd_search(args) -> int:
    seed = 0 if args.seed is None else args.seed
    ds = _load_data(args)
    ds, _ = _model_inputs(ds, standardize_fit(ds) if args.standardize else None)
    space = optim.SearchSpace()
    if args.space is not None:
        _, space = _read_json(args.space, optim.SearchSpace, "search space")

    effective = {
        "data": str(args.data),
        "space": asdict(space),
        "trials": args.trials,
        "k": args.k,
        "epochs": args.epochs,
        "optimizer": args.optimizer,
        "seed": seed,
        "standardize": args.standardize,
    }
    prov = _provenance("search", effective, {"search": seed})
    try:
        best_net, best_opt, trials, best_index = optim.random_search(
            space,
            ds,
            k=args.k,
            n_trials=args.trials,
            seed=seed,
            epochs=args.epochs,
            optimizer_kind=args.optimizer,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log = [
        {
            "trial": t["trial"],
            "network": asdict(t["network"]),
            "optimizer": asdict(t["optimizer"]),
            "fold_cindex": t["fold_cindex"],
            "mean_cindex": t["mean_cindex"],
        }
        for t in trials
    ]
    write_json(
        out_dir / "search_trials.json",
        {"trials": log, "best_trial": best_index, "provenance": prov},
    )
    write_json(
        out_dir / "best_config.json",
        {
            "schema_version": SCHEMA_VERSION,
            "model": "deep_cox",
            "network": asdict(best_net),
            "optimizer": asdict(best_opt),
            "provenance": prov,
        },
    )
    print(
        f"search: best trial {best_index} "
        f"mean C-index {trials[best_index]['mean_cindex']:.4f}"
    )
    return 0


# --------------------------------------------------------------- recommend


def _read_model(path):
    """The model of a `train` model file, its input names, standardization and
    config hash; a missing or malformed file, or one with a key `train` does
    not write, exits 2."""
    payload = _load_json(path, "model")
    try:
        kind = MODEL_KINDS[payload["model_type"]]
        model = kind.from_dict(payload)
        unknown = sorted(payload.keys() - MODEL_ENVELOPE_KEYS - kind.to_dict(model).keys())
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        std = payload["standardization"]
        params = None if std is None else StandardizationParams(std["means"], std["stddevs"])
        names = tuple(payload["feature_names"])
        return model, names, params, payload["provenance"]["config_hash"]
    except (LookupError, TypeError, ValueError) as exc:
        raise UsageError(f"bad model file {path}: {type(exc).__name__}: {exc}") from None


def cmd_recommend(args) -> int:
    model, feature_names, params, model_hash = _read_model(args.model)
    # no name holds the loaded data, so it is freed once standardized
    ds, treatment_index = _model_inputs(_load_data(args), params)
    if treatment_index is None:
        raise UsageError(f"{args.data}: no treatment column {args.treatment_col!r}")
    if ds.feature_names != feature_names:
        raise UsageError(
            f"{args.data}: model {args.model} takes inputs {list(feature_names)}, "
            f"data gives {list(ds.feature_names)}"
        )

    report = recommend.evaluate_recommendations(ds, model, treatment_index)
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
    curves = [
        ("Recommendation", report.km_recommendation),
        ("Anti-Recommendation", report.km_anti_recommendation),
    ]
    for label, curve in curves:  # km_recommendation.csv, km_anti_recommendation.csv
        name = "km_" + label.lower().replace("-", "_") + ".csv"
        metrics.write_km_csv(curve, out_dir / name, comment=canonical_json(prov))
    if not args.no_svg:
        svg = render_km_svg(
            curves,
            title="Survival by recommendation concordance",
            p_value=report.log_rank_result.p_value,
        )
        write_svg(out_dir / "recommendation.svg", svg, prov)
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


def cmd_km(args) -> int:
    table, groups = read_columns(
        args.data, [(args.time_col, "time"), (args.event_col, "event")], args.group_by
    )
    times, events = table[:, 0], table[:, 1].astype(np.int64)
    effective = {
        "data": str(args.data),
        "group_by": args.group_by,
        "alpha": args.alpha,
    }
    prov = _provenance("km", effective, {})

    if args.group_by is None:
        labelled = [("all", np.ones(times.shape[0], dtype=bool))]
    else:
        labels = sorted(set(groups))
        group_arr = np.asarray(groups)
        labelled = [(label, group_arr == label) for label in labels]
    files = {}
    for label, _ in labelled:
        name = "km.csv" if label == "all" else f"km_{_safe_label(label)}.csv"
        if files.setdefault(name, label) != label:
            raise UsageError(
                f"groups {files[name]!r} and {label!r} would both be written to {name}"
            )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    curves = []
    summary = {}
    for (label, mask), name in zip(labelled, files):
        curve = metrics.kaplan_meier(times[mask], events[mask], alpha=args.alpha)
        curves.append((label, curve))
        summary[label] = {
            "n": int(mask.sum()),
            "events": int(events[mask].sum()),
            "median_survival": metrics.median_survival(curve),
        }
        metrics.write_km_csv(curve, out_dir / name, comment=canonical_json(prov))

    log_rank_payload = None
    p_value = None
    if len(curves) == 2:
        (_, mask_a), (_, mask_b) = labelled
        result = metrics.log_rank(
            times[mask_a], events[mask_a], times[mask_b], events[mask_b]
        )
        log_rank_payload = {"statistic": result.statistic, "p_value": result.p_value}
        p_value = result.p_value
    write_json(
        out_dir / "km.json",
        {"groups": summary, "log_rank": log_rank_payload, "provenance": prov},
    )
    if not args.no_svg:
        svg = render_km_svg(curves, title="Kaplan-Meier survival", p_value=p_value)
        write_svg(out_dir / "km.svg", svg, prov)
    print(f"km: wrote {len(curves)} curve(s) to {out_dir}")
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
    p_sim.add_argument("--mean-u", type=float, default=5.0)
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
    p_search.add_argument(
        "--no-standardize", dest="standardize", action="store_false",
        help="skip standardization (fit on the full dataset before folding)",
    )
    p_search.set_defaults(func=cmd_search)

    p_rec = sub.add_parser(
        "recommend", parents=[out, treated], help="evaluate treatment recommendations"
    )
    p_rec.add_argument("--model", required=True, help="model JSON from train")
    p_rec.add_argument("--no-svg", action="store_true")
    p_rec.set_defaults(func=cmd_recommend)

    p_km = sub.add_parser("km", parents=[out, columns], help="Kaplan-Meier curves")
    p_km.add_argument("--group-by", default=None, help="column defining curve groups")
    p_km.add_argument("--alpha", type=float, default=0.05)
    p_km.add_argument("--no-svg", action="store_true")
    p_km.set_defaults(func=cmd_km)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, SchemaError, CsvParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (optim.TrainingDiverged, coxlinear.FitError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
