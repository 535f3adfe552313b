"""Command-line pipeline: prepare, hpo, train, evaluate, compare, report.

    grnn prepare  --config cfg.ini [--out DIR]
    grnn hpo      --config cfg.ini --arch lstm1 [--seed S] [--out DIR]
    grnn train    --config cfg.ini --arch lstm1 [--hyperparams F] [--repeats N]
                  [--seed S] [--out DIR]
    grnn evaluate --config cfg.ini --checkpoint F [--out DIR]
    grnn compare  --config cfg.ini [--arch L ...] [--out DIR]
    grnn report   --config cfg.ini --arch lstm1 [--out DIR]

Any config key can be overridden with repeated `--set section.key=value`.
Commands are deterministic: identical inputs and seeds write byte-identical
artifacts.  `train` runs one repeat in-process and more in a pool of forked
one-BLAS-thread workers, at most `GRNN_THREADS` of them (see grnn.train).
Results and tables go to stdout; diagnostics go to stderr, and so do the
progress lines that benchmarks time `train` and `hpo` by: `train` prints
`  seed <n>: ...` once per run, in archive order, and `hpo` prints
`trial <k>: ...` once per logged trial, in log order.  No other line starts
so, and none carries wall-clock text, so a rerun prints them byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .config import ARCH_PATTERN, ArchDef, ConfigError, PipelineConfig, load_config
from .data import (
    DataError,
    NormalizationParams,
    WindowedDataset,
    add_indicators,
    check_type,
    ingest,
    normalize,
    read_frame_csv,
    read_json,
    window,
    write_atomic,
    write_frame_csv,
)
from .hpo import (IntUniform, LogUniform, SearchSpace, load_history, optimize, save_history,
                  trial_line)
from .metrics import EvalReport, evaluate
from .network import (LayerSpec, ModelFormatError, NetworkSpec, load_model, predict_batch,
                      save_model)
from .stats import compare_architectures, render_normality_table, render_pairwise_table
from .train import load_archive, run_experiment, save_archive, train

PREPARED_CSV = "prepared.csv"
NORM_SIDECAR = "norm_params.json"


def info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _outdir(cfg: PipelineConfig, override: str | None, *parts) -> str:
    base = override or cfg.output_dir
    path = os.path.join(base, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def _model_row_labels(label: str) -> tuple[str, int]:
    m = ARCH_PATTERN.match(label)
    if not m:
        return label.upper(), 0
    return m.group(1).upper(), int(m.group(2))


def _network_spec(cfg: PipelineConfig, arch: ArchDef, units) -> NetworkSpec:
    if len(units) != len(arch.cell_kinds):
        raise ConfigError(f"{arch.label}: {len(units)} unit values for "
                          f"{len(arch.cell_kinds)} layers")
    layers = tuple(LayerSpec(kind, int(u), cfg.train.activation)
                   for kind, u in zip(arch.cell_kinds, units))
    n_features = len(cfg.sources) + len(cfg.indicators)
    return NetworkSpec(layers=layers, input_dim=n_features)


def _prepare_frame(cfg: PipelineConfig):
    """ingest -> indicators -> trim; returns the raw post-trim frame."""
    frame = ingest(cfg.sources, cfg.date_column)
    return add_indicators(frame, cfg.target, cfg.indicators)


def _write_json(path, record: dict) -> None:
    """One indented, key-sorted JSON object, written atomically."""
    write_atomic(path, lambda fh: fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n"))


def _summary_table(frame) -> str:
    names = frame.feature_order
    width = max(len(n) for n in names) + 2
    lines = [f"{'':10s}" + "".join(f"{n:>{width}}" for n in names)]
    for stat, fn in (("Mean", np.mean), ("Std.", lambda c: np.std(c, ddof=1)),
                     ("min", np.min), ("max", np.max)):
        cells = "".join(f"{fn(frame.columns[n]):>{width}.2f}" for n in names)
        lines.append(f"{stat:10s}" + cells)
    return "\n".join(lines)


def cmd_prepare(cfg: PipelineConfig, out: str | None) -> int:
    outdir = _outdir(cfg, out)
    frame = _prepare_frame(cfg)
    norm_frame, norm = normalize(frame, fit_on=cfg.fit_on, split=cfg.split)
    write_frame_csv(os.path.join(outdir, PREPARED_CSV), norm_frame, cfg.date_column)
    sidecar = {
        "columns": {name: {"min": lo, "max": hi} for name, (lo, hi) in norm.bounds.items()},
        "fit_on": cfg.fit_on,
        "split": cfg.split,
        "target": cfg.target,
        "feature_order": frame.feature_order,
    }
    _write_json(os.path.join(outdir, NORM_SIDECAR), sidecar)
    n = frame.n_rows
    n_train = int(np.floor(cfg.split * n))
    print(f"prepared {n} rows ({n_train} train / {n - n_train} test) "
          f"from {len(cfg.sources)} sources + {len(cfg.indicators)} indicators")
    print(_summary_table(frame))
    info(f"wrote {outdir}/{PREPARED_CSV} and {NORM_SIDECAR}")
    return 0


def load_prepared(cfg: PipelineConfig, out: str | None) -> WindowedDataset:
    outdir = os.path.join(out or cfg.output_dir)
    csv_path = os.path.join(outdir, PREPARED_CSV)
    sidecar_path = os.path.join(outdir, NORM_SIDECAR)
    if not (os.path.exists(csv_path) and os.path.exists(sidecar_path)):
        raise DataError(f"prepared dataset missing under {outdir}; run `grnn prepare` first")
    frame = read_frame_csv(csv_path, cfg.date_column)
    norm = read_json(sidecar_path, lambda sidecar: NormalizationParams(
        {name: tuple(check_type(v[k], float, f"{name} {k}") for k in ("min", "max"))
         for name, v in check_type(sidecar["columns"], dict, "'columns'").items()}))
    return window(frame, cfg.lookback, norm, split=cfg.split, target=cfg.target)


def _search_space(cfg: PipelineConfig, arch: ArchDef) -> SearchSpace:
    dims = [IntUniform(f"units_{i}", cfg.hpo.units_low, cfg.hpo.units_high)
            for i in range(len(arch.cell_kinds))]
    dims.append(LogUniform("learning_rate", cfg.hpo.lr_low, cfg.hpo.lr_high))
    dims.append(IntUniform("batch_size", cfg.hpo.batch_low, cfg.hpo.batch_high))
    return SearchSpace(tuple(dims))


def cmd_hpo(cfg: PipelineConfig, label: str, out: str | None) -> int:
    arch = cfg.arch(label)
    space = _search_space(cfg, arch)
    dataset = load_prepared(cfg, out)
    outdir = _outdir(cfg, out, "hpo", label)
    log_path = os.path.join(outdir, "trials.jsonl")

    history = []
    if os.path.exists(log_path):
        history = load_history(log_path, space)
        save_history(log_path, history)     # without a torn last line, before appending
        info(f"resuming from {len(history)} recorded trials")

    def objective(values: dict) -> float:
        units = [values[f"units_{i}"] for i in range(len(arch.cell_kinds))]
        spec = _network_spec(cfg, arch, units)
        tc = replace(cfg.train, batch_size=int(values["batch_size"]),
                     learning_rate=float(values["learning_rate"]),
                     max_epochs=cfg.hpo.max_epochs, seed=cfg.hpo.train_seed)
        result = train(spec, dataset, tc)
        report = evaluate(spec, result.best_params, dataset, split="test")
        return report.rmse_nd

    with open(log_path, "a", encoding="utf-8") as log:
        def on_trial(trial):
            log.write(trial_line(trial))
            log.flush()
            info(f"trial {trial.trial_id}: {trial.status} objective={trial.objective}")

        best, history = optimize(objective, space, cfg.hpo, history=history,
                                 on_trial=on_trial)
    if best is None:
        info("no complete trial")
        return 1
    best_units = [best.values[f"units_{i}"] for i in range(len(arch.cell_kinds))]
    best_payload = {
        "architecture": label,
        "units": best_units,
        "learning_rate": best.values["learning_rate"],
        "batch_size": best.values["batch_size"],
        "objective_rmse_nd": best.objective,
        "trial_id": best.trial_id,
    }
    _write_json(os.path.join(outdir, "best.json"), best_payload)
    print(json.dumps(best_payload, sort_keys=True))
    return 0


def _resolve_hyperparams(cfg: PipelineConfig, arch: ArchDef,
                         hyperparams_path: str | None):
    if hyperparams_path:
        return read_json(hyperparams_path, lambda best: (
            [check_type(u, int, "units") for u in best["units"]],
            float(check_type(best.get("learning_rate", cfg.train.learning_rate), float, "learning_rate")),
            check_type(best.get("batch_size", cfg.train.batch_size), int, "batch_size")))
    if arch.units is None:
        raise ConfigError(
            f"{arch.label}: no units configured; add [arch.{arch.label}] or pass --hyperparams")
    lr = arch.learning_rate if arch.learning_rate is not None else cfg.train.learning_rate
    batch = arch.batch_size if arch.batch_size is not None else cfg.train.batch_size
    return list(arch.units), float(lr), int(batch)


def _report_row_header() -> str:
    return (f"{'Model':<10} {'Layers':>6} {'R2':>9} {'MAPE(%)':>11} "
            f"{'RMSE':>12} {'RMSE(ND)':>9} {'MAPE(frac)':>12}")


def _report_row(model: str, n_layers: int, rep: EvalReport) -> str:
    return (f"{model:<10} {n_layers:>6d} {rep.r2:>9.4f} {rep.mape_pct:>11.4g} "
            f"{rep.rmse:>12.4f} {rep.rmse_nd:>9.4f} {rep.mape:>12.6g}")


def cmd_train(cfg: PipelineConfig, label: str, hyperparams_path: str | None,
              repeats: int | None, out: str | None) -> int:
    arch = cfg.arch(label)
    units, lr, batch = _resolve_hyperparams(cfg, arch, hyperparams_path)
    spec = _network_spec(cfg, arch, units)
    n_runs = repeats if repeats is not None else cfg.train.repeats
    tc = replace(cfg.train, batch_size=batch, learning_rate=lr)
    dataset = load_prepared(cfg, out)
    info(f"{label}: units={units} lr={lr} batch={batch} repeats={n_runs} "
         f"seed={tc.seed} activation={cfg.train.activation}")

    def on_run(record):
        r2_txt = f"R2={record.report.r2:.4f}" if record.report else f"failed: {record.error}"
        info(f"  seed {record.seed}: {record.status} epochs={record.stopped_epoch} {r2_txt}")

    archive = run_experiment(spec, dataset, tc, repeats=n_runs, architecture=label,
                             r2_bar=cfg.train.r2_bar, on_run=on_run)
    outdir = _outdir(cfg, out, "train", label)
    save_archive(os.path.join(outdir, "archive.jsonl"), archive)

    best = archive.best()
    if best is None:
        complete = [r.report.r2 for r in archive.runs if r.report is not None]
        best_r2 = max(complete) if complete else float("nan")
        info(f"no qualifying run: best achieved R2 = {best_r2:.4f} "
             f"(bar {cfg.train.r2_bar})")
        return 1
    extra = {
        "architecture": label,
        "lookback": cfg.lookback,
        "feature_order": dataset.feature_order,
        "target": cfg.target,
        "split": cfg.split,
        "fit_on": cfg.fit_on,
        "activation": cfg.train.activation,
        "seed": best.seed,
        "units": [int(u) for u in units],
        "learning_rate": lr,
        "batch_size": batch,
    }
    save_model(os.path.join(outdir, "best.grnn"), spec, archive.best_params, extra)
    model, n_layers = _model_row_labels(label)
    rep = best.report
    print(_report_row_header())
    print(_report_row(model, n_layers, rep))
    info(f"retained {len(archive.retained)}/{len(archive.runs)} runs; "
         f"best seed {best.seed}; wrote {outdir}/archive.jsonl and best.grnn")
    return 0


def _load_checkpoint(cfg: PipelineConfig, path: str, out: str | None):
    """(spec, params, extra, dataset): the model at `path` and the prepared
    dataset windowed at the model's lookback.

    The header fields the commands read are checked here: `lookback` is an
    integer >= 1, `architecture` a plain file name (evaluate writes
    eval/<architecture>.json) and `feature_order` a list of names that must
    match the dataset's.  A malformed one raises ModelFormatError naming
    `path`.
    """
    spec, params, extra = load_model(path)
    lookback = extra.get("lookback", cfg.lookback)
    if isinstance(lookback, bool) or not isinstance(lookback, int) or lookback < 1:
        raise ModelFormatError(f"{path}: lookback {lookback!r} is not an integer >= 1")
    label = extra.get("architecture", "model")
    if (not isinstance(label, str) or label in ("", ".", "..")
            or any(sep in label for sep in ("/", os.sep))):
        raise ModelFormatError(f"{path}: architecture {label!r} is not a plain file name")
    features = extra.get("feature_order")
    if features is not None and not (isinstance(features, list)
                                     and all(isinstance(f, str) for f in features)):
        raise ModelFormatError(f"{path}: feature_order {features!r} is not a list of names")
    dataset = load_prepared(replace(cfg, lookback=lookback), out)
    if features and features != dataset.feature_order:
        raise DataError(f"checkpoint features {features} != dataset "
                        f"features {dataset.feature_order}")
    return spec, params, extra, dataset


def cmd_evaluate(cfg: PipelineConfig, checkpoint: str, out: str | None) -> int:
    spec, params, extra, dataset = _load_checkpoint(cfg, checkpoint, out)
    label = extra.get("architecture", "model")
    report = evaluate(spec, params, dataset, split="test",
                      seed=extra.get("seed"), architecture=label)
    model, n_layers = _model_row_labels(label)
    print(_report_row_header())
    print(_report_row(model, n_layers, report))
    outdir = _outdir(cfg, out, "eval")
    path = os.path.join(outdir, f"{label}.json")
    _write_json(path, report.to_record())
    info(f"wrote {path}")
    return 0


def _archives_for(cfg: PipelineConfig, labels: list[str], out: str | None) -> dict:
    base = out or cfg.output_dir
    found = {}
    wanted = labels or list(cfg.architectures)
    for label in wanted:
        path = os.path.join(base, "train", label, "archive.jsonl")
        if os.path.exists(path):
            found[label] = load_archive(path)
        elif labels:
            raise DataError(f"archive not found: {path}")
    return found


def cmd_compare(cfg: PipelineConfig, labels: list[str], out: str | None) -> int:
    archives = _archives_for(cfg, labels, out)
    if len(archives) < 2:
        info(f"compare needs >= 2 archives, found {sorted(archives)}")
        return 1
    results = []
    for metric in ("rmse", "mape", "r2"):
        samples = {label: arc.metric_samples(metric) for label, arc in archives.items()}
        results.append(compare_architectures(samples, metric))
    print("Normality (D'Agostino-Pearson K2) of per-run metrics")
    print(render_normality_table(results))
    print()
    print("Pairwise Welch two-sample t-tests")
    print(render_pairwise_table(results))
    outdir = _outdir(cfg, out, "compare")
    path = os.path.join(outdir, "comparison.jsonl")

    def write(fh):
        for res in results:
            record = {
                "metric": res.metric,
                "normality": {
                    label: (r if isinstance(r, str)
                            else {"k2": r.statistic, "p_value": r.p_value, "n": r.n})
                    for label, r in res.normality.items()},
                "pairwise": [
                    {"a": a, "b": b,
                     **({"marker": r} if isinstance(r, str) else
                        {"t": r.t_statistic, "dof": r.dof, "p_value": r.p_value,
                         "significant_at_05": r.significant_at_05})}
                    for (a, b), r in res.pairwise.items()],
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    write_atomic(path, write)
    info(f"wrote {path}")
    return 0


def cmd_report(cfg: PipelineConfig, label: str, out: str | None) -> int:
    base = out or cfg.output_dir
    ckpt = os.path.join(base, "train", label, "best.grnn")
    arc_path = os.path.join(base, "train", label, "archive.jsonl")
    if not os.path.exists(ckpt) or not os.path.exists(arc_path):
        raise DataError(f"train artifacts for {label!r} missing under {base}/train/{label}")
    spec, params, _, dataset = _load_checkpoint(cfg, ckpt, out)
    archive = load_archive(arc_path)

    preds_nd = predict_batch(spec, params, dataset.test_x)[:, 0]
    actual = dataset.norm.unscale(dataset.target_name, dataset.test_y)
    predicted = dataset.norm.unscale(dataset.target_name, preds_nd)

    outdir = _outdir(cfg, out, "report")
    scatter_path = os.path.join(outdir, f"{label}_scatter.csv")

    def write_scatter(fh):
        writer = csv.writer(fh)
        writer.writerow(["date", "actual", "predicted"])
        for d, a, p in zip(dataset.test_dates, actual, predicted):
            writer.writerow([d.isoformat(), repr(float(a)), repr(float(p))])

    write_atomic(scatter_path, write_scatter)

    metrics_path = os.path.join(outdir, f"{label}_metrics.csv")

    def write_metrics(fh):
        writer = csv.writer(fh)
        writer.writerow(["architecture", "seed", "metric", "value"])
        for run in archive.retained:
            for metric in ("rmse", "mape", "r2"):
                writer.writerow([label, run.seed, metric,
                                 repr(float(getattr(run.report, metric)))])

    write_atomic(metrics_path, write_metrics)
    print(f"scatter: {scatter_path} ({len(actual)} rows)")
    print(f"metrics: {metrics_path} ({3 * len(archive.retained)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="grnn",
                                     description="gated recurrent network forecasting pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, arch=False, arch_required=False):
        p.add_argument("--config", required=True, help="INI pipeline config")
        p.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                       help="override any config key (repeatable)")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="global seed override")
        if arch:
            p.add_argument("--arch", required=arch_required,
                           action="append" if not arch_required else "store",
                           default=None, help="architecture label")

    common(sub.add_parser("prepare", help="ingest, indicators, normalize, window"))
    common(sub.add_parser("hpo", help="TPE hyperparameter search"), arch=True,
           arch_required=True)
    p_train = sub.add_parser("train", help="repeated-seed training runs")
    common(p_train, arch=True, arch_required=True)
    p_train.add_argument("--hyperparams", default=None, help="best.json from hpo")
    p_train.add_argument("--repeats", type=int, default=None)
    p_eval = sub.add_parser("evaluate", help="score a checkpoint on the test split")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    common(sub.add_parser("compare", help="normality + Welch tests across archives"),
           arch=True)
    common(sub.add_parser("report", help="export plot data (scatter, boxplot)"),
           arch=True, arch_required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = list(args.set)
        if args.seed is not None:
            overrides += [f"train.seed={args.seed}", f"hpo.seed={args.seed}"]
        cfg = load_config(args.config, overrides)
        if args.command == "prepare":
            return cmd_prepare(cfg, args.out)
        if args.command == "hpo":
            return cmd_hpo(cfg, args.arch, args.out)
        if args.command == "train":
            return cmd_train(cfg, args.arch, args.hyperparams, args.repeats, args.out)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.checkpoint, args.out)
        if args.command == "compare":
            return cmd_compare(cfg, args.arch or [], args.out)
        if args.command == "report":
            return cmd_report(cfg, args.arch, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DataError, ModelFormatError, OSError, ValueError) as exc:
        info(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
