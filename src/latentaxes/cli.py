"""Command-line surface.

All commands operate on a workspace directory with conventional file names,
so a full run is:

    latentaxes gen-data --workspace ws --n 20000
    latentaxes fit --workspace ws --d 16
    latentaxes train --workspace ws --variant C
    latentaxes edit --workspace ws --latents in.npy --attribute 2 --target 1.5
    latentaxes evaluate --workspace ws --n 1024

Options may come from a JSON config file (--config); explicit flags win.
`evaluate` fits the linear baseline on one worker thread while it scores the
autoencoder; the report is the one the two would give run one after the
other, and there is no setting for it.
Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

import argparse
import csv
import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import baseline, editor, evaluation, gaussianize, oracle, pca, training
from .errors import (ConfigInvalid, DimensionMismatch, LatentAxesError, NonFinite,
                     NonPSD, OutOfDomain)
from .npyio import (check_finite_rows, check_type, load_dataset, read_json_object,
                    read_matrix, write_matrix)

CONFIG_ERROR, DATA_ERROR, NUMERIC_ERROR = 2, 3, 4
# the `train` options: TrainConfig fields, with its defaults and types
TRAIN_OPTIONS = ("alpha", "beta", "epochs", "batch_size", "learning_rate",
                 "hidden_size", "n_layers")

class CommandParser(argparse.ArgumentParser):
    """A subcommand's parser that keeps its options by destination name, so
    that config file values can be converted and checked like argv's."""

    def __init__(self, *args, **kwargs):
        self.options = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.default is not argparse.SUPPRESS:  # every option but --help
            self.options[action.dest] = action
        return action


def _config_value(key: str, value, action: argparse.Action):
    """A config file value converted and checked as argparse would the
    option's command-line string. JSON numbers and booleans must already
    have the option's type; an int is taken where a float is wanted."""
    kind = bool if action.nargs == 0 else (action.type or str)
    where = f"config key {key!r}"
    if isinstance(value, str) and kind is not bool:
        try:
            value = kind(value)
        except ValueError as exc:
            raise ConfigInvalid(f"{where}: {exc}") from exc
    value = check_type(value, kind, where)
    if action.choices is not None and value not in action.choices:
        raise ConfigInvalid(f"{where}: {value!r} is not one of "
                            f"{', '.join(action.choices)}")
    return value


def _read_config(path, command: CommandParser) -> dict:
    """Option values from the JSON config file, keyed by option name.

    They become argparse defaults, which argparse neither converts (unless
    they are strings) nor checks, so both happen here."""
    try:
        overrides = read_json_object(path)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    values = {}
    for key, value in overrides.items():
        action = command.options.get(key.replace("-", "_"))
        if action is None:
            raise ConfigInvalid(f"unknown config key {key!r}")
        values[action.dest] = _config_value(key, value, action)
    return values


def cmd_gen_data(args) -> int:
    if args.n < 1:
        raise ConfigInvalid(f"n={args.n} is below 1")
    ws = Path(args.workspace)
    latent_path = ws / "latents.npy"
    if latent_path.exists() and not args.force:
        raise ConfigInvalid(f"{latent_path} exists; pass --force to overwrite")
    world = oracle.make_world(args.m, args.k, args.q,
                              correlated=args.correlated, seed=args.seed,
                              mapping_kind=args.mapping)
    ws.mkdir(parents=True, exist_ok=True)
    latents, attrs = oracle.build_dataset(world, args.n, seed=args.seed + 1)
    write_matrix(latents, latent_path)
    write_matrix(attrs, ws / "attrs.npy")
    oracle.save_world(world, ws)
    print(f"wrote {args.n} x {args.m} latents and {args.k} attributes to {ws}")
    return 0


def cmd_fit(args) -> int:
    ws = Path(args.workspace)
    latents, attrs = load_dataset(ws / "latents.npy", ws / "attrs.npy")
    if not 1 <= args.d <= latents.shape[1]:
        raise ConfigInvalid(f"d={args.d} is not in [1, {latents.shape[1]}]")
    try:
        model = pca.fit_pca(latents, args.d)
    except NonFinite as exc:
        raise NonFinite(f"{ws / 'latents.npy'}: {exc}") from exc
    pca.save_pca(model, ws)
    transform = gaussianize.fit_transform(attrs)
    gaussianize.save_transform(transform, ws)
    frac = pca.explained_variance_fraction(model, args.d)
    print(f"PCA fit on {latents.shape[0]} samples; "
          f"d={args.d} explains {frac:.1%} of variance")
    return 0


def cmd_train(args) -> int:
    ws = Path(args.workspace)
    pca_model = pca.load_pca(ws)
    transform = gaussianize.load_transform(ws)
    latents, attrs = load_dataset(ws / "latents.npy", ws / "attrs.npy",
                                  pca_model.dim, transform.n_attributes,
                                  "the fit in pca_mean.npy and attr_tables.npy")

    cfg = training.TrainConfig(
        corr_mode=training.VARIANT_MODES[args.variant], seed=args.seed,
        **{name: getattr(args, name) for name in TRAIN_OPTIONS})
    top = pca.project(pca_model, latents).top
    attrs_gauss = gaussianize.gaussianize_columns(transform, attrs)
    del latents, attrs  # training needs only top and attrs_gauss
    model, history = training.train(top, attrs_gauss, cfg)
    training.save_model(model, cfg, ws)

    with open(ws / "loss_history.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["epoch", "recons", "attr",
                                                "corr", "total"])
        writer.writeheader()
        for i, row in enumerate(history):
            writer.writerow({"epoch": i, **row})
    print(f"trained variant {args.variant} for {cfg.epochs} epochs; "
          f"final recons loss {history[-1]['recons']:.4g}")
    return 0


def _load_pipeline(ws: Path) -> editor.EditPipeline:
    model, _ = training.load_model(ws)
    pca_model = pca.load_pca(ws)
    code_size = model.encoder.layer_sizes[0]
    if pca_model.split != code_size:
        raise DimensionMismatch(
            f"{ws / 'pca_meta.json'}: d {pca_model.split}, but "
            f"{ws / 'model_meta.json'} gives code_size {code_size}: run train again")
    return editor.EditPipeline(
        pca=pca_model,
        transform=gaussianize.load_transform(ws, model.n_attributes),
        model=model)


def cmd_edit(args) -> int:
    if not np.isfinite(args.target):
        raise ConfigInvalid(f"--target {args.target} is not finite")
    ws = Path(args.workspace)
    pipeline = _load_pipeline(ws)
    latents = read_matrix(args.latents, (None, pipeline.pca.dim), "pca_mean.npy")
    k = args.attribute
    if not 0 <= k < pipeline.model.n_attributes:
        raise ConfigInvalid(f"attribute {k} out of range")
    check_finite_rows(args.latents, latents)
    target = args.target
    if args.raw:
        try:
            target = editor.raw_to_slot(pipeline, k, args.target)
        except OutOfDomain as exc:
            raise ConfigInvalid(f"--target: {exc}") from exc
    edited = editor.edit(pipeline, latents, k, target)
    out = args.out or str(ws / "edited.npy")
    write_matrix(edited, out)
    print(f"edited {latents.shape[0]} latents (attribute {k} -> {target:.3f} "
          f"gaussianized), wrote {out}")
    return 0


def cmd_evaluate(args) -> int:
    if not 0 < args.threshold < 1:  # NaN fails too
        raise ConfigInvalid(f"threshold {args.threshold} is not in (0, 1)")
    if args.n < 1:
        raise ConfigInvalid(f"n={args.n} is below 1")
    if args.seed < 0:
        raise ConfigInvalid(f"seed {args.seed} is negative")
    ws = Path(args.workspace)
    world = oracle.load_world(ws)
    pipeline = _load_pipeline(ws)
    for what, have, want in (
            ("attributes", world.n_attributes, pipeline.model.n_attributes),
            ("latent dimensions", world.dim, pipeline.pca.dim)):
        if have != want:
            raise DimensionMismatch(f"the world has {have} {what} but the model "
                                    f"{want}: run fit and train again")
    latents, attrs = load_dataset(ws / "latents.npy", ws / "attrs.npy",
                                  world.dim, world.n_attributes,
                                  "world_attr_directions.npy")

    classify = lambda w: oracle.classify(world, w)
    embed = lambda w: oracle.embed_identity(world, w)
    sampler = lambda n, seed: oracle.sample_w(world, n, seed)
    score = lambda search: evaluation.score_method(
        search, classify, embed, sampler, world.n_attributes, args.n,
        args.threshold, args.seed)
    # the baseline fit never reads the autoencoder's scores, so it runs on a
    # worker meanwhile; the worker is joined before anything is raised, and a
    # fit error comes first, as if the fit had run first
    with ThreadPoolExecutor(max_workers=1) as pool:
        fitting = pool.submit(baseline.fit_all_directions, latents, attrs)
        try:
            methods = {"autoencoder": score(functools.partial(
                editor.search_positive, pipeline))}
        finally:
            linear = fitting.result()
    methods["linear"] = score(linear.search_positive)
    if args.csv:
        for name, block in methods.items():
            np.savetxt(ws / f"variation_{name}.csv", block["variation_matrix"],
                       delimiter=",")

    report = evaluation.make_report(
        config={k: v for k, v in vars(args).items()
                if isinstance(v, (str, int, float, bool, type(None)))},
        seeds={"evaluate": args.seed, "world": world.seed},
        amplitude_grid=editor.DEFAULT_AMPLITUDE_QUANTILES,
        threshold=args.threshold,
        methods=methods,
    )
    out = ws / "report.json"
    out.write_text(json.dumps(report, indent=2))
    print(f"wrote {out}")
    for name, block in methods.items():
        rates = np.array(block["well_edited_rates"])
        rate = ("n/a" if np.isnan(rates).all()  # no attribute had a negative
                else f"{np.nanmean(rates):.3f}")
        off = ("n/a" if 0 in block["n_success"]  # unknown, not zero
               else f"{block['off_diagonal_sum']:.3f}")
        print(f"  {name}: mean rate {rate}, off-diagonal sum {off}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="latentaxes",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=CommandParser)

    def common(p, seed=True):
        p.add_argument("--workspace", required=True, help="workspace directory")
        p.add_argument("--config", help="JSON file with option defaults")
        if seed:  # fit and edit draw nothing at random
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen-data", help="generate a synthetic latent/attribute dataset")
    common(p)
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--m", type=int, default=32, help="latent dimension")
    p.add_argument("--k", type=int, default=5, help="attribute count")
    p.add_argument("--q", type=int, default=8, help="identity subspace dimension")
    p.add_argument("--correlated", action="store_true",
                   help="plant correlations between adjacent attributes")
    p.add_argument("--mapping", choices=oracle.MAPPING_KINDS, default="linear")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("fit", help="fit the PCA basis and attribute transform")
    common(p, seed=False)
    p.add_argument("--d", type=int, default=16, help="leading components kept")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("train", help="train an autoencoder variant")
    common(p)
    p.add_argument("--variant", choices=tuple(training.VARIANT_MODES), default="C")
    defaults = training.TrainConfig()
    for name in TRAIN_OPTIONS:
        value = getattr(defaults, name)
        p.add_argument("--" + name.replace("_", "-"), type=type(value),
                       default=value)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("edit", help="edit one attribute of a latent batch")
    common(p, seed=False)
    p.add_argument("--latents", required=True, help="input .npy latent matrix")
    p.add_argument("--attribute", type=int, required=True)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--raw", action="store_true",
                   help="target is a raw [0,1] value instead of gaussianized")
    p.add_argument("--out", help="output .npy path")
    p.set_defaults(func=cmd_edit)

    p = sub.add_parser("evaluate", help="run the full editing evaluation")
    common(p)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--threshold", type=float, default=0.9)
    p.add_argument("--csv", action="store_true",
                   help="also write variation matrices as CSV")
    p.set_defaults(func=cmd_evaluate)
    parser.commands = sub.choices  # command name -> its parser
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the file's values become the command's defaults: explicit flags win
            command = parser.commands[args.command]
            command.set_defaults(**_read_config(args.config, command))
            args = parser.parse_args(argv)
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except (NonFinite, NonPSD) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except (LatentAxesError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
