"""Command-line surface.

All commands operate on a workspace directory with conventional file names,
so a full run is:

    latentaxes gen-data --workspace ws --n 20000
    latentaxes fit --workspace ws --d 16
    latentaxes train --workspace ws --variant C
    latentaxes edit --workspace ws --latents in.npy --attribute 2 --target 1.5
    latentaxes evaluate --workspace ws --n 1024

`evaluate` fits the linear baseline before it scores either method, so an
attribute the baseline cannot fit is refused before any search.
Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import baseline, editor, evaluation, gaussianize, oracle, pca, training
from .errors import (ConfigInvalid, DimensionMismatch, LatentAxesError, NonFinite,
                     NonPSD)
from .npyio import load_dataset, read_matrix, write_matrix

CONFIG_ERROR, DATA_ERROR, NUMERIC_ERROR = 2, 3, 4
# the `train` options: TrainConfig fields, with its defaults and types
TRAIN_OPTIONS = ("alpha", "beta", "epochs", "batch_size", "learning_rate",
                 "hidden_size", "n_layers")


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
    model = pca.fit_pca(latents, args.d)
    pca.save_pca(model, ws)
    transform = gaussianize.fit_transform(attrs)
    gaussianize.save_transform(transform, ws)
    frac = pca.explained_variance_fraction(model)
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
        writer = csv.DictWriter(fh, fieldnames=["epoch", *history[0]])
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
    if args.raw and not 0.0 <= args.target <= 1.0:
        raise ConfigInvalid(f"--target: raw attribute value {args.target} "
                            "outside [0, 1]")
    ws = Path(args.workspace)
    pipeline = _load_pipeline(ws)
    latents = read_matrix(args.latents, (None, pipeline.pca.dim), "pca_mean.npy")
    k = args.attribute
    if not 0 <= k < pipeline.model.n_attributes:
        raise ConfigInvalid(f"attribute {k} out of range")
    target = args.target
    if args.raw:
        target = gaussianize.gaussianize_value(pipeline.transform, k, target)
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
    linear = baseline.fit_all_directions(*load_dataset(
        ws / "latents.npy", ws / "attrs.npy", world.dim, world.n_attributes,
        "world_attr_directions.npy"))

    methods = evaluation.score_methods(
        {"autoencoder": functools.partial(editor.search_positive, pipeline),
         "linear": linear.search_positive},
        lambda w: oracle.classify(world, w),
        lambda w: oracle.embed_identity(world, w),
        lambda n, seed: oracle.sample_w(world, n, seed), world.n_attributes,
        args.n, args.threshold, args.seed)
    if args.csv:
        for name, block in methods.items():
            np.savetxt(ws / f"variation_{name}.csv", block["variation_matrix"],
                       delimiter=",")

    report = evaluation.make_report(
        config={k: v for k, v in vars(args).items()
                if isinstance(v, (str, int, float, bool))},
        seeds={"evaluate": args.seed, "world": world.seed},
        amplitude_grid=editor.AMPLITUDE_QUANTILES,
        linear_amplitudes=baseline.DEFAULT_AMPLITUDES,
        threshold=args.threshold,
        methods=methods,
    )
    out = ws / "report.json"
    out.write_text(json.dumps(report, indent=2))
    print(f"wrote {out}")
    for name, block in methods.items():
        rates = np.array(block["well_edited_rates"])
        known = np.count_nonzero(~np.isnan(rates))  # attributes with a negative
        rate = "n/a" if known == 0 else f"{np.nanmean(rates):.3f}"
        if 0 < known < rates.size:
            rate += f" over {known} of {rates.size} attributes"
        unknown = 0 in block["n_success"]  # unknown, not zero
        off = "n/a" if unknown else f"{block['off_diagonal_sum']:.3f}"
        identity = "n/a" if unknown else f"{block['identity_similarity']:.4f}"
        print(f"  {name}: mean rate {rate}, off-diagonal sum {off}, "
              f"identity {identity}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="latentaxes",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--workspace", required=True, help="workspace directory")
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
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
