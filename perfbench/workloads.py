"""The three benchmark workloads and their output checks.

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned. A workload has

- ``setup()``: builds its inputs; timed as ``setup_s`` and repeated;
- ``quality(state)``: one untimed operation pinned to the acceptance suite's
  seeds (world 7, data 8, training seed 1, evaluation seeds 100 + k), which
  also warms caches. Its quality figures therefore repeat exactly on every
  run, whatever ``--seed`` is;
- ``run_block(state, first, mark)``: timed operations whose inputs derive
  from ``--seed``, returning ``(latency_ns, output)`` per operation;
- ``check(state, outputs)``: returns one message per wrong output.

The quality operation is the same for all three: ``latentaxes evaluate
--seed 100`` on a workspace that ``latentaxes gen-data``, ``fit`` and
``train`` built at the pinned seeds with DESK_CFG at variant C for
``epochs`` epochs (see ``workspace_quality``). Its figures therefore agree
across workloads and are the ones the CLI reports.
"""

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from latentaxes import cli, editor, gaussianize, oracle, pca, training

# gen-data draws the dataset at its --seed plus one
WORLD_SEED, DATA_SEED, TRAIN_SEED, EVAL_SEED, HELDOUT_SEED = 7, 8, 1, 100, 99
QUALITY_KEYS = ("train_final_loss", "train_heldout_max_offdiag",
                "ae_well_edited_rate", "ae_identity_cosine", "ae_variation_offdiag")


@dataclass(frozen=True)
class Scale:
    m: int = 32
    k: int = 5
    q: int = 8
    n: int = 20000
    d: int = 16
    hidden_size: int = 128
    n_layers: int = 4
    batch_size: int = 256
    epochs: int = 2
    eval_n: int = 1024
    heldout_n: int = 1024
    edit_block: int = 1000  # a multiple of EditSingle.median_block
    edit_pool: int = 8191  # prime, so (w, k, t) repeats only every 409,550 calls


# The acceptance suite's desk scale (tests/test_acceptance.py: DESK, DESK_CFG),
# trained for a few epochs instead of 150 so that one run holds many
# operations; and a tiny scale for the benchmark's own tests.
DESK = Scale()
TINY = Scale(n=600, hidden_size=16, batch_size=64, eval_n=128,
             heldout_n=256, edit_block=50, edit_pool=67)
SCALES = {"desk": DESK, "tiny": TINY}


def op_seed(seed: int, i: int) -> int:
    """Input seed of timed operation i, derived from the workload seed."""
    return int(np.random.default_rng([seed, i]).integers(2**31 - 1))


def train_config(scale: Scale, seed: int) -> training.TrainConfig:
    return training.TrainConfig(
        alpha=1.0, beta=0.5, epochs=scale.epochs, batch_size=scale.batch_size,
        corr_mode=training.CORR_IDENTITY, learning_rate=1e-3,
        hidden_size=scale.hidden_size, n_layers=scale.n_layers, seed=seed)


def desk_data(scale: Scale) -> dict:
    world = oracle.make_world(scale.m, scale.k, scale.q, correlated=True,
                              seed=WORLD_SEED)
    latents, attrs = oracle.build_dataset(world, scale.n, seed=DATA_SEED)
    pm = pca.fit_pca(latents, scale.d)
    tr = gaussianize.fit_transform(attrs)
    return dict(world=world, pca=pm, transform=tr,
                top=pca.project(pm, latents).top,
                attrs_gauss=gaussianize.gaussianize_columns(tr, attrs))


def history_ok(history) -> bool:
    totals = [h["total"] for h in history]
    return (len(totals) >= 2 and all(math.isfinite(v) for h in history
                                     for v in h.values())
            and totals[-1] < totals[0])


def heldout_max_offdiag(world, pipe, n) -> float:
    """Acceptance criterion 5: max |corr - I| of the slider slots on
    held-out latents."""
    slots = editor.encode(pipe, oracle.sample_w(world, n, HELDOUT_SEED)).attr_slots
    return float(np.abs(training.batch_corr(slots) - np.eye(slots.shape[1])).max())


def cli_run(argv):
    """``latentaxes argv`` in process: (exit code, captured output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def build_workspace(ws: Path, scale: Scale) -> Path:
    """gen-data, fit and train through the CLI at the pinned seeds."""
    shutil.rmtree(ws, ignore_errors=True)
    common = ["--workspace", ws]
    cfg = train_config(scale, TRAIN_SEED)
    steps = (
        ["gen-data", *common, "--n", scale.n, "--m", scale.m, "--k", scale.k,
         "--q", scale.q, "--correlated", "--seed", WORLD_SEED],
        ["fit", *common, "--d", scale.d],
        ["train", *common, "--variant", "C", "--alpha", cfg.alpha,
         "--beta", cfg.beta, "--epochs", cfg.epochs, "--batch-size", cfg.batch_size,
         "--learning-rate", cfg.learning_rate, "--hidden-size", cfg.hidden_size,
         "--n-layers", cfg.n_layers, "--seed", cfg.seed],
    )
    for argv in steps:
        code, text = cli_run(argv)
        if code != 0:
            raise RuntimeError(f"set-up step {argv[0]} exited with {code}: {text}")
    return ws


def load_pipeline(ws: Path) -> editor.EditPipeline:
    model, _ = training.load_model(ws)
    return editor.EditPipeline(pca=pca.load_pca(ws),
                               transform=gaussianize.load_transform(ws),
                               model=model)


def evaluate(ws: Path, scale: Scale, seed: int):
    """``latentaxes evaluate --workspace ws --n eval_n --csv --seed seed``:
    the parsed report if the run succeeded and the report is sound (exit
    code 0, both methods present, every rate in [0, 1]); otherwise a
    message saying what was wrong."""
    code, text = cli_run(["evaluate", "--workspace", ws, "--n", scale.eval_n,
                          "--csv", "--seed", seed])
    if code != 0:
        return f"evaluate exited with {code}: {text.strip()}"
    try:
        report = json.loads((ws / "report.json").read_text())
        rates = [r for name in ("autoencoder", "linear")
                 for r in report["methods"][name]["well_edited_rates"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"evaluate: unreadable report.json: {exc!r}"
    if not rates or not all(isinstance(r, (int, float)) and 0.0 <= r <= 1.0
                            for r in rates):
        return f"evaluate: well-edited rates outside [0, 1]: {rates}"
    return report


def workspace_quality(ws: Path, scale: Scale):
    """The pinned-seed quality operation on a workspace from
    ``build_workspace``: (ok, quality figures). The autoencoder figures are
    those of ``latentaxes evaluate --seed 100``'s report."""
    report = evaluate(ws, scale, EVAL_SEED)
    if isinstance(report, str):
        raise RuntimeError(report)
    ae = report["methods"]["autoencoder"]
    with open(ws / "loss_history.csv", newline="") as fh:
        history = [{k: float(v) for k, v in row.items() if k != "epoch"}
                   for row in csv.DictReader(fh)]
    return history_ok(history), {
        "ae_well_edited_rate": float(np.mean(ae["well_edited_rates"])),
        "ae_identity_cosine": ae["identity_similarity"],
        "ae_variation_offdiag": ae["off_diagonal_sum"],
        "train_final_loss": history[-1]["total"],
        "train_heldout_max_offdiag": heldout_max_offdiag(
            oracle.load_world(ws), load_pipeline(ws), scale.heldout_n),
    }


class TrainDesk:
    """One ``training.train`` call per operation on the desk data.

    Why: ``mlp`` and ``training`` make up about 95% of tier-1 test time and
    are the target of the float32 trainer (ROADMAP item 2); nothing else
    runs in the timed part. Measured before this benchmark existed: 0.55 to
    0.59 s per desk epoch, three 15-epoch runs spread from 7.7 s to 8.5 s.
    An operation trains ``epochs`` (2) epochs, the fewest for which the
    loss-falls check means anything, so that a run holds about 25. The
    gated latency is their median. Over three sets of ten seeds (401-410,
    501-510 and 601-610; 30 s runs) its spread (quartile distance over
    median) was 0.13, 0.07 and 0.17, against 0.18, 0.13 and 0.21 for the
    fastest operation, because the host's slow stretches can outlast a run.
    """

    name = "train-desk"
    setup_repeats = 9  # a set-up takes about 0.07 s
    median_block = 1
    latency_percentile = 50

    def __init__(self, scale: Scale, seed: int, work_dir: Path):
        self.scale, self.seed = scale, seed
        self.work_dir = Path(work_dir)

    def setup(self):
        return desk_data(self.scale)

    def quality(self, state):
        ws = build_workspace(self.work_dir / "pinned", self.scale)
        return workspace_quality(ws, self.scale)

    def run_block(self, state, first, mark):
        mark(first)
        cfg = train_config(self.scale, op_seed(self.seed, first))
        t0 = perf_counter_ns()
        try:
            _, out = training.train(state["top"], state["attrs_gauss"], cfg)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        return [(perf_counter_ns() - t0, out)]

    def check(self, state, outputs):
        """A finite history whose last-epoch loss is below the first."""
        return [f"train: {h!r}" if isinstance(h, Exception)
                else "train: history not finite or loss did not fall"
                for h in outputs if isinstance(h, Exception) or not history_ok(h)]

    def rows_per_op(self):
        return self.scale.epochs * self.scale.n

    def expected_spans(self):
        """Per operation: two MLP passes of each kind per training step."""
        steps = self.scale.epochs * math.ceil(self.scale.n / self.scale.batch_size)
        return {"op": {"training.backward": steps, "mlp.forward": 2 * steps,
                       "mlp.backward": 2 * steps, "mlp.adam": 2 * steps,
                       "training.train": 1},
                "op_at_least": {},
                "setup": {"pca.fit": 1, "gaussianize.fit": 1}}


class EvaluateCli:
    """``latentaxes evaluate --workspace ws --n 1024 --csv --seed s_i`` per
    operation, on a workspace built by gen-data, fit and train.

    Why: the user-facing evaluation path: workspace reads through ``npyio``,
    ``baseline.fit_all_directions``, both amplitude searches, ``oracle`` and
    ``evaluation``, then the report and CSV writes. ``mlp`` runs forward
    only, on batches of several hundred rows. Measured before this benchmark
    existed: 1.76 s per evaluate, of which the baseline fit is 1.30 s and
    the autoencoder search 0.33 s. The gated latency is the median, as for
    train-desk. Over the same seeds its spread was 0.09, 0.09 and 0.05,
    against 0.10, 0.08 and 0.08 for the fastest operation.
    """

    name = "evaluate-cli"
    setup_repeats = 3
    median_block = 1
    latency_percentile = 50

    def __init__(self, scale: Scale, seed: int, work_dir: Path):
        self.scale, self.seed = scale, seed
        self.work_dir = Path(work_dir)
        self._setups = 0

    def setup(self):
        self._setups += 1
        return {"ws": build_workspace(self.work_dir / f"ws{self._setups}",
                                      self.scale)}

    def quality(self, state):
        return workspace_quality(state["ws"], self.scale)

    def run_block(self, state, first, mark):
        mark(first)
        t0 = perf_counter_ns()
        report = evaluate(state["ws"], self.scale, op_seed(self.seed, first))
        return [(perf_counter_ns() - t0, report)]

    def check(self, state, outputs):
        return [out for out in outputs if isinstance(out, str)]

    def rows_per_op(self):
        return self.scale.eval_n * self.scale.k

    def expected_spans(self):
        """Per evaluate: one search per attribute and method, one project
        per autoencoder search, the workspace's fixed file reads (world 4,
        model 4 per layer, PCA 3, transform 1, dataset 2), and at least
        eight classifier calls per attribute (per method: the sample, one
        search step and the two variation-matrix calls)."""
        k = self.scale.k
        return {"op": {"cli.evaluate": 1, "baseline.fit": 1, "editor.search": k,
                       "baseline.search": k, "evaluation.variation": 2,
                       "evaluation.build_pairs": 2 * k, "pca.project": k,
                       "npyio.read": 10 + 4 * self.scale.n_layers},
                "op_at_least": {"oracle.classify": 8 * k},
                "setup": {"cli.gen_data": 1, "cli.fit": 1, "cli.train": 1,
                          "training.train": 1}}


class EditSingle:
    """``editor.edit(pipe, w_i, k_i, t_i)`` on one latent per operation:
    ``w_i`` from ``oracle.sample_w``, ``k_i`` cycling over the attributes,
    ``t_i = inv_norm_cdf`` of an amplitude-grid quantile.

    Why: the interactive slider. The arithmetic is tiny, so per-call
    overhead dominates: a change that speeds up batched math but adds a
    per-call cost (dtype casts, buffer views, hash checks) shows here and
    nowhere else. Measured before this benchmark existed: p50 63 to 98 us,
    p99 118 to 179 us, with the p50 bimodal between consecutive 20k-call
    batches; hence the warm-up in ``quality``. Every 50 consecutive calls
    (about 3 ms) hold each (k, t) combination once, and the latent pool's
    size is prime, so no exact input repeats within a run. The gated latency
    is the fastest median of such a 50-call block: each block median is a
    typical call over every attribute and target, and the fastest is one
    that ran while the host was not slowed. Over three sets of ten seeds
    (401-410, 501-510 and 601-610; 30 s runs) it spread 0.21, 0.08 and 0.12
    (quartile distance over median), against 0.20, 0.28 and 0.14 for the fastest median
    of 1000-call blocks, whose 0.1 s can be longer than the host's fast
    windows. On seeds 401-410 two runs were slowed throughout, their
    fastest single calls included.
    """

    name = "edit-single"
    setup_repeats = 3
    latency_percentile = 0

    def __init__(self, scale: Scale, seed: int, work_dir: Path):
        self.scale, self.seed = scale, seed
        self.work_dir = Path(work_dir)
        self._setups = 0
        grid = editor.DEFAULT_AMPLITUDE_QUANTILES
        self.targets = [gaussianize.inv_norm_cdf(q) for q in grid]
        self.median_block = scale.k * len(self.targets)

    def setup(self):
        self._setups += 1
        ws = build_workspace(self.work_dir / f"ws{self._setups}", self.scale)
        pool = oracle.sample_w(oracle.load_world(ws), self.scale.edit_pool,
                               op_seed(self.seed, 0))
        return dict(ws=ws, pipe=load_pipeline(ws), pool=pool)

    def _inputs(self, state, i):
        k = i % self.scale.k
        t = self.targets[(i // self.scale.k) % len(self.targets)]
        return state["pool"][i % self.scale.edit_pool], k, t

    def quality(self, state):
        warm = self.run_block(state, 0, lambda i: None)
        ok, quality = workspace_quality(state["ws"], self.scale)
        return ok and not self.check(state, [out for _, out in warm]), quality

    def run_block(self, state, first, mark):
        pipe, out = state["pipe"], []
        for i in range(first, first + self.scale.edit_block):
            w, k, t = self._inputs(state, i)
            mark(i)
            t0 = perf_counter_ns()
            try:
                edited = editor.edit(pipe, w, k, t)
            except Exception as exc:  # a failed operation is counted, not fatal
                edited = exc
            out.append((perf_counter_ns() - t0, (i, edited)))
        return out

    def check(self, state, outputs):
        """The trailing PCA coordinates pass through unchanged (within 1e-9),
        and each single edit equals the batched edit of the same rows
        (within 1e-12)."""
        pipe = state["pipe"]
        failures, done = [], []
        for i, edited in outputs:
            if isinstance(edited, Exception):
                failures.append(f"edit {i}: {edited!r}")
            else:
                done.append((i, edited))
        if not done:
            return failures
        idx = [i for i, _ in done]
        inputs = [self._inputs(state, i) for i in idx]
        w_in = np.stack([w for w, _, _ in inputs])
        w_out = np.stack([e for _, e in done])
        drift = np.abs(pca.project(pipe.pca, w_out).residual
                       - pca.project(pipe.pca, w_in).residual).max(axis=1)
        groups = {}
        for row, ((_, k, t), d) in enumerate(zip(inputs, drift)):
            if d <= 1e-9:
                groups.setdefault((k, t), []).append(row)
            else:
                failures.append(f"edit {idx[row]}: PCA residual moved by {d:.3g}")
        for (k, t), rows in groups.items():
            gap = np.abs(editor.edit(pipe, w_in[rows], k, t) - w_out[rows]).max(axis=1)
            failures += [f"edit {idx[r]}: differs from the batched edit by {g:.3g}"
                         for r, g in zip(rows, gap) if not g <= 1e-12]
        return failures

    def rows_per_op(self):
        return 1

    def expected_spans(self):
        return {"op": {"editor.edit": 1, "editor.encode": 1, "editor.decode": 1,
                       "mlp.forward": 2, "pca.project": 1, "pca.reconstruct": 1},
                "op_at_least": {},
                "setup": {"cli.train": 1, "training.train": 1, "pca.fit": 1}}


def make(name: str, scale: Scale, seed: int, work_dir: Path):
    for cls in (TrainDesk, EvaluateCli, EditSingle):
        if cls.name == name:
            return cls(scale, seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")
