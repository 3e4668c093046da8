import json
import shutil
from dataclasses import asdict

import numpy as np
import pytest

from latentaxes import baseline, cli, npyio, training
from latentaxes.errors import ConfigInvalid


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("ws")
    assert run("gen-data", "--workspace", ws, "--n", 3000, "--m", 16,
               "--k", 3, "--q", 4, "--seed", 5) == 0
    assert run("fit", "--workspace", ws, "--d", 8) == 0
    assert run("train", "--workspace", ws, "--variant", "C", "--epochs", 10,
               "--hidden-size", 32, "--n-layers", 4, "--alpha", "1.0",
               "--beta", "0.3", "--learning-rate", "2e-3") == 0
    return ws


def test_gen_data_outputs(workspace):
    latents = npyio.read_matrix(workspace / "latents.npy")
    attrs = npyio.read_matrix(workspace / "attrs.npy")
    assert latents.shape == (3000, 16)
    assert attrs.shape == (3000, 3)


def test_gen_data_refuses_overwrite(workspace):
    assert run("gen-data", "--workspace", workspace, "--n", 10, "--m", 16,
               "--k", 3, "--q", 4) == cli.CONFIG_ERROR


def test_gen_data_reproducible(tmp_path):
    for sub in ("a", "b"):
        assert run("gen-data", "--workspace", tmp_path / sub, "--n", 100,
                   "--m", 16, "--k", 3, "--q", 4, "--seed", 9) == 0
    m1 = npyio.read_matrix(tmp_path / "a" / "latents.npy")
    m2 = npyio.read_matrix(tmp_path / "b" / "latents.npy")
    np.testing.assert_array_equal(m1, m2)


def test_fit_rejects_oversized_d(workspace):
    assert run("fit", "--workspace", workspace, "--d", 99) == cli.CONFIG_ERROR


@pytest.mark.parametrize("argv, message, unwritten", [
    (("fit", "--d", 0), "d=0 is not in [1, 16]", "pca_meta.json"),
    (("fit", "--d", -3), "d=-3 is not in [1, 16]", "pca_meta.json"),
    (("gen-data", "--k", 0, "--force"), "need K >= 1 and q >= 0, got K=0",
     "world_meta.json"),
    (("gen-data", "--q", -1, "--force"), "need K >= 1 and q >= 0, got K=5, "
     "q=-1", "world_meta.json"),
    (("evaluate", "--threshold", "nan"), "threshold nan is not in (0, 1)",
     "report.json"),
    (("evaluate", "--threshold", 1.5), "threshold 1.5 is not in (0, 1)",
     "report.json"),
    (("evaluate", "--threshold", 0), "threshold 0.0 is not in (0, 1)",
     "report.json"),
    (("evaluate", "--threshold", "inf"), "threshold inf is not in (0, 1)",
     "report.json")],
    ids=["fit-d-0", "fit-d-negative", "gen-data-k-0", "gen-data-q-negative",
         "threshold-nan", "threshold-1.5", "threshold-0", "threshold-inf"])
def test_out_of_range_flag_is_a_config_error(workspace, tmp_path, capsys,
                                             argv, message, unwritten):
    ws = shutil.copytree(workspace, tmp_path / "ws")
    (ws / unwritten).unlink(missing_ok=True)
    command, *flags = argv
    assert run(command, "--workspace", ws, *flags) == cli.CONFIG_ERROR
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (ws / unwritten).exists()


def test_train_writes_history(workspace):
    history = (workspace / "loss_history.csv").read_text().splitlines()
    assert history[0] == "epoch,recons,attr,corr,total"
    assert len(history) == 11


def test_edit_roundtrip(workspace, tmp_path):
    latents = npyio.read_matrix(workspace / "latents.npy")[:7]
    src = tmp_path / "batch.npy"
    npyio.write_matrix(latents, src)
    out = tmp_path / "edited.npy"
    assert run("edit", "--workspace", workspace, "--latents", src,
               "--attribute", 1, "--target", "1.2", "--out", out) == 0
    edited = npyio.read_matrix(out)
    assert edited.shape == (7, 16)
    assert run("edit", "--workspace", workspace, "--latents", src,
               "--attribute", 99, "--target", "1.2") == cli.CONFIG_ERROR


def test_edit_raw_target(workspace, tmp_path):
    latents = npyio.read_matrix(workspace / "latents.npy")[:3]
    src = tmp_path / "batch.npy"
    npyio.write_matrix(latents, src)
    out = tmp_path / "edited_raw.npy"
    assert run("edit", "--workspace", workspace, "--latents", src,
               "--attribute", 0, "--target", "0.9", "--raw", "--out", out) == 0
    # a raw target outside [0, 1] is refused, not clamped
    assert run("edit", "--workspace", workspace, "--latents", src,
               "--attribute", 0, "--target", "1.5", "--raw") == cli.CONFIG_ERROR


def test_evaluate_report_schema(workspace):
    assert run("evaluate", "--workspace", workspace, "--n", 128, "--csv") == 0
    report = json.loads((workspace / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["threshold"] == 0.9
    assert set(report["methods"]) == {"autoencoder", "linear"}
    ae = report["methods"]["autoencoder"]
    assert len(ae["well_edited_rates"]) == 3
    assert len(ae["variation_matrix"]) == 3
    assert (workspace / "variation_linear.csv").exists()


def test_evaluate_reports_attributes_without_success(workspace, tmp_path,
                                                     capsys):
    # at this threshold the autoencoder edits no latent of some attribute; its
    # variation row is NaN, so its off-diagonal sum is unknown, not zero
    ws = shutil.copytree(workspace, tmp_path / "ws")
    assert run("evaluate", "--workspace", ws, "--n", 256,
               "--threshold", 0.99999) == 0
    ae = json.loads((ws / "report.json").read_text())["methods"]["autoencoder"]
    empty = ae["n_success"].index(0)  # an attribute without a success
    assert ae["variation_matrix"][empty] == [None] * 3
    # the report's scalar counts that row as 0; the console says n/a
    off = [abs(x or 0.0) for i, row in enumerate(ae["variation_matrix"])
           for j, x in enumerate(row) if i != j]
    assert ae["off_diagonal_sum"] == pytest.approx(sum(off))
    assert ae["well_edited_rates"] == [s / n for s, n in
                                       zip(ae["n_success"], ae["n_negatives"])]
    assert "autoencoder: mean rate 0.000, off-diagonal sum n/a" in \
        capsys.readouterr().out


@pytest.mark.parametrize("corrupt, code, named", [
    (lambda ws: (ws / "model_meta.json").write_text("{"),
     cli.CONFIG_ERROR, "model_meta.json"),
    (lambda ws: (ws / "world_meta.json").write_text(
        json.dumps({"mapping_kind": "bogus", "seed": 5})),
     cli.CONFIG_ERROR, "world_meta.json"),
    (lambda ws: shutil.copy(ws / "enc_w0.npy", ws / "enc_w1.npy"),
     cli.DATA_ERROR, "enc_w1.npy"),
], ids=["model-meta-not-json", "unknown-mapping-kind", "weights-do-not-chain"])
def test_evaluate_names_the_corrupt_workspace_file(workspace, tmp_path, capsys,
                                                   corrupt, code, named):
    ws = shutil.copytree(workspace, tmp_path / "ws")
    corrupt(ws)
    assert run("evaluate", "--workspace", ws, "--n", 64) == code
    assert named in capsys.readouterr().err


def set_attrs(ws, row, col, value):
    attrs = npyio.read_matrix(ws / "attrs.npy")
    attrs[row, col] = value
    np.save(ws / "attrs.npy", attrs)  # write_matrix would refuse a NaN


@pytest.mark.parametrize("break_fit, code, named", [
    (lambda ws, mp: set_attrs(ws, slice(None), 1, 0.2),  # every label 0
     cli.DATA_ERROR, "attribute 1: both classes must be present"),
    (lambda ws, mp: mp.setattr(baseline, "FIT_MAX_ITER", 1),
     cli.DATA_ERROR, "attribute 0: no convergence in 1 Newton steps"),
    (lambda ws, mp: set_attrs(ws, 5, 2, np.nan),
     cli.NUMERIC_ERROR, "attribute 2: labels row 5 is not finite"),
], ids=["single-class", "iteration-cap", "nan-attribute"])
def test_evaluate_names_the_attribute_the_baseline_cannot_fit(
        workspace, tmp_path, capsys, monkeypatch, break_fit, code, named):
    ws = shutil.copytree(workspace, tmp_path / "ws")
    break_fit(ws, monkeypatch)
    assert run("evaluate", "--workspace", ws, "--n", 64) == code
    assert named in capsys.readouterr().err


def test_train_defaults_are_train_configs(workspace, monkeypatch):
    seen = []

    def stop(latents_top, attrs_gauss, cfg):
        seen.append(asdict(cfg))
        raise ConfigInvalid("stopped before training")

    monkeypatch.setattr(training, "train", stop)
    assert run("train", "--workspace", workspace) == cli.CONFIG_ERROR
    expected = asdict(training.TrainConfig(corr_mode="identity"))
    assert seen == [expected]
    assert [type(v) for v in seen[0].values()] == \
        [type(v) for v in expected.values()]


def test_evaluate_default_n_is_1024():
    parser = cli.build_parser()
    args = parser.parse_args(["evaluate", "--workspace", "x"])
    assert args.n == 1024
    assert args.threshold == 0.9


def test_config_file_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 77, "m": 16, "k": 3, "q": 4}))
    ws = tmp_path / "ws"
    assert run("gen-data", "--workspace", ws, "--config", cfg) == 0
    assert npyio.read_matrix(ws / "latents.npy").shape == (77, 16)
    # explicit flag beats the config file
    ws2 = tmp_path / "ws2"
    assert run("gen-data", "--workspace", ws2, "--config", cfg, "--n", 33) == 0
    assert npyio.read_matrix(ws2 / "latents.npy").shape == (33, 16)
    # ... even when the flag's value equals its default (--k defaults to 5)
    ws3 = tmp_path / "ws3"
    assert run("gen-data", "--workspace", ws3, "--config", cfg, "--k", 5) == 0
    assert npyio.read_matrix(ws3 / "attrs.npy").shape == (77, 5)


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run("gen-data", "--workspace", tmp_path / "ws",
               "--config", cfg) == cli.CONFIG_ERROR



def test_config_file_not_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([1]))
    assert run("gen-data", "--workspace", tmp_path / "ws",
               "--config", cfg) == cli.CONFIG_ERROR
    assert "config error:" in capsys.readouterr().err


def test_config_file_value_outside_choices(workspace, tmp_path, capsys):
    # argparse refuses --variant D; the same value from a file is refused too
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variant": "D"}))
    assert run("train", "--workspace", workspace, "--config", cfg) == cli.CONFIG_ERROR
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("config", [{"n": 2.5}, {"n": True}, {"n": "2.5"},
                                    {"correlated": "yes"}, {"mapping": 1}])
def test_config_file_value_of_wrong_type(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run("gen-data", "--workspace", tmp_path / "ws",
               "--config", cfg) == cli.CONFIG_ERROR
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["func", "command"])
def test_config_file_key_that_is_not_an_option(tmp_path, capsys, key):
    # both are attributes of the parsed arguments, but not options
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    assert run("gen-data", "--workspace", tmp_path / "ws",
               "--config", cfg) == cli.CONFIG_ERROR
    assert "config error:" in capsys.readouterr().err


def test_config_file_values_converted_by_option_type(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "40", "m": 8, "k": 2, "q": 2,
                               "correlated": True}))
    ws = tmp_path / "ws"
    assert run("gen-data", "--workspace", ws, "--config", cfg) == 0
    assert npyio.read_matrix(ws / "latents.npy").shape == (40, 8)
    cfg.write_text(json.dumps({"d": 4}))
    assert run("fit", "--workspace", ws, "--config", cfg) == 0
    cfg.write_text(json.dumps({"alpha": 1, "learning-rate": "1e-3", "epochs": 1,
                               "batch-size": 32, "hidden-size": 8, "n-layers": 2}))
    assert run("train", "--workspace", ws, "--config", cfg) == 0
    meta = json.loads((ws / "model_meta.json").read_text())["train_config"]
    assert meta["alpha"] == 1.0 and isinstance(meta["alpha"], float)
    assert meta["learning_rate"] == 1e-3 and meta["hidden_size"] == 8


def test_missing_data_is_data_error(tmp_path):
    assert run("fit", "--workspace", tmp_path, "--d", 4) == cli.DATA_ERROR


def test_gen_data_refuses_negative_n(tmp_path, capsys):
    assert run("gen-data", "--workspace", tmp_path, "--n", -5) == cli.CONFIG_ERROR
    assert "sample count -5 is negative" in capsys.readouterr().err
    assert not (tmp_path / "latents.npy").exists()


def test_evaluate_refuses_negative_n(workspace, tmp_path, capsys):
    ws = shutil.copytree(workspace, tmp_path / "ws")
    (ws / "report.json").unlink(missing_ok=True)
    assert run("evaluate", "--workspace", ws, "--n", -1) == cli.CONFIG_ERROR
    assert "sample count -1 is negative" in capsys.readouterr().err
    assert not (ws / "report.json").exists()


@pytest.mark.parametrize("option, value", [
    ("--epochs", 0), ("--hidden-size", 0), ("--n-layers", 0),
    ("--learning-rate", -1), ("--alpha", "nan"), ("--beta", -1)])
def test_train_refuses_invalid_config_before_writing(workspace, tmp_path,
                                                     capsys, option, value):
    ws = shutil.copytree(workspace, tmp_path / "ws")
    for name in ("model_meta.json", "loss_history.csv"):
        (ws / name).unlink()
    assert run("train", "--workspace", ws, "--epochs", 1, "--hidden-size", 4,
               "--n-layers", 2, option, value) == cli.CONFIG_ERROR
    field = option[2:].replace("-", "_")
    assert f"config error: {field} " in capsys.readouterr().err
    assert not (ws / "model_meta.json").exists()
    assert not (ws / "loss_history.csv").exists()
