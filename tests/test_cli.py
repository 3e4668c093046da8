import functools
import json
import shutil
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from latentaxes import baseline, cli, editor, evaluation, npyio, oracle, training
from latentaxes.errors import ConfigInvalid, NonPSD


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
    (("gen-data", "--k", 0, "--force"), "need K >= 1 and q >= 1, got K=0",
     "world_meta.json"),
    (("gen-data", "--q", -1, "--force"), "need K >= 1 and q >= 1, got K=5, "
     "q=-1", "world_meta.json"),
    (("gen-data", "--q", 0, "--force"), "need K >= 1 and q >= 1, got K=5, q=0: "
     "identity similarity scores edits in the identity subspace", "world_meta.json"),
    (("gen-data", "--m", 8, "--force"), "need m > K + q, got m=8, K=5, q=8",
     "world_meta.json"),
    (("gen-data", "--seed", -1, "--force"), "seed -1 is negative",
     "world_meta.json"),
    (("evaluate", "--seed", -1), "seed -1 is negative", "report.json"),
    (("evaluate", "--threshold", "nan"), "threshold nan is not in (0, 1)",
     "report.json"),
    (("evaluate", "--threshold", 1.5), "threshold 1.5 is not in (0, 1)",
     "report.json"),
    (("evaluate", "--threshold", 0), "threshold 0.0 is not in (0, 1)",
     "report.json"),
    (("evaluate", "--threshold", "inf"), "threshold inf is not in (0, 1)",
     "report.json")],
    ids=["fit-d-0", "fit-d-negative", "gen-data-k-0", "gen-data-q-negative",
         "gen-data-q-0", "gen-data-m-8", "gen-data-seed-negative",
         "evaluate-seed-negative", "threshold-nan", "threshold-1.5",
         "threshold-0", "threshold-inf"])
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
    for target in ("nan", "inf"):
        bad = tmp_path / f"{target}.npy"
        assert run("edit", "--workspace", workspace, "--latents", src,
                   "--attribute", 1, "--target", target,
                   "--out", bad) == cli.CONFIG_ERROR
        assert not bad.exists()


def test_model_files_written_as_f8_edit_to_the_same_bits(workspace, tmp_path):
    # train writes its float32 model as <f4; the <f8 files of earlier
    # versions hold the same values and still load, with no retraining
    src = tmp_path / "batch.npy"
    npyio.write_matrix(npyio.read_matrix(workspace / "latents.npy")[:7], src)
    ws = shutil.copytree(workspace, tmp_path / "ws")
    files = [p for p in ws.iterdir() if p.name.startswith(("enc_", "dec_"))]
    assert len(files) == 16
    assert {np.load(p).dtype.str for p in files} == {"<f4"}
    for path in files:
        np.save(path, np.load(path).astype(np.float64))
    edited = []
    for i, w in enumerate((workspace, ws)):
        out = tmp_path / f"edited{i}.npy"
        assert run("edit", "--workspace", w, "--latents", src,
                   "--attribute", 1, "--target", "1.2", "--out", out) == 0
        edited.append(out.read_bytes())
    assert edited[0] == edited[1]


def test_fit_names_the_file_and_row_of_a_non_finite_latent(workspace, tmp_path,
                                                           capsys):
    ws = shutil.copytree(workspace, tmp_path / "ws")
    latents = npyio.read_matrix(ws / "latents.npy")
    latents[123, 4] = np.nan
    np.save(ws / "latents.npy", latents)  # write_matrix would refuse a NaN
    assert run("fit", "--workspace", ws, "--d", 8) == cli.NUMERIC_ERROR
    assert (f"numeric failure: {ws / 'latents.npy'}: data row 123 is not finite"
            in capsys.readouterr().err)


def test_edit_refuses_a_non_finite_latent_row(workspace, tmp_path, capsys):
    latents = npyio.read_matrix(workspace / "latents.npy")[:4]
    latents[2, 0] = np.inf
    src, out = tmp_path / "batch.npy", tmp_path / "edited.npy"
    np.save(src, latents)
    assert run("edit", "--workspace", workspace, "--latents", src,
               "--attribute", 1, "--target", "1.2", "--out", out) == cli.NUMERIC_ERROR
    assert (f"numeric failure: {src}: data row 2 is not finite"
            in capsys.readouterr().err)
    assert not out.exists()


def test_evaluate_non_psd_frechet_is_a_numeric_failure(workspace, tmp_path,
                                                        capsys, monkeypatch):
    ws = shutil.copytree(workspace, tmp_path / "ws")
    calls = []

    def non_psd(a, b):
        calls.append(a.shape)
        raise NonPSD("covariance product has significantly negative eigenvalues")

    monkeypatch.setattr(evaluation, "frechet_distance", non_psd)
    assert run("evaluate", "--workspace", ws, "--n", 128) == cli.NUMERIC_ERROR
    assert calls
    assert ("numeric failure: covariance product has significantly negative "
            "eigenvalues" in capsys.readouterr().err)
    assert not (ws / "report.json").exists()


EDIT_ARGV = ("edit", "--latents", "in.npy", "--attribute", 0, "--target", 1)


@pytest.mark.parametrize("argv", [("fit",), EDIT_ARGV], ids=["fit", "edit"])
def test_seed_is_not_an_option_of_fit_or_edit(tmp_path, argv, capsys):
    with pytest.raises(SystemExit) as info:
        run(*argv, "--workspace", tmp_path, "--seed", 1)
    assert info.value.code == cli.CONFIG_ERROR
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("gen-data",), ("fit",), ("train",), EDIT_ARGV, ("evaluate",)],
    ids=["gen-data", "fit", "train", "edit", "evaluate"])
def test_config_is_not_an_option(tmp_path, argv, capsys):
    ws = tmp_path / "ws"
    with pytest.raises(SystemExit) as info:
        run(*argv, "--workspace", ws, "--config", "c.json")
    assert info.value.code == cli.CONFIG_ERROR
    assert "unrecognized arguments: --config c.json" in capsys.readouterr().err
    assert not ws.exists()


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


@pytest.mark.parametrize("target", ["1.5", "-0.25"])
def test_edit_refuses_a_raw_target_before_reading_the_workspace(tmp_path, capsys,
                                                                target):
    # neither the workspace nor the latents file exists: reading either
    # would be a data error
    assert run("edit", "--workspace", tmp_path / "ws", "--latents",
               tmp_path / "in.npy", "--attribute", 0, "--target", target,
               "--raw") == cli.CONFIG_ERROR
    assert (f"config error: --target: raw attribute value {float(target)} "
            "outside [0, 1]") in capsys.readouterr().err


def test_evaluate_report_schema(workspace, capsys):
    assert run("evaluate", "--workspace", workspace, "--n", 128, "--csv") == 0
    report = json.loads((workspace / "report.json").read_text())
    # every attribute had a success: the console prints each figure
    lin = report["methods"]["linear"]
    assert 0 not in lin["n_success"]
    assert (f"linear: mean rate {np.mean(lin['well_edited_rates']):.3f}, "
            f"off-diagonal sum {lin['off_diagonal_sum']:.3f}, "
            f"identity {lin['identity_similarity']:.4f}"
            in capsys.readouterr().out)
    assert report["schema_version"] == 1
    assert report["threshold"] == 0.9
    assert set(report["methods"]) == {"autoencoder", "linear"}
    for block in report["methods"].values():
        assert set(block) == {"well_edited_rates", "n_negatives", "n_success",
                              "variation_matrix", "off_diagonal_sum",
                              "identity_similarity", "frechet_distances"}
    ae = report["methods"]["autoencoder"]
    assert len(ae["well_edited_rates"]) == 3
    # both methods search the same sample of every attribute
    assert ae["n_negatives"] == lin["n_negatives"]
    assert len(ae["variation_matrix"]) == 3
    assert (workspace / "variation_linear.csv").exists()


def test_train_with_default_options_makes_sliders_that_edit(tmp_path):
    # every train option but --epochs at its default: the sliders must edit
    ws = tmp_path / "ws"
    assert run("gen-data", "--workspace", ws, "--seed", 7, "--n", 2000,
               "--m", 16, "--k", 3, "--q", 4, "--correlated") == 0
    assert run("fit", "--workspace", ws, "--d", 8) == 0
    assert run("train", "--workspace", ws, "--epochs", 20) == 0
    assert run("evaluate", "--workspace", ws, "--n", 512, "--seed", 100) == 0
    ae = json.loads((ws / "report.json").read_text())["methods"]["autoencoder"]
    assert np.mean(ae["well_edited_rates"]) > 0.5


def test_retraining_with_fewer_layers_leaves_no_stale_weight_file(workspace,
                                                                  tmp_path):
    ws = shutil.copytree(workspace, tmp_path / "ws")
    model_files = lambda: sorted(p.name for p in ws.iterdir()
                                 if p.name.startswith(("enc_", "dec_")))
    assert len(model_files()) == 16  # the fixture's 4 layers
    assert run("train", "--workspace", ws, "--epochs", 1, "--hidden-size", 8,
               "--n-layers", 2) == 0
    assert model_files() == [f"{net}_{kind}{i}.npy" for net in ("dec", "enc")
                             for kind in "bw" for i in range(2)]
    assert run("evaluate", "--workspace", ws, "--n", 64) == 0


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
    assert ("autoencoder: mean rate 0.000, off-diagonal sum n/a, identity n/a"
            in capsys.readouterr().out)


def test_evaluate_prints_n_a_when_no_attribute_has_a_negative(tmp_path, capsys):
    # on 600 correlated rows and one latent per attribute, every attribute's
    # sample is positive: each rate is undefined
    ws = tmp_path / "ws"
    assert run("gen-data", "--workspace", ws, "--n", 600, "--correlated",
               "--seed", 7) == 0
    assert run("fit", "--workspace", ws, "--d", 16) == 0
    assert run("train", "--workspace", ws, "--epochs", 1, "--hidden-size", 16,
               "--n-layers", 2) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("evaluate", "--workspace", ws, "--n", 1, "--seed", 7) == 0
    assert not caught
    out = capsys.readouterr().out
    for name in ("autoencoder", "linear"):
        assert (f"{name}: mean rate n/a, off-diagonal sum n/a, identity n/a"
                in out)


def test_evaluate_says_how_many_attributes_its_mean_rate_covers(tmp_path,
                                                                capsys):
    # three latents hold no negative of attribute 0, so its rate is
    # undefined; the mean is over attribute 1 alone
    ws = tmp_path / "ws"
    assert run("gen-data", "--workspace", ws, "--n", 400, "--m", 10, "--k", 2,
               "--q", 3, "--seed", 3) == 0
    assert run("fit", "--workspace", ws, "--d", 4) == 0
    assert run("train", "--workspace", ws, "--variant", "A", "--epochs", 2,
               "--hidden-size", 8, "--n-layers", 2, "--batch-size", 64) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("evaluate", "--workspace", ws, "--n", 3) == 0
    assert not caught
    out = capsys.readouterr().out
    for name, block in json.loads((ws / "report.json").read_text())[
            "methods"].items():
        rates = block["well_edited_rates"]
        assert rates[0] is None and rates[1] is not None
        assert (f"{name}: mean rate {rates[1]:.3f} over 1 of 2 attributes, "
                "off-diagonal sum n/a, identity n/a") in out


def rewrite(name, change):
    """A corruption that replaces the workspace file ``name`` with
    ``change`` of its matrix."""
    return lambda ws: npyio.write_matrix(change(npyio.read_matrix(ws / name)),
                                         ws / name)


def add_column(a):
    return np.column_stack([a, a[:, :1]])


@pytest.mark.parametrize("corrupt, code, named", [
    (lambda ws: (ws / "model_meta.json").write_text("{"),
     cli.CONFIG_ERROR, "model_meta.json"),
    (lambda ws: (ws / "world_meta.json").write_text(
        json.dumps({"mapping_kind": "bogus", "seed": 5})),
     cli.CONFIG_ERROR, "world_meta.json"),
    (lambda ws: shutil.copy(ws / "enc_w0.npy", ws / "enc_w1.npy"),
     cli.DATA_ERROR, "enc_w1.npy"),
    (lambda ws: npyio.write_matrix(np.eye(8), ws / "pca_basis.npy"),
     cli.DATA_ERROR, "pca_basis.npy: shape (8, 8), but pca_mean.npy gives (16, 16)"),
    (lambda ws: npyio.write_matrix(np.ones((1, 5)), ws / "pca_eigenvalues.npy"),
     cli.DATA_ERROR, "pca_eigenvalues.npy: shape (1, 5), but pca_mean.npy gives "
     "(1, 16)"),
    (lambda ws: npyio.write_matrix(np.eye(2), ws / "world_mix.npy"),
     cli.DATA_ERROR, "world_mix.npy: shape (2, 2), but world_attr_directions.npy "
     "gives (3, 3)"),
    (lambda ws: npyio.write_matrix(np.ones((10, 8)), ws / "world_identity_basis.npy"),
     cli.DATA_ERROR, "world_identity_basis.npy: shape (10, 8), but "
     "world_attr_directions.npy gives (16, any)"),
    (lambda ws: npyio.write_matrix(np.ones((16, 0)), ws / "world_identity_basis.npy"),
     cli.DATA_ERROR, "world_identity_basis.npy: no columns, but identity "
     "similarity scores edits in the identity subspace"),
    (rewrite("attrs.npy", lambda a: a[:, :-1]),
     cli.DATA_ERROR, "attrs.npy: shape (3000, 2), but latents.npy with "
     "world_attr_directions.npy gives (3000, 3)"),
    (rewrite("attrs.npy", add_column),
     cli.DATA_ERROR, "attrs.npy: shape (3000, 4), but latents.npy with "
     "world_attr_directions.npy gives (3000, 3)"),
    (rewrite("latents.npy", lambda a: a[:, :-1]),
     cli.DATA_ERROR, "latents.npy: shape (3000, 15), but "
     "world_attr_directions.npy gives (any, 16)"),
    (rewrite("attr_tables.npy", lambda a: a[:-1]),
     cli.DATA_ERROR, "attr_tables.npy: shape (2, 3000), but model_meta.json "
     "gives (3, any)"),
], ids=["model-meta-not-json", "unknown-mapping-kind", "weights-do-not-chain",
        "pca-basis", "pca-eigenvalues", "world-mix", "world-identity-basis",
        "world-identity-basis-no-columns",
        "attrs-one-column-short", "attrs-one-column-over",
        "latents-one-column-short", "attr-tables-one-row-short"])
def test_evaluate_names_the_corrupt_workspace_file(workspace, tmp_path, capsys,
                                                   corrupt, code, named):
    ws = shutil.copytree(workspace, tmp_path / "ws")
    corrupt(ws)
    assert run("evaluate", "--workspace", ws, "--n", 64) == code
    assert named in capsys.readouterr().err


# lengths evaluate reads from the file itself: the samples behind the
# attribute transform's tables, and the identity subspace's dimension
FREE_LENGTHS = {("attr_tables.npy", "column"), ("world_identity_basis.npy", "column")}


def test_evaluate_refuses_every_workspace_matrix_one_row_or_column_short(
        workspace, tmp_path, capsys):
    ws = shutil.copytree(workspace, tmp_path / "ws")
    names = sorted(path.name for path in ws.glob("*.npy"))
    assert {"latents.npy", "attrs.npy", "attr_tables.npy", "enc_w0.npy",
            "world_identity_basis.npy"} <= set(names)
    capsys.readouterr()
    wrong = []
    for name in names:
        original = (ws / name).read_bytes()
        matrix = npyio.read_matrix(ws / name)
        for cut, short in (("row", matrix[:-1]), ("column", matrix[:, :-1])):
            npyio.write_matrix(short, ws / name)
            try:
                code = run("evaluate", "--workspace", ws, "--n", 16)
            except Exception as exc:  # the CLI let an error escape
                code = f"traceback {exc!r}"
            err = capsys.readouterr().err
            if (name, cut) in FREE_LENGTHS:
                if code != 0:
                    wrong.append((name, cut, code, err))
            elif code != cli.DATA_ERROR or name not in err:
                wrong.append((name, cut, code, err))
        (ws / name).write_bytes(original)
    assert not wrong


# the workspace files train reads
TRAIN_READS = {"latents.npy", "attrs.npy", "attr_tables.npy", "pca_mean.npy",
               "pca_basis.npy", "pca_eigenvalues.npy"}


def test_every_workspace_matrix_with_a_nan_or_infinity_is_refused(
        workspace, tmp_path, capsys):
    ws = shutil.copytree(workspace, tmp_path / "ws")
    names = sorted(path.name for path in ws.glob("*.npy"))
    assert TRAIN_READS | {"enc_b0.npy", "world_mix.npy"} <= set(names)
    capsys.readouterr()
    wrong = []
    for name in names:
        original = (ws / name).read_bytes()
        matrix = npyio.read_matrix(ws / name)
        row = matrix.shape[0] // 2
        commands = {"evaluate": (("--n", 16), "report.json")}
        if name in TRAIN_READS:
            commands["train"] = (("--epochs", 1, "--hidden-size", 8,
                                  "--n-layers", 2), "model_meta.json")
        for bad in (np.nan, np.inf):
            corrupt = matrix.copy()
            corrupt[row, -1] = bad
            np.save(ws / name, corrupt)  # write_matrix would refuse it
            for command, (flags, unwritten) in commands.items():
                (ws / unwritten).unlink(missing_ok=True)
                try:
                    code = run(command, "--workspace", ws, *flags)
                except Exception as exc:  # the CLI let an error escape
                    code = f"traceback {exc!r}"
                err = capsys.readouterr().err
                if (code != cli.NUMERIC_ERROR or (ws / unwritten).exists()
                        or f"{ws / name}: data row {row} is not finite" not in err):
                    wrong.append((name, bad, command, code, err))
                shutil.copy(workspace / "model_meta.json", ws)  # for train
        (ws / name).write_bytes(original)
    assert not wrong


def run_on_changed_tables(workspace, tmp_path, command, change):
    """Run ``command`` on a copy of ``workspace`` whose attr_tables.npy holds
    ``change`` of its matrix. Returns the exit code, the tables' path, and
    whether the file the command writes stayed unwritten."""
    ws = shutil.copytree(workspace, tmp_path / "ws")
    tables = ws / "attr_tables.npy"
    npyio.write_matrix(change(npyio.read_matrix(tables)), tables)
    src = tmp_path / "batch.npy"
    npyio.write_matrix(npyio.read_matrix(ws / "latents.npy")[:3], src)
    flags, unwritten = {
        "train": (("--epochs", 1, "--hidden-size", 8, "--n-layers", 2),
                  ws / "model_meta.json"),
        "edit": (("--latents", src, "--attribute", 1, "--target", "0.5",
                  "--raw", "--out", tmp_path / "edited.npy"),
                 tmp_path / "edited.npy"),
        "evaluate": (("--n", 16), ws / "report.json")}[command]
    unwritten.unlink(missing_ok=True)
    code = run(command, "--workspace", ws, *flags)
    return code, tables, not unwritten.exists()


@pytest.mark.parametrize("columns", [0, 1])
@pytest.mark.parametrize("command", ["train", "edit", "evaluate"])
def test_attribute_tables_of_fewer_than_two_samples_are_refused(
        workspace, tmp_path, capsys, columns, command):
    code, tables, unwritten = run_on_changed_tables(
        workspace, tmp_path, command, lambda t: t[:, :columns])
    assert code == cli.DATA_ERROR and unwritten
    assert (f"data error: {tables}: sample count {columns} is below 2"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["train", "edit", "evaluate"])
def test_attribute_tables_not_sorted_ascending_are_refused(
        workspace, tmp_path, capsys, command):
    # a reversed quantile table gaussianizes every value to the wrong side,
    # and the edits, training and scores that follow exit 0 on nonsense
    def reverse_row_1(t):
        t[1] = t[1, ::-1].copy()
        return t

    code, tables, unwritten = run_on_changed_tables(
        workspace, tmp_path, command, reverse_row_1)
    assert code == cli.DATA_ERROR and unwritten
    assert (f"data error: {tables}: row 1 is not sorted"
            in capsys.readouterr().err)


@pytest.mark.parametrize("corrupt, named", [
    (rewrite("attrs.npy", lambda a: a[:, :-1]),
     "attrs.npy: shape (3000, 2), but latents.npy with the fit in pca_mean.npy "
     "and attr_tables.npy gives (3000, 3)"),
    (rewrite("attrs.npy", add_column),
     "attrs.npy: shape (3000, 4), but latents.npy with the fit in pca_mean.npy "
     "and attr_tables.npy gives (3000, 3)"),
    (rewrite("latents.npy", add_column),
     "latents.npy: shape (3000, 17), but the fit in pca_mean.npy and "
     "attr_tables.npy gives (any, 16)"),
], ids=["attrs-one-column-short", "attrs-one-column-over",
        "latents-one-column-over"])
def test_train_names_a_dataset_file_of_another_width(workspace, tmp_path,
                                                     capsys, corrupt, named):
    ws = shutil.copytree(workspace, tmp_path / "ws")
    corrupt(ws)
    (ws / "loss_history.csv").unlink()
    assert run("train", "--workspace", ws, "--epochs", 1, "--hidden-size", 8,
               "--n-layers", 2) == cli.DATA_ERROR
    assert named in capsys.readouterr().err
    assert not (ws / "loss_history.csv").exists()


def test_edit_names_a_latents_file_of_another_width(workspace, tmp_path, capsys):
    src, out = tmp_path / "batch.npy", tmp_path / "edited.npy"
    npyio.write_matrix(np.ones((3, 5)), src)
    assert run("edit", "--workspace", workspace, "--latents", src,
               "--attribute", 1, "--target", "1.2", "--out", out) == cli.DATA_ERROR
    assert (f"data error: {src}: shape (3, 5), but pca_mean.npy gives (any, 16)"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "edit"])
def test_a_pca_split_other_than_the_code_size_names_both_files(
        workspace, tmp_path, capsys, command):
    ws = shutil.copytree(workspace, tmp_path / "ws")
    (ws / "pca_meta.json").write_text(json.dumps({"d": 7}))
    (ws / "report.json").unlink(missing_ok=True)
    src, out = tmp_path / "batch.npy", tmp_path / "edited.npy"
    npyio.write_matrix(npyio.read_matrix(ws / "latents.npy")[:3], src)
    argv = {"evaluate": ("--n", 16),
            "edit": ("--latents", src, "--attribute", 1, "--target", "1.2",
                     "--out", out)}[command]
    assert run(command, "--workspace", ws, *argv) == cli.DATA_ERROR
    assert (f"data error: {ws / 'pca_meta.json'}: d 7, but "
            f"{ws / 'model_meta.json'} gives code_size 8: run train again"
            in capsys.readouterr().err)
    assert not out.exists() and not (ws / "report.json").exists()


def set_attrs(ws, row, col, value):
    attrs = npyio.read_matrix(ws / "attrs.npy")
    attrs[row, col] = value
    np.save(ws / "attrs.npy", attrs)  # write_matrix would refuse a NaN


def empty_dataset(ws):
    for name, columns in (("latents.npy", 16), ("attrs.npy", 3)):
        npyio.write_matrix(np.zeros((0, columns)), ws / name)


@pytest.mark.parametrize("break_fit, code, named", [
    (lambda ws, mp: set_attrs(ws, slice(None), 1, 0.2),  # every label 0
     cli.DATA_ERROR, "attribute 1: both classes must be present"),
    (lambda ws, mp: empty_dataset(ws), cli.DATA_ERROR,
     "data error: the linear baseline needs at least 2 rows, got 0"),
], ids=["single-class", "no-rows"])
def test_evaluate_names_the_attribute_the_baseline_cannot_fit(
        workspace, tmp_path, capsys, monkeypatch, break_fit, code, named):
    ws = shutil.copytree(workspace, tmp_path / "ws")
    break_fit(ws, monkeypatch)
    assert run("evaluate", "--workspace", ws, "--n", 64) == code
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv, unwritten", [
    (("fit", "--d", 8), "pca_meta.json"),
    (("train", "--epochs", 1, "--hidden-size", 8, "--n-layers", 2),
     "model_meta.json"),
    (("evaluate", "--n", 16), "report.json")], ids=["fit", "train", "evaluate"])
def test_a_non_finite_attribute_is_refused_naming_the_file_and_row(
        workspace, tmp_path, capsys, argv, unwritten):
    ws = shutil.copytree(workspace, tmp_path / "ws")
    set_attrs(ws, 5, 2, np.nan)
    (ws / unwritten).unlink(missing_ok=True)
    command, *flags = argv
    assert run(command, "--workspace", ws, *flags) == cli.NUMERIC_ERROR
    assert (f"numeric failure: {ws / 'attrs.npy'}: data row 5 is not finite"
            in capsys.readouterr().err)
    assert not (ws / unwritten).exists()


def test_evaluate_report_equals_the_serially_built_report(workspace, tmp_path):
    # the report must be the one built from the same pieces called directly
    ws = shutil.copytree(workspace, tmp_path / "ws")
    argv = ["evaluate", "--workspace", ws, "--n", 128, "--seed", 3]
    assert run(*argv) == 0
    args = cli.build_parser().parse_args([str(a) for a in argv])
    world, pipeline = oracle.load_world(ws), cli._load_pipeline(ws)
    linear = baseline.fit_all_directions(
        *npyio.load_dataset(ws / "latents.npy", ws / "attrs.npy"))
    searches = {"autoencoder": functools.partial(editor.search_positive,
                                                 pipeline),
                "linear": linear.search_positive}
    methods = evaluation.score_methods(
        searches, lambda w: oracle.classify(world, w),
        lambda w: oracle.embed_identity(world, w),
        lambda n, seed: oracle.sample_w(world, n, seed), world.n_attributes,
        args.n, args.threshold, args.seed)
    report = evaluation.make_report(
        config={k: v for k, v in vars(args).items()
                if isinstance(v, (str, int, float, bool))},
        seeds={"evaluate": args.seed, "world": world.seed},
        amplitude_grid=editor.AMPLITUDE_QUANTILES,
        linear_amplitudes=baseline.DEFAULT_AMPLITUDES,
        threshold=args.threshold, methods=methods)
    assert (ws / "report.json").read_text() == json.dumps(report, indent=2)
    assert report["linear_amplitudes"] == list(baseline.DEFAULT_AMPLITUDES)


def test_evaluate_refuses_a_baseline_it_cannot_fit_before_any_search(
        workspace, tmp_path, capsys, monkeypatch):
    ws = shutil.copytree(workspace, tmp_path / "ws")
    set_attrs(ws, slice(None), 1, 0.2)  # every label 0
    searched = []
    monkeypatch.setattr(editor, "search_positive",
                        lambda *args: searched.append(args))
    assert run("evaluate", "--workspace", ws, "--n", 64) == cli.DATA_ERROR
    assert ("data error: attribute 1: both classes must be present"
            in capsys.readouterr().err)
    assert searched == []


@pytest.mark.parametrize("gen_flags, message", [
    (("--k", 5), "the world has 5 attributes but the model 3"),
    (("--k", 2), "the world has 2 attributes but the model 3"),
    (("--m", 20), "the world has 20 latent dimensions but the model 16")],
    ids=["more-attributes", "fewer-attributes", "other-dimension"])
def test_evaluate_refuses_a_world_that_does_not_match_the_model(
        workspace, tmp_path, capsys, gen_flags, message):
    ws = shutil.copytree(workspace, tmp_path / "ws")
    (ws / "report.json").unlink(missing_ok=True)
    assert run("gen-data", "--workspace", ws, "--n", 3000, "--m", 16,
               "--k", 3, "--q", 4, "--seed", 5, "--force", *gen_flags) == 0
    capsys.readouterr()
    assert run("evaluate", "--workspace", ws, "--n", 64) == cli.DATA_ERROR
    assert f"data error: {message}: run fit and train again" in \
        capsys.readouterr().err
    assert not (ws / "report.json").exists()


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


def test_missing_data_is_data_error(tmp_path):
    assert run("fit", "--workspace", tmp_path, "--d", 4) == cli.DATA_ERROR


def test_gen_data_refuses_negative_n(tmp_path, capsys):
    for n in (-5, 0):
        ws = tmp_path / str(n)
        assert run("gen-data", "--workspace", ws, "--n", n) == cli.CONFIG_ERROR
        assert f"config error: n={n} is below 1" in capsys.readouterr().err
        assert not ws.exists()


@pytest.mark.parametrize("flags", [("--seed", -1), ("--k", 0), ("--m", 8)],
                         ids=["seed-negative", "k-0", "m-8"])
def test_refused_gen_data_makes_no_workspace(tmp_path, flags):
    ws = tmp_path / "new"
    assert run("gen-data", "--workspace", ws, *flags) == cli.CONFIG_ERROR
    assert not ws.exists()


def test_evaluate_refuses_negative_seed_before_fitting(workspace, monkeypatch,
                                                       capsys):
    def no_fit(*args):
        raise AssertionError("the baseline was fitted")

    monkeypatch.setattr(baseline, "fit_all_directions", no_fit)
    assert run("evaluate", "--workspace", workspace, "--seed", -1) == cli.CONFIG_ERROR
    assert "config error: seed -1 is negative" in capsys.readouterr().err


def test_evaluate_refuses_negative_n(workspace, tmp_path, capsys):
    ws = shutil.copytree(workspace, tmp_path / "ws")
    (ws / "report.json").unlink(missing_ok=True)
    for n in (-1, 0):
        assert run("evaluate", "--workspace", ws, "--n", n) == cli.CONFIG_ERROR
        assert f"config error: n={n} is below 1" in capsys.readouterr().err
        assert not (ws / "report.json").exists()


@pytest.mark.parametrize("option, value", [
    ("--epochs", 0), ("--hidden-size", 0), ("--n-layers", 0),
    ("--learning-rate", -1), ("--alpha", "nan"), ("--beta", -1),
    ("--seed", -1), ("--batch-size", -5), ("--batch-size", 31)])
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
