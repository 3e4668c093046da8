import numpy as np
import pytest

from latentaxes import baseline, editor, gaussianize, oracle, pca, training


@pytest.fixture(scope="module")
def setup():
    world = oracle.make_world(12, 2, 3, seed=20)
    latents, attrs = oracle.build_dataset(world, 2000, seed=21)
    pm = pca.fit_pca(latents, 6)
    tr = gaussianize.fit_transform(attrs)
    top = pca.project(pm, latents).top
    ag = gaussianize.gaussianize_columns(tr, attrs)
    cfg = training.TrainConfig(alpha=1.0, beta=0.3, epochs=40, batch_size=128,
                               learning_rate=2e-3, hidden_size=32, n_layers=4,
                               seed=22)
    model, _ = training.train(top, ag, cfg)
    pipe = editor.EditPipeline(pca=pm, transform=tr, model=model)
    return world, pipe, latents


def test_encode_shapes(setup):
    world, pipe, latents = setup
    code = editor.encode(pipe, latents[0])
    assert code.attr_slots.shape == (2,)
    assert code.free_slots.shape == (4,)
    assert code.residual.shape == (6,)


def test_residual_passes_through_bit_exact(setup):
    world, pipe, latents = setup
    w = latents[5]
    split = pca.project(pipe.pca, w)
    code = editor.encode(pipe, w)
    np.testing.assert_array_equal(code.residual, split.residual)


def test_set_attribute_touches_only_one_slot(setup):
    world, pipe, latents = setup
    code = editor.encode(pipe, latents[1])
    edited = editor.set_attribute(code, 1, 2.5)
    assert edited.attr_slots[1] == 2.5
    assert edited.attr_slots[0] == code.attr_slots[0]
    np.testing.assert_array_equal(edited.free_slots, code.free_slots)
    np.testing.assert_array_equal(edited.residual, code.residual)


def test_set_attribute_involution(setup):
    world, pipe, latents = setup
    code = editor.encode(pipe, latents[2])
    orig = code.attr_slots[0]
    back = editor.set_attribute(editor.set_attribute(code, 0, 9.0), 0, orig)
    np.testing.assert_array_equal(back.attr_slots, code.attr_slots)


def test_set_attribute_noop(setup):
    world, pipe, latents = setup
    code = editor.encode(pipe, latents[3])
    same = editor.set_attribute(code, 0, code.attr_slots[0])
    np.testing.assert_array_equal(same.attr_slots, code.attr_slots)


def test_free_slots_invariant_under_edit_sequences(setup):
    world, pipe, latents = setup
    code = editor.encode(pipe, latents[4])
    seq = code
    for k, v in [(0, 1.0), (1, -2.0), (0, 0.5), (1, 3.0), (0, -1.5)]:
        seq = editor.set_attribute(seq, k, v)
    assert seq.free_slots.tobytes() == code.free_slots.tobytes()
    assert seq.residual.tobytes() == code.residual.tobytes()


def test_set_attribute_index_range(setup):
    world, pipe, latents = setup
    code = editor.encode(pipe, latents[0])
    with pytest.raises(IndexError):
        editor.set_attribute(code, 2, 0.0)


def test_set_attribute_raw(setup):
    world, pipe, latents = setup
    code = editor.encode(pipe, latents[6])
    median = float(np.median(pipe.transform.tables[0]))
    at_median = editor.set_attribute(code, 0,
                                     editor.raw_to_slot(pipe, 0, median))
    assert abs(at_median.attr_slots[0]) <= 1e-6
    # identical to composing with the explicit gaussianization
    g = gaussianize.gaussianize_value(pipe.transform, 0, 0.9)
    a = editor.set_attribute(code, 0, editor.raw_to_slot(pipe, 0, 0.9))
    b = editor.set_attribute(code, 0, g)
    np.testing.assert_array_equal(a.attr_slots, b.attr_slots)
    with pytest.raises(ValueError):
        editor.raw_to_slot(pipe, 0, 1.5)


def test_decode_residual_linearity(setup):
    world, pipe, latents = setup
    code = editor.encode(pipe, latents[7])
    zeroed = editor.EditableCode(code.attr_slots, code.free_slots,
                                 np.zeros_like(code.residual))
    diff = editor.decode(pipe, code) - editor.decode(pipe, zeroed)
    trailing = pipe.pca.basis[:, pipe.pca.split:]
    np.testing.assert_allclose(diff, trailing @ code.residual, atol=1e-10)


def test_edit_noop_equals_reconstruction(setup):
    world, pipe, latents = setup
    w = latents[8]
    code = editor.encode(pipe, w)
    recon = editor.decode(pipe, code)
    noop = editor.edit(pipe, w, 0, float(code.attr_slots[0]))
    np.testing.assert_array_equal(noop, recon)


def test_reconstruction_error_small_after_training(setup):
    world, pipe, latents = setup
    held = oracle.sample_w(world, 256, 23)
    recon = editor.decode(pipe, editor.encode(pipe, held))
    err = np.mean(np.sum((held - recon) ** 2, axis=1))
    assert err < 1.0  # most of the 12-dim energy reconstructed


def test_edit_moves_oracle_output_monotonically(setup):
    world, pipe, latents = setup
    classify = lambda w: oracle.classify(world, w)
    samples = oracle.sample_w(world, 64, 24)
    targets = gaussianize.inv_norm_cdf(np.linspace(0.1, 0.99, 9))
    ok = 0
    for w in samples:
        vals = [classify(editor.edit(pipe, w, 0, t))[0] for t in targets]
        if (np.diff(vals) > -0.02).all():
            ok += 1
    assert ok >= 0.9 * len(samples)


def amplitude_search(edit_at, w, k, classify_fn, threshold=0.9,
                     amplitudes=editor.DEFAULT_AMPLITUDE_QUANTILES):
    """Per-sample reference for the batched searches: walk increasing
    amplitudes, edit_at(w, amplitude) -> edited latent, until the classifier's
    output for attribute k reaches the threshold.

    Returns (edited latent, success flag, achieved raw value). On failure the
    latent with the highest achieved value is returned.
    """
    if classify_fn(w)[k] >= 0.5:
        raise ValueError("amplitude search expects a k-negative sample")
    best_w, best_val = None, -np.inf
    for amplitude in amplitudes:
        w_hat = edit_at(w, amplitude)
        val = classify_fn(w_hat)[k]
        if val >= threshold:
            return w_hat, True, float(val)
        if val > best_val:
            best_w, best_val = w_hat, val
    return best_w, False, float(best_val)


def ae_edit_at(pipe, k):
    return lambda w, q: editor.edit(pipe, w, k, gaussianize.inv_norm_cdf(q))


def assert_rows_match_reference(search_out, negatives, edit_at, k, classify,
                                threshold, amplitudes):
    edited, success, achieved = search_out
    for i, w in enumerate(negatives):
        w_hat, ok, val = amplitude_search(edit_at, w, k, classify, threshold,
                                          amplitudes)
        assert ok == success[i]
        assert val == pytest.approx(achieved[i], abs=1e-12)
        np.testing.assert_allclose(w_hat, edited[i], atol=1e-12)


def test_amplitude_search_rejects_positive_sample(setup):
    world, pipe, latents = setup
    classify = lambda w: oracle.classify(world, w)
    w = 5.0 * world.attr_directions[0]
    assert classify(w)[0] > 0.9
    with pytest.raises(ValueError):
        amplitude_search(ae_edit_at(pipe, 0), w, 0, classify)


def test_amplitude_search_and_batch_agree(setup):
    world, pipe, latents = setup
    classify = lambda w: oracle.classify(world, w)
    samples = oracle.sample_w(world, 128, 25)
    negatives = samples[classify(samples)[:, 0] < 0.5][:20]
    assert_rows_match_reference(
        editor.search_positive(pipe, negatives, 0, classify), negatives,
        ae_edit_at(pipe, 0), 0, classify, 0.9, editor.DEFAULT_AMPLITUDE_QUANTILES)


@pytest.fixture(scope="module")
def linear_setup():
    world = oracle.make_world(16, 3, 4, seed=7)
    latents, attrs = oracle.build_dataset(world, 3000, seed=8)
    return world, baseline.fit_all_directions(latents, attrs)


def test_linear_search_and_reference_agree(linear_setup, monkeypatch):
    world, lin = linear_setup
    classify = lambda w: oracle.classify(world, w)
    samples = oracle.sample_w(world, 256, 26)
    # the short grid leaves some rows on their best-so-far edit
    amplitudes = baseline.DEFAULT_AMPLITUDES[:3]
    monkeypatch.setattr(baseline, "DEFAULT_AMPLITUDES", amplitudes)
    for k in range(3):
        negatives = samples[classify(samples)[:, k] < 0.5][:20]
        out = lin.search_positive(negatives, k, classify, 0.9)
        assert 0 < out[1].sum() < len(negatives)
        edit_at = lambda w, a: baseline.linear_edit(w, lin.directions[k], a)
        assert_rows_match_reference(out, negatives, edit_at, k, classify,
                                    0.9, amplitudes)


@pytest.mark.parametrize("search", ["autoencoder", "linear"])
def test_search_rejects_non_finite_classifier_output(setup, linear_setup, search):
    def nan_for_last_row(w):
        out = oracle.classify(world, w)
        out[-1, -1] = np.nan
        return out

    if search == "autoencoder":
        world, pipe, _ = setup
        run = lambda w: editor.search_positive(pipe, w, 0, nan_for_last_row)
    else:
        world, lin = linear_setup
        run = lambda w: lin.search_positive(w, 0, nan_for_last_row)
    with pytest.raises(editor.OracleFailure):
        run(oracle.sample_w(world, 8, 27))


def test_pipeline_validates_dimensions(setup):
    world, pipe, latents = setup
    bad_pca = pca.fit_pca(np.random.default_rng(0).normal(size=(50, 12)), 5)
    with pytest.raises(Exception):
        editor.EditPipeline(pca=bad_pca, transform=pipe.transform,
                            model=pipe.model)
