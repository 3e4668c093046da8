import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latentaxes import baseline, editor, gaussianize, oracle, pca, training
from latentaxes.errors import DimensionMismatch, OracleFailure


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


def test_edits_run_in_float64_from_the_trained_or_the_loaded_model(tmp_path):
    world = oracle.make_world(12, 2, 3, seed=20)
    latents, attrs = oracle.build_dataset(world, 600, seed=21)
    pm = pca.fit_pca(latents, 6)
    tr = gaussianize.fit_transform(attrs)
    cfg = training.TrainConfig(epochs=2, batch_size=128, hidden_size=16,
                               n_layers=3)
    model, _ = training.train(pca.project(pm, latents).top,
                              gaussianize.gaussianize_columns(tr, attrs), cfg)
    training.save_model(model, cfg, tmp_path)
    loaded, _ = training.load_model(tmp_path)
    pipes = [editor.EditPipeline(pca=pm, transform=tr, model=m)
             for m in (model, loaded)]
    assert model.encoder.flat.dtype == np.float32  # widened, not changed
    assert loaded.encoder.flat.dtype == np.float32
    for pipe, source in zip(pipes, (model, loaded)):
        for net, given in ((pipe.model.encoder, source.encoder),
                           (pipe.model.decoder, source.decoder)):
            assert net.flat.dtype == np.float64
            # a copy: an edit cannot see a later change to the model
            assert not np.shares_memory(net.flat, given.flat)
    batch = latents[:8]
    trained, reloaded = (editor.edit(p, batch, 1, 1.5) for p in pipes)
    assert trained.tobytes() == reloaded.tobytes()
    for w in batch:
        trained, reloaded = (editor.edit(p, w, 1, 1.5) for p in pipes)
        assert trained.tobytes() == reloaded.tobytes()


def test_encode_shapes(setup):
    world, pipe, latents = setup
    code = editor.encode(pipe, latents[0])
    assert code.attr_slots.shape == (2,)
    assert code.free_slots.shape == (4,)
    assert code.residual.shape == (6,)


def test_slot_views_share_memory_with_the_code_vector(setup):
    world, pipe, latents = setup
    for w in (latents[0], latents[:3]):
        code = editor.encode(pipe, w)
        assert code.slots.shape[-1] == 6 and code.n_attributes == 2
        for view in (code.attr_slots, code.free_slots):
            assert np.shares_memory(view, code.slots)
        np.testing.assert_array_equal(
            np.concatenate([code.attr_slots, code.free_slots], axis=-1),
            code.slots)


def test_set_attribute_leaves_its_input_untouched(setup):
    world, pipe, latents = setup
    code = editor.encode(pipe, latents[:4])
    before = code.slots.tobytes()
    edited = editor.set_attribute(code, 1, 2.5)
    assert not np.shares_memory(edited.slots, code.slots)
    assert code.slots.tobytes() == before
    assert (edited.attr_slots[:, 1] == 2.5).all()


def test_decode_hands_the_code_vector_itself_to_the_decoder(setup,
                                                            monkeypatch):
    world, pipe, latents = setup
    code = editor.set_attribute(editor.encode(pipe, latents[:4]), 0, 1.0)
    seen = []
    real = editor.mlp_forward
    monkeypatch.setattr(editor, "mlp_forward",
                        lambda params, x: seen.append(x) or real(params, x))
    editor.decode(pipe, code)
    assert len(seen) == 1 and seen[0] is code.slots


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
    # `edit --raw` refuses a raw value outside [0, 1]: see test_cli
    world, pipe, latents = setup
    code = editor.encode(pipe, latents[6])
    median = float(np.median(pipe.transform.tables[0]))
    at_median = editor.set_attribute(
        code, 0, gaussianize.gaussianize_value(pipe.transform, 0, median))
    assert abs(at_median.attr_slots[0]) <= 1e-6
    # identical to gaussianizing a whole attribute row
    g = gaussianize.gaussianize_columns(pipe.transform, [0.9, 0.5])[0]
    a = editor.set_attribute(code, 0,
                             gaussianize.gaussianize_value(pipe.transform, 0, 0.9))
    b = editor.set_attribute(code, 0, g)
    np.testing.assert_array_equal(a.attr_slots, b.attr_slots)


def test_decode_residual_linearity(setup):
    world, pipe, latents = setup
    code = editor.encode(pipe, latents[7])
    zeroed = editor.EditableCode(code.slots, np.zeros_like(code.residual),
                                 code.n_attributes)
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


@pytest.mark.parametrize("k", [0, 1])
def test_single_edits_match_the_batched_edit(setup, k):
    # the slider's precision contract: a one-row edit equals that row of a
    # batched edit within 1e-12, and the PCA residual moves by at most 1e-9
    world, pipe, latents = setup
    assert pipe.model.n_attributes == 2
    rows = latents[:20]
    for q in (0.1, 0.75, 0.999):
        t = gaussianize.inv_norm_cdf(q)
        batched = editor.edit(pipe, rows, k, t)
        single = np.stack([editor.edit(pipe, w, k, t) for w in rows])
        np.testing.assert_allclose(single, batched, rtol=0, atol=1e-12)
        drift = (pca.project(pipe.pca, single).residual
                 - pca.project(pipe.pca, rows).residual)
        assert np.abs(drift).max() <= 1e-9


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
                     amplitudes=editor.AMPLITUDE_QUANTILES):
    """Per-sample reference for the batched searches: walk increasing
    amplitudes, edit_at(w, amplitude) -> edited latent, until the classifier's
    output for attribute k reaches the threshold.

    Returns (edited latent, success flag): the first edit that reaches the
    threshold, or on failure w itself.
    """
    if classify_fn(w)[k] >= 0.5:
        raise ValueError("amplitude search expects a k-negative sample")
    for amplitude in amplitudes:
        w_hat = edit_at(w, amplitude)
        if classify_fn(w_hat)[k] >= threshold:
            return w_hat, True
    return w, False


def ae_edit_at(pipe, k):
    return lambda w, q: editor.edit(pipe, w, k, gaussianize.inv_norm_cdf(q))


def assert_rows_match_reference(search_out, negatives, edit_at, k, classify,
                                threshold, amplitudes):
    edited, success = search_out
    for i, w in enumerate(negatives):
        w_hat, ok = amplitude_search(edit_at, w, k, classify, threshold,
                                     amplitudes)
        assert ok == success[i]
        if ok:
            np.testing.assert_allclose(w_hat, edited[i], atol=1e-12)
        else:  # a row that never hits comes back as its input, bit for bit
            assert edited[i].tobytes() == w.tobytes()


def test_amplitude_search_rejects_positive_sample(setup):
    world, pipe, latents = setup
    classify = lambda w: oracle.classify(world, w)
    w = 5.0 * world.attr_directions[0]
    assert classify(w)[0] > 0.9
    with pytest.raises(ValueError):
        amplitude_search(ae_edit_at(pipe, 0), w, 0, classify)


def test_amplitude_search_and_batch_agree(setup, monkeypatch):
    world, pipe, latents = setup
    classify = lambda w: oracle.classify(world, w)
    samples = oracle.sample_w(world, 128, 25)
    negatives = samples[classify(samples)[:, 0] < 0.5][:20]
    # the search converts its whole grid at once; the reference, one
    # quantile at a time
    calls = []
    monkeypatch.setattr(editor, "inv_norm_cdf",
                        lambda q: calls.append(q) or gaussianize.inv_norm_cdf(q))
    out = editor.search_positive(pipe, negatives, 0, classify)
    assert calls == [editor.AMPLITUDE_QUANTILES]
    assert_rows_match_reference(
        out, negatives, ae_edit_at(pipe, 0), 0, classify, 0.9,
        editor.AMPLITUDE_QUANTILES)


@pytest.fixture(scope="module")
def linear_setup():
    world = oracle.make_world(16, 3, 4, seed=7)
    latents, attrs = oracle.build_dataset(world, 3000, seed=8)
    return world, baseline.fit_all_directions(latents, attrs)


def test_linear_search_and_reference_agree(linear_setup, monkeypatch):
    world, lin = linear_setup
    classify = lambda w: oracle.classify(world, w)
    samples = oracle.sample_w(world, 256, 26)
    # the short grid (0.1 to 1.5) leaves some rows unedited
    amplitudes = baseline.DEFAULT_AMPLITUDES[:15]
    monkeypatch.setattr(baseline, "DEFAULT_AMPLITUDES", amplitudes)
    for k in range(3):
        negatives = samples[classify(samples)[:, k] < 0.5][:20]
        out = lin.search_positive(negatives, k, classify, 0.9)
        assert 0 < out[1].sum() < len(negatives)
        edit_at = lambda w, a: baseline.linear_edit(w, lin.units[k], a)
        assert_rows_match_reference(out, negatives, edit_at, k, classify,
                                    0.9, amplitudes)


@pytest.mark.parametrize("search", ["autoencoder", "linear"])
def test_search_classifies_only_pending_rows(setup, linear_setup, search):
    hits = []  # per classifier call, in row order: did the row hit

    def recording(w):
        out = oracle.classify(world, w)
        hits.append(out[:, 0] >= 0.9)
        return out

    if search == "autoencoder":
        world, pipe, _ = setup
        run = lambda w: editor.search_positive(pipe, w, 0, recording)
        n_candidates = len(editor.AMPLITUDE_QUANTILES)
    else:
        world, lin = linear_setup
        run = lambda w: lin.search_positive(w, 0, recording)
        n_candidates = len(baseline.DEFAULT_AMPLITUDES)
    samples = oracle.sample_w(world, 256, 28)
    negatives = samples[oracle.classify(world, samples)[:, 0] < 0.5]
    _, success = run(negatives)
    # replay the bisection's bounds: a probe holds the rows whose bounds
    # have not met, in row order
    lo = np.zeros(len(negatives), dtype=int)
    hi = np.full(len(negatives), n_candidates)
    for hit in hits:
        rows = np.flatnonzero(lo < hi)
        assert len(hit) == len(rows)
        mid = (lo[rows] + hi[rows]) // 2
        hi[rows[hit]], lo[rows[~hit]] = mid[hit], mid[~hit] + 1
    assert (lo == hi).all()
    np.testing.assert_array_equal(success, hi < n_candidates)
    assert success.any() and len(hits[-1]) < len(negatives)
    assert len(hits) <= np.ceil(np.log2(n_candidates + 1))


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
    with pytest.raises(OracleFailure, match="^classifier returned non-finite values$"):
        run(oracle.sample_w(world, 8, 27))


@pytest.mark.parametrize("n", [0, 8])
@pytest.mark.parametrize("search", ["autoencoder", "linear"])
def test_a_row_that_never_hits_comes_back_as_its_input(setup, linear_setup,
                                                        search, n):
    calls = []

    def never(w):  # attribute 0 never reaches the threshold
        calls.append(len(w))
        out = oracle.classify(world, w)
        out[:, 0] = 0.0
        return out

    if search == "autoencoder":
        world, pipe, _ = setup
        run = lambda w: editor.search_positive(pipe, w, 0, never)
        n_candidates = len(editor.AMPLITUDE_QUANTILES)
    else:
        world, lin = linear_setup
        run = lambda w: lin.search_positive(w, 0, never)
        n_candidates = len(baseline.DEFAULT_AMPLITUDES)
    latents = oracle.sample_w(world, n, 29)
    edited, success = run(latents)
    assert success.shape == (n,) and not success.any()
    assert edited.tobytes() == latents.tobytes()
    assert not np.shares_memory(edited, latents)
    # every probe misses on every row, and each miss keeps floor(c / 2) of
    # the c = n_candidates + 1 outcomes; an empty batch classifies nothing
    probes = (n_candidates + 1).bit_length() - 1
    assert calls == ([n] * probes if n else [])


# fake latents for first_hit: column 0 holds the row, column 1 the step of
# the candidate (-1 for an input row), so the classifier can look both up
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_first_hit_matches_a_per_row_bisection(data):
    n = data.draw(st.integers(0, 6), label="rows")
    n_candidates = data.draw(st.integers(1, 5), label="candidates")
    # outputs of attribute 1 at each row and step: rows may rise and fall,
    # and may never reach the threshold
    table = data.draw(arrays(np.float64, (n, n_candidates),
                             elements=st.sampled_from([0.1, 0.5, 0.89, 0.9, 1.0])),
                      label="table")
    nan_at = data.draw(st.none() | st.tuples(st.integers(0, max(n - 1, 0)),
                                             st.integers(0, n_candidates - 1)),
                       label="nan_at")
    threshold, k = 0.9, 1
    latents = np.column_stack([np.arange(n), np.full(n, -1.0)])
    calls = []

    def candidate(idx, rows):
        return np.column_stack([rows, idx]).astype(np.float64)

    def classify(w):
        rows, steps = w[:, 0].astype(int), w[:, 1].astype(int)
        calls.append(list(zip(rows.tolist(), steps.tolist())))
        out = np.zeros((len(w), 2))
        out[:, k] = table[rows, steps]
        if nan_at is not None:
            out[(rows == nan_at[0]) & (steps == nan_at[1]), k] = np.nan
        return out

    # the per-row reference: each row's probed steps, and its answer, the
    # final bound (n_candidates: no hit)
    probes, answer = [], []
    for r in range(n):
        lo, hi, probed = 0, n_candidates, []
        while lo < hi:
            mid = (lo + hi) // 2
            probed.append(mid)
            if table[r, mid] >= threshold:
                hi = mid
            else:
                lo = mid + 1
        probes.append(probed)
        answer.append(hi if hi < n_candidates else None)
    rounds = max(map(len, probes), default=0)
    assert rounds <= np.ceil(np.log2(n_candidates + 1))
    if nan_at is not None and nan_at[0] < n and nan_at[1] in probes[nan_at[0]]:
        with pytest.raises(OracleFailure):
            editor.first_hit(latents, k, classify, threshold, n_candidates,
                             candidate)
        return
    edited, success = editor.first_hit(latents, k, classify, threshold,
                                       n_candidates, candidate)
    np.testing.assert_array_equal(success, [a is not None for a in answer])
    for r in range(n):
        want = latents[r] if answer[r] is None else [r, answer[r]]
        assert edited[r].tobytes() == np.asarray(want, np.float64).tobytes()
        if (np.diff(table[r]) >= 0).all():  # never falls: the walk's answer
            first = np.flatnonzero(table[r] >= threshold)
            assert answer[r] == (first[0] if first.size else None)
    assert calls == [[(r, p[t]) for r, p in enumerate(probes) if len(p) > t]
                     for t in range(rounds)]


def test_pipeline_validates_dimensions(setup):
    world, pipe, latents = setup
    bad_pca = pca.fit_pca(np.random.default_rng(0).normal(size=(50, 12)), 5)
    with pytest.raises(DimensionMismatch,
                       match="^PCA split does not match encoder input$"):
        editor.EditPipeline(pca=bad_pca, transform=pipe.transform,
                            model=pipe.model)
    # the model has K = 2 attribute slots
    bad_transform = gaussianize.fit_transform(
        np.random.default_rng(1).uniform(size=(50, 3)))
    with pytest.raises(DimensionMismatch,
                       match="^transform/model attribute counts differ$"):
        editor.EditPipeline(pca=pipe.pca, transform=bad_transform,
                            model=pipe.model)
