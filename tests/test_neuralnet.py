import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdisc import neuralnet as nn


def tiny_model(seed=0, bands=2, n_norm=16, hidden=6, layers=3, out_dim=2):
    cfg = nn.EncodingConfig(bands=bands, n_norm=n_norm)
    return nn.init_mlp(cfg, out_dim=out_dim, hidden=hidden, layers=layers, seed=seed)


class TestEncoding:
    def test_zero_index(self):
        cfg = nn.EncodingConfig(bands=3, n_norm=10)
        enc = nn.encode_index(cfg, 0)
        np.testing.assert_allclose(enc, [0, 0, 1, 0, 1, 0, 1], atol=1e-15)

    def test_index_at_norm(self):
        cfg = nn.EncodingConfig(bands=1, n_norm=8)
        enc = nn.encode_index(cfg, 8)
        np.testing.assert_allclose(enc, [1.0, np.sin(np.pi), np.cos(np.pi)], atol=1e-15)
        assert enc[2] == -1.0

    def test_frequency_ladder(self):
        cfg = nn.EncodingConfig(bands=2, n_norm=8)
        enc = nn.encode_index(cfg, 2)
        s2 = np.sqrt(0.5)
        np.testing.assert_allclose(
            enc, [0.25, s2, s2, 1.0, np.cos(np.pi / 2)], atol=1e-15
        )

    def test_width(self):
        assert nn.EncodingConfig(bands=5, n_norm=4).width == 11

    def test_injective_on_training_range(self):
        cfg = nn.EncodingConfig(bands=1, n_norm=64)
        encs = nn.encode_indices(cfg, np.arange(0, 65))
        assert len(np.unique(encs[:, 0])) == 65

    def test_validation(self):
        with pytest.raises(ValueError):
            nn.EncodingConfig(bands=0, n_norm=4)
        with pytest.raises(ValueError):
            nn.EncodingConfig(bands=1, n_norm=0)


class TestForward:
    def test_zero_weights_give_half(self):
        model = tiny_model()
        for w in model.weights:
            w[...] = 0.0
        pts = nn.forward(model, [1, 2, 3])
        np.testing.assert_allclose(pts, 0.5)

    def test_deterministic(self):
        model = tiny_model(seed=4)
        a = nn.forward(model, [3, 3, 7])
        b = nn.forward(model, [3, 3, 7])
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a[0], a[1])

    def test_hand_computed_chain(self):
        # one hidden layer, all shapes 1: sigmoid(w2*relu(w1*e+b1)+b2)
        cfg = nn.EncodingConfig(bands=1, n_norm=4)
        model = nn.MlpModel(
            encoding=cfg,
            weights=[np.array([[1.0], [2.0], [-1.0]]), np.array([[3.0]])],
            biases=[np.array([0.5]), np.array([-0.25])],
        )
        i = 1
        e = nn.encode_index(cfg, i)
        z1 = e @ model.weights[0] + 0.5
        h = max(z1[0], 0.0)
        z2 = 3.0 * h - 0.25
        expected = 1.0 / (1.0 + np.exp(-z2))
        assert nn.forward(model, [i])[0, 0] == pytest.approx(expected, rel=1e-15)

    def test_output_strictly_inside_unit_cube(self):
        model = tiny_model(seed=1)
        model.weights[-1][...] *= 200.0  # push the sigmoid into saturation
        pts = nn.forward(model, np.arange(1, 17))
        assert (pts > 0.0).all() and (pts < 1.0).all()

    def test_extrapolation_flagged(self):
        model = tiny_model(n_norm=16)
        with pytest.warns(nn.ExtrapolationWarning):
            nn.forward(model, [17])

    def test_init_is_seeded(self):
        a = tiny_model(seed=9)
        b = tiny_model(seed=9)
        for pa, pb in zip(a.params(), b.params()):
            np.testing.assert_array_equal(pa, pb)


class TestBackward:
    def loss_and_grad(self, model, indices, direction):
        pts = nn.forward(model, indices)
        return float((pts * direction).sum()), nn.backward(model, indices, direction)

    def test_zero_upstream(self):
        model = tiny_model()
        grads = nn.backward(model, [1, 2], np.zeros((2, 2)))
        for g in grads:
            np.testing.assert_array_equal(g, 0.0)

    def test_upstream_linearity(self):
        model = tiny_model(seed=3)
        up = np.random.default_rng(0).normal(size=(3, 2))
        g1 = nn.backward(model, [1, 2, 3], up)
        g3 = nn.backward(model, [1, 2, 3], 3.0 * up)
        for a, b in zip(g1, g3):
            np.testing.assert_allclose(3.0 * a, b, rtol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            model = tiny_model(
                seed=trial,
                bands=int(rng.integers(1, 3)),
                hidden=int(rng.integers(2, 8)),
                layers=int(rng.integers(1, 4)),
                out_dim=int(rng.integers(1, 3)),
            )
            # random biases keep pre-activations off the ReLU kinks, where
            # the subgradient convention and the central secant differ
            for b in model.biases:
                b += rng.normal(scale=0.1, size=b.shape)
            indices = rng.integers(1, 16, size=4)
            direction = rng.normal(size=(4, model.out_dim))
            _, grads = self.loss_and_grad(model, indices, direction)
            h = 1e-6
            for p, g in zip(model.params(), grads):
                flat_p = p.ravel()
                flat_g = g.ravel()
                for slot in rng.choice(flat_p.size, size=min(4, flat_p.size), replace=False):
                    orig = flat_p[slot]
                    flat_p[slot] = orig + h
                    up, _ = self.loss_and_grad(model, indices, direction)
                    flat_p[slot] = orig - h
                    dn, _ = self.loss_and_grad(model, indices, direction)
                    flat_p[slot] = orig
                    ref = (up - dn) / (2 * h)
                    assert flat_g[slot] == pytest.approx(ref, rel=1e-5, abs=1e-9)

    def test_shape_mismatch(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="upstream"):
            nn.backward(model, [1, 2], np.zeros((2, 5)))


# ---------------------------------------------------------------------------
# The fresh-array forward, backward and Adam step the buffered ones replaced.
# They are the oracle: every buffered result must have the same bits.

def reference_forward_encoded(model, enc):
    acts = [enc]
    h = enc
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        if l < last:
            h = np.maximum(z, 0.0)
        else:
            h = np.empty_like(z)
            pos = z >= 0
            h[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            h[~pos] = ez / (1.0 + ez)
        acts.append(h)
    return np.clip(h, 1e-15, 1.0 - 1e-15), acts


def reference_backward_encoded(model, acts, upstream):
    grads = [None] * (2 * len(model.weights))
    s = acts[-1]
    delta = upstream * s * (1.0 - s)
    for l in range(len(model.weights) - 1, -1, -1):
        grads[2 * l] = acts[l].T @ delta
        grads[2 * l + 1] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ model.weights[l].T) * (acts[l] > 0.0)
    return grads


def reference_adam_step(state, params, grads, lr):
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


class TestBufferedMatchesFresh:
    @pytest.mark.parametrize("layers", [1, 2, 4])
    @pytest.mark.parametrize("out_dim", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 256])
    def test_forward_and_backward(self, layers, out_dim, n):
        model = tiny_model(seed=layers + 10 * out_dim, bands=3, n_norm=n, hidden=32, layers=layers,
                           out_dim=out_dim)
        rng = np.random.default_rng(n)
        for b in model.biases:  # some ReLUs off, some on, and a saturated sigmoid or two
            b += rng.normal(scale=0.5, size=b.shape)
        model.biases[-1][0] = -40.0
        ws = nn.Workspace(model, n)
        for step in range(3):  # the same workspace, reused with new inputs
            enc = nn.encode_indices(model.encoding, rng.permutation(n) + 1)
            upstream = rng.normal(size=(n, out_dim))
            want_points, want_acts = reference_forward_encoded(model, enc)
            points, acts = nn._forward_encoded(model, enc, ws)
            assert acts is ws and points is ws.points
            np.testing.assert_array_equal(points, want_points)
            for got, want in zip(acts, want_acts, strict=True):
                np.testing.assert_array_equal(got, want)
            grads = nn._backward_encoded(model, acts, upstream)
            want_grads = reference_backward_encoded(model, want_acts, upstream)
            for got, want in zip(grads, want_grads, strict=True):
                np.testing.assert_array_equal(got, want)
            for p in model.params():  # move the model so the next round differs
                p += rng.normal(scale=0.05, size=p.shape)

    def test_adam_step_matches_reference_over_50_steps(self):
        model, ref = tiny_model(seed=3, hidden=16), tiny_model(seed=3, hidden=16)
        state = nn.AdamState.for_params(model.params())
        ref_state = nn.AdamState.for_params(ref.params())
        rng = np.random.default_rng(5)
        for step in range(50):
            grads = [rng.normal(scale=10.0 ** rng.integers(-6, 2), size=p.shape) for p in model.params()]
            lr = 10.0 ** rng.uniform(-4, -1)
            nn.adam_step(state, model.params(), grads, lr)
            reference_adam_step(ref_state, ref.params(), grads, lr)
            assert state.step == ref_state.step == step + 1
            for got, want in zip(model.params() + state.m + state.v,
                                 ref.params() + ref_state.m + ref_state.v, strict=True):
                np.testing.assert_array_equal(got, want)

    def test_public_results_do_not_alias(self):
        model = tiny_model(seed=2)
        a = nn.forward(model, [1, 2, 3])
        b = nn.forward(model, [1, 2, 3])
        np.testing.assert_array_equal(a, b)
        assert not np.shares_memory(a, b)
        a_before = a.copy()
        nn.forward(model, [4, 5, 6])
        np.testing.assert_array_equal(a, a_before)
        up = np.ones((3, 2))
        g1, g2 = nn.backward(model, [1, 2, 3], up), nn.backward(model, [1, 2, 3], up)
        for x, y in zip(g1, g2, strict=True):
            np.testing.assert_array_equal(x, y)
            assert not np.shares_memory(x, y)


class TestIndexBoundary:
    BAD = {
        "2-d": (np.array([[1, 2], [3, 4]]), "1-D"),
        "nan": ([np.nan], "integers"),
        "negative": ([-3, 1], "nonnegative"),
        "fraction": ([1.5, 2], "integers"),
        "infinite": ([1.0, np.inf], "integers"),
    }

    @pytest.mark.parametrize("indices, match", BAD.values(), ids=BAD)
    def test_forward_and_backward_reject(self, indices, match):
        model = tiny_model()
        with pytest.raises(ValueError, match=f"indices .*{match}"):
            nn.forward(model, indices)
        with pytest.raises(ValueError, match=f"indices .*{match}"):
            nn.backward(model, indices, np.zeros((np.size(indices), 2)))

    def test_integral_floats_and_zero_give_the_same_bits(self):
        model = tiny_model(seed=7)
        want = reference_forward_encoded(model, nn.encode_indices(model.encoding, np.arange(0, 5)))[0]
        np.testing.assert_array_equal(nn.forward(model, [0, 1, 2, 3, 4]), want)
        np.testing.assert_array_equal(nn.forward(model, [0.0, 1.0, 2.0, 3.0, 4.0]), want)
        assert nn.forward(model, []).shape == (0, 2)


class TestParameterLists:
    def test_load_params_rejects_a_short_list(self):
        model = tiny_model()
        before = model.copy_params()
        with pytest.raises(ValueError, match="params holds 2 arrays, expected 6"):
            model.load_params(model.copy_params()[:2])
        for a, b in zip(model.params(), before, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_load_params_names_the_first_wrong_shape(self):
        model = tiny_model()
        params = model.copy_params()
        params[3] = np.zeros(7)
        with pytest.raises(ValueError, match=r"params\[3\] \(layer 1 bias\) has shape \(7,\), expected \(6,\)"):
            model.load_params(params)

    def test_copy_params_into_a_given_set(self):
        model = tiny_model(seed=1)
        out = [np.empty_like(p) for p in model.params()]
        assert model.copy_params(out) is out
        for got, want in zip(out, model.params(), strict=True):
            np.testing.assert_array_equal(got, want)
            assert not np.shares_memory(got, want)

    def test_adam_step_rejects_short_or_misshapen_gradients(self):
        model = tiny_model()
        before = model.copy_params()
        state = nn.AdamState.for_params(model.params())
        grads = [np.ones_like(p) for p in model.params()]
        with pytest.raises(ValueError, match="grads holds 4 arrays, expected 6"):
            nn.adam_step(state, model.params(), grads[:4], lr=0.1)
        grads[4] = np.ones((2, 6))
        with pytest.raises(ValueError, match=r"grads\[4\] \(layer 2 weights\) has shape \(2, 6\)"):
            nn.adam_step(state, model.params(), grads, lr=0.1)
        assert state.step == 0
        for a, b in zip(model.params(), before, strict=True):
            np.testing.assert_array_equal(a, b)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        model = tiny_model(seed=5)
        before = model.copy_params()
        state = nn.AdamState.for_params(model.params())
        nn.adam_step(state, model.params(), [np.zeros_like(p) for p in model.params()], lr=0.1)
        for a, b in zip(model.params(), before):
            np.testing.assert_array_equal(a, b)

    def test_zero_lr_leaves_params(self):
        model = tiny_model(seed=6)
        before = model.copy_params()
        grads = [np.ones_like(p) for p in model.params()]
        state = nn.AdamState.for_params(model.params())
        nn.adam_step(state, model.params(), grads, lr=0.0)
        for a, b in zip(model.params(), before):
            np.testing.assert_array_equal(a, b)

    def test_constant_gradient_fixed_point(self):
        # with a constant gradient g the update magnitude approaches lr*sign(g)
        param = np.array([0.0])
        params = [param]
        state = nn.AdamState.for_params(params)
        lr = 0.01
        grad = [np.array([2.5])]
        prev = param.copy()
        for _ in range(500):
            prev = param.copy()
            nn.adam_step(state, params, grad, lr)
        assert abs(prev[0] - param[0]) == pytest.approx(lr, rel=1e-3)
        assert param[0] < 0

    def test_nonfinite_gradient_names_layer(self):
        model = tiny_model()
        grads = [np.zeros_like(p) for p in model.params()]
        grads[2][0, 0] = np.nan
        state = nn.AdamState.for_params(model.params())
        with pytest.raises(ValueError, match="layer 1 weights"):
            nn.adam_step(state, model.params(), grads, lr=0.1)


class TestSerialization:
    def test_roundtrip_bit_identical(self, tmp_path):
        model = tiny_model(seed=11, bands=3, n_norm=128, hidden=10, layers=4, out_dim=3)
        model.meta.update({"loss_family": "sym", "burn_in": 128, "n_train": 128})
        path = tmp_path / "model.nn"
        nn.save_model(model, path)
        loaded = nn.load_model(path)
        idx = np.arange(1, 40)
        np.testing.assert_array_equal(nn.forward(model, idx), nn.forward(loaded, idx))
        assert loaded.encoding == model.encoding
        assert loaded.meta["loss_family"] == "sym"
        assert loaded.meta["burn_in"] == 128

    def test_sidecar_written(self, tmp_path):
        model = tiny_model()
        model.meta["loss_family"] = "star"
        path = tmp_path / "m.nn"
        nn.save_model(model, path)
        sidecar = tmp_path / "m.nn.meta"
        assert sidecar.exists()
        text = sidecar.read_text()
        assert "loss_family: star" in text
        assert "bands: 2" in text

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nn"
        path.write_bytes(b"NOTMODEL" + b"\0" * 64)
        with pytest.raises(ValueError, match="magic"):
            nn.load_model(path)


class TestTruncatedModel:
    @pytest.mark.parametrize("keep", [-1, -200, 64 + 4])
    def test_names_the_file(self, tmp_path, keep):
        path = tmp_path / "cut.nn"
        nn.save_model(tiny_model(), path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match="cut.nn: truncated model file"):
            nn.load_model(path)


HEADER_FIELDS = ("magic", "version", "bands", "n_norm", "burn_in", "seed", "n_layers", "family")


def saved_bytes(folder, widths=None, suffix=b"", last_bias=0.0, **header):
    """A saved tiny model (layer widths 5, 6, 6, 2) with header fields,
    layer widths and its last bias replaced and ``suffix`` appended."""
    model = tiny_model()
    model.meta["loss_family"] = "sym"
    model.biases[-1][-1] = last_bias
    nn.save_model(model, folder / "saved.nn")
    data = (folder / "saved.nn").read_bytes()
    fields = dict(zip(HEADER_FIELDS, nn._HEADER.unpack_from(data)))
    fields.update(header)
    widths = np.asarray(widths or model.layer_dims, "<u4").tobytes()
    return nn._HEADER.pack(*fields.values()) + widths + data[nn._HEADER.size + len(widths):] + suffix


MALFORMED_MODELS = {
    "no-layers": (dict(n_layers=0), "n_layers 0"),
    "first-width-not-encoding": (dict(widths=[4, 6, 6, 2]), "encoding width"),
    "zero-bands": (dict(bands=0), "bands 0"),
    "zero-n-norm": (dict(n_norm=0), "n_norm 0"),
    "family-not-utf8": (dict(family=b"\xffsym"), "not UTF-8"),
    "zero-width": (dict(widths=[5, 6, 0, 2]), "widths"),
    "trailing-bytes": (dict(suffix=b"\0"), "trailing bytes"),
    "nan-bias": (dict(last_bias=np.nan), "non-finite parameters"),
}


class TestMalformedModel:
    @pytest.mark.parametrize("change, match", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS)
    def test_names_the_file(self, tmp_path, change, match):
        path = tmp_path / "bad.nn"
        path.write_bytes(saved_bytes(tmp_path, **change))
        with pytest.raises(ValueError, match=f"bad.nn: .*{match}"):
            nn.load_model(path)

    @given(draw=st.data())
    @settings(max_examples=200, deadline=None)
    def test_damaged_file_fails_or_round_trips(self, tmp_path_factory, draw):
        """Truncated or flipped bytes either raise a ValueError naming the
        file or load into a model that saves back to the same bytes."""
        folder = tmp_path_factory.mktemp("damaged")
        data = bytearray(saved_bytes(folder))
        flips = draw.draw(st.lists(st.tuples(st.integers(0, len(data) - 1), st.integers(1, 255)), max_size=4))
        for pos, mask in flips:
            data[pos] ^= mask
        data = bytes(data[:draw.draw(st.integers(0, len(data)))])
        path = folder / "d.nn"
        path.write_bytes(data)
        try:
            model = nn.load_model(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
        nn.save_model(model, path)
        assert path.read_bytes() == data
