import numpy as np
import pytest

from sfdalab.errors import (
    ConfigError,
    DivergenceError,
    InvalidInputError,
    ParseError,
    ShapeError,
)
from sfdalab.model import (
    PARAM_NAMES,
    MlpModel,
    backward,
    forward,
    init_model,
    load_checkpoint,
    predict_labels,
    save_checkpoint,
    sgd_step,
)
from sfdalab.numerics import finite_diff_grad, max_relative_error
from sfdalab.objectives import attract_disperse_loss, cross_entropy_loss


def tiny_model():
    # hand-set 1-wide layers so the forward value can be checked by hand
    return MlpModel(
        W1=np.array([[2.0]]), b1=np.array([0.5]),
        W2=np.array([[-1.0]]), b2=np.array([1.0]),
        Wc=np.array([[1.0, -1.0]]), bc=np.array([0.0, 0.5]),
    )


class TestInitModel:
    def test_deterministic(self):
        a = init_model(2, 15, 15, 2, seed=0)
        b = init_model(2, 15, 15, 2, seed=0)
        for k in a.params():
            np.testing.assert_array_equal(a.params()[k], b.params()[k])

    def test_seeds_differ(self):
        a = init_model(2, 15, 15, 2, seed=0)
        b = init_model(2, 15, 15, 2, seed=1)
        assert not np.array_equal(a.W1, b.W1)

    def test_param_count(self):
        assert init_model(2, 15, 15, 2, seed=0).n_params() == 317

    def test_biases_zero(self):
        m = init_model(3, 4, 5, 6, seed=2)
        assert np.all(m.b1 == 0) and np.all(m.b2 == 0) and np.all(m.bc == 0)

    def test_glorot_range(self):
        m = init_model(50, 30, 20, 10, seed=3)
        a = np.sqrt(6.0 / (50 + 30))
        assert np.all(np.abs(m.W1) <= a)

    def test_zero_dim_rejected(self):
        with pytest.raises(ConfigError):
            init_model(0, 5, 5, 2, seed=0)
        for dims, name in [((2, 15.0, 15, 2), "h1"), ((2.0, 15, 15, 2), "d_in"),
                           ((2, 15, "15", 2), "h_feat"), ((2, 15, 15, 2.5), "n_classes")]:
            with pytest.raises(ConfigError, match=name):
                init_model(*dims)
        for seed in (1.5, -1, "0"):
            with pytest.raises(ConfigError, match="seed"):
                init_model(2, 15, 15, 2, seed=seed)

    @pytest.mark.parametrize("dims", [(2, 15, 15, 10**12), (2, 10**12, 15, 2)])
    def test_dims_too_large_to_allocate_raise_a_shape_error(self, dims):
        # fails at allocation, without touching memory
        with pytest.raises(ShapeError, match=f"h1 {dims[1]}, .* n_classes {dims[3]} is too large"):
            init_model(*dims, seed=0)


class TestForward:
    def test_zero_weights_uniform(self):
        m = init_model(2, 3, 3, 4, seed=0)
        m.theta[...] = 0.0
        P = forward(m, [[0.3, -0.7], [5.0, 2.0]]).P
        np.testing.assert_allclose(P, 0.25, atol=1e-15)

    def test_hand_computed_value(self):
        m = tiny_model()
        # x=1.5: pre1=3.5, relu passes, feature=-3.5+1=-2.5,
        # logits=(-2.5, 3.0), p0 = 1/(1+e^{5.5})
        cache = forward(m, [[1.5]])
        assert cache.pre1[0, 0] == 3.5
        assert cache.features[0, 0] == -2.5
        np.testing.assert_allclose(cache.logits[0], [-2.5, 3.0])
        np.testing.assert_allclose(cache.P[0, 0], 1.0 / (1.0 + np.exp(5.5)), rtol=1e-14)

    def test_hand_computed_relu_clips(self):
        m = tiny_model()
        # x=-1: pre1=-1.5 clipped to 0, feature=1, logits=(1, -0.5)
        cache = forward(m, [[-1.0]])
        assert cache.hidden[0, 0] == 0.0
        np.testing.assert_allclose(cache.logits[0], [1.0, -0.5])

    def test_row_permutation(self):
        m = init_model(2, 5, 5, 3, seed=4)
        rng = np.random.Generator(np.random.PCG64(0))
        X = rng.normal(size=(7, 2))
        perm = rng.permutation(7)
        np.testing.assert_array_equal(forward(m, X).P[perm], forward(m, X[perm]).P)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            forward(init_model(2, 3, 3, 2, seed=0), [[1.0, 2.0, 3.0]])


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        m = init_model(2, 4, 4, 3, seed=1)
        cache = forward(m, [[0.1, 0.2], [0.5, -0.5]])
        grad = backward(m, cache, np.zeros_like(cache.P))
        assert grad.shape == (m.n_params(),)
        for g in m.views(grad).values():
            assert np.all(g == 0)

    def test_relu_subgradient_at_zero_is_zero(self):
        m = tiny_model()
        m.b1[0] = -2.0 * 0.7  # pre1 exactly 0 for x=0.7
        cache = forward(m, [[0.7]])
        assert cache.pre1[0, 0] == 0.0
        grads = m.views(backward(m, cache, np.array([[1.0, -1.0]])))
        assert np.all(grads["W1"] == 0) and np.all(grads["b1"] == 0)

    def test_a_later_call_leaves_an_earlier_gradient_alone(self):
        m = init_model(2, 4, 4, 3, seed=1)
        cache = forward(m, [[0.1, 0.2], [0.5, -0.5]])
        first = backward(m, cache, np.ones_like(cache.P) - cache.P)
        kept = first.copy()
        second = backward(m, cache, np.zeros_like(cache.P))
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes() and not (second != 0).any()

    def test_stale_cache_rejected(self):
        m = init_model(2, 4, 4, 3, seed=1)
        cache = forward(m, [[0.1, 0.2]])
        other = init_model(2, 4, 5, 3, seed=1)
        with pytest.raises(ShapeError):
            backward(other, cache, np.zeros_like(cache.P))

    def _check_through_model(self, loss_of_P, seed):
        m = init_model(2, 5, 6, 3, seed=seed)
        rng = np.random.Generator(np.random.PCG64(seed + 100))
        X = rng.normal(size=(6, 2))
        cache = forward(m, X)
        res = loss_of_P(cache.P)
        analytic = backward(m, cache, res.grad)
        probe = m.clone()

        def f(flat):
            probe.theta[...] = flat
            return loss_of_P(forward(probe, X).P).value

        numeric = finite_diff_grad(f, m.theta, h=1e-5)
        assert max_relative_error(analytic, numeric) <= 1e-4

    def test_cross_entropy_through_model_matches_oracle(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        for seed in range(3):
            self._check_through_model(lambda P: cross_entropy_loss(P, labels), seed)

    def test_attract_disperse_through_model_matches_oracle(self):
        rng = np.random.Generator(np.random.PCG64(9))
        nbr = rng.dirichlet(np.ones(3), size=(6, 2))
        for seed in range(3):
            self._check_through_model(
                lambda P: attract_disperse_loss(P, nbr, lam=0.7), seed)

    def test_cross_entropy_softmax_composition(self):
        # chained through the softmax VJP the logit gradient is (P - onehot)/bs
        m = init_model(2, 4, 4, 3, seed=5)
        X = np.array([[0.2, -0.4], [1.0, 0.3]])
        cache = forward(m, X)
        labels = np.array([2, 0])
        res = cross_entropy_loss(cache.P, labels)
        from sfdalab.model import softmax_vjp

        dlogits = softmax_vjp(cache.P, res.grad)
        onehot = np.zeros_like(cache.P)
        onehot[np.arange(2), labels] = 1.0
        np.testing.assert_allclose(dlogits, (cache.P - onehot) / 2.0, atol=1e-12)


class TestSgdStep:
    def test_vanilla_step(self):
        m = init_model(1, 2, 2, 2, seed=0)
        before = m.theta.copy()
        sgd_step(m, np.ones(m.n_params()), lr=0.1, momentum=0.0)
        np.testing.assert_allclose(m.theta, before - 0.1, atol=1e-15)

    def test_zero_grad_noop(self):
        m = init_model(1, 2, 2, 2, seed=0)
        before = m.theta.copy()
        sgd_step(m, np.zeros(m.n_params()), lr=0.1, momentum=0.9)
        np.testing.assert_array_equal(m.theta, before)

    def test_momentum_two_steps(self):
        # v1 = g, v2 = 0.9 g + g -> total displacement lr*g*(1 + 1.9)
        m = init_model(1, 2, 2, 2, seed=0)
        before = m.theta.copy()
        g = np.full(m.n_params(), 2.0)
        sgd_step(m, g, lr=0.1, momentum=0.9)
        sgd_step(m, g, lr=0.1, momentum=0.9)
        np.testing.assert_allclose(m.theta, before - 0.1 * 2.0 * 2.9, atol=1e-12)

    def test_bad_lr_rejected(self):
        m = init_model(1, 2, 2, 2, seed=0)
        g = np.zeros(m.n_params())
        with pytest.raises(ConfigError):
            sgd_step(m, g, lr=0.0, momentum=0.0)
        with pytest.raises(ConfigError):
            sgd_step(m, g, lr=0.1, momentum=1.0)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf])
    def test_non_finite_lr_rejected(self, lr):
        m = init_model(1, 2, 2, 2, seed=0)
        g = np.zeros(m.n_params())
        with pytest.raises(ConfigError, match="lr"):
            sgd_step(m, g, lr=lr, momentum=0.0)

    def test_non_finite_grads_rejected(self):
        m = init_model(1, 2, 2, 2, seed=0)
        g = np.zeros(m.n_params())
        m.views(g)["W1"][0, 0] = np.nan
        with pytest.raises(DivergenceError, match="W1"):
            sgd_step(m, g, lr=0.1, momentum=0.0)

    def test_reset_velocity(self):
        m = init_model(1, 2, 2, 2, seed=0)
        sgd_step(m, np.ones(m.n_params()), lr=0.1, momentum=0.9)
        assert (m.velocity != 0).all()
        m.reset_velocity()
        assert (m.velocity == 0).all()


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        m = init_model(2, 15, 15, 2, seed=7)
        p = tmp_path / "ckpt.json"
        save_checkpoint(m, p)
        m2 = load_checkpoint(p)
        np.testing.assert_array_equal(m.theta, m2.theta)
        assert (m2.d_in, m2.h1, m2.h_feat, m2.n_classes) == (2, 15, 15, 2)
        assert m2.seed == 7

    def test_loaded_model_has_fresh_momentum(self, tmp_path):
        m = init_model(2, 3, 3, 2, seed=0)
        sgd_step(m, np.ones(m.n_params()), lr=0.1, momentum=0.9)
        p = tmp_path / "ckpt.json"
        save_checkpoint(m, p)
        m2 = load_checkpoint(p)
        assert m2.velocity.shape == (m2.n_params(),) and (m2.velocity == 0).all()

    def test_version_field_checked(self, tmp_path):
        m = init_model(2, 3, 3, 2, seed=0)
        p = tmp_path / "ckpt.json"
        save_checkpoint(m, p)
        import json

        doc = json.loads(p.read_text())
        assert doc["format_version"] == 1
        doc["format_version"] = 99
        p.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError):
            load_checkpoint(p)

    @pytest.mark.parametrize("edit,named", [
        (lambda d: d["params"]["b2"].__setitem__(1, float("nan")), "b2"),
        (lambda d: d["params"].pop("Wc"), "Wc"),
        (lambda d: d["params"]["b1"].__setitem__(0, "x"), "b1"),
        (lambda d: d["dims"].pop("h_feat"), "h_feat"),
        (lambda d: d["dims"].__setitem__("h1", 4), "W1"),
        (lambda d: d["dims"].__setitem__("n_classes", True), "n_classes"),
    ], ids=["non-finite", "missing-param", "non-numeric", "missing-dim", "dims-mismatch",
            "dim-bool"])
    def test_bad_checkpoint_rejected(self, tmp_path, edit, named):
        import json

        p = tmp_path / "ckpt.json"
        save_checkpoint(init_model(2, 3, 3, 2, seed=0), p)
        doc = json.loads(p.read_text())
        edit(doc)
        p.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match=named):
            load_checkpoint(p)

    @pytest.mark.parametrize("content,error,named", [
        (b"[1, 2]", InvalidInputError, "JSON object"),
        (b'{"format_version": 1, "dims": [], "params": {}}', InvalidInputError, "dims"),
        (b'{"format_version": 1, "dims": {}, "params": []}', InvalidInputError, "params"),
        (b"not json", ParseError, "ckpt.json: not valid JSON"),
        (b'{"format_version": 1, "seed": "\xff"}', ParseError, "ckpt.json: not UTF-8"),
        ("x", InvalidInputError, "seed"),
        (1.5, InvalidInputError, "seed"),
        (-1, InvalidInputError, "seed"),
        (True, InvalidInputError, "seed"),
    ], ids=["array", "dims-list", "params-list", "not-json", "not-utf8",
            "seed-str", "seed-float", "seed-negative", "seed-bool"])
    def test_malformed_file_fails_at_the_boundary(self, tmp_path, content, error, named):
        import json

        p = tmp_path / "ckpt.json"
        if isinstance(content, bytes):
            p.write_bytes(content)
        else:   # a seed value in an otherwise valid checkpoint
            save_checkpoint(init_model(2, 3, 3, 2, seed=0), p)
            doc = json.loads(p.read_text())
            doc["seed"] = content
            p.write_text(json.dumps(doc))
        with pytest.raises(error, match=named):
            load_checkpoint(p)


class TestFlatParams:
    def test_round_trip(self):
        # every named parameter is a view into theta, so copying theta
        # copies the model
        m = init_model(3, 4, 5, 2, seed=1)
        m2 = init_model(3, 4, 5, 2, seed=9)
        m2.theta[...] = m.theta
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(m2.params()[name], m.params()[name])

    def test_wrong_length_rejected(self):
        m = init_model(3, 4, 5, 2, seed=1)
        with pytest.raises(ShapeError):
            m.views(np.zeros(m.n_params() - 1))

    def test_predict_labels_matches_argmax(self):
        m = init_model(2, 4, 4, 3, seed=2)
        rng = np.random.Generator(np.random.PCG64(3))
        X = rng.normal(size=(10, 2))
        np.testing.assert_array_equal(predict_labels(m, X),
                                      np.argmax(forward(m, X).P, axis=1))


class TestFlatLayout:
    def test_each_parameter_is_a_view_of_theta(self):
        m = init_model(3, 4, 5, 2, seed=1)
        for name in PARAM_NAMES:
            assert np.shares_memory(getattr(m, name), m.theta)
            assert np.shares_memory(m.params()[name], m.theta)
        np.testing.assert_array_equal(
            m.theta, np.concatenate([getattr(m, k).ravel() for k in PARAM_NAMES]))
        m.theta[-1] = 7.0
        assert m.bc[-1] == 7.0

    def test_parameters_cannot_be_rebound(self):
        m = init_model(3, 4, 5, 2, seed=1)
        with pytest.raises(AttributeError):
            m.W1 = np.zeros((3, 4))

    def test_views_name_the_parts_of_any_vector_in_the_layout(self):
        m = init_model(3, 4, 5, 2, seed=1)
        flat = np.arange(m.n_params(), dtype=np.float64)
        parts = m.views(flat)
        assert list(parts) == list(PARAM_NAMES)
        for name, part in parts.items():
            assert part.shape == getattr(m, name).shape
            assert np.shares_memory(part, flat)
        with pytest.raises(ShapeError):
            m.views(flat[:-1])

    def test_backward_concatenates_the_layer_gradients(self):
        m = init_model(2, 4, 3, 3, seed=5)
        cache = forward(m, [[0.2, -0.4], [1.0, 0.3], [-0.5, 0.9]])
        dP = np.array([[0.1, -0.2, 0.3], [0.0, 0.5, -0.5], [1.0, 0.0, -1.0]])
        grad = backward(m, cache, dP)
        assert grad.shape == (m.n_params(),) and grad.dtype == np.float64
        from sfdalab.model import softmax_vjp

        dlogits = softmax_vjp(cache.P, dP)
        np.testing.assert_array_equal(m.views(grad)["Wc"], cache.features.T @ dlogits)
        np.testing.assert_array_equal(m.views(grad)["bc"], dlogits.sum(axis=0))

    def test_clone_shares_no_memory_and_copies_velocity(self):
        m = init_model(3, 4, 5, 2, seed=1)
        sgd_step(m, np.linspace(-1.0, 1.0, m.n_params()), lr=0.1, momentum=0.9)
        twin = m.clone()
        assert not np.shares_memory(twin.theta, m.theta)
        assert not np.shares_memory(twin.velocity, m.velocity)
        for name in PARAM_NAMES:
            assert np.shares_memory(getattr(twin, name), twin.theta)
            assert not np.shares_memory(getattr(twin, name), m.theta)
        assert twin.theta.tobytes() == m.theta.tobytes()
        assert twin.velocity.tobytes() == m.velocity.tobytes()
        assert twin.seed == m.seed
        sgd_step(twin, np.ones(m.n_params()), lr=0.1, momentum=0.9)
        assert not np.array_equal(twin.theta, m.theta)

    def test_rejected_gradient_leaves_the_model_untouched(self):
        # the only NaN sits in bc, the last parameter in the layout
        m = init_model(3, 4, 5, 2, seed=1)
        sgd_step(m, np.linspace(-1.0, 1.0, m.n_params()), lr=0.1, momentum=0.9)
        theta, velocity = m.theta.tobytes(), m.velocity.tobytes()
        g = np.ones(m.n_params())
        m.views(g)["bc"][-1] = np.nan
        with pytest.raises(DivergenceError, match="bc"):
            sgd_step(m, g, lr=0.1, momentum=0.9)
        assert m.theta.tobytes() == theta and m.velocity.tobytes() == velocity

    @pytest.mark.parametrize("shape", [(316,), (318,), (1, 317), (317, 1)])
    def test_wrong_gradient_shape_rejected(self, shape):
        m = init_model(2, 15, 15, 2, seed=0)
        theta = m.theta.tobytes()
        with pytest.raises(ShapeError):
            sgd_step(m, np.zeros(shape), lr=0.1, momentum=0.0)
        assert m.theta.tobytes() == theta and (m.velocity == 0).all()
