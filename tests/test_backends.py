import numpy as np
import pytest

from ecad import backends
from ecad.backends import BackendSpec, fit, init_mlp_params
from ecad.ensemble import AggregatorSpec, train_ensemble
from ecad.panel import FeatureGrid, build_features

from _oracles import gauss_solve, mlp_loss, mlp_loss_and_gradients


def test_ridge_interpolates_noiseless_linear_data():
    x = np.linspace(-2, 2, 30)[:, None]
    y = 2.0 * x[:, 0]
    model = fit(BackendSpec(kind="ridge", ridge_lambda=0.0), x, y)
    assert model.params["weights"].shape == (1, 1)
    assert model.params["weights"][0, 0] == pytest.approx(2.0, abs=1e-8)
    assert np.max(np.abs(model.predict(x)[0] - y)) < 1e-8


def test_ridge_infinite_penalty_predicts_mean():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    model = fit(BackendSpec(kind="ridge", ridge_lambda=1e12), X, y)
    assert np.max(np.abs(model.params["weights"])) < 1e-9
    assert np.allclose(model.predict(X)[0], y.mean(), atol=1e-8)


def test_ridge_matches_hand_rolled_normal_equations():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    model = fit(BackendSpec(kind="ridge", ridge_lambda=1.0), X, y)
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    expected = gauss_solve(Xc.T @ Xc + np.eye(3), Xc.T @ yc)
    assert np.allclose(model.params["weights"][0], expected, atol=1e-10)


def test_ridge_zero_residual_on_training_point():
    x = np.linspace(0, 1, 10)[:, None]
    y = 3.0 * x[:, 0] + 1.0
    model = fit(BackendSpec(kind="ridge", ridge_lambda=0.0), x, y)
    assert abs(model.predict(x[:1])[0, 0] - y[0]) < 1e-8


def test_predict_duplicated_rows_give_duplicated_outputs():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(15, 4))
    y = rng.normal(size=15)
    model = fit(BackendSpec(kind="ridge"), X, y)
    probe = np.vstack([X[3], X[3]])
    out = model.predict(probe)
    assert out.shape == (1, 2)
    assert out[0, 0] == out[0, 1]


def test_ridge_affine_equivariance_in_targets():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(25, 3))
    y = rng.normal(size=25)
    probe = rng.normal(size=(6, 3))
    base = fit(BackendSpec(kind="ridge", ridge_lambda=2.0), X, y).predict(probe)[0]
    for a, b in [(2.5, -1.0), (-0.7, 4.2)]:
        scaled = fit(BackendSpec(kind="ridge", ridge_lambda=2.0), X, a * y + b).predict(probe)[0]
        assert np.allclose(scaled, a * base + b, atol=1e-8)


def test_fit_rejects_bad_inputs():
    spec = BackendSpec(kind="ridge")
    with pytest.raises(ValueError, match="non-finite"):
        fit(spec, np.array([[np.nan]]), np.array([1.0]))
    with pytest.raises(ValueError):
        fit(spec, np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError):
        fit(spec, np.ones((3, 2)), np.ones(4))
    # with bag counts, X is a FeatureGrid of n_blocks times, y its (n_blocks, K)
    # targets and counts (B, n_blocks); a built grid is not taken
    grid = FeatureGrid(np.ones((5, 2)), np.array([[0, 1], [1, 0]]), 2)
    with pytest.raises(ValueError, match="X must be a panel.FeatureGrid"):
        fit(spec, grid[:], grid.y, np.ones((2, 3), dtype=int))
    with pytest.raises(ValueError, match="one row per entry"):
        fit(spec, grid, np.ones((3, 3)), np.ones((2, 3), dtype=int))
    with pytest.raises(ValueError, match="bag counts"):
        fit(spec, grid, grid.y, np.ones((2, 4), dtype=int))
    with pytest.raises(ValueError, match="non-finite"):
        fit(spec, FeatureGrid(np.full((5, 2), np.inf), grid.neighbors, 2), grid.y, np.ones((2, 3), dtype=int))
    with pytest.raises(ValueError, match="unknown backend"):
        fit(BackendSpec(kind="forest"), np.ones((3, 2)), np.ones(3))


def test_fit_rejects_diverged_mlp():
    # a step size of 0.5 on standardized data drives the (64, 64) net to
    # non-finite weights, whose predictions would score every point as NaN
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 3))
    y = X @ np.array([1.0, 2.0, 3.0]) + rng.normal(size=200)
    spec = BackendSpec(
        kind="mlp", mlp_hidden=(64, 64), mlp_epochs=20, mlp_learning_rate=0.5, seed=0
    )
    with pytest.raises(ValueError, match="mlp_learning_rate"):
        fit(spec, X, y)


def test_bagged_mlp_fit_stops_at_the_first_diverged_bag(monkeypatch):
    # 20 blocks of 10 rows (3 lags of 10 random walks), every bag drawing each block once
    rng = np.random.default_rng(0)
    grid = FeatureGrid(rng.normal(size=(23, 10)).cumsum(axis=0), np.arange(10)[:, None], 3)
    spec = BackendSpec(
        kind="mlp", mlp_hidden=(64, 64), mlp_epochs=20, mlp_learning_rate=0.5, seed=0
    )
    fitted, fit_mlp = [], backends._fit_mlp
    monkeypatch.setattr(backends, "_fit_mlp", lambda *args: fitted.append(args) or fit_mlp(*args))
    with pytest.raises(ValueError, match="MLP fit of bag 0 diverged"):
        fit(spec, grid, grid.y, np.ones((4, 20), dtype=np.int64))
    assert len(fitted) == 1


def test_predict_rejects_dimension_mismatch():
    model = fit(BackendSpec(kind="ridge"), np.ones((4, 3)), np.ones(4))
    with pytest.raises(ValueError, match="dimension"):
        model.predict(np.ones((2, 2)))


def test_mlp_learns_sine():
    # fixed-seed convergence run; achieved max residual 0.0512, pinned below 0.1
    x = np.linspace(-np.pi, np.pi, 200)[:, None]
    y = np.sin(x[:, 0])
    spec = BackendSpec(kind="mlp", mlp_hidden=(32,), mlp_epochs=1000, mlp_learning_rate=0.1, seed=1)
    model = fit(spec, x, y)
    assert np.max(np.abs(model.predict(x)[0] - y)) < 0.1


def test_mlp_gradients_match_central_differences():
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(3):
        weights, biases = init_mlp_params(3, (4,), rng)
        X = rng.normal(size=(5, 3))
        y = rng.normal(size=5)
        _, grad_w, grad_b = mlp_loss_and_gradients(weights, biases, X, y)
        for params, grads in ((weights, grad_w), (biases, grad_b)):
            for arr, grad in zip(params, grads):
                flat, gflat = arr.ravel(), grad.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    up = mlp_loss(weights, biases, X, y)
                    flat[i] = orig - h
                    down = mlp_loss(weights, biases, X, y)
                    flat[i] = orig
                    fd = (up - down) / (2 * h)
                    denom = max(abs(fd), abs(gflat[i]), 1e-8)
                    assert abs(fd - gflat[i]) / denom < 1e-4


def test_both_backends_deterministic_under_fixed_seed():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    probe = rng.normal(size=(5, 3))
    for spec in [
        BackendSpec(kind="ridge", ridge_lambda=0.5, seed=9),
        BackendSpec(kind="mlp", mlp_hidden=(8,), mlp_epochs=50, mlp_learning_rate=0.05, seed=9),
    ]:
        first = fit(spec, X, y).predict(probe)
        second = fit(spec, X, y).predict(probe)
        assert np.array_equal(first, second)


def test_mlp_standardizes_inputs():
    # wildly scaled features should not break training
    rng = np.random.default_rng(6)
    X = np.column_stack([rng.normal(size=50) * 1e4, rng.normal(size=50) * 1e-4])
    y = X[:, 0] / 1e4 + X[:, 1] * 1e4
    spec = BackendSpec(kind="mlp", mlp_hidden=(16,), mlp_epochs=500, mlp_learning_rate=0.1, seed=0)
    model = fit(spec, X, y)
    assert np.mean((model.predict(X)[0] - y) ** 2) < 0.05 * np.var(y)


def test_backend_spec_validation():
    with pytest.raises(ValueError):
        BackendSpec(ridge_lambda=-1.0)
    with pytest.raises(ValueError):
        BackendSpec(kind="mlp", mlp_hidden=(0,))
    with pytest.raises(ValueError):
        BackendSpec(kind="mlp", mlp_learning_rate=0.0)


def _reference_loss_and_gradients(weights, biases, X, y):
    """The allocating backpropagation the in-place kernel must reproduce bit for bit."""
    n = X.shape[0]
    a = X
    activations = [X]
    pre = []
    for W, b in zip(weights[:-1], biases[:-1]):
        z = a @ W + b
        pre.append(z)
        a = np.maximum(z, 0.0)
        activations.append(a)
    out = activations[-1] @ weights[-1] + biases[-1]
    pred = out[:, 0]
    loss = float(np.mean((pred - y) ** 2))

    grad_w = [np.zeros_like(W) for W in weights]
    grad_b = [np.zeros_like(b) for b in biases]
    delta = (2.0 / n) * (pred - y)[:, None]
    grad_w[-1] = activations[-1].T @ delta
    grad_b[-1] = delta.sum(axis=0)
    upstream = delta @ weights[-1].T
    for layer in range(len(weights) - 2, -1, -1):
        dz = upstream * (pre[layer] > 0)
        grad_w[layer] = activations[layer].T @ dz
        grad_b[layer] = dz.sum(axis=0)
        upstream = dz @ weights[layer].T
    return loss, grad_w, grad_b


def _reference_fit_mlp(spec, X, y):
    """(weights, biases) of the allocating training loop, one new array per step."""
    x_std = X.std(axis=0)
    Xs = (X - X.mean(axis=0)) / np.where(x_std < 1e-12, 1.0, x_std)
    y_std = float(y.std())
    ys = (y - float(y.mean())) / (1.0 if y_std < 1e-12 else y_std)
    rng = np.random.default_rng(0 if spec.seed is None else spec.seed)
    weights, biases = init_mlp_params(X.shape[1], spec.mlp_hidden, rng)
    lr = spec.mlp_learning_rate
    for _ in range(spec.mlp_epochs):
        _, grad_w, grad_b = _reference_loss_and_gradients(weights, biases, Xs, ys)
        for i in range(len(weights)):
            weights[i] = weights[i] - lr * grad_w[i]
            biases[i] = biases[i] - lr * grad_b[i]
    return weights, biases


# (64, 64) is the default net; (1,) sends a hidden layer through the width-1 bias sum
# and the width-1 back-product
@pytest.mark.parametrize("hidden", [(16, 16), (32,), (4,), (64, 64), (1,)])
@pytest.mark.parametrize("n_rows", [1, 7, 3950])
@pytest.mark.parametrize("lr", [1e-3, 0.05])
def test_mlp_fit_bit_identical_to_allocating_reference(hidden, n_rows, lr):
    rng = np.random.default_rng(n_rows)
    X = rng.normal(size=(n_rows, 25))
    y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=n_rows)
    spec = BackendSpec(kind="mlp", mlp_hidden=hidden, mlp_epochs=40, mlp_learning_rate=lr, seed=3)
    model = fit(spec, X, y)
    ref_w, ref_b = _reference_fit_mlp(spec, X, y)
    assert len(model.weights) == len(ref_w) == len(hidden) + 1
    for got, want in zip(model.weights + model.biases, ref_w + ref_b):
        assert got.shape == (1, *want.shape)
        assert np.array_equal(got[0], want)


@pytest.mark.parametrize("width", [1, 2, 16, 64])
@pytest.mark.parametrize("n_rows", [1, 7, 2500])
def test_backprop_bias_gradients_are_column_sums_bit_for_bit(width, n_rows):
    rng = np.random.default_rng(width * n_rows)
    weights, biases = init_mlp_params(5, (width,), rng)
    biases = [rng.normal(size=b.shape) for b in biases]
    X, y = rng.normal(size=(n_rows, 5)), rng.normal(size=n_rows)
    ws = backends._MLPWorkspace(weights, n_rows)
    backends._backprop(ws, weights, biases, X, y, rng.uniform(0.5, 2.0, n_rows) / n_rows)
    # the deltas stay in the workspace: hidden layer 0 of the given width, output layer 1 of width 1
    for grad, delta in zip(ws.grad_b, ws.deltas):
        assert grad.tobytes() == delta.sum(axis=0).tobytes()


def test_mlp_loss_and_gradients_equal_reference_and_are_not_reused():
    rng = np.random.default_rng(8)
    weights, biases = init_mlp_params(6, (5, 3), rng)
    X, y = rng.normal(size=(11, 6)), rng.normal(size=11)
    loss, grad_w, grad_b = mlp_loss_and_gradients(weights, biases, X, y)
    ref_loss, ref_w, ref_b = _reference_loss_and_gradients(weights, biases, X, y)
    assert loss == ref_loss
    for got, want in zip(grad_w + grad_b, ref_w + ref_b):
        assert np.array_equal(got, want)
    kept = [g.copy() for g in grad_w + grad_b]
    mlp_loss_and_gradients(weights, biases, 2.0 * X, -y)
    for got, want in zip(grad_w + grad_b, kept):
        assert np.array_equal(got, want)


def test_mlp_ensemble_models_share_no_memory_and_equal_standalone_fits(monkeypatch):
    # 30 times of 3 sensors, 4 lags of each sensor's own values
    rng = np.random.default_rng(9)
    n_times, n_sensors = 30, 3
    values = rng.normal(size=(n_times + 4, n_sensors))
    feats = values, np.arange(n_sensors)[:, None], 4
    _, X, y = build_features(*feats)
    spec = BackendSpec(kind="mlp", mlp_hidden=(5, 3), mlp_epochs=15, mlp_learning_rate=0.05, seed=4)
    fitted, fit_mlp = [], backends._fit_mlp
    monkeypatch.setattr(backends, "_fit_mlp", lambda *args: fitted.append(args) or fit_mlp(*args))
    ens = train_ensemble(*feats, spec, n_models=6, aggregator=AggregatorSpec("mean"), seed=2)
    assert (ens.plan.multiplicity > 1).any(), "no bag repeats a time"
    stacks = ens.model.weights + ens.model.biases
    arrays = [stack[b] for b in range(ens.n_models) for stack in stacks]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)
    assert len(fitted) == ens.n_models
    for b, (_, X_fit, y_fit, draws) in enumerate(fitted):
        # each bag trains once over its distinct rows, a row weighted by its time's draws
        distinct = np.unique(ens.plan.in_bag[b]) - 4  # grid rows of the bag's times
        assert np.array_equal(X_fit, X[distinct].reshape(-1, 4))
        assert np.array_equal(y_fit, y[distinct].ravel())
        drawn = ens.plan.multiplicity[b]
        assert np.array_equal(draws, np.repeat(drawn[drawn > 0], n_sensors))
        assert draws.sum() == ens.plan.in_bag[b].size * n_sensors
    monkeypatch.undo()
    for b in range(ens.n_models):
        # ... and equals a fit on its rows in ascending time order, duplicates repeated
        bag = np.sort(ens.plan.in_bag[b]) - 4
        alone = fit(spec, X[bag].reshape(-1, 4), y[bag].ravel())
        for got, want in zip(stacks, alone.weights + alone.biases):
            assert np.max(np.abs(got[b] - want[0])) <= 1e-10 * np.max(np.abs(want[0])), b


@pytest.mark.parametrize("hidden, lr", [((5, 3), 0.05), ((16, 16), 1e-3), ((16, 16), 0.05)])
def test_bagged_mlp_fits_equal_fits_on_gathered_bags(hidden, lr):
    # 20 blocks of 3 rows (2 lags of 3 sensors, each a neighbour of all), bags
    # that draw some blocks repeatedly
    rng = np.random.default_rng(12)
    grid = FeatureGrid(np.sin(rng.normal(size=(22, 3)).cumsum(axis=0)), np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]]), 2)
    X, y = grid[:], grid.y
    counts = rng.multinomial(20, np.full(20, 1 / 20), size=4)
    assert (counts > 1).any() and (counts == 0).any()
    spec = BackendSpec(kind="mlp", mlp_hidden=hidden, mlp_epochs=100, mlp_learning_rate=lr, seed=1)
    model = fit(spec, grid, y, counts)
    for b in range(len(counts)):
        blocks = np.repeat(np.arange(20), counts[b])
        alone = fit(spec, X[blocks].reshape(-1, 6), y[blocks].ravel())
        for name, want in alone.params.items():
            got, want = model.params[name][b], want[0]
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), (b, name)
