"""Least-squares loss, its gradient, and the descent loop."""

import numpy as np
import pytest

from netrecover import (ConfigError, DivergenceError, RefineConfig,
                        StudentNetwork, TeacherNetwork, loss, make_activation, refine)
from netrecover.refine import _grad, _residual
from netrecover.teacher import BLOCK_BYTES
from conftest import random_teacher, traced_peak


def perturbed_student(net, scale, seed):
    rng = np.random.default_rng(seed)
    tau = np.clip(net.shifts + scale * rng.standard_normal(net.n_neurons),
                  -net.act.tau_inf, net.act.tau_inf)
    return StudentNetwork(net.weights.copy(), tau, net.act)


def grad_loss(student, xs, ys):
    """Gradient of :func:`loss` in the shifts, by the descent's own formula."""
    pre = xs @ student.weights + student.shifts
    return _grad(student.act.g1(pre), _residual(student.act, pre, ys))


def kernel_step(student, n_train, seed):
    """0.9 / lambda_max of the kernel F^T F / 2n at the student's shifts.

    F = g'(<w_k, x_i> + tau_k) on the inputs refine(..., seed) draws, which
    are those of default_rng(seed) when the sample fits in one row block.
    The loss is 0.5 * mean(r^2), so 1 / lambda_max is the 2/L edge of
    stability for the Gauss-Newton curvature L; 0.9 keeps the step inside it.
    """
    xs = np.random.default_rng(seed).standard_normal((n_train, student.dim))
    f = student.act.g1(xs @ student.weights + student.shifts)
    return 0.9 / np.linalg.eigvalsh((f.T @ f) / (2 * n_train))[-1]


def shift_errors(res, tau_truth):
    """Distance of each recorded iterate to the true shifts."""
    return np.array([np.linalg.norm(t - tau_truth) for t in res.tau_path])


class TestLoss:
    def test_zero_at_truth(self):
        net = random_teacher(6, 5, seed=0)
        student = StudentNetwork(net.weights.copy(), net.shifts.copy(), net.act)
        xs = np.random.default_rng(1).standard_normal((40, 6))
        assert loss(student, xs, net.eval_batch(xs)) <= 1e-20

    def test_single_neuron_closed_form(self, tanh_act):
        w = np.ones((3, 1)) / np.sqrt(3)
        tau, delta = 0.2, 0.1
        net = TeacherNetwork(w, np.array([tau]), tanh_act)
        student = StudentNetwork(w, np.array([tau + delta]), tanh_act)
        xs = np.zeros((1, 3))
        expected = 0.5 * (float(tanh_act.g(tau)) - float(tanh_act.g(tau + delta))) ** 2
        assert loss(student, xs, net.eval_batch(xs)) == pytest.approx(expected, abs=1e-15)

    def test_matches_naive_double_loop(self):
        net = random_teacher(5, 4, seed=2)
        student = perturbed_student(net, 0.1, seed=3)
        xs = np.random.default_rng(4).standard_normal((17, 5))
        ys = net.eval_batch(xs)
        ref = 0.0
        for i in range(17):
            pred = sum(
                float(np.tanh(student.weights[:, k] @ xs[i] + student.shifts[k]))
                for k in range(4)
            )
            ref += 0.5 * (pred - ys[i]) ** 2 / 17
        val = loss(student, xs, ys)
        assert val == pytest.approx(ref, rel=1e-12)

    def test_empty_samples_rejected(self):
        net = random_teacher(4, 2, seed=5)
        student = perturbed_student(net, 0.1, seed=6)
        with pytest.raises(ConfigError):
            loss(student, np.zeros((0, 4)), np.zeros(0))


class TestGradLoss:
    def test_zero_at_global_minimum(self):
        net = random_teacher(7, 5, seed=7)
        student = StudentNetwork(net.weights.copy(), net.shifts.copy(), net.act)
        xs = np.random.default_rng(8).standard_normal((30, 7))
        g = grad_loss(student, xs, net.eval_batch(xs))
        assert np.max(np.abs(g)) < 1e-15

    def test_matches_finite_differences(self):
        # criterion-7 style check at module level
        for seed in range(10):
            net = random_teacher(min(10, 4 + seed), min(12, 3 + seed), seed=100 + seed)
            student = perturbed_student(net, 0.2, seed=seed)
            xs = np.random.default_rng(seed).standard_normal((25, net.dim))
            ys = net.eval_batch(xs)
            g = grad_loss(student, xs, ys)
            h = 1e-6
            for k in range(student.n_neurons):
                tau_p = student.shifts.copy()
                tau_p[k] += h
                tau_m = student.shifts.copy()
                tau_m[k] -= h
                fd = (loss(student.with_shifts(tau_p), xs, ys)
                      - loss(student.with_shifts(tau_m), xs, ys)) / (2 * h)
                assert abs(fd - g[k]) < 1e-6

    def test_single_neuron_hand_formula(self, tanh_act):
        w = np.zeros((3, 1))
        w[0, 0] = 1.0
        net = TeacherNetwork(w, np.array([0.2]), tanh_act)
        student = StudentNetwork(w, np.array([0.5]), tanh_act)
        xs = np.zeros((1, 3))
        g = grad_loss(student, xs, net.eval_batch(xs))
        expected = (float(tanh_act.g(0.5)) - float(tanh_act.g(0.2))) * float(tanh_act.g1(0.5))
        assert g[0] == pytest.approx(expected, abs=1e-15)


class TestRefine:
    def test_geometric_convergence_with_auto_step(self):
        # exact weights, perturbed shifts: the idealized quadratic regime;
        # the kernel step size (0.9 / lambda_max) reaches 1e-6 well inside
        # the step budget in every seed
        hits = 0
        for seed in range(10):
            net = random_teacher(10, 12, seed=200 + seed)
            rng = np.random.default_rng(seed)
            d = rng.standard_normal(12)
            tau0 = np.clip(net.shifts + (0.1 / np.sqrt(12)) * d / np.linalg.norm(d),
                           -0.6, 0.6)
            student = StudentNetwork(net.weights.copy(), tau0, net.act)
            cfg = RefineConfig(n_train=1200, lr=kernel_step(student, 1200, seed),
                               batch=0, max_steps=10_000, stop_loss=0.0, timeout_s=None)
            errs = shift_errors(refine(student, net, cfg, seed=seed), net.shifts)
            hits += errs[-1] <= 1e-6
            # geometric decrease while above the numerical floor
            above = errs[errs > 1e-12]
            assert np.all(np.diff(np.log(above[::100])) < 0)
        assert hits >= 9

    def test_fixed_small_step_is_monotone_but_slow(self):
        # the pinned lr = 1e-3 descends monotonically; its contraction per
        # step is 1 - lr * lambda_min, far too slow to reach 1e-6 quickly
        net = random_teacher(10, 12, seed=300)
        student = perturbed_student(net, 0.05, seed=1)
        cfg = RefineConfig(n_train=1200, lr=1e-3, batch=0, max_steps=2000,
                           stop_loss=0.0, timeout_s=None)
        res = refine(student, net, cfg, seed=2)
        errs = shift_errors(res, net.shifts)
        assert np.all(np.diff(res.losses) <= 1e-15)
        assert errs[-1] < errs[0]

    def test_descent_when_step_below_kernel_bound(self):
        # loss non-increasing when lr is strictly below 1 / lambda_max of the
        # kernel F^T F / 2n; the loss is 0.5 * mean(r^2), so equality is the
        # 2/L edge of stability, where curvature growth along the path can
        # diverge.  refine(..., seed=4) draws the same 800 inputs as
        # default_rng(4), so this is the kernel the descent sees.
        net = random_teacher(8, 6, seed=301)
        student = perturbed_student(net, 0.1, seed=3)
        cfg = RefineConfig(n_train=800, lr=kernel_step(student, 800, seed=4), batch=0,
                           max_steps=500, stop_loss=0.0, timeout_s=None)
        res = refine(student, net, cfg, seed=4)
        assert np.all(np.diff(res.losses) <= 1e-14)

    def test_weight_error_floor(self):
        # perturbed weights leave a positive loss floor; the final shift
        # error cannot beat the weight-error scale but improves on the start
        net = random_teacher(10, 12, seed=302)
        rng = np.random.default_rng(5)
        w = net.weights + 1e-3 * rng.standard_normal(net.weights.shape)
        w /= np.linalg.norm(w, axis=0)
        tau0 = np.clip(net.shifts + 0.05 * rng.standard_normal(12), -0.6, 0.6)
        student = StudentNetwork(w, tau0, net.act)
        cfg = RefineConfig(n_train=1200, lr=kernel_step(student, 1200, seed=6), batch=0,
                           max_steps=5000, stop_loss=0.0, timeout_s=None)
        res = refine(student, net, cfg, seed=6)
        errs = shift_errors(res, net.shifts)
        assert res.losses[-1] > 1e-12
        assert 0 < errs[-1] <= errs[0]

    def test_divergence_guard_triggers(self):
        net = random_teacher(10, 12, seed=303)
        student = perturbed_student(net, 0.05, seed=7)
        cfg = RefineConfig(n_train=1200, lr=10.0, batch=0, max_steps=5000,
                           stop_loss=0.0, timeout_s=None)
        with pytest.raises(DivergenceError) as err:
            refine(student, net, cfg, seed=8)
        assert err.value.lr == 10.0
        assert err.value.suggested_lr is not None and err.value.suggested_lr < 1.0

    def test_minibatch_deterministic_trajectory(self):
        net = random_teacher(8, 5, seed=304)
        student = perturbed_student(net, 0.1, seed=9)
        cfg = RefineConfig(n_train=600, lr=1e-2, batch=64, max_steps=300,
                           timeout_s=None)
        a = refine(student, net, cfg, seed=10)
        b = refine(student, net, cfg, seed=10)
        assert np.array_equal(a.tau_path, b.tau_path)
        assert np.array_equal(a.losses, b.losses)

    def test_training_queries_counted(self):
        net = random_teacher(6, 4, seed=305)
        student = perturbed_student(net, 0.1, seed=11)
        before = net.query_count
        refine(student, net,
               RefineConfig(n_train=500, batch=0, max_steps=5, timeout_s=None),
               seed=12)
        assert net.query_count - before == 500

    def test_stop_loss_halts_immediately_at_truth(self):
        net = random_teacher(6, 4, seed=306)
        student = StudentNetwork(net.weights.copy(), net.shifts.copy(), net.act)
        res = refine(student, net,
                     RefineConfig(n_train=400, batch=0, max_steps=1000,
                                  timeout_s=None), seed=13)
        assert res.stop_reason == "stop_loss"
        assert res.steps == 0

    def test_gradient_audit_mode_runs(self):
        net = random_teacher(6, 4, seed=307)
        student = perturbed_student(net, 0.1, seed=14)
        cfg = RefineConfig(n_train=300, lr=1e-3, batch=0, max_steps=250,
                           stop_loss=0.0, timeout_s=None)
        refine(student, net, cfg, seed=15, audit_grad=True)


# Fixed-seed refine runs, pinned value by value: full batch with the kernel
# step (lr None: kernel_step at the starting shifts) and with a fixed step, and
# mini-batch runs (600 samples, 10 batches of 64 per epoch) whose step budget
# ends on an epoch boundary and mid-epoch.  Each entry: teacher (D, m, seed),
# config, student seed s (refine runs with seed s + 100), then steps, lr,
# record_steps tail, losses at (0, 1, middle, last) and the last tau_path row.
_PINNED_RUNS = {
    "full_batch_lr_auto": (
        (10, 12, 200),
        dict(n_train=1200, lr=None, batch=0, max_steps=200), 20,
        200, 0.4130537806084651, [198, 199, 200],
        [0.003455475036691763, 0.0030345012887770923, 2.3451554756444147e-05,
         1.6130168644768537e-06],
        [-0.05152384407535954, -0.04965726875322409, 0.4144423613016589,
         -0.43872020233809494, 0.4016127323675392, 0.38307477137873575,
         0.18577922978813685, -0.18617351885328925, -0.17685232953039354,
         -0.4155377830986946, -0.08139294303082079, -0.025478545158703937],
    ),
    "full_batch_fixed_lr": (
        (10, 12, 300),
        dict(n_train=1200, lr=1e-3, batch=0, max_steps=200), 21,
        200, 1e-3, [198, 199, 200],
        [0.006421071583826734, 0.006409043227730209, 0.005582074432139266,
         0.005176255467565228],
        [0.29392992849006516, 0.0430742869055676, 0.09573372068412096,
         0.16020392389684143, -0.0641480393487959, -0.10364045134164901,
         -0.30315308213311104, -0.5703266847662571, -0.40553520232946744,
         -0.37676000368330415, -0.05085793832283813, 0.19737224336246634],
    ),
    "minibatch_epoch_end": (
        (8, 5, 304),
        dict(n_train=600, lr=1e-2, batch=64, max_steps=300), 22,
        300, 1e-2, [280, 290, 300],
        [0.02468233152276599, 0.017251420407854965, 0.0009455578117303506,
         0.0006817470137524677],
        [-0.4168946225761345, -0.1470849278646313, -0.5343589141032771,
         0.13273593225491526, 0.6418770704940275],
    ),
    "minibatch_mid_epoch": (
        (8, 5, 304),
        dict(n_train=600, lr=1e-2, batch=64, max_steps=297), 22,
        297, 1e-2, [280, 290, 297],
        [0.02468233152276599, 0.017251420407854965, 0.0009455578117303506,
         0.0006851899319836266],
        [-0.41714962214388773, -0.1472358873776147, -0.5343400896665003,
         0.13268491103837768, 0.6420535654463925],
    ),
}


@pytest.mark.parametrize("name", list(_PINNED_RUNS))
def test_pinned_trajectory(name):
    teacher, kw, seed, steps, lr, rec_tail, losses, tau_last = _PINNED_RUNS[name]
    net = random_teacher(*teacher)
    student = perturbed_student(net, 0.1, seed=seed)
    if kw["lr"] is None:
        kw = dict(kw, lr=kernel_step(student, kw["n_train"], seed + 100))
    cfg = RefineConfig(stop_loss=0.0, timeout_s=None, **kw)
    res = refine(student, net, cfg, seed=seed + 100)
    assert res.steps == steps
    assert res.stop_reason == "max_steps"
    assert cfg.lr == pytest.approx(lr, rel=1e-9)
    # one record before the first step, then one per full-batch step or
    # per epoch, and a last one where the step budget runs out
    per_pass = 1 if kw["batch"] == 0 else -(-kw["n_train"] // kw["batch"])
    expected_steps = list(range(0, steps, per_pass)) + [steps]
    assert res.record_steps.tolist() == expected_steps
    assert res.record_steps[-3:].tolist() == rec_tail
    n = len(res.losses)
    assert n == len(expected_steps) == res.tau_path.shape[0]
    got = res.losses[[0, 1, n // 2, n - 1]]
    assert got == pytest.approx(losses, rel=1e-9)
    assert res.tau_path[-1] == pytest.approx(tau_last, rel=1e-9)
    assert np.array_equal(res.tau_path[-1], res.student.shifts)


def per_batch_gather_reference(student, teacher, cfg, seed):
    """Mini-batch GD as a gather of each batch from the unpermuted sample, with
    a full-sample loss record: records and losses of refine with stop_loss 0."""
    act = student.act
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((cfg.n_train, student.dim))
    ys = teacher.eval_batch(xs)
    z = xs @ student.weights
    tau = np.array(student.shifts, dtype=float)
    path, losses, step = [], [], 0
    while True:
        resid = np.sum(act.g(z + tau), axis=1) - ys
        path.append(tau.copy())
        losses.append(0.5 * float(np.sum(resid ** 2)) / resid.size)
        if step >= cfg.max_steps:
            return np.array(path), np.array(losses)
        perm = rng.permutation(cfg.n_train)
        for lo in range(0, cfg.n_train, cfg.batch):
            idx = perm[lo:lo + cfg.batch]
            pre = z[idx] + tau
            resid = np.sum(act.g(pre), axis=1) - ys[idx]
            tau -= cfg.lr * (act.g1(pre).T @ resid) / idx.size
            step += 1
            if step >= cfg.max_steps:
                break


@pytest.mark.parametrize("kind", ["tanh", "sigmoid"])
@pytest.mark.parametrize("n_train, batch, max_steps", [
    (600, 64, 300),    # 9 full batches and one of 24 per epoch; ends on an epoch
    (600, 37, 340),    # 16 batches of 37 and one of 8
    (600, 64, 297),    # the step budget ends mid-epoch
    (7000, 64, 250),   # the loss record spans two row blocks
])
def test_minibatch_matches_per_batch_gather(kind, n_train, batch, max_steps):
    net = random_teacher(8, 5, seed=304, act=make_activation(kind))
    student = perturbed_student(net, 0.1, seed=22)
    cfg = RefineConfig(n_train=n_train, lr=1e-2, batch=batch, max_steps=max_steps,
                       stop_loss=0.0, timeout_s=None)
    res = refine(student, net, cfg, seed=122)
    path, losses = per_batch_gather_reference(student, net, cfg, seed=122)
    assert res.steps == max_steps
    assert np.array_equal(res.tau_path, path)
    assert np.array_equal(res.losses, losses)


class TestMemory:
    """The sample is drawn, queried and projected in row blocks: refine's only
    whole arrays are z = xs W (n_train x m), the targets and, per method, the
    arrays its steps form."""

    def test_minibatch_epoch_holds_the_data_and_row_blocks(self):
        # the refine-sgd shape, one epoch of 400 batches of 64
        dim, m, n = 40, 16, 25_600
        net = random_teacher(dim, m, seed=310)
        student = perturbed_student(net, 0.1, seed=23)
        cfg = RefineConfig(n_train=n, lr=1e-3, batch=64, max_steps=400,
                           stop_loss=0.0, timeout_s=None)
        res, peak = traced_peak(refine, student, net, cfg, seed=123)
        assert res.steps == 400
        # z and the targets plus a few blocks; the n x D draw (8.2 MB) and a
        # permuted copy of z (3.3 MB) would each break this
        assert peak < n * (m + 1) * 8 + 4 * BLOCK_BYTES

    def test_gauss_newton_draw_holds_row_blocks(self):
        # D >> m, so the n x D draw (6.1 MB) outweighs the iteration's own
        # arrays: about six n x m (z, F, g, the candidate's F and g, lstsq's
        # copy of F)
        dim, m, n = 100, 8, 8000
        net = random_teacher(dim, m, seed=311)
        student = perturbed_student(net, 0.1, seed=24)
        cfg = RefineConfig(n_train=n, method="gn", stop_loss=0.0, timeout_s=None)
        res, peak = traced_peak(refine, student, net, cfg, seed=124)
        assert res.steps >= 1
        assert peak < 6 * n * (m + 1) * 8 + 4 * BLOCK_BYTES


class TestGaussNewton:
    def gn_config(self, **kw):
        return RefineConfig(**{"n_train": 200, "method": "gn", "stop_loss": 0.0,
                               "timeout_s": None, **kw})

    def test_recovers_exact_shifts_in_a_few_steps(self):
        for seed in range(5):
            net = random_teacher(10, 12, seed=400 + seed)
            student = perturbed_student(net, 0.1, seed=seed)
            before = net.query_count
            res = refine(student, net, self.gn_config(), seed=seed)
            errs = shift_errors(res, net.shifts)
            assert net.query_count - before == 200
            # quadratic convergence: 1e-10 within 5 steps; the loop ends
            # once the loss reaches the targets' rounding level
            assert res.steps <= 4
            assert errs[min(res.steps, 5)] <= 1e-10
            assert errs[-1] <= 1e-10
            assert np.all(np.diff(res.losses) < 0)
            assert res.record_steps.tolist() == list(range(res.steps + 1))
            assert np.array_equal(res.tau_path[-1], res.student.shifts)

    def test_stop_loss_labels_but_never_stops(self):
        # the starting shifts already meet stop_loss; Gauss-Newton still steps
        net = random_teacher(10, 12, seed=410)
        student = perturbed_student(net, 1e-5, seed=1)
        res = refine(student, net, self.gn_config(stop_loss=1e-8), seed=2)
        assert res.losses[0] <= 1e-8
        assert res.steps >= 1 and res.stop_reason == "stop_loss"
        assert res.losses[-1] < 1e-6 * res.losses[0]

    def test_zero_stop_loss_is_not_reported_as_met(self):
        # perturbed weights leave a positive loss floor
        net = random_teacher(10, 12, seed=411)
        rng = np.random.default_rng(3)
        w = net.weights + 1e-3 * rng.standard_normal(net.weights.shape)
        student = StudentNetwork(w / np.linalg.norm(w, axis=0), net.shifts, net.act)
        res = refine(student, net, self.gn_config(), seed=4)
        assert res.losses[-1] > 0
        assert res.stop_reason == "plateau"

    def test_step_budget(self):
        net = random_teacher(10, 12, seed=412)
        student = perturbed_student(net, 0.1, seed=5)
        res = refine(student, net, self.gn_config(max_steps=1), seed=6)
        assert res.steps == 1 and res.stop_reason == "max_steps"

    def test_singular_gram_loss_never_rises(self):
        # two identical student columns make F^T F singular
        net = random_teacher(8, 5, seed=500)
        w = net.weights.copy()
        w[:, 1] = w[:, 0]
        tau = net.shifts.copy()
        tau[1] = tau[0]
        res = refine(StudentNetwork(w, tau, net.act), net, self.gn_config(n_train=300),
                     seed=0)
        assert res.steps >= 1
        assert np.all(np.diff(res.losses) <= 0)
        assert np.all(np.isfinite(res.student.shifts))

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="unknown refine method 'newton'"):
            RefineConfig(n_train=10, method="newton")

    @pytest.mark.parametrize("setting, message", [
        (dict(timeout_s=-1.0), "timeout_s must be positive, got -1.0"),
        (dict(stop_loss=float("nan")), "stop_loss must be finite and >= 0, got nan"),
        (dict(stop_loss=-1.0), "stop_loss must be finite and >= 0, got -1.0"),
    ], ids=["timeout-negative", "stop-loss-nan", "stop-loss-negative"])
    def test_bad_stop_rejected(self, setting, message):
        with pytest.raises(ConfigError, match=message):
            RefineConfig(n_train=10, method="gn", **setting)
