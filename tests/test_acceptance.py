"""End-to-end acceptance checks for the shipped guarantees.

Each test covers one numbered guarantee and prints a single PASS/FAIL
scorecard line (capture is suspended around each test so the lines always
reach the terminal); run this module alone for the ten-line summary:

    pytest tests/test_acceptance.py -v
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from shiftconvnet.autograd import (
    Tensor,
    add,
    backward,
    concat_channels,
    conv2d,
    hslice_pad,
    leaky_relu,
    maxpool2d,
    transposed_conv2d,
)
from shiftconvnet.data import (
    SynthConfig,
    gen_synthetic_pair,
    read_pfm,
    write_pfm,
)
from shiftconvnet.losses import (
    LossConfig,
    d1_rate,
    epe,
    loss1,
    loss2,
    smooth_l1,
)
from shiftconvnet.matching import (
    CONCAT_THEN_CONV,
    CONV_THEN_CONCAT,
    ShiftConvConfig,
    auto_shift_conv,
    correlation_1d,
    shift_concat,
    shift_conv_layer,
)
from shiftconvnet.network import ShiftConvNet, desk_config, tiny_config
from shiftconvnet.training import (
    Adam,
    TrainConfig,
    ablation_suite,
    bench_forward,
    checkpoint_bytes,
    evaluate,
    load_checkpoint,
    lr_schedule,
    save_checkpoint,
    train_stage,
)
from scalar_ops import mul, sum_all

TOL = 1e-4


@pytest.fixture
def scored(capfd):
    """Context manager printing one PASS/FAIL line past pytest's capture."""
    @contextmanager
    def block(number: int, label: str):
        t0 = time.perf_counter()

        def say(status):
            with capfd.disabled():
                print(f"[criterion {number:02d}] {status} "
                      f"({time.perf_counter() - t0:.1f}s) {label}",
                      flush=True)

        try:
            yield
        except BaseException:
            say("FAIL")
            raise
        say("PASS")

    return block


# ---------------------------------------------------------------------------
# criterion 1: gradients of every differentiable operation
# ---------------------------------------------------------------------------

def _probe(fn, point: np.ndarray, rng, points=10, step=1e-5, tol=TOL):
    """Analytic gradient vs central differences at random coordinates.

    Independent of the library's grad_check: the quotient is computed here.
    A coordinate whose quotient error collapses under a 10x smaller step sat
    on a piecewise-linear kink of an activation (the probe straddled it);
    such points are excluded rather than counted as gradient errors.
    """
    pt = Tensor(point.astype(np.float64), requires_grad=True)
    backward(fn(pt))
    analytic = (np.zeros_like(pt.data) if pt.grad is None
                else pt.grad).reshape(-1)
    base = point.astype(np.float64).reshape(-1)

    def central(i, h):
        probe = base.copy()
        probe[i] = base[i] + h
        f_plus = fn(Tensor(probe.reshape(point.shape))).item()
        probe[i] = base[i] - h
        f_minus = fn(Tensor(probe.reshape(point.shape))).item()
        return (f_plus - f_minus) / (2.0 * h)

    count = min(points, base.size)
    checked = 0
    for i in rng.choice(base.size, size=count, replace=False):
        numeric = central(i, step)
        err = abs(analytic[i] - numeric) / max(abs(analytic[i]),
                                               abs(numeric), 1e-8)
        if err >= tol:
            refined = central(i, step / 10.0)
            err2 = abs(analytic[i] - refined) / max(abs(analytic[i]),
                                                    abs(refined), 1e-8)
            assert err2 < tol, f"gradient error {err:.2e}/{err2:.2e} at {i}"
            continue
        checked += 1
    assert checked >= 1


def _projected(out: Tensor) -> Tensor:
    # fixed random cotangent so every output element matters
    r = np.random.default_rng(7).standard_normal(out.shape)
    return sum_all(mul(out, Tensor(r.astype(out.dtype))))


def _check_op(make_scalar, named_inputs, rng, points=10):
    """Probe the scalar wrt each named input with the others held fixed."""
    names = list(named_inputs)
    for k, name in enumerate(names):
        def fn(v, k=k):
            args = {n: Tensor(a.astype(np.float64))
                    for n, a in named_inputs.items()}
            args[names[k]] = v
            return make_scalar(**args)
        _probe(fn, named_inputs[name], rng, points)


def test_c01_gradient_suite(scored):
    with scored(1, "gradient suite, every differentiable operator"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(11)

        def field(*shape, lo=-1.0, hi=1.0):
            return rng.uniform(lo, hi, size=shape)

        _check_op(lambda x, w, b: _projected(conv2d(x, w, b, stride=2,
                                                    padding=1)),
                  {"x": field(1, 2, 5, 6), "w": field(3, 2, 3, 3),
                   "b": field(1, 3, 1, 1)}, rng)
        _check_op(lambda x, w, b: _projected(transposed_conv2d(x, w, b)),
                  {"x": field(1, 3, 4, 5), "w": field(3, 2, 4, 4),
                   "b": field(1, 2, 1, 1)}, rng)
        # distinct values so a 1e-5 nudge cannot flip a pooling argmax
        pool_in = rng.permutation(48).reshape(1, 2, 4, 6) * 0.1
        _check_op(lambda x: _projected(maxpool2d(x)), {"x": pool_in}, rng)
        off_zero = field(1, 2, 4, 5) + 0.2 * np.where(
            field(1, 2, 4, 5) < 0, -1.0, 1.0)
        _check_op(lambda x: _projected(leaky_relu(x)), {"x": off_zero}, rng)
        _check_op(lambda a, b: _projected(concat_channels([a, b])),
                  {"a": field(1, 2, 3, 4), "b": field(1, 3, 3, 4)}, rng)
        _check_op(lambda x: sum_all(mul(_projected(hslice_pad(x, 2)),
                                        _projected(hslice_pad(x, -2)))),
                  {"x": field(1, 2, 4, 7)}, rng)
        _check_op(lambda l, r: sum_all(mul(
                      _projected(shift_concat(l, r, 2)),
                      _projected(shift_concat(l, r, -1)))),
                  {"l": field(1, 2, 4, 8), "r": field(1, 2, 4, 8)}, rng)

        for variant in (CONV_THEN_CONCAT, CONCAT_THEN_CONV):
            cfg = ShiftConvConfig(maxdisp=2, clue_filters=2, variant=variant)
            wshape = cfg.weight_shape(2)
            _check_op(lambda l, r, w, cfg=cfg: _projected(
                          shift_conv_layer(l, r, cfg, w)),
                      {"l": field(1, 2, 4, 8), "r": field(1, 2, 4, 8),
                       "w": field(*wshape)}, rng)

        _check_op(lambda l, r: _projected(correlation_1d(l, r, 2)),
                  {"l": field(1, 2, 4, 8), "r": field(1, 2, 4, 8)}, rng)

        base_disp = rng.integers(0, 4, size=(1, 4, 8)).astype(np.float64)
        _check_op(lambda l, r, w: _projected(
                      auto_shift_conv(l, r, base_disp, w)),
                  {"l": field(1, 2, 4, 8), "r": field(1, 2, 4, 8),
                   "w": field(3, 4, 3, 3)}, rng)

        # keep |x| away from the C2 breaks at 1 (quadratic/linear seam)
        sl_in = field(2, 1, 3, 4, lo=-3, hi=3)
        sl_in += np.where(np.abs(np.abs(sl_in) - 1) < 0.05, 0.1, 0.0)
        _check_op(lambda x: sum_all(smooth_l1(x)), {"x": sl_in}, rng)

        gt = field(1, 4, 6, lo=0.5, hi=4.0)
        gt[0, 1, 2] = -1.0  # one invalid pixel exercises the mask path
        pred0 = gt[:, None] + np.where(field(1, 1, 4, 6) < 0, -0.4, 0.4)
        lcfg = LossConfig()
        _check_op(lambda p, w: loss1(p, gt, [w], lcfg),
                  {"p": pred0, "w": field(2, 2, 3, 3)}, rng)
        gt_small = field(1, 2, 3, lo=0.5, hi=4.0)
        pred_s = gt_small[:, None] + np.where(field(1, 1, 2, 3) < 0,
                                              -0.3, 0.3)
        _check_op(lambda pf, ps, w: loss2(pf, gt, ps, gt_small, [w], lcfg),
                  {"pf": pred0, "ps": pred_s, "w": field(2, 2, 3, 3)}, rng)

        # full network: probe parameters through the whole forward pass
        model = ShiftConvNet(tiny_config(), seed=1).astype(np.float64)
        left = Tensor(rng.uniform(0, 1, size=(1, 1, 64, 64)))
        right = Tensor(rng.uniform(0, 1, size=(1, 1, 64, 64)))

        def net_fn_for(name):
            def fn(t):
                old = model.params[name]
                model.params[name] = t
                try:
                    out = model.forward(left, right, refine=True)
                    total = sum_all(mul(out.coarse_disp, out.coarse_disp))
                    total = add(total, sum_all(mul(out.small_disp,
                                                   out.small_disp)))
                    return add(total, sum_all(mul(out.refined_disp,
                                                  out.refined_disp)))
                finally:
                    model.params[name] = old
            return fn

        for name in ("feat.conv1.w", "head.coarse.b", "refine.c3.w"):
            _probe(net_fn_for(name), model.params[name].data, rng)

        assert time.perf_counter() - t0 < 300


# ---------------------------------------------------------------------------
# criterion 2: alignment property on constant-disparity scenes
# ---------------------------------------------------------------------------

def test_c02_alignment_on_constant_disparity(scored):
    with scored(2, "shift/correlation alignment on 50 generated scenes"):
        t0 = time.perf_counter()
        maxdisp = 8
        rng = np.random.default_rng(3)
        for trial in range(50):
            d = int(rng.integers(0, maxdisp + 1))
            sample = gen_synthetic_pair(SynthConfig(
                width=64, height=16, num_shapes=0, disp_min=d, disp_max=d,
                background_disp=d, seed=1000 + trial))
            assert np.all(sample.gt_disp == d)
            left = Tensor(sample.left[None])
            right = Tensor(sample.right[None])
            c, w = sample.left.shape[0], sample.width

            sc = shift_concat(left, right, d).data
            assert np.array_equal(sc[:, :c, :, : w - d],
                                  sc[:, c:, :, : w - d])

            corr = correlation_1d(left, right, maxdisp).data[0, d]
            sq = np.mean(sample.left * sample.left, axis=0)
            assert np.abs(corr[:, d:] - sq[:, d:]).max() <= 1e-6
        assert time.perf_counter() - t0 < 60


# ---------------------------------------------------------------------------
# criterion 3: shift-conv zero-group oracle
# ---------------------------------------------------------------------------

def _difference_detector(c: int, num_scales: int, blocked: bool):
    """Center-tap weights computing first-half minus second-half channels."""
    w = np.zeros((c, 2 * c, 3, 3), dtype=np.float32)
    for f in range(c):
        w[f, f, 1, 1] = 1.0
        w[f, c + f, 1, 1] = -1.0
    if not blocked:
        return w
    wide = np.zeros((c * num_scales, 2 * c * num_scales, 3, 3), np.float32)
    for k in range(num_scales):
        wide[k * c : (k + 1) * c, k * 2 * c : (k + 1) * 2 * c] = w
    return wide


def _aligned_pair(c, h, w, d, seed):
    rng = np.random.default_rng(seed)
    left = (np.abs(rng.standard_normal((1, c, h, w))) + 0.1).astype(np.float32)
    right = (np.abs(rng.standard_normal((1, c, h, w))) + 0.1).astype(np.float32)
    right[..., : w - d] = left[..., d:]  # tail stays unrelated content
    return left, right


def test_c03_zero_group_oracle(scored):
    with scored(3, "difference-detector zero group, both variants"):
        c, w, d_true = 2, 16, 3
        for variant in (CONV_THEN_CONCAT, CONCAT_THEN_CONV):
            for both in (False, True):
                cfg = ShiftConvConfig(maxdisp=5, clue_filters=c,
                                      variant=variant, both_directions=both)
                weights = _difference_detector(
                    c, cfg.num_scales, blocked=(variant == CONCAT_THEN_CONV))
                left, right = _aligned_pair(c, 4, w, d_true, seed=5)
                out = shift_conv_layer(Tensor(left), Tensor(right), cfg,
                                       Tensor(weights)).data
                f = cfg.clue_filters
                for k, d in enumerate(cfg.scales()):
                    group = out[:, k * f : (k + 1) * f]
                    span = (slice(0, w - d) if d >= 0 else slice(-d, w))
                    if d == d_true:
                        assert np.all(group[..., span] == 0.0)
                    elif d == -d_true:
                        # mirrored hypothesis matches on its inner columns
                        assert np.all(group[..., d_true : w - d_true] == 0.0)
                    else:
                        assert np.abs(group[..., span]).max() > 1e-6, \
                            f"scale {d} should respond"


# ---------------------------------------------------------------------------
# criterion 4: smooth-L1 kernel values and C1 seam
# ---------------------------------------------------------------------------

def test_c04_smooth_l1_kernel(scored):
    with scored(4, "smooth-L1 exact values and C1 continuity"):
        xs = np.float64([0.0, 0.5, 1.0, 2.0]).reshape(1, 1, 1, 4)
        values = smooth_l1(Tensor(xs)).data.reshape(-1)
        assert values.tolist() == [0.0, 0.125, 0.5, 1.5]

        eps = 1e-7
        for seam in (1.0, -1.0):
            pts = np.float64([seam - eps, seam, seam + eps]).reshape(1, 1, 1, 3)
            t = Tensor(pts, requires_grad=True)
            out = smooth_l1(t)
            assert np.abs(np.diff(out.data.reshape(-1))).max() < 1e-6
            backward(sum_all(out))
            assert np.abs(np.diff(t.grad.reshape(-1))).max() < 1e-6


# ---------------------------------------------------------------------------
# criterion 5: learning-rate schedule table
# ---------------------------------------------------------------------------

def test_c05_lr_schedule_table(scored):
    with scored(5, "learning-rate schedule fixed table"):
        cfg = TrainConfig()
        table = {0: 2e-4, 99999: 2e-4, 100000: 1e-4, 150000: 5e-5,
                 200000: 3e-5, 300000: 3e-5}
        for iteration, expected in table.items():
            assert lr_schedule(iteration, cfg) == expected


# ---------------------------------------------------------------------------
# criterion 6: two-stage overfit on four synthetic pairs
# ---------------------------------------------------------------------------

def test_c06_two_stage_overfit(scored):
    with scored(6, "stage-1 overfit EPE < 0.5 then refinement no worse"):
        t0 = time.perf_counter()
        base = SynthConfig(width=128, height=64, num_shapes=4, disp_min=1,
                           disp_max=8, background_disp=2, seed=100)
        samples = [gen_synthetic_pair(replace(base, seed=base.seed + i))
                   for i in range(4)]
        model = ShiftConvNet(desk_config(), seed=0)
        cfg = TrainConfig()
        optimizer = Adam(model.params)

        train_stage(model, optimizer, samples, cfg, stage=1, iterations=2000)
        stage1 = evaluate(model, samples, refine=False,
                          warmup=0, timed_forwards=1)
        assert stage1.mean_epe < 0.5, f"stage-1 train EPE {stage1.mean_epe}"
        assert time.perf_counter() - t0 < 1800

        train_stage(model, optimizer, samples, cfg, stage=2, iterations=500,
                    start_iteration=2000)
        stage2 = evaluate(model, samples, warmup=0, timed_forwards=1)
        assert stage2.refined_mean_epe <= stage2.mean_epe, (
            f"refined {stage2.refined_mean_epe} vs coarse {stage2.mean_epe}")


# ---------------------------------------------------------------------------
# criterion 7: ablation report shape and stability
# ---------------------------------------------------------------------------

def test_c07_ablation_matrix(scored):
    with scored(7, "7-row ablation, deterministic EPE, stable timings"):
        samples = [gen_synthetic_pair(SynthConfig(
            width=64, height=64, disp_max=8, seed=40 + i)) for i in range(2)]
        cfg = desk_config()
        tcfg = TrainConfig(seed=3)
        first = ablation_suite(samples, cfg, tcfg, iterations=12)
        second = ablation_suite(samples, cfg, tcfg, iterations=12)

        labels = [(r.cost_volume, r.filters) for r in first.rows]
        assert labels == [
            (CONV_THEN_CONCAT, 8), (CONV_THEN_CONCAT, 12),
            (CONV_THEN_CONCAT, 16), (CONCAT_THEN_CONV, 8),
            (CONCAT_THEN_CONV, 12), (CONCAT_THEN_CONV, 16),
            ("correlation", None),
        ]
        assert (first.seed, first.iterations) == (3, 12)
        assert (second.seed, second.iterations) == (3, 12)
        assert [r.epe for r in first.rows] == [r.epe for r in second.rows]
        for a, b in zip(first.rows, second.rows):
            assert a.mean_forward_seconds > 0 and b.mean_forward_seconds > 0
            gap = abs(a.mean_forward_seconds - b.mean_forward_seconds)
            assert gap <= 0.2 * max(a.mean_forward_seconds,
                                    b.mean_forward_seconds), (a, b)


# ---------------------------------------------------------------------------
# criterion 8: shape closure and wall time at full resolution
# ---------------------------------------------------------------------------

def test_c08_full_resolution_forward(scored):
    with scored(8, "384x768 forward under 60 s with closed shapes"):
        model = ShiftConvNet(desk_config(), seed=0)
        rng = np.random.default_rng(0)
        left = Tensor(rng.random((1, 1, 384, 768), dtype=np.float32))
        right = Tensor(rng.random((1, 1, 384, 768), dtype=np.float32))
        t0 = time.perf_counter()
        out = model.forward(left, right)
        elapsed = time.perf_counter() - t0
        assert out.coarse_disp.shape == (1, 1, 384, 768)
        assert out.small_disp.shape == (1, 1, 96, 192)
        assert elapsed < 60, f"single forward took {elapsed:.1f}s"

        # the benchmark helper reports the same pass
        result = bench_forward(desk_config(), 384, 768, warmup=0, repeats=1)
        assert result["mean_seconds"] < 60


# ---------------------------------------------------------------------------
# criterion 9: IO round trips and bit-identical resume
# ---------------------------------------------------------------------------

def test_c09_io_round_trips(scored, tmp_path):
    with scored(9, "PFM/checkpoint round trips and bit-exact resume"):
        rng = np.random.default_rng(9)
        disp = rng.standard_normal((20, 30)).astype(np.float32)
        disp[0, 0] = np.nan
        disp[1, 2] = -np.inf
        blob = write_pfm(disp)
        again = read_pfm(blob)
        assert np.array_equal(disp.view(np.uint32), again.view(np.uint32))
        assert write_pfm(again) == blob

        samples = [gen_synthetic_pair(SynthConfig(
            width=64, height=64, disp_max=4, seed=70 + i)) for i in range(2)]
        cfg = TrainConfig(base_lr=1e-3, log_interval=10)

        def fresh():
            model = ShiftConvNet(tiny_config(), seed=5)
            return model, Adam(model.params)

        model, optimizer = fresh()
        train_stage(model, optimizer, samples, cfg, stage=1, iterations=4)
        path = tmp_path / "a.scnc"
        save_checkpoint(path, model, optimizer, iteration=4, stage=1)
        blob = path.read_bytes()
        loaded = load_checkpoint(path)
        assert checkpoint_bytes(loaded.model, loaded.optimizer,
                                loaded.iteration, loaded.stage) == blob

        # straight 8-iteration run vs 4 + checkpoint + 4
        straight, opt_s = fresh()
        train_stage(straight, opt_s, samples, cfg, stage=1, iterations=8)
        train_stage(loaded.model, loaded.optimizer, samples, cfg, stage=1,
                    iterations=4, start_iteration=4)
        for name, p in straight.params.items():
            assert np.array_equal(p.data, loaded.model.params[name].data), name


# ---------------------------------------------------------------------------
# criterion 10: metric values on fixed error sets
# ---------------------------------------------------------------------------

def test_c10_metric_fixed_sets(scored):
    with scored(10, "EPE/D1 exact on fixed error sets"):
        gt = np.zeros((1, 1, 4), dtype=np.float32)
        pred = np.float32([0.0, 1.0, 2.0, 5.0]).reshape(1, 1, 4)
        assert epe(pred, gt) == 2.0
        pred = np.float32([0.0, 2.0, 4.0, 5.0]).reshape(1, 1, 4)
        assert d1_rate(pred, gt) == 0.5
