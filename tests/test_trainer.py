"""Optimizer, schedule, checkpoints, training loop, and harnesses."""

import re
import struct
import weakref
from dataclasses import replace

import numpy as np
import pytest

from shiftconvnet import training
from shiftconvnet.autograd import ContractViolation, Tensor
from shiftconvnet.data import CodecError, SynthConfig, gen_synthetic_pair
from shiftconvnet.network import (
    CORRELATION,
    ShiftConvNet,
    config_to_scalars,
    desk_config,
    tiny_config,
)
from shiftconvnet.training import (
    ABLATION_FILTER_COUNTS,
    Adam,
    NumericalError,
    TrainConfig,
    ablation_suite,
    batch_indices,
    bench_forward,
    checkpoint_bytes,
    evaluate,
    load_checkpoint,
    lr_schedule,
    parameter_count,
    read_checkpoint_blob,
    save_checkpoint,
    stage_param_names,
    train_stage,
)


def tiny_samples(n=2, seed=50, width=64, height=64):
    return [gen_synthetic_pair(SynthConfig(width=width, height=height,
                                           num_shapes=2, disp_min=1,
                                           disp_max=4, background_disp=1,
                                           seed=seed + i))
            for i in range(n)]


def scalar_param(value, requires_grad=True):
    return Tensor(np.float32([value]).reshape(1, 1, 1, 1),
                  requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------

def test_lr_schedule_reference_table():
    cfg = TrainConfig()
    expected = {0: 2e-4, 50000: 2e-4, 99999: 2e-4, 100000: 1e-4,
                149999: 1e-4, 150000: 5e-5, 199999: 5e-5, 200000: 3e-5,
                250000: 3e-5, 300000: 3e-5}
    for iteration, lr in expected.items():
        assert lr_schedule(iteration, cfg) == lr, f"at iteration {iteration}"


def test_lr_schedule_halves_until_floor():
    cfg = TrainConfig(base_lr=1.0, decay_start=10, decay_period=5,
                      lr_floor=0.2)
    assert lr_schedule(9, cfg) == 1.0
    assert lr_schedule(10, cfg) == 0.5
    assert lr_schedule(14, cfg) == 0.5
    assert lr_schedule(15, cfg) == 0.25
    assert lr_schedule(20, cfg) == 0.2   # 0.125 clamped
    assert lr_schedule(10**9, cfg) == 0.2
    with pytest.raises(ContractViolation):
        lr_schedule(-1, cfg)


def test_train_config_validation():
    with pytest.raises(ContractViolation):
        TrainConfig(base_lr=1e-6, lr_floor=3e-5)
    with pytest.raises(ContractViolation):
        TrainConfig(lr_floor=0.0)
    with pytest.raises(ContractViolation):
        TrainConfig(batch_size=0)
    with pytest.raises(ContractViolation):
        TrainConfig(stage1_iters=-1)
    with pytest.raises(ContractViolation):
        TrainConfig(decay_period=0)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def adam_reference(g_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Straight transcription of the update rule for one scalar."""
    x, m, v = 0.0, 0.0, 0.0
    for t, g in enumerate(g_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        x -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return x


def test_adam_matches_reference_sequence():
    p = scalar_param(0.0)
    opt = Adam({"p": p})
    gs = [0.3, -1.2, 0.7, 0.05]
    for g in gs:
        p.grad = np.full((1, 1, 1, 1), g, np.float32)
        opt.step(0.01)
    assert p.data.item() == pytest.approx(adam_reference(gs, 0.01), rel=1e-5)
    assert opt.t["p"] == 4


def test_adam_first_step_is_signed_learning_rate():
    # bias correction makes the first update lr * g / (|g| + eps)
    p = scalar_param(1.0)
    opt = Adam({"p": p})
    p.grad = np.full((1, 1, 1, 1), 17.0, np.float32)
    opt.step(0.25)
    assert p.data.item() == pytest.approx(1.0 - 0.25, rel=1e-6)


def test_adam_skips_params_without_grad():
    p, q = scalar_param(1.0), scalar_param(2.0)
    opt = Adam({"p": p, "q": q})
    p.grad = np.ones((1, 1, 1, 1), np.float32)
    opt.step(0.1)
    assert q.data.item() == 2.0
    assert opt.t == {"p": 1, "q": 0}


def test_adam_active_set_limits_updates():
    p, q = scalar_param(1.0), scalar_param(1.0)
    opt = Adam({"p": p, "q": q})
    for t in (p, q):
        t.grad = np.ones((1, 1, 1, 1), np.float32)
    opt.step(0.1, active=["p"])
    assert p.data.item() != 1.0
    assert q.data.item() == 1.0
    assert opt.t == {"p": 1, "q": 0}


def test_adam_per_parameter_step_counts_give_fresh_bias_correction():
    # a parameter first activated later must take a full-size first step,
    # exactly as if its optimizer had just been created
    p, q = scalar_param(0.0), scalar_param(0.0)
    opt = Adam({"p": p, "q": q})
    for _ in range(5):
        p.grad = np.full((1, 1, 1, 1), 2.0, np.float32)
        opt.step(0.1, active=["p"])
    q.grad = np.full((1, 1, 1, 1), 2.0, np.float32)
    opt.step(0.1, active=["q"])
    assert q.data.item() == pytest.approx(-0.1, rel=1e-6)


def test_adam_rejects_non_finite_gradient_by_name():
    p = scalar_param(1.0)
    opt = Adam({"some.weight": p})
    p.grad = np.full((1, 1, 1, 1), np.nan, np.float32)
    with pytest.raises(NumericalError, match="some.weight"):
        opt.step(0.1)


def test_adam_that_raises_leaves_the_model_and_its_state_untouched():
    model = ShiftConvNet(tiny_config(), seed=0)
    opt = stepped_adam(model)
    rng = np.random.default_rng(8)
    for p in model.params.values():
        p.grad = rng.standard_normal(p.shape).astype(np.float32)
    assert sorted(model.params)[-1] == "shift.clue.w"  # checked last
    model.params["shift.clue.w"].grad[0, 0, 0, 0] = np.inf
    before = checkpoint_bytes(model, opt, 0, 2)
    with pytest.raises(NumericalError, match="shift.clue.w"):
        opt.step(1e-3)
    assert checkpoint_bytes(model, opt, 0, 2) == before


# ---------------------------------------------------------------------------
# checkpoint codec
# ---------------------------------------------------------------------------

def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    model = ShiftConvNet(tiny_config(), seed=3)
    opt = Adam(model.params)
    # give the optimizer some non-trivial state
    for name, p in model.params.items():
        p.grad = np.random.default_rng(7).standard_normal(p.shape).astype(np.float32)
    opt.step(1e-3)
    blob = checkpoint_bytes(model, opt, iteration=123, stage=2)
    path = tmp_path / "a.scnc"
    path.write_bytes(blob)
    loaded = load_checkpoint(path)
    assert loaded.iteration == 123
    assert loaded.stage == 2
    assert checkpoint_bytes(loaded.model, loaded.optimizer, 123, 2) == blob


def test_checkpoint_restores_everything(tmp_path):
    model = ShiftConvNet(tiny_config(), seed=4)
    opt = Adam(model.params)
    for p in model.params.values():
        p.grad = np.ones(p.shape, np.float32)
    opt.step(1e-2)
    path = tmp_path / "b.scnc"
    save_checkpoint(path, model, opt, 7, 1)
    loaded = load_checkpoint(path)
    assert loaded.model.config == model.config
    for name in model.params:
        np.testing.assert_array_equal(loaded.model.params[name].data,
                                      model.params[name].data)
        np.testing.assert_array_equal(loaded.optimizer.m[name], opt.m[name])
        np.testing.assert_array_equal(loaded.optimizer.v[name], opt.v[name])
        assert loaded.optimizer.t[name] == opt.t[name]


def test_checkpoint_without_optimizer_state(tmp_path):
    model = ShiftConvNet(tiny_config(), seed=5)
    path = tmp_path / "c.scnc"
    save_checkpoint(path, model, None, 0, 1)
    loaded = load_checkpoint(path)
    for name in model.params:
        assert np.all(loaded.optimizer.m[name] == 0.0)
        assert loaded.optimizer.t[name] == 0


def test_checkpoint_blob_layout_is_external_format():
    # independent decoder for the byte layout: magic, 3 u32 header words,
    # then sorted (u32 name length, name, 4 x u32 extents, f4 payload)
    model = ShiftConvNet(tiny_config(), seed=6)
    blob = checkpoint_bytes(model, None, iteration=9, stage=1)
    assert blob[:4] == b"SCNC"
    version, iteration, stage = struct.unpack_from("<3I", blob, 4)
    assert (version, iteration, stage) == (1, 9, 1)
    pos = 16
    names = []
    while pos < len(blob):
        (name_len,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        name = blob[pos : pos + name_len].decode()
        pos += name_len
        shape = struct.unpack_from("<4I", blob, pos)
        pos += 16
        count = int(np.prod(shape))
        values = np.frombuffer(blob, dtype="<f4", count=count, offset=pos)
        pos += count * 4
        names.append(name)
        if name in model.params:
            np.testing.assert_array_equal(values.reshape(shape),
                                          model.params[name].data)
    assert pos == len(blob)
    assert names == sorted(names)
    expected_cfg = {f"cfg.{k}" for k in config_to_scalars(model.config)}
    assert set(names) == expected_cfg | set(model.params)


def test_checkpoint_truncation_names_the_incomplete_tensor(tmp_path):
    model = ShiftConvNet(tiny_config(), seed=7)
    blob = checkpoint_bytes(model, None, 0, 1)
    with pytest.raises(CodecError, match="cfg.both_directions") as e:
        read_checkpoint_blob(blob[: 16 + 4 + len(b"cfg.both_directions") + 16 + 2])
    assert e.value.offset == 16 + 4 + len(b"cfg.both_directions") + 16 + 2

    with pytest.raises(CodecError, match="truncated"):
        read_checkpoint_blob(blob[:-1])


def test_checkpoint_bad_magic_and_version():
    model = ShiftConvNet(tiny_config(), seed=8)
    blob = checkpoint_bytes(model, None, 0, 1)
    with pytest.raises(CodecError, match="magic") as e:
        read_checkpoint_blob(b"XXXX" + blob[4:])
    assert e.value.offset == 0
    bad_version = blob[:4] + struct.pack("<I", 99) + blob[8:]
    with pytest.raises(CodecError, match="version") as e:
        read_checkpoint_blob(bad_version)
    assert e.value.offset == 4


def test_checkpoint_missing_tensor_is_reported(tmp_path):
    model = ShiftConvNet(tiny_config(), seed=9)
    dropped = model.params.pop("head.coarse.b")
    path = tmp_path / "d.scnc"
    save_checkpoint(path, model, None, 0, 1)
    model.params["head.coarse.b"] = dropped
    with pytest.raises(ContractViolation, match="head.coarse.b"):
        load_checkpoint(path)


def test_checkpoint_shape_mismatch_is_reported(tmp_path):
    model = ShiftConvNet(tiny_config(), seed=10)
    model.params["head.coarse.b"] = Tensor(np.zeros((1, 2, 1, 1), np.float32),
                                           requires_grad=True)
    path = tmp_path / "e.scnc"
    save_checkpoint(path, model, None, 0, 1)
    with pytest.raises(ContractViolation, match="head.coarse.b"):
        load_checkpoint(path)


def stepped_adam(model):
    """An Adam over `model` after one step, so no moment is zero."""
    opt = Adam(model.params)
    rng = np.random.default_rng(7)
    for p in model.params.values():
        p.grad = rng.standard_normal(p.shape).astype(np.float32)
    opt.step(1e-3)
    return opt


def test_desk_checkpoint_save_load_save_is_byte_identical(tmp_path):
    model = ShiftConvNet(desk_config(), seed=3)
    blob = checkpoint_bytes(model, stepped_adam(model), iteration=40, stage=2)
    path = tmp_path / "desk.scnc"
    path.write_bytes(blob)
    loaded = load_checkpoint(path)
    assert checkpoint_bytes(loaded.model, loaded.optimizer, 40, 2) == blob


def test_checkpoint_load_draws_no_random_model(tmp_path, monkeypatch):
    model = ShiftConvNet(tiny_config(), seed=11)
    path = tmp_path / "f.scnc"
    save_checkpoint(path, model, stepped_adam(model), 5, 1)

    def drawn(self, *args, **kwargs):
        raise AssertionError("load_checkpoint drew a random model")

    monkeypatch.setattr(ShiftConvNet, "__init__", drawn)
    loaded = load_checkpoint(path)
    assert list(loaded.model.params) == list(model.params)
    for name, p in model.params.items():
        np.testing.assert_array_equal(loaded.model.params[name].data, p.data)
        assert loaded.model.params[name].requires_grad


def test_checkpoint_without_optimizer_state_gets_a_fresh_adam(tmp_path):
    model = ShiftConvNet(tiny_config(), seed=12)
    path = tmp_path / "g.scnc"
    save_checkpoint(path, model, None, 0, 1)
    loaded = load_checkpoint(path)
    assert loaded.optimizer.params is loaded.model.params
    # zero moments of every parameter's shape, and step counts of 0
    assert (checkpoint_bytes(loaded.model, loaded.optimizer, 0, 1)
            == checkpoint_bytes(model, Adam(model.params), 0, 1))


def test_checkpoint_names_every_disagreeing_record_at_once(tmp_path):
    model = ShiftConvNet(tiny_config(), seed=13)
    del model.params["head.coarse.b"]
    model.params["head.small.b"] = Tensor(np.zeros((1, 2, 1, 1), np.float32))
    model.params["stray.w"] = scalar_param(0.0)
    path = tmp_path / "h.scnc"
    save_checkpoint(path, model, Adam(model.params), 0, 1)
    with pytest.raises(ContractViolation) as e:
        load_checkpoint(path)
    message = str(e.value)
    for name in ("head.coarse.b", "opt.t.head.coarse.b", "stray.w",
                 "opt.v.stray.w", "head.small.b stored (1, 2, 1, 1), "
                 "expected (1, 1, 1, 1)", "opt.m.head.small.b stored"):
        assert name in message


# ---------------------------------------------------------------------------
# batch order
# ---------------------------------------------------------------------------

def test_batch_indices_are_stateless_and_deterministic():
    a = [batch_indices(5, 1, seed=3, iteration=i) for i in range(10)]
    b = [batch_indices(5, 1, seed=3, iteration=i) for i in range(10)]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_batch_indices_cover_each_epoch():
    seen = np.concatenate([batch_indices(5, 1, seed=0, iteration=i)
                           for i in range(5)])
    assert sorted(seen) == [0, 1, 2, 3, 4]
    second = np.concatenate([batch_indices(5, 1, seed=0, iteration=i)
                             for i in range(5, 10)])
    assert sorted(second) == [0, 1, 2, 3, 4]
    assert not np.array_equal(seen, second)  # reshuffled between epochs


def test_batch_indices_batching():
    first = batch_indices(6, 2, seed=1, iteration=0)
    second = batch_indices(6, 2, seed=1, iteration=1)
    third = batch_indices(6, 2, seed=1, iteration=2)
    assert len(first) == 2
    assert sorted(np.concatenate([first, second, third])) == [0, 1, 2, 3, 4, 5]
    # batch size larger than the dataset degrades to full-set batches
    assert sorted(batch_indices(3, 8, seed=1, iteration=4)) == [0, 1, 2]


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_stage_param_names():
    model = ShiftConvNet(tiny_config(), seed=0)
    s1 = stage_param_names(model, 1)
    s2 = stage_param_names(model, 2)
    assert not any(n.startswith("refine.") for n in s1)
    assert s2 == sorted(model.params)
    assert set(s2) - set(s1) == {n for n in model.params
                                 if n.startswith("refine.")}
    with pytest.raises(ContractViolation):
        stage_param_names(model, 3)


def test_train_stage_zero_iterations_is_identity():
    model = ShiftConvNet(tiny_config(), seed=1)
    before = {n: p.data.copy() for n, p in model.params.items()}
    history = train_stage(model, Adam(model.params), tiny_samples(),
                          TrainConfig(), stage=1, iterations=0)
    assert history == []
    for n, p in model.params.items():
        np.testing.assert_array_equal(p.data, before[n])


def test_train_stage_one_freezes_refine_head():
    model = ShiftConvNet(tiny_config(), seed=2)
    before = {n: p.data.copy() for n, p in model.params.items()}
    history = train_stage(model, Adam(model.params), tiny_samples(),
                          TrainConfig(), stage=1, iterations=3)
    assert len(history) == 3
    for n, p in model.params.items():
        if n.startswith("refine."):
            np.testing.assert_array_equal(p.data, before[n])
        elif n.endswith(".w"):
            assert not np.array_equal(p.data, before[n]), n


def test_train_stage_two_trains_refine_head():
    model = ShiftConvNet(tiny_config(), seed=3)
    opt = Adam(model.params)
    train_stage(model, opt, tiny_samples(), TrainConfig(), stage=1,
                iterations=2)
    before = {n: p.data.copy() for n, p in model.params.items()
              if n.startswith("refine.") and n.endswith(".w")}
    train_stage(model, opt, tiny_samples(), TrainConfig(), stage=2,
                iterations=1, start_iteration=2)
    for n, old in before.items():
        assert not np.array_equal(model.params[n].data, old), n
    # per-parameter step counts: refine params have taken exactly one step
    assert opt.t["refine.c1.w"] == 1
    assert opt.t["feat.conv1.w"] == 3


def test_train_stage_history_and_schedule():
    model = ShiftConvNet(tiny_config(), seed=4)
    cfg = TrainConfig(base_lr=0.1, decay_start=2, decay_period=2, lr_floor=1e-3)
    history = train_stage(model, Adam(model.params), tiny_samples(), cfg,
                          stage=1, iterations=4, start_iteration=0)
    assert [h["iteration"] for h in history] == [0, 1, 2, 3]
    assert [h["lr"] for h in history] == [0.1, 0.1, 0.05, 0.05]
    assert all(np.isfinite(h["loss"]) and h["epe"] >= 0 for h in history)


def test_train_stage_log_lines_and_cadence():
    model = ShiftConvNet(tiny_config(), seed=5)
    lines = []
    cfg = TrainConfig(log_interval=2)
    train_stage(model, Adam(model.params), tiny_samples(), cfg, stage=1,
                iterations=5, log=lines.append)
    # interval hits at 0, 2, 4 plus the closing line for iteration 4
    assert len(lines) == 3
    pattern = re.compile(
        r"^iter=\d+ lr=[0-9.eE+-]+ loss=[0-9.eE+-]+ epe=[0-9.eE+-]+$"
    )
    for line in lines:
        assert pattern.match(line), line
    assert lines[0].startswith("iter=0 lr=0.0002 ")


def test_train_stage_checkpoint_callback_cadence():
    model = ShiftConvNet(tiny_config(), seed=6)
    calls = []
    cfg = TrainConfig(checkpoint_interval=2)
    train_stage(model, Adam(model.params), tiny_samples(), cfg, stage=1,
                iterations=5, start_iteration=10, checkpoint_cb=calls.append)
    assert calls == [12, 14]


def test_train_stage_input_validation():
    model = ShiftConvNet(tiny_config(), seed=7)
    with pytest.raises(ContractViolation, match="at least one"):
        train_stage(model, Adam(model.params), [], TrainConfig(), 1, 1)
    bad = tiny_samples(1) + tiny_samples(1, width=128)
    with pytest.raises(ContractViolation, match="disagree"):
        train_stage(model, Adam(model.params), bad, TrainConfig(), 1, 1)


def test_train_stage_non_finite_loss_raises():
    model = ShiftConvNet(tiny_config(), seed=8)
    samples = tiny_samples(1)
    samples[0].left[0, 0, 0] = np.nan
    with pytest.raises(NumericalError, match="iteration 0"):
        train_stage(model, Adam(model.params), samples, TrainConfig(),
                    stage=1, iterations=1)


@pytest.mark.parametrize("stage", [1, 2])
def test_train_stage_frees_each_graph_before_the_next_forward(stage):
    model = ShiftConvNet(tiny_config(), seed=10)
    forward = model.forward
    earlier = []   # weakrefs to the outputs of earlier steps
    alive_at_forward = []

    def tracked_forward(*args, **kwargs):
        alive_at_forward.append(any(ref() is not None for ref in earlier))
        out = forward(*args, **kwargs)
        earlier.append(weakref.ref(out.coarse_disp))
        return out

    model.forward = tracked_forward
    train_stage(model, Adam(model.params), tiny_samples(), TrainConfig(),
                stage=stage, iterations=3)
    assert alive_at_forward == [False, False, False]


def test_resume_replays_the_straight_run_bit_for_bit(tmp_path):
    samples = tiny_samples(3)
    cfg = TrainConfig(seed=9)

    straight = ShiftConvNet(tiny_config(), seed=9)
    opt_a = Adam(straight.params)
    train_stage(straight, opt_a, samples, cfg, stage=1, iterations=6)

    half = ShiftConvNet(tiny_config(), seed=9)
    opt_b = Adam(half.params)
    train_stage(half, opt_b, samples, cfg, stage=1, iterations=3)
    path = tmp_path / "half.scnc"
    save_checkpoint(path, half, opt_b, 3, 1)

    resumed = load_checkpoint(path)
    history = train_stage(resumed.model, resumed.optimizer, samples, cfg,
                          stage=1, iterations=3,
                          start_iteration=resumed.iteration)
    assert [h["iteration"] for h in history] == [3, 4, 5]
    for name in straight.params:
        np.testing.assert_array_equal(resumed.model.params[name].data,
                                      straight.params[name].data, err_msg=name)


def _recorded_nodes(loss):
    """Every op output reachable from `loss` through `_parents` that holds
    a backward closure: the nodes the graph records."""
    seen, stack, nodes = set(), [loss], []
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            if t._backward is not None:
                nodes.append(t)
            stack.extend(t._parents)
    return nodes


@pytest.mark.parametrize("stage, count", [(1, 70), (2, 80)])
def test_desk_step_graph_holds_one_concatenation(monkeypatch, stage, count):
    # conv2d takes its joined inputs as a sequence, so the only channel
    # concatenation left is the cost volume's stack of per-scale groups.
    # A stage-1 step records 71 nodes; the small head's is off the path of
    # the stage-1 loss, so 70 are reachable from it.  Stage 2 sums the
    # refinement head's five auto-shift branches in one `add` node.
    graphs = []
    real_backward = training.backward

    def inspecting(loss):
        # backward releases the closures, so name the ops before it runs
        graphs.append([(t._backward.__qualname__, t.shape)
                       for t in _recorded_nodes(loss)])
        real_backward(loss)

    monkeypatch.setattr(training, "backward", inspecting)
    model = ShiftConvNet(desk_config(), seed=0)
    samples = [gen_synthetic_pair(SynthConfig(width=128, height=64))]
    train_stage(model, Adam(model.params), samples, TrainConfig(batch_size=1),
                stage=stage, iterations=1)
    [nodes] = graphs
    assert len(nodes) == count
    concats = [shape for op, shape in nodes
               if op.startswith("concat_channels.")]
    assert concats == [(1, 8 * 17, 16, 32)]


# ---------------------------------------------------------------------------
# evaluation harness
# ---------------------------------------------------------------------------

def test_evaluate_with_injected_oracle_predictions():
    samples = tiny_samples(2)
    model = ShiftConvNet(tiny_config(), seed=0)

    def perfect(sample):
        return sample.gt_disp.copy(), sample.gt_disp.copy()

    report = evaluate(model, samples, predict=perfect, warmup=0,
                      timed_forwards=1)
    assert report.mean_epe == 0.0
    assert report.mean_d1 == 0.0
    assert report.refined_mean_epe == 0.0
    assert len(report.rows) == 2
    assert report.mean_forward_seconds > 0.0


def test_evaluate_metrics_against_hand_values():
    samples = tiny_samples(1)
    gt = samples[0].gt_disp

    def off_by(sample):
        return gt + 4.0, gt + 1.0  # coarse D1 100%, refined D1 0%

    r = evaluate(ShiftConvNet(tiny_config(), seed=0), samples,
                 predict=off_by, warmup=0, timed_forwards=1)
    assert r.mean_epe == pytest.approx(4.0)
    assert r.mean_d1 == 1.0
    assert r.refined_mean_epe == pytest.approx(1.0)
    assert r.refined_mean_d1 == 0.0
    assert "100.00" in r.text_table()
    assert "mean,4.000000,100.0000,1.000000,0.0000" in r.csv()


def test_evaluate_sample_without_valid_pixels_gets_an_empty_row():
    samples = tiny_samples(3)
    no_valid = np.full_like(samples[1].gt_disp, -1.0)
    no_valid[::2] = np.nan
    no_valid[1::4] = -np.inf
    samples[1] = replace(samples[1], gt_disp=no_valid)

    def off_by(sample):
        return sample.gt_disp + 4.0, sample.gt_disp + 1.0

    r = evaluate(ShiftConvNet(tiny_config(), seed=0), samples,
                 predict=off_by, warmup=0, timed_forwards=1)
    assert [row.valid_pixels for row in r.rows] == [64 * 64, 0, 64 * 64]
    empty = r.rows[1]
    assert (empty.epe, empty.d1, empty.refined_epe, empty.refined_d1) == (None,) * 4
    # the means cover the two scored samples only
    assert r.mean_epe == pytest.approx(4.0) and r.mean_d1 == 1.0
    assert r.refined_mean_epe == pytest.approx(1.0) and r.refined_mean_d1 == 0.0
    assert "000001,n/a,n/a,n/a,n/a\n" in r.csv()
    assert "mean,4.000000,100.0000,1.000000,0.0000" in r.csv()
    [line] = [l for l in r.text_table().splitlines() if "000001" in l]
    assert line.split() == ["000001"] + ["n/a"] * 4

    samples[0] = samples[2] = samples[1]
    with pytest.raises(ContractViolation, match="valid ground-truth pixel"):
        evaluate(ShiftConvNet(tiny_config(), seed=0), samples,
                 predict=off_by, warmup=0, timed_forwards=1)


def test_evaluate_predict_call_pattern():
    samples = tiny_samples(2)
    calls = []

    def counting(sample):
        calls.append(id(sample))
        return sample.gt_disp, None

    report = evaluate(ShiftConvNet(tiny_config(), seed=0), samples,
                      predict=counting, warmup=3, timed_forwards=4)
    assert len(calls) == 2 + 3 + 4
    assert report.refined_mean_epe is None
    assert "refined" not in report.csv()


def test_evaluate_runs_the_model_and_restores_grad_flags():
    samples = tiny_samples(1)
    model = ShiftConvNet(tiny_config(), seed=1)
    report = evaluate(model, samples, warmup=0, timed_forwards=1)
    assert np.isfinite(report.mean_epe)
    assert report.refined_mean_epe is not None  # refine enabled by default
    assert all(p.requires_grad for p in model.params.values())
    coarse_only = evaluate(model, samples, refine=False, warmup=0,
                           timed_forwards=1)
    assert coarse_only.refined_mean_epe is None


def test_evaluate_empty_samples():
    with pytest.raises(ContractViolation):
        evaluate(ShiftConvNet(tiny_config(), seed=0), [])


# ---------------------------------------------------------------------------
# ablation and bench harnesses
# ---------------------------------------------------------------------------

def test_ablation_matrix_shape_and_determinism():
    samples = tiny_samples(2)
    cfg = tiny_config()
    tc = TrainConfig(seed=11)
    a = ablation_suite(samples, cfg, tc, iterations=1)
    b = ablation_suite(samples, cfg, tc, iterations=1)

    assert len(a.rows) == 7
    labels = [(r.cost_volume, r.filters) for r in a.rows]
    assert labels == ([("conv_then_concat", f) for f in ABLATION_FILTER_COUNTS]
                      + [("concat_then_conv", f) for f in ABLATION_FILTER_COUNTS]
                      + [(CORRELATION, None)])
    assert a.seed == 11 and a.iterations == 1
    # same seed and budget: the numbers (not the wall times) are identical
    assert [r.epe for r in a.rows] == [r.epe for r in b.rows]
    for r in a.rows:
        assert np.isfinite(r.epe) and r.mean_forward_seconds > 0

    csv = a.csv()
    assert csv.splitlines()[0] == "cost_volume,filters,mean_forward_seconds,epe"
    assert len(csv.splitlines()) == 8
    assert f"{CORRELATION}," in csv
    assert a.text_table().count("\n") == 8  # header x2 + 7 rows


def test_bench_forward_reports():
    result = bench_forward(tiny_config(), 64, 64, warmup=1, repeats=2)
    assert result["mean_seconds"] > 0
    assert result["best_seconds"] <= result["mean_seconds"] + 1e-9
    model = ShiftConvNet(tiny_config(), seed=0)
    assert result["parameters"] == parameter_count(model)
    assert parameter_count(model) == sum(p.data.size
                                         for p in model.params.values())
