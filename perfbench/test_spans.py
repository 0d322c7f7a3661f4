"""Tests of the traced mode's tracer: wrapping, restoring, self time.

Run with `python -m pytest perfbench` from the repository root.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import shiftconvnet  # noqa: E402
from shiftconvnet import autograd, matching, network, training  # noqa: E402

from spans import Tracer  # noqa: E402


def tiny_forward():
    model = network.ShiftConvNet(network.tiny_config(), seed=0)
    x = autograd.Tensor(np.random.default_rng(0).random((1, 1, 64, 64)))
    with training.frozen_params(model):
        model.forward(x, x)


def test_install_wraps_every_binding_and_uninstall_restores_them():
    originals = (autograd.conv2d, matching.conv2d, network.conv2d,
                 shiftconvnet.conv2d, network.ShiftConvNet.decode)
    tracer = Tracer()
    tracer.install(shiftconvnet)
    try:
        assert matching.conv2d is network.conv2d is autograd.conv2d
        assert autograd.conv2d is not originals[0]
        tracer.begin_root("forward")
        tiny_forward()
    finally:
        tracer.uninstall()
    assert (autograd.conv2d, matching.conv2d, network.conv2d,
            shiftconvnet.conv2d, network.ShiftConvNet.decode) == originals

    names = [s[0] for s in tracer.spans]
    # 4 + 4 tower convs, 3 cost-volume groups, redirect, 4 encoder, 6
    # decoder smooths, 2 heads, 5 guided-match convs, 3 refinement convs
    assert names.count("autograd.conv2d") == 32
    assert names.count("network.feature_extract") == 2
    metrics = tracer.layer_metrics("forward")
    assert metrics["autograd.conv2d.calls"] == 32
    assert metrics["matching.warp_horizontal.calls"] == 5
    assert metrics["network.decode.fwd_ms"] > 0
    assert metrics["autograd.backward.ms"] == 0


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.begin_root("step")
    tracer.spans = [["outer", 0.0, 10.0, 0, -1],
                    ["child", 1.0, 4.0, 0, 0],
                    ["child", 5.0, 6.0, 0, 0],
                    ["grandchild", 1.5, 2.0, 0, 1]]
    assert tracer.self_times() == [6.0, 2.5, 1.0, 0.5]
