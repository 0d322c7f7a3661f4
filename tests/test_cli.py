"""Config-file parsing and the command-line interface (exit codes, files)."""

import re
import struct
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from shiftconvnet.autograd import ContractViolation
from shiftconvnet import cli
from shiftconvnet.cli import main
from shiftconvnet.config import (
    DATA_KEYS,
    load_samples_from,
    network_config_from,
    parse_config_file,
    parse_config_text,
    train_config_from,
)
from shiftconvnet.data import (
    CodecError,
    SynthConfig,
    gen_synthetic_pair,
    load_dataset,
    read_pfm,
    read_pnm,
    write_dataset,
    write_pnm,
)
from shiftconvnet.matching import CONCAT_THEN_CONV
from shiftconvnet.network import (
    CORRELATION,
    NetworkConfig,
    ShiftConvNet,
    desk_config,
    tiny_config,
)
from shiftconvnet.training import (
    Adam,
    TrainConfig,
    bench_forward,
    checkpoint_bytes,
    load_checkpoint,
    read_checkpoint_blob,
    save_checkpoint,
)

TINY_LINES = {
    "feat_channels": "2, 2, 2, 2",
    "encode_channels": "4, 4, 4, 4",
    "decode_channels": "4, 4, 4, 4, 4, 4",
    "redir_channels": "2",
    "maxdisp": "2",
    "clue_filters": "2",
    "stage1_iters": "2",
    "stage2_iters": "1",
    "log_interval": "1",
    "synth_count": "2",
    "synth_width": "64",
    "synth_height": "64",
    "synth_num_shapes": "2",
    "synth_disp_max": "4",
}


def write_config(path, **overrides):
    entries = dict(TINY_LINES)
    entries.update({k: str(v) for k, v in overrides.items()})
    entries = {k: v for k, v in entries.items() if v is not None}
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return str(path)


# ---------------------------------------------------------------------------
# config text parsing
# ---------------------------------------------------------------------------

def test_parse_config_basics():
    cm = parse_config_text(
        "# full line comment\n"
        "alpha = 3   # trailing comment\n"
        "\n"
        "  name =  spaced value  \n"
        "flag=true\n"
    )
    assert cm.get_int("alpha", 0) == 3
    assert cm.get_str("name") == "spaced value"
    assert cm.get_bool("flag", False) is True
    assert cm.get_int("missing", 9) == 9
    assert cm.has("alpha") and not cm.has("beta")
    cm.ensure_consumed()


def test_parse_config_syntax_errors_with_offsets():
    with pytest.raises(CodecError) as e:
        parse_config_text("a = 1\nnonsense line\n")
    assert e.value.offset == 6

    with pytest.raises(CodecError, match="empty"):
        parse_config_text("= 5\n")

    with pytest.raises(CodecError, match="duplicate") as e:
        parse_config_text("k = 1\nk = 2\n")
    assert e.value.offset == 6


def test_parse_config_offsets_count_utf8_bytes():
    with pytest.raises(CodecError) as e:
        parse_config_text("note = éé\nbroken\n")
    assert e.value.offset == len("note = éé\n".encode())


def test_config_value_coercion_errors():
    text = "w = 4\nbad_int = x\nbad_float = 1..2\nbad_bool = maybe\nbad_tuple = 1,a\n"
    cm = parse_config_text(text)
    assert cm.get_int("w", 0) == 4
    with pytest.raises(CodecError, match="integer") as e:
        cm.get_int("bad_int", 0)
    assert e.value.offset == len("w = 4\n")
    with pytest.raises(CodecError, match="number"):
        cm.get_float("bad_float", 0.0)
    with pytest.raises(CodecError, match="boolean"):
        cm.get_bool("bad_bool", False)
    with pytest.raises(CodecError, match="comma-separated"):
        cm.get_int_tuple("bad_tuple", ())


def test_config_bool_spellings():
    cm = parse_config_text("a = YES\nb = off\nc = 1\nd = FALSE\n")
    assert cm.get_bool("a", False) is True
    assert cm.get_bool("b", True) is False
    assert cm.get_bool("c", False) is True
    assert cm.get_bool("d", True) is False


def test_config_unknown_keys_are_rejected():
    cm = parse_config_text("known = 1\nmystery = 2\npuzzle = 3\n")
    cm.get_int("known", 0)
    with pytest.raises(CodecError, match="mystery, puzzle") as e:
        cm.ensure_consumed()
    assert e.value.offset == len("known = 1\n")
    cm.touch("mystery", "puzzle")
    cm.ensure_consumed()


def test_network_config_from_defaults_and_overrides():
    assert network_config_from(parse_config_text("")) == desk_config()
    cm = parse_config_text(
        "maxdisp = 4\nclue_filters = 2\nvariant = concat_then_conv\n"
        "both_directions = false\ncost_volume = correlation\n"
        "feat_channels = 2,2,2,2\nsmall_map_scale = 8\nrefine_enabled = no\n"
    )
    cfg = network_config_from(cm)
    assert cfg.shift_cfg.maxdisp == 4
    assert cfg.shift_cfg.variant == CONCAT_THEN_CONV
    assert cfg.shift_cfg.both_directions is False
    assert cfg.cost_volume == CORRELATION
    assert cfg.feat_channels == (2, 2, 2, 2)
    assert cfg.small_map_scale == 8
    assert cfg.refine_enabled is False
    cm.ensure_consumed()


def test_train_config_from_overrides():
    cm = parse_config_text(
        "base_lr = 0.001\ndecay_start = 10\ndecay_period = 5\n"
        "stage1_iters = 7\nbatch_size = 2\nalpha1 = 0.01\nalpha2 = 0.25\n"
    )
    cfg = train_config_from(cm)
    assert cfg.base_lr == 0.001
    assert cfg.decay_start == 10
    assert cfg.stage1_iters == 7
    assert cfg.batch_size == 2
    assert cfg.loss.alpha1 == 0.01
    assert cfg.loss.alpha2 == 0.25
    assert cfg.loss.beta2 == 1e-4  # untouched default
    cm.ensure_consumed()


def test_load_samples_synthetic_defaults():
    samples = load_samples_from(parse_config_text(""))
    assert len(samples) == 4
    assert samples[0].left.shape == (1, 64, 128)
    assert not np.array_equal(samples[0].left, samples[1].left)


def test_load_samples_count_and_size():
    cm = parse_config_text("synth_count = 2\nsynth_width = 48\nsynth_height = 32\n")
    samples = load_samples_from(cm)
    assert len(samples) == 2
    assert samples[0].left.shape == (1, 32, 48)


def test_load_samples_from_directory(tmp_path):
    write_dataset(tmp_path, [gen_synthetic_pair(SynthConfig(width=32, height=16))])
    cm = parse_config_text(f"data_root = {tmp_path}\n")
    samples = load_samples_from(cm)
    assert len(samples) == 1 and samples[0].width == 32


def test_load_samples_rejects_two_sources(tmp_path):
    cm = parse_config_text(f"data_root = {tmp_path}\nsynth_count = 2\n")
    with pytest.raises(CodecError, match="pick one"):
        load_samples_from(cm)


def flat_field_names(config) -> list:
    """Field names of a config dataclass, nested dataclasses flattened."""
    names = []
    for f in fields(config):
        value = getattr(config, f.name)
        names += flat_field_names(value) if is_dataclass(value) else [f.name]
    return names


def test_config_keys_are_the_dataclass_fields():
    cm = parse_config_text("")
    network_config_from(cm)
    train_config_from(cm)
    load_samples_from(cm)
    expected = (set(flat_field_names(NetworkConfig()))
                | set(flat_field_names(TrainConfig()))
                | {f"synth_{n}" for n in flat_field_names(SynthConfig())}
                | {"synth_count", "data_root"})
    assert cm._used == expected


def test_data_keys_catalog_matches_loader():
    values = {"synth_count": 1, "synth_width": 32, "synth_height": 16,
              "synth_num_shapes": 1, "synth_disp_min": 1, "synth_disp_max": 2,
              "synth_background_disp": 1, "synth_seed": 3, "synth_channels": 1}
    assert set(values) | {"data_root"} == set(DATA_KEYS)
    assert DATA_KEYS == ("data_root", "synth_count") + tuple(
        f"synth_{n}" for n in flat_field_names(SynthConfig()))
    cm = parse_config_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    load_samples_from(cm)
    cm.ensure_consumed()  # loader must consume every synth key


def test_parse_config_file_missing(tmp_path):
    with pytest.raises(FileNotFoundError):
        parse_config_file(tmp_path / "absent.cfg")


# ---------------------------------------------------------------------------
# CLI exit codes and artifacts
# ---------------------------------------------------------------------------

def test_cli_usage_errors_exit_1(tmp_path, capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["train"]) == 1                       # missing required args
    assert main(["train", "--stage", "3", "--config", "x"]) == 1
    assert main(["eval", "--ckpt", "a", "--data", "b", "--costvol", "x"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["bench", "--config", "x", "--repeats", "0"],
    ["bench", "--config", "x", "--repeats", "-1"],
    ["gen", "--count", "-1"],
    ["gen", "--count", "0"],
    ["bench", "--config", "x", "--height", "-64"],
    ["bench", "--config", "x", "--height", "0"],
    ["bench", "--config", "x", "--width", "0"],
], ids=["repeats-0", "repeats-neg", "count-neg", "count-0", "height-neg",
        "height-0", "width-0"])
def test_cli_counts_below_one_are_usage_errors(tmp_path, capsys, argv):
    # rejected while parsing: no config is read, no model is built and no
    # dataset is written
    if argv[0] == "gen":
        argv = argv + ["--out", str(tmp_path / "data")]
    assert main(argv) == 1
    assert "must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


GENERATOR_OUT_OF_RANGE = [
    (["--height", "-3"], "at least 4"),
    (["--height", "0"], "at least 4"),
    (["--width", "3"], "at least 4"),
    (["--num-shapes", "-1"], "num_shapes and seed"),
    (["--seed", "-1"], "num_shapes and seed"),
]
GENERATOR_IDS = ["height-neg", "height-0", "width-3", "shapes-neg", "seed-neg"]


@pytest.mark.parametrize("flags, match", GENERATOR_OUT_OF_RANGE,
                         ids=GENERATOR_IDS)
def test_cli_gen_rejects_out_of_range_generator_flags(tmp_path, capsys,
                                                      flags, match):
    out = tmp_path / "data"
    assert main(["gen", "--out", str(out), "--count", "1"] + flags) == 2
    assert match in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, match", GENERATOR_OUT_OF_RANGE,
                         ids=GENERATOR_IDS)
def test_cli_train_rejects_out_of_range_synth_keys(tmp_path, capsys,
                                                   flags, match):
    # the config keys share the generator flags' checks and exit code
    key = "synth_" + flags[0][2:].replace("-", "_")
    cfg = write_config(tmp_path / "run.cfg", **{key: flags[1]})
    ckpt = tmp_path / "out.scnc"
    assert main(["train", "--stage", "1", "--config", cfg,
                 "--out", str(ckpt)]) == 2
    assert match in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("cap", ["nan", "inf", "-1", "0"])
def test_cli_infer_disp_cap_must_be_positive_and_finite(tmp_path, capsys, cap):
    # rejected while parsing, before the checkpoint is read or a forward runs
    out = tmp_path / "d.pgm"
    assert main(["infer", "--ckpt", "x", "--left", "l", "--right", "r",
                 "--out", str(out), "--disp-cap", cap]) == 1
    assert "positive finite" in capsys.readouterr().err
    assert not out.exists()


def test_generator_paints_at_its_smallest_extent():
    for seed in range(20):
        sample = gen_synthetic_pair(SynthConfig(
            width=4, height=4, disp_min=0, disp_max=0, background_disp=0,
            seed=seed))
        assert sample.left.shape == (1, 4, 4)
    with pytest.raises(ContractViolation, match="at least 4"):
        SynthConfig(width=4, height=3, disp_min=0, disp_max=0,
                    background_disp=0)


def test_bench_forward_rejects_zero_repeats():
    with pytest.raises(ContractViolation, match="at least one"):
        bench_forward(tiny_config(), 64, 64, repeats=0)


def test_cli_stage2_requires_resume_or_from_scratch(capsys):
    # checked before the config is even opened
    assert main(["train", "--stage", "2", "--config", "does-not-exist"]) == 1
    assert "--resume" in capsys.readouterr().err


def test_cli_gen_writes_loadable_dataset(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["gen", "--out", str(out), "--count", "2",
                 "--width", "64", "--height", "64", "--seed", "5"]) == 0
    samples = load_dataset(out)
    assert len(samples) == 2
    assert samples[0].left.shape == (1, 64, 64)
    assert "wrote 2 samples" in capsys.readouterr().out


def test_cli_gen_defaults_are_synth_config_defaults(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "cli"), "--count", "1"]) == 0
    write_dataset(tmp_path / "lib", [gen_synthetic_pair(SynthConfig())])

    def files(root):
        return {p.relative_to(root): p.read_bytes()
                for p in root.rglob("*") if p.is_file()}

    assert files(tmp_path / "cli") == files(tmp_path / "lib")
    capsys.readouterr()


def test_cli_train_eval_infer_bench_pipeline(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg")
    ckpt1 = tmp_path / "s1.scnc"

    assert main(["train", "--stage", "1", "--config", cfg,
                 "--out", str(ckpt1)]) == 0
    out = capsys.readouterr().out
    log_lines = [l for l in out.splitlines() if l.startswith("iter=")]
    assert len(log_lines) == 2  # two iterations at log_interval 1
    pattern = re.compile(
        r"^iter=\d+ lr=[0-9.eE+-]+ loss=[0-9.eE+-]+ epe=[0-9.eE+-]+$")
    for line in log_lines:
        assert pattern.match(line), line
    assert ckpt1.exists()
    loaded = load_checkpoint(ckpt1)
    assert loaded.iteration == 2 and loaded.stage == 1

    # stage 2 resumes the stage-1 checkpoint
    ckpt2 = tmp_path / "s2.scnc"
    assert main(["train", "--stage", "2", "--config", cfg,
                 "--resume", str(ckpt1), "--out", str(ckpt2)]) == 0
    out = capsys.readouterr().out
    assert "resumed at iteration 2" in out
    assert load_checkpoint(ckpt2).iteration == 3

    # evaluation needs a dataset directory with matching extents
    data = tmp_path / "data"
    assert main(["gen", "--out", str(data), "--count", "2",
                 "--width", "64", "--height", "64"]) == 0
    capsys.readouterr()
    csv_path = tmp_path / "report.csv"
    assert main(["eval", "--ckpt", str(ckpt2), "--data", str(data),
                 "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "mean forward time" in out
    csv = csv_path.read_text()
    assert csv.startswith("sample,epe,d1_percent")
    assert "refined_epe" in csv

    # cost-volume assertion: the trained model uses the shift sweep
    assert main(["eval", "--ckpt", str(ckpt2), "--data", str(data),
                 "--costvol", "shiftconv"]) == 0
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(ckpt2), "--data", str(data),
                 "--costvol", "corr"]) == 2
    assert "cost volume" in capsys.readouterr().err

    # inference in both output formats
    left = data / "left" / "000000.pgm"
    right = data / "right" / "000000.pgm"
    pfm_out = tmp_path / "pred.pfm"
    assert main(["infer", "--ckpt", str(ckpt2), "--left", str(left),
                 "--right", str(right), "--out", str(pfm_out)]) == 0
    assert read_pfm(pfm_out.read_bytes()).shape == (64, 64)
    pgm_out = tmp_path / "pred.pgm"
    assert main(["infer", "--ckpt", str(ckpt2), "--left", str(left),
                 "--right", str(right), "--out", str(pgm_out),
                 "--disp-cap", "8"]) == 0
    assert read_pnm(pgm_out.read_bytes()).shape == (1, 64, 64)
    capsys.readouterr()

    # benchmark with the same config
    assert main(["bench", "--config", cfg, "--height", "64", "--width", "64",
                 "--repeats", "1"]) == 0
    assert "parameters:" in capsys.readouterr().out


def test_cli_train_from_scratch_stage2(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg")
    ckpt = tmp_path / "fresh.scnc"
    assert main(["train", "--stage", "2", "--config", cfg, "--from-scratch",
                 "--out", str(ckpt)]) == 0
    assert load_checkpoint(ckpt).stage == 2
    capsys.readouterr()


def test_cli_periodic_checkpoints(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", checkpoint_interval=1,
                       stage1_iters=2)
    ckpt = tmp_path / "p.scnc"
    assert main(["train", "--stage", "1", "--config", cfg,
                 "--out", str(ckpt)]) == 0
    assert (tmp_path / "p.scnc.iter1").exists()
    assert (tmp_path / "p.scnc.iter2").exists()
    capsys.readouterr()


@pytest.mark.parametrize("command, work", [("gen", "gen_synthetic_pair"),
                                           ("bench", "bench_forward")])
@pytest.mark.parametrize("message", ["", "Unable to allocate 447. GiB for an "
                                         "array with shape (3, 200000, 200000)"])
def test_cli_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, command,
                                   work, message):
    # the subcommand's work raises as numpy does for a size too large to
    # allocate; nothing is allocated for real
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, work, no_memory)
    argv = (["gen", "--out", str(tmp_path / "data"), "--count", "1"]
            if command == "gen" else
            ["bench", "--config", write_config(tmp_path / "t.cfg")])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_data_problems_exit_2(tmp_path, capsys):
    assert main(["train", "--stage", "1", "--config",
                 str(tmp_path / "missing.cfg")]) == 2

    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key = 1\n")
    assert main(["train", "--stage", "1", "--config", str(bad)]) == 2
    assert "unknown config keys" in capsys.readouterr().err

    worse = tmp_path / "worse.cfg"
    worse.write_text("maxdisp = banana\n")
    assert main(["bench", "--config", str(worse)]) == 2

    assert main(["eval", "--ckpt", str(tmp_path / "no.scnc"),
                 "--data", str(tmp_path)]) == 2
    capsys.readouterr()


CKPT_HEADER = b"SCNC" + struct.pack("<3I", 1, 0, 1)


def payload_offset(blob, name):
    """Byte offset of the first float32 of record `name`."""
    key = name.encode()
    return blob.index(struct.pack("<I", len(key)) + key) + 4 + len(key) + 16


def with_value(name, value):
    """A valid checkpoint, optimizer state included, with the first float32
    of record `name` replaced."""
    model = ShiftConvNet(tiny_config(), seed=0)
    blob = checkpoint_bytes(model, Adam(model.params), 0, 1)
    at = payload_offset(blob, name)
    return blob[:at] + struct.pack("<f", value) + blob[at + 4:]


def with_cfg_scalar(key, value):
    """A valid checkpoint with the float32 of record cfg.<key> replaced."""
    return with_value(f"cfg.{key}", value)


def with_record(name, values):
    """A valid checkpoint, optimizer state included, with record `name`
    holding `values` as a (len(values), 1, 1, 1) array."""
    model = ShiftConvNet(tiny_config(), seed=0)
    blob = checkpoint_bytes(model, Adam(model.params), 0, 1)
    at = payload_offset(blob, name)
    count = np.prod(struct.unpack("<4I", blob[at - 16 : at]))
    return (blob[: at - 16] + struct.pack("<4I", len(values), 1, 1, 1)
            + np.asarray(values, "<f4").tobytes() + blob[at + 4 * count :])


def with_extra_record(name):
    """A valid checkpoint, optimizer state included, plus one (1, 1, 1, 1)
    record `name` holding 1.0."""
    model = ShiftConvNet(tiny_config(), seed=0)
    key = name.encode()
    return (checkpoint_bytes(model, Adam(model.params), 0, 1)
            + struct.pack("<I", len(key)) + key + struct.pack("<4I", 1, 1, 1, 1)
            + struct.pack("<f", 1.0))


@pytest.mark.parametrize("make_blob", [
    pytest.param(lambda: CKPT_HEADER + struct.pack("<I", 2) + b"\xff\xfe",
                 id="name-not-utf8"),
    pytest.param(lambda: CKPT_HEADER + struct.pack("<I", 1) + b"x"
                 + struct.pack("<4I", *[65536] * 4), id="extents-overflow"),
    pytest.param(lambda: with_cfg_scalar("variant", 2.0),
                 id="unknown-variant-code"),
    pytest.param(lambda: with_cfg_scalar("maxdisp", float("nan")),
                 id="nan-maxdisp"),
    pytest.param(lambda: with_value("head.coarse.b", float("nan")),
                 id="nan-weight"),
    pytest.param(lambda: with_value("opt.v.feat.conv1.w", float("inf")),
                 id="inf-moment"),
    # a zero extent leaves no values to read, but numpy still refuses the
    # shape: its other extents' byte size overflows
    pytest.param(lambda: CKPT_HEADER + struct.pack("<I", 1) + b"x"
                 + struct.pack("<4I", 0, *[2**32 - 1] * 3), id="extents-too-large"),
    pytest.param(lambda: with_record("cfg.maxdisp", [1.0, 1.0]),
                 id="two-value-cfg-scalar"),
    pytest.param(lambda: with_record("opt.t.redir.w", [1.0, 1.0]),
                 id="two-value-step-count"),
    # 1e9 clue filters imply a 2 TiB encoder weight: the stored shapes must
    # be rejected before any model is allocated
    pytest.param(lambda: with_cfg_scalar("clue_filters", 1e9),
                 id="config-implies-huge-model"),
    pytest.param(lambda: with_extra_record("cfg.zzz"), id="stray-cfg-scalar"),
    # Adam's bias correction divides by 1 - beta**t, which is 0 at t = -1
    pytest.param(lambda: with_value("opt.t.redir.w", -1.0),
                 id="negative-step-count"),
    pytest.param(lambda: with_value("opt.t.redir.w", 0.5),
                 id="fractional-step-count"),
    # its step takes the square root of the second moment
    pytest.param(lambda: with_value("opt.v.redir.w", -1.0),
                 id="negative-second-moment"),
])
def test_cli_corrupt_checkpoint_exits_2(tmp_path, capsys, make_blob):
    # a loadable dataset and image pair, so only the checkpoint can fail
    data = tmp_path / "data"
    write_dataset(data, [gen_synthetic_pair(SynthConfig(width=64, height=64))])
    ckpt = tmp_path / "corrupt.scnc"
    ckpt.write_bytes(make_blob())
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    left, right = (str(data / side / "000000.pgm") for side in ("left", "right"))
    assert main(["infer", "--ckpt", str(ckpt), "--left", left, "--right", right,
                 "--out", str(tmp_path / "d.pfm")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_resume_from_unusable_optimizer_state_exits_2(tmp_path, capsys):
    # before the check, t = -1 loaded and the first step wrote NaN into
    # every parameter (exit 3)
    cfg = write_config(tmp_path / "run.cfg")
    ckpt = tmp_path / "bad.scnc"
    ckpt.write_bytes(with_value("opt.t.redir.w", -1.0))
    out = tmp_path / "out.scnc"
    assert main(["train", "--stage", "1", "--config", cfg, "--resume",
                 str(ckpt), "--out", str(out)]) == 2
    assert "opt.t.redir.w" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, value", [("head.coarse.b", float("nan")),
                                         ("opt.m.redir.w", float("-inf")),
                                         ("opt.v.feat.conv1.w", float("inf"))])
def test_checkpoint_non_finite_record_names_its_offset(name, value):
    blob = with_value(name, value)
    with pytest.raises(CodecError, match=re.escape(repr(name))) as e:
        read_checkpoint_blob(blob)
    assert e.value.offset == payload_offset(blob, name)


def test_cli_infer_mismatched_pair_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", stage1_iters=1)
    ckpt = tmp_path / "m.scnc"
    assert main(["train", "--stage", "1", "--config", cfg,
                 "--out", str(ckpt)]) == 0
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    a.write_bytes(write_pnm(np.zeros((1, 64, 64), np.float32)))
    b.write_bytes(write_pnm(np.zeros((1, 64, 128), np.float32)))
    assert main(["infer", "--ckpt", str(ckpt), "--left", str(a),
                 "--right", str(b), "--out", str(tmp_path / "o.pfm")]) == 2
    assert "disagree" in capsys.readouterr().err


def tiny_checkpoint(path):
    save_checkpoint(path, ShiftConvNet(tiny_config(), seed=0), None, 0, 1)
    return str(path)


def test_cli_eval_sample_without_valid_ground_truth(tmp_path, capsys):
    ckpt = tiny_checkpoint(tmp_path / "m.scnc")
    good = gen_synthetic_pair(SynthConfig(width=64, height=64))
    negative = replace(good, gt_disp=np.full_like(good.gt_disp, -1.0))
    non_finite = replace(good, gt_disp=np.full_like(good.gt_disp, np.nan))
    data = tmp_path / "data"
    write_dataset(data, [good, negative])
    csv_path = tmp_path / "report.csv"
    assert main(["eval", "--ckpt", ckpt, "--data", str(data),
                 "--csv", str(csv_path)]) == 0
    assert re.search(r"^ *000001 +n/a +n/a", capsys.readouterr().out, re.M)
    assert "\n000001,n/a,n/a" in csv_path.read_text()

    write_dataset(tmp_path / "none", [negative, non_finite])
    assert main(["eval", "--ckpt", ckpt, "--data", str(tmp_path / "none")]) == 2
    assert "valid ground-truth pixel" in capsys.readouterr().err


def test_cli_eval_pads_any_extent(tmp_path, capsys):
    ckpt = tiny_checkpoint(tmp_path / "m.scnc")
    write_dataset(tmp_path / "data",
                  [gen_synthetic_pair(SynthConfig(width=100, height=70))])
    assert main(["eval", "--ckpt", ckpt, "--data", str(tmp_path / "data")]) == 0
    assert re.search(r"^ *000000 +\d", capsys.readouterr().out, re.M)


def test_cli_infer_pads_any_extent_and_crops_back(tmp_path, capsys):
    ckpt = tiny_checkpoint(tmp_path / "m.scnc")
    rng = np.random.default_rng(0)
    pair = []
    for name in ("l.pgm", "r.pgm"):
        path = tmp_path / name
        path.write_bytes(write_pnm(rng.random((1, 70, 100)).astype(np.float32)))
        pair.append(str(path))
    out = tmp_path / "pred.pfm"
    assert main(["infer", "--ckpt", ckpt, "--left", pair[0], "--right", pair[1],
                 "--out", str(out)]) == 0
    pred = read_pfm(out.read_bytes())
    assert pred.shape == (70, 100) and np.all(np.isfinite(pred))


@pytest.mark.filterwarnings("ignore:overflow")
def test_cli_numerical_blowup_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path / "explode.cfg", base_lr="1e25",
                       stage1_iters=3, synth_count=1)
    assert main(["train", "--stage", "1", "--config", cfg,
                 "--out", str(tmp_path / "x.scnc")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_ablate_writes_matrix(tmp_path, capsys):
    cfg = write_config(tmp_path / "ablate.cfg", stage1_iters=1, synth_count=2)
    csv_path = tmp_path / "ablation.csv"
    assert main(["ablate", "--config", cfg, "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "cost volume" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "cost_volume,filters,mean_forward_seconds,epe"
    assert len(lines) == 8
    assert lines[-1].startswith("correlation,")
