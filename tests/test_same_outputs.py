"""The bit-exactness checker on a checkout against itself and a mutant."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_PATH = ROOT / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_a_checkout_matches_itself(capsys):
    assert same_outputs.main([str(ROOT), str(ROOT)]) == 0
    out = capsys.readouterr().out
    assert out.count("bit-identical") == len(same_outputs.SIZES)


def test_a_changed_leaky_slope_is_named(tmp_path, capsys):
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    autograd = tree / "src" / "shiftconvnet" / "autograd.py"
    text = autograd.read_text()
    assert "\nLEAKY_SLOPE = 0.1\n" in text
    autograd.write_text(text.replace("\nLEAKY_SLOPE = 0.1\n", "\nLEAKY_SLOPE = 0.2\n"))
    assert same_outputs.main([str(ROOT), str(tree)]) == 1
    # the first stage-1 loss already goes through the activation
    assert capsys.readouterr().out == "64x128: first record that differs: loss.0\n"
