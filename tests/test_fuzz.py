"""Seeded mutation fuzzing of the file parsers: checkpoints, PFM and PNM.

Every mutant of a valid file must either parse or raise a typed error
(`CodecError` or `ContractViolation`), which the CLI turns into exit code 2;
any other exception would reach the user as a traceback.  Mutations flip
bits, overwrite bytes with header-like characters, truncate and insert
bytes; half of them aim at a file's structure (headers, record names,
extents, config scalars), where a random offset into a payload rarely lands.
"""

import struct

import numpy as np
import pytest

from shiftconvnet.autograd import ContractViolation
from shiftconvnet.data import CodecError, read_pfm, read_pnm, write_pfm, write_pnm
from shiftconvnet.network import ShiftConvNet, tiny_config
from shiftconvnet.training import (
    Adam,
    checkpoint_bytes,
    load_checkpoint,
    read_checkpoint_blob,
)

SEED = 12
MUTANTS = 300
TYPED = (CodecError, ContractViolation)
# bytes a header could plausibly hold, besides random ones
HEADER_BYTES = b"0123456789+-.eE \n\t#Pf5F6naif\x00\xff"


def mutants(blob: bytes, hot: list[int], seed: int, count: int = MUTANTS):
    """`count` mutants of `blob`, each one to three edits, half of the edits
    at an offset from `hot`."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        data = bytearray(blob)
        for _ in range(rng.integers(1, 4)):
            at = (int(rng.choice(hot)) if rng.random() < 0.5
                  else int(rng.integers(len(data) + 1)))
            at = min(at, len(data))
            kind = rng.integers(4)
            if kind == 0 and at < len(data):
                data[at] ^= 1 << int(rng.integers(8))
            elif kind == 1 and at < len(data):
                data[at] = HEADER_BYTES[rng.integers(len(HEADER_BYTES))]
            elif kind == 2:
                del data[at:]
            else:
                data[at:at] = rng.integers(0, 256, rng.integers(1, 5), np.uint8).tobytes()
        yield bytes(data)


def checkpoint_structure(blob: bytes) -> list[int]:
    """Offsets of a valid checkpoint's header, record names, extents and
    the first value of each record."""
    hot = list(range(16))
    pos = 16
    while pos < len(blob):
        (name_len,) = struct.unpack_from("<I", blob, pos)
        shape = struct.unpack_from("<4I", blob, pos + 4 + name_len)
        end = pos + 4 + name_len + 16
        hot += list(range(pos, end + 4))
        pos = end + 4 * int(np.prod(shape))
    return hot


def load_checkpoint_bytes(data: bytes, tmp_path):
    path = tmp_path / "fuzz.scnc"
    path.write_bytes(data)
    return load_checkpoint(path)


def test_checkpoint_mutants_load_or_raise_typed_errors(tmp_path):
    model = ShiftConvNet(tiny_config(), seed=0)
    blob = checkpoint_bytes(model, Adam(model.params), 3, 2)
    assert load_checkpoint_bytes(blob, tmp_path).iteration == 3
    parsed = 0
    for data in mutants(blob, checkpoint_structure(blob), SEED):
        try:
            read_checkpoint_blob(data)
            parsed += 1
            load_checkpoint_bytes(data, tmp_path)
        except TYPED:
            pass
    assert 0 < parsed < MUTANTS  # the mutants reach both outcomes


def _image(channels, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((channels, 5, 7), dtype=np.float32)


@pytest.mark.parametrize("make, read", [
    pytest.param(lambda: write_pfm(_image(1)[0] * 9 - 3), read_pfm, id="Pf"),
    pytest.param(lambda: write_pfm(_image(3) * 9 - 3), read_pfm, id="PF"),
    pytest.param(lambda: write_pnm(_image(1)), read_pnm, id="PGM-8"),
    pytest.param(lambda: write_pnm(_image(3)), read_pnm, id="PPM-8"),
    pytest.param(lambda: write_pnm(_image(1), maxval=65535), read_pnm, id="PGM-16"),
    pytest.param(lambda: write_pnm(_image(3), maxval=65535), read_pnm, id="PPM-16"),
])
def test_image_mutants_parse_or_raise_typed_errors(make, read):
    blob = make()
    read(blob)
    # the header is three lines: magic, extents, then scale or maxval
    header = blob.index(b"\n", blob.index(b"\n", blob.index(b"\n") + 1) + 1) + 1
    parsed = 0
    for data in mutants(blob, list(range(header)), SEED):
        try:
            read(data)
            parsed += 1
        except TYPED:
            pass
    assert 0 < parsed < MUTANTS
