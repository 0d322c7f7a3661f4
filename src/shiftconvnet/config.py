"""Flat `key = value` configuration files.

UTF-8 text, one setting per line, `#` starts a comment, no sections.  Keys
not consumed by any builder are reported as unknown, so typos fail loudly
instead of silently using a default.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace
from pathlib import Path

from .data import (
    SYNTH_COUNT,
    CodecError,
    SynthConfig,
    gen_synthetic_pair,
    load_dataset,
)
from .network import NetworkConfig, desk_config
from .training import TrainConfig


class ConfigMap:
    """Parsed settings with per-key byte offsets for error messages."""

    def __init__(self, entries: dict):
        self._entries = entries  # key -> (value string, byte offset)
        self._used: set[str] = set()

    def has(self, key: str) -> bool:
        return key in self._entries

    def _raw(self, key: str):
        self._used.add(key)
        return self._entries.get(key)

    def get_str(self, key: str, default=None):
        entry = self._raw(key)
        return default if entry is None else entry[0]

    def _coerce(self, key: str, kind: str, fn):
        entry = self._entries[key]
        try:
            return fn(entry[0])
        except ValueError:
            raise CodecError(
                f"config key {key!r} needs {kind}; got {entry[0]!r}", entry[1]
            ) from None

    def get_int(self, key: str, default: int) -> int:
        if self._raw(key) is None:
            return default
        return self._coerce(key, "an integer", lambda s: int(s, 10))

    def get_float(self, key: str, default: float) -> float:
        if self._raw(key) is None:
            return default
        return self._coerce(key, "a number", float)

    def get_bool(self, key: str, default: bool) -> bool:
        entry = self._raw(key)
        if entry is None:
            return default
        lowered = entry[0].lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise CodecError(
            f"config key {key!r} needs a boolean; got {entry[0]!r}", entry[1]
        )

    def get_int_tuple(self, key: str, default: tuple) -> tuple:
        if self._raw(key) is None:
            return tuple(default)
        return self._coerce(
            key, "comma-separated integers",
            lambda s: tuple(int(part.strip(), 10) for part in s.split(",")),
        )

    def touch(self, *keys):
        """Mark keys as consumed without reading them (for subcommands that
        legitimately ignore parts of a shared config file)."""
        self._used.update(keys)

    def ensure_consumed(self):
        unknown = sorted(set(self._entries) - self._used)
        if unknown:
            offset = min(self._entries[k][1] for k in unknown)
            raise CodecError(f"unknown config keys: {', '.join(unknown)}", offset)


def parse_config_text(text: str) -> ConfigMap:
    entries = {}
    offset = 0
    for raw_line in text.split("\n"):
        line = raw_line.split("#", 1)[0].strip()
        if line:
            if "=" not in line:
                raise CodecError(
                    f"expected 'key = value', got {line!r}", offset
                )
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not key:
                raise CodecError("empty config key", offset)
            if key in entries:
                raise CodecError(f"duplicate config key {key!r}", offset)
            entries[key] = (value, offset)
        offset += len(raw_line.encode("utf-8")) + 1
    return ConfigMap(entries)


def parse_config_file(path) -> ConfigMap:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file {path} does not exist")
    return parse_config_text(path.read_bytes().decode("utf-8"))


def _config_from(cm: ConfigMap, base, prefix: str = ""):
    """`base` with every field the config sets overridden.

    The key is the field name after `prefix`; nested dataclasses are
    flattened into their own field names.  The default's type picks the
    parser, bool before int because bool is an int subclass."""
    values = {}
    for f in fields(base):
        default = getattr(base, f.name)
        if is_dataclass(default):
            values[f.name] = _config_from(cm, default, prefix)
            continue
        get = (cm.get_bool if isinstance(default, bool)
               else cm.get_int if isinstance(default, int)
               else cm.get_float if isinstance(default, float)
               else cm.get_int_tuple if isinstance(default, tuple)
               else cm.get_str)
        values[f.name] = get(prefix + f.name, default)
    return replace(base, **values)


def network_config_from(cm: ConfigMap) -> NetworkConfig:
    return _config_from(cm, desk_config())


def train_config_from(cm: ConfigMap) -> TrainConfig:
    return _config_from(cm, TrainConfig())


_SYNTH_KEYS = ("synth_count",) + tuple(f"synth_{f.name}"
                                       for f in fields(SynthConfig))

DATA_KEYS = ("data_root",) + _SYNTH_KEYS


def load_samples_from(cm: ConfigMap) -> list:
    """Samples from `data_root` if set, otherwise generated in memory."""
    root = cm.get_str("data_root")
    synth_given = [k for k in _SYNTH_KEYS if cm.has(k)]
    count = cm.get_int("synth_count", SYNTH_COUNT)
    synth = _config_from(cm, SynthConfig(), "synth_")
    if root is not None:
        if synth_given:
            raise CodecError(
                f"config sets both data_root and {synth_given[0]}; "
                f"pick one data source", 0
            )
        return load_dataset(root)
    return [gen_synthetic_pair(replace(synth, seed=synth.seed + i))
            for i in range(count)]
