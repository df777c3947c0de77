"""Declarative scenario configs (YAML).

The file mirrors the parameter-table layout: a model section (the seven
hyperparameters), a radio section with fleet-wide link defaults, one row
per device with explicit units in the key names (peak_tflops,
disk_read_mb_s, memory_gb, dBm powers), and an experiment section.
MB/GB are decimal (1e6/1e9 bytes).  Unknown keys are rejected with their
full path, so a typo in a unit suffix fails loudly instead of silently
changing the scenario, and a key given twice in one mapping is refused.

Any radio key may sit in the shared section, in a device row (override),
or both; every device must end up with a complete radio parameter set.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any

import yaml

from .baselines import BASELINE_PLANS
from .device_model import DeviceProfile, RadioParams
from .errors import ConfigError
from .experiment import Scenario
from .model_profile import ModelConfig

DEFAULT_TOKEN_LENGTHS = (256, 512, 1024, 2048, 4096, 8192)
DEFAULT_STRATEGIES = ("optimal_dp", *BASELINE_PLANS)

_MODEL_KEYS = ("d_model", "h_q", "h_kv", "d_head", "d_ff", "num_layers",
               "bytes_per_element")

# config key -> (RadioParams field, unit multiplier)
_RADIO_KEYS = {
    "efficiency": ("efficiency", 1.0),
    "bandwidth_mhz": ("bandwidth_hz", 1e6),
    "noise_dbm_per_hz": ("noise_dbm_per_hz", 1.0),
    "ref_distance_m": ("ref_distance_m", 1.0),
    "path_loss_exp": ("path_loss_exp", 1.0),
    "ref_gain_db": ("ref_gain_db", 1.0),
    "tx_power_up_dbm": ("tx_power_up_dbm", 1.0),
    "tx_power_down_dbm": ("tx_power_down_dbm", 1.0),
    "distance_m": ("distance_m", 1.0),
}

# config key -> (DeviceProfile field, unit multiplier)
_DEVICE_KEYS = {
    "peak_tflops": ("peak_flops", 1e12),
    "util_ceiling": ("util_ceiling", 1.0),
    "util_rate_per_token": ("util_rate", 1.0),
    "disk_read_mb_s": ("disk_bytes_per_s", 1e6),
    "memory_gb": ("memory_bytes", 1e9),
}


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def _as_mapping(node: Any, path: str) -> dict:
    if not isinstance(node, dict):
        _fail(path, f"expected a mapping, got {type(node).__name__}")
    return node


def _as_int(node: Any, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        _fail(path, f"expected an integer, got {node!r}")
    return node


def _as_float(node: Any, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        _fail(path, f"expected a number, got {node!r}")
    try:
        value = float(node)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        _fail(path, f"expected a finite number, got {node!r}")
    return value


def _as_str(node: Any, path: str) -> str:
    if not isinstance(node, str):
        _fail(path, f"expected a string, got {node!r}")
    return node


def _reject_unknown(node: dict, allowed: set[str], path: str) -> None:
    for key in node:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else str(key), "unknown key")


def _parse_model(node: Any) -> ModelConfig:
    node = _as_mapping(node, "model")
    _reject_unknown(node, set(_MODEL_KEYS), "model")
    missing = [key for key in _MODEL_KEYS if key not in node]
    if missing:
        _fail("model", f"missing keys {missing}")
    fields = {key: _as_int(node[key], f"model.{key}") for key in _MODEL_KEYS}
    try:
        return ModelConfig(**fields)
    except ValueError as err:
        raise ConfigError(f"model: {err}") from err


def _parse_radio_fields(node: dict, path: str) -> dict[str, float]:
    fields = {}
    for key, value in node.items():
        field, unit = _RADIO_KEYS[key]
        fields[field] = _as_float(value, f"{path}.{key}") * unit
    return fields


def _parse_devices(node: Any, radio_defaults: dict[str, float]) -> tuple[DeviceProfile, ...]:
    if not isinstance(node, list) or not node:
        _fail("devices", "expected a nonempty list of device rows")
    devices = []
    for pos, row in enumerate(node):
        path = f"devices[{pos}]"
        row = _as_mapping(row, path)
        _reject_unknown(row, {"id", *_DEVICE_KEYS, *_RADIO_KEYS}, path)
        if "id" not in row:
            _fail(path, "missing key 'id'")
        dev_fields: dict[str, Any] = {"id": _as_int(row["id"], f"{path}.id")}
        for key, (field, unit) in _DEVICE_KEYS.items():
            if key not in row:
                _fail(path, f"missing key {key!r}")
            dev_fields[field] = _as_float(row[key], f"{path}.{key}") * unit
        overrides = _parse_radio_fields(
            {k: v for k, v in row.items() if k in _RADIO_KEYS}, path)
        radio_fields = {**radio_defaults, **overrides}
        missing = [key for key, (field, _) in _RADIO_KEYS.items()
                   if field not in radio_fields]
        if missing:
            _fail(path, f"missing radio keys {missing} "
                  "(set them here or in the radio section)")
        try:
            devices.append(DeviceProfile(radio=RadioParams(**radio_fields),
                                         **dev_fields))
        except ValueError as err:
            raise ConfigError(f"{path}: {err}") from err
    ids = [dev.id for dev in devices]
    if len(set(ids)) != len(ids):
        _fail("devices", f"duplicate device ids: {ids}")
    return tuple(devices)


def _parse_experiment(node: Any) -> dict[str, Any]:
    out: dict[str, Any] = {
        "token_lengths": DEFAULT_TOKEN_LENGTHS,
        "strategies": DEFAULT_STRATEGIES,
        "seed": 0,
    }
    if node is None:
        return out
    node = _as_mapping(node, "experiment")
    _reject_unknown(node, set(out), "experiment")
    for key, item in (("token_lengths", _as_int), ("strategies", _as_str)):
        if key in node:
            raw = node[key]
            if not isinstance(raw, list) or not raw:
                _fail(f"experiment.{key}", "expected a nonempty list")
            out[key] = tuple(item(v, f"experiment.{key}[{i}]") for i, v in enumerate(raw))
    if "seed" in node:
        out["seed"] = _as_int(node["seed"], "experiment.seed")
    return out


def scenario_from_mapping(data: Any) -> Scenario:
    data = _as_mapping(data, "<root>")
    _reject_unknown(data, {"model", "radio", "devices", "experiment"}, "")
    for section in ("model", "radio", "devices"):
        if section not in data:
            _fail(section, "missing section")
    model = _parse_model(data["model"])
    radio_node = _as_mapping(data["radio"], "radio")
    _reject_unknown(radio_node, set(_RADIO_KEYS), "radio")
    radio_defaults = _parse_radio_fields(radio_node, "radio")
    devices = _parse_devices(data["devices"], radio_defaults)
    exp = _parse_experiment(data.get("experiment"))
    try:
        return Scenario(model=model, devices=devices, **exp)
    except ValueError as err:
        raise ConfigError(str(err)) from err


class _UniqueKeyLoader(yaml.SafeLoader):
    """Refuses a key given twice in one mapping; a `<<` merged key may be overridden."""

    def construct_mapping(self, node, deep=False):
        own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep)  # keys are hashable
        seen = set()
        for key_node in own:
            key = self.construct_object(key_node)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return mapping


def _reader_problem(raw: bytes, err: yaml.reader.ReaderError) -> str:
    """A ReaderError's fault at a line and column.  Its position counts bytes
    where decoding failed and decoded characters at a special character."""
    if err.encoding == "unicode":
        boms = {b"\xff\xfe": "utf-16-le", b"\xfe\xff": "utf-16-be"}
        text = raw.decode(boms.get(raw[:2], "utf-8"))[:err.position]
        what = f"character #x{err.character:04x}"
    else:
        text = raw[:err.position].decode(err.encoding)
        what = f"byte 0x{err.character:02x}"
    lines = (text + ".").splitlines()  # "." stands for the faulty character
    where = f"line {len(lines)}, column {len(lines[-1])}"
    return f"unacceptable {what}: {err.reason} ({where})"


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        raw = path.read_bytes()
        # bytes, so PyYAML decodes them and any encoding fault is a YAMLError
        data = yaml.load(raw, Loader=_UniqueKeyLoader)
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err}") from err
    except yaml.reader.ReaderError as err:
        raise ConfigError(f"{path}: invalid YAML: {_reader_problem(raw, err)}") from err
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        problem = getattr(err, "problem", None) or " ".join(str(err).split())
        raise ConfigError(f"{path}: invalid YAML: {problem}{where}") from err
    return scenario_from_mapping(data)


def _in_unit(value: float, unit: float, path: str) -> float:
    """Display value v with v * unit == value exactly, so that a dumped
    config reloads to the identical scenario."""
    v = value / unit
    for _ in range(16):
        if v * unit == value:
            return v
        v = math.nextafter(v, math.inf if v * unit < value else -math.inf)
    raise ConfigError(f"{path}: {value!r} has no exact representation "
                      f"in units of {unit:g}")


def scenario_to_mapping(scenario: Scenario) -> dict:
    """Normalized config mapping; inverse of scenario_from_mapping."""
    model_section = {key: getattr(scenario.model, key) for key in _MODEL_KEYS}

    # Shared radio values come from the first device; rows carry overrides.
    first = scenario.devices[0].radio
    radio_section = {
        key: _in_unit(getattr(first, field), unit, f"radio.{key}")
        for key, (field, unit) in _RADIO_KEYS.items()
        if key not in ("tx_power_up_dbm", "distance_m")
    }
    device_rows = []
    for pos, dev in enumerate(scenario.devices):
        row: dict[str, Any] = {"id": dev.id}
        for key, (field, unit) in _DEVICE_KEYS.items():
            row[key] = _in_unit(getattr(dev, field), unit,
                                f"devices[{pos}].{key}")
        for key, (field, unit) in _RADIO_KEYS.items():
            value = _in_unit(getattr(dev.radio, field), unit,
                             f"devices[{pos}].{key}")
            if key in ("tx_power_up_dbm", "distance_m") or value != radio_section[key]:
                row[key] = value
        device_rows.append(row)

    return {
        "model": model_section,
        "radio": radio_section,
        "devices": device_rows,
        "experiment": {
            "token_lengths": list(scenario.token_lengths),
            "strategies": list(scenario.strategies),
            "seed": scenario.seed,
        },
    }


def dump_scenario(scenario: Scenario) -> str:
    return yaml.safe_dump(scenario_to_mapping(scenario), sort_keys=False)
