import copy
import textwrap

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from coldpipe.config import (dump_scenario, load_scenario,
                             scenario_from_mapping, scenario_to_mapping)
from coldpipe.errors import ConfigError
from coldpipe.experiment import Scenario, random_instance_suite
from conftest import TAB1_CONFIG, tab1_scenario


def test_shipped_tab1_config_loads():
    sc = load_scenario(TAB1_CONFIG)
    assert sc.model.d_model == 5120
    assert sc.model.num_layers == 40
    assert [d.peak_flops for d in sc.devices] == [165e12, 70e12, 30e12, 20e12]
    assert [d.disk_bytes_per_s for d in sc.devices] == [5e9, 4e9, 3e9, 2e9]
    assert [d.memory_bytes for d in sc.devices] == [20e9, 10e9, 8e9, 8e9]
    assert sc.devices[0].radio.tx_power_up_dbm == 20.0
    assert sc.devices[3].radio.distance_m == 7.0
    assert sc.devices[0].radio.efficiency == 0.5
    assert sc.token_lengths == (256, 512, 1024, 2048, 4096, 8192)


def test_round_trip_tab1():
    sc = tab1_scenario()
    text = dump_scenario(sc)
    assert scenario_from_mapping(yaml.safe_load(text)) == sc


def test_round_trip_random_scenarios():
    for inst in random_instance_suite(30, seed=77):
        sc = inst.scenario
        again = scenario_from_mapping(yaml.safe_load(dump_scenario(sc)))
        assert again == sc


def test_unknown_key_rejected(tmp_path):
    data = scenario_to_mapping(tab1_scenario())
    data["devices"][1]["disk_read_mbs"] = 4000.0  # typo'd unit suffix
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(data))
    with pytest.raises(ConfigError, match=r"devices\[1\].disk_read_mbs"):
        load_scenario(path)


def test_unknown_section_rejected(tmp_path):
    data = scenario_to_mapping(tab1_scenario())
    data["radios"] = data.pop("radio")
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(data))
    with pytest.raises(ConfigError, match="radios"):
        load_scenario(path)


def test_missing_device_key(tmp_path):
    data = scenario_to_mapping(tab1_scenario())
    del data["devices"][0]["memory_gb"]
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(data))
    with pytest.raises(ConfigError, match=r"devices\[0\].*memory_gb"):
        load_scenario(path)


def test_unknown_strategy_rejected(tmp_path):
    data = scenario_to_mapping(tab1_scenario())
    data["experiment"]["strategies"] = ["optimal_dp", "magic"]
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(data))
    with pytest.raises(ConfigError, match="magic"):
        load_scenario(path)


def test_experiment_defaults(tmp_path):
    data = scenario_to_mapping(tab1_scenario())
    del data["experiment"]
    path = tmp_path / "ok.yaml"
    path.write_text(yaml.safe_dump(data))
    sc = load_scenario(path)
    assert sc.token_lengths == (256, 512, 1024, 2048, 4096, 8192)
    assert sc.strategies == ("optimal_dp", "even", "heuristic", "single_device")


def test_per_device_radio_override(tmp_path):
    path = tmp_path / "override.yaml"
    path.write_text(textwrap.dedent("""\
        model: {d_model: 5120, h_q: 40, h_kv: 8, d_head: 128, d_ff: 17408,
                num_layers: 40, bytes_per_element: 2}
        radio:
          efficiency: 0.5
          bandwidth_mhz: 160.0
          noise_dbm_per_hz: -174.0
          ref_distance_m: 1.0
          path_loss_exp: 3.0
          ref_gain_db: -47.2
          tx_power_down_dbm: 25.0
        devices:
        - {id: 1, peak_tflops: 165.0, util_ceiling: 0.4,
           util_rate_per_token: 5.1e-4, disk_read_mb_s: 5000.0, memory_gb: 20.0,
           tx_power_up_dbm: 20.0, distance_m: 1.0, bandwidth_mhz: 80.0}
        """))
    sc = load_scenario(path)
    assert sc.devices[0].radio.bandwidth_hz == 80e6


def test_wrong_type_reports_path(tmp_path):
    data = scenario_to_mapping(tab1_scenario())
    data["devices"][2]["util_ceiling"] = "high"
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(data))
    with pytest.raises(ConfigError, match=r"devices\[2\].util_ceiling"):
        load_scenario(path)


def test_missing_file():
    with pytest.raises(ConfigError):
        load_scenario("/nonexistent/path.yaml")


def test_duplicate_device_ids(tmp_path):
    data = scenario_to_mapping(tab1_scenario())
    data["devices"][1]["id"] = 1
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(data))
    with pytest.raises(ConfigError, match="duplicate"):
        load_scenario(path)


def test_merge_keys_may_be_overridden(tmp_path):
    # only a key given twice in one mapping is refused, not one that
    # overrides a key merged in with `<<`
    text = TAB1_CONFIG.read_text().replace(
        "- id: 2\n", "- <<: &dev2\n    id: 2\n    memory_gb: 0.1\n", 1)
    path = tmp_path / "merge.yaml"
    path.write_text(text)
    assert load_scenario(path) == tab1_scenario()


def test_repeated_key_in_a_nested_mapping_is_refused(tmp_path):
    text = TAB1_CONFIG.read_text().replace("  h_kv: 8\n", "  h_kv: 8\n  h_kv: 4\n", 1)
    path = tmp_path / "twice.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=r"duplicate key 'h_kv' \(line 5, column 3\)"):
        load_scenario(path)


_yaml_leaf = st.one_of(st.none(), st.booleans(),
                       st.integers(-10**400, 10**400),
                       st.floats(allow_nan=True, allow_infinity=True),
                       st.text(max_size=8))
_yaml_value = st.recursive(
    _yaml_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.one_of(st.text(max_size=8), st.integers()),
                        inner, max_size=3)),
    max_leaves=8)


def _paths(node, prefix=()):
    """Path of every node of a mapping, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@pytest.fixture(scope="module")
def tab1_mapping():
    return scenario_to_mapping(tab1_scenario())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_edit_gives_scenario_or_config_error(tab1_mapping, data):
    mapping = copy.deepcopy(tab1_mapping)
    path = data.draw(st.sampled_from(list(_paths(mapping))))
    if not path:
        mapping = data.draw(_yaml_value)
    else:
        parent = mapping
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_yaml_value)
    try:
        assert isinstance(scenario_from_mapping(mapping), Scenario)
    except ConfigError:
        pass
