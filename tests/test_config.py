import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocl.config import DEFAULT_CONFIG, load_config, validate_config
from geocl.errors import ConfigurationError


class TestLoadConfig:
    def test_defaults_validate(self):
        cfg = load_config()
        assert cfg == DEFAULT_CONFIG
        assert cfg is not DEFAULT_CONFIG  # defaults must not be aliased

    def test_file_overlay(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 5, "stream": {"noise": 0.7}}))
        cfg = load_config(str(p))
        assert cfg["seed"] == 5
        assert cfg["stream"]["noise"] == 0.7
        assert cfg["stream"]["classes"] == DEFAULT_CONFIG["stream"]["classes"]

    def test_overrides_win_over_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 5}))
        assert load_config(str(p), {"seed": 9})["seed"] == 9

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"sead": 5}))
        with pytest.raises(ConfigurationError, match="sead"):
            load_config(str(p))

    def test_unknown_nested_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"stream": {"noize": 0.5}}))
        with pytest.raises(ConfigurationError, match="stream.noize"):
            load_config(str(p))

    @pytest.mark.parametrize("text", [
        '{"seed": 5, "stream": {"noi',
        "[1, 2]",
        '{"lambda1": NaN}',
        '{"lr_main": Infinity}',
        '{"stream": {"csv_path": 5}}',
        '{"lambda2": true}',
        '{"stream": [1, 2]}',
        '{"out_dir": 3}',
    ], ids=["truncated", "top-level-list", "nan", "infinity", "csv-path-int", "bool",
            "section-not-object", "out-dir-int"])
    def test_malformed_file_rejected(self, tmp_path, text):
        p = tmp_path / "cfg.json"
        p.write_text(text)
        with pytest.raises(ConfigurationError):
            load_config(str(p))

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(str(tmp_path))


class TestValidate:
    def bad(self, **overrides):
        with pytest.raises(ConfigurationError):
            load_config(None, overrides)

    def test_type_and_range_checks(self):
        self.bad(epochs_main=0)
        self.bad(epochs_main=1.5)
        self.bad(lr_main=-0.1)
        self.bad(lambda1=-1.0)
        self.bad(seed=-1)
        self.bad(stream={"train_ratio": 1.5})
        self.bad(lambda1=float("nan"))
        self.bad(lr_main=float("inf"))
        self.bad(repulsion_cap=float("inf"))
        self.bad(stream={"noise": float("nan")})
        self.bad(stream={"train_ratio": float("nan")})
        self.bad(lr_gis=True)
        self.bad(lambda2=False)
        self.bad(lr_main=10 ** 400)

    def test_pool_checks(self):
        self.bad(pool={"mode": "spherical"})
        self.bad(pool={"sizes": []})
        self.bad(pool={"sizes": [5]})  # does not divide feature_dim 32

    @pytest.mark.parametrize("mode", ["mixed", "euclidean"])
    def test_feature_width_below_two(self, mode):
        with pytest.raises(ConfigurationError, match="backbone.feature_dim"):
            load_config(None, {"backbone": {"feature_dim": 1}, "pool": {"mode": mode}})

    def test_stream_divisibility(self):
        self.bad(stream={"classes": 7})

    def test_buffer_policy(self):
        self.bad(buffer={"policy": "fifo"})

    def test_validate_is_pure(self):
        cfg = load_config()
        before = json.dumps(cfg, sort_keys=True)
        validate_config(cfg)
        assert json.dumps(cfg, sort_keys=True) == before


def _dotted_keys(node, trail=""):
    for key, value in node.items():
        yield trail + key
        if isinstance(value, dict):
            yield from _dotted_keys(value, f"{trail}{key}.")


def _nest(flat: dict) -> dict:
    """Dotted keys to nested objects; a key under a non-object value is dropped."""
    out: dict = {}
    for dotted, value in flat.items():
        *parents, leaf = dotted.split(".")
        node = out
        for part in parents:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                break
        else:
            node[leaf] = value
    return out


def _lookup(cfg: dict, dotted: str):
    for part in dotted.split("."):
        cfg = cfg[part]
    return cfg


_NUMERIC_KEYS = [k for k in _dotted_keys(DEFAULT_CONFIG)
                 if type(_lookup(DEFAULT_CONFIG, k)) in (int, float)]
_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, None]),
    st.integers(-3, 40),
    st.floats(-2.0, 2.0),
    st.text(max_size=4),
    st.lists(st.integers(0, 20), max_size=3),
    st.dictionaries(st.sampled_from(["classes", "noise", "mode", "x"]),
                    st.integers(0, 5), max_size=2),
)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.dictionaries(st.sampled_from(sorted(_dotted_keys(DEFAULT_CONFIG))), _VALUES,
                              max_size=3).map(_nest),
              _VALUES),
    st.one_of(st.none(), st.integers(0, 40)),
)
def test_random_overlay_loads_or_is_rejected(overlay, cut):
    """A config file either loads as a valid config or raises
    ConfigurationError, whatever it holds."""
    text = json.dumps(overlay)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(text if cut is None else text[:cut])
        try:
            cfg = load_config(str(path))
        except ConfigurationError:
            return
    json.dumps(cfg, allow_nan=False)  # no NaN or infinity anywhere
    for key in _NUMERIC_KEYS:
        value = _lookup(cfg, key)
        assert isinstance(value, (int, float)) and not isinstance(value, bool), key
