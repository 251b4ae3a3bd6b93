"""Experiment configuration: defaults, schema validation, JSON loading."""

from __future__ import annotations

import copy
import json
import math

from .errors import ConfigurationError

DEFAULT_CONFIG = {
    "seed": 0,
    "stream": {
        "classes": 20,
        "steps": 5,
        "samples_per_class": 200,
        "test_per_class": 50,
        "ambient_dim": 32,
        "tree_fraction": 0.5,
        "noise": 0.5,
        "csv_path": None,
        "train_ratio": 0.8,
    },
    "backbone": {"hidden_dim": 64, "feature_dim": 32},
    "pool": {"sizes": [4, 8, 16], "mode": "mixed"},
    "lambda1": 1.0,
    "lambda2": 1.0,
    "lr_gis": 0.01,
    "lr_main": 0.005,
    "epochs_main": 15,
    "epochs_gis": 2,
    "batch_size": 64,
    "pair_batch": 64,
    "buffer": {"policy": "per_class", "per_class": 20, "budget": 200},
    # Cap (x tau2) beyond which between-class repulsion stops; 0 disables.
    "repulsion_cap": 4.0,
    "out_dir": "runs/default",
}

_POSITIVE_INT = ("stream.classes", "stream.steps", "stream.samples_per_class",
                 "stream.test_per_class", "stream.ambient_dim", "backbone.hidden_dim",
                 "backbone.feature_dim", "epochs_main", "epochs_gis", "batch_size",
                 "pair_batch", "buffer.per_class", "buffer.budget")
_NONNEG = ("lambda1", "lambda2", "stream.noise", "repulsion_cap")
_POSITIVE = ("lr_gis", "lr_main")
_UNIT = ("stream.tree_fraction", "stream.train_ratio")


def load_config(path: str | None = None, overrides: dict | None = None) -> dict:
    """Defaults, overlaid with a JSON file and explicit overrides, validated."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"config {path}: {exc}") from None
        _merge(cfg, user, trail="")
    if overrides:
        _merge(cfg, overrides, trail="")
    validate_config(cfg)
    return cfg


def _merge(base: dict, user, trail: str):
    if not isinstance(user, dict):
        raise ConfigurationError(f"'{trail[:-1] or 'config'}' must be an object, got {user!r}")
    for key, value in user.items():
        here = f"{trail}{key}"
        if key not in base:
            raise ConfigurationError(f"unknown config key '{here}'")
        if isinstance(base[key], dict):
            _merge(base[key], value, trail=f"{here}.")
        else:
            base[key] = value


def _lookup(cfg: dict, dotted: str):
    node = cfg
    for part in dotted.split("."):
        node = node[part]
    return node


def finite_number(v) -> bool:
    """A number that is not a bool and stays finite as a float."""
    try:
        return not isinstance(v, bool) and math.isfinite(v)
    except (TypeError, OverflowError):
        return False


def validate_config(cfg: dict):
    for key in _POSITIVE_INT:
        v = _lookup(cfg, key)
        if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
            raise ConfigurationError(f"'{key}' must be a positive integer, got {v!r}")
    for key in _NONNEG:
        v = _lookup(cfg, key)
        if not finite_number(v) or v < 0:
            raise ConfigurationError(f"'{key}' must be a non-negative number, got {v!r}")
    for key in _POSITIVE:
        v = _lookup(cfg, key)
        if not finite_number(v) or v <= 0:
            raise ConfigurationError(f"'{key}' must be a positive number, got {v!r}")
    for key in _UNIT:
        v = _lookup(cfg, key)
        if not finite_number(v) or not (0.0 <= v <= 1.0):
            raise ConfigurationError(f"'{key}' must lie in [0, 1], got {v!r}")
    if not isinstance(cfg["seed"], int) or isinstance(cfg["seed"], bool) or cfg["seed"] < 0:
        raise ConfigurationError("'seed' must be a non-negative integer")
    if cfg["stream"]["csv_path"] is not None and not isinstance(cfg["stream"]["csv_path"], str):
        raise ConfigurationError("'stream.csv_path' must be null or a string")
    if not isinstance(cfg["out_dir"], str):
        raise ConfigurationError("'out_dir' must be a string")
    if cfg["pool"]["mode"] not in ("mixed", "euclidean"):
        raise ConfigurationError("'pool.mode' must be 'mixed' or 'euclidean'")
    if cfg["buffer"]["policy"] not in ("per_class", "global"):
        raise ConfigurationError("'buffer.policy' must be 'per_class' or 'global'")
    sizes = cfg["pool"]["sizes"]
    if (not isinstance(sizes, list) or not sizes
            or any(not isinstance(s, int) or s < 2 for s in sizes)):
        raise ConfigurationError("'pool.sizes' must be a non-empty list of ints >= 2")
    d = cfg["backbone"]["feature_dim"]
    if d < 2:
        raise ConfigurationError(f"'backbone.feature_dim' must be at least 2, got {d}")
    if cfg["pool"]["mode"] == "mixed" and any(d % s != 0 for s in sizes):
        raise ConfigurationError(f"every pool size must divide feature_dim {d}")
    if cfg["stream"]["classes"] % cfg["stream"]["steps"] != 0:
        raise ConfigurationError("stream.classes must divide evenly into stream.steps")
