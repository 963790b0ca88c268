"""Self-describing model checkpoints: one npz with a JSON manifest inside.

Layout: key "__manifest__" holds the JSON (format version, config,
seed, windows, mode, parameter manifest); every parameter array is
stored under "<tau-scope>/<param-name>". Separate-mode checkpoints
carry one scope per window; joint mode a single shared scope.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from ..atomic import atomic_open
from ..errors import ConfigError
from .model import ModelConfig, VolatilityModel

FORMAT = "volgraph-checkpoint/1"


def save_checkpoint(path, models: dict[int, VolatilityModel], config: ModelConfig) -> None:
    """Write the models to ``path`` (exactly that name) in one atomic step."""
    arrays = {}
    scopes = {}
    seen = {}
    for tau, model in models.items():
        key = id(model)
        if key in seen:
            scopes[str(tau)] = seen[key]
            continue
        scope = "joint" if config.joint_heads else f"tau{tau}"
        seen[key] = scope
        scopes[str(tau)] = scope
        for name, t in model.store.items():
            arrays[f"{scope}/{name}"] = t.data
    manifest = {
        "format": FORMAT,
        "config": config.to_dict(),
        "seed": config.seed,
        "scopes": scopes,
        "params": sorted(arrays),
    }
    arrays["__manifest__"] = np.array(json.dumps(manifest))
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> tuple[dict[int, VolatilityModel], ModelConfig]:
    try:
        data = np.load(Path(path), allow_pickle=False)
    except (OSError, zipfile.BadZipFile, ValueError, EOFError) as e:
        raise ConfigError(f"{path}: not a readable model checkpoint ({e})") from e
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ConfigError(f"{path}: not a model checkpoint")
    with data:
        if "__manifest__" not in data:
            raise ConfigError(f"{path}: not a model checkpoint")
        try:
            manifest = json.loads(str(data["__manifest__"]))
        except ValueError as e:
            raise ConfigError(f"{path}: unreadable manifest ({e})") from e
        if not isinstance(manifest, dict) or manifest.get("format") != FORMAT:
            raise ConfigError(f"{path}: unsupported checkpoint format")
        missing = [key for key in ("config", "scopes") if key not in manifest]
        if missing:
            raise ConfigError(f"{path}: manifest lacks {', '.join(missing)}")
        config = ModelConfig.from_dict(manifest["config"])
        scopes = manifest["scopes"]
        if not isinstance(scopes, dict) or not all(isinstance(v, str) for v in scopes.values()):
            raise ConfigError(f"{path}: scopes must map windows to scope names, got {scopes!r}")
        models: dict[int, VolatilityModel] = {}
        built: dict[str, VolatilityModel] = {}
        for tau_str, scope in scopes.items():
            if tau_str not in map(str, config.taus):
                raise ConfigError(f"{path}: scopes key {tau_str!r} is not a window of {config.taus}")
            tau = int(tau_str)
            if scope not in built:
                taus = tuple(config.taus) if config.joint_heads else (tau,)
                model = VolatilityModel(config, taus)
                prefix = f"{scope}/"
                try:
                    state = {
                        key[len(prefix) :]: data[key]
                        for key in data.files
                        if key.startswith(prefix)
                    }
                except (zipfile.BadZipFile, ValueError, EOFError) as e:
                    raise ConfigError(f"{path}: scope {scope}: unreadable array ({e})") from e
                try:
                    model.store.load_state_arrays(state)
                except ConfigError as e:
                    raise ConfigError(f"{path}: scope {scope}: {e}") from e
                built[scope] = model
            models[tau] = built[scope]
    return models, config
