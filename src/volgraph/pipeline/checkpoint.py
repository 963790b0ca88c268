"""Self-describing model checkpoints: one npz with a JSON manifest inside.

Layout: key "__manifest__" holds the JSON (format version, config,
seed, the scope serving each window, parameter manifest); every
parameter array is stored under "<scope>/<param-name>", one group per
distinct model (``VolatilityModel.scope``: "tau{τ}" per window, or
"joint" for one shared model).
"""

from __future__ import annotations

import json
import re
import zipfile
from pathlib import Path

import numpy as np

from ..atomic import atomic_open
from ..errors import ConfigError
from .model import ModelConfig, VolatilityModel, build_models, by_scope, window_taus

FORMAT = "volgraph-checkpoint/2"
# format 1 also held the dialogue layers' attention key biases, which the
# softmax cancels; they are dropped on load
_FORMAT_1 = "volgraph-checkpoint/1"
_KEY_BIAS = re.compile(r"dialogue\.layer\d+\.attn\.k\.b")


def save_checkpoint(path, models: dict[int, VolatilityModel], config: ModelConfig) -> None:
    """Write the models, each built from ``config``, to ``path`` (exactly that name) atomically.

    Each listed window must be one of ``config.taus``, and its model must
    serve the windows ``build_models(config)`` gives the model there, so
    that ``load_checkpoint`` accepts what is written. Otherwise this raises
    ``ConfigError`` and writes no file.
    """
    arrays = {}
    for scope, model in by_scope(models).items():
        if model.config != config:
            raise ConfigError(f"model {scope} was built from another config than the one saved")
        for name, t in model.store.items():
            arrays[f"{scope}/{name}"] = t.data
    for tau, model in models.items():
        if tau not in config.taus:
            raise ConfigError(f"window {tau} is not a window of {config.taus}")
        if model.taus != window_taus(config, tau):
            raise ConfigError(
                f"window {tau} needs a model serving {window_taus(config, tau)}, "
                f"got {model.scope} serving {model.taus}"
            )
    scopes = {str(tau): model.scope for tau, model in models.items()}
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


# what reading a damaged npz raises: a bad zip directory, an unsupported zip
# version or compression (NotImplementedError is a RuntimeError), an encryption
# flag (RuntimeError), a bad CRC or offset, or a bad .npy header
_UNREADABLE = (OSError, zipfile.BadZipFile, RuntimeError, ValueError, EOFError)


def load_checkpoint(path) -> tuple[dict[int, VolatilityModel], ModelConfig]:
    try:
        data = np.load(Path(path), allow_pickle=False)
    except _UNREADABLE as e:
        raise ConfigError(f"{path}: not a readable model checkpoint ({e})") from e
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ConfigError(f"{path}: not a model checkpoint")
    with data:
        if "__manifest__" not in data:
            raise ConfigError(f"{path}: not a model checkpoint")
        try:
            manifest = json.loads(str(data["__manifest__"]))
        except _UNREADABLE as e:
            raise ConfigError(f"{path}: unreadable manifest ({e})") from e
        if not isinstance(manifest, dict) or manifest.get("format") not in (FORMAT, _FORMAT_1):
            raise ConfigError(f"{path}: unsupported checkpoint format")
        missing = [key for key in ("config", "scopes") if key not in manifest]
        if missing:
            raise ConfigError(f"{path}: manifest lacks {', '.join(missing)}")
        config = ModelConfig.from_dict(manifest["config"])
        scopes = manifest["scopes"]
        named = isinstance(scopes, dict) and all(isinstance(v, str) for v in scopes.values())
        if not scopes or not named:
            raise ConfigError(f"{path}: scopes must map windows to scope names, got {scopes!r}")
        built = build_models(config)
        models: dict[int, VolatilityModel] = {}
        for tau_str, scope in scopes.items():
            if tau_str not in map(str, config.taus):
                raise ConfigError(f"{path}: scopes key {tau_str!r} is not a window of {config.taus}")
            model = models[int(tau_str)] = built[int(tau_str)]
            if scope != model.scope:
                raise ConfigError(
                    f"{path}: window {tau_str} is in scope {scope!r}, not {model.scope!r}"
                )
        for scope, model in by_scope(models).items():
            prefix = f"{scope}/"
            names = [key[len(prefix) :] for key in data.files if key.startswith(prefix)]
            if manifest["format"] == _FORMAT_1:
                names = [name for name in names if not _KEY_BIAS.fullmatch(name)]
            try:
                state = {name: data[prefix + name] for name in names}
            except _UNREADABLE as e:
                raise ConfigError(f"{path}: scope {scope}: unreadable array ({e})") from e
            try:
                model.store.load_state_arrays(state)
            except ConfigError as e:
                raise ConfigError(f"{path}: scope {scope}: {e}") from e
    return models, config
