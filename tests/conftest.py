"""Shared fixtures: a small synthetic corpus and tiny model configs.

Kept deliberately small so the whole suite stays fast; acceptance tests
that need scale build their own data.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np
import pytest

from volgraph.dataio import SyntheticConfig, build_quarter_datasets, gen_synthetic
from volgraph.graphbuild import build_quarter_graph
from volgraph.pipeline import ModelConfig, prepare_quarter


@pytest.fixture(scope="session")
def small_corpus():
    config = SyntheticConfig(n_companies=8, n_quarters=4, d_s=8)
    return gen_synthetic(config, seed=5)


@pytest.fixture(scope="session")
def small_datasets(small_corpus):
    return build_quarter_datasets(small_corpus.transcripts, small_corpus.prices)


@pytest.fixture(scope="session")
def small_graph(small_corpus, small_datasets):
    ds = small_datasets[0]
    return build_quarter_graph(ds.calls, small_corpus.relations, ds.quarter, labels=ds.labels)


@pytest.fixture(scope="session")
def small_prepared(small_graph, small_datasets):
    return prepare_quarter(small_graph, small_datasets[0])


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        d_hidden=8,
        dialogue_layers=1,
        dialogue_heads=2,
        network_layers=2,
        mlp_hidden=8,
        d_s=8,
        d_p=2,
        d_u=2,
        d_r=2,
        d_q=2,
        max_sentences=16,
        max_utterances=8,
        max_epochs=5,
        seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _openblas_core() -> str | None:
    """The kernel set, e.g. "Haswell", that the OpenBLAS of a numpy wheel runs;
    None where no such library exports ``scipy_openblas_get_corename64_``."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


@pytest.fixture(scope="session")
def blas_build() -> str:
    """The BLAS numpy was built with and the OpenBLAS kernel set it runs, e.g.
    "scipy-openblas 0.3.31.188.0, SkylakeX kernels", for the failure messages
    of tests whose bitwise claims depend on them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy (1.24) has no mode= argument
        return f"the BLAS of numpy {np.__version__}"
    build = f"{blas.get('name')} {blas.get('version')}"
    core = _openblas_core()
    return build if core is None else f"{build}, {core} kernels"
