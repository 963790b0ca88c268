"""Shared fixtures: a small synthetic corpus and tiny model configs.

Kept deliberately small so the whole suite stays fast; acceptance tests
that need scale build their own data.
"""

from __future__ import annotations

import ctypes
import importlib.util
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from volgraph.dataio import (
    PARTS,
    ROLES,
    Sentence,
    SyntheticConfig,
    build_quarter_datasets,
    gen_synthetic,
)
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


def small_model() -> dict:
    """The benchmark's ``small`` model (``SMALL_MODEL`` in volbench/workloads.py)."""
    path = Path(__file__).resolve().parents[1] / "volbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_volbench_workloads", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)  # its dataclasses look their module up by name
    return module.SMALL_MODEL


def sentences_of(call) -> list:
    """A call's ``Sentence`` rows, rebuilt from its columns; row j is at position j."""
    vectors = iter(call.vectors)
    rows = zip(call.utterance.tolist(), call.role.tolist(), call.part.tolist(), call.texts,
               call.has_vector.tolist())
    return [
        Sentence(utterance, ROLES[role], PARTS[part], j, text=text,
                 vector=next(vectors) if has_vector else None)
        for j, (utterance, role, part, text, has_vector) in enumerate(rows)
    ]


def tape_arrays(out) -> list:
    """The arrays that the backward of tape node ``out`` keeps: those its closure
    reaches through cells, lists, tuples and nested functions."""
    arrays, seen = [], set()
    stack = [cell.cell_contents for cell in out._backward_fn.__closure__]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            arrays.append(item)
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, types.FunctionType) and item.__closure__:
            stack.extend(cell.cell_contents for cell in item.__closure__)
    return arrays


def pad_mask(store) -> np.ndarray:
    """True at the entries of ``store``'s packed vector that no parameter covers."""
    pads = np.ones(store.offsets[-1], dtype=bool)
    for offset, (_, t) in zip(store.offsets, store.items()):
        pads[offset:offset + t.data.size] = False
    return pads


def assert_packed(store, shapes: dict) -> None:
    """Every parameter of ``store`` is a C-contiguous view of its packed vector at
    its offset, with the shape ``shapes`` names, and the pad entries are zero."""
    assert [name for name, _ in store.items()] == list(shapes)
    for (name, t), offset in zip(store.items(), store.offsets):
        assert t.data.shape == shapes[name], name
        assert np.shares_memory(t.data, store.vector), name
        assert t.data.flags.c_contiguous, name
        assert t.data.ctypes.data == store.vector.ctypes.data + 8 * offset, name
    assert not store.vector[pad_mask(store)].any()


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
