"""Call-level dialogue encoder.

Every sentence row is the sentence vector concatenated with four
trainable structural embeddings (position in call, utterance index,
speaker role, call part). The numpy side of those rows is built once
per prepared quarter as a ``SentenceBlock``: the sentence vectors of
every call (text sentences hashed in one ``hash_featurizer`` call) and
the four table indices. Each forward gathers the tables for the whole
quarter in four ``take``s and one ``concat``, then reads every batch
straight out of that block by row index. Rows are projected to the
model width, a trainable CLS vector is prepended, and an L-layer
transformer encoder runs over the sequence; the CLS position's final
state is the call embedding. Only that state is read out, so the last
layer computes the CLS query alone: its keys and values still cover
every row, but its attention output and feed-forward block run on the
CLS row only.

Calls are encoded in batches grouped by sentence count. Equal-length
grouping means no padding and no attention masks, and — because every
batched operation here treats batch elements independently — a call's
embedding is bit-for-bit the same no matter which other calls share its
batch. The temporal no-leakage guarantee relies on exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import attrgetter, is_
from typing import Sequence

import numpy as np

from .dataio.records import CallRecord, PARTS, ROLES
from .errors import ConfigError, ShapeError
from .numcore import (
    ParamStore,
    Tensor,
    TransformerLayerParams,
    concat,
    linear,
    reshape,
    take,
    transformer_encoder_layer,
    uniform_init,
)

_ROLE_CODES = {role: i for i, role in enumerate(ROLES)}
_PART_CODES = {part: i for i, part in enumerate(PARTS)}


@dataclass
class StructEmbedTables:
    """Trainable lookup tables for the four structural attributes."""

    position: Tensor
    utterance: Tensor
    role: Tensor
    part: Tensor
    max_sentences: int
    max_utterances: int

    @classmethod
    def init(
        cls,
        store: ParamStore,
        rng: np.random.Generator,
        prefix: str = "dialogue.tables",
        d_p: int = 8,
        d_u: int = 8,
        d_r: int = 8,
        d_q: int = 8,
        max_sentences: int = 512,
        max_utterances: int = 256,
    ) -> "StructEmbedTables":
        return cls(
            position=store.add(f"{prefix}.position", uniform_init(rng, (max_sentences, d_p), d_p)),
            utterance=store.add(
                f"{prefix}.utterance", uniform_init(rng, (max_utterances, d_u), d_u)
            ),
            role=store.add(f"{prefix}.role", uniform_init(rng, (2, d_r), d_r)),
            part=store.add(f"{prefix}.part", uniform_init(rng, (2, d_q), d_q)),
            max_sentences=max_sentences,
            max_utterances=max_utterances,
        )

    @property
    def total_dim(self) -> int:
        return sum(t.shape[1] for t in (self.position, self.utterance, self.role, self.part))


@dataclass
class DialogueEncoderParams:
    proj_w: Tensor
    proj_b: Tensor
    cls: Tensor
    layers: list[TransformerLayerParams]
    n_heads: int

    @classmethod
    def init(
        cls,
        store: ParamStore,
        rng: np.random.Generator,
        d_in: int,
        d_hidden: int,
        n_layers: int,
        n_heads: int,
        prefix: str = "dialogue",
        d_ff: int | None = None,
    ) -> "DialogueEncoderParams":
        if d_hidden % n_heads != 0:
            raise ConfigError(f"d_hidden {d_hidden} not divisible by {n_heads} heads")
        proj_w, proj_b = store.linear(rng, f"{prefix}.proj", d_in, d_hidden)
        cls_vec = store.add(f"{prefix}.cls", uniform_init(rng, (1, d_hidden), d_hidden))
        layers = [
            TransformerLayerParams.init(store, rng, f"{prefix}.layer{i}", d_hidden, d_ff=d_ff)
            for i in range(n_layers)
        ]
        return cls(proj_w, proj_b, cls_vec, layers, n_heads)


def _crc32_table() -> np.ndarray:
    """The 256-entry lookup table of the standard (zlib) CRC-32."""
    c = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        c = np.where(c & 1, np.uint32(0xEDB88320) ^ (c >> 1), c >> 1)
    return c


_CRC32_TABLE = _crc32_table()


def hash_featurizer(texts: Sequence[str], d_s: int = 768) -> np.ndarray:
    """Deterministic bag-of-token-hashes rows, one per text, each ℓ2-normalized.

    Returns a (len(texts), d_s) matrix; an empty text gives a zero row.
    Tokens are the runs of ``[a-z0-9]`` in the lower-cased text, and a
    token's bucket is its crc32 modulo ``d_s``, so the mapping is stable
    across processes (the builtin hash() is salted per interpreter run).

    All texts are scanned as one byte buffer: UTF-8 encodes every
    non-ASCII character with bytes >= 0x80, so the token runs are the
    same as in the text. The crc32 of every token advances one byte
    position per step, and one bincount counts all tokens. The counts
    are integers, so every row's norm is exact and a row does not depend
    on the other texts passed with it.
    """
    parts = [text.lower().encode("utf-8") for text in texts]
    buf = np.frombuffer(b" ".join(parts), dtype=np.uint8)
    is_tok = ((buf >= ord("a")) & (buf <= ord("z"))) | ((buf >= ord("0")) & (buf <= ord("9")))
    flips = np.flatnonzero(np.diff(is_tok, prepend=False, append=False))
    starts, lengths = flips[0::2], flips[1::2] - flips[0::2]
    row_ends = np.cumsum([len(p) + 1 for p in parts])  # +1 for the joining space
    rows = np.searchsorted(row_ends, starts, side="right")  # starts ascend here
    # longest tokens first, so the tokens still running at byte j are a
    # prefix; a stable sort of (longest − length) in the narrowest unsigned
    # type is the order of a stable sort of −length, and numpy radix-sorts
    # keys of 16 bits or fewer
    longest = int(lengths.max(initial=0))
    order = np.argsort((longest - lengths).astype(np.min_scalar_type(longest)), kind="stable")
    starts, lengths, rows = starts[order], lengths[order], rows[order]
    crc = np.full(len(starts), 0xFFFFFFFF, dtype=np.uint32)
    running = len(starts) - np.cumsum(np.bincount(lengths))  # tokens longer than j
    for j, k in enumerate(running[:-1]):
        crc[:k] = _CRC32_TABLE[(crc[:k] ^ buf[starts[:k] + j]) & 0xFF] ^ (crc[:k] >> 8)
    cols = (crc ^ np.uint32(0xFFFFFFFF)) % d_s
    counts = np.bincount(rows * d_s + cols, minlength=len(texts) * d_s)
    mat = counts.astype(np.float64).reshape(len(texts), d_s)
    norms = np.sqrt(np.einsum("ij,ij->i", mat, mat))[:, None]
    return np.divide(mat, norms, out=mat, where=norms > 0)


@dataclass(frozen=True)
class SentenceBlock:
    """Every kept sentence of a list of calls as flat numpy rows, built once.

    Each call's rows are contiguous and in call order. ``base`` holds the
    (S, d_s) sentence vectors and the four index arrays address the
    structural tables. ``batches`` holds one (B, n) row-index array per
    sentence count n, one row per call of that length, by increasing n;
    ``inverse`` puts the concatenated batch outputs back in call order.
    """

    base: np.ndarray
    position: np.ndarray
    utterance: np.ndarray
    role: np.ndarray
    part: np.ndarray
    batches: tuple[np.ndarray, ...]
    inverse: np.ndarray

    @classmethod
    def build(
        cls, calls: Sequence[CallRecord], d_s: int, max_sentences: int, max_utterances: int
    ) -> "SentenceBlock":
        """Calls longer than ``max_sentences`` are truncated from the end;
        utterance indices beyond ``max_utterances`` clamp to the last one.
        All text sentences go through one ``hash_featurizer`` call, and a
        block without text sentences makes none."""
        kept = [c.sentences[:max_sentences] for c in calls]
        lengths = np.array([len(k) for k in kept], dtype=np.intp)
        sentences = [s for k in kept for s in k]
        n_rows = len(sentences)
        starts = np.cumsum(lengths) - lengths
        vectors = list(map(attrgetter("vector"), sentences))
        is_text = list(map(is_, vectors, repeat(None)))
        n_text = sum(is_text)
        if n_text and n_text == n_rows:
            base = hash_featurizer(list(map(attrgetter("text"), sentences)), d_s)
        else:
            if n_text:
                texts = compress(map(attrgetter("text"), sentences), is_text)
                text_rows = iter(hash_featurizer(list(texts), d_s))
                vectors = [next(text_rows) if t else v for t, v in zip(is_text, vectors)]
            try:
                base = np.array(vectors, dtype=np.float64)
            except ValueError:  # rows of different shapes
                base = None
            if base is None or base.shape[1:] != (d_s,):
                row = next(
                    r for r, s in enumerate(sentences)
                    if s.vector is not None and np.shape(s.vector) != (d_s,)
                )
                call = calls[int(np.searchsorted(starts, row, side="right")) - 1]
                raise ShapeError(
                    f"call {call.call_id}: sentence vectors have dim "
                    f"{np.size(sentences[row].vector)}, expected {d_s}"
                )
        utterance = np.fromiter(map(attrgetter("utterance_idx"), sentences), np.intp, n_rows)
        sizes = np.unique(lengths)
        members = [np.flatnonzero(lengths == n) for n in sizes]
        return cls(
            base=base,
            position=np.arange(n_rows) - np.repeat(starts, lengths),
            utterance=np.minimum(utterance, max_utterances - 1),
            role=np.fromiter(map(_ROLE_CODES.__getitem__, map(attrgetter("role"), sentences)),
                             np.intp, n_rows),
            part=np.fromiter(map(_PART_CODES.__getitem__, map(attrgetter("part"), sentences)),
                             np.intp, n_rows),
            batches=tuple(starts[m, None] + np.arange(n) for m, n in zip(members, sizes)),
            inverse=np.argsort(np.concatenate(members), kind="stable"),
        )


def _sentence_block(
    calls: Sequence[CallRecord], tables: StructEmbedTables, d_s: int, memo: dict
) -> SentenceBlock:
    key = (d_s, tables.max_sentences, tables.max_utterances)
    if key not in memo:
        memo[key] = SentenceBlock.build(calls, *key)
    return memo[key]


def featurize_sentences(
    calls: Sequence[CallRecord], tables: StructEmbedTables, d_s: int, memo: dict
) -> Tensor:
    """Rows of sentence vector ⊕ position ⊕ utterance ⊕ role ⊕ part embeddings.

    Returns one (S, d_in) block holding every kept sentence of ``calls``
    in call order. The calls' ``SentenceBlock`` is built on first use and
    kept in ``memo`` under ``(d_s, max_sentences, max_utterances)``, so a
    later call with the same memo only gathers the embedding tables.
    """
    block = _sentence_block(calls, tables, d_s, memo)
    return concat(
        [
            Tensor(block.base),
            take(tables.position, block.position),
            take(tables.utterance, block.utterance),
            take(tables.role, block.role),
            take(tables.part, block.part),
        ],
        axis=1,
    )


def encode_featurized_batch(x: Tensor, params: DialogueEncoderParams) -> Tensor:
    """Encode a (B, N, d_in) block of equal-length calls into (B, d_hidden).

    Only the CLS row is read out, so the last layer takes it as its sole
    query and never computes the other rows.
    """
    b = x.shape[0]
    h = linear(x, params.proj_w, params.proj_b)
    cls_rows = take(params.cls, np.zeros((b, 1), dtype=np.intp))  # (b, 1, d_hidden)
    h = concat([cls_rows, h], axis=1)
    for layer in params.layers[:-1]:
        h = transformer_encoder_layer(h, layer, params.n_heads)
    out = take(h, [0], axis=1)
    if params.layers:
        out = transformer_encoder_layer(h, params.layers[-1], params.n_heads, queries=out)
    return reshape(out, (b, out.shape[2]))


def encode_calls(
    calls: Sequence[CallRecord],
    tables: StructEmbedTables,
    params: DialogueEncoderParams,
    d_s: int,
    memo: dict,
) -> Tensor:
    """Embed many calls, batching equal-length calls together.

    Returns an (len(calls), d_hidden) tensor in input order. Batch
    composition never changes a call's embedding (see module docstring),
    so group scheduling is free to chase throughput. Each batch is one
    ``take`` of (B, n) row indices from the featurized block. ``memo``
    keeps the calls' ``SentenceBlock`` (see ``featurize_sentences``).
    """
    x = featurize_sentences(calls, tables, d_s, memo)
    block = _sentence_block(calls, tables, d_s, memo)  # built by featurize_sentences
    chunks = [encode_featurized_batch(take(x, rows), params) for rows in block.batches]
    stacked = concat(chunks, axis=0) if len(chunks) > 1 else chunks[0]
    return take(stacked, block.inverse)
