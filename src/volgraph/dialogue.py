"""Call-level dialogue encoder.

Every sentence row is the sentence vector concatenated with four
trainable structural embeddings (position in call, utterance index,
speaker role, call part). The numpy side of those rows is built once
per prepared quarter as a ``SentenceBlock``: the sentence vectors of
every call (text sentences hashed in one ``hash_featurizer`` call) and
the four table indices. Each forward gathers the tables for the whole
quarter in four ``take``s and one ``concat``. Rows are projected to the
model width, a trainable CLS vector is put before each call's rows, and
an L-layer transformer encoder runs over each call; the CLS position's
final state is the call embedding. Only that state is read out, so the
last layer computes the CLS query alone: its keys and values still cover
every row, but its query map, attention output and feed-forward block
run on the CLS rows only.

Calls are encoded packed (the "varlen" layout of FlashAttention-2): the
calls are sorted by sentence count and cut into chunks of whole calls of
at most ``_CHUNK_ROWS`` rows, each call's rows contiguous with its CLS row
first. The projection and each layer's row-wise work (the Q/K/V and
output maps, both layer norms, the feed-forward block) run once per
chunk as 2-D products, and only the attention core runs per group of
equal-length calls, so no padding of sequences or attention masks is
involved. Every product is ``numcore.layers._affine`` (whole 8-column
panels, fixed-shape row tiles), so a call's embedding is bit-for-bit the
same whatever other calls share its chunk: checked on OpenBLAS 0.3.31
with its SkylakeX, Haswell and Sandybridge kernels, and by the encoder's
append and composition tests on any other. The temporal no-leakage
guarantee relies on exactly that.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import compress, repeat
from operator import attrgetter, is_
from typing import Sequence

import numpy as np

from .dataio.records import CallRecord, PARTS, ROLES
from .errors import ShapeError
from .numcore import (
    ParamStore,
    Tensor,
    TransformerLayerParams,
    concat,
    take,
    transformer_encoder_layer,
    uniform_init,
)
from .numcore.layers import _affine, _affine_grads, _lead_sum
from .numcore.tensor import _make

_ROLE_CODES = {role: i for i, role in enumerate(ROLES)}
_PART_CODES = {part: i for i, part in enumerate(PARTS)}
# packed rows (a CLS row and the sentences per call) per encoder chunk: at
# the paper's sizes a 512-row chunk's (512, 256) feed-forward block fits a
# 2 MB L2 cache, where a whole long-calls quarter's slowed the layer down
_CHUNK_ROWS = 512


@dataclass
class StructEmbedTables:
    """Trainable lookup tables for the four structural attributes."""

    position: Tensor
    utterance: Tensor
    role: Tensor
    part: Tensor

    @classmethod
    def init(
        cls,
        store: ParamStore,
        rng: np.random.Generator,
        d_p: int,
        d_u: int,
        d_r: int,
        d_q: int,
        max_sentences: int,
        max_utterances: int,
    ) -> "StructEmbedTables":
        """One position row per kept sentence and one utterance row per utterance index."""
        prefix = "dialogue.tables"
        return cls(
            position=store.add(f"{prefix}.position", uniform_init(rng, (max_sentences, d_p), d_p)),
            utterance=store.add(
                f"{prefix}.utterance", uniform_init(rng, (max_utterances, d_u), d_u)
            ),
            role=store.add(f"{prefix}.role", uniform_init(rng, (2, d_r), d_r)),
            part=store.add(f"{prefix}.part", uniform_init(rng, (2, d_q), d_q)),
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
    ) -> "DialogueEncoderParams":
        proj_w, proj_b = store.linear(rng, "dialogue.proj", d_in, d_hidden)
        cls_vec = store.add("dialogue.cls", uniform_init(rng, (1, d_hidden), d_hidden))
        layers = [
            TransformerLayerParams.init(store, rng, f"dialogue.layer{i}", d_hidden)
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


# tokens longer than this many bytes are hashed one at a time by zlib
_LONG_TOKEN = 64


def hash_featurizer(texts: Sequence[str], d_s: int) -> np.ndarray:
    """Deterministic bag-of-token-hashes rows, one per text, each ℓ2-normalized.

    Returns a (len(texts), d_s) matrix; an empty text gives a zero row.
    Tokens are the runs of ``[a-z0-9]`` in the lower-cased text, and a
    token's bucket is its crc32 modulo ``d_s``, so the mapping is stable
    across processes (the builtin hash() is salted per interpreter run).

    All texts are scanned as one byte buffer: UTF-8 encodes every
    non-ASCII character with bytes >= 0x80, so the token runs are the
    same as in the text. The crc32 of every token of up to
    ``_LONG_TOKEN`` bytes advances one byte position per step; a longer
    token goes to ``zlib.crc32``, the same CRC-32, so one long token does
    not cost a step per byte. One bincount counts all tokens. The counts
    are integers, so every row's norm is exact and a row does not depend
    on the other texts passed with it.
    """
    parts = [text.lower().encode("utf-8") for text in texts]
    joined = b" ".join(parts)
    buf = np.frombuffer(joined, dtype=np.uint8)
    is_tok = ((buf >= ord("a")) & (buf <= ord("z"))) | ((buf >= ord("0")) & (buf <= ord("9")))
    flips = np.flatnonzero(np.diff(is_tok, prepend=False, append=False))
    starts, lengths = flips[0::2], flips[1::2] - flips[0::2]
    row_ends = np.cumsum([len(p) + 1 for p in parts])  # +1 for the joining space
    rows = np.searchsorted(row_ends, starts, side="right")  # starts ascend here
    long = lengths > _LONG_TOKEN
    keys = []
    if long.any():
        spans = zip(starts[long].tolist(), lengths[long].tolist())
        crc = np.array([zlib.crc32(joined[a : a + n]) for a, n in spans], dtype=np.uint32)
        keys.append(rows[long] * d_s + crc % d_s)
        starts, lengths, rows = starts[~long], lengths[~long], rows[~long]
    # longest tokens first, so the tokens still running at byte j are a
    # prefix; a stable sort of (longest − length), at most _LONG_TOKEN, as
    # uint8 is the order of a stable sort of −length, and numpy radix-sorts
    # 8-bit keys
    longest = int(lengths.max(initial=0))
    order = np.argsort((longest - lengths).astype(np.uint8), kind="stable")
    starts, lengths, rows = starts[order], lengths[order], rows[order]
    crc = np.full(len(starts), 0xFFFFFFFF, dtype=np.uint32)
    running = len(starts) - np.cumsum(np.bincount(lengths))  # tokens longer than j
    for j, k in enumerate(running[:-1]):
        crc[:k] = _CRC32_TABLE[(crc[:k] ^ buf[starts[:k] + j]) & 0xFF] ^ (crc[:k] >> 8)
    keys.append(rows * d_s + (crc ^ np.uint32(0xFFFFFFFF)) % d_s)
    counts = np.bincount(np.concatenate(keys), minlength=len(texts) * d_s)
    mat = counts.astype(np.float64).reshape(len(texts), d_s)
    norms = np.sqrt(np.einsum("ij,ij->i", mat, mat))[:, None]
    return np.divide(mat, norms, out=mat, where=norms > 0)


@dataclass(frozen=True)
class SentenceBlock:
    """Every kept sentence of a list of calls as flat numpy rows, built once.

    Each call's rows are contiguous and in call order. ``base`` holds the
    (S, d_s) sentence vectors and the four index arrays address the
    structural tables. ``chunks`` holds the encoder's chunks: the calls
    sorted by sentence count (call order within a count) and cut into runs
    of whole calls of at most ``_CHUNK_ROWS`` packed rows (a call that is
    longer alone is a chunk of its own). Each chunk is (lengths, rows):
    its calls' sentence counts, and the row indices of their sentences,
    call after call. ``inverse`` puts the concatenated chunk outputs back
    in call order.
    """

    base: np.ndarray
    position: np.ndarray
    utterance: np.ndarray
    role: np.ndarray
    part: np.ndarray
    chunks: tuple[tuple[np.ndarray, np.ndarray], ...]
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
        order = np.argsort(lengths, kind="stable")
        sorted_lengths = lengths[order]
        ends = np.cumsum(sorted_lengths)  # sentence rows up to each sorted call
        packed_rows = np.repeat(starts[order] - (ends - sorted_lengths), sorted_lengths)
        packed_rows += np.arange(n_rows)
        cuts, filled = [0], 0
        for i, size in enumerate((sorted_lengths + 1).tolist()):
            if filled and filled + size > _CHUNK_ROWS:
                cuts.append(i)
                filled = 0
            filled += size
        cuts.append(len(calls))
        row_cuts = np.concatenate([[0], ends])[cuts]
        inverse = np.empty_like(order)
        inverse[order] = np.arange(len(order))
        return cls(
            base=base,
            position=np.arange(n_rows) - np.repeat(starts, lengths),
            utterance=np.minimum(utterance, max_utterances - 1),
            role=np.fromiter(map(_ROLE_CODES.__getitem__, map(attrgetter("role"), sentences)),
                             np.intp, n_rows),
            part=np.fromiter(map(_PART_CODES.__getitem__, map(attrgetter("part"), sentences)),
                             np.intp, n_rows),
            chunks=tuple(
                (sorted_lengths[a:b], packed_rows[ra:rb])
                for a, b, ra, rb in zip(cuts, cuts[1:], row_cuts, row_cuts[1:])
            ),
            inverse=inverse,
        )


def _sentence_block(
    calls: Sequence[CallRecord], tables: StructEmbedTables, d_s: int, memo: dict
) -> SentenceBlock:
    key = (d_s, tables.position.shape[0], tables.utterance.shape[0])
    if key not in memo:
        memo[key] = SentenceBlock.build(calls, *key)
    return memo[key]


def featurize_sentences(
    calls: Sequence[CallRecord], tables: StructEmbedTables, d_s: int, memo: dict
) -> Tensor:
    """Rows of sentence vector ⊕ position ⊕ utterance ⊕ role ⊕ part embeddings.

    Returns one (S, d_in) block holding every kept sentence of ``calls``
    in call order. The calls' ``SentenceBlock`` is built on first use and
    kept in ``memo`` under ``d_s`` and the row counts of the position and
    utterance tables (the sentence and utterance bounds), so a later call
    with the same memo only gathers the embedding tables.
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


def _pack_calls(lengths: np.ndarray, x: Tensor, params: DialogueEncoderParams) -> Tensor:
    """Each call's CLS row, then its projected sentence rows, as one tape node.

    ``x`` holds the calls' (S, d_in) sentence rows, call after call; the
    result is (B + S, d_hidden). The projection is one 2-D product over
    all S rows (``_affine``).
    """
    w, b, cls = params.proj_w, params.proj_b, params.cls
    if x.shape != (lengths.sum(), w.shape[1]):
        raise ShapeError(f"packed rows {x.shape} do not fit {lengths.sum()} sentences "
                         f"of width {w.shape[1]}")
    cls_rows = np.cumsum(lengths + 1) - (lengths + 1)
    sentence_rows = np.ones(x.shape[0] + len(lengths), dtype=bool)
    sentence_rows[cls_rows] = False
    out = np.empty((len(sentence_rows), w.shape[0]))
    out[cls_rows] = cls.data
    out[sentence_rows] = _affine(x.data, w.data, b.data)

    def backward(g):
        gs = g[sentence_rows]
        gx, gw = _affine_grads(gs, x.data, w.data)
        return gx, gw, _lead_sum(gs), _lead_sum(g[cls_rows])[None]

    return _make(out, (x, w, b, cls), backward)


def encode_featurized_batch(
    lengths: np.ndarray, x: Tensor, params: DialogueEncoderParams
) -> Tensor:
    """Encode a chunk of calls into (B, d_hidden), one row per call.

    ``lengths`` (B,) holds the calls' sentence counts and ``x`` their
    (sum(lengths), d_in) featurized rows, call after call. Each call
    becomes its CLS row followed by its projected rows, and every layer
    runs over the packed rows, with equal consecutive lengths sharing one
    attention core (see ``transformer_encoder_layer``). Only the CLS rows
    are read out, so the last layer computes those rows alone (``cls_only``).
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    h = _pack_calls(lengths, x, params)
    packed = lengths + 1  # a CLS row and the sentences per call
    for layer in params.layers[:-1]:
        h = transformer_encoder_layer(h, layer, params.n_heads, packed)
    return transformer_encoder_layer(h, params.layers[-1], params.n_heads, packed, cls_only=True)


def encode_calls(
    calls: Sequence[CallRecord],
    tables: StructEmbedTables,
    params: DialogueEncoderParams,
    d_s: int,
    memo: dict,
) -> Tensor:
    """Embed many calls, packed in chunks of whole calls sorted by length.

    Returns an (len(calls), d_hidden) tensor in input order. Chunk
    composition never changes a call's embedding (see module docstring).
    Each chunk is one ``take`` of its calls' rows from the featurized
    block. ``memo`` keeps the calls' ``SentenceBlock`` (see
    ``featurize_sentences``).
    """
    x = featurize_sentences(calls, tables, d_s, memo)
    block = _sentence_block(calls, tables, d_s, memo)  # built by featurize_sentences
    chunks = [encode_featurized_batch(lengths, take(x, rows), params)
              for lengths, rows in block.chunks]
    stacked = concat(chunks, axis=0) if len(chunks) > 1 else chunks[0]
    return take(stacked, block.inverse)
