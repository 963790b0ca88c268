"""Workload definitions and their seeded inputs.

Each workload is a synthetic corpus shape plus a model configuration.
The benchmark seed reaches only the corpus generator; the program sees
nothing but the files written here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from volgraph.dataio import (
    CallRecord,
    Sentence,
    SyntheticConfig,
    gen_synthetic,
    write_prices,
    write_relations,
    write_transcripts,
)
from volgraph.dataio.records import Quarter
from volgraph.pipeline import ModelConfig

TRANSCRIPTS = "transcripts.jsonl"
PRICES = "prices.csv"
RELATIONS = "relations.csv"
# every workload trains this many epochs; patience is above it
EPOCHS = 1

# The acceptance-test model: every op is tiny, so per-op overhead dominates.
SMALL_MODEL = dict(
    d_hidden=8,
    dialogue_layers=1,
    dialogue_heads=2,
    network_layers=2,
    mlp_hidden=8,
    d_s=16,
    d_p=2,
    d_u=2,
    d_r=2,
    d_q=2,
    max_sentences=16,
    max_utterances=8,
)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: dict  # SyntheticConfig fields
    model: dict  # ModelConfig fields; empty means the paper defaults
    train_repeats: int
    # (shortest, longest) text call; None keeps the generator's sentence vectors
    text_lengths: tuple[int, int] | None = None
    setup_repeats: int = 3

    def model_config(self) -> ModelConfig:
        """Fixed-work training: patience above max_epochs, so early stopping never fires."""
        return ModelConfig(
            **self.model,
            max_epochs=EPOCHS,
            patience=EPOCHS + 1,
            joint_heads=True,
            seed=0,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small",
            corpus=dict(n_companies=20, n_quarters=12),
            model=SMALL_MODEL,
            setup_repeats=21,
            train_repeats=15,
        ),
        Workload(
            name="wide-graph",
            corpus=dict(
                n_companies=70,
                n_quarters=11,
                relation_density=0.9,
                call_slots=tuple(range(16, 44)),
            ),
            model={},
            train_repeats=3,
        ),
        Workload(
            name="long-calls",
            corpus=dict(n_companies=12, n_quarters=11, relation_density=0.05),
            model={},
            text_lengths=(50, 300),
            setup_repeats=21,
            train_repeats=3,
        ),
    )
}


def write_inputs(workload: Workload, seed: int, out_dir: Path) -> None:
    """Generate the workload's corpus from ``seed`` and write the three input files."""
    corpus = dict(workload.corpus)
    if workload.text_lengths is not None:
        corpus.update(min_sentences=2, max_sentences=2)  # replaced by text below
    data = gen_synthetic(SyntheticConfig(**corpus), seed=seed)
    calls = data.transcripts
    if workload.text_lengths is not None:
        rng = np.random.default_rng([seed, 1])
        calls = text_calls(calls, data.tones, workload.text_lengths, rng)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_transcripts(calls, out_dir / TRANSCRIPTS)
    write_prices(data.prices, out_dir / PRICES)
    write_relations(data.relations, out_dir / RELATIONS)


_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
_VOCAB = 3000
_TONE_WORDS = 60
# long-calls lengths: groups of calls that share one 16-sentence bucket
BUCKET = 16
CALLS_PER_BUCKET = 3


def text_calls(calls, tones, lengths, rng) -> list[CallRecord]:
    """Replace sentence vectors with seeded text whose word mix carries the call's tone.

    The call lengths of each quarter come from ``quarter_lengths``, so
    every quarter, and every seed, costs the encoder about the same while
    the words and the company-to-length pairing vary.
    """
    vocab = np.array(
        ["".join(rng.choice(_LETTERS, size=k)) for k in rng.integers(3, 10, size=_VOCAB)]
    )
    by_quarter: dict[Quarter, list[int]] = {}
    for i, call in enumerate(calls):
        by_quarter.setdefault(Quarter.of_date(call.call_date), []).append(i)
    n_sentences = [0] * len(calls)
    for members in by_quarter.values():
        for i, n in zip(members, quarter_lengths(len(members), lengths, rng)):
            n_sentences[i] = int(n)
    out = []
    for call, n in zip(calls, n_sentences):
        # tone z shifts the share of tone words from ~0 to ~0.3
        p_tone = 0.15 * (1.0 + np.tanh(tones[call.call_id]))
        out.append(
            CallRecord(
                call.call_id,
                call.company_id,
                call.call_date,
                _text_sentences(rng, vocab, n, p_tone),
            )
        )
    return out


def quarter_lengths(n_calls: int, lengths, rng) -> np.ndarray:
    """Shuffled, distinct sentence counts for one quarter's calls.

    The calls come in groups of CALLS_PER_BUCKET. Each group's lengths lie
    in one aligned block of BUCKET counts (16k+1 .. 16k+16), and the
    blocks are spread evenly over ``lengths``. Exact-length batching
    therefore puts every call in a batch of its own, while batching by
    length bucket can put a whole group in one batch.
    """
    lo, hi = lengths
    n_groups = -(-n_calls // CALLS_PER_BUCKET)
    out = []
    for centre in np.linspace(lo, hi, n_groups):
        k = (int(round(centre)) - 1) // BUCKET
        block = np.arange(max(lo, BUCKET * k + 1), min(hi, BUCKET * k + BUCKET) + 1)
        out.extend(rng.choice(block, size=CALLS_PER_BUCKET, replace=False))
    return rng.permutation(np.array(out[:n_calls]))


def _text_sentences(rng, vocab, n: int, p_tone: float) -> list[Sentence]:
    n_tokens = rng.integers(6, 25, size=n)
    total = int(n_tokens.sum())
    tone = rng.random(total) < p_tone
    tone_word = rng.integers(0, _TONE_WORDS, total)
    other_word = rng.integers(_TONE_WORDS, _VOCAB, total)
    words = vocab[np.where(tone, tone_word, other_word)]
    bounds = np.concatenate([[0], np.cumsum(n_tokens)])
    n_pres = max(1, round(0.4 * n))
    sentences = []
    utterance = 0
    qa_left = 0
    role = "executive"
    for pos in range(n):
        if pos < n_pres:
            part, role = "presentation", "executive"
        else:
            part = "qa"
            if qa_left == 0:
                utterance += 1
                qa_left = int(rng.integers(1, 4))
                role = "analyst" if role == "executive" else "executive"
            qa_left -= 1
        sentences.append(
            Sentence(
                utterance_idx=utterance,
                role=role,
                part=part,
                position=pos,
                text=" ".join(words[bounds[pos] : bounds[pos + 1]]),
            )
        )
    return sentences
