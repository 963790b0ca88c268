"""Generator guarantees: determinism, analytic baseline values, and a
recoverable (or absent) planted signal.

The closed form used here: an alternating-sign return window of constant
magnitude m and odd length n has sample volatility m*sqrt((n+1)/n), so
the trailing baseline over the pre-call clean zone must read exactly
ln(m) + 0.5*ln((tau+1)/tau).
"""

from __future__ import annotations

import datetime as dt
import math

import numpy as np
import pytest

from reference_volatility import label, v_past_prediction
from volgraph.dataio.records import RELATION_COLUMNS, Quarter
from volgraph.dataio.synthetic import SyntheticConfig, gen_synthetic
from volgraph.errors import ConfigError


def corpus(seed=0, **overrides):
    return gen_synthetic(SyntheticConfig(n_companies=6, n_quarters=4, **overrides), seed=seed)


class TestDeterminism:
    def test_same_seed_is_bitwise_identical(self):
        a = corpus(seed=9)
        b = corpus(seed=9)
        assert [c.call_id for c in a.transcripts] == [c.call_id for c in b.transcripts]
        for ca, cb in zip(a.transcripts, b.transcripts):
            assert ca.call_date == cb.call_date
            for sa, sb in zip(ca.sentences, cb.sentences):
                np.testing.assert_array_equal(sa.vector, sb.vector)
        for pa, pb in zip(a.prices, b.prices):
            np.testing.assert_array_equal(pa.closes, pb.closes)
        for name in RELATION_COLUMNS:
            assert np.array_equal(getattr(a.relations, name), getattr(b.relations, name))
        assert a.tones == b.tones

    def test_different_seed_differs(self):
        a = corpus(seed=1)
        b = corpus(seed=2)
        assert not np.array_equal(a.prices[0].closes, b.prices[0].closes)


class TestStructure:
    def test_one_call_per_company_per_quarter(self):
        data = corpus()
        seen = set()
        for call in data.transcripts:
            q = Quarter.of_date(call.call_date)
            key = (call.company_id, q)
            assert key not in seen
            seen.add(key)
        assert len(seen) == 6 * 4

    def test_calls_are_weekdays_inside_their_quarter(self):
        data = corpus()
        for call in data.transcripts:
            assert call.call_date.weekday() < 5
            q = Quarter.of_date(call.call_date)
            assert q.start <= call.call_date <= q.end

    def test_sentence_counts_and_shapes(self):
        config = SyntheticConfig(n_companies=4, n_quarters=2, d_s=10)
        data = gen_synthetic(config, seed=3)
        for call in data.transcripts:
            assert config.min_sentences <= len(call.sentences) <= config.max_sentences
            for s in call.sentences:
                assert s.vector.shape == (10,)
                assert s.text is None

    def test_presentation_precedes_qa_and_roles_alternate(self):
        data = corpus()
        for call in data.transcripts:
            parts = [s.part for s in call.sentences]
            if "qa" in parts:
                assert parts.index("qa") == len(parts) - parts[::-1].count("qa")
            pres = [s for s in call.sentences if s.part == "presentation"]
            assert pres and all(s.role == "executive" for s in pres)
            assert all(s.utterance_idx == 0 for s in pres)
            qa = [s for s in call.sentences if s.part == "qa"]
            # within q&a, consecutive utterances switch speaker
            for prev, cur in zip(qa, qa[1:]):
                if cur.utterance_idx != prev.utterance_idx:
                    assert cur.role != prev.role

    def test_prices_cover_every_weekday_and_stay_positive(self):
        data = corpus()
        for series in data.prices:
            assert all(d.weekday() < 5 for d in series.dates)
            assert np.all(series.closes > 0)
            gaps = np.diff([d.toordinal() for d in series.dates])
            assert gaps.max() <= 3  # weekends only

    def test_relations_target_prior_years(self):
        data = corpus()
        call_years = {Quarter.of_date(c.call_date).year for c in data.transcripts}
        years = set(data.relations.year.tolist())
        assert years == {y - 1 for y in call_years}
        assert ((0 < data.relations.similarity) & (data.relations.similarity < 1)).all()

    def test_relation_density_scales_edge_count(self):
        lo = gen_synthetic(
            SyntheticConfig(n_companies=20, n_quarters=1, relation_density=0.05), seed=4
        )
        hi = gen_synthetic(
            SyntheticConfig(n_companies=20, n_quarters=1, relation_density=0.6), seed=4
        )
        assert len(hi.relations) > 3 * len(lo.relations)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(n_companies=1)
        with pytest.raises(ConfigError):
            SyntheticConfig(elevated_days=5)
        with pytest.raises(ConfigError):
            SyntheticConfig(call_slots=(10,))
        with pytest.raises(ConfigError):
            SyntheticConfig(tone_persistence=1.0)


class TestPlantedSignal:
    def test_trailing_baseline_matches_closed_form(self):
        # before each call the magnitude is constant at the previous
        # quarter's level, so v_past must hit the alternating-window value
        config = SyntheticConfig(n_companies=5, n_quarters=4)
        data = gen_synthetic(config, seed=7)
        series = {p.company_id: p for p in data.prices}
        quarters = [Quarter(2014, 3)]
        for _ in range(3):
            quarters.append(quarters[-1].next())
        checked = 0
        for call in data.transcripts:
            q = Quarter.of_date(call.call_date)
            qi = quarters.index(q)
            if qi == 0:
                continue  # first quarter's clean zone uses the seed tone
            prev_call = f"{call.company_id}-{quarters[qi - 1]}"
            level = config.base_log_vol + config.tone_loading * data.tones[prev_call]
            for tau in (3, 7, 15):
                want = level + 0.5 * math.log((tau + 1) / tau)
                got = v_past_prediction(series[call.company_id], call.call_date, tau)
                assert got == pytest.approx(want, abs=1e-10)
                checked += 1
        assert checked >= 45

    def test_label_tracks_tone_when_signal_on(self):
        data = gen_synthetic(SyntheticConfig(n_companies=20, n_quarters=6), seed=11)
        series = {p.company_id: p for p in data.prices}
        tones, labels = [], []
        for call in data.transcripts:
            tones.append(data.tones[call.call_id])
            labels.append(label(series[call.company_id], call.call_date, 7))
        corr = np.corrcoef(tones, labels)[0, 1]
        assert corr > 0.5

    def test_label_ignores_tone_when_signal_off(self):
        data = gen_synthetic(
            SyntheticConfig(n_companies=20, n_quarters=6, signal_strength=0.0), seed=11
        )
        series = {p.company_id: p for p in data.prices}
        tones, labels = [], []
        for call in data.transcripts:
            tones.append(data.tones[call.call_id])
            labels.append(label(series[call.company_id], call.call_date, 7))
        assert abs(np.corrcoef(tones, labels)[0, 1]) < 0.2

    @staticmethod
    def _held_out_tone_correlation(signal_strength: float) -> float:
        # fit the hidden embedding direction on half the calls, measure the
        # projection/tone correlation on the other half; same-sample fitting
        # would overfit the noise dimensions and prove nothing
        config = SyntheticConfig(
            n_companies=24, n_quarters=4, signal_strength=signal_strength
        )
        data = gen_synthetic(config, seed=13)
        means = {c.call_id: np.mean([s.vector for s in c.sentences], axis=0)
                 for c in data.transcripts}
        z = np.array([data.tones[c.call_id] for c in data.transcripts])
        m = np.array([means[c.call_id] for c in data.transcripts])
        half = len(z) // 2
        direction = z[:half] @ m[:half] / (z[:half] @ z[:half])
        direction /= np.linalg.norm(direction)
        return float(np.corrcoef(m[half:] @ direction, z[half:])[0, 1])

    def test_sentence_vectors_carry_tone_direction(self):
        assert self._held_out_tone_correlation(1.0) > 0.8

    def test_zero_signal_vectors_are_pure_noise(self):
        assert abs(self._held_out_tone_correlation(0.0)) < 0.3

    def test_returns_alternate_in_sign(self):
        data = corpus()
        for series in data.prices:
            r = series.closes[1:] / series.closes[:-1] - 1.0
            signs = np.sign(r)
            assert np.all(signs[1:] * signs[:-1] < 0)

    def test_every_call_is_labelable_at_default_slots(self):
        # slots leave >= 16 trailing and 20 elevated trading days, so all
        # three windows exist for every call
        data = corpus(seed=21)
        series = {p.company_id: p for p in data.prices}
        for call in data.transcripts:
            for tau in (3, 7, 15):
                label(series[call.company_id], call.call_date, tau)
                v_past_prediction(series[call.company_id], call.call_date, tau)
