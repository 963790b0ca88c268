"""Deterministic synthetic corpus with a planted, recoverable signal.

Each company carries a latent per-quarter "risk tone" z following an
AR(1) chain. The tone is embedded (scaled by ``signal_strength``) into
every sentence vector of the company's earnings call, and the same tone
shifts the log-magnitude of the company's daily returns for the 20
trading days after the call. A transcript model can therefore predict
future volatility better than the trailing baseline — by exactly the
amount the tone moves future variance beyond what past variance already
reveals.

Construction details that make the baselines analytically clean:

* Daily returns alternate in sign deterministically; only magnitudes are
  random. A window of constant-magnitude alternating returns has
  volatility m·sqrt((n+1)/n) for odd window size n, so the trailing
  window (which sits in a constant-magnitude "clean zone") gives the
  baseline a noiseless reading of the pre-call regime.
* The post-call window's magnitude is exp(base + signal·tone·loading +
  shock + per-day jitter). The shock and jitter are the irreducible
  label noise; the tone is the recoverable part.
* With ``signal_strength`` 0 the sentence vectors are pure noise and the
  best predictor degenerates to a constant, tying the baseline up to a
  small bias — the no-signal control.

Calls land on mid-quarter trading days so that every label window stays
inside the elevated zone and every trailing window stays inside the
clean zone, with no bleed across quarters.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field, fields

import numpy as np

from ..errors import ConfigError
from .records import CallRecord, PriceSeries, Quarter, RelationTable, Sentence

_MIN_QUARTER_WEEKDAYS = 64


@dataclass
class SyntheticConfig:
    n_companies: int = 30
    n_quarters: int = 12
    start_year: int = 2014
    start_quarter: int = 3
    relation_density: float = 0.2
    signal_strength: float = 1.0
    d_s: int = 16
    base_log_vol: float = float(np.log(0.015))
    tone_loading: float = 0.5
    tone_persistence: float = 0.6
    shock_scale: float = 0.3
    jitter_scale: float = 0.2
    sentence_noise: float = 0.35
    min_sentences: int = 8
    max_sentences: int = 14
    elevated_days: int = 20
    call_slots: tuple = (20, 25, 30, 35, 40)

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.n_companies < 2:
            raise ConfigError("need at least 2 companies")
        if self.n_quarters < 1:
            raise ConfigError("need at least 1 quarter")
        last_year = self.start_year + (self.start_quarter + self.n_quarters - 2) // 4
        if self.start_year < 1 or last_year > 9999:
            raise ConfigError(f"years {self.start_year}..{last_year} are not all in 1..9999")
        if not 0.0 <= self.relation_density <= 1.0:
            raise ConfigError(f"relation_density {self.relation_density} outside [0,1]")
        if self.signal_strength < 0:
            raise ConfigError("signal_strength must be >= 0")
        if self.d_s < 2:
            raise ConfigError("sentence vector dimension must be >= 2")
        if not 0.0 <= self.tone_persistence < 1.0:
            raise ConfigError("tone_persistence must lie in [0,1)")
        if self.min_sentences < 2 or self.max_sentences < self.min_sentences:
            raise ConfigError("bad sentence count range")
        if self.elevated_days < 15:
            raise ConfigError("elevated zone must cover the longest label window (15)")
        if not self.call_slots:
            raise ConfigError("call_slots must not be empty")
        if min(self.call_slots) < 16:
            raise ConfigError("earliest call slot must leave 16 trading days of history")
        if max(self.call_slots) + self.elevated_days >= _MIN_QUARTER_WEEKDAYS:
            raise ConfigError("latest call slot pushes the elevated zone past quarter end")


@dataclass
class SyntheticData:
    transcripts: list[CallRecord]
    prices: list[PriceSeries]
    relations: RelationTable
    # each call's latent tone, the truth that oracle tests and text corpora read
    tones: dict[str, float] = field(default_factory=dict)


def _weekday_grid(first: dt.date, last: dt.date) -> list[dt.date]:
    days = []
    d = first
    one = dt.timedelta(days=1)
    while d <= last:
        if d.weekday() < 5:
            days.append(d)
        d += one
    return days


def gen_synthetic(config: SyntheticConfig, seed: int) -> SyntheticData:
    """Generate transcripts, prices and relations for one planted-signal corpus."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    s = config.signal_strength
    b = config.tone_loading
    rho = config.tone_persistence

    quarters = [Quarter(config.start_year, config.start_quarter)]
    for _ in range(config.n_quarters - 1):
        quarters.append(quarters[-1].next())
    grid = _weekday_grid(quarters[0].start, quarters[-1].end)
    q_start = {q: next(i for i, d in enumerate(grid) if d >= q.start) for q in quarters}

    tone_dir = rng.normal(size=config.d_s)
    tone_dir /= np.linalg.norm(tone_dir)

    company_ids = [f"C{i:03d}" for i in range(config.n_companies)]
    transcripts: list[CallRecord] = []
    prices: list[PriceSeries] = []
    tones: dict[str, float] = {}

    for company_id in company_ids:
        z_prev = float(rng.normal())
        log_mag = np.full(len(grid), config.base_log_vol)
        company_calls = []
        for qi, quarter in enumerate(quarters):
            z = rho * z_prev + np.sqrt(1.0 - rho * rho) * float(rng.normal())
            shock = config.shock_scale * float(rng.normal())
            slot = int(rng.choice(config.call_slots))
            t = q_start[quarter] + slot
            q_end = q_start[quarters[qi + 1]] if qi + 1 < len(quarters) else len(grid)

            # clean zone [quarter start, call day] keeps the previous tone's level
            log_mag[q_start[quarter] : t + 1] = config.base_log_vol + s * b * z_prev
            hi = min(t + 1 + config.elevated_days, len(grid))
            regime = config.base_log_vol + s * b * z + shock
            # -jitter^2 recenters E[m^2] on exp(2*regime), so the label's
            # mean matches the trailing baseline's closed form at signal 0
            jit = config.jitter_scale * rng.normal(size=hi - t - 1) - config.jitter_scale**2
            log_mag[t + 1 : hi] = regime + jit
            # settled zone: the new tone's level persists until the next call
            log_mag[hi:q_end] = config.base_log_vol + s * b * z

            call_id = f"{company_id}-{quarter}"
            call = _make_call(rng, config, call_id, company_id, grid[t], s * z, tone_dir)
            company_calls.append(call)
            tones[call_id] = z
            z_prev = z

        signs = np.where(np.arange(len(grid)) % 2 == 0, 1.0, -1.0)
        returns = signs * np.minimum(np.exp(log_mag), 0.3)
        closes = np.empty(len(grid))
        closes[0] = 100.0
        np.cumprod(1.0 + returns[1:], out=closes[1:])
        closes[1:] *= 100.0
        prices.append(PriceSeries(company_id, list(grid), closes))
        transcripts.extend(company_calls)

    relations = _gen_relations(rng, config, company_ids, quarters)
    return SyntheticData(transcripts, prices, relations, tones)


def _make_call(
    rng: np.random.Generator,
    config: SyntheticConfig,
    call_id: str,
    company_id: str,
    date: dt.date,
    scaled_tone: float,
    tone_dir: np.ndarray,
) -> CallRecord:
    n = int(rng.integers(config.min_sentences, config.max_sentences + 1))
    n_pres = max(1, int(round(0.4 * n)))
    sentences = []
    utterance = 0
    qa_left = 0
    role = "executive"
    for pos in range(n):
        if pos < n_pres:
            part = "presentation"
            role = "executive"
        else:
            part = "qa"
            if qa_left == 0:
                utterance += 1
                qa_left = int(rng.integers(1, 3))
                role = "analyst" if role == "executive" else "executive"
            qa_left -= 1
        vec = scaled_tone * tone_dir + config.sentence_noise * rng.normal(size=config.d_s)
        sentences.append(
            Sentence(
                utterance_idx=utterance if part == "qa" else 0,
                role=role,
                part=part,
                position=pos,
                vector=vec,
            )
        )
    return CallRecord(call_id, company_id, date, sentences)


def _gen_relations(
    rng: np.random.Generator,
    config: SyntheticConfig,
    company_ids: list[str],
    quarters: list[Quarter],
) -> RelationTable:
    years = sorted({q.year - 1 for q in quarters})
    relations = []
    for year in years:
        for i in range(len(company_ids)):
            for j in range(i + 1, len(company_ids)):
                u = rng.random()
                if u < config.relation_density:
                    sim = float(rng.uniform(0.16, 0.9))
                elif u < 1.1 * config.relation_density:
                    # sub-threshold pairs exercise the similarity filter
                    sim = float(rng.uniform(0.01, 0.14))
                else:
                    continue
                relations.append((company_ids[i], company_ids[j], year, sim))
    return RelationTable.from_rows(relations)
