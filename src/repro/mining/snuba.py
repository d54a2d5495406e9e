"""Snuba-style iterative heuristic synthesis (the paper's road not
taken).

§4.3: "Prior work in automatic LF generation can overcome this
challenge, including model-based approaches such as Snuba [Varma & Ré
2018].  We found such methods difficult to immediately integrate (and
justify) with existing production workflows and infrastructure."

This is a compact implementation of Snuba's core loop so the trade-off
can be measured rather than asserted: starting from the same primitive
predicates the itemset miner considers (single categorical values and
numeric thresholds), it *iteratively* selects the heuristic that best
improves an abstain-aware F1 over the dev points not yet covered by the
committee, re-scoring every remaining candidate each round.  The loop
is quadratic in candidates x rounds — which is exactly why the paper
found it costly next to one-pass itemset mining; the §6.7.1 benchmark
reports both wall-clocks side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.obs as obs
from repro.core.exceptions import MiningError
from repro.features.schema import FeatureKind
from repro.features.table import MISSING, FeatureTable
from repro.labeling.lf import (
    NEGATIVE,
    POSITIVE,
    LabelingFunction,
    conjunction_lf,
    numeric_threshold_lf,
)

__all__ = ["SnubaGenerator", "SnubaReport"]


@dataclass
class SnubaReport:
    """What the synthesis loop did."""

    n_candidates: int = 0
    n_rounds: int = 0
    n_selected: int = 0
    #: candidate trial merges scored — the machine-independent cost of
    #: the greedy re-scoring loop
    n_trials: int = 0
    wall_clock_seconds: float = 0.0
    objective_trace: list[float] | None = None


@dataclass
class _Candidate:
    lf: LabelingFunction
    votes: np.ndarray  # {-1, 0, +1} over dev rows


class SnubaGenerator:
    """Iterative greedy heuristic selection over primitive predicates.

    Parameters
    ----------
    max_heuristics:
        Committee size budget.
    min_support:
        Minimum fraction of dev rows a candidate must vote on.
    numeric_quantiles:
        Threshold grid for numeric features.
    min_token_count:
        Absolute floor on a categorical value's dev-set frequency.
    """

    def __init__(
        self,
        max_heuristics: int = 25,
        min_support: float = 0.01,
        numeric_quantiles: tuple[float, ...] = (0.7, 0.8, 0.9, 0.95),
        min_token_count: int = 5,
    ) -> None:
        if max_heuristics < 1:
            raise MiningError("max_heuristics must be >= 1")
        if not 0.0 < min_support <= 1.0:
            raise MiningError("min_support must be in (0, 1]")
        self.max_heuristics = max_heuristics
        self.min_support = min_support
        self.numeric_quantiles = numeric_quantiles
        self.min_token_count = min_token_count
        self.report_: SnubaReport | None = None

    # ------------------------------------------------------------------
    # candidate generation
    # ------------------------------------------------------------------
    def _categorical_candidates(
        self, table: FeatureTable, labels: np.ndarray, features: list[str]
    ) -> list[_Candidate]:
        from collections import defaultdict

        candidates: list[_Candidate] = []
        n = table.n_rows
        for name in features:
            token_rows: dict[str, list[int]] = defaultdict(list)
            for i, value in enumerate(table.column(name)):
                if value is MISSING:
                    continue
                for token in value:  # type: ignore[union-attr]
                    token_rows[token].append(i)
            for token, rows in token_rows.items():
                if len(rows) < max(self.min_token_count, int(self.min_support * n)):
                    continue
                votes = np.zeros(n, dtype=np.int8)
                purity = labels[rows].mean()
                polarity = POSITIVE if purity >= labels.mean() else NEGATIVE
                votes[rows] = polarity
                candidates.append(
                    _Candidate(
                        lf=conjunction_lf(
                            f"snuba[{name}={token}]",
                            name,
                            frozenset({token}),
                            polarity,
                            origin="snuba",
                        ),
                        votes=votes,
                    )
                )
        return candidates

    def _numeric_candidates(
        self, table: FeatureTable, labels: np.ndarray, features: list[str]
    ) -> list[_Candidate]:
        candidates: list[_Candidate] = []
        n = table.n_rows
        for name in features:
            values = np.array(
                [
                    float(v) if v is not MISSING else np.nan
                    for v in table.column(name)
                ]
            )
            present = ~np.isnan(values)
            if present.sum() < 20:
                continue
            for q in self.numeric_quantiles:
                for direction, polarity in (("above", POSITIVE), ("below", NEGATIVE)):
                    quantile = q if direction == "above" else 1.0 - q
                    threshold = float(np.nanquantile(values, quantile))
                    if direction == "above":
                        matched = present & (values >= threshold)
                    else:
                        matched = present & (values <= threshold)
                    if matched.sum() < max(5, int(self.min_support * n)):
                        continue
                    votes = np.zeros(n, dtype=np.int8)
                    votes[matched] = polarity
                    candidates.append(
                        _Candidate(
                            lf=numeric_threshold_lf(
                                f"snuba[{name}{'>=' if direction == 'above' else '<='}q{int(quantile * 100)}]",
                                name,
                                threshold,
                                polarity,
                                direction=direction,
                                origin="snuba",
                            ),
                            votes=votes,
                        )
                    )
        return candidates

    # ------------------------------------------------------------------
    # greedy selection
    # ------------------------------------------------------------------
    @staticmethod
    def _macro_f1(votes: np.ndarray, signed: np.ndarray) -> float:
        """Mean of the positive-vote F1 (against the positive class) and
        the negative-vote F1 (against the negative class), so heuristics
        of both polarities can improve the committee."""

        def polarity_f1(polarity: int) -> float:
            predicted = votes == polarity
            actual = signed == polarity
            tp = float((predicted & actual).sum())
            fp = float((predicted & ~actual).sum())
            fn = float((~predicted & actual).sum())
            precision = tp / (tp + fp) if tp + fp > 0 else 0.0
            recall = tp / (tp + fn) if tp + fn > 0 else 0.0
            if precision + recall == 0:
                return 0.0
            return 2 * precision * recall / (precision + recall)

        return 0.5 * (polarity_f1(1) + polarity_f1(-1))

    def generate(
        self,
        dev_table: FeatureTable,
        features: list[str] | None = None,
    ) -> list[LabelingFunction]:
        """Synthesize a heuristic committee from a labeled dev table."""
        if dev_table.labels is None:
            raise MiningError("Snuba synthesis requires a labeled dev table")
        labels = dev_table.labels
        if labels.sum() == 0:
            raise MiningError("dev table contains no positive examples")
        signed = np.where(labels == 1, 1, -1)

        schema = dev_table.schema
        if features is None:
            features = schema.names
        categorical = [
            f for f in features if schema[f].kind is FeatureKind.CATEGORICAL
        ]
        numeric = [f for f in features if schema[f].kind is FeatureKind.NUMERIC]

        with obs.timed("mining.snuba", n_rows=dev_table.n_rows) as t:
            candidates = self._categorical_candidates(dev_table, labels, categorical)
            candidates.extend(self._numeric_candidates(dev_table, labels, numeric))
            report = SnubaReport(
                n_candidates=len(candidates), objective_trace=[]
            )

            selected: list[_Candidate] = []
            committee_votes = np.zeros(dev_table.n_rows, dtype=np.int8)
            best_objective = 0.0
            remaining = list(candidates)
            while remaining and len(selected) < self.max_heuristics:
                report.n_rounds += 1
                # Snuba's expensive step: every remaining candidate is
                # *trial-merged* into the committee and the full objective
                # recomputed (this re-scoring loop is the cost the paper's
                # §4.3 declined to pay)
                best_index = -1
                best_trial = best_objective
                report.n_trials += len(remaining)
                for index, candidate in enumerate(remaining):
                    trial_votes = committee_votes.copy()
                    untouched = trial_votes == 0
                    trial_votes[untouched] = candidate.votes[untouched]
                    objective = self._macro_f1(trial_votes, signed)
                    if objective > best_trial + 1e-9:
                        best_trial = objective
                        best_index = index
                if best_index < 0:
                    break  # no candidate improves the committee
                candidate = remaining.pop(best_index)
                untouched = committee_votes == 0
                committee_votes[untouched] = candidate.votes[untouched]
                best_objective = best_trial
                report.objective_trace.append(best_objective)
                selected.append(candidate)

            report.n_selected = len(selected)
            t.span.add_counter("candidates", report.n_candidates)
            t.span.add_counter("rounds", report.n_rounds)
            t.span.add_counter("selected", report.n_selected)
            t.span.add_counter("trials", report.n_trials)
        report.wall_clock_seconds = t.duration
        self.report_ = report
        return [candidate.lf for candidate in selected]
