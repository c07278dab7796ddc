"""Mutual-information profile, normalized to [0, 1]."""

from __future__ import annotations

import math

import numpy as np

from repro.profiles.base import Profile, ProfileContext
from repro.utils.stats import mutual_information


class MutualInformationProfile(Profile):
    """Maximum normalized MI between the augmented column and any numeric
    attribute of ``Din``.

    MI is normalized by ``log(bins)`` — the maximum achievable for the
    histogram estimator — so the value lands in [0, 1].  MI is the paper's
    proxy for causal dependence between attributes (§II-C).
    """

    name = "mutual_information"

    def __init__(self, bins: int = 8):
        if bins < 2:
            raise ValueError(f"bins must be >= 2, got {bins}")
        self.bins = bins

    def compute(self, context: ProfileContext) -> float:
        aug = context.sampled_column()
        if np.all(np.isnan(aug)):
            return 0.0
        max_mi = math.log(self.bins)
        best = 0.0
        for column in context.comparable_base_columns():
            mi = mutual_information(
                context.sampled_base_encoded(column),
                aug,
                bins=self.bins,
                x_bins_cache=context.shared(
                    ("mi_bins", column, context.sample_size, context.seed), dict
                ),
            )
            best = max(best, mi / max_mi)
        return self._clip(best)
