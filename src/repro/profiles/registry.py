"""Profile registry: the ordered profile set METAM computes per candidate."""

from __future__ import annotations

import hashlib

import numpy as np

from repro.profiles.base import Profile, ProfileContext
from repro.profiles.correlation import CorrelationProfile
from repro.profiles.embedding import EmbeddingSimilarityProfile
from repro.profiles.metadata import MetadataProfile
from repro.profiles.mutual_info import MutualInformationProfile
from repro.profiles.overlap import OverlapProfile


class RandomProfile(Profile):
    """Uninformative profile: a deterministic pseudo-random value per
    augmentation, independent of the task (Fig. 9/10 ablations)."""

    def __init__(self, index: int = 0, seed: int = 0):
        self.name = f"random_{index}"
        self.seed = seed
        self.index = index

    def compute(self, context: ProfileContext) -> float:
        key = f"{self.seed}:{self.index}:{context.column_name}:{context.candidate_table.name}"
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "big"))
        return float(rng.uniform())


class ProfileRegistry:
    """Ordered collection of profiles; computes profile vectors.

    The order is the coordinate order of the profile vector, so it must be
    stable across an experiment (clusters, quality-score weights, and the
    ε-cover all index by position).
    """

    def __init__(self, profiles=None):
        self._profiles = list(profiles or [])
        names = [p.name for p in self._profiles]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate profile names: {names!r}")

    @property
    def names(self) -> list:
        return [p.name for p in self._profiles]

    def __len__(self) -> int:
        return len(self._profiles)

    def __iter__(self):
        return iter(self._profiles)

    def add(self, profile: Profile) -> "ProfileRegistry":
        if profile.name in self.names:
            raise ValueError(f"profile {profile.name!r} already registered")
        self._profiles.append(profile)
        return self

    def remove(self, name: str) -> "ProfileRegistry":
        before = len(self._profiles)
        self._profiles = [p for p in self._profiles if p.name != name]
        if len(self._profiles) == before:
            raise KeyError(f"no profile named {name!r}")
        return self

    def subset(self, names) -> "ProfileRegistry":
        """New registry with only ``names``, in the given order."""
        by_name = {p.name: p for p in self._profiles}
        missing = [n for n in names if n not in by_name]
        if missing:
            raise KeyError(f"profiles not registered: {missing!r}")
        return ProfileRegistry([by_name[n] for n in names])

    def compute_vector(self, context: ProfileContext) -> np.ndarray:
        """Profile vector for one augmentation; every entry in [0, 1]."""
        if not self._profiles:
            raise RuntimeError("registry has no profiles")
        values = np.array([p.compute(context) for p in self._profiles], dtype=float)
        np.clip(values, 0.0, 1.0, out=values)
        values[np.isnan(values)] = 0.0
        return values

    def with_random_profiles(self, n: int, seed: int = 0) -> "ProfileRegistry":
        """Copy of this registry plus ``n`` uninformative profiles."""
        out = ProfileRegistry(list(self._profiles))
        for i in range(n):
            out.add(RandomProfile(index=i, seed=seed))
        return out


def default_registry() -> ProfileRegistry:
    """The paper's five default profiles (§II-C), in a fixed order."""
    return ProfileRegistry(
        [
            CorrelationProfile(),
            MutualInformationProfile(),
            EmbeddingSimilarityProfile(),
            MetadataProfile(),
            OverlapProfile(),
        ]
    )
