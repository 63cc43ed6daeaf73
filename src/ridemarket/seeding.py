"""Named deterministic random substreams derived from a single scenario seed.

Each consumer of randomness gets its own substream so that adding draws in
one stage never shifts the draws seen by another stage.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Fixed substream indices; changing these would change every seeded run.
SUBSTREAMS = {
    "placement": 0,      # initial vehicle positions
    "demand_split": 1,   # assigning requests without a platform tag
    "auction_order": 2,  # order in which the broker sells requests
    "trading_order": 3,  # pair and request order in trading rounds
}


def substream(seed: int, name: str) -> np.random.Generator:
    """Return the generator for one named substream of ``seed``."""
    if name not in SUBSTREAMS:
        raise KeyError(f"unknown substream {name!r}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([int(seed), SUBSTREAMS[name]]))
