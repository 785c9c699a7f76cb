import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from adaptreg.data import InteractionLog, chronological_split
from adaptreg.mf import Embeddings, TripletBatch


def toy_log(events, num_users=None, num_items=None):
    """Build an InteractionLog from (user, item, timestamp) tuples."""
    users = np.asarray([e[0] for e in events], dtype=np.int64)
    items = np.asarray([e[1] for e in events], dtype=np.int64)
    times = np.asarray([e[2] for e in events], dtype=np.int64)
    return InteractionLog(
        users=users, items=items, times=times,
        num_users=num_users if num_users is not None else int(users.max()) + 1,
        num_items=num_items if num_items is not None else int(items.max()) + 1,
        user_tokens=[], item_tokens=[],
    )


def random_instance(seed, num_users=5, num_items=8, dim=4, scale=0.3):
    rng = np.random.default_rng(seed)
    emb = Embeddings.init(num_users, num_items, dim, scale, rng)
    return emb, rng


def oracle_index_maps(granularity, num_users, num_items, dim):
    """(|U|,K) and (|I|,K) maps from each embedding coordinate to the flat
    coefficient entry it reads, built coordinate by coordinate: the layout
    reference for ``RegCoefficients``."""
    U, I, K = num_users, num_items, dim
    uu, kk = np.meshgrid(np.arange(U), np.arange(K), indexing="ij")
    ii, ki = np.meshgrid(np.arange(I), np.arange(K), indexing="ij")
    if granularity == "global":
        return np.zeros((U, K), dtype=np.int64), np.zeros((I, K), dtype=np.int64)
    if granularity == "dim":
        return kk, ki
    if granularity == "user":
        return uu, np.full((I, K), U, dtype=np.int64)
    if granularity == "item":
        return np.full((U, K), I, dtype=np.int64), ii
    if granularity == "user-dim":
        return uu * K + kk, U * K + ki
    if granularity == "item-dim":
        return kk, K + ii * K + ki
    assert granularity == "full"
    return uu * K + kk, U * K + ii * K + ki


def random_batch(rng, num_users, num_items, size):
    return TripletBatch(
        users=rng.integers(0, num_users, size),
        pos=rng.integers(0, num_items, size),
        neg=rng.integers(0, num_items, size),
    )


@pytest.fixture(scope="session")
def small_split():
    from _synth import make_split
    return make_split(num_users=40, num_items=60, seed=7, min_events=6, max_events=30)
