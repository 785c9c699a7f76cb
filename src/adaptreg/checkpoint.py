"""Versioned model checkpoints: embeddings, coefficient tensor and optimizer
state in a single npz; round-trip load is bit-exact."""

import json

import numpy as np

from .adaptive import RegCoefficients
from .errors import IncompatibleCheckpointError
from .mf import Embeddings
from .optim import make_optimizer

FORMAT_VERSION = 1


def save_checkpoint(path, emb, lam, optimizer, meta=None):
    header = {
        "version": FORMAT_VERSION,
        "num_users": emb.num_users,
        "num_items": emb.num_items,
        "dim": emb.dim,
        "granularity": lam.granularity,
        "optimizer": optimizer.kind,
        "meta": meta or {},
    }
    arrays = {
        "header": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        "user_factors": emb.user,
        "item_factors": emb.item,
        "lambda_values": lam.values,
    }
    for key, val in optimizer.state_arrays().items():
        arrays[f"opt_{key}"] = val
    np.savez(path, **arrays)


def load_checkpoint(path):
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        if header.get("version") != FORMAT_VERSION:
            raise IncompatibleCheckpointError(
                f"unsupported checkpoint version {header.get('version')}")
        emb = Embeddings(user=np.array(data["user_factors"]),
                         item=np.array(data["item_factors"]))
        U, I, K = header["num_users"], header["num_items"], header["dim"]
        lam = RegCoefficients.create(header["granularity"], U, I, K)
        values = np.array(data["lambda_values"])
        if (emb.user.shape, emb.item.shape, values.shape) != ((U, K), (I, K), lam.values.shape):
            raise IncompatibleCheckpointError(
                f"checkpoint arrays {emb.user.shape}/{emb.item.shape}/{values.shape} "
                f"do not match its header ({U} users, {I} items, dim {K}, "
                f"{lam.num_entries} {lam.granularity} coefficients)")
        lam.values[:] = values
        optimizer = make_optimizer(header["optimizer"])
        opt_state = {k[4:]: np.array(v) for k, v in data.items() if k.startswith("opt_")}
        optimizer.load_state(opt_state)
    return emb, lam, optimizer, header
