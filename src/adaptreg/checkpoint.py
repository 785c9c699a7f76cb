"""Versioned model checkpoints: embeddings, coefficient tensor and optimizer
state in a single npz; round-trip load is bit-exact."""

import json
import zipfile

import numpy as np

from .adaptive import GRANULARITIES, RegCoefficients
from .errors import IncompatibleCheckpointError
from .mf import Embeddings
from .optim import make_optimizer

FORMAT_VERSION = 1
_HEADER_KEYS = ("num_users", "num_items", "dim", "granularity", "optimizer")
_ARRAYS = ("user_factors", "item_factors", "lambda_values")


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


def _read_header(path, data):
    """The JSON header of an open checkpoint archive, once the header and
    every key and array that loading needs are known to be present."""
    if "header" not in data.files:
        raise IncompatibleCheckpointError(f"checkpoint {path} has no header")
    try:
        header = json.loads(bytes(data["header"]).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IncompatibleCheckpointError(
            f"checkpoint {path} has an unreadable header: {exc}") from None
    if not isinstance(header, dict):
        raise IncompatibleCheckpointError(f"checkpoint {path} header is not a JSON object")
    if header.get("version") != FORMAT_VERSION:
        raise IncompatibleCheckpointError(
            f"unsupported checkpoint version {header.get('version')}")
    missing = [k for k in _HEADER_KEYS if k not in header]
    missing += [k for k in _ARRAYS if k not in data.files]
    if missing:
        raise IncompatibleCheckpointError(
            f"checkpoint {path} lacks {', '.join(missing)}")
    for key in ("num_users", "num_items", "dim"):
        value = header[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise IncompatibleCheckpointError(
                f"checkpoint {path} header {key} is {value!r}, not a positive integer")
    if header["granularity"] not in GRANULARITIES:
        raise IncompatibleCheckpointError(
            f"checkpoint {path} has unknown granularity {header['granularity']!r}")
    return header


def load_checkpoint(path):
    try:
        archive = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:  # pickled, empty, truncated
        raise IncompatibleCheckpointError(
            f"{path} is not an npz checkpoint: {exc}") from None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise IncompatibleCheckpointError(f"{path} is not an npz checkpoint")
    with archive as data:
        header = _read_header(path, data)
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
        if not (values >= 0.0).all() or not np.isfinite(values).all():
            raise IncompatibleCheckpointError(
                f"checkpoint {path} has negative or non-finite lambda values")
        lam.values[:] = values
        try:
            optimizer = make_optimizer(header["optimizer"])
        except ValueError as exc:
            raise IncompatibleCheckpointError(f"checkpoint {path}: {exc}") from None
        opt_state = {k[4:]: np.array(v) for k, v in data.items() if k.startswith("opt_")}
        try:
            optimizer.load_state(opt_state, emb)
        except KeyError as exc:
            raise IncompatibleCheckpointError(
                f"checkpoint {path} lacks optimizer state opt_{exc.args[0]}") from None
        except (ValueError, TypeError) as exc:
            raise IncompatibleCheckpointError(f"checkpoint {path}: {exc}") from None
    return emb, lam, optimizer, header
