"""Run configuration: YAML schema, flag overrides, validation, and the content
hash used to name run directories."""

import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import yaml

from .adaptive import canonical_granularity
from .data import frequency_groups
from .errors import ConfigError

DEFAULT_GRID = [10.0, 1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 0.0]


@dataclass
class DataConfig:
    raw_path: str = ""
    manifest_dir: str = ""
    delimiter: str = ","
    has_header: bool = False
    user_col: int = 0
    item_col: int = 1
    time_col: int = 2
    min_user: int = 20
    min_item: int = 20
    ratios: tuple = (0.6, 0.2, 0.2)


@dataclass
class ModelConfig:
    dim: int = 32
    init_scale: float = 0.01


@dataclass
class OptimizerConfig:
    kind: str = "adam"
    lr: float = None  # defaults per kind: adam 0.01, sgd 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    r_decay: float = None


@dataclass
class RegularizationConfig:
    mode: str = "opt"  # fix | opt | sgda
    granularity: str = "full"
    fixed_value: float = None
    grid: list = field(default_factory=lambda: list(DEFAULT_GRID))
    init: float = 0.0
    step_size: float = 1e-3
    clip: float = 1.0
    every: int = 1
    adam_on_lambda: bool = False


@dataclass
class TrainingConfig:
    epochs: int = 200
    batch_size: int = 1024
    lambda_batch_size: int = 1024
    eval_every: int = 5
    patience: int = 20
    seed: int = 0


@dataclass
class GroupsConfig:
    user_boundaries: list = field(default_factory=lambda: [25, 50, 100])
    item_boundaries: list = field(default_factory=lambda: [15, 30, 60])


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    regularization: RegularizationConfig = field(default_factory=RegularizationConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    groups: GroupsConfig = field(default_factory=GroupsConfig)
    output: str = "runs"


def _paths(mapping):
    """(key path, value) for each field of a ``{section: {field: value}}``
    mapping; a value that is not a mapping is a top-level field (``output``)."""
    for top, block in mapping.items():
        if isinstance(block, dict):
            yield from (((top, name), value) for name, value in block.items())
        else:
            yield (top,), block


# every settable key, ("section", "field") or ("output",), with its declared default
_FIELDS = dict(_paths(asdict(RunConfig())))


def load_config(path=None, overrides=()):
    """Build a RunConfig from an optional YAML file plus ``key=value`` flags
    (e.g. training.epochs=5). Both name a field by the same dotted key. A flag's
    text is read as the field's declared kind, so flags win over the file."""
    cfg = RunConfig()
    for key_path, value in _paths(_read_yaml(path)):
        _set(cfg, key_path, value)
    for spec in overrides:
        key, eq, text = spec.partition("=")
        if not eq:
            raise ConfigError(f"override {spec!r} must be key=value")
        _set(cfg, tuple(key.split(".")), text, parse=True)
    return resolve(cfg)


def _read_yaml(path):
    if not path:
        return {}
    # read as bytes, so that YAML's own reader reports an undecodable byte;
    # an integer too long for Python to read from text is a ValueError
    with open(path, "rb") as fh:
        try:
            raw = yaml.safe_load(fh)
        except (yaml.YAMLError, ValueError) as exc:
            raise ConfigError(f"config file {path}: {' '.join(str(exc).split())}") from None
    if raw is not None and not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must map section names to fields, got {raw!r}")
    return raw or {}


def _set(cfg, path, value, parse=False):
    """Set the field at ``path`` to a YAML value, which must already have the
    field's declared kind and is kept as read (so is its hash), or, with
    ``parse``, to a flag's text read as that kind."""
    key = ".".join(map(str, path))
    if path not in _FIELDS:
        raise ConfigError(f"{key} is not a config field")
    kind, check, read = _kind(_FIELDS[path])
    if parse:
        try:
            value = read(value)
        except (KeyError, ValueError):
            raise ConfigError(f"override {key}={value}: cannot parse {value!r} as {kind}") from None
    elif not check(value):
        raise ConfigError(f"config key {key} must be {kind}, got {value!r}")
    setattr(getattr(cfg, path[0]) if len(path) > 1 else cfg, path[-1], value)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(text):
    return float(text) if "." in text or "e" in text.lower() else int(text)


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _kind(default):
    """A field's kind, from its declared default: (description, check of a
    YAML value, reader of a flag's text). A None default (lr, r_decay,
    fixed_value) stands for a number."""
    if isinstance(default, bool):
        return "true or false", lambda v: isinstance(v, bool), lambda t: _BOOL_WORDS[t.lower()]
    if isinstance(default, int):
        return "an integer", lambda v: _is_number(v) and isinstance(v, int), int
    if isinstance(default, float) or default is None:
        return "a number", lambda v: _is_number(v) or (default is None and v is None), float
    if isinstance(default, (list, tuple)):
        return ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v)),
                lambda t: type(default)(
                    _number(v) for v in t.replace("[", "").replace("]", "").split(",") if v))
    return "a string", lambda v: isinstance(v, str), str


def resolve(cfg):
    """Fill derived defaults, apply presets, and validate."""
    reg = cfg.regularization
    opt = cfg.optimizer
    if reg.mode not in ("fix", "opt", "sgda"):
        raise ConfigError(f"unknown regularization mode {reg.mode!r}")
    if reg.mode == "sgda":
        # the SGDA baseline: dimension-wise coefficients with plain-SGD updates
        reg.granularity = "dim"
        opt.kind = "sgd"
    if reg.mode in ("opt", "sgda"):
        reg.granularity = canonical_granularity(reg.granularity)
    if reg.mode == "fix" and reg.fixed_value is None:
        # grid-search sets fixed_value per candidate; a training run needs one
        raise ConfigError("mode=fix requires regularization.fixed_value")
    if opt.kind not in ("sgd", "adam"):
        raise ConfigError(f"unknown optimizer kind {opt.kind!r}")
    if opt.lr is None:
        opt.lr = 0.01 if opt.kind == "adam" else 0.05
    fields = {".".join(path): value for path, value in _paths(asdict(cfg))}
    for key, value in fields.items():
        values = value if isinstance(value, (list, tuple)) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ConfigError(f"{key} must be finite, got {value}")
        # what numpy holds the value as: an integer field as int64, any
        # other number, list entries included, as float64
        lo, hi = ((-2**63, 2**63 - 1) if isinstance(_FIELDS[tuple(key.split("."))], int)
                  else (-sys.float_info.max, sys.float_info.max))
        if any(_is_number(v) and not lo <= v <= hi for v in values):
            raise ConfigError(f"{key} must lie in [{lo}, {hi}], got {value}")
        if key.startswith("groups."):
            try:  # data.frequency_groups' own rule, checked before any run starts
                frequency_groups((), value)
            except ValueError:
                raise ConfigError(f"{key} must be strictly ascending, got {value}") from None
    for rule, holds, keys in (
            ("positive", lambda v: v > 0, "optimizer.lr optimizer.eps regularization.step_size "
             "regularization.clip model.init_scale training.batch_size training.lambda_batch_size"),
            ("at least 1", lambda v: v >= 1, "training.epochs training.patience "
             "training.eval_every regularization.every model.dim"),
            ("in (0, 1)", lambda v: 0 < v < 1, "optimizer.beta1 optimizer.beta2"),
            ("nonnegative", lambda v: v >= 0, "regularization.init training.seed"),
            # a batch of 2^31 triplets is 48 GiB of int64 ids
            ("at most 2147483647", lambda v: v < 2**31,
             "training.batch_size training.lambda_batch_size")):
        for key in keys.split():
            if not holds(fields[key]):
                raise ConfigError(f"{key} must be {rule}, got {fields[key]}")
    if opt.r_decay is not None and not 0 <= opt.r_decay < 1:
        raise ConfigError(f"optimizer.r_decay must lie in [0, 1), got {opt.r_decay}")
    ratios = cfg.data.ratios
    if len(ratios) != 3 or min(ratios) <= 0 or not math.isclose(sum(ratios), 1.0):
        raise ConfigError(f"data.ratios must be three positive numbers summing to 1, got {ratios}")
    if not cfg.data.delimiter:
        raise ConfigError("data.delimiter must not be empty")
    if reg.mode == "fix" and reg.fixed_value is not None and reg.fixed_value < 0:
        raise ConfigError("fixed_value must be nonnegative")
    if any(v < 0 for v in reg.grid):
        raise ConfigError(f"regularization.grid candidates must be nonnegative, got {reg.grid}")
    return cfg


def semantic_dict(cfg):
    """The config content hashed into a run-directory name: every field but
    ``output`` and ``training.seed``. Not every hashed field changes a run's
    results: ``data.*`` (ingest settings and where the manifest is),
    ``regularization.grid`` and, in a ``fix`` run, the fields that only
    learned coefficients read do not, so two names can hold the same results."""
    d = asdict(cfg)
    d.pop("output", None)
    d["training"].pop("seed", None)
    return d


def config_hash(cfg):
    blob = json.dumps(semantic_dict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def run_dir_name(cfg):
    return f"{config_hash(cfg)}-seed{cfg.training.seed}"
