"""Run configuration: YAML schema, flag overrides, validation, and the content
hash used to name run directories."""

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import yaml

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


_SECTIONS = {
    "data": DataConfig,
    "model": ModelConfig,
    "optimizer": OptimizerConfig,
    "regularization": RegularizationConfig,
    "training": TrainingConfig,
    "groups": GroupsConfig,
}


def load_config(path=None, overrides=()):
    """Build a RunConfig from an optional YAML file plus dotted overrides
    (e.g. training.epochs=5); flags win over the file."""
    raw = {}
    if path:
        with open(path) as fh:
            raw = yaml.safe_load(fh) or {}
    cfg = RunConfig()
    unknown = sorted(set(raw) - set(_SECTIONS) - {"output"})
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]}")
    for section, cls in _SECTIONS.items():
        block = raw.get(section, {})
        if not isinstance(block, dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
        obj = getattr(cfg, section)
        for key, value in block.items():
            if not hasattr(obj, key):
                raise ConfigError(f"unknown config key {section}.{key}")
            _check_type(f"{section}.{key}", value, getattr(obj, key))
            setattr(obj, key, value)
    if "output" in raw:
        _check_type("output", raw["output"], cfg.output)
        cfg.output = raw["output"]
    for ov in overrides:
        _apply_override(cfg, ov)
    return resolve(cfg)


def _apply_override(cfg, spec):
    if "=" not in spec:
        raise ConfigError(f"override {spec!r} must be key=value")
    key, value = spec.split("=", 1)
    parts = key.split(".")
    obj = cfg
    for p in parts[:-1]:
        if not hasattr(obj, p):
            raise ConfigError(f"unknown config path {key!r}")
        obj = getattr(obj, p)
    leaf = parts[-1]
    if not hasattr(obj, leaf):
        raise ConfigError(f"unknown config path {key!r}")
    current = getattr(obj, leaf)
    try:
        setattr(obj, leaf, _coerce(value, current))
    except ValueError:
        raise ConfigError(f"override {spec!r}: cannot parse {value!r}") from None


def _coerce(text, current):
    if isinstance(current, bool):
        word = text.lower()
        if word not in ("1", "true", "yes", "0", "false", "no"):
            raise ValueError(text)
        return word in ("1", "true", "yes")
    if isinstance(current, int):
        return int(text)
    if isinstance(current, float) or current is None:
        # a None default (lr, r_decay, fixed_value) stands for a number
        return float(text)
    if isinstance(current, (list, tuple)):
        vals = [v for v in text.replace("[", "").replace("]", "").split(",") if v]
        return type(current)(float(v) if "." in v or "e" in v.lower() else int(v)
                             for v in vals)
    return text


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_type(key, value, current):
    """Reject a YAML value of another type than ``_coerce`` makes for the
    field; a value that passes is kept as read, so its config hash is too."""
    if isinstance(current, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(current, int):
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif isinstance(current, float) or current is None:
        ok, kind = _is_number(value) or (current is None and value is None), "a number"
    elif isinstance(current, (list, tuple)):
        ok = isinstance(value, list) and all(_is_number(v) for v in value)
        kind = "a list of numbers"
    else:
        ok, kind = isinstance(value, str), "a string"
    if not ok:
        raise ConfigError(f"config key {key} must be {kind}, got {value!r}")


def resolve(cfg):
    """Fill derived defaults, apply presets, and validate."""
    from .adaptive import canonical_granularity

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
    for section in _SECTIONS:
        for key, value in vars(getattr(cfg, section)).items():
            values = value if isinstance(value, (list, tuple)) else [value]
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ConfigError(f"{section}.{key} must be finite, got {value}")
    for name, value in (("optimizer.lr", opt.lr),
                        ("optimizer.eps", opt.eps),
                        ("regularization.step_size", reg.step_size),
                        ("regularization.clip", reg.clip),
                        ("model.init_scale", cfg.model.init_scale)):
        if value <= 0:
            raise ConfigError(f"{name} must be positive, got {value}")
    for name, value in (("optimizer.beta1", opt.beta1), ("optimizer.beta2", opt.beta2)):
        if not 0 < value < 1:
            raise ConfigError(f"{name} must lie in (0, 1), got {value}")
    if opt.r_decay is not None and not 0 <= opt.r_decay < 1:
        raise ConfigError(f"optimizer.r_decay must lie in [0, 1), got {opt.r_decay}")
    ratios = cfg.data.ratios
    if len(ratios) != 3 or min(ratios) <= 0 or not math.isclose(sum(ratios), 1.0):
        raise ConfigError(f"data.ratios must be three positive numbers summing to 1, got {ratios}")
    if not cfg.data.delimiter:
        raise ConfigError("data.delimiter must not be empty")
    if reg.mode == "fix" and reg.fixed_value is not None and reg.fixed_value < 0:
        raise ConfigError("fixed_value must be nonnegative")
    if reg.init < 0:
        raise ConfigError(f"regularization.init must be nonnegative, got {reg.init}")
    if any(v < 0 for v in reg.grid):
        raise ConfigError(f"regularization.grid candidates must be nonnegative, got {reg.grid}")
    if cfg.training.batch_size <= 0 or cfg.training.lambda_batch_size <= 0:
        raise ConfigError("batch sizes must be positive")
    for name, value in (("training.epochs", cfg.training.epochs),
                        ("training.patience", cfg.training.patience),
                        ("training.eval_every", cfg.training.eval_every),
                        ("regularization.every", reg.every),
                        ("model.dim", cfg.model.dim)):
        if value < 1:
            raise ConfigError(f"{name} must be at least 1, got {value}")
    return cfg


def semantic_dict(cfg):
    """Config content that affects results (excludes output/seed)."""
    d = asdict(cfg)
    d.pop("output", None)
    d["training"].pop("seed", None)
    return d


def config_hash(cfg):
    blob = json.dumps(semantic_dict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def run_dir_name(cfg):
    return f"{config_hash(cfg)}-seed{cfg.training.seed}"
