"""Pipeline configuration file: INI-style sections supplying defaults to
the subcommands that take ``--config`` ([ica] to ``ica``, [null] to
``raicarn``, [mixture] to ``mixture``). Unknown sections or keys are
rejected and numeric bounds are enforced at parse time."""

import configparser
from dataclasses import dataclass

from .errors import IoFailureError

_SCHEMA = {
    "ica": {"q": int, "nonlinearity": str, "max_iters": int, "tol": float},
    "null": {"R": int, "p_crit": float},
    "mixture": {"max_iters": int, "tol": float},
}


@dataclass(frozen=True)
class PipelineConfig:
    ica: dict
    null: dict
    mixture: dict


def load_pipeline_config(path) -> PipelineConfig:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive
    try:
        with open(path) as f:
            parser.read_file(f)
    except OSError as e:
        raise IoFailureError(str(e)) from e
    except configparser.Error as e:
        raise ValueError(f"{path}: {e}") from e

    out = {name: {} for name in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
            try:
                out[section][key] = _SCHEMA[section][key](raw)
            except ValueError as e:
                raise ValueError(f"{path}: bad value for {section}.{key}: {raw!r}") from e
    _check_bounds(path, out)
    return PipelineConfig(**out)


def _check_bounds(path, out):
    def fail(msg):
        raise ValueError(f"{path}: {msg}")

    ica = out["ica"]
    if "q" in ica and ica["q"] < 1:
        fail("ica.q must be >= 1")
    if "nonlinearity" in ica and ica["nonlinearity"] not in ("tanh", "cubic"):
        fail("ica.nonlinearity must be tanh or cubic")
    if "tol" in ica and ica["tol"] <= 0:
        fail("ica.tol must be > 0")
    if "max_iters" in ica and ica["max_iters"] < 1:
        fail("ica.max_iters must be >= 1")
    null = out["null"]
    if "R" in null and null["R"] < 1:
        fail("null.R must be >= 1")
    if "p_crit" in null and not 0.0 < null["p_crit"] < 1.0:
        fail("null.p_crit must lie in (0, 1)")
    mixture = out["mixture"]
    if "max_iters" in mixture and mixture["max_iters"] < 1:
        fail("mixture.max_iters must be >= 1")
    if "tol" in mixture and mixture["tol"] <= 0:
        fail("mixture.tol must be > 0")
