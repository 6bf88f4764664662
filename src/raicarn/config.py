"""Pipeline configuration file: INI-style sections supplying settings to
the subcommands that take ``--config`` ([ica] to ``ica``, [null] to
``raicarn``, [mixture] to ``mixture``). A section's keys and their types
are the fields of its config class, less ``seed``, which only the
``--seed`` flag sets. Unknown sections or keys and values of the wrong
type are rejected at parse time; bounds are checked by the config class
when the subcommand that reads the section builds it.

``MixtureConfig`` lives here rather than in ``mixture``, so that reading a
config file does not import scipy; ``mixture`` re-exports it."""

import configparser
import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import IoFailureError
from .ica import IcaConfig
from .null import NullConfig


@dataclass(frozen=True)
class MixtureConfig:
    """EM budget and stopping rule: the fit stops once a plain EM step moves
    the log-likelihood by less than tol per location (|dL| / n < tol), or
    after max_iters E-step evaluations."""

    max_iters: int = 500
    tol: float = 1e-9

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


SECTION_KEYS = {
    section: {f.name: f.type for f in dataclasses.fields(cls) if f.name != "seed"}
    for section, cls in (("ica", IcaConfig), ("null", NullConfig), ("mixture", MixtureConfig))
}


def load_pipeline_config(path) -> dict:
    """``{section: {key: value}}`` with every known section present (empty
    when the file leaves it out)."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive
    try:
        with open(path) as f:
            parser.read_file(f)
    except OSError as e:
        raise IoFailureError(str(e)) from e
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ValueError(f"{path}: {e}") from e

    out = {name: {} for name in SECTION_KEYS}
    for section in parser.sections():
        if section not in SECTION_KEYS:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in SECTION_KEYS[section]:
                raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
            try:
                out[section][key] = SECTION_KEYS[section][key](raw)
            except ValueError as e:
                raise ValueError(f"{path}: bad value for {section}.{key}: {raw!r}") from e
    return out
