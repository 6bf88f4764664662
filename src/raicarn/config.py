"""Run parameters: ``IcaConfig`` ([ica] in a pipeline config file, read by
``ica``), ``NullConfig`` ([null], ``raicarn``) and ``MixtureConfig``
([mixture], ``mixture``). A section's keys and types are the fields of its
class, less ``seed``, which only ``--seed`` sets; each class checks its
bounds when built, and ``io.load_pipeline_config`` reads the file. This
module imports no other module of the package, and no scipy."""

import dataclasses
import math
from dataclasses import dataclass

NONLINEARITIES = ("tanh", "cubic")


def _check_budget(max_iters, tol) -> None:
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")


def _check_seed(seed) -> None:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class IcaConfig:
    q: int
    nonlinearity: str = "tanh"
    max_iters: int = 500
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"model order must be >= 1, got {self.q}")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"nonlinearity must be one of {NONLINEARITIES}")
        _check_budget(self.max_iters, self.tol)
        _check_seed(self.seed)


@dataclass(frozen=True)
class NullConfig:
    R: int = 100
    seed: int = 0
    p_crit: float = 0.05

    def __post_init__(self):
        if self.R < 1:
            raise ValueError(f"R must be >= 1, got {self.R}")
        if not 0.0 < self.p_crit < 1.0:
            raise ValueError(f"p_crit must lie in (0, 1), got {self.p_crit}")
        _check_seed(self.seed)


@dataclass(frozen=True)
class MixtureConfig:
    """EM budget and stopping rule: the fit stops once a plain EM step moves
    the log-likelihood by less than tol per location (|dL| / n < tol), or
    after max_iters E-step evaluations."""

    max_iters: int = 500
    tol: float = 1e-9

    def __post_init__(self):
        _check_budget(self.max_iters, self.tol)


SECTION_KEYS = {
    section: {f.name: f.type for f in dataclasses.fields(cls) if f.name != "seed"}
    for section, cls in (("ica", IcaConfig), ("null", NullConfig), ("mixture", MixtureConfig))
}
