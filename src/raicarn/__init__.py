"""Reproducibility analysis of repeated spatial-map decompositions with
permutation p-values, plus the supporting decomposition engine, group
sampling planner, and tail-mixture display."""

from .config import IcaConfig, NullConfig
from .grouping import GroupPlan, max_group_size, pair_probability, sample_groups
from .ica import run_group_ica, run_single_ica
from .null import run_raicar_n
from .raicar import compute_crcm, match_components, normalized_reproducibility
from .synth import PlantSpec, planted_runset
from .types import (
    Crcm,
    IcaModel,
    MatchedComponent,
    ReproducibilityReport,
    RunCollection,
)

__version__ = "0.1.0"

__all__ = [
    "Crcm",
    "GroupPlan",
    "IcaConfig",
    "IcaModel",
    "MatchedComponent",
    "NullConfig",
    "PlantSpec",
    "ReproducibilityReport",
    "RunCollection",
    "compute_crcm",
    "match_components",
    "max_group_size",
    "normalized_reproducibility",
    "pair_probability",
    "planted_runset",
    "run_group_ica",
    "run_raicar_n",
    "run_single_ica",
    "sample_groups",
]
