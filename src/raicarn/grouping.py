"""Planner for sampled group decompositions: how often do two fixed
subjects co-occur in random L-subsets of N, and what is the largest L
keeping that probability under a chosen cap."""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def pair_probability(N: int, L: int) -> float:
    """Probability that two fixed subjects both land in a uniform L-subset
    of N; computed via the overflow-free closed form L(L-1) / (N(N-1))."""
    if N < 2 or L < 2 or L > N:
        raise DomainError(f"need 2 <= L <= N, got N={N}, L={L}")
    return (L * (L - 1)) / (N * (N - 1))


def max_group_size(N: int, alpha_max: float):
    """Largest L in [2, N] with pair_probability(N, L) <= alpha_max, or
    None when even L = 2 exceeds the cap."""
    if N < 2:
        raise DomainError(f"N must be >= 2, got {N}")
    if not 0.0 < alpha_max < 1.0:
        raise DomainError(f"alpha_max must lie in (0, 1), got {alpha_max}")
    for L in range(N, 1, -1):
        if pair_probability(N, L) <= alpha_max:
            return L
    return None


@dataclass(frozen=True)
class GroupPlan:
    N: int
    alpha_max: float
    groups: tuple  # K tuples of L distinct zero-based subject indices; L, K derive from it

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(tuple(g) for g in self.groups))
        if not self.groups:
            raise DomainError("a plan needs at least one group")
        if pair_probability(self.N, self.L) > self.alpha_max:
            raise DomainError("group size violates the co-occurrence cap")
        for g in self.groups:
            if len(set(g)) != self.L or min(g) < 0 or max(g) >= self.N:
                raise DomainError(f"each group needs L = {self.L} distinct subjects in range")

    @property
    def L(self) -> int:
        return len(self.groups[0])

    @property
    def K(self) -> int:
        return len(self.groups)


def _draw_groups(N: int, L: int, K: int, seed: int) -> tuple:
    """K independent uniform L-subsets of N subjects; deterministic given the seed."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    return tuple(tuple(int(s) for s in rng.choice(N, size=L, replace=False)) for _ in range(K))


def sample_groups(N: int, L: int, K: int, seed: int) -> GroupPlan:
    """Draw K uniform L-subsets of the N subjects, independently across
    groups; the cap recorded is their pair probability."""
    alpha = pair_probability(N, L)  # DomainError unless 2 <= L <= N
    return GroupPlan(N=N, alpha_max=alpha, groups=_draw_groups(N, L, K, seed))


def plan_groups(N: int, alpha_max: float, K: int, seed: int) -> GroupPlan:
    """Pick the largest feasible L for the cap and sample K groups."""
    L = max_group_size(N, alpha_max)
    if L is None:
        raise DomainError(
            f"no group size satisfies the cap: pair_probability({N}, 2) > {alpha_max}"
        )
    return GroupPlan(N=N, alpha_max=alpha_max, groups=_draw_groups(N, L, K, seed))
