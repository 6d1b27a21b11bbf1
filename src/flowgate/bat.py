"""Binary bat-algorithm feature selection with swarm division and
differential mutation.

Positions and velocities are d-bit strings (numpy 0/1 vectors). Real-valued
coefficients act on bit strings through Bernoulli gates: a term contributes
its bits only when a uniform draw falls below the (clamped) coefficient.
Bit-string addition and subtraction are both realized as XOR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .balanced_kmeans import cluster


@dataclass
class BatConfig:
    n_bats: int = 40          # N
    n_subgroups: int = 4      # K
    n_iterations: int = 100   # N_t
    w_max: float = 0.9
    w_min: float = 0.4
    c_max: float = 1.5
    c_min: float = 0.5
    f_shrink_max: float = 1.0  # F_max
    f_shrink_min: float = 0.2  # F_min
    freq_min: float = 0.0
    freq_max: float = 1.0
    alpha: float = 0.9         # loudness decay on acceptance
    gamma: float = 0.9         # pulse-rate growth rate
    loudness_init: float = 1.0
    pulse_rate_init: float = 0.5  # r0; effective rate starts at 0 and grows
    penalty: float = 0.01      # lambda, per-feature-fraction fitness penalty
    seed: int = 0
    # degeneration switches; all True gives the improved algorithm, while
    # (n_subgroups=1, use_mutation=False, use_self_learning=False) is the
    # plain binary BA baseline
    use_mutation: bool = True
    use_self_learning: bool = True

    def validate(self):
        if not (self.w_max >= self.w_min > 0):
            raise ValueError("require W_max >= W_min > 0")
        if not (self.c_max >= self.c_min >= 0):
            raise ValueError("require C_max >= C_min >= 0")
        if not (1 >= self.f_shrink_max >= self.f_shrink_min >= 0):
            raise ValueError("require 1 >= F_max >= F_min >= 0")
        if self.n_iterations < 2:
            raise ValueError("require N_t >= 2")
        if self.n_subgroups < 1:
            raise ValueError("require K >= 1")
        if self.n_bats < self.n_subgroups:
            raise ValueError("require N >= K")


@dataclass
class Bat:
    position: np.ndarray   # x_i, d-bit
    velocity: np.ndarray   # v_i, d-bit
    frequency: float       # f_i
    loudness: float        # A_i
    pulse_rate: float      # current r_i
    pulse_rate_init: float  # r_i0
    fitness: float
    best_position: np.ndarray  # P_i
    best_fitness: float


@dataclass
class BatResult:
    mask: np.ndarray
    fitness: float
    trace: list  # best-so-far fitness, entry 0 is the initial population best


def inertia_weight(t: int, cfg: BatConfig) -> float:
    """Linearly decreasing inertia weight W^t."""
    return cfg.w_max - (cfg.w_max - cfg.w_min) * t / cfg.n_iterations


def self_learning_factor(t: int, cfg: BatConfig) -> float:
    """Arccos-scheduled self-learning factor C^t, from C_max down to C_min."""
    arg = min(1.0, max(-1.0, -2.0 * t / cfg.n_iterations + 1.0))
    return cfg.c_min + (cfg.c_max - cfg.c_min) * (1.0 - math.acos(arg) / math.pi)


def mutation_probability(t: int, cfg: BatConfig) -> float:
    """Mutation gate probability P^t = sqrt(t / (N_t - 1))."""
    return math.sqrt(t / (cfg.n_iterations - 1))


def shrinkage_factor(t: int, cfg: BatConfig) -> float:
    """Linearly decreasing shrinkage factor F^t."""
    return cfg.f_shrink_min + (cfg.f_shrink_max - cfg.f_shrink_min) * (
        cfg.n_iterations - t) / cfg.n_iterations


def gated_term(coeff: float, bits: np.ndarray, rng) -> np.ndarray:
    """Bernoulli gate: the bits, or all-zeros, at probability clamp(coeff, 0, 1).

    Draws exactly one uniform variate per call.
    """
    p = min(1.0, max(0.0, coeff))
    if rng.random() < p:
        return bits.copy()
    return np.zeros_like(bits)


def random_mask(d: int, rng) -> np.ndarray:
    bits = (rng.random(d) < 0.5).astype(np.uint8)
    return repair_mask(bits, rng)


def repair_mask(bits: np.ndarray, rng) -> np.ndarray:
    """All-zero masks select no features; set one random bit."""
    if not bits.any():
        bits = bits.copy()
        bits[int(rng.integers(bits.size))] = 1
    return bits


def update_velocity(bat: Bat, anchor: np.ndarray, t: int, cfg: BatConfig,
                    rng) -> np.ndarray:
    """Two-regime velocity update; anchor is the subgroup best for ordinary
    bats and the global best for a subgroup's best bat."""
    w = inertia_weight(t, cfg)
    c = self_learning_factor(t, cfg) if cfg.use_self_learning else 0.0
    v = gated_term(w, bat.velocity, rng)
    v ^= gated_term(bat.frequency, bat.position ^ anchor, rng)
    v ^= gated_term(c, bat.position ^ bat.best_position, rng)
    return v


def update_position(position: np.ndarray, velocity: np.ndarray,
                    rng) -> np.ndarray:
    return repair_mask(position ^ velocity, rng)


def differential_mutation(index: int, positions: np.ndarray,
                          same_subgroup: np.ndarray,
                          other_subgroups: np.ndarray,
                          t: int, cfg: BatConfig, rng):
    """Binary differential perturbation of a bat's velocity.

    r1, r2, r5 come from the bat's own subgroup, r3, r4 from other
    subgroups, all distinct from the target. Returns the new velocity, or
    None when the population is too small to pick donors (documented no-op).
    """
    same = same_subgroup[same_subgroup != index]
    if same.size < 3 or other_subgroups.size < 2:
        return None
    f_t = shrinkage_factor(t, cfg)
    r1, r2, r5 = rng.choice(same, size=3, replace=False)
    r3, r4 = rng.choice(other_subgroups, size=2, replace=False)
    v = positions[r5].copy()
    v ^= gated_term(f_t, positions[r1] | positions[r2], rng)
    v ^= gated_term(f_t, positions[r3] | positions[r4], rng)
    return v


def local_search(best: np.ndarray, mean_loudness: float, rng) -> np.ndarray:
    """Random walk around the global best, flip rate scaled by mean loudness."""
    d = best.size
    p = min(0.5, mean_loudness * 2.0 / d)
    flips = (rng.random(d) < p).astype(np.uint8)
    return repair_mask(best ^ flips, rng)


def acceptance_step(bat: Bat, candidate: np.ndarray, candidate_fitness: float,
                    t: int, cfg: BatConfig, rng) -> None:
    """Loudness-gated adoption of a strictly better candidate.

    On acceptance the loudness decays by alpha and the pulse rate follows
    the classical schedule r0 * (1 - exp(-gamma t)). The personal best is
    refreshed whenever the candidate improves on it, adopted or not.
    """
    if rng.random() < bat.loudness and candidate_fitness > bat.fitness:
        bat.position = candidate.copy()
        bat.fitness = candidate_fitness
        bat.loudness *= cfg.alpha
        bat.pulse_rate = bat.pulse_rate_init * (1.0 - math.exp(-cfg.gamma * t))
    if candidate_fitness > bat.best_fitness:
        bat.best_position = candidate.copy()
        bat.best_fitness = candidate_fitness


def _derived_seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def run(fitness_fn, d: int, cfg: BatConfig) -> BatResult:
    """Run the improved binary bat algorithm and return the best mask found.

    fitness_fn maps a d-bit mask to a real score (higher is better) and must
    be pure; evaluations are memoized on the mask bits. Fully deterministic
    under cfg.seed: every bat draws from its own (seed, iteration, index)
    stream, so evaluation order cannot change results.
    """
    cfg.validate()
    if d < 2:
        raise ValueError("mask dimension must be >= 2")

    memo = {}

    def evaluate(mask, t, i):
        key = mask.tobytes()
        if key not in memo:
            try:
                memo[key] = float(fitness_fn(mask))
            except Exception as exc:
                raise RuntimeError(
                    f"fitness evaluation failed at iteration {t}, bat {i}: "
                    f"{exc}") from exc
        return memo[key]

    init_rng = np.random.default_rng(_derived_seed(cfg.seed, 0))
    bats = []
    for i in range(cfg.n_bats):
        pos = random_mask(d, init_rng)
        fit = evaluate(pos, 0, i)
        bats.append(Bat(
            position=pos,
            velocity=np.zeros(d, dtype=np.uint8),
            frequency=cfg.freq_min,
            loudness=cfg.loudness_init,
            pulse_rate=0.0,
            pulse_rate_init=cfg.pulse_rate_init,
            fitness=fit,
            best_position=pos.copy(),
            best_fitness=fit,
        ))

    def global_best():
        best = max(range(cfg.n_bats),
                   key=lambda i: (bats[i].best_fitness, -i))
        return bats[best].best_position.copy(), bats[best].best_fitness

    g_pos, g_fit = global_best()
    trace = [g_fit]

    for t in range(1, cfg.n_iterations + 1):
        p_t = mutation_probability(t - 1, cfg) if cfg.use_mutation else 0.0
        positions = np.stack([b.position for b in bats])
        division = cluster(positions, cfg.n_subgroups,
                           _derived_seed(cfg.seed, 1, t))
        # subgroup bests by current fitness, ties to the lowest index
        local_best = {}
        for n in range(cfg.n_subgroups):
            members = division.members(n)
            local_best[n] = members[int(np.argmax(
                [bats[i].fitness for i in members]))]
        mean_loudness = float(np.mean([b.loudness for b in bats]))
        anchor_g = g_pos.copy()

        for i in range(cfg.n_bats):
            rng = np.random.default_rng(_derived_seed(cfg.seed, 2, t, i))
            bat = bats[i]
            subgroup = int(division.assignments[i])
            is_local_best = i == local_best[subgroup]
            # anchors come from the iteration-start snapshot so per-bat
            # updates can run in any order
            anchor = anchor_g if is_local_best \
                else positions[local_best[subgroup]]
            bat.frequency = cfg.freq_min + \
                (cfg.freq_max - cfg.freq_min) * rng.random()
            v_new = update_velocity(bat, anchor, t, cfg, rng)
            bat.velocity = v_new
            candidate = update_position(bat.position, v_new, rng)
            if rng.random() > bat.pulse_rate:
                candidate = local_search(anchor_g, mean_loudness, rng)
            cand_fit = evaluate(candidate, t, i)
            acceptance_step(bat, candidate, cand_fit, t, cfg, rng)
            if cfg.use_mutation and rng.random() < p_t:
                mutated = differential_mutation(
                    i, positions, division.members(subgroup),
                    np.flatnonzero(division.assignments != subgroup),
                    t, cfg, rng)
                if mutated is not None:
                    bat.velocity = mutated

        g_pos, g_fit = global_best()
        trace.append(g_fit)

    return BatResult(mask=g_pos, fitness=g_fit, trace=trace)


def wrapper_fitness(mask: np.ndarray, train, valid, eval_seed: int,
                    penalty: float = 0.01) -> float:
    """Probe-classifier fitness: validation accuracy of a depth-capped CART
    grown on the distinct rows under the mask, minus penalty * popcount / d.
    Counts are passed only when a row repeats: the uncounted scan is faster."""
    from .wrf import TreeConfig, distinct_rows, train_tree

    mask = np.asarray(mask, dtype=np.uint8)
    if not mask.any():
        raise ValueError("empty feature mask")
    if mask.size != train.n_features:
        raise ValueError("mask width does not match dataset feature count")
    cols = np.flatnonzero(mask)
    X = train.X[:, cols]
    first, group = distinct_rows(X, train.y)
    count = np.bincount(group)
    tree = train_tree(X[first], train.y[first], cols,
                      TreeConfig(max_depth=10, max_features=None),
                      np.random.default_rng(eval_seed),
                      count if count.size < group.size else None)
    acc = float(np.mean(tree.predict(valid.X) == valid.y))
    return acc - penalty * mask.sum() / mask.size
