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

from . import wrf
from .balanced_kmeans import cluster
from .dataset import distinct_rows


@dataclass
class BatConfig:
    n_bats: int = 40          # N
    n_subgroups: int = 4      # K
    n_iterations: int = 100   # N_t
    penalty: float = 0.01      # lambda, per-feature-fraction fitness penalty
    seed: int = 0
    # degeneration switches; all True gives the improved algorithm, while
    # (n_subgroups=1, use_mutation=False, use_self_learning=False) is the
    # plain binary BA baseline
    use_mutation: bool = True
    use_self_learning: bool = True

    def validate(self):
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
    fitness: float
    best_position: np.ndarray  # P_i
    best_fitness: float


@dataclass
class BatResult:
    mask: np.ndarray
    fitness: float
    trace: list  # best-so-far fitness, entry 0 is the initial population best


W_MAX, W_MIN = 0.9, 0.4


def inertia_weight(t: int, cfg: BatConfig) -> float:
    """Linearly decreasing inertia weight W^t, from W_max down to W_min."""
    return W_MAX - (W_MAX - W_MIN) * t / cfg.n_iterations


C_MAX, C_MIN = 1.5, 0.5


def self_learning_factor(t: int, cfg: BatConfig) -> float:
    """Arccos-scheduled self-learning factor C^t, from C_max down to C_min."""
    arg = min(1.0, max(-1.0, -2.0 * t / cfg.n_iterations + 1.0))
    return C_MIN + (C_MAX - C_MIN) * (1.0 - math.acos(arg) / math.pi)


def mutation_probability(t: int, cfg: BatConfig) -> float:
    """Mutation gate probability P^t = sqrt(t / (N_t - 1))."""
    return math.sqrt(t / (cfg.n_iterations - 1))


F_MAX, F_MIN = 1.0, 0.2


def shrinkage_factor(t: int, cfg: BatConfig) -> float:
    """Linearly decreasing shrinkage factor F^t, from F_max down to F_min."""
    return F_MIN + (F_MAX - F_MIN) * (cfg.n_iterations - t) / cfg.n_iterations


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


# Yang's bat algorithm: loudness starts at A_0 and decays by alpha, the
# pulse rate grows towards r_0 at rate gamma
A_0, R_0, ALPHA, GAMMA = 1.0, 0.5, 0.9, 0.9


def acceptance_step(bat: Bat, candidate: np.ndarray, candidate_fitness: float,
                    t: int, rng) -> None:
    """Loudness-gated adoption of a strictly better candidate.

    On acceptance the loudness decays by alpha and the pulse rate follows
    the classical schedule r_0 * (1 - exp(-gamma t)). The personal best is
    refreshed whenever the candidate improves on it, adopted or not.
    """
    if rng.random() < bat.loudness and candidate_fitness > bat.fitness:
        bat.position = candidate.copy()
        bat.fitness = candidate_fitness
        bat.loudness *= ALPHA
        bat.pulse_rate = R_0 * (1.0 - math.exp(-GAMMA * t))
    if candidate_fitness > bat.best_fitness:
        bat.best_position = candidate.copy()
        bat.best_fitness = candidate_fitness


def run(fitness_fn, d: int, cfg: BatConfig) -> BatResult:
    """Run the improved binary bat algorithm and return the best mask found.

    fitness_fn maps a d-bit mask to a real score (higher is better) and must
    be pure; evaluations are memoized on the mask bits. An iteration has
    three phases: each bat builds its candidate on its own (seed, iteration,
    index) stream; the distinct masks not yet memoized are scored as one
    batch by wrf.cpu_map, in order of first appearance, so forked children
    may score some; each bat accepts and mutates on the same stream. The
    initial population is one batch too. Results depend on cfg.seed alone.
    """
    cfg.validate()
    if d < 2:
        raise ValueError("mask dimension must be >= 2")

    memo = {}

    def attempt(mask):
        try:
            return True, float(fitness_fn(mask))
        except Exception as exc:
            return False, exc

    def evaluate(masks, t):
        keys = [m.tobytes() for m in masks]
        fresh = [k for k in dict.fromkeys(keys) if k not in memo]
        for key, (ok, value) in zip(fresh, wrf.cpu_map(
                attempt, [masks[keys.index(k)] for k in fresh])):
            if not ok:
                raise RuntimeError(
                    f"fitness evaluation failed at iteration {t}, "
                    f"bat {keys.index(key)}: {value}") from value
            memo[key] = value
        return [memo[k] for k in keys]

    init_rng = np.random.default_rng(wrf.derived_seed(cfg.seed, 0))
    start = [random_mask(d, init_rng) for _ in range(cfg.n_bats)]
    bats = [Bat(position=pos,
                velocity=np.zeros(d, dtype=np.uint8),
                frequency=0.0,
                loudness=A_0,
                pulse_rate=0.0,
                fitness=fit,
                best_position=pos.copy(),
                best_fitness=fit)
            for pos, fit in zip(start, evaluate(start, 0))]

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
                           wrf.derived_seed(cfg.seed, 1, t))
        # subgroup bests by current fitness, ties to the lowest index
        local_best = {}
        for n in range(cfg.n_subgroups):
            members = division.members(n)
            local_best[n] = members[int(np.argmax(
                [bats[i].fitness for i in members]))]
        mean_loudness = float(np.mean([b.loudness for b in bats]))
        anchor_g = g_pos.copy()

        rngs, candidates = [], []
        for i, bat in enumerate(bats):
            rng = np.random.default_rng(wrf.derived_seed(cfg.seed, 2, t, i))
            subgroup = int(division.assignments[i])
            # anchors come from the iteration-start snapshot, so a bat's
            # candidate depends on no other bat's step in this iteration
            anchor = anchor_g if i == local_best[subgroup] \
                else positions[local_best[subgroup]]
            bat.frequency = rng.random()  # f_i ~ U(f_min, f_max) = U(0, 1)
            bat.velocity = update_velocity(bat, anchor, t, cfg, rng)
            candidate = update_position(bat.position, bat.velocity, rng)
            if rng.random() > bat.pulse_rate:
                candidate = local_search(anchor_g, mean_loudness, rng)
            rngs.append(rng)
            candidates.append(candidate)

        for i, (bat, candidate, cand_fit, rng) in enumerate(zip(
                bats, candidates, evaluate(candidates, t), rngs)):
            acceptance_step(bat, candidate, cand_fit, t, rng)
            if cfg.use_mutation and rng.random() < p_t:
                subgroup = int(division.assignments[i])
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
                    penalty: float = BatConfig.penalty) -> float:
    """Probe-classifier fitness: validation accuracy of a depth-capped CART
    grown on the distinct rows under the mask, each counted as often as it
    occurs in train, minus penalty * popcount / d."""
    mask = wrf.checked_mask(mask, train.n_features)
    if not valid.n_samples:
        raise ValueError("empty validation set")
    cols = np.flatnonzero(mask)
    X = train.X[:, cols]
    first, group = distinct_rows(X, train.y)
    tree = wrf.train_tree(X[first], train.y[first], cols,
                          wrf.TreeConfig(max_depth=10, max_features=None),
                          np.random.default_rng(eval_seed), np.bincount(group))
    acc = float(np.mean(tree.predict(valid.X) == valid.y))
    return acc - penalty * mask.sum() / mask.size
