import functools
import itertools
import math
import os
import threading
import time

import numpy as np
import pytest

from flowgate import wrf
from flowgate.balanced_kmeans import cluster
from flowgate.bat import (A_0, Bat, BatConfig, acceptance_step,
                          differential_mutation, gated_term, inertia_weight,
                          local_search, mutation_probability, random_mask,
                          run, self_learning_factor, shrinkage_factor,
                          update_position, update_velocity, wrapper_fitness)

from flowgate.dataset import EncodedDataset
from flowgate.wrf import TreeConfig, cpu_map, derived_seed, train_tree

from conftest import count_forks, set_cpus, synthetic_dataset


class ScriptedRng:
    """Stands in for a Generator; pops scripted uniform draws."""

    def __init__(self, draws, ints=()):
        self.draws = list(draws)
        self.ints = list(ints)

    def random(self, size=None):
        if size is None:
            return self.draws.pop(0)
        return np.array([self.draws.pop(0) for _ in range(size)])

    def integers(self, n):
        return self.ints.pop(0)

    def choice(self, arr, size, replace):
        arr = np.asarray(arr)
        return arr[:size]


def bits(s):
    return np.array([int(c) for c in s], dtype=np.uint8)


def make_bat(position, velocity=None, frequency=0.5, loudness=1.0,
             pulse_rate=0.0, fitness=0.0):
    position = bits(position)
    return Bat(position=position,
               velocity=bits(velocity) if velocity else
               np.zeros_like(position),
               frequency=frequency, loudness=loudness,
               pulse_rate=pulse_rate,
               fitness=fitness, best_position=position.copy(),
               best_fitness=fitness)


class TestControlFactors:
    """The paper's schedules: W 0.9 -> 0.4, C 1.5 -> 0.5, F 1.0 -> 0.2."""
    CFG = BatConfig(n_iterations=100)

    def test_inertia_endpoints(self):
        assert inertia_weight(0, self.CFG) == pytest.approx(0.9)
        assert inertia_weight(100, self.CFG) == pytest.approx(0.4)

    def test_inertia_midpoint(self):
        assert inertia_weight(50, self.CFG) == pytest.approx(0.65)

    def test_self_learning_endpoints(self):
        assert self_learning_factor(0, self.CFG) == pytest.approx(1.5)
        assert self_learning_factor(100, self.CFG) == pytest.approx(0.5)

    def test_self_learning_symmetry_point(self):
        assert self_learning_factor(50, self.CFG) == pytest.approx(1.0)

    def test_mutation_probability(self):
        assert mutation_probability(0, self.CFG) == 0.0
        assert mutation_probability(99, self.CFG) == pytest.approx(1.0)
        cfg = BatConfig(n_iterations=101)
        assert mutation_probability(25, cfg) == pytest.approx(0.5)

    def test_shrinkage(self):
        cfg = BatConfig(n_iterations=4)
        assert shrinkage_factor(0, cfg) == pytest.approx(1.0)
        assert shrinkage_factor(4, cfg) == pytest.approx(0.2)
        assert shrinkage_factor(1, cfg) == pytest.approx(0.8)

    def test_factors_stay_in_bounds(self):
        cfg = BatConfig(n_iterations=37)
        for t in range(cfg.n_iterations + 1):
            assert 0.4 <= inertia_weight(t, cfg) <= 0.9
            assert 0.5 <= self_learning_factor(t, cfg) <= 1.5
            assert 0.2 <= shrinkage_factor(t, cfg) <= 1.0
            if t < cfg.n_iterations:
                assert 0.0 <= mutation_probability(t, cfg) <= 1.0


class TestGatedTerm:
    def test_certain_gate(self):
        rng = np.random.default_rng(0)
        b = bits("1011")
        assert np.array_equal(gated_term(1.5, b, rng), b)

    def test_impossible_gate(self):
        rng = np.random.default_rng(0)
        assert not gated_term(-0.2, bits("1011"), rng).any()
        assert not gated_term(0.0, bits("1011"), rng).any()

    def test_half_gate_monte_carlo(self):
        rng = np.random.default_rng(123)
        b = bits("1111")
        trials = 10_000
        passes = sum(gated_term(0.5, b, rng).any() for _ in range(trials))
        assert passes / trials == pytest.approx(0.5, abs=0.02)


class TestVelocityAndPosition:
    CFG = BatConfig(n_iterations=10)

    def test_all_gates_fail(self):
        bat = make_bat("1010", velocity="1100")
        rng = ScriptedRng([1.0, 1.0, 1.0])
        v = update_velocity(bat, bits("0101"), 5, self.CFG, rng)
        assert not v.any()

    def test_fixed_point(self):
        bat = make_bat("1010", velocity="1100")
        # W gate fails; the two difference terms vanish because
        # x == anchor == P_i, whatever their gates do
        rng = ScriptedRng([1.0, 0.0, 0.0])
        v = update_velocity(bat, bits("1010"), 5, self.CFG, rng)
        assert not v.any()

    def test_single_term_identity(self):
        bat = make_bat("0000", velocity="1010")
        rng = ScriptedRng([0.0, 1.0, 1.0])
        v = update_velocity(bat, bits("0000"), 0, self.CFG, rng)
        assert np.array_equal(v, bits("1010"))

    def test_position_xor(self):
        rng = np.random.default_rng(0)
        assert np.array_equal(update_position(bits("1100"), bits("0110"),
                                              rng), bits("1010"))

    def test_position_zero_velocity(self):
        rng = np.random.default_rng(0)
        assert np.array_equal(update_position(bits("1010"), bits("0000"),
                                              rng), bits("1010"))

    def test_position_repair(self):
        rng = np.random.default_rng(0)
        out = update_position(bits("1010"), bits("1010"), rng)
        assert out.sum() == 1


class TestDifferentialMutation:
    CFG = BatConfig(n_iterations=10)

    def test_base_term_only(self):
        positions = np.stack([bits("0110"), bits("1001"), bits("0011"),
                              bits("0101"), bits("1110"), bits("1000")])
        # choice picks r1,r2,r5 = 1,2,3 and r3,r4 = 4,5; both F gates fail
        rng = ScriptedRng([1.0, 1.0])
        v = differential_mutation(0, positions, np.array([0, 1, 2, 3]),
                                  np.array([4, 5]), 5, self.CFG, rng)
        assert np.array_equal(v, positions[3])

    def test_or_idempotence(self):
        positions = np.stack([bits("1111"), bits("0011"), bits("0011"),
                              bits("0000"), bits("0000"), bits("0000")])
        # r1=r2=0011, first gate passes, second fails, r5=0000
        rng = ScriptedRng([0.0, 1.0])
        v = differential_mutation(0, positions, np.array([0, 1, 2, 3]),
                                  np.array([4, 5]), 0, self.CFG, rng)
        assert np.array_equal(v, bits("0011"))

    def test_all_zero_population(self):
        positions = np.zeros((6, 4), dtype=np.uint8)
        rng = np.random.default_rng(0)
        v = differential_mutation(0, positions, np.array([0, 1, 2, 3]),
                                  np.array([4, 5]), 3, self.CFG, rng)
        assert not v.any()

    def test_degenerate_population_noop(self):
        positions = np.zeros((3, 4), dtype=np.uint8)
        rng = np.random.default_rng(0)
        assert differential_mutation(0, positions, np.array([0, 1]),
                                     np.array([2]), 3, self.CFG, rng) is None


class TestLocalSearch:
    def test_zero_loudness_unchanged(self):
        rng = np.random.default_rng(0)
        g = bits("1010")
        assert np.array_equal(local_search(g, 0.0, rng), g)

    def test_all_flips_give_complement(self):
        # flip probability caps at 0.5; force every per-bit draw under it
        rng = ScriptedRng([0.0, 0.0, 0.0, 0.0])
        out = local_search(bits("1010"), 100.0, rng)
        assert np.array_equal(out, bits("0101"))

    def test_repair_on_zero_complement(self):
        rng = ScriptedRng([0.0, 0.0, 0.0, 0.0], ints=[2])
        out = local_search(bits("1111"), 100.0, rng)
        assert out.sum() == 1

    def test_deterministic(self):
        g = bits("110010")
        a = local_search(g, 1.3, np.random.default_rng(7))
        b = local_search(g, 1.3, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestAcceptance:
    """Yang's constants: loudness decays by alpha 0.9, the pulse rate grows
    to r_0 0.5 at gamma 0.9."""

    def test_rejection_keeps_state(self):
        bat = make_bat("1010", fitness=0.8)
        rng = np.random.default_rng(0)
        acceptance_step(bat, bits("0101"), 0.5, 3, rng)
        assert np.array_equal(bat.position, bits("1010"))
        assert bat.loudness == 1.0 and bat.pulse_rate == 0.0

    def test_loudness_decay(self):
        bat = make_bat("1010", fitness=0.2)
        rng = ScriptedRng([0.0])
        acceptance_step(bat, bits("0101"), 0.9, 3, rng)
        assert bat.loudness == pytest.approx(0.9)
        assert np.array_equal(bat.position, bits("0101"))
        assert bat.pulse_rate == pytest.approx(
            0.5 * (1 - math.exp(-0.9 * 3)))

    def test_personal_best_never_decreases(self):
        bat = make_bat("1010", fitness=0.2)
        rng = np.random.default_rng(0)
        history = []
        for step, fit in enumerate([0.3, 0.1, 0.5, 0.4]):
            acceptance_step(bat, bits("0101"), fit, step + 1, rng)
            history.append(bat.best_fitness)
        assert history == sorted(history)
        assert bat.best_fitness == 0.5


class TestRun:
    def test_constant_fitness(self):
        cfg = BatConfig(n_bats=8, n_subgroups=2, n_iterations=5, seed=0)
        res = run(lambda m: 1.0, 6, cfg)
        assert res.fitness == 1.0
        assert all(v == 1.0 for v in res.trace)

    def test_trace_monotone(self):
        rng = np.random.default_rng(0)
        weights = rng.normal(size=10)

        def fitness(mask):
            return float(weights @ mask)

        cfg = BatConfig(n_bats=10, n_subgroups=3, n_iterations=20, seed=4)
        res = run(fitness, 10, cfg)
        assert all(a <= b for a, b in zip(res.trace, res.trace[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        weights = rng.normal(size=12)
        cfg = BatConfig(n_bats=12, n_subgroups=3, n_iterations=15, seed=9)
        a = run(lambda m: float(weights @ m), 12, cfg)
        b = run(lambda m: float(weights @ m), 12, cfg)
        assert np.array_equal(a.mask, b.mask)
        assert a.trace == b.trace

    def test_finds_exhaustive_optimum_d8(self):
        # rugged synthetic landscape; oracle = enumeration of the 255
        # non-empty masks
        rng = np.random.default_rng(11)
        weights = rng.normal(0, 1, size=8)
        pair_bonus = rng.normal(0, 1, size=(8, 8))

        def fitness(mask):
            sel = np.flatnonzero(mask)
            score = float(weights[sel].sum())
            for a, b in itertools.combinations(sel, 2):
                score += pair_bonus[a, b] * 0.3
            return score

        best = max(fitness(np.array(m, dtype=np.uint8))
                   for m in itertools.product([0, 1], repeat=8)
                   if any(m))
        cfg = BatConfig(n_bats=20, n_subgroups=4, n_iterations=30, seed=2)
        res = run(fitness, 8, cfg)
        assert res.fitness == pytest.approx(best, rel=0.01)

    @pytest.mark.parametrize("seed, trace, mask, scored", [
        (5, [12, 18, 18, 23, 23, 23, 23, 23, 23, 23, 25, 27, 27, 27, 29, 30,
             30, 30, 30, 30, 30], "1110100111010011", 144),
        (7, [16, 20, 27, 27, 27, 27, 27, 27, 27, 27, 28, 28, 28, 28, 28, 28,
             29, 29, 29, 29, 29], "0101001001001111", 130),
    ])
    def test_golden_run(self, one_cpu, monkeypatch, seed, trace, mask,
                        scored):
        """A recorded run on a fixed integer landscape: a mistyped schedule
        or bat constant moves the trace, the mask or the masks scored,
        which a reference loop sharing those constants cannot see. On one
        CPU every mask is scored here; on two the child scores some."""
        calls = []

        def fitness(candidate):
            calls.append(candidate)
            sel = np.flatnonzero(candidate).tolist()
            return float(sum((7 * i) % 11 - 5 for i in sel)
                         + sum((3 * a + 5 * b) % 7 - 3
                               for a, b in itertools.combinations(sel, 2)))

        cfg = BatConfig(n_bats=12, n_subgroups=3, n_iterations=20, seed=seed)
        res = run(fitness, 16, cfg)
        assert res.trace == trace and res.fitness == trace[-1]
        assert "".join(map(str, res.mask)) == mask
        assert len(calls) == scored
        set_cpus(monkeypatch, 2)
        forked = run(fitness, 16, cfg)
        assert forked.trace == trace
        assert "".join(map(str, forked.mask)) == mask

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            run(lambda m: 0.0, 1, BatConfig())

    def test_fitness_error_carries_context(self):
        def bad(mask):
            raise ZeroDivisionError("boom")

        with pytest.raises(RuntimeError, match="iteration 0, bat 0"):
            run(bad, 4, BatConfig(n_bats=4, n_subgroups=2, n_iterations=3))

    def test_no_empty_mask_ever_evaluated(self, one_cpu):
        seen = []

        def fitness(mask):
            seen.append(mask.copy())
            return float(mask.sum() % 3)

        run(fitness, 6, BatConfig(n_bats=8, n_subgroups=2, n_iterations=10,
                                  seed=3))
        assert all(m.any() for m in seen)

    def test_baseline_switches(self):
        rng = np.random.default_rng(5)
        weights = rng.normal(size=10)
        cfg = BatConfig(n_bats=10, n_subgroups=1, n_iterations=10, seed=1,
                        use_mutation=False, use_self_learning=False)
        res = run(lambda m: float(weights @ m), 10, cfg)
        assert all(a <= b for a, b in zip(res.trace, res.trace[1:]))


class TestWrapperFitness:
    def test_separating_feature(self):
        ds = synthetic_dataset([40, 40, 40, 40, 40], seed=0, n_features=6,
                               noise=0.01, informative=6)
        train = ds
        mask = np.ones(6, dtype=np.uint8)
        score = wrapper_fitness(mask, train, train, eval_seed=0,
                                penalty=0.01)
        assert score == pytest.approx(1.0 - 0.01, abs=0.02)

    def test_penalty_monotonicity(self):
        ds = synthetic_dataset([30] * 5, seed=1, n_features=8, noise=0.01,
                               informative=4)
        small = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)
        large = np.ones(8, dtype=np.uint8)
        s_small = wrapper_fitness(small, ds, ds, eval_seed=0, penalty=0.05)
        s_large = wrapper_fitness(large, ds, ds, eval_seed=0, penalty=0.05)
        assert s_small > s_large

    def test_zero_penalty_full_mask(self):
        from flowgate.wrf import TreeConfig, train_tree

        ds = synthetic_dataset([25] * 5, seed=2, n_features=7, informative=5)
        mask = np.ones(7, dtype=np.uint8)
        score = wrapper_fitness(mask, ds, ds, eval_seed=3, penalty=0.0)
        tree = train_tree(ds.X, ds.y, np.arange(7),
                          TreeConfig(max_depth=10, max_features=None),
                          np.random.default_rng(3))
        direct = float(np.mean(tree.predict(ds.X) == ds.y))
        assert score == pytest.approx(direct)

    def test_empty_mask_rejected(self):
        ds = synthetic_dataset([10] * 5, seed=0, n_features=4)
        with pytest.raises(ValueError):
            wrapper_fitness(np.zeros(4, dtype=np.uint8), ds, ds, 0)

    def test_mask_width_checked(self):
        ds = synthetic_dataset([10] * 5, seed=0, n_features=4)
        with pytest.raises(ValueError, match="mask width"):
            wrapper_fitness(np.ones(3, dtype=np.uint8), ds, ds, 0)

    def test_empty_validation_set_rejected_before_growing(self, monkeypatch):
        train = synthetic_dataset([1, 1, 1, 0, 0], seed=0, n_features=4)

        def grow(*args, **kwargs):
            raise AssertionError("grew a tree with nothing to score it on")

        monkeypatch.setattr(wrf, "train_tree", grow)
        with pytest.raises(ValueError, match="^empty validation set$"):
            wrapper_fitness(np.ones(4, dtype=np.uint8), train,
                            valid=train.take([]), eval_seed=0)


def _flows(X, y):
    return EncodedDataset(X=X, y=y, feature_names=[
        f"f{i}" for i in range(X.shape[1])], encoders={})


def binary_flows(seed, n=500):
    """Binary columns: few distinct rows, and equal rows differ in y."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(n, 8)).astype(float)
    y = (X[:, 0] + 2 * X[:, 1] + X[:, 5] + rng.integers(0, 2, n)) % 5
    return _flows(X, y.astype(int))


def gaussian_flows(seed, n=300):
    """Gaussian columns: every row distinct."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 8))
    y = (X[:, 0] > 0) + 2 * (X[:, 1] > 0.5) + (X[:, 5] > 1) \
        + (rng.random(n) < 0.1)
    return _flows(X, y.astype(int))


def shuffled(ds, seed):
    order = np.random.default_rng(seed).permutation(ds.n_samples)
    return ds.take(order)


MASKS = [np.ones(8, dtype=np.uint8),
         np.array([1, 1, 0, 0, 0, 1, 0, 0], dtype=np.uint8),
         np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8),
         np.array([0, 1, 0, 1, 1, 1, 1, 1], dtype=np.uint8)]


class TestProbeOnDistinctRows:
    """The probe grows on distinct rows; its fitness is that of a tree grown
    on every row."""

    @staticmethod
    def oracle(mask, train, valid, leaf, penalty=0.01):
        cols = np.flatnonzero(mask)
        tree = train_tree(train.X[:, cols], train.y, cols,
                          TreeConfig(max_depth=10, min_samples_leaf=leaf,
                                     max_features=None),
                          np.random.default_rng(4))
        acc = float(np.mean(tree.predict(valid.X) == valid.y))
        return acc - penalty * mask.sum() / mask.size

    @pytest.mark.parametrize("leaf", [1, 2, 5])
    @pytest.mark.parametrize("make", [
        binary_flows, gaussian_flows,
        lambda seed: shuffled(binary_flows(seed), seed),
        lambda seed: shuffled(gaussian_flows(seed), seed),
    ], ids=["repeated", "distinct", "repeated-shuffled", "distinct-shuffled"])
    def test_matches_a_tree_on_every_row(self, monkeypatch, make, leaf):
        train, valid = make(1), make(2)
        monkeypatch.setattr(wrf, "TreeConfig", functools.partial(
            TreeConfig, min_samples_leaf=leaf))
        for mask in MASKS:
            assert wrapper_fitness(mask, train, valid, eval_seed=4) == \
                self.oracle(mask, train, valid, leaf)

    @pytest.mark.parametrize("make", [binary_flows, gaussian_flows],
                             ids=["repeated", "distinct"])
    def test_grows_on_counted_distinct_rows(self, monkeypatch, make):
        train = make(1)
        seen = []

        def spy(X, y, feature_ids, cfg, rng, count=None):
            seen.append((X, y, count))
            return train_tree(X, y, feature_ids, cfg, rng, count)

        monkeypatch.setattr(wrf, "train_tree", spy)
        wrapper_fitness(MASKS[1], train, train, eval_seed=0)
        (X, y, count), = seen
        rows = np.column_stack((X, y))
        assert len(np.unique(rows, axis=0)) == len(rows) == count.size
        assert count.min() >= 1 and count.sum() == train.n_samples


def interleaved_run(fitness_fn, d, cfg):
    """Reference: the bat algorithm with each bat scoring and accepting its
    candidate before the next bat moves, each on its own stream."""
    memo = {}

    def evaluate(mask):
        key = mask.tobytes()
        if key not in memo:
            memo[key] = float(fitness_fn(mask))
        return memo[key]

    init_rng = np.random.default_rng(derived_seed(cfg.seed, 0))
    bats = []
    for _ in range(cfg.n_bats):
        pos = random_mask(d, init_rng)
        fit = evaluate(pos)
        bats.append(Bat(pos, np.zeros(d, dtype=np.uint8), 0.0, A_0, 0.0, fit,
                        pos.copy(), fit))

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
                           derived_seed(cfg.seed, 1, t))
        leader = {}
        for n in range(cfg.n_subgroups):
            members = division.members(n)
            leader[n] = members[int(np.argmax(
                [bats[i].fitness for i in members]))]
        mean_loudness = float(np.mean([b.loudness for b in bats]))
        anchor_g = g_pos.copy()
        for i, bat in enumerate(bats):
            rng = np.random.default_rng(derived_seed(cfg.seed, 2, t, i))
            group = int(division.assignments[i])
            anchor = anchor_g if i == leader[group] \
                else positions[leader[group]]
            bat.frequency = rng.random()
            bat.velocity = update_velocity(bat, anchor, t, cfg, rng)
            candidate = update_position(bat.position, bat.velocity, rng)
            if rng.random() > bat.pulse_rate:
                candidate = local_search(anchor_g, mean_loudness, rng)
            acceptance_step(bat, candidate, evaluate(candidate), t, rng)
            if cfg.use_mutation and rng.random() < p_t:
                mutated = differential_mutation(
                    i, positions, division.members(group),
                    np.flatnonzero(division.assignments != group),
                    t, cfg, rng)
                if mutated is not None:
                    bat.velocity = mutated
        g_pos, g_fit = global_best()
        trace.append(g_fit)
    return g_pos, g_fit, trace


class TestBatchedRun:
    """run scores each iteration as one batch; the result is that of the
    interleaved loop, in process or over two worker processes."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_bats, n_subgroups", [(1, 1), (2, 1), (9, 2)])
    def test_matches_the_interleaved_loop(self, one_cpu, monkeypatch, seed,
                                          n_bats, n_subgroups):
        probe = functools.partial(wrapper_fitness, train=binary_flows(1),
                                  valid=binary_flows(2), eval_seed=seed)
        scored = {"reference": [], "run": []}

        def recorded(name):
            return lambda mask: scored[name].append(mask.tolist()) or \
                probe(mask)

        cfg = BatConfig(n_bats=n_bats, n_subgroups=n_subgroups,
                        n_iterations=8, seed=seed)
        mask, fit, trace = interleaved_run(recorded("reference"), 8, cfg)
        res = run(recorded("run"), 8, cfg)
        assert (res.mask.tolist(), res.fitness, res.trace) == \
            (mask.tolist(), fit, trace)
        # the same masks are scored in the same order
        assert scored["run"] == scored["reference"]
        # on two CPUs the child scores some masks, out of this record's sight
        set_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        res = run(probe, 8, cfg)
        assert (res.mask.tolist(), res.fitness, res.trace) == \
            (mask.tolist(), fit, trace)
        assert bool(forks) == (n_bats > 1)  # a batch of one never forks

    def test_error_in_a_child_reads_as_serial(self, one_cpu, monkeypatch):
        cfg = BatConfig(n_bats=6, n_subgroups=2, n_iterations=3, seed=5)
        scored = []

        def record(mask):
            scored.append(mask.tobytes())
            return float(mask.sum())

        run(record, 8, cfg)
        # the child scores the second distinct mask of the first batch
        second = list(dict.fromkeys(scored))[1]
        parent = os.getpid()

        def fails_on_second(mask):
            if mask.tobytes() == second:
                raise ValueError(f"no score for {mask.tolist()}")
            return float(mask.sum())

        def fails_in_child(mask):
            if os.getpid() != parent:
                raise ValueError(f"no score for {mask.tolist()}")
            return float(mask.sum())

        with pytest.raises(RuntimeError) as serial:
            run(fails_on_second, 8, cfg)
        set_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError) as forked:
            run(fails_in_child, 8, cfg)
        assert str(forked.value) == str(serial.value)
        assert str(serial.value).startswith(
            "fitness evaluation failed at iteration 0, bat ")
        assert type(forked.value.__cause__) is ValueError


def pid_and_square(x):
    return os.getpid(), x * x


class TestCpuMap:
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_matches_map_and_forks(self, two_cpus, n):
        out = cpu_map(pid_and_square, range(n))
        assert [x for _, x in out] == [i * i for i in range(n)]
        pids = [pid for pid, _ in out]
        assert set(pids[0::2]) <= {os.getpid()}
        assert os.getpid() not in pids[1::2] and len(set(pids[1::2])) <= 1

    def test_child_without_result_is_runtime_error(self, two_cpus):
        parent = os.getpid()

        def dies_in_child(x):
            if os.getpid() != parent:
                os._exit(1)
            return x

        with pytest.raises(RuntimeError, match="without a result"):
            cpu_map(dies_in_child, range(4))

    def test_error_in_parent_kills_the_children(self, two_cpus):
        parent = os.getpid()

        def slow_in_child(x):
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyError(x)

        start = time.monotonic()
        with pytest.raises(KeyError):
            cpu_map(slow_in_child, range(2))
        assert time.monotonic() - start < 30

    def test_stays_in_process_while_another_thread_runs(self, two_cpus):
        release = threading.Event()
        parked = threading.Thread(target=release.wait)
        parked.start()
        try:
            out = cpu_map(pid_and_square, range(4))
        finally:
            release.set()
            parked.join()
        assert out == [(os.getpid(), i * i) for i in range(4)]
