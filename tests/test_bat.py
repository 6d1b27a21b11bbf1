import functools
import itertools
import math
import os
import time

import numpy as np
import pytest

from flowgate import wrf
from flowgate.balanced_kmeans import cluster
from flowgate.bat import (Bat, BatConfig, _derived_seed, acceptance_step,
                          cpu_map, differential_mutation, gated_term,
                          inertia_weight, local_search, mutation_probability,
                          random_mask, run, self_learning_factor,
                          shrinkage_factor, update_position, update_velocity,
                          wrapper_fitness)

from flowgate.dataset import EncodedDataset
from flowgate.wrf import TreeConfig, train_tree

from conftest import synthetic_dataset


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
               pulse_rate=pulse_rate, pulse_rate_init=0.5,
               fitness=fitness, best_position=position.copy(),
               best_fitness=fitness)


class TestControlFactors:
    CFG = BatConfig(w_max=0.9, w_min=0.4, c_max=1.5, c_min=0.5,
                    f_shrink_max=1.0, f_shrink_min=0.0, n_iterations=100)

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
        cfg = BatConfig(f_shrink_max=1.0, f_shrink_min=0.0, n_iterations=4)
        assert shrinkage_factor(0, cfg) == pytest.approx(1.0)
        assert shrinkage_factor(4, cfg) == pytest.approx(0.0)
        assert shrinkage_factor(1, cfg) == pytest.approx(0.75)

    def test_factors_stay_in_bounds(self):
        cfg = BatConfig(n_iterations=37)
        for t in range(cfg.n_iterations + 1):
            assert cfg.w_min <= inertia_weight(t, cfg) <= cfg.w_max
            assert cfg.c_min <= self_learning_factor(t, cfg) <= cfg.c_max
            assert cfg.f_shrink_min <= shrinkage_factor(t, cfg) \
                <= cfg.f_shrink_max
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
    CFG = BatConfig(n_iterations=10, f_shrink_max=1.0, f_shrink_min=0.0)

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
    CFG = BatConfig(alpha=0.9, gamma=0.9, n_iterations=10)

    def test_rejection_keeps_state(self):
        bat = make_bat("1010", fitness=0.8)
        rng = np.random.default_rng(0)
        acceptance_step(bat, bits("0101"), 0.5, 3, self.CFG, rng)
        assert np.array_equal(bat.position, bits("1010"))
        assert bat.loudness == 1.0 and bat.pulse_rate == 0.0

    def test_loudness_decay(self):
        bat = make_bat("1010", fitness=0.2)
        rng = ScriptedRng([0.0])
        acceptance_step(bat, bits("0101"), 0.9, 3, self.CFG, rng)
        assert bat.loudness == pytest.approx(0.9)
        assert np.array_equal(bat.position, bits("0101"))
        assert bat.pulse_rate == pytest.approx(
            0.5 * (1 - math.exp(-0.9 * 3)))

    def test_personal_best_never_decreases(self):
        bat = make_bat("1010", fitness=0.2)
        rng = np.random.default_rng(0)
        history = []
        for step, fit in enumerate([0.3, 0.1, 0.5, 0.4]):
            acceptance_step(bat, bits("0101"), fit, step + 1, self.CFG, rng)
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

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            run(lambda m: 0.0, 1, BatConfig())

    def test_fitness_error_carries_context(self):
        def bad(mask):
            raise ZeroDivisionError("boom")

        with pytest.raises(RuntimeError, match="iteration 0, bat 0"):
            run(bad, 4, BatConfig(n_bats=4, n_subgroups=2, n_iterations=3))

    def test_no_empty_mask_ever_evaluated(self):
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

    @pytest.mark.parametrize("make,counted", [(binary_flows, True),
                                              (gaussian_flows, False)])
    def test_counts_only_when_rows_repeat(self, monkeypatch, make, counted):
        train = make(1)
        seen = []

        def spy(X, y, feature_ids, cfg, rng, count=None):
            seen.append((y.size, count))
            return train_tree(X, y, feature_ids, cfg, rng, count)

        monkeypatch.setattr(wrf, "train_tree", spy)
        wrapper_fitness(MASKS[1], train, train, eval_seed=0)
        (rows, count), = seen
        if counted:
            assert rows < train.n_samples and count.sum() == train.n_samples
        else:
            assert rows == train.n_samples and count is None


def interleaved_run(fitness_fn, d, cfg):
    """Reference: the bat algorithm with each bat scoring and accepting its
    candidate before the next bat moves, each on its own stream."""
    memo = {}

    def evaluate(mask):
        key = mask.tobytes()
        if key not in memo:
            memo[key] = float(fitness_fn(mask))
        return memo[key]

    init_rng = np.random.default_rng(_derived_seed(cfg.seed, 0))
    bats = []
    for _ in range(cfg.n_bats):
        pos = random_mask(d, init_rng)
        fit = evaluate(pos)
        bats.append(Bat(pos, np.zeros(d, dtype=np.uint8), cfg.freq_min,
                        cfg.loudness_init, 0.0, cfg.pulse_rate_init, fit,
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
                           _derived_seed(cfg.seed, 1, t))
        leader = {}
        for n in range(cfg.n_subgroups):
            members = division.members(n)
            leader[n] = members[int(np.argmax(
                [bats[i].fitness for i in members]))]
        mean_loudness = float(np.mean([b.loudness for b in bats]))
        anchor_g = g_pos.copy()
        for i, bat in enumerate(bats):
            rng = np.random.default_rng(_derived_seed(cfg.seed, 2, t, i))
            group = int(division.assignments[i])
            anchor = anchor_g if i == leader[group] \
                else positions[leader[group]]
            bat.frequency = cfg.freq_min + \
                (cfg.freq_max - cfg.freq_min) * rng.random()
            bat.velocity = update_velocity(bat, anchor, t, cfg, rng)
            candidate = update_position(bat.position, bat.velocity, rng)
            if rng.random() > bat.pulse_rate:
                candidate = local_search(anchor_g, mean_loudness, rng)
            acceptance_step(bat, candidate, evaluate(candidate), t, cfg, rng)
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


@pytest.fixture
def two_cpus(monkeypatch):
    """cpu_map sees two CPUs, so it forks one child, on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


class TestBatchedRun:
    """run scores each iteration as one batch; the result is that of the
    interleaved loop, in process or over two worker processes."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_bats, n_subgroups", [(1, 1), (2, 1), (9, 2)])
    def test_matches_the_interleaved_loop(self, two_cpus, seed, n_bats,
                                          n_subgroups):
        probe = functools.partial(wrapper_fitness, train=binary_flows(1),
                                  valid=binary_flows(2), eval_seed=seed)
        scored = {"reference": [], "map": [], "cpu_map": []}

        def recorded(name):
            return lambda mask: scored[name].append(mask.tolist()) or \
                probe(mask)

        cfg = BatConfig(n_bats=n_bats, n_subgroups=n_subgroups,
                        n_iterations=8, seed=seed)
        mask, fit, trace = interleaved_run(recorded("reference"), 8, cfg)
        for map_fn in (map, cpu_map):
            res = run(recorded(map_fn.__name__), 8, cfg, map_fn)
            assert (res.mask.tolist(), res.fitness, res.trace) == \
                (mask.tolist(), fit, trace)
        # the same masks are scored in the same order; cpu_map's children
        # score theirs in copies of the record
        assert scored["map"] == scored["reference"]

    def test_error_in_a_child_reads_as_serial(self, two_cpus):
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
        with pytest.raises(RuntimeError) as forked:
            run(fails_in_child, 8, cfg, cpu_map)
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
