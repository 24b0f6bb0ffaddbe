"""The benchmark's workloads: seeded inputs, the op on each, and its checks.

A workload builds a pool of inputs from the seed (`build`), runs op i of
the pool (`run`), checks an op's output independently (`check`, None when
right) and reads the rounds an output claims (`rounds`).  The benchmark
calls burnkit only through module attributes (`spider.burn_spider`, ...),
so the traced run sees these calls as well as the ones between layers.
"""

from __future__ import annotations

import json
import math
import random
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from burnkit import cli, exact, gen, greedy, model, spider

import checker


def _partitions(n: int, largest: int | None = None):
    """Every partition of n, parts non-increasing."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


# Seed of the inputs that every run shares; see SpiderSampled, ForestGreedy.
FIXED_SEED = 0
# Order stratum i of the seeded spiders takes arm stratum 7 i mod 24: 7 is
# prime to 24, so each arm stratum is taken once, and neighbouring orders
# get far-apart arm counts.
ARM_STRATUM_STEP = 7


class SpiderSampled:
    """burn_spider on random spiders of order 1e5 to 2e5.

    24 spiders come from the run's seed.  Their arm count m is uniform in
    [3, n-1], as acceptance test a6 draws it, which takes the head-ball
    branch.  Orders and arm counts are both stratified, each over 24 equal
    strata, and the strata are paired the same way for every seed
    (ARM_STRATUM_STEP), so every seed covers both ranges evenly and only
    moves each spider within its pair of strata.  8 more spiders, the same
    in every run, are drawn from FIXED_SEED with at most isqrt(n) arms, so
    that the longest arm is long enough for the split-longest branch.  Drawn per seed, about
    one such spider in twelve sends schedule_from_cover to its sequential
    path, which costs several times a normal op and moved every timing by
    10-15% from seed to seed.
    """

    tail_pct = 95

    def build(self, seed: int) -> None:
        self.spiders = self._draw(random.Random(seed), 24, split=False)
        self.spiders += self._draw(random.Random(FIXED_SEED), 8, split=True)

    @staticmethod
    def _draw(rng: random.Random, count: int, split: bool) -> list:
        width = 100_000 // count
        out = []
        for i in range(count):
            n = rng.randrange(100_000 + i * width, 100_000 + (i + 1) * width)
            if split:
                arms = rng.randint(3, math.isqrt(n))
            else:
                j = ARM_STRATUM_STEP * i % count
                arms = 3 + int((n - 4) * (j + rng.random()) / count)
            out.append(gen.random_spider(rng, n, arms))
        return out

    @property
    def size(self) -> int:
        return len(self.spiders)

    def run(self, i: int):
        _, schedule = spider.burn_spider(self.spiders[i])
        return schedule.claimed_time, schedule.sources

    def check(self, i: int, out) -> str | None:
        return checker.check_spider(self.spiders[i].arms, *out)

    def rounds(self, out) -> int:
        return out[0]


class ForestGreedy:
    """greedy_burn on random path forests of order 2e5, at fixed t.

    The run's seed draws the forests with t in SEEDED, covering both
    regimes: t < floor(sqrt(n)) = 447, where the radius is ceil(sqrt(n))-1,
    and t >= 447, where it is n/2t + t - 1.  The forests with t in FIXED
    are drawn from FIXED_SEED and are the same in every run: at those t,
    about one greedy cover in ten sends schedule_from_cover to its
    sequential path (250 ms instead of 30 ms), which, drawn per seed, would
    move every timing by 10-20% from seed to seed.  The pool has an odd
    number of forests, and op times rise with t, so the median op time is
    the middle of one forest's times (near t = 390), not an extreme of two.
    """

    n = 200_000
    SEEDED = (1, 2, 3, 4, 5, 300, 360, 390, 420, 447, 600, 800, 1000, 1250, 1500, 1750, 2000)
    FIXED = (8, 16, 32, 64, 128, 181)
    tail_pct = 80

    def build(self, seed: int) -> None:
        rng, fixed = random.Random(seed), random.Random(FIXED_SEED)
        self.forests = [gen.random_path_forest(rng, self.n, t) for t in self.SEEDED]
        self.forests += [gen.random_path_forest(fixed, self.n, t) for t in self.FIXED]

    @property
    def size(self) -> int:
        return len(self.forests)

    def run(self, i: int):
        _, schedule, _ = greedy.greedy_burn(self.forests[i])
        return schedule.claimed_time, schedule.sources

    def check(self, i: int, out) -> str | None:
        return checker.check_greedy(self.forests[i].orders, *out)

    def rounds(self, out) -> int:
        return out[0]


class ExactSmall:
    """Ground truth on every small instance, in seeded batches.

    Every spider of order <= 22 goes through burn_spider (whose base case
    calls exact_burning_number); every path forest of order <= 18 through
    greedy_burn and exact_path_forest.  The seed shuffles the instances and
    cuts them into ops of `batch` instances, so every seed does the same
    total work.
    """

    spider_order = 22
    forest_order = 18
    batch = 20
    tail_pct = 95

    def build(self, seed: int) -> None:
        instances = [
            model.Spider(arms)
            for n in range(4, self.spider_order + 1)
            for arms in _partitions(n - 1)
            if len(arms) >= 3
        ]
        instances += [
            model.PathForest(orders)
            for n in range(1, self.forest_order + 1)
            for orders in _partitions(n)
        ]
        random.Random(seed).shuffle(instances)
        self.batches = [
            instances[i: i + self.batch] for i in range(0, len(instances), self.batch)
        ]

    @property
    def size(self) -> int:
        return len(self.batches)

    def run(self, i: int):
        out = []
        for inst in self.batches[i]:
            if isinstance(inst, model.Spider):
                _, schedule = spider.burn_spider(inst)
                out.append((schedule.claimed_time, schedule.sources))
            else:
                _, schedule, _ = greedy.greedy_burn(inst)
                k, cover = exact.exact_path_forest(inst)
                out.append((schedule.claimed_time, schedule.sources, k, cover.budget, cover.pairs))
        return tuple(out)

    def check(self, i: int, out) -> str | None:
        for inst, res in zip(self.batches[i], out, strict=True):
            if isinstance(inst, model.Spider):
                bad = checker.check_spider(inst.arms, *res)
            else:
                claimed, sources, k, budget, pairs = res
                bad = checker.check_exact_forest(inst.orders, k, budget, pairs)
                bad = bad or checker.check_greedy(inst.orders, claimed, sources, exact=k)
            if bad:
                return f"{inst}: {bad}"
        return None

    def rounds(self, out) -> int:
        return sum(res[0] for res in out)


class CliGraph:
    """`burnkit verify graph FILE --schedule ...` on random sparse graphs.

    Each of the 6 graphs has `order` to 1.05 `order` vertices, so that
    every op costs about the same: a random recursive tree (so it is
    connected) plus half as many random extra edges, written as a shuffled
    edge list.  Graph g (0 to 5) is verified against two schedules of
    3 + g random sources, each claiming between that and 8 more rounds, so
    some verifications come back negative (exit code 1).  cli.main runs in this process with stdout captured.
    """

    graphs = 6
    order = 12_000
    tail_pct = 75

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def build(self, seed: int) -> None:
        rng = random.Random(seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cases = []
        for g in range(self.graphs):
            n = rng.randrange(self.order, self.order + self.order // 20)
            edges = {(rng.randrange(v), v) for v in range(1, n)}
            while len(edges) < 3 * (n - 1) // 2:
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v and (v, u) not in edges:
                    edges.add((u, v))
            lines = [f"v{u} v{v}" for u, v in edges]
            lines.sort()
            rng.shuffle(lines)
            path = self.workdir / f"g{g}.txt"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            us, vs = zip(*edges)
            for _ in range(2):
                sources = rng.sample(range(n), 3 + g)
                claimed = rng.randint(3 + g, 11 + g)
                argv = [
                    "verify", "graph", str(path),
                    "--schedule", ",".join(f"v{s}" for s in sources),
                    "--rounds", str(claimed),
                ]
                self.cases.append((argv, n, us, vs, sources, claimed))

    def close(self) -> None:
        for g in range(self.graphs):
            (self.workdir / f"g{g}.txt").unlink(missing_ok=True)
        if self.workdir.is_dir():
            self.workdir.rmdir()

    @property
    def size(self) -> int:
        return len(self.cases)

    def run(self, i: int):
        buf = StringIO()
        with redirect_stdout(buf):
            code = cli.main(self.cases[i][0])
        return code, buf.getvalue()

    def check(self, i: int, out) -> str | None:
        _, n, us, vs, sources, claimed = self.cases[i]
        code, text = out
        indptr, indices = checker.csr(n, us, vs)
        done = checker.completion(checker.burn_times(indptr, indices, sources))
        verified = done is not None and done <= claimed
        expect = {
            "n": n,
            "schedule": [f"v{s}" for s in sources],
            "rounds": claimed,
            "completion": done,
            "verified": verified,
        }
        payload = json.loads(text)
        got = {key: payload.get(key) for key in expect}
        if got != expect or code != (0 if verified else 1):
            return f"exit {code} and {got}, expected {expect}"
        return None

    def rounds(self, out) -> int:
        return json.loads(out[1])["completion"]


def make(name: str, outdir: Path):
    """The workload called name; cli_graph writes its graph files to outdir."""
    if name == "cli_graph":
        return CliGraph(outdir)
    return {"spider_sampled": SpiderSampled, "forest_greedy": ForestGreedy, "exact_small": ExactSmall}[
        name
    ]()


NAMES = ("spider_sampled", "forest_greedy", "exact_small", "cli_graph")
