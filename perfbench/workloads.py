"""The benchmark's four workloads, driven through the library's public API.

Each workload builds its inputs from the seed in :meth:`Workload.setup`
(run several times; ``run.py`` reports the median) and then runs its
timed phase in :meth:`Workload.run`, checking every answer.  Batch
workloads repeat identical passes and stop at the pass boundary nearest
the requested seconds, so every pass has the same mix; the serving
workload runs one arrival schedule and slices it into equal windows.
``run.py`` reports the median over passes (windows) of every rate and
latency, so a slow stretch of the machine that covers less than half
of them does not move the result.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field

import repro.graphs.registry as registry
import repro.kernels.common as kernel_common
from repro.bench import (
    ABLATION_GRAPHS,
    PAPER_TABLE3,
    PAPER_TABLE5,
    SDDMM_BASELINES,
    SPMM_BASELINES,
    TABLE4_GRAPHS,
    TABLE5_CASES,
    run_fig11,
    run_fig13,
    run_table4,
)
from repro.bench.fig10 import DEFAULT_PARENTS
from repro.bench.fig13 import DEFAULT_KS as FIG13_KS
from repro.engine import (
    VALID_BOUNDS,
    Engine,
    EngineConfig,
    EstimateRequest,
    PoolExecutor,
)
from repro.gnn import SyntheticTask, train_full_graph, train_graph_sampling
from repro.gpusim import get_device
from repro.graphs import FULL_GRAPH_ORDER, build_sampling_dataset, load_graph
from repro.obs import METRICS
from repro.perf import get_estimate_cache
from repro.serve import EstimateRequest as ServeRequest
from repro.serve import EstimationServer
from repro.world import build_report, run_world_sweep, sample_universe
from repro.world.sweep import supported_kernels

DEVICES = ("v100", "a30")
SPMM_KERNELS = ("hp-spmm",) + SPMM_BASELINES
SDDMM_KERNELS = ("hp-sddmm",) + SDDMM_BASELINES


@dataclass
class Window:
    """One pass of a batch workload, or one time slice of serving."""

    seconds: float = 0.0
    estimates: int = 0              #: estimates answered
    configs: int = 0                #: input configurations completed
    steps: int = 0                  #: workload steps completed
    latencies_ms: list = field(default_factory=list)


@dataclass
class Outcome:
    """What one timed phase did, and how its answers checked out."""

    t0: float = 0.0                 #: perf_counter at the phase start
    t1: float = 0.0                 #: perf_counter at the phase end
    attempted: int = 0              #: operations attempted
    failed: int = 0                 #: not answered, or answered wrongly
    wrong: int = 0                  #: answers that failed an output check
    full: int = 0                   #: answers from the full cost model
    windows: list = field(default_factory=lambda: [Window()])
    sim_us_sum: float = 0.0         #: simulated us of a fixed, seeded set
    paper_error: float = 0.0        #: geomean fold error vs the paper
    counters: dict = field(default_factory=dict)  #: per-layer extras
    problems: list = field(default_factory=list)  #: check failures

    @property
    def elapsed_s(self) -> float:
        return self.t1 - self.t0

    @property
    def window(self) -> Window:
        """The pass currently running."""
        return self.windows[-1]

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.wrong += count
        if len(self.problems) < 20:
            self.problems.append(message)


def estimate_ok(time_s, bound) -> bool:
    """The output check every estimate must pass."""
    return (
        time_s is not None
        and math.isfinite(time_s)
        and time_s > 0
        and bound in VALID_BOUNDS
    )


def fold_error(pairs) -> float:
    """Geometric-mean fold error of ``(measured, published)`` pairs."""
    logs = [abs(math.log(m / p)) for m, p in pairs]
    return math.exp(sum(logs) / len(logs))


def mean_speedup(times: dict, ours: str, baseline: str) -> float:
    """Table III's statistic: mean per-graph ``t_baseline / t_ours``."""
    mine, theirs = times[ours], times[baseline]
    return statistics.fmean(theirs[g] / mine[g] for g in mine)


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


@functools.lru_cache(maxsize=None)
def eligible(op: str, k: int, dev: str) -> tuple[str, ...]:
    """The paper's kernels for ``op`` that can run on device ``dev``.

    Ineligible kernels (TC-GNN without TF32 tensor cores, say) are left
    out up front, as the world sweep does, instead of counting as
    failures.
    """
    wanted = SPMM_KERNELS if op == "spmm" else SDDMM_KERNELS
    kept, _ = supported_kernels(k, get_device(dev), op=op)
    return tuple(name for name in wanted if name in kept)


class Workload:
    """Seeded inputs, a repeatable set-up and a checked timed phase."""

    name = ""
    #: Thread whose timeline the traced run splits into layers.
    primary_thread = "MainThread"

    def __init__(self, seed: int, seconds: float, run_dir: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir
        self._cleared = [0, 0]

    def fresh_graph_cache(self, rep: int) -> None:
        """Point the registry at an empty private cache and forget loads."""
        os.environ["REPRO_CACHE_DIR"] = os.path.join(self.run_dir, f"graphs-{rep}")
        registry._load_cached.cache_clear()

    def cold_caches(self) -> None:
        """Empty the estimate memos so the next estimates run the model."""
        cache = get_estimate_cache()
        stats = cache.stats()
        self._cleared[0] += stats.hits
        self._cleared[1] += stats.misses
        cache.clear()
        kernel_common._HIT_RATE_CACHE.clear()

    def cache_counts(self) -> tuple[int, int]:
        """Estimate-cache (hits, misses) since the process started."""
        stats = get_estimate_cache().stats()
        return self._cleared[0] + stats.hits, self._cleared[1] + stats.misses

    def repeat_passes(self, one_pass) -> Outcome:
        """Run identical passes, stopping at the pass boundary nearest the
        requested seconds (at least one pass); check the passes agree."""
        out = Outcome(windows=[])
        sims = []
        out.t0 = time.perf_counter()
        while True:
            out.windows.append(Window())
            t = time.perf_counter()
            sims.append(one_pass(out, first=not sims))
            out.window.seconds = time.perf_counter() - t
            elapsed = time.perf_counter() - out.t0
            if elapsed + 0.5 * elapsed / len(sims) > self.seconds:
                break
        out.t1 = time.perf_counter()
        out.sim_us_sum = sims[0]
        if any(s != sims[0] for s in sims):
            out.fail(f"simulated time differs between passes: {sims}")
        return out

    def setup(self, rep: int) -> None:
        raise NotImplementedError

    def run(self) -> Outcome:
        return self.repeat_passes(self._pass)

    def _pass(self, out: Outcome, first: bool) -> float:
        """One pass; returns its simulated microseconds."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop anything the workload started."""


class KernelSweep(Workload):
    """Table III (Fig 9 + Fig 10, V100 and A30, K=32/64/128), Fig 11 with
    GCR, Fig 13 and Table IV, every point plan-checked, all cold."""

    name = "kernel-sweep"
    MAX_EDGES = 100_000
    PER_PARENT = 8           #: sampled subgraphs per Fig 10 parent
    KS = (32, 64, 128)

    def setup(self, rep: int) -> None:
        self.fresh_graph_cache(rep)
        self.full = [
            (name, load_graph(name, max_edges=self.MAX_EDGES).matrix)
            for name in FULL_GRAPH_ORDER
        ]
        self.parents = [
            load_graph(p, max_edges=self.MAX_EDGES) for p in DEFAULT_PARENTS
        ]
        self.kernels = {
            (op, k, dev): eligible(op, k, dev)
            for op in ("spmm", "sddmm") for k in self.KS for dev in DEVICES
        }
        # Warm-up: one graph's column through the sweep pipeline.
        self._sweep_graph(Outcome(), self.full[4], self.KS[0], "v100", {})
        self.cold_caches()

    def _sweep_graph(self, out: Outcome, named, k: int, dev: str, times: dict) -> float:
        """One graph's kernel column, the way the bench sweeps run it."""
        gname, S = named
        device = get_device(dev)
        requests = [
            EstimateRequest(op=op, kernel=kname, graph=gname, k=k, device=device)
            for op in ("spmm", "sddmm")
            for kname in self.kernels[(op, k, dev)]
        ]
        engine = Engine(
            EngineConfig(check_plans=None, span="sweep_point[{op}]", cat="bench"),
            executor=PoolExecutor(),
        )
        t = time.perf_counter()
        batch = engine.estimate_batch(requests, matrices={gname: S})
        out.window.latencies_ms.append((time.perf_counter() - t) * 1e3)
        out.window.configs += 1
        sim_us = 0.0
        for res in batch:
            out.attempted += 1
            if not res.ok or not estimate_ok(res.time_s, res.bound):
                out.fail(f"{gname} {res.request.kernel} k={k} {dev}: {res}")
                continue
            out.window.estimates += 1
            out.full += 1
            sim_us += res.time_s * 1e6
            times.setdefault(res.request.kernel, {})[gname] = res.time_s
        if batch.plans_checked != len(requests):
            out.fail(f"{gname}: {batch.plans_checked}/{len(requests)} plans checked")
        return sim_us

    def _figure(self, out: Outcome, label: str, runner, numbers, zero_ok=False) -> None:
        """Time one figure runner call and check the numbers it returns."""
        t = time.perf_counter()
        res = runner()
        out.window.latencies_ms.append((time.perf_counter() - t) * 1e3)
        out.window.configs += 1
        values = list(numbers(res))
        out.attempted += len(values)
        bad = [
            v for v in values
            if not (math.isfinite(v) and (v > 0 or (zero_ok and v == 0)))
        ]
        if bad:
            out.fail(f"{label}: non-positive or non-finite {bad}", len(bad))
        out.window.estimates += len(values) - len(bad)
        out.full += len(values) - len(bad)

    def _pass(self, out: Outcome, first: bool) -> float:
        self.cold_caches()
        sim_us = 0.0
        table3 = {}
        for k in self.KS:
            for dev in DEVICES:
                full_times: dict = {}
                for named in self.full:
                    sim_us += self._sweep_graph(out, named, k, dev, full_times)
                subs = build_sampling_dataset(
                    self.parents, per_parent=self.PER_PARENT, seed=self.seed
                )
                samp_times: dict = {}
                for i, sub in enumerate(subs):
                    named = (f"{sub.sampler}-{i}", sub.matrix)
                    sim_us += self._sweep_graph(out, named, k, dev, samp_times)
                out.window.steps += 2
                if k == 64:
                    table3[(dev, "full")] = full_times
                    table3[(dev, "samp")] = samp_times
        for g in ABLATION_GRAPHS:
            self._figure(
                out, f"fig11 {g}",
                lambda: run_fig11(max_edges=self.MAX_EDGES, graphs=(g,)),
                lambda res: res.times_ms[g].values(),
            )
        for k in FIG13_KS:
            self._figure(
                out, f"fig13 k={k}",
                lambda: run_fig13(max_edges=self.MAX_EDGES, ks=(k,)),
                lambda res: [series[0] for series in res.gflops.values()],
            )
        for g in TABLE4_GRAPHS:
            # Preprocessing columns may be 0; execution columns may not.
            self._figure(
                out, f"table4 {g}",
                lambda: run_table4(max_edges=self.MAX_EDGES, graphs=(g,)),
                lambda res: res.rows[0][1:], zero_ok=True,
            )
        out.window.steps += 3
        if first and table3:
            pairs = []
            for (dev, dataset), times in sorted(table3.items()):
                for ours, baselines in (("hp-spmm", SPMM_BASELINES),
                                        ("hp-sddmm", SDDMM_BASELINES)):
                    for b in baselines:
                        if b in times:
                            pairs.append((
                                mean_speedup(times, ours, b),
                                PAPER_TABLE3[(dev, dataset, b)][0],
                            ))
            out.paper_error = fold_error(pairs)
        return sim_us


class WorldSweep(Workload):
    """The nightly scenario sweep: a universe over all four generator
    families, every eligible kernel, two shard workers."""

    name = "world-sweep"
    CONFIGS = 120            #: half the nightly universe, same sampling
    MAX_NODES = 8192
    WARM_CONFIGS = 24
    WARM_MAX_NODES = 4096
    K = 32
    WORKERS = 2

    def _universe(self, samples: int, shape_seed: int, max_nodes: int):
        """A universe with a fixed shape and seeded graph instances.

        The shape (family, size, density, skew and mixing of every
        config) comes from ``shape_seed``, so every workload seed sweeps
        the same amount of work; each graph's generator seed comes from
        the workload seed, by the rule ``sample_universe`` uses.
        """
        return [
            dataclasses.replace(cfg, graph_seed=self.seed * 1_000_003 + cfg.index)
            for cfg in sample_universe(samples, shape_seed, max_nodes=max_nodes)
        ]

    def setup(self, rep: int) -> None:
        self.configs = self._universe(self.CONFIGS, 0, self.MAX_NODES)
        # Warm-up: a smaller universe through the same sharded path.
        warm = self._universe(self.WARM_CONFIGS, 1, self.WARM_MAX_NODES)
        build_report(run_world_sweep(warm, k=self.K, workers=self.WORKERS))

    def _pass(self, out: Outcome, first: bool) -> float:
        t = time.perf_counter()
        result = run_world_sweep(self.configs, k=self.K, workers=self.WORKERS)
        report = build_report(result, seed=self.seed)
        out.window.latencies_ms.append((time.perf_counter() - t) * 1e3)
        out.window.steps += 1
        out.window.configs += result.configs
        sim_us = 0.0
        times: dict = {}
        for point in result.points:
            if point.winner is None:
                out.fail(f"{point.config.name}: no winner")
            for kname, rec in point.kernels.items():
                out.attempted += 1
                if rec["status"] != "ok" or not estimate_ok(rec["time_s"], rec["bound"]):
                    out.fail(f"{point.config.name} {kname}: {rec}")
                    continue
                out.window.estimates += 1
                out.full += 1
                sim_us += rec["time_s"] * 1e6
                times.setdefault(kname, {})[point.config.name] = rec["time_s"]
        if report["errors"] != result.errors or result.errors:
            out.fail(f"sweep reported {result.errors} errors")
        if first:
            out.paper_error = fold_error(
                (mean_speedup(times, "hp-spmm", b), PAPER_TABLE3[("v100", "full", b)][0])
                for b in SPMM_BASELINES if b in times
            )
        return sim_us


class ServeOpen(Workload):
    """Open-loop Poisson arrivals from one generator thread into an
    in-process EstimationServer with its default executor."""

    name = "serve-open"
    primary_thread = "repro-serve"
    RATE_HZ = 500.0
    DEADLINE_S = 0.25
    MAX_EDGES = 20_000
    HOT_GRAPHS = 8
    HOT_SHARE = 0.9
    HOT_K = 64
    ZIPF_S = 1.1
    COLD_KS = (16, 24, 32, 40, 48, 56, 80, 96, 112, 128, 160, 192)
    MAX_BATCH = 16
    BATCH_WINDOW_S = 0.005
    WARM_BURST = 64
    WINDOWS = 5              #: equal slices of the schedule, by due time

    server: EstimationServer | None = None
    corrupt_one = False  #: negative control: falsify one full-path answer

    def _request(self, op, kernel, graph, k, dev) -> ServeRequest:
        return ServeRequest(
            op=op, kernel=kernel, graph=graph, k=k, device=dev,
            deadline_s=self.DEADLINE_S, max_edges=self.MAX_EDGES,
        )

    def _combos(self, k: int):
        return [
            (op, kname, dev)
            for dev in DEVICES
            for op in ("spmm", "sddmm")
            for kname in eligible(op, k, dev)
        ]

    def _inputs(self) -> None:
        """The seeded popularity, hot set, cold pool and arrival schedule."""
        rng = random.Random(self.seed)
        order = list(FULL_GRAPH_ORDER)
        rng.shuffle(order)
        self.hot_graphs = order[: self.HOT_GRAPHS]
        weights = [1.0 / (r + 1) ** self.ZIPF_S for r in range(self.HOT_GRAPHS)]
        hot_combos = self._combos(self.HOT_K)
        self.hot = [
            self._request(op, kname, g, self.HOT_K, dev)
            for g in self.hot_graphs for op, kname, dev in hot_combos
        ]
        cold = [
            self._request(op, kname, g, k, dev)
            for k in self.COLD_KS for g in order
            for op, kname, dev in self._combos(k)
        ]
        rng.shuffle(cold)
        schedule = []
        t = rng.expovariate(self.RATE_HZ)
        while t < self.seconds:
            if rng.random() < self.HOT_SHARE or not cold:
                g = rng.choices(self.hot_graphs, weights)[0]
                op, kname, dev = rng.choice(hot_combos)
                req = self._request(op, kname, g, self.HOT_K, dev)
            else:
                req = cold.pop()
            schedule.append((t, req))
            t += rng.expovariate(self.RATE_HZ)
        self.schedule = schedule
        self.warm_burst = [rng.choice(self.hot) for _ in range(self.WARM_BURST)]

    def setup(self, rep: int) -> None:
        self.close()
        self.cold_caches()
        self.fresh_graph_cache(rep)
        for name in FULL_GRAPH_ORDER:
            load_graph(name, max_edges=self.MAX_EDGES)
        self._inputs()
        # Built the way repro.serve.run_workload builds it (default
        # executor), then warmed with the hot set and a short burst.
        self.server = EstimationServer(
            max_batch=self.MAX_BATCH, batch_window_s=self.BATCH_WINDOW_S
        )
        self.server.warm(self.hot)
        self.server.start()
        for ticket in self.server.submit_many(self.warm_burst):
            ticket.result(60)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def run(self) -> Outcome:
        out = Outcome()
        server = self.server
        n = len(self.schedule)
        done = [0.0] * n
        late = [0.0] * n
        tickets = []
        stats0 = server.stats()
        out.t0 = start = time.perf_counter()
        for i, (offset, req) in enumerate(self.schedule):
            due = start + offset
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            late[i] = time.perf_counter() - due
            ticket = server.submit(req)
            ticket.on_done(lambda _p, i=i: done.__setitem__(i, time.perf_counter()))
            tickets.append(ticket)
        responses = [t.result(60) for t in tickets]
        out.t1 = max(done)
        stats1 = server.stats()
        stats = {key: stats1[key] - stats0[key] for key in stats0}
        self.close()

        span = self.seconds / self.WINDOWS
        out.windows = [Window(seconds=span) for _ in range(self.WINDOWS)]
        batches = [set() for _ in out.windows]
        groups = [set() for _ in out.windows]
        answers = {}
        for i, ((offset, req), resp) in enumerate(zip(self.schedule, responses)):
            w = min(self.WINDOWS - 1, int(offset / span))
            win = out.windows[w]
            out.attempted += 1
            if resp.status not in ("ok", "degraded"):
                out.failed += 1
                win.latencies_ms.append(math.inf)
                continue
            win.latencies_ms.append((done[i] - (start + offset)) * 1e3)
            batches[w].add(resp.batch_id)
            answer = (resp.time_s, resp.preprocessing_s, resp.bound)
            if resp.status == "ok" and self.corrupt_one and not answers:
                answer = (resp.time_s * 1.5,) + answer[1:]
            if not estimate_ok(resp.time_s, resp.bound):
                out.fail(f"{req}: {resp}")
                continue
            win.estimates += 1
            if resp.status == "ok":
                groups[w].add((resp.batch_id, req.graph))
                answers[i] = answer
        for win, b, g in zip(out.windows, batches, groups):
            win.steps, win.configs = len(b), len(g)
        verified = self._verify(out)
        for i, answer in answers.items():
            want = verified[self.schedule[i][1].signature]
            if answer != want:
                out.fail(f"{self.schedule[i][1]}: served {answer}, recomputed {want}")
            else:
                out.full += 1

        waits = sorted(r.queue_wait_s * 1e3 for r in responses)
        out.counters.update({
            "serve.queue_wait_p50_ms": percentile(waits, 50),
            "serve.queue_wait_p99_ms": percentile(waits, 99),
            "serve.batches": stats["batches"],
            "serve.batch_size_mean": stats["completed"] / max(1, stats["batches"]),
            "serve.coalesced": stats["coalesced"],
            "serve.deduped": stats["deduped"],
            "serve.degraded": stats["degraded"],
            "serve.timeouts": stats["timeout"],
            "serve.gen_late_p99_ms": percentile(sorted(x * 1e3 for x in late), 99),
        })
        return out

    def _verify(self, out: Outcome) -> dict:
        """Recompute every scheduled signature cold, directly on the engine."""
        self.cold_caches()
        engine = Engine()
        verified = {}
        for sig in sorted({req.signature for _, req in self.schedule}):
            op, kernel, graph, k, dev, max_edges = sig
            res = engine.estimate(EstimateRequest(
                op=op, kernel=kernel, graph=graph, k=k, device=dev,
                max_edges=max_edges,
            ))
            verified[sig] = (res.time_s, res.preprocessing_s, res.bound)
            out.sim_us_sum += res.time_s * 1e6
        pairs = []
        for dev in DEVICES:
            for op, ours, baselines in (("spmm", "hp-spmm", SPMM_BASELINES),
                                        ("sddmm", "hp-sddmm", SDDMM_BASELINES)):
                for b in baselines:
                    ratios = [
                        verified[(op, b, g, self.HOT_K, dev, self.MAX_EDGES)][0]
                        / verified[(op, ours, g, self.HOT_K, dev, self.MAX_EDGES)][0]
                        for g in self.hot_graphs
                        if (op, b, g, self.HOT_K, dev, self.MAX_EDGES) in verified
                        and (op, ours, g, self.HOT_K, dev, self.MAX_EDGES) in verified
                    ]
                    if ratios:
                        pairs.append((statistics.fmean(ratios),
                                      PAPER_TABLE3[(dev, "full", b)][0]))
        out.paper_error = fold_error(pairs)
        return verified


class TrainGcn(Workload):
    """Table V: GCN in full-graph and GraphSAINT-sampling mode, each with
    the framework's default kernel and with HP-SpMM, all hidden sizes."""

    name = "train-gcn"
    MAX_EDGES = 30_000
    #: Full-graph epochs / sampled iterations per run: with fewer, the
    #: loss of the deep (8-layer) and the tiny sampled runs sometimes
    #: did not fall below its first value, so the check could not hold.
    EPOCHS = 10
    HIDDENS = (32, 128, 256)
    NODE_SHARE = 0.5         #: sampling budget as a share of parent nodes

    def setup(self, rep: int) -> None:
        self.fresh_graph_cache(rep)
        self.data = {}
        for _, _, dataset, _, _, _ in TABLE5_CASES:
            S = load_graph(dataset, max_edges=self.MAX_EDGES).matrix
            task = SyntheticTask.for_graph(S, seed=self.seed)
            self.data[dataset] = (S, task, int(self.NODE_SHARE * S.shape[0]))
        # Warm-up: two steps of every case and hidden size, then forget
        # their estimates.
        for _, _, dataset, mode, layers, baseline in TABLE5_CASES:
            S, task, budget = self.data[dataset]
            for hidden in self.HIDDENS:
                self._train(mode, S, task, budget, 2, hidden=hidden,
                            num_layers=layers, spmm_kernel=baseline, seed=self.seed)
        self.cold_caches()

    def _train(self, mode, S, task, budget, steps, **kwargs):
        if mode == "full-graph":
            return train_full_graph(S, task, epochs=steps, **kwargs)
        return train_graph_sampling(
            S, task, iterations=steps, node_budget=budget, **kwargs
        )

    def _pass(self, out: Outcome, first: bool) -> float:
        self.cold_caches()
        sim_us = 0.0
        speedups = {}
        for framework, model, dataset, mode, layers, baseline in TABLE5_CASES:
            S, task, budget = self.data[dataset]
            for hidden in self.HIDDENS:
                gpu_s = {}
                for kernel in (baseline, "hp-spmm"):
                    ops0 = METRICS.get("gnn.spmm_ops") + METRICS.get("gnn.sddmm_ops")
                    t = time.perf_counter()
                    rep = self._train(
                        mode, S, task, budget, self.EPOCHS, hidden=hidden,
                        num_layers=layers, spmm_kernel=kernel, seed=self.seed,
                    )
                    dt = time.perf_counter() - t
                    losses = rep.losses
                    out.window.latencies_ms.append(dt * 1e3 / max(1, len(losses)))
                    out.attempted += self.EPOCHS
                    out.window.estimates += int(
                        METRICS.get("gnn.spmm_ops") + METRICS.get("gnn.sddmm_ops") - ops0
                    )
                    gpu_s[kernel] = rep.simulated_gpu_s
                    if (len(losses) != self.EPOCHS
                            or not all(math.isfinite(x) for x in losses)
                            or not losses[-1] < losses[0]
                            or not (math.isfinite(gpu_s[kernel]) and gpu_s[kernel] > 0)):
                        out.fail(f"{dataset} h={hidden} {kernel}: losses {losses}, "
                                 f"gpu {gpu_s[kernel]}", self.EPOCHS)
                        continue
                    out.window.steps += len(losses)
                    out.full += len(losses)
                    out.window.configs += 1
                    sim_us += gpu_s[kernel] * 1e6
                speedups[(framework, model, hidden)] = gpu_s[baseline] / gpu_s["hp-spmm"]
        if first:
            out.paper_error = fold_error(
                (s, PAPER_TABLE5[key]) for key, s in sorted(speedups.items())
            )
        return sim_us


WORKLOADS = {
    cls.name: cls for cls in (KernelSweep, WorldSweep, ServeOpen, TrainGcn)
}
