"""The scenario universe: sampler, crossover maps, sweep, CLI."""

import json
import math
import subprocess
import sys

import pytest

from repro.analysis import default_lint_root, iter_python_files, procsafety_source
from repro.config.registry import ENV_VARS, declared
from repro.graphs import GENERATOR_FAMILIES
from repro.obs import METRICS
from repro.world import (
    SCHEMA,
    build_report,
    build_world_graph,
    crossover_map,
    grid_universe,
    kernel_ranking,
    render_crossover_table,
    render_ranking_table,
    run_world_sweep,
    sample_universe,
    write_world_report,
)
from repro.world.__main__ import main as world_main
from repro.world.universe import DEFAULT_DEGREE_RANGE, P_IN_RANGE

pytestmark = pytest.mark.world

#: Small kernel subset for sweep tests — eligibility on v100 is a given
#: and three kernels are enough to exercise winner/margin/ranking paths.
KERNELS = ["ge-spmm", "hp-spmm", "row-split"]


@pytest.fixture(autouse=True)
def fresh_metrics():
    METRICS.reset()
    yield
    METRICS.reset()


# ----------------------------------------------------------------------
# Sampler: determinism
# ----------------------------------------------------------------------


def test_same_seed_same_universe():
    a = sample_universe(12, seed=7)
    b = sample_universe(12, seed=7)
    assert a == b
    assert [c.to_dict() for c in a] == [c.to_dict() for c in b]


def test_different_seed_different_universe():
    assert sample_universe(12, seed=7) != sample_universe(12, seed=8)


def test_same_seed_across_processes():
    # The CI determinism gate in miniature: a fresh interpreter (fresh
    # NumPy, fresh hash randomization) must sample the identical list.
    code = (
        "import json\n"
        "from repro.world import sample_universe\n"
        "cfgs = sample_universe(8, seed=3)\n"
        "print(json.dumps([c.to_dict() for c in cfgs], sort_keys=True))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True,
    )
    here = json.dumps(
        [c.to_dict() for c in sample_universe(8, seed=3)], sort_keys=True
    )
    assert proc.stdout.strip() == here


# ----------------------------------------------------------------------
# Sampler: stratification + bounds
# ----------------------------------------------------------------------


def test_every_stratum_occupied_exactly_once():
    n = 10
    configs = sample_universe(n, seed=1)
    deg_lo, deg_hi = DEFAULT_DEGREE_RANGE
    # Invert the log interpolation: with default ranges the density cap
    # (n/4 >= 48 > 32) never binds, so each config's degree must land in
    # a distinct one of the n equal log-strata.  Same for linear skew.
    deg_strata = sorted(
        int(
            math.log(c.mean_degree / deg_lo)
            / math.log(deg_hi / deg_lo)
            * n
        )
        for c in configs
    )
    skew_strata = sorted(int(c.skew * n) for c in configs)
    assert deg_strata == list(range(n))
    assert skew_strata == list(range(n))


def test_sampled_params_within_bounds():
    configs = sample_universe(32, seed=5, min_nodes=200, max_nodes=800)
    deg_lo, deg_hi = DEFAULT_DEGREE_RANGE
    p_lo, p_hi = P_IN_RANGE
    for c in configs:
        assert 200 <= c.num_nodes <= 800
        assert deg_lo <= c.mean_degree <= deg_hi
        assert 0.0 <= c.skew < 1.0
        assert p_lo <= c.p_in <= p_hi
        assert c.num_edges >= c.num_nodes
        assert c.name == f"world-{c.index:04d}"


def test_families_cycle():
    configs = sample_universe(9, seed=0)
    assert [c.family for c in configs[:4]] == list(GENERATOR_FAMILIES)
    for c in configs:
        assert c.family == GENERATOR_FAMILIES[c.index % 4]


def test_sampler_rejects_bad_args():
    with pytest.raises(ValueError):
        sample_universe(0, seed=0)
    with pytest.raises(ValueError):
        sample_universe(4, seed=0, min_nodes=512, max_nodes=512)


def test_grid_universe_shape_and_determinism():
    a = grid_universe(3, 4, seed=2)
    b = grid_universe(3, 4, seed=2)
    assert a == b
    assert len(a) == 12
    # Skew coordinates sit at stratum midpoints, one family throughout.
    assert sorted({c.skew for c in a}) == [0.125, 0.375, 0.625, 0.875]
    assert {c.family for c in a} == {"community"}


def test_world_graph_materializes():
    cfg = sample_universe(4, seed=0, max_nodes=320)[0]
    S = build_world_graph(cfg)
    assert S.shape[0] == cfg.num_nodes
    assert S.nnz > 0


# ----------------------------------------------------------------------
# Crossover aggregation on a hand-built fixture
# ----------------------------------------------------------------------


def _fixture_row(degree, skew, winner, loser, w_time, l_time):
    return {
        "mean_degree": degree,
        "skew": skew,
        "winner": winner,
        "margin": l_time / w_time,
        "kernels": {
            winner: {"status": "ok", "total_time_s": w_time},
            loser: {"status": "ok", "total_time_s": l_time},
        },
    }


def _flip_fixture():
    # Two kernels with a known winner flip at mean degree 8 — the
    # geometric midpoint of (2, 32), i.e. the 2-bucket log edge.
    rows = []
    for degree, skew in [(3.0, 0.1), (4.0, 0.6), (6.0, 0.9)]:
        rows.append(_fixture_row(degree, skew, "sparse-k", "dense-k", 1.0, 2.0))
    for degree, skew in [(10.0, 0.2), (16.0, 0.7)]:
        rows.append(_fixture_row(degree, skew, "dense-k", "sparse-k", 1.0, 4.0))
    return rows


def test_crossover_map_winner_flip_at_density_threshold():
    rows = _flip_fixture()
    cx = crossover_map(
        rows, degree_range=(2.0, 32.0), degree_buckets=2, skew_buckets=2
    )
    assert cx["degree_edges"][1] == pytest.approx(8.0)
    by_id = {r["id"]: r for r in cx["regions"]}
    assert len(by_id) == 4
    # Low-density regions belong to sparse-k, high-density to dense-k.
    for rid in ("d0s0", "d0s1"):
        if by_id[rid]["configs"]:
            assert by_id[rid]["top"] == "sparse-k"
    for rid in ("d1s0", "d1s1"):
        if by_id[rid]["configs"]:
            assert by_id[rid]["top"] == "dense-k"
    assert sum(r["configs"] for r in cx["regions"]) == len(rows)
    assert by_id["d0s0"]["winners"] == {"sparse-k": 1}
    assert by_id["d0s1"]["winners"] == {"sparse-k": 2}
    assert by_id["d0s1"]["top_share"] == 1.0
    assert by_id["d0s1"]["mean_margin"] == pytest.approx(2.0)


def test_crossover_tie_breaks_lexicographically():
    rows = [
        _fixture_row(3.0, 0.1, "b-kernel", "a-kernel", 1.0, 2.0),
        _fixture_row(4.0, 0.2, "a-kernel", "b-kernel", 1.0, 2.0),
    ]
    cx = crossover_map(
        rows, degree_range=(2.0, 32.0), degree_buckets=1, skew_buckets=1
    )
    region = cx["regions"][0]
    assert region["winners"] == {"a-kernel": 1, "b-kernel": 1}
    assert region["top"] == "a-kernel"
    assert region["top_share"] == 0.5


def test_kernel_ranking_on_fixture():
    rows = _flip_fixture()
    table = kernel_ranking(rows, ["dense-k", "sparse-k"])
    assert [r["kernel"] for r in table] == ["sparse-k", "dense-k"]
    sparse, dense = table[0], table[1]
    assert sparse["wins"] == 3 and dense["wins"] == 2
    assert sparse["win_share"] == pytest.approx(0.6)
    # sparse-k: winner 3x (rel 1.0), 4.0x slower on the other 2 rows.
    assert sparse["geomean_rel"] == pytest.approx(
        math.exp((2 * math.log(4.0)) / 5)
    )
    assert dense["geomean_rel"] == pytest.approx(
        math.exp((3 * math.log(2.0)) / 5)
    )


# ----------------------------------------------------------------------
# Sweep + report
# ----------------------------------------------------------------------


def test_sweep_report_schema_and_determinism(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    configs = sample_universe(4, seed=0, max_nodes=320)

    def one_pass():
        result = run_world_sweep(configs, kernels=KERNELS)
        assert result.errors == 0
        return build_report(result, mode="sampled", seed=0)

    report = one_pass()
    assert report["schema"] == SCHEMA
    assert report["world"]["kernels"] == sorted(KERNELS)
    assert len(report["points"]) == 4
    for point in report["points"]:
        assert point["winner"] in KERNELS
        assert point["margin"] is None or point["margin"] >= 1.0
        assert point["partition"]["nnz_per_warp"] > 0
        assert point["features"]["nnz"] > 0
    assert sum(r["configs"] for r in report["crossover"]["regions"]) == 4
    assert "workers" not in report["world"]

    # Byte determinism: a second sweep of the same universe serializes
    # identically (the CI smoke job asserts this with cmp).
    dump = lambda r: json.dumps(r, sort_keys=True)
    assert dump(one_pass()) == dump(report)

    path = write_world_report(report, "unittest", config={"samples": 4})
    on_disk = json.load(open(path))
    assert on_disk == json.loads(dump(report))
    manifest = json.load(open(tmp_path / "world_unittest.manifest.json"))
    assert manifest["config"] == {"samples": 4}
    assert METRICS.get("world.configs") >= 4
    assert METRICS.get("world.reports") == 1


def test_render_tables_cover_every_kernel_and_region():
    configs = sample_universe(4, seed=0, max_nodes=320)
    report = build_report(run_world_sweep(configs, kernels=KERNELS))
    ranking = render_ranking_table(report)
    for kernel in KERNELS:
        assert kernel in ranking
    grid = render_crossover_table(report)
    assert grid.count("\n") >= report["crossover"]["degree_buckets"] + 1


def test_cli_smoke(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    rc = world_main(
        [
            "--samples", "4", "--seed", "0", "--max-nodes", "320",
            "--kernels", ",".join(KERNELS), "--out", "cli",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "## Kernel ranking" in out
    assert "## Crossover map" in out
    report = json.load(open(tmp_path / "world_cli.json"))
    assert report["schema"] == SCHEMA
    assert report["errors"] == 0
    assert (tmp_path / "world_cli.manifest.json").exists()


def test_cli_rejects_bad_grid():
    with pytest.raises(SystemExit):
        world_main(["--grid", "8by6"])


# ----------------------------------------------------------------------
# Env registry + env-drift rule coverage
# ----------------------------------------------------------------------


def test_world_env_vars_declared():
    for name in (
        "REPRO_WORLD_SAMPLES",
        "REPRO_WORLD_SEED",
        "REPRO_WORLD_MAX_NODES",
        "REPRO_WORLD_K",
    ):
        assert declared(name), name
        assert ENV_VARS[name].subsystem == "world"
    # The world sweep's worker count is REPRO_JOBS, like every sweep.
    assert not declared("REPRO_WORLD_WORKERS")


def test_world_cli_covered_by_procsafety_scan():
    # The CI procsafety gate scans src/repro; the world package — CLI
    # included — must be inside that walk so an undeclared
    # REPRO_WORLD_* read anywhere in it fails the gate.
    scanned = {f.replace("\\", "/") for f in iter_python_files([default_lint_root()])}
    for name in ("__main__", "universe", "sweep", "crossover", "report"):
        assert any(f.endswith(f"world/{name}.py") for f in scanned), name


def test_env_drift_rule_flags_undeclared_world_var():
    source = (
        "from repro.config import env_int\n"
        "def f():\n"
        "    return env_int('REPRO_WORLD_BOGUS', 1)\n"
    )
    diags = procsafety_source(source, "world_fixture.py")
    assert any(d.rule == "procsafety/env-drift" for d in diags), diags
