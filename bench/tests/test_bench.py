"""Small-size smoke tests of the benchmark's generators, gates, tracer,
statistics, compare verdicts and ladder budget logic.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import statistics
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import ladder  # noqa: E402
import summary  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# -- generators ------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda s: workloads.evolve_config(s, 7, 8),
    lambda s: workloads.validate_config(s, 3),
])
def test_generators_depend_only_on_the_seed(make):
    assert make(3) == make(3)
    assert make(3) != make(4)
    json.dumps(make(3))


def test_generated_sizes():
    assert workloads.evolve_config(1, 7, 8)["evolve"]["n_steps"] == 8
    assert workloads.validate_config(1, 3)["grid"]["points_per_axis"] == 3


def test_validate_targets_fix_the_accepted_distances():
    # every seed accepts lattice distance 2 for O-H and 3 for O-O
    for seed in range(50):
        cfg = workloads.validate_config(seed)
        rows = cfg["criteria"][0]["pairs"]
        oh, tol = rows[0][2] / workloads.BOHR_IN_PM, rows[0][3] / \
            workloads.BOHR_IN_PM
        oo = rows[2][2] / workloads.BOHR_IN_PM
        assert abs(2 - oh) <= tol < abs(1 - oh)
        assert abs(3 - oo) <= tol < abs(4 - oo)


def test_oo_bond_mask_counts_lattice_pairs():
    cfg = workloads.validate_config(0, 5)
    mask = workloads.oo_bond_mask(cfg)
    assert mask.size == 5 ** 4
    # |x0 - x1| = 4 is the only rejected O-O distance on 5 points
    assert mask.sum() == 5 ** 4 - 2 * 5 ** 2


# -- gates -----------------------------------------------------------------

def test_evolve_gate_passes_and_catches_a_stalled_propagator(tmp_path):
    from mergosim.evolution import PropagationReport

    wl = workloads.EvolveMerge(2, str(tmp_path), m=7, n_steps=8)
    wl.prepare()
    first = wl.run_pass(capture=True)
    wl.gate_first(first)
    wl.gate(first, first)
    assert first.requests[0].failures == []
    assert wl.diagnostics["populations_moved"] > workloads.MIN_MOVED

    def stalled(fn):
        return lambda state, sh, s_from, s_to, n: PropagationReport(
            state, 0.0, n, np.zeros(n))

    patches = tracer.Patches()
    patches.replace_function("mergosim.evolution", "propagate", stalled)
    try:
        broken = wl.run_pass(capture=True)
    finally:
        patches.undo()
    wl.gate_first(broken)
    assert any("2x-step reference" in f
               for f in broken.requests[0].failures), broken.requests[0].failures


def test_reference_is_second_order():
    cfg = workloads.evolve_config(5, 7, 8)
    _, p16 = workloads.reference_populations(cfg, 16)
    _, p32 = workloads.reference_populations(cfg, 32)
    _, p256 = workloads.reference_populations(cfg, 256)
    e16 = workloads.total_variation(p16, p256)
    e32 = workloads.total_variation(p32, p256)
    assert 3.0 < e16 / e32 < 6.0      # a first-order rule gives about 2


def test_validate_gate_passes_and_catches_a_wrong_probability(tmp_path):
    wl = workloads.ValidateMeasure(1, str(tmp_path), m=3)
    wl.prepare()
    first = wl.run_pass()
    wl.gate(first, first)
    assert all(r.failures == [] for r in first.requests)
    again = wl.run_pass()
    again.outputs[1]["report"]["p_suc"] += 1e-9
    wl.gate(again, first)
    assert any("p_suc" in f for f in again.requests[1].failures)


def test_shipped_gate_catches_changed_artifacts(tmp_path):
    configs = tmp_path / "configs"
    configs.mkdir()
    for name in ("cost_table.json", "measure_bond.json"):
        shutil.copy(os.path.join(ROOT, "configs", name), configs / name)
    wl = workloads.ShippedConfigs(0, str(tmp_path / "work"), str(configs))
    first = wl.run_pass()
    wl.gate(first, first)
    assert [r.failures for r in first.requests] == [[], []]
    assert first.artifact_bytes > 0
    again = wl.run_pass()
    again.outputs[0]["digests"] = {"x": "0"}
    wl.gate(again, first)
    assert again.requests[0].failures and not again.requests[1].failures


def test_subcommand_for_every_shipped_config():
    for path in sorted(os.listdir(os.path.join(ROOT, "configs"))):
        with open(os.path.join(ROOT, "configs", path)) as handle:
            assert workloads.subcommand_for(json.load(handle)) in \
                workloads.SUBCOMMANDS


# -- tracer ----------------------------------------------------------------

def test_tracer_restores_every_binding():
    import mergosim.cli
    import mergosim.evolution
    import mergosim.tree

    before = (mergosim.evolution.propagate, mergosim.tree.propagate,
              mergosim.cli.propagate, np.linalg.eigh,
              mergosim.evolution.DensityMatrix.__post_init__)
    t = tracer.Tracer()
    patches = t.install()
    assert mergosim.tree.propagate is not before[1]
    assert mergosim.cli.propagate is mergosim.evolution.propagate
    patches.undo()
    after = (mergosim.evolution.propagate, mergosim.tree.propagate,
             mergosim.cli.propagate, np.linalg.eigh,
             mergosim.evolution.DensityMatrix.__post_init__)
    assert after == before


def _traced_pass(wl):
    t = tracer.Tracer()
    patches = t.install()
    root = t.open("bench.pass")
    try:
        result = wl.run_pass(t)
    finally:
        t.close(root)
        patches.undo()
    return t, root, result


def test_traced_pass_self_times_close_on_the_root(tmp_path):
    configs = tmp_path / "configs"
    configs.mkdir()
    for name in ("tree_synthetic.json", "measure_bond.json"):
        shutil.copy(os.path.join(ROOT, "configs", name), configs / name)
    wl = workloads.ShippedConfigs(0, str(tmp_path / "work"), str(configs))
    t, root, result = _traced_pass(wl)
    assert all(r.failures == [] for r in result.requests)
    layers = tracer.layer_metrics(t.spans, t.counters, 0)
    total = layers["trace.layer_self_sum_s"] + layers["trace.unattributed_s"]
    assert total == pytest.approx(root[tracer.END] - root[tracer.START],
                                  rel=1e-9)
    assert layers["tree.repetitions"] > 0
    assert layers["cli.runs"] == 2
    assert {r[tracer.REQUEST] for r in t.spans} >= {0, 1}


def test_eigensolver_time_is_not_the_callers_self_time(tmp_path):
    # evolve's eigenstate start calls eigh from cli, outside evolution
    wl = workloads.EvolveMerge(2, str(tmp_path), m=9, n_steps=4)
    wl.prepare()
    t, root, result = _traced_pass(wl)
    assert result.requests[0].failures == []
    layers = tracer.layer_metrics(t.spans, t.counters, 0)
    in_cli = [r for r in t.spans if r[tracer.NAME].startswith("linalg.")
              and r[tracer.PARENT][tracer.NAME].startswith("cli.")]
    assert in_cli and in_cli[0][tracer.WORK] == 81 ** 3

    def duration(rec):
        return rec[tracer.END] - rec[tracer.START]

    cli_spans = [r for r in t.spans if r[tracer.NAME].startswith("cli.")]
    for rec in cli_spans:
        assert rec[tracer.CHILD_S] == pytest.approx(sum(
            duration(c) for c in t.spans if c[tracer.PARENT] is rec))
    assert layers["cli.self_s"] == pytest.approx(
        sum(duration(r) - r[tracer.CHILD_S] for r in cli_spans))
    assert layers["evolution.eigh_s"] >= sum(duration(r) for r in in_cli)
    # the steps' eigh calls and the eigenstate start, all counted
    assert layers["evolution.eigh_calls"] >= 4 + 1
    assert layers["evolution.eigh_n3_sum"] == \
        layers["evolution.eigh_calls"] * 81 ** 3


def test_tracer_counts_configurations_checked(tmp_path):
    wl = workloads.ValidateMeasure(1, str(tmp_path), m=3)
    wl.prepare()
    t = tracer.Tracer()
    patches = t.install()
    try:
        wl.run_pass(t)
    finally:
        patches.undo()
    layers = tracer.layer_metrics(t.spans, t.counters, 0)
    assert layers["criteria.configs_checked"] == 3 ** 4
    assert layers["criteria.criterion_evals"] > 3 ** 4
    assert layers["weakmeas.measurements"] == 1
    assert layers["cli.runs"] == 2


# -- statistics, compare, ladder -------------------------------------------

def test_tail_level_keeps_ten_samples_beyond():
    assert summary.tail_level(20) == 0.5
    assert summary.tail_level(100) == pytest.approx(0.9)
    assert summary.quantile([1.0, 2.0, 3.0], 0.5) == 2.0
    assert summary.quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_request_p50_is_the_median_of_per_request_medians():
    fast = [workloads.Request(0.010 + 1e-4 * i, 1) for i in range(3)]
    slow = [workloads.Request(0.030 + 1e-4 * i, 1) for i in range(3)]
    passes = [workloads.PassResult(0.1, [f, s]) for f, s in zip(fast, slow)]
    p50, tail, level, kinds, samples = summary.request_latencies(passes)
    assert (kinds, samples, level) == (2, 6, 0.5)
    assert p50 == pytest.approx((0.0101 + 0.0301) / 2)
    assert tail == pytest.approx(statistics.median(
        [r.latency_s for r in fast + slow]))
    for p in passes:
        p.scale = 2.0
    assert summary.request_latencies(passes)[0] == pytest.approx(2 * p50)


def test_host_scale_is_nominal_over_the_reference_times():
    import run

    assert summary.reference_task() > 0
    nominal = summary.REFERENCE_S
    assert run.host_scale(nominal, nominal) == pytest.approx(1.0)
    assert run.host_scale(1.5 * nominal, 2.5 * nominal) == pytest.approx(0.5)


def test_compare_verdicts():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98]
    slower = [x * 1.3 for x in steady]
    noisy = [0.5, 1.5, 1.0, 0.7, 1.4, 1.0]
    assert compare.verdict(steady, steady, 0.1, "lower")[1] == "within bound"
    assert compare.verdict(steady, slower, 0.1, "lower")[1] == "worse"
    assert compare.verdict(steady, slower, 0.1, "higher")[1] == "within bound"
    assert compare.verdict(steady, noisy, 0.1, "lower")[1] == "unresolved"


def test_ladder_skips_over_budget_and_never_drops_a_row():
    clock = [0.0]
    cost = {"cheap": lambda n: 1e-4 * n, "cubic": lambda n: 1e-9 * n ** 3}

    def runner(name, m, ctx):
        def call():
            clock[0] += cost[name](m * m)
        return call

    entries = (ladder.Entry("cheap", 1.0, 0), ladder.Entry("cubic", 3.0, 0))
    rows = ladder.run_ladder(budget_s=5.0, entries=entries,
                             timer=lambda: clock[0], runner=runner)
    assert len(rows) == len(entries) * len(ladder.SIZES)
    cubic = [r for r in rows if r["entry"] == "cubic"]
    assert [r["status"] for r in cubic][:3] == ["ok", "ok", "ok"]
    assert all(r["status"].startswith("skipped: over budget")
               for r in cubic[3:])
    assert all(r["status"] == "ok" for r in rows if r["entry"] == "cheap")


def test_ladder_memory_budget_is_recorded():
    rows = ladder.run_ladder(
        budget_s=5.0, memory_budget_mb=2.0, sizes=(9, 21),
        entries=(ladder.Entry("big", 1.0, 10),),
        timer=lambda: 0.0, runner=lambda name, m, ctx: (lambda: None))
    assert [r["status"] for r in rows] == [
        "ok", "skipped: over budget (memory)"]
