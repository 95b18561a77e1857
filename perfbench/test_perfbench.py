"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import os
import time

import checks
import tracing
import worker


def _span(name, start, end, parent, info=None):
    return (name, start, end, parent, "c0", info)


def test_self_time_on_synthetic_tree():
    cert = {"iterations": 4, "stalled": False}
    spans = [
        _span("cli.main", 0.0, 10.0, -1),                       # 0
        _span("pipeline.factorize_channel", 1.0, 9.0, 0),       # 1
        _span("starcalc.idempotentize", 1.5, 4.5, 1),           # 2
        _span("cbnorm.cb_norm", 2.0, 4.0, 2, cert),             # 3
        _span("cbnorm._barrier_solve", 2.5, 3.5, 3,
              {"d_in": 2, "d_out": 2, "newtons": 4}),           # 4
        _span("numlin.kron", 5.0, 5.5, 1),                      # 5
        _span("numlin.kron", 6.0, 6.25, 1),                     # 6
    ]
    assert tracing.self_times(spans) == [2.0, 4.25, 1.0, 1.0, 1.0, 0.5, 0.25]
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == 2.0
    assert m["layer.cbnorm.self_s"] == 2.0
    assert m["cbnorm.s"] == 2.0
    assert m["cbnorm.s.idempotentize"] == 2.0
    assert m["cbnorm.barrier_calls.idempotentize"] == 1
    assert m["cbnorm.newton_steps"] == 4
    assert m["cbnorm.barrier_s"] == 1.0
    assert m["cbnorm.s_per_newton"] == 0.25
    assert m["cbnorm.kkt_unknowns_max"] == 2 * 4 + 2 * 16
    assert m["starcalc.idempotentize.self_s"] == 1.0
    assert m["numlin.kron.calls"] == 2 and m["numlin.kron.s"] == 0.75
    layers = [f"layer.{layer}.self_s" for layer in tracing.LAYERS if layer != "cli"]
    assert m["cli.self_s"] + sum(m[name] for name in layers) == 10.0


def test_tracer_records_nesting_with_fake_clock():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer._wrapper("numlin.kron", lambda: None)
    outer = tracer._wrapper("cbnorm.cb_norm_free", lambda: inner())
    outer()
    assert tracer.spans == [
        ("cbnorm.cb_norm_free", 0.0, 3.0, -1, None, None),
        ("numlin.kron", 1.0, 2.0, 0, None, None),
    ]


def test_wrap_then_unwrap_restores_module_attributes():
    mods = worker.import_program()
    before = {name: dict(vars(mod)) for name, mod in mods.items()}
    tracer = tracing.Tracer()
    tracer.wrap(mods)
    try:
        assert mods["cbnorm"].cb_norm is not before["cbnorm"]["cb_norm"]
        # a from-import shares the wrapper of the defining module
        assert mods["factorization"].pauli_diagonal is mods["reconstruction"].pauli_diagonal
        assert mods["factorization"].pauli_diagonal is not before["reconstruction"]["pauli_diagonal"]
    finally:
        tracer.unwrap()
    for name, mod in mods.items():
        after = vars(mod)
        assert after.keys() == before[name].keys()
        assert all(after[k] is before[name][k] for k in after), name


def test_tampered_choi_entry_raises_fail_ratio(tmp_path):
    cli = worker.import_program()["cli"]
    chan = {"id": "c0", "path": str(tmp_path / "c0.json"), "pipeline_seed": 0,
            "perturbed": False, "block_dims": [2, 1]}
    assert cli.main(["gen", "--pinching", "2,1", "--seed", "0", "--out", chan["path"]]) == 0
    good = worker.run_channel(cli, chan, str(tmp_path), worker.Speedometer())
    assert good["failures"] == []
    assert checks.fail_ratio([good]) == 0

    report_path = tmp_path / "c0.report.json"
    report = json.loads(report_path.read_text())
    report["factorization"]["delta_choi"][0][0][0] += 1e-3
    report_path.write_text(json.dumps(report))
    rc = cli.main(["verify", str(report_path)])
    bad = {"failures": checks.check_channel(report, 0, rc, [2, 1], perturbed=False)}
    assert rc != 0 and bad["failures"]
    assert checks.fail_ratio([good, bad]) == 0.5


def test_end_to_end_takes_channel_medians_over_passes():
    import run

    def rec(tag, fact, ver):
        return {"channel": tag, "factorize_cal": fact, "verify_cal": ver}

    records = [
        rec("p0.c0", 20.0, 10.0), rec("p0.c1", 10.0, 5.0),
        rec("p1.c0", 40.0, 20.0), rec("p1.c1", 11.0, 6.0),
        rec("p2.c0", 30.0, 10.0), rec("p2.c1", 9.0, 5.0),
    ]
    m = run.end_to_end([0.3, 0.1, 0.2], {"records": records, "peak_rss_mb": 80.0})
    assert m["setup_s"] == 0.2 and m["peak_rss_mb"] == 80.0
    assert m["factorize_cal"] == 30.0 + 10.0
    assert m["factorize_max_cal"] == 30.0 and m["factorize_p50_cal"] == 20.0
    assert m["verify_cal"] == 10.0 + 5.0


def test_speedometer_takes_its_ticks_out_of_the_step():
    speedo = worker.Speedometer(period=0.01)

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    result, net, cal = speedo.run(busy, 0.3)
    assert result == "done"
    ticks = speedo.ticks
    assert len(ticks) >= 10
    # the loop ends on the clock, so the ticks it absorbed come out of it
    assert abs(net + sum(ticks[:-1]) - 0.3) < 0.05
    assert cal == net / (sum(ticks) / len(ticks))
    assert speedo.run(busy, 0.0)[2] >= 0.0
