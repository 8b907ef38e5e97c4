"""The benchmark harness at toy sizes: it must keep emitting what
``BENCHMARK.json`` declares, leave the program unpatched after tracing, and
tolerate trace targets that later changes delete.  Measures nothing."""

from __future__ import annotations

import argparse
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_e2e_bench", HERE / "bench.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


bench = _load_bench()
if str(bench.SRC) not in sys.path:
    sys.path.insert(0, str(bench.SRC))
workloads = bench.sibling("workloads")
tracing = bench.sibling("trace")
DECLARED = bench.declaration()


def test_declaration_stays_within_the_contract():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in DECLARED[key]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])  # the contract's cap
    own = {name for metrics in bench.WORKLOAD_METRICS.values() for name in metrics}
    assert own <= {m["name"] for m in DECLARED["per_layer"]}
    assert set(bench.WORKLOAD_METRICS) <= set(workloads.RUNNERS)
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS) == list(workloads.RUNNERS)
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]] == [
        (name, unit, better) for name, unit, better, _derive, _moves in tracing.LAYER_METRICS
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_traced_run_emits_every_declared_metric(workload, tmp_path):
    from repro.nn.model import SplitCNN

    train_batch = SplitCNN.__dict__["train_batch"]
    ctx = workloads.Context(
        seed=42, seconds=0.0, trace=True, quick=True, workdir=tmp_path,
        src=bench.SRC, tracing=tracing,
    )  # fmt: skip
    outcome = workloads.RUNNERS[workload](ctx)
    args = argparse.Namespace(workload=workload, seed=42, trace=1, quick=True)
    doc = bench.document(args, DECLARED, bench.fingerprint(42), outcome, workloads, tracing, 0.0)

    assert doc["correct"], doc["checks"]
    assert doc["failed_share"] == 0.0
    reported = bench.end_to_end_metrics(DECLARED, workload)
    assert list(doc["end_to_end"]) == [metric["name"] for metric in reported]
    for metric in reported:
        entry = doc["end_to_end"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
        assert doc["per_layer"].get(metric["name"], entry)["value"] == entry["value"]
    assert {n: e["unit"] for n, e in doc["per_layer"].items()} == {
        m["name"]: m["unit"] for m in DECLARED["per_layer"]
    }
    # Tracing is over: the program is unpatched again.
    assert SplitCNN.__dict__["train_batch"] is train_batch
    assert tracing.installed_wrappers() == []
    assert outcome.missing_targets == []
    if workload != "serve_checkin":  # its spans come from several threads
        stats = tracing.summarise(outcome.spans)
        root = stats.pop(workloads.ROOT_SPAN)
        assert sum(s.self_s for s in stats.values()) <= root.busy_s
        assert 0.0 <= doc["per_layer"]["trace.unattributed_share"]["value"] < 0.5


def test_missing_trace_target_is_listed_not_raised():
    gone = (
        tracing.Target("nn.gone", "repro.nn.model", "SplitCNN.no_such_method"),
        tracing.Target("gone.module", "repro.no_such_module", "anything"),
    )
    tracer = tracing.Tracer()
    tracer.install(gone)
    try:
        assert tracer.missing == ["repro.nn.model:SplitCNN.no_such_method", "repro.no_such_module:anything"]
        assert not tracer.installed
    finally:
        tracer.uninstall()


def test_self_time_is_span_minus_children():
    spans = [(2, "child", 1.0, 3.0, 1, 5.0), (3, "child", 2.0, 2.5, 2, 1.0), (1, "root", 0.0, 10.0, 0, 1.0)]
    stats = tracing.summarise(spans)
    assert stats["root"].self_s == 8.0
    assert stats["child"].calls == 2 and stats["child"].work == 6.0
    assert stats["child"].busy_s == 2.0  # the nested call is inside the outer one
    assert stats["child"].self_s == 2.0  # 1.5 of the outer plus 0.5 of the inner


def _result(path: Path, run_wall_s: float, failed_share: float = 0.0) -> str:
    entry = lambda value, unit: {"value": value, "unit": unit}  # noqa: E731
    doc = {
        "workload": "paper_hetero",
        "failed_share": failed_share,
        "end_to_end": {
            "setup_s": entry(0.07, "s"),
            "run_wall_s": entry(run_wall_s, "s"),
            "peak_rss_mb": entry(330.0, "MB"),
        },
    }
    path.write_text(json.dumps(doc))
    return str(path)


def test_compare_flags_only_what_exceeds_the_bound(tmp_path, capsys):
    bound = next(m["bound"] for m in DECLARED["end_to_end"] if m["name"] == "run_wall_s")
    base = _result(tmp_path / "a.json", 2.0)
    assert bench.main(["compare", base, _result(tmp_path / "b.json", 2.0 * (1 + bound / 2))]) == 0
    assert "worse" not in capsys.readouterr().out.replace("0 worse", "")
    assert bench.main(["compare", base, _result(tmp_path / "c.json", 2.0 * (1 + 1.1 * bound))]) == 1
    assert "worse" in capsys.readouterr().out
    assert bench.main(["compare", base, _result(tmp_path / "d.json", 2.0 * (1 - 1.1 * bound))]) == 0
    assert "better" in capsys.readouterr().out
    assert bench.main(["compare", base, _result(tmp_path / "e.json", 2.0, failed_share=0.01)]) == 1
