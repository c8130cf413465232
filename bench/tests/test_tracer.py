"""Tests of the benchmark's tracer and of traced/untraced agreement.

Run from the checkout root: python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402


def _originals():
    import fullgroups.cli  # noqa: F401  (loads every module that holds an alias)

    out = {}
    for name, (modname, path) in tracing.BOUNDARIES.items():
        for _, _, raw in tracing._resolve(modname, path):
            out.setdefault(name, []).append(getattr(raw, "__func__", raw))
    return out


def test_every_alias_is_wrapped_and_restored():
    import fullgroups
    from fullgroups import acceptance, canon, cli, clopen, group, lef, sampling, towers

    originals = _originals()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        for name, fns in originals.items():
            for module in tracing._package_modules():
                for alias, value in vars(module).items():
                    assert not any(value is fn for fn in fns), (
                        f"{module.__name__}.{alias} still calls the unwrapped {name}"
                    )
        compose = group.compose
        assert compose.__wrapped__ is originals["group.compose"][0]
        for module in (canon, lef, sampling, acceptance, cli, fullgroups):
            assert module.compose is compose
        assert towers._build is group._build is canon._build
        for module in (clopen, group, towers):
            assert module.language is fullgroups.systems.language
        assert group._expand_words is clopen._expand_words
        assert clopen.ClopenSet._canonical.__wrapped__ is originals["clopen.canonical"][0]
    finally:
        tracer.uninstall()
    assert group.compose is originals["group.compose"][0]
    assert canon.compose is originals["group.compose"][0]
    assert vars(clopen.ClopenSet)["_canonical"].__func__ is originals["clopen.canonical"][0]


def test_renamed_boundaries_are_absent_not_zero(monkeypatch, tmp_path):
    from fullgroups import canon, clopen, towers

    monkeypatch.delattr(clopen, "_shrink")
    monkeypatch.delattr(canon, "_level_data")
    monkeypatch.delattr(towers.TowerSequence, "_build_next")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["clopen.shrink", "towers.build_next", "canon.level_data"]
    path = tmp_path / "spans.json"
    tracer.dump(str(path))
    totals = tracing.Totals()
    totals.add(tracing.load(str(path)))
    metrics = totals.metrics(1)
    gone = [k for k in metrics if k.startswith(("clopen.shrink.", "towers.build_next.",
                                                "canon.level_"))]
    assert gone == []
    assert "canon.factorize.cache_hit_ratio" not in metrics
    assert metrics["group.compose.calls"] == 0


def test_traced_factor_ops_match_untraced(tmp_path):
    ops = [[0, [0, 2, 4]], [1, [4, 4, 2, 3]], [1, [0, 1, 2]], [0, [2, 3, 2, 3]]]
    plain = run.worker_trial("factor-odometer", ops, False, None, tmp_path)
    traced = run.worker_trial("factor-odometer", ops, False, tmp_path / "spans.json", tmp_path)
    assert plain.failed == traced.failed == 0
    assert plain.digest == traced.digest  # element hashes, levels and indices
    totals = tracing.Totals()
    totals.add(traced.spans[0])
    metrics = totals.metrics(1)
    assert metrics["towers.build_next.calls"] == 0
    assert metrics["canon.factorize.calls"] >= len(ops)


def test_traced_cli_session_prints_the_same(tmp_path):
    plain = run.cli_trial(random.Random(5), False, None, tmp_path)
    traced = run.cli_trial(random.Random(5), False, tmp_path / "spans", tmp_path)
    assert plain.failed == traced.failed == 0
    assert plain.digest == traced.digest
    assert len(traced.spans) == len(traced.digest)
    assert all(0 < s < seconds for s, seconds in zip(traced.startup_s, traced.lat_s))


def test_towers_subshift_time_goes_to_shrink(tmp_path):
    traced = run.worker_trial("towers-subshift", [], False, tmp_path / "spans.json", tmp_path)
    assert traced.failed == 0
    totals = tracing.Totals()
    totals.add(traced.spans[0])
    metrics = totals.metrics(1)
    self_times = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    assert max(self_times, key=self_times.get) == "clopen.shrink.self_s"
    assert metrics["group.compose.calls"] == 0


def test_command_without_report_gets_no_stale_figures(tmp_path):
    (tmp_path / "io.txt").write_text("1 2 3\n")  # left by an earlier command
    ws = tmp_path / "ws"
    ws.mkdir()
    spans = tmp_path / "missing" / "spans.json"  # dump fails, so no report
    _, code, _, io, doc = run.cli_command(tmp_path, ws, ["element", "order", "x"], spans)
    assert code != 0
    assert io is None and doc is None
