"""The traced run must not change what the studies compute.

Runs every study once untraced and once traced on a small grid and
requires identical constants and CSV digests, checks that the tracer
restores every patched name, and that the metric names the benchmark
prints are the ones BENCHMARK.json declares.
"""

import json
import os

import harness
import run
from tracer import LAYERS, Tracer, self_times
from workloads import Workload

TINY = Workload(
    "tiny", ("coeffs", "dispersion", "green", "waves", "nsp-compare",
             "nonlinear"),
    {"n1": 6, "nr": 3, "nx": 64, "box_half_length": 50.0, "steps": 11,
     "times": "1,2,4", "t_end": 12.0, "dt": 0.1},
    needs_gamma=True)


def _sequence(tmp_path, tag):
    cache = str(tmp_path / f"cache-{tag}")
    os.makedirs(cache)
    harness.setup(TINY, cache)
    return harness.run_studies(TINY, cache, str(tmp_path / f"out-{tag}"))


def test_traced_run_matches_untraced(tmp_path, monkeypatch):
    monkeypatch.delenv("MVPB_CACHE", raising=False)
    plain = _sequence(tmp_path, "plain")
    import mvpb.cli
    import mvpb.nonlinear
    originals = (mvpb.nonlinear.apply_gamma, mvpb.cli.build_gamma)
    with Tracer() as tracer:
        traced = _sequence(tmp_path, "traced")
    assert (mvpb.nonlinear.apply_gamma, mvpb.cli.build_gamma) == originals

    for (study, _, code_a, man_a), (_, _, code_b, man_b) in zip(plain, traced):
        assert code_a == code_b == 0, study
        assert man_a["constants"] == man_b["constants"], study
        assert harness.digests(man_a) == harness.digests(man_b), study

    assert {s["name"] for s in tracer.spans} == set(LAYERS)
    own = self_times(tracer.spans)
    ids = {s["id"] for s in tracer.spans}
    for span in tracer.spans:
        assert span["parent"] is None or span["parent"] in ids
        assert span["end"] >= span["start"]
        assert own[span["id"]] >= -1e-9


def test_wrapper_passes_arguments_and_results_through():
    import mvpb.green
    seen = []

    def probe(*args, **kwargs):
        seen.append((args, kwargs))
        return seen

    layers = {"probe": ([("mvpb.green", "green_action")], None)}
    original = mvpb.green.green_action
    mvpb.green.green_action = probe
    try:
        with Tracer(layers) as tracer:
            marker = object()
            result = mvpb.green.green_action(marker, key=marker)
        assert result is seen
        assert seen == [((marker,), {"key": marker})]
        assert mvpb.green.green_action is probe
        assert [s["name"] for s in tracer.spans] == ["probe"]
    finally:
        mvpb.green.green_action = original


def test_metric_names_match_benchmark_json(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "WORK", str(tmp_path))
    res = harness.measure(TINY, 0, 0, True, str(tmp_path / "run"))
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = {k: unit for k, (_, unit) in run.per_layer(res).items()}
    assert printed == declared
    res["samples"]["setup_s"] = [1.0]
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    printed = {k: unit for k, (_, unit) in run.end_to_end(res).items()}
    assert printed == declared
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
