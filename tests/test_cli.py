"""Command-line orchestration: exit codes, manifests, determinism, report."""

import json
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mvpb
from mvpb.cli import main
from mvpb.config import SCHEMA, default_config
from mvpb.errors import AliasingWarning, MemoryBudget


@pytest.fixture(autouse=True)
def _cache_env(monkeypatch, cache_dir):
    monkeypatch.setenv("MVPB_CACHE", cache_dir)


def _load_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run_coeffs(out_dir):
    return main(["coeffs", "--out", str(out_dir),
                 "--set", "n1=16", "--set", "nr=8"])


def test_schema_prints(capsys):
    assert main(["schema"]) == 0
    text = capsys.readouterr().out
    for key in ("n1", "nx", "delta0", "out"):
        assert key in text


DELETED_KEYS = ("seed", "threads", "field_terms", "nonlinear_poisson")


@pytest.mark.parametrize("key", DELETED_KEYS)
def test_deleted_key_exit_2(tmp_path, capsys, key):
    out = tmp_path / "run"
    assert main(["coeffs", "--out", str(out), "--set", f"{key}=1",
                 "--set", "n1=8", "--set", "nr=4"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not os.path.exists(out / "manifest.json")


@pytest.mark.parametrize("flag", [["--threads", "2"], ["--seed", "1"]])
def test_deleted_flag_rejected(tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--out", str(tmp_path)] + flag)
    assert exc.value.code == 2


def test_schema_omits_deleted_keys(capsys):
    assert main(["schema"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    listed = {ln.split(" = ", 1)[0] for ln in lines}
    assert listed == set(SCHEMA)
    assert not listed & set(DELETED_KEYS)


def test_every_schema_key_is_read():
    # a key that no study reads is a silent no-op knob
    pkg = os.path.dirname(mvpb.__file__)
    text = ""
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py") and name != "config.py":
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                text += fh.read()
    unread = [key for key in SCHEMA if key not in ("study", "out")
              and not re.search(rf"\bcfg\.{key}\b", text)]
    assert unread == []


def test_malformed_set_exit_2(tmp_path):
    assert main(["coeffs", "--out", str(tmp_path), "--set", "n1"]) == 2
    assert not os.path.exists(tmp_path / "manifest.json")


def test_unknown_key_exit_2(tmp_path):
    assert main(["coeffs", "--out", str(tmp_path),
                 "--set", "bogus=3"]) == 2


def test_invalid_value_exit_2(tmp_path):
    assert main(["coeffs", "--out", str(tmp_path), "--set", "n1=-4"]) == 2


@pytest.mark.parametrize("study, settings, key", [
    ("coeffs", ["study=report"], "study"),
    ("coeffs", ["study=dispersion"], "study"),
    ("green", ["nx=255"], "nx"),
    ("nonlinear", ["nx=255"], "nx"),
    ("coeffs", ["vmax=5"], "vmax"),
    ("coeffs", ["n1=3", "nr=1"], "n1 * nr"),
    ("dispersion", ["n1=3", "nr=1"], "n1 * nr"),
    ("nonlinear", ["n1=2"], "n1"),
    # the bounds themselves are accepted
    ("coeffs", ["vmax=6"], None),
    ("coeffs", ["n1=4", "nr=1"], None),
    ("dispersion", ["n1=4", "nr=1"], None),
    ("dispersion", ["n1=3", "nr=2"], None),
    # one level is all top level, which the wave sum leaves out
    ("waves", ["levels=1"], "levels"),
    ("waves", ["levels=2"], None),
    # a t_end off the dt lattice ran on to t = 20.1; t_end < dt ended in
    # an empty fit window (exit 3)
    ("nonlinear", ["t_end=20", "dt=0.3"], "t_end / dt"),
    ("nonlinear", ["t_end=20", "dt=30"], "t_end / dt"),
])
def test_unrunnable_config_exit_2(tmp_path, capsys, study, settings, key):
    # each rejected input used to end in a traceback, a NaN field (exit 3)
    # or another study; the error now names the key
    out = tmp_path / "run"
    args = [study, "--out", str(out), "--set", "n1=4", "--set", "nr=2"]
    for item in settings:
        args += ["--set", item]
    rc = main(args)
    err = capsys.readouterr().err
    if key is None:
        assert rc == 0
        assert _load_manifest(out)["study"] == study
        return
    assert rc == 2
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err
    assert not os.path.exists(out / "manifest.json")


FLOAT_KEYS = [key for key, spec in SCHEMA.items() if spec[0] is float]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_exit_2(tmp_path, capsys, key, value):
    # vmax=inf used to end in a LinAlgError, eta_max=inf in a ValueError and
    # box_half_length=inf in a green run on NaN positions that exited 0
    out = tmp_path / "run"
    rc = main(["green", "--out", str(out), "--set", "n1=4", "--set", "nr=2",
               "--set", f"{key}={value}"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err
    assert not os.path.exists(out / "manifest.json")


@pytest.mark.parametrize("times", ["1,a", "-1,2", "1,,2", "nan", "1,inf"])
def test_bad_times_exit_2(tmp_path, capsys, times):
    out = tmp_path / "run"
    assert main(["green", "--out", str(out), "--set", f"times={times}"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not os.path.exists(out / "manifest.json")


@pytest.mark.parametrize("study", ["waves", "nsp-compare"])
def test_zero_times_exit_2(tmp_path, capsys, study):
    out = tmp_path / "run"
    rc = main([study, "--out", str(out), "--set", "times=0",
               "--set", "n1=8", "--set", "nr=4", "--set", "nx=64"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "needs at least one positive time" in err
    assert "Traceback" not in err
    assert not os.path.exists(out / "manifest.json")


@pytest.mark.parametrize("times", ["1.05", "1,2.01"])
def test_nsp_compare_off_step_times_exit_2(tmp_path, capsys, times):
    # dt = 0.1 does not land on these times; the fluid snapshot would be
    # taken at a different time than the kinetic one
    out = tmp_path / "run"
    rc = main(["nsp-compare", "--out", str(out), "--set", f"times={times}",
               "--set", "n1=8", "--set", "nr=4", "--set", "nx=64"])
    assert rc == 2
    assert "multiple of dt" in capsys.readouterr().err
    assert not os.path.exists(out / "manifest.json")


def _nsp_compare_rows(out, times):
    assert main(["nsp-compare", "--out", str(out), "--set", f"times={times}",
                 "--set", "n1=8", "--set", "nr=4", "--set", "nx=64"]) == 0
    with open(out / "nsp_compare.csv", encoding="utf-8") as fh:
        rows = [tuple(map(float, ln.split(",")))
                for ln in fh.read().splitlines()[1:]]
    return rows, _load_manifest(out)["constants"]["nsp_final_rel_error"]


@pytest.mark.parametrize("times", ["2,1", "1,1,2"])
def test_nsp_compare_rows_follow_times(tmp_path, times):
    ref, ref_final = _nsp_compare_rows(tmp_path / "ref", "1,2")
    rows, final = _nsp_compare_rows(tmp_path / "run", times)
    assert [t for t, _ in rows] == [float(t) for t in times.split(",")]
    errs = dict(ref)
    for t, err in rows:
        assert err == pytest.approx(errs[t], rel=1e-12)
    assert final == pytest.approx(ref_final, rel=1e-12)


@pytest.mark.parametrize("times", ["1", "2,2", "0,2,2"])
def test_waves_single_time_exit_3(tmp_path, times):
    # one distinct positive time cannot fix a decay slope
    out = tmp_path / "run"
    rc = main(["waves", "--out", str(out), "--set", f"times={times}",
               "--set", "n1=8", "--set", "nr=4", "--set", "nx=64"])
    assert rc == 3
    doc = _load_manifest(out)
    assert doc["partial"]
    assert "IllConditioned" in doc["error"]
    assert "wave_sum_log_slope" not in doc["constants"]


def test_waves_manifest_records_workers(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    out = tmp_path / "run"
    assert main(["waves", "--out", str(out), "--set", "times=1,2",
                 "--set", "n1=8", "--set", "nr=4", "--set", "nx=64"]) == 0
    timings = _load_manifest(out)["timings"]
    assert timings["eig_workers"] >= 1
    assert timings["blas_threads"] == 1


@pytest.mark.parametrize("study, extra", [
    ("green", ["--set", "times=1,2"]),
    ("nsp-compare", ["--set", "times=1,2", "--set", "dt=0.5"]),
    ("nonlinear", ["--set", "t_end=15", "--set", "collisions=0"]),
])
def test_propagator_manifests_record_workers(tmp_path, monkeypatch, study,
                                             extra):
    # the studies that propagate by mode blocks on eig_workers() threads
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    out = tmp_path / "run"
    assert main([study, "--out", str(out), "--set", "n1=8", "--set", "nr=4",
                 "--set", "nx=64"] + extra) == 0
    timings = _load_manifest(out)["timings"]
    assert timings["eig_workers"] >= 1
    assert timings["blas_threads"] == 1


def test_nonlinear_empty_fit_window_exit_3(tmp_path):
    # the decay fit uses t >= 10; at t_end = 10 the last sample sits at
    # t = 9.99999999999998, so the window is empty
    out = tmp_path / "run"
    rc = main(["nonlinear", "--out", str(out), "--set", "t_end=10",
               "--set", "n1=8", "--set", "nr=4", "--set", "nx=64",
               "--set", "collisions=0"])
    assert rc == 3
    doc = _load_manifest(out)
    assert doc["partial"]
    assert "IllConditioned" in doc["error"]
    assert "exponent_f" not in doc["constants"]


def test_nonlinear_manifest_gamma_cache_miss_then_hit(tmp_path, monkeypatch):
    # the Γ build time and cache status go into the manifest's timings,
    # not its constants
    monkeypatch.setenv("MVPB_CACHE", str(tmp_path / "cache"))
    seen = []
    for run in ("first", "second"):
        out = tmp_path / run
        rc = main(["nonlinear", "--out", str(out), "--set", "t_end=15",
                   "--set", "n1=4", "--set", "nr=2", "--set", "nx=64"])
        assert rc == 0
        doc = _load_manifest(out)
        assert "gamma_cache" not in doc["constants"]
        seen.append(doc["timings"])
    assert seen[0]["gamma_cache"] == "miss"
    assert seen[0]["gamma_build_s"] > 0
    assert seen[0]["gamma_apply_workers"] == 1
    assert set(seen[1]) == {"gamma_build_s", "gamma_cache",
                            "gamma_apply_workers", "eig_workers",
                            "blas_threads", "peak_rss_mb"}
    assert seen[1]["gamma_build_s"] == 0.0
    assert seen[1]["gamma_cache"] == "hit"
    assert seen[1]["gamma_apply_workers"] == 1
    assert all(t["peak_rss_mb"] > 0 for t in seen)


def test_green_manifest_lists_its_warning(tmp_path):
    # a coarse box leaves spectral energy at the Nyquist mode; the
    # warning goes into the manifest and still reaches the caller once
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["green", "--out", str(out), "--set", "n1=8",
                   "--set", "nr=4", "--set", "nx=64",
                   "--set", "box_half_length=20", "--set", "times=0.5,1"])
    assert rc == 0
    doc = _load_manifest(out)
    assert [w["category"] for w in doc["warnings"]] == ["AliasingWarning"]
    assert doc["warnings"][0]["message"].startswith("Nyquist mode carries")
    assert [w.category for w in caught] == [AliasingWarning]
    assert str(caught[0].message) == doc["warnings"][0]["message"]
    assert doc["timings"]["peak_rss_mb"] > 0


def test_coeffs_manifest_lists_no_warnings(tmp_path):
    out = tmp_path / "run"
    assert _run_coeffs(out) == 0
    assert _load_manifest(out)["warnings"] == []


@given(st.lists(st.floats(min_value=0.0, allow_nan=False,
                          allow_infinity=False), min_size=1))
def test_times_round_trip(ts):
    cfg = default_config(times=",".join(repr(t) for t in ts))
    assert cfg.sample_times() == ts


def test_memory_budget_exit_3(tmp_path, monkeypatch):
    def over_budget(*args, **kwargs):
        raise MemoryBudget("gamma tensor over the cap")

    monkeypatch.setattr("mvpb.cli.build_gamma", over_budget)
    out = tmp_path / "run"
    rc = main(["nonlinear", "--out", str(out),
               "--set", "n1=8", "--set", "nr=4", "--set", "nx=64"])
    assert rc == 3
    doc = _load_manifest(out)
    assert doc["partial"]
    assert "MemoryBudget" in doc["error"]


def test_coeffs_study(tmp_path):
    out = tmp_path / "run"
    assert _run_coeffs(out) == 0
    doc = _load_manifest(out)
    assert doc["study"] == "coeffs"
    assert not doc["partial"]
    c = doc["constants"]
    assert c["a_plus"] > 0 and c["kappa1"] > 0 and c["kappa2"] > 0
    assert c["a_shear"] == c["kappa1"]
    assert c["mu_hat"] > 0
    listed = [os.path.basename(p) for p in
              (f["path"] if isinstance(f, dict) else f
               for f in doc["files"])]
    assert "basis_nodes.csv" in listed
    assert (out / "basis_nodes.csv").exists()


def test_outputs_all_listed(tmp_path):
    out = tmp_path / "run"
    assert _run_coeffs(out) == 0
    doc = _load_manifest(out)
    listed = {os.path.basename(f["path"] if isinstance(f, dict) else f)
              for f in doc["files"]}
    on_disk = {p for p in os.listdir(out) if p != "manifest.json"}
    assert on_disk == listed


def test_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run_coeffs(a) == 0
    assert _run_coeffs(b) == 0
    with open(a / "basis_nodes.csv", "rb") as fa, \
            open(b / "basis_nodes.csv", "rb") as fb:
        assert fa.read() == fb.read()
    ca = _load_manifest(a)["constants"]
    cb = _load_manifest(b)["constants"]
    assert ca == cb


def test_dispersion_coarse_steps_exit_3(tmp_path):
    out = tmp_path / "run"
    rc = main(["dispersion", "--out", str(out),
               "--set", "n1=16", "--set", "nr=8", "--set", "steps=8"])
    assert rc == 3
    doc = _load_manifest(out)
    assert doc["partial"]
    assert "BranchSwap" in doc["error"]


@pytest.fixture(scope="module")
def study_outputs(tmp_path_factory):
    # shared coeffs + dispersion runs feeding the report tests; the
    # autouse env fixture is function-scoped, so set the cache here too
    import tempfile
    cache = os.environ.get(
        "MVPB_CACHE", os.path.join(tempfile.gettempdir(), "mvpb-cache"))
    os.environ["MVPB_CACHE"] = cache
    root = tmp_path_factory.mktemp("studies")
    co, di = root / "coeffs", root / "dispersion"
    assert _run_coeffs(co) == 0
    assert main(["dispersion", "--out", str(di),
                 "--set", "n1=16", "--set", "nr=8"]) == 0
    return co, di


def test_dispersion_constants(study_outputs):
    _, di = study_outputs
    doc = _load_manifest(di)
    c = doc["constants"]
    assert abs(abs(c["beta_1"]) - np.sqrt(8.0 / 3.0)) <= 2e-3
    assert c["a_1"] > 0 and c["a_0"] > 0
    assert (di / "branches.csv").exists()
    assert doc["timings"]["eig_workers"] >= 1
    assert "blas_threads" in doc["timings"]


def test_report_partial_inputs(study_outputs, tmp_path, capsys):
    co, di = study_outputs
    rc = main(["report", str(co / "manifest.json"),
               str(di / "manifest.json"), "--out", str(tmp_path)])
    text = capsys.readouterr().out
    assert rc == 0
    assert (tmp_path / "acceptance_report.csv").exists()
    rows = [ln.split(",") for ln in text.strip().splitlines()[1:]]
    status = {r[0]: r[1] for r in rows}
    assert status["shear damping a_2 = kappa1 +- 1e-4"] == "pass"
    assert status["sound speed |beta_+1| = sqrt(8/3) +- 2e-3"] == "pass"
    # studies that were not run are flagged rather than silently passed
    assert any(s == "MissingStudy" for s in status.values())
    assert all(s != "FAIL" for s in status.values())


@pytest.mark.parametrize("key, value, criterion", [
    ("beta_1", 1.0, "sound speed |beta_+1| = sqrt(8/3) +- 2e-3"),
    ("a_1", -0.1, "acoustic damping a_+1 > 0"),
    ("a_2", 0.2, "shear damping a_2 = kappa1 +- 1e-4"),
], ids=["beta_1", "a_1", "a_2"])
def test_report_perturbed_fails(study_outputs, tmp_path, capsys, key, value,
                                criterion):
    co, di = study_outputs
    doc = _load_manifest(di)
    doc["constants"][key] = value             # negative control
    bad = tmp_path / "manifest.json"
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    rc = main(["report", str(co / "manifest.json"), str(bad),
               "--out", str(tmp_path)])
    text = capsys.readouterr().out
    assert rc == 3
    rows = [ln.split(",") for ln in text.strip().splitlines()[1:]]
    assert {r[0]: r[1] for r in rows}[criterion] == "FAIL"


def test_report_missing_file_exit_2(tmp_path):
    assert main(["report", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2
