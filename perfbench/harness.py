"""One benchmark run of one workload, in a fresh process.

Started by ``run.py``; it can also be run by hand:

    python3 perfbench/harness.py --workload green --seed 1 --seconds 30 \
        --trace 0 --result result.json

The BLAS thread variables are pinned to 1 before numpy is imported.  The
run makes its own empty ``MVPB_CACHE`` under the work directory, fills it
cold (timed as set-up), then repeats the workload's studies through
``mvpb.cli.main`` against the warm cache, checking every output.  With
``--trace 1`` it makes one traced pass (cold set-up plus studies) and
times untraced study sequences for the tracing overhead.  The result is a
JSON file of raw samples; ``run.py`` turns it into metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
REFERENCE = os.path.join(HERE, "reference.json")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# manifest constants must match the recorded reference to this tolerance
RTOL = 1e-6
ATOL = 1e-9
MIN_REPS = 3
# set-up repeats at least MIN_REPS times, then while another fits this time
SETUP_SECONDS = 4.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# report rows that do not gate a workload: at the reduced nonlinear grid the
# decay exponent sits outside the paper's band, as it does in the test suite
REFERENCE_ONLY_STUDIES = ("nonlinear",)


def import_mvpb():
    import mvpb
    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(mvpb.__file__), src]) != src:
        raise ImportError(f"mvpb imported from {mvpb.__file__}, not {src}")
    from mvpb import cli, collision, config, nonlinear, velocity
    return cli, collision, config, nonlinear, velocity


def setup(wl, cache_dir):
    """Cold fill of an empty cache through the public constructors."""
    _, collision, config, nonlinear, velocity = import_mvpb()
    cfg = config.default_config(**{k: str(v) for k, v in wl.settings.items()})
    b0, b1 = velocity.basis_pair(cfg.n1, cfg.nr, cfg.vmax)
    collision.CollisionOperator(b0, nphi=cfg.nphi, cache_dir=cache_dir)
    collision.CollisionOperator(b1, nphi=cfg.nphi, cache_dir=cache_dir)
    if wl.needs_gamma:
        nonlinear.build_gamma(b0, cache_dir=cache_dir)


def run_studies(wl, cache_dir, out_dir):
    """Run each study once; returns [(study, seconds, exit code, manifest)]."""
    cli = import_mvpb()[0]
    os.environ["MVPB_CACHE"] = cache_dir
    shutil.rmtree(out_dir, ignore_errors=True)
    done = []
    for study in wl.studies:
        out = os.path.join(out_dir, study)
        t0 = time.perf_counter()
        code = cli.main([study, "--out", out] + wl.set_args())
        seconds = time.perf_counter() - t0
        try:
            with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
                manifest = json.load(fh)
        except OSError:
            manifest = None
        done.append((study, seconds, code, manifest))
    return done


def _close(a, b):
    return abs(a - b) <= ATOL + RTOL * abs(b)


def check_study(study, code, manifest, reference):
    """Problems with one study invocation; an empty list means it passed."""
    if code != 0:
        return [f"{study}: exit code {code}"]
    if manifest is None:
        return [f"{study}: no manifest"]
    if manifest["partial"]:
        return [f"{study}: partial manifest ({manifest['error']})"]
    problems = []
    if study not in REFERENCE_ONLY_STUDIES:
        from mvpb.cli import report_rows
        for name, status, measured, expected in report_rows([manifest]):
            if status == "FAIL":
                problems.append(f"{study}: {name}: {measured} vs {expected}")
    ref = reference.get("constants")
    if ref is None:
        return problems + [f"{study}: no reference recorded"]
    got = manifest["constants"]
    if sorted(got) != sorted(ref):
        return problems + [f"{study}: constants {sorted(got)} != {sorted(ref)}"]
    for key, want in ref.items():
        have = got[key]
        if isinstance(want, list):
            ok = (isinstance(have, list) and len(have) == len(want)
                  and all(_close(a, b) for a, b in zip(have, want)))
        else:
            ok = not isinstance(have, list) and _close(have, want)
        if not ok:
            problems.append(f"{study}: {key} = {have}, reference {want}")
    return problems


def digests(manifest):
    return {f["path"]: f["sha256"] for f in manifest["files"]}


class Tally:
    """Attempted and failed study invocations, with the first problems."""

    def __init__(self, wl, reference):
        self.reference = reference.get(wl.name, {})
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests_match = {}

    def add(self, done):
        for study, _, code, manifest in done:
            ref = self.reference.get(study, {})
            problems = check_study(study, code, manifest, ref)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems = (self.problems + problems)[:10]
            elif "digests" in ref:
                match = digests(manifest) == ref["digests"]
                self.digests_match[study] = (
                    self.digests_match.get(study, True) and match)


def sequence(wl, cache_dir, out_dir, tally, samples):
    gc.collect()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    done = run_studies(wl, cache_dir, out_dir)
    wall = time.perf_counter() - t0
    samples["wall_s"].append(wall)
    samples["cpu_s"].append(time.process_time() - cpu0)
    for study, seconds, _, _ in done:
        samples["study_s"].setdefault(study, []).append(seconds)
    tally.add(done)


def openblas_version():
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return str(deps["blas"]["version"])
    except (KeyError, TypeError, ValueError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(wl, seed, trace):
    import numpy as np
    import scipy
    return {
        "workload": wl.name,
        "seed": seed,
        "seed_note": "recorded only: the workloads have no random input",
        "trace": trace,
        "settings": dict(wl.settings),
        "studies": list(wl.studies),
        "cache_state": {"setup": "cold (fresh empty MVPB_CACHE)",
                        "studies": "warm (cache filled by set-up)"},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_version(),
        "cpu_model": cpu_model(),
    }


def load_reference():
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def another_fits(done, min_reps, t_start, budget):
    """Repeat at least ``min_reps`` times, then only while one more
    repetition, as long as the last, ends within ``budget`` seconds."""
    if len(done) < min_reps:
        return True
    return time.perf_counter() - t_start + done[-1] <= budget


def new_samples():
    return {"setup_s": [], "wall_s": [], "cpu_s": [], "study_s": {}}


def cold_setups(wl, run_dir, samples):
    """Repeated cold set-ups, each into a new empty cache; returns the last."""
    cache = None
    t_start = time.perf_counter()
    while another_fits(samples["setup_s"], MIN_REPS, t_start, SETUP_SECONDS):
        if cache is not None:
            shutil.rmtree(cache)
        cache = os.path.join(run_dir, f"cache-{len(samples['setup_s'])}")
        os.makedirs(cache)
        gc.collect()
        t0 = time.perf_counter()
        setup(wl, cache)
        samples["setup_s"].append(time.perf_counter() - t0)
    return cache


def traced_pass(wl, seed, run_dir, tally, result):
    """Cold set-up plus one study sequence with every layer traced."""
    from mvpb.errors import AliasingWarning
    from tracer import Tracer, summarize
    cache = os.path.join(run_dir, "cache-traced")
    os.makedirs(cache)
    run_id = f"{wl.name}-seed{seed}"
    traced = new_samples()
    with Tracer() as tracer, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.run_id = run_id + "-setup"
        setup(wl, cache)
        tracer.run_id = run_id + "-warm"
        sequence(wl, cache, os.path.join(run_dir, "out"), tally, traced)
    spans_path = os.path.join(WORK, f"spans-{wl.name}-seed{seed}.jsonl")
    tracer.write(spans_path)
    result.update({
        "traced": traced,
        "aliasing_warnings": sum(issubclass(w.category, AliasingWarning)
                                 for w in caught),
        "layers": {"all": summarize(tracer.spans),
                   "warm": summarize(tracer.spans, run_id + "-warm")},
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
    })
    return cache


def measure(wl, seed, seconds, trace, run_dir):
    """All samples of one run.  ``run_dir`` is removed by the caller."""
    tally = Tally(wl, load_reference())
    samples = new_samples()
    result = {"samples": samples}
    if trace:
        cache = traced_pass(wl, seed, run_dir, tally, result)
    else:
        cache = cold_setups(wl, run_dir, samples)
    t_start = time.perf_counter()
    while another_fits(samples["wall_s"], 1 if trace else MIN_REPS, t_start,
                       seconds):
        sequence(wl, cache, os.path.join(run_dir, "out"), tally, samples)
    result.update({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "digests_match": tally.digests_match,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "record": run_record(wl, seed, trace),
    })
    return result


def write_reference(names):
    """Record constants and CSV digests of one sequence per workload."""
    reference = load_reference()
    for name in names:
        wl = WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=WORK) as run_dir:
            cache = os.path.join(run_dir, "cache")
            setup(wl, cache)
            done = run_studies(wl, cache, os.path.join(run_dir, "out"))
        entry = {}
        for study, _, code, manifest in done:
            if code != 0 or manifest["partial"]:
                raise SystemExit(f"{name}/{study} failed; no reference")
            entry[study] = {"constants": manifest["constants"],
                            "digests": digests(manifest)}
        reference[name] = entry
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def pin_blas_threads():
    """One BLAS thread; only effective before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS pin")
    for var in BLAS_VARS:
        os.environ[var] = "1"


def main(argv=None):
    pin_blas_threads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result")
    ap.add_argument("--write-reference", action="store_true",
                    help="record constants and digests for these workloads")
    args = ap.parse_args(argv)
    names = args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; known: {sorted(WORKLOADS)}")
    os.makedirs(WORK, exist_ok=True)
    if args.write_reference:
        write_reference(names)
        return 0
    if len(names) != 1 or not args.result:
        ap.error("a measured run takes one workload and --result")
    run_dir = tempfile.mkdtemp(prefix=f"{names[0]}-", dir=WORK)
    try:
        result = measure(WORKLOADS[names[0]], args.seed, args.seconds,
                         bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
