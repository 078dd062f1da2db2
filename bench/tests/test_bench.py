"""Self-tests of the benchmark itself (not of qlocc).

    python3 -m pytest bench/tests -q

They run bench/run.py in subprocesses with short budgets (one pass per
run), so the whole file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import qlocc  # noqa: E402
import qlocc.cli  # noqa: E402,F401
import run  # noqa: E402
from speed import REF_KERNEL_S, SpeedProbe  # noqa: E402
from workloads import ReplayCerts, UpbOracle, job_rng, random_product_basis  # noqa: E402


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- generators ---------------------------------------------------------------


def test_product_basis_is_orthonormal_and_seeded():
    a = random_product_basis((2, 2, 3), job_rng(7, 3, 0))
    b = random_product_basis((2, 2, 3), job_rng(7, 3, 0))
    c = random_product_basis((2, 2, 3), job_rng(8, 3, 0))
    vecs = np.array([np.kron(np.kron(*v[:2]), v[2]) for v in a])
    assert vecs.shape == (12, 12)
    assert np.allclose(vecs.conj() @ vecs.T, np.eye(12), atol=1e-12)
    assert all(np.array_equal(x, y) for u, v in zip(a, b) for x, y in zip(u, v))
    assert not all(np.allclose(x, y) for u, v in zip(a, c) for x, y in zip(u, v))


def _upb_inputs(seed):
    w = UpbOracle()
    w.setup(qlocc, seed, None)
    return [(qlocc.serialize_qset(s), unext, oseed) for s, unext, oseed in w.inputs]


def test_upb_generator_is_deterministic_per_seed():
    first = _upb_inputs(3)
    assert first == _upb_inputs(3)
    assert first != _upb_inputs(4)
    assert sum(unext for _, unext, _ in first) == UpbOracle.N_UPB


def _replay_files(seed, workdir):
    ReplayCerts().setup(qlocc, seed, workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    shutil.rmtree(workdir)
    return files


def test_replay_generator_is_deterministic_per_seed():
    work = BENCH / ".work" / "selftest-generator"
    first = _replay_files(5, work)
    assert len(first) == 2 * sum(ReplayCerts.FRAMES.values())
    assert first == _replay_files(5, work)
    other = _replay_files(6, work)
    assert first.keys() == other.keys() and all(first[k] != other[k] for k in first)


# -- speed probe ---------------------------------------------------------------


def test_speed_probe_leaves_its_own_time_out():
    with SpeedProbe() as probe:
        t0, c0 = perf_counter(), probe.clock()
        while perf_counter() - t0 < 0.5:
            sum(range(1000))
        wall, own = perf_counter() - t0, probe.clock() - c0
    assert len(probe.samples) >= 10
    assert own == pytest.approx(wall - probe.spent, abs=1e-4)
    mean = sum(probe.samples) / len(probe.samples)
    assert probe.scale(0) == pytest.approx(REF_KERNEL_S / mean)
    # a job with no samples around it gets the pass's scale
    last = probe.starts[-1]
    k, jobs = probe.pass_scales(0, [(probe.starts[0], probe.starts[1]), (last + 1.0, last + 2.0)])
    assert k == probe.scale(0) and jobs[1] == k and jobs[0] > 0


# -- traced runs ------------------------------------------------------------


@pytest.mark.parametrize("workload", ["replay-certs", "profile-s4"])
def test_traced_counts_repeat(workload):
    runs = [last_json(run_bench("--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", "1")) for _ in range(2)]
    for res in runs:
        assert res["correct"] and res["failed"] == 0
    counts = [{k: m["value"] for k, m in res["metrics"].items() if m["unit"] == "count"} for res in runs]
    assert counts[0] == counts[1]
    assert all(v is not None for v in counts[0].values())
    assert counts[0]["protocol.apply_outcome.calls"] > 0
    if workload == "replay-certs":  # one set-up span per qset file written
        assert counts[0]["qset.serialize_qset.calls"] == sum(ReplayCerts.FRAMES.values())


def test_tampered_certificate_counts_as_failure():
    work = BENCH / ".work" / "selftest-tamper"
    w = ReplayCerts()
    w.setup(qlocc, 1, work)
    try:
        # job 000 replays s3_discrimination; perturb one Kraus entry of its tree
        tree_path = work / "job000.json"
        tree = json.loads(tree_path.read_text())
        tree["outcomes"][0]["kraus"][0][0][0] += 1e-3
        tree_path.write_text(json.dumps(tree))
        with SpeedProbe() as probe:
            _, _, latencies, failures, _ = run.run_pass(w.jobs, probe)
    finally:
        shutil.rmtree(work)
    assert len(latencies) == sum(ReplayCerts.FRAMES.values())
    assert len(failures) == 1
    assert failures[0].startswith("s3_discrimination-0:")


def test_refuses_to_run_without_sources():
    bare = BENCH / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("--workload", "profile-s4", "--seed", "1", "--seconds", "1", cwd=bare, script=bare / "bench" / "run.py")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
