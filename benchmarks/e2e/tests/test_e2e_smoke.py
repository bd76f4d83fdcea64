import json
import shutil
import subprocess
import sys
import time

import spec

RUN = [sys.executable, str(spec.HERE / "run.py")]


def test_smoke_emits_every_metric_of_the_contract_within_40s(tmp_path):
    out = tmp_path / "smoke.json"
    t0 = time.perf_counter()
    done = subprocess.run(RUN + ["--smoke", "--out", str(out)], capture_output=True,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 40
    contract = spec.load_contract()
    report = json.loads(out.read_text())
    assert sorted(report["workloads"]) == sorted(spec.workload_names(contract))
    for name, workload in report["workloads"].items():
        assert workload["ops_failed"] == 0, (name, workload["failures"])
        assert set(workload["e2e"]) == {m["name"] for m in contract["end_to_end"]}
        assert set(workload["layers"]) == {m["name"] for m in contract["per_layer"]}
        assert all(m["value"] != 0 for m in workload["e2e"].values()), name
    # no server, store or scratch directory outlives the run
    assert not [p for p in spec.OUT.iterdir() if p.is_dir()]


def test_a_run_length_beyond_the_contracts_cap_is_refused():
    done = subprocess.run(RUN + ["--workload", "grid-table1", "--seconds", "30"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "lower --seconds, do not drop workloads" in done.stderr


def test_without_the_program_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(spec.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(spec.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "grid-table1",
         "--seed", "0", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "no program to measure" in done.stderr
    assert "metrics" not in done.stdout
