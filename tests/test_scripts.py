"""Smoke tests: every script in scripts/ runs on a small problem and writes
its header and rows."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("ansatz", ["first", "second", "plus"])
def test_bethe_root_atlas(ansatz):
    out = run_script("bethe_root_atlas.py", "--n", "6", "--max-dim", "4", "--ansatz", ansatz)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "K,L,ell,t,residual,u_spread,roots"
    assert len(lines) > 1


def test_concentration_sweep():
    out = run_script("concentration_sweep.py", "--n", "6")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("parity,K,L,")
    assert len(lines) > 1


def test_bethe_completeness(tmp_path):
    out_file = tmp_path / "grid.jsonl"
    out = run_script("bethe_completeness.py", "--max-n", "6", "--out", str(out_file))
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("instances ")
    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert records and all(set(r) >= {"n", "K", "L", "ansatz", "rank"} for r in records)
    solved = [r for r in records if "error" not in r]
    assert solved and all(r["missing"] == [] for r in solved)
    assert all(1 <= r["rank"] <= 7 for r in records)


def test_cli_digest(tmp_path):
    out_file = tmp_path / "digests.jsonl"
    out = run_script("cli_digest.py", "--max-n", "4", "--out", str(out_file))
    assert out.returncode == 0, out.stderr
    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert out.stdout == f"invocations {len(records)}\n"
    commands = {r["argv"][0] for r in records}
    assert commands == {"build", "spectrum", "verify", "reconstruct"}
    assert any("--sweep" in r["argv"] for r in records)
    assert all("--out" not in r["argv"] for r in records)
    written = [r for r in records if r["exit"] == 0]
    assert written and all(len(r["sha256"]) == 64 for r in written)
    again = tmp_path / "again.jsonl"
    assert run_script("cli_digest.py", "--max-n", "4", "--out", str(again)).returncode == 0
    assert again.read_bytes() == out_file.read_bytes()


def test_cli_digest_fixture(tmp_path):
    # tests/cli_digest_n8.jsonl holds the digests of every CLI output on the
    # n <= 8 grid; a change that moves output bytes regenerates it with
    #   python scripts/cli_digest.py --max-n 8 --out tests/cli_digest_n8.jsonl
    # and lists the moved fields in CHANGES.md
    fixture = ROOT / "tests" / "cli_digest_n8.jsonl"
    out_file = tmp_path / "digests.jsonl"
    out = run_script("cli_digest.py", "--max-n", "8", "--out", str(out_file))
    assert out.returncode == 0, out.stderr
    want, got = fixture.read_text().splitlines(), out_file.read_text().splitlines()
    moved = [f"{w}\n  now {g}" for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) == 2148
    assert not moved, f"{len(moved)} invocations moved, first:\n" + "\n".join(moved[:5])



def test_bench_record_pairs_alternate(tmp_path, monkeypatch):
    # the benchmark runs themselves are replaced by a stub that counts the
    # calls; the base checkout is an empty directory
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    sides = {str(tmp_path): "base", str(ROOT): "change"}
    order, traced, caches = [], [], []

    def fake_run(root, workload, seed, seconds, trace=0, pycache=None):
        # every run gets a bytecode cache of its own, empty and outside both
        # checkouts, so no stale __pycache__ can reach the measured import
        assert pycache and (not os.path.exists(pycache) or not os.listdir(pycache))
        assert not pycache.startswith((str(tmp_path), str(ROOT)))
        caches.append(pycache)
        if trace:
            traced.append(sides[root])
            return {"metrics": {"bethe.solve_bethe.self_s": {"value": len(traced), "unit": "s"}}}
        order.append(sides[root])
        speed = {"base": 10.0, "change": 12.0}[sides[root]] + order.count(sides[root])
        metrics = {"setup_s": 0.04, "ops_per_s": speed, "op_p50_s": 1.0 / speed,
                   "peak_rss_mb": 70.0}
        return {"correct": True, "attempted": 7, "failed": int(sides[root] == "base"),
                "metrics": {name: {"value": v, "unit": ""} for name, v in metrics.items()}}

    monkeypatch.setattr(bench_record, "run_once", fake_run)
    out = tmp_path / "bench.json"
    bench_record.main(["--base", str(tmp_path), "--change", str(ROOT), "--workloads",
                       "recon-large", "--pairs", "3", "--out", str(out)])
    assert order == ["base", "change", "change", "base", "base", "change"]
    assert traced == ["base", "change"]
    assert len(set(caches)) == len(caches) == 8
    doc = json.loads(out.read_text())
    assert set(doc["environment"]) == {"cores", "machine", "python", "numpy", "mpmath"}
    entry = doc["workloads"]["recon-large"]
    assert entry["base"]["failed"] == 3 and entry["change"]["failed"] == 0
    assert entry["change"]["metrics"]["ops_per_s"] == \
        {"median": 14.0, "q1": 13.5, "q3": 14.5, "runs": [13.0, 14.0, 15.0]}
    assert entry["change_better_in_pairs"] == \
        {"setup_s": 0, "ops_per_s": 3, "op_p50_s": 3, "peak_rss_mb": 0}
    # base ops_per_s runs 11, 12, 13: median 12, quartiles 11.5 and 12.5
    assert entry["verdict"]["ops_per_s"] == \
        {"median_diff": 2.0, "base_iqr": 1.0, "gain_shown": True, "within_bound": True}
    assert entry["verdict"]["setup_s"] == \
        {"median_diff": 0.0, "base_iqr": 0.0, "gain_shown": False, "within_bound": True}
    assert entry["verdict"]["op_p50_s"]["gain_shown"] and entry["verdict"]["op_p50_s"]["within_bound"]
    # a median 30 % below the base's, against a bound of 25 %
    assert bench_record.verdict({"better": "higher", "bound": 0.25},
                                {"median": 10.0, "q1": 9.0, "q3": 11.0}, {"median": 7.0}, 0, 3) == \
        {"median_diff": -3.0, "base_iqr": 2.0, "gain_shown": False, "within_bound": False}
    assert entry["traced"] == {"base": {"bethe.solve_bethe.self_s": 1},
                               "change": {"bethe.solve_bethe.self_s": 2}}
