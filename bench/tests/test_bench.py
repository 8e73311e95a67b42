"""The benchmark's own tests, at a smoke size that runs in seconds:

    python3 -m pytest bench/tests
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import metrics
import run
import tracer
import workloads
from islt import calculus, search, semantics
from kripke import Sweeper

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    got = _run("--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", str(trace))
    assert got.returncode == 0, got.stderr
    lines = got.stdout.splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    specs = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(last["metrics"]) == [m.name for m in specs]
    printed = {f[0]: f[2] for f in (line.split() for line in lines if line.startswith("  ")) if len(f) >= 3}
    for m in specs:
        value = last["metrics"][m.name]
        assert value["unit"] == m.unit and printed[m.name] == m.unit
        assert isinstance(value["value"], (int, float))
    info = json.loads(next(line for line in lines if line.startswith("info "))[5:])
    for key in ("seed", "git_commit", "python", "nproc", "attempted"):
        assert key in info


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"] and doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in metrics.END_TO_END
    ]
    assert doc["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER]
    setup = next(m for m in metrics.END_TO_END if m.name == "setup_s")
    assert setup.bound == max(m.bound for m in metrics.END_TO_END)


def _workload(cls, tmp_path, seed=3):
    w = cls(seed, 0.2, tmp_path)
    w.setup()
    return w


def test_a_planted_wrong_verdict_is_reported(tmp_path, monkeypatch):
    w = _workload(workloads.ProveCorpus, tmp_path)
    assert w.op(0, workloads.Timer()).status == "ok"
    # the first goal is a README theorem
    monkeypatch.setattr(search, "prove", lambda s, **kw: search.Unprovable(1))
    out = w.op(0, workloads.Timer())
    assert out.status == "wrong" and "unprovable" in out.note

    result = run.run_workload("prove-corpus", 3, 0.01, trace=False)
    assert result["correct"] is False and result["failed"] >= 1


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 3])
def test_a_random_theorem_reported_unprovable_is_reported(tmp_path, monkeypatch, seed):
    w = _workload(workloads.ProveCorpus, tmp_path, seed)
    real = search.prove
    first = len(corpus.regression_goals())
    i = next(k for k in range(first, len(w.goals)) if isinstance(real(w.goals[k][0]), search.Proved))
    assert w.op(i, workloads.Timer()).status == "ok"
    # memoized search says unprovable; naive search is left intact
    monkeypatch.setattr(
        search, "prove", lambda s, naive=False, **kw: real(s, naive=True, **kw) if naive else search.Unprovable(1)
    )
    out = w.op(i, workloads.Timer())
    assert out.status == "wrong"
    assert ("not on the list" if seed == workloads.DEFAULT_SEED else "naive search proves it") in out.note


def test_the_list_covers_the_default_pool_of_a_run():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    w = workloads.ProveCorpus(workloads.DEFAULT_SEED, seconds, Path("."))
    w.setup()
    assert len(w.listed) > 0 and len(w.goals) <= w.listed_until


def test_a_proof_of_the_wrong_sequent_is_reported(tmp_path, monkeypatch):
    w = _workload(workloads.ProveCorpus, tmp_path)
    real = search.prove
    other = real(corpus.regression_goals()[1][0]).proof
    monkeypatch.setattr(search, "prove", lambda s, **kw: search.Proved(other))
    assert w.op(0, workloads.Timer()).status == "wrong"


def _corrupt(text: str) -> str:
    """The same certificate with one premise too many at the root."""
    obj = json.loads(text)
    obj["premises"].append(json.loads(text))
    return json.dumps(obj)


def test_a_corrupted_certificate_is_reported(tmp_path, monkeypatch):
    w = _workload(workloads.Certify, tmp_path)
    assert w.op(0, workloads.Timer()).status == "ok"
    real = calculus.dumps
    monkeypatch.setattr(calculus, "dumps", lambda d: _corrupt(real(d)))
    out = w.op(0, workloads.Timer())
    assert out.status == "wrong" and "round trip" in out.note


def test_a_corrupted_certificate_file_is_reported_by_the_cli_workload(tmp_path):
    w = _workload(workloads.Cli, tmp_path)
    i = next(k for k, c in enumerate(w.commands) if c.argv[0] == "check")
    assert w.op(i, workloads.Timer()).status == "ok"
    cert = Path(w.commands[i].argv[1])
    cert.write_text(_corrupt(cert.read_text()))
    out = w.op(i, workloads.Timer())
    assert out.status == "wrong" and "exit 1" in out.note


def test_a_command_that_fails_its_verdict_in_set_up_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(calculus, "check", lambda d: "planted rejection")
    w = _workload(workloads.Cli, tmp_path)
    i = next(k for k, c in enumerate(w.commands) if c.argv[0] == "check")
    out = w.op(i, workloads.Timer())
    assert out.status == "wrong" and "exit 1 in set-up" in out.note


def test_a_missed_countermodel_is_reported(tmp_path, monkeypatch):
    w = _workload(workloads.Semantics, tmp_path)
    i = workloads._SEMANTICS_PATTERN.index("refutable")
    assert w.op(i, workloads.Timer()).status == "ok"
    monkeypatch.setattr(semantics, "find_countermodel", lambda s, n: None)
    assert w.op(i, workloads.Timer()).status == "wrong"


def test_the_sweeper_covers_the_models_enumerate_models_yields():
    sweeper = Sweeper(3)
    for k in range(4):
        assert sweeper.model_count(k) == len(list(semantics.enumerate_models(3, corpus.VARS4[:k])))
    rng = random.Random(5)
    for _ in range(60):
        s = corpus.random_sequent(rng, 3, max_ant=2, variables=("p", "q"))
        mine = sweeper.countermodel(s)
        assert (mine is None) == (semantics.find_countermodel(s, 3) is None), s
        if mine is not None:
            assert workloads._refutes(mine[0], mine[1], s) is None


def test_the_generator_matches_the_suite_distribution_without_a_cap():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import genlib
    finally:
        sys.path.remove(str(ROOT / "tests"))
    a, b = random.Random(11), random.Random(11)
    for _ in range(200):
        assert corpus.random_sequent(a, 5, max_ant=4) == genlib.random_sequent(b, 5, max_ant=4)


def test_a_wrapped_name_that_is_gone_is_missing_not_zero(monkeypatch):
    monkeypatch.setitem(tracer.TARGETS, "bridge", ("islt.hilbert.no_such_function",))
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.missing == ["islt.hilbert.no_such_function"]
    values = metrics.per_layer(tr, 1, 0.0, 0.0, {}, None)
    assert values["hilbert.bridge_s"]["value"] is None
    assert values["hilbert.check_s"]["value"] == 0.0


def test_outside_a_checkout_it_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    got = _run("--workload", "prove-corpus", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert got.returncode != 0
    assert not any(line.startswith("{") for line in got.stdout.splitlines())
