"""The command's contract: metric names, pins, and refusal without a program."""

import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys

import run
from report import PER_LAYER
from repro.core.api import Enclave

BENCH = pathlib.Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_exactly_what_the_command_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in SPEC["end_to_end"])


def _result(**outputs):
    return {"workload": "serve", "seed": 5, "ops": 40, "outputs": outputs}


def test_pins_hold_mismatch_or_do_not_apply():
    pins = [{"workload": "serve", "seed": 5, "ops": 40,
             "outputs": {"report_sha256": "abc", "requests_served": 9}}]
    assert run.check_pins(_result(report_sha256="abc", requests_served=9),
                          pins)[0]
    ok, text = run.check_pins(_result(report_sha256="abd", requests_served=9),
                              pins)
    assert not ok and "report_sha256" in text
    other = dict(_result(report_sha256="zzz"), seed=6)
    assert run.check_pins(other, pins) == (
        True, "not pinned for this seed and op count")


def test_a_wrong_pin_fails_the_command(tmp_path, monkeypatch, capsys):
    ops = run.ops_for("control_plane", 0.05)
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps([{
        "workload": "control_plane", "seed": run.DEFAULT_SEED, "ops": ops,
        "outputs": {"requests_served": 1}}]))
    monkeypatch.setattr(run, "PINS_PATH", pins)
    code = run.main(["--workload", "control_plane", "--seconds", "0.05"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False
    assert last["failed"] == 0  # every op ran; the pin is what failed


def test_every_op_failing_still_prints_the_result_line(monkeypatch, capsys):
    import workloads

    # Every load of the window reads back zeros; set-up only stores.
    monkeypatch.setattr(Enclave, "read",
                        lambda self, vaddr, length: bytes(length))

    def measure_here(workload, seed, ops, traced, deadline):
        return dataclasses.asdict(
            workloads.WORKLOADS[workload](seed, ops, lambda op: None))

    monkeypatch.setattr(run, "measure", measure_here)
    code = run.main(["--workload", "enclave_io", "--seconds", "0.05"])
    out = capsys.readouterr().out
    last = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] == run.ops_for("enclave_io",
                                                              0.05)
    assert "failed_share 1 fraction" in out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"),
         "--workload", "serve", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
