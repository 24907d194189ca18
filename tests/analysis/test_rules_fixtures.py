"""Per-rule fixture tests: the bad tree fires, the good twin is silent.

Every rule gets the same treatment — run it alone (``only=``) over the
miniature ``repro`` package in ``fixtures/teeNNN_bad`` and assert the
exact finding keys, then over ``fixtures/teeNNN_good`` and assert
silence. Keys (not messages) are the contract: they feed the baseline
fingerprints.
"""

from __future__ import annotations

from repro.analysis.findings import Severity


def keys(result):
    return {f.key for f in result.findings}


def by_key(result):
    return {f.key: f for f in result.findings}


def live_or_baselined(result, rule):
    """One rule's findings in a full-catalogue run, baselined ones too."""
    return [f for f in result.findings + result.baselined if f.rule == rule]


# -- TEE001 boundary ---------------------------------------------------------

def test_tee001_bad_fires_direct_and_transitive(lint_fixture):
    result = lint_fixture("tee001_bad", "TEE001")
    assert keys(result) == {
        "repro.cs.sched->repro.ems.runtime",
        "repro.ems.pool->repro.cs.sched",
        "repro.attacks.evil->repro.ems.runtime",
        "transitive:repro.cs.top->repro.common.mid~>repro.ems.runtime",
    }
    assert all(f.severity is Severity.ERROR for f in result.findings)
    transitive = by_key(result)[
        "transitive:repro.cs.top->repro.common.mid~>repro.ems.runtime"]
    # The full chain is spelled out so the first shared link is obvious.
    assert "repro.common.mid" in transitive.message


def test_tee001_direct_findings_point_at_the_import_line(lint_fixture):
    result = lint_fixture("tee001_bad", "TEE001")
    direct = by_key(result)["repro.cs.sched->repro.ems.runtime"]
    assert direct.path == "repro/cs/sched.py"
    assert direct.line == 1


def test_tee001_good_is_silent(lint_fixture):
    result = lint_fixture("tee001_good", "TEE001")
    assert result.findings == []
    # The mediator really is in the tree (core imports both sides).
    assert result.modules_scanned >= 10


# -- TEE002 determinism ------------------------------------------------------

def test_tee002_bad_fires_on_every_entropy_leak(lint_fixture):
    result = lint_fixture("tee002_bad", "TEE002")
    assert keys(result) == {
        "import:random",
        "from:random.randint",
        "call:random.random",
        "call:time.time",
        "call:datetime.datetime.now",
        "call:os.urandom",
        "call:random.Random()",
    }
    severities = {f.key: f.severity for f in result.findings}
    assert severities["import:random"] is Severity.WARNING
    assert severities["call:time.time"] is Severity.ERROR
    assert severities["call:random.Random()"] is Severity.ERROR


def test_tee002_good_rng_provider_is_exempt(lint_fixture):
    result = lint_fixture("tee002_good", "TEE002")
    assert result.findings == []


# -- TEE003 cycle accounting -------------------------------------------------

def test_tee003_bad_fires_on_stray_literals_and_dead_truth(lint_fixture):
    result = lint_fixture("tee003_bad", "TEE003")
    assert keys(result) == {
        "literal:STALL_CYCLES=123",
        "literal:COSTS_CYCLES=9",
        "literal:flush_cycles=42",
        "literal:warmup_cycles=10",
        "dead:DEAD_CYCLES",
    }
    found = by_key(result)
    assert found["dead:DEAD_CYCLES"].severity is Severity.WARNING
    assert found["dead:DEAD_CYCLES"].path == "repro/eval/calibration.py"
    assert found["literal:STALL_CYCLES=123"].severity is Severity.ERROR


def test_tee003_good_named_costs_are_silent(lint_fixture):
    result = lint_fixture("tee003_good", "TEE003")
    # 2 * STALL_CYCLES, zero initialisers, and constant references
    # are all structure, not duplicated truth.
    assert result.findings == []


# -- TEE004 secret flow ------------------------------------------------------

def test_tee004_bad_fires_on_every_sink_class(lint_fixture):
    result = lint_fixture("tee004_bad", "TEE004")
    assert keys(result) == {
        "flow:report->metric label",
        "flow:trace->trace span arg",
        "flow:log_it->log call (info)",
        "flow:banner->f-string",
        "flow:wire->packet field (PrimitiveRequest)",
    }
    assert all(f.severity is Severity.ERROR for f in result.findings)


def test_tee004_good_digests_and_crypto_use_are_silent(lint_fixture):
    # Hash digests of keys, len() of keys, and passing a key to the
    # crypto provider are all legitimate; only raw material at an
    # observable sink fires.
    result = lint_fixture("tee004_good", "TEE004")
    assert result.findings == []


# -- TEE005 registry consistency ---------------------------------------------

def test_tee005_bad_fires_on_typo_dead_point_and_dup_metric(lint_fixture):
    result = lint_fixture("tee005_bad", "TEE005")
    assert keys(result) == {
        "unknown-point:mailbox.dorp",
        "dead-point:ems.stall",
        "dup-metric:hypertee_demo_total",
    }
    found = by_key(result)
    assert found["unknown-point:mailbox.dorp"].severity is Severity.ERROR
    assert found["dead-point:ems.stall"].severity is Severity.WARNING
    assert found["dead-point:ems.stall"].path == "repro/faults/plan.py"
    # The duplicate points back at the first declaration site.
    assert "repro/obs/a.py" in found["dup-metric:hypertee_demo_total"].message


def test_tee005_good_consulted_points_and_unique_metrics(lint_fixture):
    result = lint_fixture("tee005_good", "TEE005")
    assert result.findings == []


# -- TEE004 interprocedural --------------------------------------------------

def test_tee004_interproc_bad_crosses_two_calls_and_a_method(lint_fixture):
    # Source in Vault.material() (a method), secret returned through a
    # summary, sink reached two calls away inside emit().
    result = lint_fixture("tee004_interproc_bad", "TEE004")
    assert keys(result) == {"flow:announce->emit~>log call (info)"}
    finding = by_key(result)["flow:announce->emit~>log call (info)"]
    assert finding.severity is Severity.ERROR
    assert finding.path == "repro/flow.py"
    assert "emit" in finding.message


def test_tee004_interproc_good_sanitized_twin_is_silent(lint_fixture):
    result = lint_fixture("tee004_interproc_good", "TEE004")
    assert result.findings == []


# -- TEE004 flight-recorder sinks --------------------------------------------

def test_tee004_flightrec_bad_fires_on_black_box_sinks(lint_fixture):
    # The flight-recorder ring lands verbatim in crash-dump artifacts,
    # so record_event() and anything called on a flightrec receiver are
    # observable sinks for key material.
    result = lint_fixture("tee004_flightrec_bad", "TEE004")
    assert keys(result) == {
        "flow:crash_dump->flight recorder event",
        "flow:stash->flight recorder event",
        "flow:note->flight recorder (push)",
    }
    assert all(f.severity is Severity.ERROR for f in result.findings)


def test_tee004_flightrec_good_digested_twin_is_silent(lint_fixture):
    result = lint_fixture("tee004_flightrec_good", "TEE004")
    assert result.findings == []


# -- TEE004 teesan report sinks ----------------------------------------------

def test_tee004_sanitize_bad_fires_on_teesan_report_sinks(lint_fixture):
    # teesan diagnostics are printed, written to CI artifacts, and
    # embedded in exception text — the reporting APIs are sinks, so key
    # material must be redacted before it reaches a violation message.
    result = lint_fixture("tee004_sanitize_bad", "TEE004")
    assert keys(result) == {
        "flow:diagnose->teesan report (report_violation)",
        "flow:render->teesan report (format_violation)",
        "flow:summarize->teesan report (format_summary)",
    }
    assert all(f.severity is Severity.ERROR for f in result.findings)


def test_tee004_sanitize_good_redacted_twin_is_silent(lint_fixture):
    result = lint_fixture("tee004_sanitize_good", "TEE004")
    assert result.findings == []


# -- TEE006 lifecycle typestate ----------------------------------------------

def test_tee006_bad_fires_on_every_protocol_violation(lint_fixture):
    result = lint_fixture("tee006_bad", "TEE006")
    assert keys(result) == {
        "typestate:use_without_enter:e.write():measured",
        "typestate:double_destroy:e.destroy():destroyed",
        "typestate:resume_before_exit:e.resume():running",
        "typestate:reenter:e.running():running",
        "left-running:leak:e",
    }
    found = by_key(result)
    assert found["left-running:leak:e"].severity is Severity.WARNING
    assert found["typestate:double_destroy:e.destroy():destroyed"] \
        .severity is Severity.ERROR


def test_tee006_good_ordered_branches_and_handoffs_are_silent(lint_fixture):
    # Straight-line use, `with e.running():`, suspend/resume, branch
    # joins, escaping receivers, and unknown provenance: all silent.
    result = lint_fixture("tee006_good", "TEE006")
    assert result.findings == []


def test_tee006_real_sdk_lifecycle_is_clean():
    # The real CS SDK and the CLI's instrumented scenario launch/enter/
    # destroy in protocol order — the rule must agree with the runtime
    # machine.
    from repro.analysis import run_lint
    from .conftest import REPO_ROOT
    src = REPO_ROOT / "src" / "repro"
    result = run_lint([src / "cs" / "sdk.py", src / "obs" / "cli.py"],
                      only=("TEE006",))
    assert result.findings == []


# -- TEE007 exception safety -------------------------------------------------

def test_tee007_bad_fires_on_swallowed_signals_and_missing_status(
        lint_fixture):
    result = lint_fixture("tee007_bad", "TEE007")
    assert keys(result) == {
        "swallow:swallow_timeout:EMCallTimeout",
        "swallow:swallow_all:Exception",
        "swallow:bare:bare except",
        "missing-status:no_status",
    }
    assert all(f.severity is Severity.ERROR for f in result.findings)


def test_tee007_good_typed_outcomes_are_exempt(lint_fixture):
    # Narrow handlers, re-raises, DegradedResult construction, and
    # status-carrying/splatted PrimitiveResponse calls: all silent.
    result = lint_fixture("tee007_good", "TEE007")
    assert result.findings == []


def test_tee007_real_ems_crash_handler_is_exempt():
    # ems/runtime.py catches Exception on the dispatch path but turns
    # it into a typed PrimitiveResponse — exactly the idiom the rule
    # must not flag.
    from repro.analysis import run_lint
    from .conftest import REPO_ROOT
    runtime = REPO_ROOT / "src" / "repro" / "ems" / "runtime.py"
    result = run_lint([runtime], only=("TEE007",))
    assert result.findings == []


# -- TEE008 secret-dependent timing ------------------------------------------

def test_tee008_bad_fires_on_asymmetric_cost_arms(lint_fixture):
    result = lint_fixture("tee008_bad", "TEE008")
    functions = sorted(k.split(":")[1] for k in keys(result))
    assert functions == ["accumulate", "charge"]
    for finding in result.findings:
        assert finding.severity is Severity.ERROR
        assert finding.key.startswith("timing:")
        assert "asymmetric" in finding.message


def test_tee008_good_equal_sanitized_and_public_branches(lint_fixture):
    result = lint_fixture("tee008_good", "TEE008")
    assert result.findings == []


def test_tee008_real_model_charges_uniformly(src_lint):
    # The real model's cycle accounting never branches on key material:
    # the defense the paper claims is the one the code implements.
    assert live_or_baselined(src_lint, "TEE008") == []


# -- TEE012 fault coverage ----------------------------------------------------

def test_tee012_bad_fires_on_unfired_and_untested_points(lint_fixture):
    result = lint_fixture("tee012_bad", "TEE012")
    assert keys(result) == {
        "unfired-point:disk.ghost",
        "untested-point:ems.stall",
        "untested-point:disk.ghost",
    }
    assert all(f.severity is Severity.ERROR for f in result.findings)
    # Both findings anchor at the catalogue declaration line.
    assert all(f.path == "repro/faults/plan.py" for f in result.findings)


def test_tee012_good_covered_catalogue_is_silent(lint_fixture):
    result = lint_fixture("tee012_good", "TEE012")
    assert result.findings == []


def test_tee012_missing_corpus_is_a_warning(tmp_path):
    # A plan with no tests/ ancestor within reach: coverage cannot be
    # verified, which is a WARNING, never silence.
    import shutil

    from repro.analysis import run_lint
    from .conftest import FIXTURES
    deep = tmp_path / "a" / "b" / "c" / "d"
    shutil.copytree(FIXTURES / "tee012_good" / "repro", deep / "repro")
    result = run_lint([deep / "repro"], only=("TEE012",))
    assert keys(result) == {"no-chaos-corpus"}
    finding = result.findings[0]
    assert finding.severity is Severity.WARNING


def test_tee012_real_catalogue_is_fully_covered(src_lint):
    # Every shipped FAULT_POINTS entry is consulted somewhere in src
    # and named by at least one chaos test.
    assert live_or_baselined(src_lint, "TEE012") == []
