"""Tests for the determinism lint (``repro.devtools.detlint``).

Every rule D001–D006 is exercised with one *firing* fixture (the hazard
the rule exists to catch) and one *clean* fixture (the nearest legitimate
idiom, which must not fire) — so a rule that silently stops firing and a
rule that starts over-firing both break this suite.  The final class is
the self-check: the repository's own sim-domain tree and scripts must
lint clean, which is what makes the lint a regression gate rather than
an advisory tool.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.detlint.engine import Finding, lint_paths, lint_source
from repro.devtools.detlint.frontend import (
    DEFAULT_LINT_PATHS,
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    main as detlint_main,
)
from repro.devtools.detlint.policy import DEFAULT_POLICY, PathPolicy, PolicyEntry
from repro.devtools.detlint.report import render_human, render_json
from repro.devtools.detlint.rules import RULES, SUPPRESSIBLE_RULE_IDS

REPO_ROOT = Path(__file__).resolve().parents[2]

STRICT = PathPolicy(entries=())


def rules_fired(source: str, path: str = "src/repro/fixture.py") -> list:
    """Rule ids of unsuppressed findings for ``source`` under no waivers."""
    return [f.rule for f in lint_source(source, path, STRICT) if not f.suppressed]


# ---------------------------------------------------------------------------
# Rule catalogue sanity
# ---------------------------------------------------------------------------


class TestRuleCatalogue:
    def test_all_rules_documented(self):
        assert set(RULES) == {"D000", "D001", "D002", "D003", "D004", "D005", "D006"}
        for rule in RULES.values():
            assert rule.title
            assert rule.rationale

    def test_d000_is_not_suppressible(self):
        assert "D000" not in SUPPRESSIBLE_RULE_IDS
        assert SUPPRESSIBLE_RULE_IDS == frozenset(
            {"D001", "D002", "D003", "D004", "D005", "D006"}
        )


# ---------------------------------------------------------------------------
# D001 — wall-clock reads
# ---------------------------------------------------------------------------


class TestD001WallClock:
    def test_fires_on_time_module_reads(self):
        src = (
            "import time\n"
            "def stamp():\n"
            "    return time.time() + time.perf_counter()\n"
        )
        assert rules_fired(src) == ["D001", "D001"]

    def test_fires_on_datetime_now_and_aliased_import(self):
        src = (
            "from datetime import datetime as dt\n"
            "def stamp():\n"
            "    return dt.now()\n"
        )
        assert rules_fired(src) == ["D001"]

    def test_clean_on_virtual_clock(self):
        src = (
            "def stamp(clock):\n"
            "    return clock.now()\n"
        )
        assert rules_fired(src) == []

    def test_clean_on_unrelated_time_attribute(self):
        # A local object that merely *has* a ``time`` attribute is fine.
        src = (
            "def f(report):\n"
            "    return report.time\n"
        )
        assert rules_fired(src) == []


# ---------------------------------------------------------------------------
# D002 — ambient randomness
# ---------------------------------------------------------------------------


class TestD002AmbientRandomness:
    def test_fires_on_module_level_random_draw(self):
        src = (
            "import random\n"
            "def jitter():\n"
            "    return random.random() * random.gauss(0, 1)\n"
        )
        assert rules_fired(src) == ["D002", "D002"]

    def test_fires_on_unseeded_random_instance(self):
        src = (
            "import random\n"
            "def make_rng():\n"
            "    return random.Random()\n"
        )
        assert rules_fired(src) == ["D002"]

    def test_clean_on_injected_rng(self):
        src = (
            "def jitter(rng):\n"
            "    return rng.random() + rng.gauss(0, 1)\n"
        )
        assert rules_fired(src) == []

    def test_clean_on_seeded_random_instance(self):
        src = (
            "import random\n"
            "def make_rng(seed):\n"
            "    return random.Random(seed)\n"
        )
        assert rules_fired(src) == []


# ---------------------------------------------------------------------------
# D003 — escaping set iteration order
# ---------------------------------------------------------------------------


class TestD003SetOrder:
    def test_fires_on_for_loop_over_set(self):
        src = (
            "def drain(items):\n"
            "    pending = set(items)\n"
            "    for item in pending:\n"
            "        handle(item)\n"
        )
        assert rules_fired(src) == ["D003"]

    def test_fires_on_list_of_set(self):
        src = (
            "def snapshot(warm):\n"
            "    s = frozenset(warm)\n"
            "    return list(s)\n"
        )
        assert rules_fired(src) == ["D003"]

    def test_fires_on_set_typed_self_attribute(self):
        src = (
            "class Pool:\n"
            "    def __init__(self):\n"
            "        self.warm = set()\n"
            "    def drain(self):\n"
            "        return [c for c in self.warm]\n"
        )
        assert rules_fired(src) == ["D003"]

    def test_clean_when_sorted(self):
        src = (
            "def drain(items):\n"
            "    pending = set(items)\n"
            "    for item in sorted(pending):\n"
            "        handle(item)\n"
        )
        assert rules_fired(src) == []

    def test_clean_on_order_insensitive_consumers(self):
        src = (
            "def stats(s):\n"
            "    pending = set(s)\n"
            "    return len(pending), sum(pending), min(pending), any(pending)\n"
        )
        assert rules_fired(src) == []

    def test_clean_on_membership_test(self):
        src = (
            "def hit(s, x):\n"
            "    warm = set(s)\n"
            "    return x in warm\n"
        )
        assert rules_fired(src) == []


# ---------------------------------------------------------------------------
# D004 — id()-based ordering
# ---------------------------------------------------------------------------


class TestD004IdOrdering:
    def test_fires_on_id_sort_key(self):
        src = (
            "def pick(containers):\n"
            "    return sorted(containers, key=lambda c: id(c))\n"
        )
        assert rules_fired(src) == ["D004"]

    def test_fires_on_id_in_min_key(self):
        src = (
            "def pick(containers):\n"
            "    return min(containers, key=lambda c: (c.load, id(c)))\n"
        )
        assert rules_fired(src) == ["D004"]

    def test_clean_on_stable_identifier_key(self):
        src = (
            "def pick(containers):\n"
            "    return sorted(containers, key=lambda c: c.container_id)\n"
        )
        assert rules_fired(src) == []


# ---------------------------------------------------------------------------
# D005 — mutable module-level state / mutable default args
# ---------------------------------------------------------------------------


class TestD005MutableState:
    def test_fires_on_module_level_dict(self):
        src = "REGISTRY = {}\n"
        assert rules_fired(src) == ["D005"]

    def test_fires_on_module_level_counter(self):
        src = (
            "import itertools\n"
            "_counter = itertools.count()\n"
        )
        assert rules_fired(src) == ["D005"]

    def test_fires_on_mutable_default_arg(self):
        src = (
            "def record(event, sink=[]):\n"
            "    sink.append(event)\n"
        )
        assert rules_fired(src) == ["D005"]

    def test_clean_on_mapping_proxy_and_tuples(self):
        src = (
            "from types import MappingProxyType\n"
            "REGISTRY = MappingProxyType({'a': 1})\n"
            "ORDERED = ('a', 'b')\n"
            "FROZEN = frozenset({'a', 'b'})\n"
        )
        assert rules_fired(src) == []

    def test_clean_on_dunder_assignments(self):
        src = "__all__ = ['x']\n"
        assert rules_fired(src) == []

    def test_clean_on_instance_state(self):
        src = (
            "class Sim:\n"
            "    def __init__(self):\n"
            "        self.registry = {}\n"
        )
        assert rules_fired(src) == []


# ---------------------------------------------------------------------------
# D006 — ambient inputs
# ---------------------------------------------------------------------------


class TestD006AmbientInputs:
    def test_fires_on_environ_read(self):
        src = (
            "import os\n"
            "def scale():\n"
            "    return os.environ.get('REPRO_SCALE', '1')\n"
        )
        assert rules_fired(src) == ["D006"]

    def test_fires_on_urandom_and_uuid(self):
        src = (
            "import os\n"
            "import uuid\n"
            "def token():\n"
            "    return os.urandom(8), uuid.uuid4()\n"
        )
        assert rules_fired(src) == ["D006", "D006"]

    def test_clean_on_config_parameter(self):
        src = (
            "def scale(config):\n"
            "    return config.scale\n"
        )
        assert rules_fired(src) == []


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_suppression_with_reason_is_honoured(self):
        src = (
            "import itertools\n"
            "_counter = itertools.count()  # detlint: ignore[D005] id mint, labels only\n"
        )
        findings = lint_source(src, "src/repro/fixture.py", STRICT)
        assert [f.rule for f in findings] == ["D005"]
        assert findings[0].suppressed
        assert findings[0].suppression_reason == "id mint, labels only"

    def test_suppression_without_reason_fires_d000(self):
        src = (
            "import itertools\n"
            "_counter = itertools.count()  # detlint: ignore[D005]\n"
        )
        fired = rules_fired(src)
        # The reason-less suppression is rejected (D000) and therefore
        # does not silence the underlying D005.
        assert "D000" in fired
        assert "D005" in fired

    def test_suppression_for_unknown_rule_fires_d000(self):
        src = "x = 1  # detlint: ignore[D999] no such rule\n"
        assert rules_fired(src) == ["D000"]

    def test_suppression_only_covers_named_rule(self):
        src = (
            "import random, itertools\n"
            "_c = itertools.count()  # detlint: ignore[D005] id mint, labels only\n"
            "def f():\n"
            "    return random.random()\n"
        )
        assert rules_fired(src) == ["D002"]

    def test_suppression_inside_docstring_is_inert(self):
        src = (
            '"""Docs mentioning # detlint: ignore[D005] are not suppressions."""\n'
            "REGISTRY = {}\n"
        )
        assert rules_fired(src) == ["D005"]

    def test_multi_rule_suppression(self):
        src = (
            "import os, uuid\n"
            "def f():\n"
            "    return os.urandom(4), {}.keys()  # detlint: ignore[D006] fixture reason\n"
        )
        findings = lint_source(src, "src/repro/fixture.py", STRICT)
        d006 = [f for f in findings if f.rule == "D006"]
        assert d006 and all(f.suppressed for f in d006)


# ---------------------------------------------------------------------------
# Path policy
# ---------------------------------------------------------------------------


class TestPathPolicy:
    def test_harness_waiver_matches_scripts(self):
        policy = PathPolicy()
        waivers = policy.waivers_for("/anywhere/checkout/scripts/run_thing.py")
        assert "D001" in waivers and "D005" in waivers and "D006" in waivers

    def test_sim_domain_gets_no_waivers(self):
        policy = PathPolicy()
        assert policy.waivers_for("src/repro/sim/events.py") == {}

    def test_perf_harness_waiver_is_d001_only(self):
        policy = PathPolicy()
        waivers = policy.waivers_for("src/repro/analysis/perf.py")
        assert set(waivers) == {"D001"}

    def test_experiment_drivers_get_no_waiver(self):
        policy = PathPolicy()
        assert policy.waivers_for("src/repro/analysis/experiments.py") == {}

    def test_config_boundary_gets_d006_only(self):
        policy = PathPolicy()
        waivers = policy.waivers_for("/root/repo/src/repro/config.py")
        assert set(waivers) == {"D006"}

    def test_waived_rule_does_not_fire(self, tmp_path):
        harness = tmp_path / "scripts"
        harness.mkdir()
        target = harness / "probe.py"
        target.write_text("import time\nT0 = time.time()\n")
        report = lint_paths([str(target)], PathPolicy())
        assert [f.rule for f in report.unsuppressed] == []

    def test_same_code_fires_outside_waived_paths(self, tmp_path):
        sim = tmp_path / "src" / "repro" / "sim"
        sim.mkdir(parents=True)
        target = sim / "probe.py"
        target.write_text("import time\ndef f():\n    return time.time()\n")
        report = lint_paths([str(target)], PathPolicy())
        assert [f.rule for f in report.unsuppressed] == ["D001"]

    def test_every_policy_entry_names_a_known_rule_and_reason(self):
        for entry in DEFAULT_POLICY:
            assert entry.rule_id in RULES
            assert entry.reason

    def test_custom_policy_entries(self):
        policy = PathPolicy(entries=(PolicyEntry("D003", "gen/*.py", "generated"),))
        assert policy.waivers_for("a/b/gen/x.py") == {"D003": "generated"}
        assert policy.waivers_for("a/b/other/x.py") == {}


# ---------------------------------------------------------------------------
# Reports: JSON schema and human rendering
# ---------------------------------------------------------------------------


class TestReports:
    def _report_for(self, tmp_path):
        target = tmp_path / "probe.py"
        target.write_text(
            "import time\n"
            "import itertools\n"
            "def f():\n"
            "    return time.time()\n"
            "_c = itertools.count()  # detlint: ignore[D005] fixture reason\n"
        )
        return lint_paths([str(target)], PathPolicy(entries=()))

    def test_json_schema(self, tmp_path):
        report = self._report_for(tmp_path)
        payload = json.loads(render_json(report))
        assert payload["version"] == 1
        assert payload["files_scanned"] == 1
        assert payload["counts"]["total"] == 2
        assert payload["counts"]["suppressed"] == 1
        assert payload["counts"]["unsuppressed"] == 1
        assert payload["counts"]["by_rule"] == {"D001": 1, "D005": 1}
        for finding in payload["findings"]:
            assert set(finding) == {
                "rule", "path", "line", "col", "message",
                "suppressed", "suppression_reason",
            }
        suppressed = [f for f in payload["findings"] if f["suppressed"]]
        assert suppressed[0]["suppression_reason"] == "fixture reason"

    def test_human_rendering(self, tmp_path):
        report = self._report_for(tmp_path)
        text = render_human(report)
        assert "D001" in text
        assert "1 finding(s), 1 suppressed" in text
        # Suppressed findings appear only on request.
        assert "D005" not in text
        assert "D005" in render_human(report, show_suppressed=True)

    def test_findings_sorted_and_deterministic(self, tmp_path):
        a = tmp_path / "a.py"
        b = tmp_path / "b.py"
        a.write_text("import time\nX = time.time()\nY = {}\n")
        b.write_text("import random\nZ = random.random()\n")
        r1 = lint_paths([str(tmp_path)], PathPolicy(entries=()))
        r2 = lint_paths([str(b), str(a)], PathPolicy(entries=()))
        key = [(f.path, f.line, f.col, f.rule) for f in r1.findings]
        assert key == sorted(key)
        assert [(f.rule, f.line) for f in r1.findings] == [
            (f.rule, f.line) for f in r2.findings
        ]


# ---------------------------------------------------------------------------
# Front-end: exit codes
# ---------------------------------------------------------------------------


class TestFrontend:
    def test_exit_clean(self, tmp_path, capsys):
        target = tmp_path / "pure.py"
        target.write_text("def f(x):\n    return x + 1\n")
        assert detlint_main([str(target)]) == EXIT_CLEAN
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_findings(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import time\nT = time.time()\n")
        assert detlint_main([str(target)]) == EXIT_FINDINGS
        capsys.readouterr()

    def test_exit_error_on_missing_path(self, capsys):
        assert detlint_main([str(REPO_ROOT / "no-such-dir")]) == EXIT_ERROR
        capsys.readouterr()

    def test_json_output_flag(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import time\nT = time.time()\n")
        assert detlint_main([str(target), "--format", "json"]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["unsuppressed"] == 1

    def test_syntax_error_reports_d000(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        assert detlint_main([str(target)]) == EXIT_FINDINGS
        assert "D000" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Self-check: the repository lints clean (the regression gate)
# ---------------------------------------------------------------------------


class TestRepositoryIsClean:
    def test_sim_domain_and_scripts_lint_clean(self):
        paths = [str(REPO_ROOT / p) for p in DEFAULT_LINT_PATHS]
        report = lint_paths(paths, PathPolicy())
        offenders = [
            f"{f.path}:{f.line}: {f.rule} {f.message}" for f in report.unsuppressed
        ]
        assert not offenders, (
            "determinism lint regression — fix the finding or add a justified "
            "suppression:\n" + "\n".join(offenders)
        )

    def test_src_suppresses_no_module_level_state(self):
        # Every id a run uses is minted by the object that owns the run
        # (the cluster, an invoker, a kernel), so nothing in src/ needs a
        # D005 suppression: a process-global mint cannot come back quietly.
        report = lint_paths([str(REPO_ROOT / "src/repro")], PathPolicy())
        hidden = [
            f"{f.path}:{f.line}: {f.suppression_reason}"
            for f in report.suppressed
            if f.rule == "D005"
        ]
        assert not hidden, "suppressed D005 findings in src/:\n" + "\n".join(hidden)

    def test_every_suppression_in_tree_carries_a_reason(self):
        paths = [str(REPO_ROOT / p) for p in DEFAULT_LINT_PATHS]
        report = lint_paths(paths, PathPolicy())
        for finding in report.suppressed:
            assert finding.suppression_reason, (
                f"{finding.path}:{finding.line} suppressed without a reason"
            )

    def test_cli_lint_subcommand_is_wired(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", "--format", "json"],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == EXIT_CLEAN, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["counts"]["unsuppressed"] == 0
