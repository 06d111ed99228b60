"""Tests for repro-lint (:mod:`repro.analysis`).

Each rule gets at least one fixture-proven true positive and one negative
(the sanctioned idiom), plus suppression handling, baseline round-trips,
CLI exit codes, a determinism property test, and the meta-test that the
live tree itself is clean modulo the checked-in baseline.
"""

from __future__ import annotations

import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    BaselineEntry,
    Finding,
    all_rules,
    apply_baseline,
    default_checkers,
    discover,
    load_baseline,
    run,
    write_baseline,
)
from repro.analysis.__main__ import main
from repro.analysis.core import Project, suppressed_rules_by_line


def make_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """Materialise ``{'repro/layer/mod.py': source}`` under a tmp root."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return tmp_path


def findings_for(tmp_path: Path, files: dict[str, str]) -> list[Finding]:
    return run(discover(make_tree(tmp_path, files)))


def rules_of(findings: list[Finding]) -> set[str]:
    return {finding.rule for finding in findings}


# --------------------------------------------------------------------- rng


class TestRngDiscipline:
    def test_global_numpy_draw_flagged(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/trees/bad.py": (
                    "import numpy as np\n"
                    "def jitter(n):\n"
                    "    return np.random.rand(n)\n"
                )
            },
        )
        assert rules_of(findings) == {"RNG001"}
        assert findings[0].path == "repro/trees/bad.py"
        assert findings[0].line == 3

    def test_default_rng_outside_factory_flagged(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/core/bad.py": (
                    "import numpy as np\n"
                    "def make(seed):\n"
                    "    return np.random.default_rng(seed)\n"
                )
            },
        )
        assert rules_of(findings) == {"RNG002"}

    def test_default_rng_inside_blessed_factory_ok(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/utils/good.py": (
                    "import numpy as np\n"
                    "def check_random_state(seed):\n"
                    "    return np.random.default_rng(seed)\n"
                )
            },
        )
        assert findings == []

    def test_seedless_seedsequence_flagged_seeded_ok(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/streams/bad.py": (
                    "import numpy as np\n"
                    "ENTROPY = np.random.SeedSequence()\n"
                    "SEEDED = np.random.SeedSequence(42)\n"
                )
            },
        )
        assert rules_of(findings) == {"RNG002"}
        assert len(findings) == 1
        assert findings[0].line == 2

    def test_stdlib_random_flagged(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {"repro/drift/bad.py": "import random\nx = random.random()\n"},
        )
        assert rules_of(findings) == {"RNG003"}
        assert len(findings) == 2  # the import and the call

    def test_serving_layer_exempt(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {"repro/serving/ok.py": "import random\nx = random.random()\n"},
        )
        assert findings == []


# --------------------------------------------------------------- wall clock


class TestWallClockDiscipline:
    def test_wallclock_read_flagged(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/evaluation/bad.py": (
                    "import time\n"
                    "def stamp():\n"
                    "    return time.time()\n"
                )
            },
        )
        assert rules_of(findings) == {"CLK001"}

    def test_wallclock_in_serving_ok(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {"repro/serving/ok.py": "import time\nnow = time.time()\n"},
        )
        assert findings == []

    def test_unguarded_monotonic_timer_flagged(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/trees/bad.py": (
                    "from time import perf_counter\n"
                    "def fit():\n"
                    "    started = perf_counter()\n"
                )
            },
        )
        assert rules_of(findings) == {"CLK002"}

    def test_guarded_monotonic_timer_ok(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/trees/good.py": (
                    "from time import perf_counter\n"
                    "from repro.telemetry import TELEMETRY\n"
                    "def fit():\n"
                    "    if TELEMETRY.enabled:\n"
                    "        started = perf_counter()\n"
                )
            },
        )
        assert findings == []

    def test_evaluation_monotonic_timer_exempt(self, tmp_path):
        # Measuring training time per batch is the evaluation layer's job.
        findings = findings_for(
            tmp_path,
            {
                "repro/evaluation/ok.py": (
                    "from time import perf_counter\n"
                    "def run():\n"
                    "    return perf_counter()\n"
                )
            },
        )
        assert findings == []


# ---------------------------------------------------------- telemetry guard


class TestTelemetryGuard:
    def test_unguarded_state_access_flagged(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/core/bad.py": (
                    "from repro.telemetry import TELEMETRY\n"
                    "def record():\n"
                    "    TELEMETRY.counter('repro.core.x_total').inc()\n"
                )
            },
        )
        assert "TEL001" in rules_of(findings)

    def test_guarded_state_access_ok(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/core/good.py": (
                    "from repro.telemetry import TELEMETRY\n"
                    "def record():\n"
                    "    if TELEMETRY.enabled:\n"
                    "        TELEMETRY.emit('tree.split', node=1, feature=0,\n"
                    "                       threshold=0.5, depth=1)\n"
                )
            },
        )
        assert findings == []

    def test_alias_guard_recognised(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/core/good.py": (
                    "from repro.telemetry import TELEMETRY\n"
                    "def record():\n"
                    "    telemetry_on = TELEMETRY.enabled\n"
                    "    if telemetry_on:\n"
                    "        TELEMETRY.emit('tree.split', node=1, feature=0,\n"
                    "                       threshold=0.5, depth=1)\n"
                )
            },
        )
        assert findings == []

    def test_early_exit_guard_recognised(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/core/good.py": (
                    "from repro.telemetry import TELEMETRY\n"
                    "def record():\n"
                    "    if not TELEMETRY.enabled:\n"
                    "        return\n"
                    "    TELEMETRY.emit('tree.split', node=1, feature=0,\n"
                    "                   threshold=0.5, depth=1)\n"
                )
            },
        )
        assert findings == []

    def test_helper_body_exempt_but_call_site_must_guard(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/trees/mixed.py": (
                    "from repro.telemetry import TELEMETRY\n"
                    "class Tree:\n"
                    "    def _telemetry_split(self):\n"
                    "        TELEMETRY.counter('repro.tree.splits_total').inc()\n"
                    "    def fit_guarded(self):\n"
                    "        if TELEMETRY.enabled:\n"
                    "            self._telemetry_split()\n"
                    "    def fit_unguarded(self):\n"
                    "        self._telemetry_split()\n"
                )
            },
        )
        assert rules_of(findings) == {"TEL002"}
        assert len(findings) == 1
        assert findings[0].line == 9

    def test_safe_attrs_need_no_guard(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/core/good.py": (
                    "from repro.telemetry import TELEMETRY\n"
                    "def status():\n"
                    "    with TELEMETRY.span('evaluation.prequential'):\n"
                    "        return TELEMETRY.enabled\n"
                )
            },
        )
        assert findings == []


# ------------------------------------------------------------------- locking

#: A metrics registry shaped like ``MetricsRegistry``: a deliberate,
#: suppressed lock-free fast path in ``_get_or_create``.
_REGISTRY_SRC = (
    "import threading\n"
    "class Registry:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._metrics = {}\n"
    "        self.generation = 0\n"
    "    def _get_or_create(self, key, factory):\n"
    "        metric = self._metrics.get(key)  # repro-lint: disable=LCK001\n"
    "        if metric is None:\n"
    "            with self._lock:\n"
    "                metric = self._metrics.get(key)\n"
    "                if metric is None:\n"
    "                    metric = self._metrics[key] = factory()\n"
    "        return metric\n"
    "    def clear(self):\n"
    "        with self._lock:\n"
    "            self._metrics.clear()\n"
    "            self.generation += 1\n"
)


class TestLockDiscipline:
    def test_lck001_unguarded_read_flagged(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/serving/hub.py": (
                    "import threading\n"
                    "class Hub:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._state = {}\n"
                    "    def write(self, key, value):\n"
                    "        with self._lock:\n"
                    "            self._state[key] = value\n"
                    "    def peek(self, key):\n"
                    "        return self._state.get(key)\n"
                ),
            },
        )
        assert [f.rule for f in findings] == ["LCK001"]
        assert "peek" in findings[0].message

    def test_lck001_guarded_helper_ok(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/serving/hub.py": (
                    "import threading\n"
                    "class Hub:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._state = {}\n"
                    "    def _store(self, key, value):\n"
                    "        self._state[key] = value\n"
                    "    def write(self, key, value):\n"
                    "        with self._lock:\n"
                    "            self._store(key, value)\n"
                    "    def peek(self, key):\n"
                    "        with self._lock:\n"
                    "            return self._state.get(key)\n"
                ),
            },
        )
        assert findings == []

    def test_handle_cache_rebuilt_outside_lock_flagged(self, tmp_path):
        """A lock-owning class that clears and refills a handle cache outside
        its lock: a clear racing a write-back resurrects stale-generation
        handles."""
        findings = findings_for(
            tmp_path,
            {
                "repro/serving/service.py": (
                    "import threading\n"
                    "from repro.telemetry import TELEMETRY\n"
                    "class Service:\n"
                    "    def __init__(self, registry):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self.registry = registry\n"
                    "        self._stats = {}\n"
                    "        self._handles = {}\n"
                    "        self._generation = -1\n"
                    "    def score(self, name):\n"
                    "        with self._lock:\n"
                    "            self._stats[name] = self._stats.get(name, 0) + 1\n"
                    "        if TELEMETRY.enabled:\n"
                    "            return self._telemetry_for(name)\n"
                    "    def _telemetry_for(self, name):\n"
                    "        if self._generation != self.registry.generation:\n"
                    "            self._handles.clear()\n"
                    "            self._generation = self.registry.generation\n"
                    "        handles = self._handles.get(name)\n"
                    "        if handles is None:\n"
                    "            handles = self._handles[name] = (name,)\n"
                    "        return handles\n"
                ),
            },
        )
        assert rules_of(findings) == {"LCK001"}
        assert {f.message.split("'")[1] for f in findings} == {
            "_generation",
            "_handles",
        }
        assert all("_telemetry_for" in f.message for f in findings)

    def test_len_outside_lock_flagged(self, tmp_path):
        """``MetricsRegistry.__len__`` without its lock races ``clear()``;
        the suppressed double-checked lookup stays quiet."""
        findings = findings_for(
            tmp_path,
            {
                "repro/telemetry/metrics.py": _REGISTRY_SRC
                + "    def __len__(self):\n"
                "        return len(self._metrics)\n"
            },
        )
        assert [f.rule for f in findings] == ["LCK001"]
        assert "'_metrics'" in findings[0].message
        assert "__len__" in findings[0].message

    def test_len_under_lock_ok(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/telemetry/metrics.py": _REGISTRY_SRC
                + "    def __len__(self):\n"
                "        with self._lock:\n"
                "            return len(self._metrics)\n"
            },
        )
        assert findings == []


# -------------------------------------------------------------- suppressions


class TestSuppressions:
    def test_same_line_suppression(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/trees/ok.py": (
                    "import numpy as np\n"
                    "x = np.random.rand(3)  # repro-lint: disable=RNG001\n"
                ),
            },
        )
        assert findings == []

    def test_standalone_comment_suppresses_next_line(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/trees/ok.py": (
                    "import numpy as np\n"
                    "# repro-lint: disable=RNG001\n"
                    "x = np.random.rand(3)\n"
                ),
            },
        )
        assert findings == []

    def test_suppression_is_rule_specific(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/trees/bad.py": (
                    "import numpy as np\n"
                    "x = np.random.rand(3)  # repro-lint: disable=RNG002\n"
                ),
            },
        )
        assert rules_of(findings) == {"RNG001"}

    def test_disable_all(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/trees/ok.py": (
                    "import numpy as np\n"
                    "x = np.random.rand(3)  # repro-lint: disable=all\n"
                ),
            },
        )
        assert findings == []

    def test_marker_inside_prose_comment(self):
        suppressions = suppressed_rules_by_line(
            "x = 1  # deliberate one-off. repro-lint: disable=RNG002\n"
        )
        assert suppressions == {1: frozenset({"RNG002"})}


# ------------------------------------------------------------------ baseline


class TestBaseline:
    def test_round_trip(self, tmp_path):
        findings = findings_for(
            tmp_path / "tree",
            {
                "repro/trees/bad.py": (
                    "import numpy as np\n"
                    "x = np.random.rand(3)\n"
                ),
            },
        )
        assert len(findings) == 1
        baseline_path = tmp_path / "baseline.json"
        write_baseline(findings, baseline_path)
        loaded = load_baseline(baseline_path)
        assert len(loaded) == 1
        assert loaded[0].justification == "TODO: justify this accepted finding"
        fresh, stale = apply_baseline(findings, loaded)
        assert fresh == [] and stale == ()

    def test_justification_carried_over(self, tmp_path):
        finding = Finding("repro/a.py", 3, 0, "RNG001", "msg")
        path = tmp_path / "baseline.json"
        previous = (BaselineEntry("repro/a.py", "RNG001", "msg", "because"),)
        write_baseline([finding], path, previous=previous)
        assert load_baseline(path)[0].justification == "because"

    def test_line_moves_do_not_invalidate(self):
        baseline = (BaselineEntry("repro/a.py", "RNG001", "msg"),)
        moved = [Finding("repro/a.py", 99, 4, "RNG001", "msg")]
        fresh, stale = apply_baseline(moved, baseline)
        assert fresh == [] and stale == ()

    def test_multiset_matching(self):
        baseline = (BaselineEntry("repro/a.py", "RNG001", "msg"),)
        twice = [
            Finding("repro/a.py", 1, 0, "RNG001", "msg"),
            Finding("repro/a.py", 2, 0, "RNG001", "msg"),
        ]
        fresh, stale = apply_baseline(twice, baseline)
        assert len(fresh) == 1 and stale == ()

    def test_stale_entries_reported(self):
        baseline = (BaselineEntry("repro/gone.py", "RNG001", "old"),)
        fresh, stale = apply_baseline([], baseline)
        assert fresh == [] and len(stale) == 1

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == ()


# ----------------------------------------------------------------------- CLI


class TestCli:
    def test_seeded_violation_fails(self, tmp_path, capsys):
        make_tree(
            tmp_path,
            {
                "repro/trees/bad.py": (
                    "import numpy as np\n"
                    "x = np.random.rand(3)\n"
                ),
            },
        )
        rc = main(["--root", str(tmp_path), "--baseline", str(tmp_path / "b.json")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "RNG001" in out and "repro/trees/bad.py:2" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        make_tree(tmp_path, {"repro/trees/ok.py": "x = 1\n"})
        rc = main(["--root", str(tmp_path), "--baseline", str(tmp_path / "b.json")])
        assert rc == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        make_tree(
            tmp_path,
            {
                "repro/trees/bad.py": (
                    "import numpy as np\n"
                    "x = np.random.rand(3)\n"
                ),
            },
        )
        baseline = tmp_path / "b.json"
        args = ["--root", str(tmp_path), "--baseline", str(baseline)]
        assert main(args + ["--update-baseline"]) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        make_tree(
            tmp_path,
            {
                "repro/trees/bad.py": (
                    "import numpy as np\n"
                    "x = np.random.rand(3)\n"
                ),
            },
        )
        rc = main(
            ["--root", str(tmp_path), "--baseline", str(tmp_path / "b.json"),
             "--format", "json"]
        )
        document = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert document["findings"][0]["rule"] == "RNG001"
        assert document["baselined"] == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out


# ------------------------------------------------------------------ rule IDs


def test_rule_ids_unique_and_stable():
    rules = all_rules()
    ids = [rule.id for rule in rules]
    assert len(ids) == len(set(ids))
    assert ids == sorted(ids)
    for checker in default_checkers():
        assert checker.name
        assert checker.rules


# ---------------------------------------------------------------- meta-test


def test_live_tree_clean_modulo_baseline():
    """The shipped source tree has no findings beyond the checked-in baseline."""
    project = discover()
    baseline_path = project.root.parent / "analysis_baseline.json"
    fresh, stale = apply_baseline(run(project), load_baseline(baseline_path))
    assert fresh == [], "\n".join(f.render() for f in fresh)
    assert stale == (), "stale baseline entries: prune with --update-baseline"


# -------------------------------------------------------------- determinism

_DET_FILES = {
    "repro/trees/one.py": (
        "import numpy as np\n"
        "x = np.random.rand(3)\n"
        "from time import perf_counter\n"
        "def f():\n"
        "    return perf_counter()\n"
    ),
    "repro/core/two.py": (
        "from repro.telemetry import TELEMETRY\n"
        "def g():\n"
        "    TELEMETRY.counter('repro.core.bogus_total').inc()\n"
    ),
    # A lock-owning class: LCK001 judges ``peek`` only after seeing that
    # ``write`` assigns into ``_state``.
    "repro/serving/hub.py": (
        "import threading\n"
        "class Hub:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._state = {}\n"
        "    def write(self, key, value):\n"
        "        with self._lock:\n"
        "            self._state[key] = value\n"
        "    def peek(self, key):\n"
        "        return self._state.get(key)\n"
    ),
}


def test_two_runs_identical(tmp_path):
    project = discover(make_tree(tmp_path, _DET_FILES))
    first = run(project)
    second = run(project)
    assert first == second
    assert len(first) >= 4


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(list(range(len(_DET_FILES)))))
def test_findings_independent_of_module_order(tmp_path_factory, order):
    """Shuffling module discovery order never changes the sorted output."""
    tmp_path = tmp_path_factory.mktemp("det")
    project = discover(make_tree(tmp_path, _DET_FILES))
    shuffled = Project(
        root=project.root,
        modules=tuple(project.modules[index] for index in order),
    )
    assert run(shuffled) == run(project)


def test_cli_output_byte_identical(tmp_path, capsys):
    make_tree(tmp_path, _DET_FILES)
    args = ["--root", str(tmp_path), "--baseline", str(tmp_path / "b.json")]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first
