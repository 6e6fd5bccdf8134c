"""repro-lint rule engine + runtime sanitizer (repro.analysis).

Static side: every rule (RL001-RL009; RL007 is retired) gets a violating
fixture snippet and its compliant rewrite (linted in-memory under a virtual
path, which is what drives rule scoping), plus pragma suppression semantics
and the CLI.  The whole repo tree must lint clean with zero suppressions.

Dynamic side: the ``published()`` read-only guard and the
version-vs-fingerprint cross-check, including an intentionally injected
write-after-publish and a missed ``bump_version()`` detected on all
three executor backends — and the golden fixture staying bit-identical
with the sanitizer on.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest

from repro.analysis import lint_paths, sanitize
from repro.analysis.engine import lint_source
from repro.analysis.lint import main as lint_main
from repro.analysis.rules import RULES, RULES_BY_ID
from repro.analysis.sanitize import SanitizerError, VersionWatch, model_fingerprint
from repro.baselines import fedavg
from repro.core import FedTransConfig
from repro.fl import Coordinator, CoordinatorConfig
from repro.fl.async_engine import _Pending
from repro.fl.snapshot import SnapshotPublisher
from repro.fl.types import (
    ArrivalRecord,
    ClientUpdate,
    EvalRecord,
    FaultRecord,
    RoundRecord,
    SchedulerRecord,
    TrainingLog,
)
from repro.nn import mlp
from repro.nn.cells import CELL_TYPES

from test_hotpath import GOLDEN, TRAINER, _clients, _digest, _flat_dataset, _golden_run

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _sanitizer_state():
    """Never leak sanitizer state (module flag or env var) across tests."""
    prev_enabled = sanitize.sanitizer_enabled()
    prev_env = os.environ.get("REPRO_SANITIZE")
    yield
    sanitize.set_sanitizer(prev_enabled)
    if prev_env is None:
        os.environ.pop("REPRO_SANITIZE", None)
    else:
        os.environ["REPRO_SANITIZE"] = prev_env


def _lint(src: str, rel: str = "src/repro/fl/fixture.py"):
    return lint_source(dedent(src), rel)


def _ids(report) -> list[str]:
    return [v.rule_id for v in report.violations]


def _caller_scan(root: Path) -> tuple[list[str], list[str]]:
    """The two findings of the every-name-has-a-caller guard over ``root``.

    Returns the public top-level ``def``/``class`` names under
    ``root/src/repro`` (as ``pkg.module.name``) that no ``Name`` or
    ``Attribute`` node in ``src/``, ``benchmarks/`` or ``examples/`` names,
    and the package ``__all__`` entries (as ``repro.pkg.name``) that none of
    those files imports through the package.  Tests, ``__all__`` lists and
    re-export imports do not count.
    """
    src = root / "src" / "repro"
    files = sorted(
        p for top in ("src", "benchmarks", "examples") for p in (root / top).rglob("*.py")
    )
    trees = {p: ast.parse(p.read_text()) for p in files}

    def module(path: Path) -> str:
        parts = path.relative_to(src.parent).with_suffix("").parts
        return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

    def exports(tree: ast.Module) -> list[str]:
        for n in tree.body:
            if isinstance(n, ast.Assign) and ast.unparse(n.targets[0]) == "__all__":
                return [elt.value for elt in n.value.elts]
        return []

    named = {
        n.id if isinstance(n, ast.Name) else n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute))
    }
    uncalled = [
        f"{module(p).removeprefix('repro.')}.{d.name}"
        for p in files
        if src in p.parents
        for d in trees[p].body
        if isinstance(d, (ast.FunctionDef, ast.ClassDef))
        and not d.name.startswith("_")
        and d.name not in named
    ]

    imported: set[tuple[str, str]] = set()
    for p, tree in trees.items():
        # A package __init__'s top-level import of a name in its own
        # __all__ is a re-export, not a use.
        reexported = set(exports(tree)) if p.name == "__init__.py" else set()
        for n in ast.walk(tree):
            if not isinstance(n, ast.ImportFrom) or (n.level and src not in p.parents):
                continue
            target = n.module
            if n.level:
                package = module(p).split(".")
                if p.name != "__init__.py":
                    package.pop()
                base = package[: len(package) - n.level + 1]
                target = ".".join(base + ([n.module] if n.module else []))
            imported |= {
                (target, a.name)
                for a in n.names
                if not (n in tree.body and a.name in reexported)
            }
    unimported = [
        f"{module(p)}.{name}"
        for p in files
        if p.name == "__init__.py" and src in p.parents
        for name in exports(trees[p])
        if (module(p), name) not in imported
    ]
    return uncalled, unimported


# ----------------------------------------------------------------------
# RL001 no-global-rng
# ----------------------------------------------------------------------
class TestRL001:
    def test_module_level_np_random_fires(self):
        report = _lint(
            """
            import numpy as np
            noise = np.random.rand(3)
            """
        )
        assert _ids(report) == ["RL001"]

    def test_unseeded_default_rng_fires(self):
        report = _lint(
            """
            import numpy as np
            rng = np.random.default_rng()
            """
        )
        assert _ids(report) == ["RL001"]

    def test_stdlib_random_fires(self):
        report = _lint(
            """
            import random
            def shuffle_clients(xs):
                random.shuffle(xs)
            """
        )
        assert _ids(report) == ["RL001"]

    def test_from_import_random_fires(self):
        report = _lint(
            """
            from random import shuffle
            def shuffle_clients(xs):
                shuffle(xs)
            """
        )
        assert _ids(report) == ["RL001"]

    def test_compliant_rewrite_is_quiet(self):
        report = _lint(
            """
            import numpy as np

            def draw(seed: int, rng: np.random.Generator) -> np.ndarray:
                ss = np.random.SeedSequence(seed, spawn_key=(1, 2, 3))
                local = np.random.default_rng(ss)
                return local.normal(size=3) + rng.normal(size=3)
            """
        )
        assert _ids(report) == []

    def test_generator_annotation_alone_is_fine(self):
        report = _lint(
            """
            import numpy as np

            def f(rng: np.random.Generator) -> None:
                rng.shuffle([1, 2])
            """
        )
        assert _ids(report) == []


# ----------------------------------------------------------------------
# RL002 no-wallclock
# ----------------------------------------------------------------------
class TestRL002:
    BAD = """
        import time
        def round_time():
            return time.time()
        """

    def test_wallclock_in_fl_fires(self):
        assert _ids(_lint(self.BAD, "src/repro/fl/pacing.py")) == ["RL002"]

    def test_wallclock_in_core_fires(self):
        assert _ids(_lint(self.BAD, "src/repro/core/doc.py")) == ["RL002"]

    def test_out_of_scope_path_is_quiet(self):
        # Benchmark harnesses may measure wall time; only fl/ + core/ ban it.
        assert _ids(_lint(self.BAD, "benchmarks/bench_wall.py")) == []

    def test_from_import_monotonic_fires(self):
        report = _lint(
            """
            from time import monotonic
            def tick():
                return monotonic()
            """,
            "src/repro/fl/engine.py",
        )
        assert _ids(report) == ["RL002"]

    def test_datetime_now_fires(self):
        report = _lint(
            """
            from datetime import datetime
            def stamp():
                return datetime.now()
            """,
            "src/repro/core/log.py",
        )
        assert _ids(report) == ["RL002"]

    def test_virtual_time_rewrite_is_quiet(self):
        report = _lint(
            """
            def round_time(clock):
                return clock.now()
            """,
            "src/repro/fl/pacing.py",
        )
        assert _ids(report) == []


# ----------------------------------------------------------------------
# RL003 dtype-hygiene
# ----------------------------------------------------------------------
class TestRL003:
    def test_hardcoded_np_dtypes_fire(self):
        report = _lint(
            """
            import numpy as np
            def kernel(x):
                acc = x.astype(np.float64)
                buf = np.zeros(4, dtype=np.float32)
                return acc, buf
            """,
            "src/repro/nn/kernels.py",
        )
        assert _ids(report) == ["RL003", "RL003"]

    def test_dtype_float_keyword_fires(self):
        report = _lint(
            """
            import numpy as np
            def kernel():
                return np.zeros(4, dtype=float)
            """,
            "src/repro/nn/kernels.py",
        )
        assert _ids(report) == ["RL003"]

    def test_compute_routed_rewrite_is_quiet(self):
        report = _lint(
            """
            import numpy as np
            from repro.nn.compute import accum_dtype, compute_dtype
            def kernel(x):
                acc = x.astype(accum_dtype())
                buf = np.zeros(4, dtype=compute_dtype())
                return acc, buf
            """,
            "src/repro/nn/kernels.py",
        )
        assert _ids(report) == []

    def test_outside_nn_is_quiet(self):
        report = _lint(
            """
            import numpy as np
            x = np.zeros(3, dtype=np.float64)
            """,
            "src/repro/fl/metrics.py",
        )
        assert _ids(report) == []

    def test_compute_module_itself_is_exempt(self):
        report = _lint(
            """
            import numpy as np
            ACCUM = np.float64
            """,
            "src/repro/nn/compute.py",
        )
        assert _ids(report) == []


# ----------------------------------------------------------------------
# RL004 version-bump
# ----------------------------------------------------------------------
class TestRL004:
    def test_write_without_bump_fires(self):
        report = _lint(
            """
            class FooCell:
                def reset(self):
                    self.params()["w"][...] = 0.0
            """,
            "src/repro/nn/fixture.py",
        )
        assert _ids(report) == ["RL004"]

    def test_multi_exit_flags_only_unbumped_path(self):
        report = _lint(
            """
            class FooCell:
                def scale(self, factor):
                    live = self.params()
                    for k in live:
                        live[k][...] *= factor
                    if factor == 0.0:
                        return None
                    self.bump_version()
                    return self
            """,
            "src/repro/nn/fixture.py",
        )
        assert _ids(report) == ["RL004"]
        assert len(report.violations) == 1
        # the flagged line is the early return, not the compliant one
        assert "return None" in dedent(
            """
                    if factor == 0.0:
                        return None
            """
        )

    def test_bump_on_every_exit_is_quiet(self):
        report = _lint(
            """
            class FooCell:
                def scale(self, factor):
                    live = self.params()
                    for k in live:
                        live[k][...] *= factor
                    self.bump_version()
                    if factor == 0.0:
                        return None
                    return self
            """,
            "src/repro/nn/fixture.py",
        )
        assert _ids(report) == []

    def test_raise_exits_may_skip_the_bump(self):
        report = _lint(
            """
            class BarCell:
                def set(self, tree):
                    live = self.params()
                    for k, v in tree.items():
                        if k not in live:
                            raise KeyError(k)
                        live[k][...] = v
                    self.bump_version()
            """,
            "src/repro/nn/fixture.py",
        )
        assert _ids(report) == []

    def test_bump_only_inside_loop_is_not_enough(self):
        # The loop may run zero times; the conservative rule wants the bump
        # on the fall-through path.
        report = _lint(
            """
            class QuxCell:
                def jitter(self, keys):
                    live = self.params()
                    for k in keys:
                        live[k][...] += 1.0
                        self.bump_version()
            """,
            "src/repro/nn/fixture.py",
        )
        assert _ids(report) == ["RL004"]

    def test_state_writes_are_tracked_too(self):
        report = _lint(
            """
            class StatCell:
                def reset_stats(self):
                    st = self.state()
                    st["running_mean"][...] = 0.0
            """,
            "src/repro/nn/fixture.py",
        )
        assert _ids(report) == ["RL004"]

    def test_read_only_methods_are_quiet(self):
        report = _lint(
            """
            class FooCell:
                def norm(self):
                    live = self.params()
                    return sum(float((v ** 2).sum()) for v in live.values())
            """,
            "src/repro/nn/fixture.py",
        )
        assert _ids(report) == []

    def test_non_cell_classes_are_out_of_scope(self):
        report = _lint(
            """
            class Optimizer:
                def step(self):
                    self.params()["w"][...] = 0.0
            """,
            "src/repro/nn/fixture.py",
        )
        assert _ids(report) == []


# ----------------------------------------------------------------------
# RL005 hotpath-alloc
# ----------------------------------------------------------------------
class TestRL005:
    def test_alloc_in_marked_function_fires(self):
        report = _lint(
            """
            import numpy as np

            # repro: hotpath
            def forward(x):
                out = np.empty(x.shape)
                np.maximum(x, 0.0, out=out)
                return out
            """,
            "src/repro/nn/kern.py",
        )
        assert _ids(report) == ["RL005"]

    def test_unmarked_function_may_allocate(self):
        report = _lint(
            """
            import numpy as np

            def setup(shape):
                return np.zeros(shape)
            """,
            "src/repro/nn/kern.py",
        )
        assert _ids(report) == []

    def test_pooled_rewrite_is_quiet(self):
        report = _lint(
            """
            import numpy as np

            # repro: hotpath
            def forward(x, ws):
                out = ws.get("out", x.shape, x.dtype)
                np.maximum(x, 0.0, out=out)
                return out
            """,
            "src/repro/nn/kern.py",
        )
        assert _ids(report) == []

    def test_marker_on_def_line_works(self):
        report = _lint(
            """
            import numpy as np

            def forward(x):  # repro: hotpath
                return np.concatenate([x, x])
            """,
            "src/repro/nn/kern.py",
        )
        assert _ids(report) == ["RL005"]


# ----------------------------------------------------------------------
# RL006 shm-lifecycle
# ----------------------------------------------------------------------
class TestRL006:
    def test_create_without_unlink_fires(self):
        report = _lint(
            """
            from multiprocessing import shared_memory

            class Arena:
                def create(self, name, size):
                    seg = shared_memory.SharedMemory(name=name, create=True, size=size)
                    return seg
            """
        )
        assert _ids(report) == ["RL006"]

    def test_unlink_in_finally_is_quiet(self):
        report = _lint(
            """
            from multiprocessing import shared_memory

            class Arena:
                def run_once(self, name, size):
                    seg = shared_memory.SharedMemory(name=name, create=True, size=size)
                    try:
                        return bytes(seg.buf)
                    finally:
                        seg.close()
                        seg.unlink()
            """
        )
        assert _ids(report) == []

    def test_finalizer_backstop_is_quiet(self):
        report = _lint(
            """
            import weakref
            from multiprocessing import shared_memory

            def _unlink_all(segs):
                for seg in segs.values():
                    seg.close()
                    seg.unlink()

            class Arena:
                def __init__(self):
                    self._segs = {}
                    self._fin = weakref.finalize(self, _unlink_all, self._segs)

                def create(self, name, size):
                    seg = shared_memory.SharedMemory(name=name, create=True, size=size)
                    self._segs[name] = seg
                    return seg

                def state_dict(self):
                    return {}

                def load_state_dict(self, payload):
                    pass
            """
        )
        assert _ids(report) == []

    def test_attach_only_is_out_of_scope(self):
        report = _lint(
            """
            from multiprocessing import shared_memory

            def attach(name):
                return shared_memory.SharedMemory(name=name)
            """
        )
        assert _ids(report) == []


# ----------------------------------------------------------------------
# RL008 stateful-coverage
# ----------------------------------------------------------------------
class TestRL008:
    BAD = """\
        class Meter:
            def __init__(self):
                self.hits = 0
                self.log = []

            def observe(self, x):
                self.hits += 1
                self.log.append(x)
    """

    def test_attr_mutation_fires(self):
        assert _ids(_lint(self.BAD)) == ["RL008"]

    def test_fires_in_core_scope_too(self):
        assert _ids(_lint(self.BAD, "src/repro/core/meter.py")) == ["RL008"]

    def test_fires_in_baselines_scope_too(self):
        # HeteroFL / FLuID rebuilt their ladders on self under Strategy's
        # inherited fixed-suite payload, which lost the global model.
        assert _ids(_lint(self.BAD, "src/repro/baselines/meter.py")) == ["RL008"]

    def test_out_of_scope_is_quiet(self):
        assert _ids(_lint(self.BAD, "src/repro/nn/meter.py")) == []

    def test_container_mutator_call_fires(self):
        report = _lint(
            """\
            class Buf:
                def __init__(self):
                    self.items = {}

                def put(self, k, v):
                    self.items.setdefault(k, []).append(v)
            """
        )
        assert _ids(report) == ["RL008"]

    def test_in_body_protocol_satisfies(self):
        report = _lint(
            """\
            class Meter:
                def __init__(self):
                    self.hits = 0

                def observe(self, x):
                    self.hits += 1

                def state_dict(self):
                    return {"hits": self.hits}

                def load_state_dict(self, payload):
                    self.hits = int(payload["hits"])
            """
        )
        assert _ids(report) == []

    def test_inherited_protocol_does_not_satisfy(self):
        # The registration convention requires both methods in the class's
        # OWN body: a subclass with extra mutable fields that leans on a
        # parent payload silently drops those fields from checkpoints.
        report = _lint(
            """\
            from repro.stateful import Stateful

            class Base(Stateful):
                def state_dict(self):
                    return {}

                def load_state_dict(self, payload):
                    pass

            class Sub(Base):
                def observe(self, x):
                    self.extra = x
            """
        )
        assert _ids(report) == ["RL008"]

    def test_in_body_declaration_satisfies(self):
        report = _lint(
            """\
            from repro.stateful import Stateful

            class Meter(Stateful):
                state_fields = {"hits": ("hits", int)}

                def __init__(self):
                    self.hits = 0

                def observe(self, x):
                    self.hits += 1
            """
        )
        assert _ids(report) == []

    def test_inherited_declaration_and_no_methods_fires(self):
        # Neither a declaration nor the two methods in its own body: the
        # parent's table cannot name the field the subclass mutates.
        report = _lint(
            """\
            from repro.stateful import Stateful

            class Base(Stateful):
                state_fields = {}

            class Sub(Base):
                def observe(self, x):
                    self.extra = x

                def describe(self):
                    state_fields = {"extra": ("extra", int)}
                    return state_fields
            """
        )
        assert _ids(report) == ["RL008"]

    def test_constructor_and_local_mutation_are_quiet(self):
        report = _lint(
            """\
            class Pure:
                def __init__(self):
                    self.k = 1

                def f(self, xs):
                    out = []
                    for x in xs:
                        out.append(x * self.k)
                    return out
            """
        )
        assert _ids(report) == []

    def test_one_violation_per_class(self):
        report = _lint(
            """\
            class Meter:
                def a(self):
                    self.x = 1

                def b(self):
                    self.y = 2
            """
        )
        assert _ids(report) == ["RL008"]


# ----------------------------------------------------------------------
# RL009 silent-except
# ----------------------------------------------------------------------
class TestRL009:
    def test_bare_except_pass_fires(self):
        report = _lint(
            """\
            def f():
                try:
                    g()
                except:
                    pass
            """
        )
        assert _ids(report) == ["RL009"]

    def test_broad_except_pass_fires(self):
        for caught in ("Exception", "BaseException"):
            report = _lint(
                f"""\
                def f():
                    try:
                        g()
                    except {caught}:
                        pass
                """
            )
            assert _ids(report) == ["RL009"], caught

    def test_broad_tuple_member_fires(self):
        report = _lint(
            """\
            def f():
                try:
                    g()
                except (OSError, Exception):
                    ...
            """
        )
        assert _ids(report) == ["RL009"]

    def test_narrow_except_pass_is_quiet(self):
        report = _lint(
            """\
            def f():
                try:
                    g()
                except FileNotFoundError:
                    pass
            """
        )
        assert _ids(report) == []

    def test_observable_handler_is_quiet(self):
        report = _lint(
            """\
            import logging

            def f():
                try:
                    g()
                except Exception as err:
                    logging.getLogger(__name__).warning("g failed: %s", err)
            """
        )
        assert _ids(report) == []

    def test_reraise_is_quiet(self):
        report = _lint(
            """\
            def f():
                try:
                    g()
                except Exception:
                    raise
            """
        )
        assert _ids(report) == []

    def test_outside_fl_is_out_of_scope(self):
        report = _lint(
            """\
            def f():
                try:
                    g()
                except Exception:
                    pass
            """,
            "src/repro/nn/fixture.py",
        )
        assert _ids(report) == []


# ----------------------------------------------------------------------
# pragma suppression
# ----------------------------------------------------------------------
class TestPragmas:
    def test_same_line_pragma_with_reason_suppresses(self):
        report = _lint(
            """
            import numpy as np
            x = np.random.rand(3)  # repro-lint: disable=RL001 fixture noise source
            """
        )
        assert _ids(report) == []
        assert report.suppressed == 1

    def test_preceding_line_pragma_suppresses(self):
        report = _lint(
            """
            import numpy as np
            # repro-lint: disable=RL001 fixture noise source
            x = np.random.rand(3)
            """
        )
        assert _ids(report) == []
        assert report.suppressed == 1

    def test_multiple_ids_in_one_pragma(self):
        report = _lint(
            """
            import numpy as np

            # repro: hotpath
            def f():
                # repro-lint: disable=RL001,RL005 fixture exercises both rules
                return np.random.rand(3), np.empty(3)
            """,
            "src/repro/nn/kern.py",
        )
        assert _ids(report) == []
        assert report.suppressed == 2

    def test_bare_pragma_reports_rl000_and_suppresses_nothing(self):
        report = _lint(
            """
            import numpy as np
            x = np.random.rand(3)  # repro-lint: disable=RL001
            """
        )
        assert sorted(_ids(report)) == ["RL000", "RL001"]
        assert report.suppressed == 0

    def test_wrong_rule_id_does_not_suppress(self):
        report = _lint(
            """
            import numpy as np
            x = np.random.rand(3)  # repro-lint: disable=RL003 wrong rule named
            """
        )
        assert _ids(report) == ["RL001"]
        assert report.suppressed == 0


# ----------------------------------------------------------------------
# engine plumbing + CLI
# ----------------------------------------------------------------------
class TestEngineAndCli:
    def test_rule_registry_is_complete(self):
        ids = [r.rule_id for r in RULES]
        assert ids == sorted(ids)
        # RL007 (deprecated-import) is retired; its id is not reused.
        assert set(RULES_BY_ID) == {
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL008", "RL009",
        }
        assert all(r.summary for r in RULES)

    def test_syntax_error_is_reported_not_raised(self):
        report = _lint("def broken(:\n")
        assert [v.rule_name for v in report.violations] == ["syntax-error"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "nn" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nx = np.random.rand(3)\n")
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RL001" in out and "bad.py:2" in out

        bad.write_text("import numpy as np\nrng = np.random.default_rng(0)\n")
        assert lint_main([str(tmp_path)]) == 0

    def test_cli_select_restricts_rules(self, tmp_path):
        f = tmp_path / "f.py"
        f.write_text("import numpy as np\nx = np.random.rand(3)\n")
        assert lint_main([str(f)]) == 1
        assert lint_main(["--select", "RL003", str(f)]) == 0
        assert lint_main(["--select", "RL999", str(f)]) == 2

    def test_cli_usage_errors(self, capsys):
        assert lint_main([]) == 2
        assert lint_main(["definitely/not/a/path.py"]) == 2
        assert lint_main(["--list-rules"]) == 0
        assert "RL004" in capsys.readouterr().out

    def test_repo_tree_lints_clean_with_zero_suppressions(self):
        report = lint_paths(
            [REPO / "src", REPO / "benchmarks", REPO / "examples"]
        )
        assert report.format_lines() == []
        assert report.suppressed == 0

    def test_round_stages_have_one_call_site(self):
        """The sync barrier and the async engine share one set of round
        stages (``repro.fl.rounds``); a second call site for any of these
        seams means the round loop has forked again."""
        seams = ("encode_update", "admit", "drain_evicted", "SchedulerRecord")
        sites: dict[str, list[str]] = {name: [] for name in seams}

        def walk(node: ast.AST, where: str) -> None:
            for child in ast.iter_child_nodes(node):
                scope = where
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scope = f"{where}:{child.name}"
                elif isinstance(child, ast.Call):
                    func = child.func
                    if isinstance(func, ast.Attribute) and func.attr in seams[:3]:
                        sites[func.attr].append(where)
                    elif isinstance(func, ast.Name) and func.id == seams[3]:
                        sites[func.id].append(where)
                walk(child, scope)

        for path in sorted((REPO / "src" / "repro" / "fl").rglob("*.py")):
            # export.py is the log codec: it rebuilds SchedulerRecords from
            # checkpoint payloads, it does not run rounds.
            if path.name != "export.py":
                walk(ast.parse(path.read_text()), path.name)
        assert {name: len(found) for name, found in sites.items()} == dict.fromkeys(
            seams, 1
        ), sites

    def test_scheduling_has_one_pool_type(self):
        """``FleetView`` is the only pool selectors take and ``FleetStore``
        the only home of scheduler state; each shape below is how the
        ``list[FLClient]`` / unbound / private-copy fork would regrow.  The
        store's rows are fixed at registration and its in-flight set is one
        bool column: a second in-flight copy (a set, a sorted array), an
        exclusion view shape or a row-removal method may not regrow."""
        src = REPO / "src" / "repro"
        trees = {p: ast.parse(p.read_text()) for p in sorted(src.rglob("*.py"))}
        regrown: list[str] = []

        def functions(tree, names):
            return [
                n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name in names
            ]

        def assigned_attrs(tree):
            return {
                t.attr
                for n in ast.walk(tree)
                if isinstance(n, (ast.Assign, ast.AnnAssign))
                for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
                if isinstance(t, ast.Attribute)
            }

        for path, tree in trees.items():
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and "FleetView" in ast.dump(node.args[1])
                ):
                    regrown.append(f"{path.name}:{node.lineno} isinstance(_, FleetView)")
        sched = src / "fl" / "scheduling"
        pacing = next(
            n for n in trees[sched / "pacing.py"].body
            if isinstance(n, ast.ClassDef) and n.name == "QuantilePacing"
        )
        for fn in functions(pacing, {"__init__"}) + functions(
            trees[sched / "__init__.py"], {"make_pacing"}
        ):
            if "clients" in {a.arg for a in fn.args.args + fn.args.kwonlyargs}:
                regrown.append(f"{fn.name} takes clients")
        waves = [
            fn
            for name in ("base.py", "straggler.py")
            for fn in functions(trees[sched / name], {"resolve_wave"})
        ]
        assert len(waves) == 2
        for fn in waves:
            if fn.args.defaults or fn.args.args[-1].arg != "fleet":
                regrown.append(f"resolve_wave:{fn.lineno} fleet is optional")
        if "_utility" in assigned_attrs(trees[sched / "selectors.py"]):
            regrown.append("selectors.py assigns _utility")
        engine = next(
            n for n in trees[src / "fl" / "async_engine.py"].body
            if isinstance(n, ast.ClassDef) and n.name == "BufferedAsyncEngine"
        )
        if "_in_flight" in assigned_attrs(engine):
            regrown.append("BufferedAsyncEngine assigns _in_flight")
        fleet = {
            n.name: n for n in trees[sched / "fleet.py"].body if isinstance(n, ast.ClassDef)
        }
        for name in ("FleetStore", "FleetView"):
            cls = fleet[name]
            for attr in assigned_attrs(cls) - {"_in_flight"}:
                if "in_flight" in attr:
                    regrown.append(f"{name} assigns {attr}")
            for node in ast.walk(cls):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                parts = [node.value, getattr(node, "annotation", None)]
                if any(
                    isinstance(n, (ast.Set, ast.SetComp))
                    or isinstance(n, ast.Name) and n.id in ("set", "frozenset")
                    for part in parts if part is not None
                    for n in ast.walk(part)
                ):
                    regrown.append(f"{name}:{node.lineno} holds a set")
            for fn in functions(cls, {"remove", "compact", "deregister"}):
                regrown.append(f"{name}.{fn.name} removes rows")
        view_init = functions(fleet["FleetView"], {"__init__"})[0]
        if [a.arg for a in view_init.args.args] != ["self", "store", "rows"]:
            regrown.append("FleetView takes a shape beside its rows")
        for path in sorted(sched.glob("*.py")):
            for node in ast.walk(trees[path]):
                if getattr(node, "id", getattr(node, "name", None)) == "positions_to_rows":
                    regrown.append(f"{path.name}:{node.lineno} positions_to_rows")
                if isinstance(node, ast.keyword) and node.arg == "excluded":
                    regrown.append(f"{path.name}:{node.lineno} excluded=")
        assert regrown == []

    def test_executor_has_one_wave_runner(self):
        """Backends differ only in their pool (``_make_pool``) and the
        process backend's per-pass submit (``_submitter``, which publishes
        the snapshot once): the two entry points (``train_round`` and the
        sweep's ``eval_round`` — a third would be a second way to compute a
        sweep), the one wave loop ``_run_wave``, the publish guard, the
        retry verdict (one ``_dispose`` call, in that loop) and the
        permanent-failure sentinel each exist once, no lock orders the
        fault ledger (the loop writes it from one thread, in job order),
        and the snapshot protocol lives in ``snapshot.py`` — each
        shape below is how a per-backend copy would regrow."""
        fl = REPO / "src" / "repro" / "fl"
        trees = {p: ast.parse(p.read_text()) for p in sorted(fl.rglob("*.py"))}
        executor = trees[fl / "executor.py"]
        rounds = ("train_round", "eval_round")
        once = (*rounds, "_run_wave")

        def calls(tree, leaf):
            return [
                n for n in ast.walk(tree)
                if isinstance(n, ast.Call)
                and getattr(n.func, "attr", getattr(n.func, "id", None)) == leaf
            ]

        owners = {
            name: [
                cls.name
                for tree in trees.values()
                for cls in ast.walk(tree)
                if isinstance(cls, ast.ClassDef)
                and any(isinstance(f, ast.FunctionDef) and f.name == name for f in cls.body)
            ]
            for name in once
        }
        assert owners == dict.fromkeys(once, ["RoundExecutor"])
        backends = {
            cls.name: sorted(f.name for f in cls.body if isinstance(f, ast.FunctionDef))
            for cls in executor.body
            if isinstance(cls, ast.ClassDef)
            and any(getattr(b, "id", None) == "RoundExecutor" for b in cls.bases)
        }
        assert backends == {
            "SerialExecutor": ["_make_pool"],
            "ThreadPoolRoundExecutor": ["_make_pool"],
            "ProcessPoolRoundExecutor": [
                "__init__", "_make_pool", "_publish_resilient", "_submitter", "close",
            ],
        }
        assert not [
            n for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.FunctionDef) and n.name == "_run_job"
        ]
        base = next(
            n for n in executor.body
            if isinstance(n, ast.ClassDef) and n.name == "RoundExecutor"
        )
        entry_points = [
            f.name for f in base.body
            if isinstance(f, ast.FunctionDef) and f.name.endswith("_round")
        ]
        assert entry_points == list(rounds)
        guards = {
            f.name: len(calls(f, "published"))
            for f in base.body
            if isinstance(f, ast.FunctionDef) and calls(f, "published")
        }
        assert guards == dict.fromkeys(rounds, 1)
        assert len(calls(executor, "published")) == len(rounds)
        assert sum(len(calls(tree, "ItemFailure")) for tree in trees.values()) == 1
        # _attempt: called by _proc_job; in-process it is handed to the pool.
        assert [len(calls(executor, name)) for name in ("_attempt", "_dispose")] == [1, 1]
        run_wave = next(
            f for f in base.body if isinstance(f, ast.FunctionDef) and f.name == "_run_wave"
        )
        assert len(calls(run_wave, "_dispose")) == 1
        assert calls(executor, "Lock") == calls(executor, "RLock") == []
        for leaf in ("write_snapshot_segment", "read_snapshot_segment", "attach_segment"):
            assert calls(executor, leaf) == [], leaf
        assert not any(
            "shared_memory" in ast.dump(n)
            for n in ast.walk(executor)
            if isinstance(n, (ast.Import, ast.ImportFrom))
        )

    def test_run_knobs_are_declared_once(self):
        """A run knob is one ``CoordinatorConfig`` field, one check there and
        one row of the CLI's flag table; each shape below is how a second
        declaration (a re-parse, a restated default, a strategy-side copy)
        would regrow."""
        src = REPO / "src" / "repro"
        trees = {p: ast.parse(p.read_text()) for p in sorted(src.rglob("*.py"))}
        # Spec parser -> its defining module; everyone else gets the parsed
        # object from the config's views.
        parsers = {
            "FaultConfig.parse": src / "fl" / "faults.py",
            "TransportConfig.parse": src / "fl" / "transport.py",
            "parse_availability": src / "fl" / "scheduling" / "availability.py",
        }
        sites: dict[str, list[str]] = {name: [] for name in parsers}

        def walk(node: ast.AST, path: Path, owner: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Call):
                    called = ast.unparse(child.func)
                    if called in parsers and path != parsers[called]:
                        sites[called].append(f"{path.name}:{owner}")
                walk(child, path, child.name if isinstance(child, ast.ClassDef) else owner)

        for path, tree in trees.items():
            walk(tree, path, "<module>")
        assert sites == dict.fromkeys(parsers, ["coordinator.py:CoordinatorConfig"])

        cfg_fields = dataclasses.fields(CoordinatorConfig)
        defaults = {
            (type(f.default), f.default)
            for f in cfg_fields
            if type(f.default) in (str, int, float)
        }
        restated: list[str] = []
        for node in ast.walk(trees[src / "cli.py"]):
            literals: list[ast.AST] = []
            if isinstance(node, ast.Compare):
                for operand in (node.left, *node.comparators):
                    literals += getattr(operand, "elts", [operand])
            elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith("add_argument"):
                literals = [kw.value for kw in node.keywords if kw.arg == "default"]
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "_Flag":
                # A config-backed row gets argparse.SUPPRESS from _add_flags
                # and may not carry a default of its own.
                if ast.unparse(node.args[1]) != "None" and "default" in ast.unparse(node.args[2]):
                    restated.append(f"row {ast.unparse(node.args[0])} sets a default")
            restated += [
                f"cli.py:{lit.lineno} restates {lit.value!r}"
                for lit in literals
                if isinstance(lit, ast.Constant) and (type(lit.value), lit.value) in defaults
            ]
        assert restated == []

        strategy_side = [
            ast.unparse(n)
            for n in ast.walk(trees[src / "core" / "config.py"])
            if isinstance(n, (ast.Import, ast.ImportFrom)) and ".fl" in ast.unparse(n)
        ]
        assert strategy_side == []
        assert len(cfg_fields) == 32
        assert len(dataclasses.fields(FedTransConfig)) == 21

    def test_a_sweep_has_one_path(self):
        """A fleet sweep is one executor wave over every deployment group;
        each shape below is how a second route (a switch on the config or
        on a cache, a per-client loop for strategies that override
        ``client_logits``, a wave called from elsewhere) would regrow."""
        src = REPO / "src" / "repro"
        trees = {p: ast.parse(p.read_text()) for p in sorted(src.rglob("*.py"))}
        coordinator = next(
            n for n in trees[src / "fl" / "coordinator.py"].body
            if isinstance(n, ast.ClassDef) and n.name == "Coordinator"
        )
        evaluate = next(
            f for f in coordinator.body
            if isinstance(f, ast.FunctionDef) and f.name == "evaluate"
        )
        branches = [
            ast.unparse(n.test)
            for n in ast.walk(evaluate)
            if isinstance(n, (ast.If, ast.IfExp, ast.While, ast.Match))
        ]
        assert branches == []
        # One wave, reached through the executor attribute at call time.
        calls = [ast.unparse(n.func) for n in ast.walk(evaluate) if isinstance(n, ast.Call)]
        assert calls.count("self.executor.eval_round") == 1
        wave_callers = sorted(
            path.name
            for path, tree in trees.items()
            for n in ast.walk(tree)
            if isinstance(n, ast.Call)
            and getattr(n.func, "attr", None) == "eval_round"
        )
        assert wave_callers == ["coordinator.py"]
        assert [p for p in trees if p.stem == "eval_cache"] == []
        assert "eval_cache" not in {f.name for f in dataclasses.fields(CoordinatorConfig)}
        overriders = [
            f"{path.name}:{cls.name}"
            for path, tree in trees.items()
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name != "Strategy"
            and any(
                isinstance(f, ast.FunctionDef) and f.name == "client_logits"
                for f in cls.body
            )
        ]
        assert overriders == []

    def test_a_cell_is_declared_once(self):
        """A cell kind is a constructor record + wiring rows that ``Cell``
        executes; each shape below is how a per-class copy (a transform
        override, a spec or deepen branch on the concrete class) would
        regrow."""
        nn = REPO / "src" / "repro" / "nn"
        cells = ast.parse((nn / "cells.py").read_text())
        classes = [n for n in cells.body if isinstance(n, ast.ClassDef)]
        table_driven = {"widen_output", "widen_internal", "expand_input", "narrow", "axis_roles"}
        owners = {
            (cls.name, fn.name)
            for cls in classes
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name in table_driven
        }
        assert owners == {("Cell", name) for name in table_driven}

        concrete = {c.name for c in classes if c.name.endswith("Cell") and c.name != "Cell"}
        # ...and every public one has its row in the spec type table.
        assert set(CELL_TYPES) == {c for c in concrete if not c.startswith("_")}

        def class_branches(node: ast.AST) -> list[str]:
            found = []
            for n in ast.walk(node):
                if isinstance(n, ast.Call) and ast.unparse(n.func) in ("isinstance", "issubclass"):
                    tested = n.args[1]
                elif isinstance(n, ast.Compare):
                    tested = n
                else:
                    continue
                named = {
                    x.id if isinstance(x, ast.Name) else x.value
                    for x in ast.walk(tested)
                    if isinstance(x, (ast.Name, ast.Constant))
                }
                if named & concrete:
                    found.append(f"line {n.lineno}: {ast.unparse(n)[:60]}")
            return found

        assert class_branches(ast.parse((nn / "serialization.py").read_text())) == []
        model = ast.parse((nn / "model.py").read_text())
        (cell_model,) = [n for n in model.body if isinstance(n, ast.ClassDef) and n.name == "CellModel"]
        deepen = [
            fn
            for fn in cell_model.body
            if isinstance(fn, ast.FunctionDef) and fn.name in ("deepen_after", "_make_identity_like")
        ]
        assert deepen and [b for fn in deepen for b in class_branches(fn)] == []

    def test_a_tensor_is_declared_once(self):
        """A layer names its tensors once (``param_names`` / ``state_names``)
        and ``CellModel.tensors`` is the one key builder; each shape below is
        how a second tensor list or key format would regrow."""
        import repro.nn.attention as attention
        import repro.nn.layers as layers

        src = REPO / "src" / "repro"
        trees = {p: ast.parse(p.read_text()) for p in sorted(src.rglob("*.py"))}
        layer_classes = {
            cls
            for module in (layers, attention)
            for cls in vars(module).values()
            if isinstance(cls, type) and issubclass(cls, layers.Layer)
        }
        # (a) the accessors are Layer's alone.
        derived = {"params", "grads", "state", "resize_grads"}
        assert [
            f"{cls.__name__}.{name}"
            for cls in layer_classes - {layers.Layer}
            for name in derived & set(vars(cls))
        ] == []
        # (b) a gradient buffer is bound by resize_grads (or an arena's view)
        # only: no `x.g_* = ...` anywhere.
        assert [
            f"{path.name}:{node.lineno}"
            for path, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Attribute) and target.attr.startswith("g_")
        ] == []
        # (c) a resizable tensor is a declared one.
        for cls in layer_classes:
            assert set(cls.tensor_axes) <= {*cls.param_names, *cls.state_names}, cls

        def key_joins(node: ast.AST) -> list[str]:
            """f-strings joining a cell id to a suffix with "/"."""
            return [
                ast.unparse(n)
                for n in ast.walk(node)
                if isinstance(n, ast.JoinedStr)
                and any(
                    isinstance(a, ast.FormattedValue)
                    and ast.unparse(a.value).endswith("cell_id")
                    and isinstance(b, ast.Constant)
                    and str(b.value).startswith("/")
                    for a, b in zip(n.values, n.values[1:])
                )
            ]

        def rsplits(node: ast.AST) -> list[str]:
            return [
                ast.unparse(n)
                for n in ast.walk(node)
                if isinstance(n, ast.Call) and ast.unparse(n.func).endswith(".rsplit")
            ]

        # (d) the enumerator is the only full-key builder...
        joins = {path.name: key_joins(tree) for path, tree in trees.items() if key_joins(tree)}
        assert joins.pop("model.py") == ["f'{cell.cell_id}/{lname}.{name}'"]
        # ...fluid keeps its per-cell score key, subnet its score lookups...
        assert joins.pop("fluid.py") == ["f'{cell.cell_id}/{role}'"]
        assert sorted(joins.pop("subnet.py")) == [
            "f'{cell.cell_id}/hidden'", "f'{cell.cell_id}/out'"
        ]
        assert joins == {}
        # ...and the consumers read keys from it instead of parsing them.
        (index_map,) = [
            n
            for n in trees[src / "baselines" / "subnet.py"].body
            if isinstance(n, ast.FunctionDef) and n.name == "param_index_map"
        ]
        consumers = [
            index_map,
            trees[src / "fl" / "shm.py"],
            trees[src / "core" / "activeness.py"],
            trees[src / "core" / "transform.py"],
        ]
        assert [hit for node in consumers for hit in key_joins(node) + rsplits(node)] == []

    def test_a_run_record_is_declared_once(self):
        """A run record's dataclass is its checkpoint codec
        (``repro.stateful.record_state``); each shape below is how a second
        field list (a hand-written encoder/decoder, a constructor call in a
        decoder, a defaulted read of an absent key) would regrow."""
        src = REPO / "src" / "repro"
        trees = {p: ast.parse(p.read_text()) for p in sorted(src.rglob("*.py"))}

        def functions(tree: ast.AST):
            return [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]

        codecs = {
            f"{path.name}:{fn.name}"
            for path, tree in trees.items()
            if (src / "fl") in path.parents
            for fn in functions(tree)
            if fn.name.endswith(("_to_state", "_from_state"))
        }
        # ...the one survivor being the schema-tag wrapper around the codec.
        assert codecs == {"export.py:log_from_state"}

        log_records = (
            TrainingLog, RoundRecord, SchedulerRecord, ArrivalRecord, FaultRecord, EvalRecord,
        )
        clock_records = (_Pending, ClientUpdate)
        constructed = [
            f"{name}:{node.lineno} {ast.unparse(node.func)}(...)"
            for name in ("export.py", "types.py")
            for node in ast.walk(trees[src / "fl" / name])
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) in {cls.__name__ for cls in log_records + clock_records}
        ]
        assert constructed == []

        def names_a_field(fn: ast.FunctionDef, records) -> list[str]:
            fields = {f.name for cls in records for f in dataclasses.fields(cls)}
            mentioned = {
                n.value if isinstance(n, ast.Constant) else n.attr
                for n in ast.walk(fn)
                if isinstance(n, (ast.Constant, ast.Attribute))
            }
            return sorted(fields & {m for m in mentioned if isinstance(m, str)})

        by_name = {
            (path.name, fn.name): fn
            for path, tree in trees.items()
            for fn in functions(tree)
        }
        for fn_name in ("log_state_dict", "log_from_state"):
            assert names_a_field(by_name["export.py", fn_name], log_records) == []
        (clock,) = [
            n
            for n in trees[src / "fl" / "async_engine.py"].body
            if isinstance(n, ast.ClassDef) and n.name == "VirtualClock"
        ]
        for fn in functions(clock):
            if fn.name in ("state_dict", "load_state_dict"):
                assert names_a_field(fn, clock_records) == []

        defaulted = [
            f"{path.relative_to(src)}:{node.lineno} {ast.unparse(node)[:50]}"
            for path, tree in trees.items()
            for fn in functions(tree)
            if fn.name == "load_state_dict"
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
        ]
        assert defaulted == []

    def test_no_pickle_on_a_decode_boundary(self):
        """The snapshot segment, its chain, the checkpoint and the update
        codec decode bytes with strict readers of one marker grammar, and
        the process pool hands its workers the live fleet (a forked worker
        inherits it), so no module under ``src/repro`` imports ``pickle``;
        each shape below is how an unpickle or a second grammar would
        regrow."""
        src = REPO / "src" / "repro"
        found = []
        for path in sorted(src.rglob("*.py")):
            rel = str(path.relative_to(src))
            for n in ast.walk(ast.parse(path.read_text())):
                names = (
                    [a.name for a in n.names] if isinstance(n, ast.Import)
                    else [n.module or ""] if isinstance(n, ast.ImportFrom) else []
                )
                found += [f"{rel}:{n.lineno} imports {m}" for m in names if "pickle" in m]
        holders = sorted(
            str(p.relative_to(src))
            for p in src.rglob("*.py")
            if any(
                isinstance(n, ast.Constant) and n.value == "__array__"
                for n in ast.walk(ast.parse(p.read_text()))
            )
        )
        assert found == [] and holders == ["container.py"], (found, holders)

    def test_a_tree_has_one_container(self):
        """Checkpoint payloads, saved models and snapshot segments are one
        container (``repro.container``) read by one reader; each shape
        below is how a second byte format (a zip archive, an ``np.savez`` /
        ``np.load`` / ``.npy`` file, a second framing of the ``RSNP``
        prefix) would regrow."""
        src = REPO / "src" / "repro"
        regrown, framers = [], set()
        for p in sorted(src.rglob("*.py")):
            rel = str(p.relative_to(src))
            for n in ast.walk(ast.parse(p.read_text())):
                names = (
                    [a.name for a in n.names] if isinstance(n, ast.Import)
                    else [n.module or ""] if isinstance(n, ast.ImportFrom) else []
                )
                regrown += [f"{rel}:{n.lineno} imports {m}" for m in names if "zipfile" in m]
                if isinstance(n, ast.Attribute) and re.fullmatch(
                    r"(np|numpy)\.(savez\w*|load|lib\.format)", ast.unparse(n)
                ):
                    regrown.append(f"{rel}:{n.lineno} uses {ast.unparse(n)}")
                prefix_op = (
                    isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr in ("pack", "pack_into", "unpack", "unpack_from")
                    and "PREFIX" in ast.unparse(n.func.value)
                )
                if prefix_op or (isinstance(n, ast.Constant) and n.value in (b"RSNP", "<4sHQ")):
                    framers.add(rel)
        assert regrown == [] and framers == {"container.py"}, (regrown, framers)

    def test_a_snapshot_is_one_segment(self):
        """A process-backend snapshot is one full, raw segment, reused when
        no model version moved; each shape below is how the delta chain
        would regrow (a compaction period, a ``"delta"`` segment kind, the
        publisher's shadow byte copies a run-length diff anchors on, the
        segment layer reaching into the transport codecs)."""
        fl = REPO / "src" / "repro" / "fl"
        regrown = []
        for p in (fl / "snapshot.py", fl / "shm.py"):
            for n in ast.walk(ast.parse(p.read_text())):
                name = (
                    n.id if isinstance(n, ast.Name)
                    else n.attr if isinstance(n, ast.Attribute) else None
                )
                if name in ("FULL_SNAPSHOT_EVERY", "_shadow"):
                    regrown.append(f"{p.name}:{n.lineno} names {name}")
                if isinstance(n, ast.Constant) and n.value == "delta":
                    regrown.append(f"{p.name}:{n.lineno} has a 'delta' literal")
                if (
                    p.name == "shm.py" and isinstance(n, ast.ImportFrom)
                    and (n.module or "").endswith("transport")
                ):
                    regrown.append(f"{p.name}:{n.lineno} imports from .transport")
        assert regrown == [], regrown

    # The classes whose payload is not a fixed set of named fields keep a
    # hand-written, strict reader (and writer); nothing else may.
    HAND_WRITTEN_PAYLOADS = {
        "Coordinator": "the RNG state and the process-global id counters",
        "FleetStore": "columnar: one array per column, checked against the fleet's rows",
        "RoundTimeStats": "ring buffers, restored with their sorted copies",
        "ClientManager": "columnar: a utility block shaped by its client and model axes",
        "TransportCodec": "columnar: residuals as columns plus one arena per dtype",
    }

    def test_a_component_payload_is_declared_once(self):
        """A component's payload is its ``state_fields`` table, from which
        ``repro.stateful`` derives both directions.  Outside ``stateful.py``
        and the allowlist above, no class writes ``state_dict`` by hand, and
        a ``load_state_dict`` override is ``super().load_state_dict(payload)``
        followed by a cache rebuild that reads no ``payload[...]`` key."""
        src = REPO / "src" / "repro"
        regrown, pairs = [], set()
        for path in sorted(src.rglob("*.py")):
            if path.name == "stateful.py":
                continue
            for cls in ast.walk(ast.parse(path.read_text())):
                if not isinstance(cls, ast.ClassDef):
                    continue
                methods = {
                    f.name: f for f in cls.body
                    if isinstance(f, ast.FunctionDef) and f.name in ("state_dict", "load_state_dict")
                }
                where = f"{path.relative_to(src)}:{cls.name}"
                if cls.name in self.HAND_WRITTEN_PAYLOADS:
                    if len(methods) == 2:
                        pairs.add(cls.name)
                    continue
                if "state_dict" in methods:
                    regrown.append(f"{where} writes its payload by hand")
                load = methods.get("load_state_dict")
                if load is None:
                    continue
                first = ast.unparse(load.body[0])
                if first != "super().load_state_dict(payload)":
                    regrown.append(f"{where} does not load through the declaration first")
                regrown += [
                    f"{where} reads {ast.unparse(n)}"
                    for stmt in load.body[1:]
                    for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and n.id == load.args.args[1].arg
                ]
        assert regrown == []
        assert pairs == set(self.HAND_WRITTEN_PAYLOADS)
        assert len(pairs) <= 8

    def test_a_client_has_one_utility_table(self):
        """FedTrans's client × model utilities are one table inside
        ``ClientManager``; each shape below is how the second client store
        (its own class and module, a ``store`` attribute on the manager, a
        walk over the resident clients on every deployment tie-break)
        would regrow."""
        src = REPO / "src" / "repro"
        regrown = [
            f"{p.relative_to(src)}:{n.lineno} names ClientStateStore"
            for p in sorted(src.rglob("*.py"))
            for n in ast.walk(ast.parse(p.read_text()))
            if "ClientStateStore"
            in (getattr(n, "name", None), getattr(n, "id", None), getattr(n, "attr", None))
        ]
        if (src / "fl" / "scheduling" / "store.py").exists():
            regrown.append("fl/scheduling/store.py exists")
        tree = ast.parse((src / "core" / "client_manager.py").read_text())
        (manager,) = [
            n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ClientManager"
        ]
        regrown += [
            f"ClientManager assigns {ast.unparse(t)}"
            for n in ast.walk(manager)
            if isinstance(n, (ast.Assign, ast.AnnAssign))
            for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
            if isinstance(t, ast.Attribute) and t.attr == "store"
        ]
        # best_model and the methods it reaches on self may only iterate
        # over the model axis (the column map), never over resident rows.
        methods = {f.name: f for f in manager.body if isinstance(f, ast.FunctionDef)}
        best = methods["best_model"]
        reached = [best] + [
            methods[n.func.attr]
            for n in ast.walk(best)
            if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and ast.unparse(n.func.value) == "self"
            and n.func.attr in methods
        ]
        regrown += [
            f"{fn.name} iterates {ast.unparse(n.iter) if hasattr(n, 'iter') else 'in a while'}"
            for fn in reached
            for n in ast.walk(fn)
            if isinstance(n, ast.While)
            or (
                isinstance(n, (ast.For, ast.comprehension))
                and not ast.unparse(n.iter).startswith("self._col")
            )
        ]
        assert regrown == []

    def test_the_package_declares_its_metadata(self):
        """``pyproject.toml`` names the package, so ``setup.py`` (the
        editable-install shim) reads it instead of ``UNKNOWN``."""
        out = subprocess.run(
            [sys.executable, "setup.py", "--name"], cwd=REPO,
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "repro"

    def test_a_performance_claim_has_one_ledger(self):
        """A speed or cost claim is a row of the root ``BENCH_e2e.json``
        (written by ``benchmarks/record_e2e.py`` from the frozen
        ``benchmarks/e2e`` harness) or a tier-1 assertion; each shape below
        is how a single-snapshot bench (its own root JSON, a script writing
        it, a process-wide switch in ``src/`` that only its baseline flips)
        would regrow."""
        assert sorted(p.name for p in REPO.glob("BENCH_*.json")) == ["BENCH_e2e.json"]
        bench = REPO / "benchmarks"
        root_file = re.compile(r"\bBENCH_[a-z0-9]+")
        writers = sorted(
            str(p.relative_to(bench))
            for p in bench.rglob("*.py")
            if p.name != "record_e2e.py"
            and (bench / "e2e") not in p.parents
            and root_file.search(p.read_text())
        )
        assert writers == []
        # The setter, the getter and the module global of the pooling switch.
        switches = ("workspace_pooling", "_pooling_enabled")
        named = sorted(
            f"{p.relative_to(REPO)}: {s}"
            for p in (REPO / "src").rglob("*.py")
            for s in switches
            if s in p.read_text()
        )
        assert named == []

    def test_every_name_has_a_caller(self):
        """Every public top-level ``def``/``class`` under ``src/repro`` is
        named by a ``Name`` or ``Attribute`` node in ``src/``,
        ``benchmarks/`` or ``examples/``, and every ``__all__`` entry of a
        package ``__init__`` is imported through that package by one of
        those files.  Tests, ``__all__`` lists and re-export imports do not
        count; each failure below is a helper only its own unit test runs,
        or a re-export nobody imports."""
        # Kept without a caller in the program, each for the reason given.
        allowlist = [
            "analysis.sanitize.sanitizer_enabled",  # set_sanitizer's read side; tests scope with it
            "core.aggregator.project_overlap",  # the Eq. 5 oracle
            "fl.export.load_log",  # reads --save-log files; its round trip proves them complete
            "fl.shm.segment_exists",  # the probe the segment-leak tests use
            "fl.transport.decode_indices",  # proves the metered encode_indices bytes decode
            "fl.transport.rle_decode_bytes",  # proves the metered rle_encode_bytes bytes decode
            "nn.gradcheck.check_model_gradients",  # the gradient oracle
            "nn.serialization.load_model",  # reads --save-models dirs; round trip proves them
        ]
        uncalled, unimported = _caller_scan(REPO)
        # ...and an entry that gains a caller leaves the list.
        unexplained = sorted(set(uncalled) ^ set(allowlist))
        assert unexplained == [], "\n".join(unexplained)
        assert unimported == [], "\n".join(unimported)


class TestCallerScan:
    """The every-name-has-a-caller guard, on synthetic repository trees."""

    @staticmethod
    def _repo(tmp_path: Path, files: dict[str, str]) -> Path:
        for top in ("src/repro", "benchmarks", "examples", "tests"):
            (tmp_path / top).mkdir(parents=True, exist_ok=True)
        for rel, text in {"src/repro/__init__.py": "", **files}.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(dedent(text))
        return tmp_path

    _MOD = {
        "src/repro/pkg/__init__.py": "",
        "src/repro/pkg/mod.py": """\
            def orphan():
                pass

            def _helper():
                pass

            class Used:
                pass
            """,
    }

    def test_unreferenced_definition_is_reported(self, tmp_path):
        root = self._repo(tmp_path, {
            **self._MOD,
            "benchmarks/b.py": "from repro.pkg.mod import Used\n\nUsed()\n",
        })
        assert _caller_scan(root) == (["pkg.mod.orphan"], [])

    def test_attribute_reference_counts(self, tmp_path):
        root = self._repo(tmp_path, {
            **self._MOD,
            "examples/e.py": "import repro.pkg.mod as mod\n\nmod.orphan()\nmod.Used()\n",
        })
        assert _caller_scan(root) == ([], [])

    def test_all_entry_and_tests_do_not_count(self, tmp_path):
        root = self._repo(tmp_path, {
            **self._MOD,
            "src/repro/pkg/mod.py": dedent(self._MOD["src/repro/pkg/mod.py"])
            + '__all__ = ["orphan", "Used"]\nUsed()\n',
            "tests/test_mod.py": "from repro.pkg.mod import orphan\n\norphan()\n",
        })
        assert _caller_scan(root) == (["pkg.mod.orphan"], [])

    def test_export_not_imported_through_package_is_reported(self, tmp_path):
        root = self._repo(tmp_path, {
            **self._MOD,
            "src/repro/pkg/__init__.py": """\
                from .mod import Used, orphan

                __all__ = ["Used", "orphan"]
                """,
            "benchmarks/b.py": """\
                from repro.pkg import Used
                from repro.pkg.mod import orphan

                Used()
                orphan()
                """,
        })
        assert _caller_scan(root) == ([], ["repro.pkg.orphan"])

    def test_relative_import_inside_src_counts(self, tmp_path):
        root = self._repo(tmp_path, {
            **self._MOD,
            "src/repro/pkg/__init__.py": """\
                from .mod import Used, orphan

                __all__ = ["Used", "orphan"]
                """,
            "src/repro/user.py": "from .pkg import orphan\n\norphan()\n",
            "src/repro/deep/inner.py": "from ..pkg import Used\n\nUsed()\n",
        })
        assert _caller_scan(root) == ([], [])

    def test_relative_import_outside_src_is_ignored(self, tmp_path):
        root = self._repo(tmp_path, {
            **self._MOD,
            "src/repro/pkg/__init__.py": 'from .mod import Used\n\n__all__ = ["Used"]\n',
            "benchmarks/b.py": "from .pkg import Used\n\nUsed()\n",
        })
        assert _caller_scan(root) == (["pkg.mod.orphan"], ["repro.pkg.Used"])

    def test_reexport_import_is_not_a_use(self, tmp_path):
        root = self._repo(tmp_path, {
            **self._MOD,
            "src/repro/__init__.py": 'from .pkg import Used\n\n__all__ = ["Used"]\n',
            "src/repro/pkg/__init__.py": 'from .mod import Used\n\n__all__ = ["Used"]\n',
            "examples/e.py": "from repro.pkg.mod import Used, orphan\n\nUsed()\norphan()\n",
        })
        uncalled, unimported = _caller_scan(root)
        assert uncalled == []
        assert sorted(unimported) == ["repro.Used", "repro.pkg.Used"]


# ----------------------------------------------------------------------
# runtime sanitizer: unit behavior
# ----------------------------------------------------------------------
def _one_model():
    rng = np.random.default_rng(0)
    return mlp((8,), 4, rng, width=8)


class TestSanitizerUnits:
    def test_published_guard_blocks_writes_and_restores(self):
        sanitize.set_sanitizer(True)
        m = _one_model()
        arr = next(iter(m.params().values()))
        with sanitize.published({m.model_id: m}):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 99.0
        arr[0, 0] = 1.0  # writable again

    def test_published_is_noop_when_disabled(self):
        sanitize.set_sanitizer(False)
        m = _one_model()
        arr = next(iter(m.params().values()))
        with sanitize.published({m.model_id: m}):
            arr[0, 0] = 1.0  # allowed: sanitizer off

    def test_published_nests_and_preserves_prefrozen_views(self):
        sanitize.set_sanitizer(True)
        m = _one_model()
        arr = next(iter(m.params().values()))
        arr.flags.writeable = False  # pre-frozen (like a worker shm view)
        with sanitize.published({m.model_id: m}):
            with sanitize.published({m.model_id: m}):
                pass
        assert not arr.flags.writeable  # pre-frozen stays frozen
        arr.flags.writeable = True

    def test_fingerprint_covers_params_and_state(self):
        m = _one_model()
        fp0 = model_fingerprint(m)
        arr = next(iter(m.params().values()))
        old = float(arr[0, 0])
        arr[0, 0] = old + 1.0
        assert model_fingerprint(m) != fp0
        arr[0, 0] = old
        assert model_fingerprint(m) == fp0

    def test_version_watch_detects_missed_bump(self):
        sanitize.set_sanitizer(True)
        m = _one_model()
        watch = VersionWatch()
        watch.check(m)
        next(iter(m.params().values()))[0, 0] += 1.0  # no bump_version()
        with pytest.raises(SanitizerError, match="without bump_version"):
            watch.check(m)

    def test_version_watch_accepts_bumped_writes(self):
        sanitize.set_sanitizer(True)
        m = _one_model()
        watch = VersionWatch()
        watch.check(m)
        m.set_params({k: v + 1.0 for k, v in m.params().items()})  # bumps
        watch.check(m)  # no error

    def test_config_sanitize_must_be_bool(self):
        with pytest.raises(ValueError, match="sanitize must be a bool"):
            CoordinatorConfig(sanitize="yes")


# ----------------------------------------------------------------------
# runtime sanitizer: end-to-end on every executor backend
# ----------------------------------------------------------------------
def _coordinator(backend: str, rounds: int = 2) -> Coordinator:
    ds = _flat_dataset(num_clients=8)
    clients = _clients(ds, num_slow=0)
    model = mlp(ds.input_shape, ds.num_classes, np.random.default_rng(0), width=8)
    over = {} if backend == "serial" else {"executor": backend, "max_workers": 2}
    cfg = CoordinatorConfig(
        rounds=rounds,
        clients_per_round=4,
        trainer=TRAINER,
        eval_every=2,
        seed=0,
        sanitize=True,
        **over,
    )
    return Coordinator(fedavg(model.clone(keep_id=True)), clients, cfg)


class TestSanitizerEndToEnd:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_write_after_publish_detected(self, backend, monkeypatch):
        """A work function that writes into a published server model raises
        at the offending statement on shared-memory backends."""
        import repro.fl.executor as ex_mod

        orig = ex_mod._eval_task

        def evil(models, env, task, lo, hi, batch_size):
            arr = next(iter(models[task.model_ids[0]].params().values()))
            arr[0, 0] += 1.0  # the race the guard exists to catch
            return orig(models, env, task, lo, hi, batch_size)

        monkeypatch.setattr(ex_mod, "_eval_task", evil)
        coord = _coordinator(backend)
        try:
            with pytest.raises(ValueError, match="read-only"):
                coord.evaluate(0, 0.0)
        finally:
            coord.close()

    def test_write_after_publish_detected_process(self, monkeypatch):
        """On the process backend the guard protects the coordinator-side
        originals between publish and drain; an injected coordinator-side
        write mid-round raises the same way."""
        orig = SnapshotPublisher.publish

        def evil(self, models, fault_attempt=0):
            arr = next(iter(next(iter(models.values())).params().values()))
            arr[0, 0] += 1.0
            return orig(self, models, fault_attempt=fault_attempt)

        monkeypatch.setattr(SnapshotPublisher, "publish", evil)
        coord = _coordinator("process")
        try:
            with pytest.raises(ValueError, match="read-only"):
                coord.evaluate(0, 0.0)
        finally:
            coord.close()

    def test_missed_bump_detected(self):
        """An in-place model mutation without bump_version() trips the
        fingerprint cross-check at the next snapshot publish (the one
        consumer that trusts a version, on the process backend)."""
        coord = _coordinator("process")
        try:
            coord.evaluate(0, 0.0)
            model = coord.strategy.model
            next(iter(model.params().values()))[0, 0] += 1.0  # no bump
            with pytest.raises(SanitizerError, match="without bump_version"):
                coord.evaluate(1, 0.0)
        finally:
            coord.close()

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_golden_run_bit_identical_under_sanitizer(self, backend):
        """REPRO_SANITIZE changes nothing about a clean run: the default
        golden fixture digest is reproduced exactly, violation-free."""
        with open(GOLDEN) as f:
            golden = json.load(f)
        over = {"sanitize": True}
        if backend != "serial":
            over.update(executor=backend, max_workers=2)
        assert _digest(_golden_run("sync", **over)) == golden["sync"]
