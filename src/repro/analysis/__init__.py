"""repro-lint: static contract checking + a runtime sanitizer mode.

The engine rests on a handful of invariants that no type checker can see —
per-seed determinism through ``SeedSequence`` spawn keys, the
pooled-``Workspace`` allocation discipline of the hot path, and the
shared-memory segment lifecycle.  This package enforces them twice over:

* **Statically** — :mod:`repro.analysis.lint` is an AST-visitor rule
  engine (``python -m repro.analysis.lint src benchmarks examples``)
  whose rules (:data:`repro.analysis.rules.RULES`, ids ``RL001``-``RL009``;
  ``RL004`` and ``RL007`` are retired and their ids are not reused) each
  guard one named contract and are individually suppressible with a
  ``# repro-lint: disable=RL00X <reason>`` pragma.  See ``CONTRACTS.md``
  at the repo root for the rule-by-rule rationale.
* **Dynamically** — :mod:`repro.analysis.sanitize` (``REPRO_SANITIZE=1``
  or ``--sanitize``) flips published model tensors read-only for the
  duration of each executor round, so a write-after-publish race raises
  instead of corrupting a running round.

The static rules catch the *pattern*; the sanitizer catches what the AST
cannot see (writes through aliased references, third-party strategies,
dynamically constructed code paths).
"""

__all__ = ["lint_paths"]


def __getattr__(name: str):
    # The engine and its rules load on first use: the run engine imports
    # only the sanitizer, so a run or a pool worker never compiles them.
    if name == "lint_paths":
        from .engine import lint_paths

        return lint_paths
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
