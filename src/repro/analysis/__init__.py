"""SPMD correctness analyzer: static lint + dynamic sanitizer.

Three pieces, one contract (see DESIGN §8 and §13):

* :mod:`repro.analysis.lint` — ``repro lint``: the rule table,
  suppressions (with the SP099 stale-suppression check), serialisers,
  the API, and the syntactic rules SP101, SP103 and SP106;
* :mod:`repro.analysis.protocol` — the whole-program dataflow pass
  behind every other rule (SP102, SP105, SP108, SP112): rank programs
  walked across modules in execution order and checked for
  rank-divergent collective schedules and unordered iteration that
  feeds communication, plus hot-kernel perf discipline;
* :mod:`repro.analysis.sanitizer` — the runtime sanitizer behind
  ``run_spmd(..., sanitize=True)``: payload checksums, the collective
  ledger and undriven-generator reporting.
"""

from .lint import (  # noqa: F401
    Finding,
    Rule,
    RULES,
    findings_to_json,
    findings_to_sarif,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)
from .protocol import HOT_KERNELS, check_registry  # noqa: F401
from .sanitizer import Sanitizer, payload_checksum  # noqa: F401

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "findings_to_json",
    "findings_to_sarif",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "HOT_KERNELS",
    "check_registry",
    "Sanitizer",
    "payload_checksum",
]
