"""SPMD correctness analyzer: static lint + dynamic sanitizer.

Three pieces, one contract (see DESIGN §8 and §13):

* :mod:`repro.analysis.lint` — ``repro lint``: the rule table,
  suppressions (with the SP099 stale-suppression check), serialisers,
  the API, and the syntactic rules SP101, SP103 and SP106;
* :mod:`repro.analysis.protocol` — the whole-program dataflow pass
  behind every other rule (SP102, SP104, SP105, SP107–SP112):
  communication summaries extracted across modules and model-checked
  for rank-divergent collectives, unmatched point-to-point traffic,
  unordered iteration, static deadlocks and post-send payload mutation,
  plus hot-kernel perf discipline;
* :mod:`repro.analysis.sanitizer` — the runtime sanitizer behind
  ``run_spmd(..., sanitize=True)``: payload checksums, the collective
  ledger, undriven-generator and undelivered-message reporting.
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
from .protocol import HOT_KERNELS, check_registry, program_ops  # noqa: F401
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
    "program_ops",
    "Sanitizer",
    "payload_checksum",
]
