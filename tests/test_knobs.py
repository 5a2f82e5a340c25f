"""Every ``REPRO_*`` environment knob is documented, and no doc names a dead one.

A knob is *read* where its name appears as a whole string literal in
code (``os.environ.get("REPRO_X")``, ``_env_bool("REPRO_X", ...)``).
The library's knobs live under ``src/``; the pytest bench harness under
``benchmarks/`` reads its own (``REPRO_BENCH_SCALE``, ``REPRO_BENCH_JOBS``),
which docs may name as well.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

READ = re.compile(r"""["'](REPRO_[A-Z0-9_]+)["']""")
NAMED = re.compile(r"REPRO_[A-Z0-9_]*[A-Z0-9]")


def _names(pattern: re.Pattern, paths) -> dict[str, list[str]]:
    found: dict[str, list[str]] = {}
    for path in paths:
        for name in pattern.findall(path.read_text(encoding="utf-8")):
            found.setdefault(name, []).append(str(path.relative_to(ROOT)))
    return found


def _library_reads() -> dict[str, list[str]]:
    return _names(READ, sorted((ROOT / "src").rglob("*.py")))


def _doc_names() -> dict[str, list[str]]:
    docs = sorted((ROOT / "docs").rglob("*.md")) + [ROOT / "README.md"]
    return _names(NAMED, docs)


def test_library_reads_knobs():
    # Guards the scan itself: an empty result would make both checks vacuous.
    assert {"REPRO_SERVE_PRECISION", "REPRO_PERF", "REPRO_FAULTS"} <= set(_library_reads())


def test_every_knob_read_under_src_is_documented():
    undocumented = sorted(set(_library_reads()) - set(_doc_names()))
    assert not undocumented, f"REPRO_* knobs read under src/ but named in no doc: {undocumented}"


def test_no_doc_names_a_knob_nothing_reads():
    harness = _names(READ, sorted((ROOT / "benchmarks").rglob("*.py")))
    read = set(_library_reads()) | set(harness)
    dead = {name: paths for name, paths in _doc_names().items() if name not in read}
    assert not dead, f"docs name REPRO_* knobs no code reads: {dead}"
