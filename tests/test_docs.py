"""Documentation integrity: every relative link in the docs resolves.

Wraps ``tools/check_doc_links.py`` (what CI's docs job runs) so a broken
cross-reference between README, ``docs/*.md`` and the files they point at
fails the tier-1 suite too, not just the docs job.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_doc_links import check_file, iter_markdown_files  # noqa: E402


def test_readme_exists_with_required_sections():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for needle in ("repro corpus", "repro pipeline", "repro stream", "--refresh-days",
                   "repro report", "REPRO_SCALE", "REPRO_WORKERS"):
        assert needle in readme, f"README.md is missing {needle!r}"


@pytest.mark.parametrize(
    "markdown",
    [str(p.relative_to(REPO_ROOT)) for p in
     iter_markdown_files([str(REPO_ROOT / "README.md"), str(REPO_ROOT / "docs")])],
)
def test_no_dead_relative_links(markdown):
    dead = check_file(REPO_ROOT / markdown)
    assert not dead, f"{markdown} has dead links: {dead}"


def test_core_docs_exist():
    for name in ("architecture.md", "corpus.md", "detection.md",
                 "streaming.md", "robustness.md", "observability.md"):
        assert (REPO_ROOT / "docs" / name).is_file(), f"docs/{name} missing"


def _environment_table() -> dict:
    """README's "Environment variables" table: variable -> default cell."""

    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Environment variables", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`REPRO_"):
            rows[cells[0].strip("`")] = cells[2]
    return rows


def test_readme_environment_table_matches_the_knob_table():
    from repro import knobs

    rows = _environment_table()
    assert list(rows) == [knob.name for knob in knobs.KNOBS]
    for knob in knobs.KNOBS:
        unset = knob.default is None or knob.default is False
        expected = "unset" if unset else f"`{knob.default}`"
        assert rows[knob.name].startswith(expected), (knob.name, rows[knob.name])
