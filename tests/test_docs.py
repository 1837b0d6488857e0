"""Documentation link checker: relative links in README/docs must resolve.

Docs rot silently: a renamed file or retitled section breaks links
without failing anything.  This test walks every markdown file in the
repo root and ``docs/``, extracts inline links, and verifies that

- relative file targets exist on disk, and
- anchor fragments (``file.md#section``) match a real heading slug in
  the target file (GitHub's slug rules: lowercase, punctuation
  stripped, spaces to dashes).

External (``http``/``https``/``mailto``) links are skipped — CI must
not depend on the network.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Markdown files whose links are checked.
DOC_FILES = sorted(
    [
        *REPO_ROOT.glob("*.md"),
        *(REPO_ROOT / "docs").glob("*.md"),
    ]
)

#: inline markdown links: [text](target) -- images excluded via (?<!!)
_LINK_RE = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading (backticks/punctuation drop)."""
    text = heading.strip().lower()
    text = text.replace("`", "")
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(path: Path) -> set:
    text = _CODE_FENCE_RE.sub("", path.read_text())
    return {github_slug(m.group(1)) for m in _HEADING_RE.finditer(text)}


def iter_links(path: Path):
    text = _CODE_FENCE_RE.sub("", path.read_text())
    for match in _LINK_RE.finditer(text):
        yield match.group(1)


def test_doc_files_discovered():
    names = {p.name for p in DOC_FILES}
    assert {"README.md", "ARCHITECTURE.md", "CLI.md"} <= names


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_relative_links_resolve(doc):
    broken = []
    for target in iter_links(doc):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, fragment = target.partition("#")
        if path_part:
            resolved = (doc.parent / path_part).resolve()
            if not resolved.exists():
                broken.append(f"{target}: file {path_part!r} not found")
                continue
        else:
            resolved = doc
        if fragment:
            if resolved.suffix != ".md":
                continue
            if fragment not in heading_slugs(resolved):
                broken.append(
                    f"{target}: no heading with slug {fragment!r} in "
                    f"{resolved.name}"
                )
    assert not broken, f"{doc.name}: broken links:\n  " + "\n  ".join(broken)


def test_sweep_coordinate_table_is_the_axis_table():
    """docs/ARCHITECTURE.md ("Sweep coordinates") row by row against
    ``explore.AXES``: name, plural, default, rule text, key name, kind."""
    import dataclasses

    from repro.explore import AXES

    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
    section = text.split("### Sweep coordinates", 1)[1].split("\n**Adding", 1)[0]
    rows = [
        [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| `")
    ]

    def documented(axis):
        about = axis.metadata
        kind = [k for k in ("hardware", "continuation") if about[k]]
        if not about["row"]:
            kind.append("not a row")
        return [
            axis.name,
            about["plural"] or "—",
            "—" if axis.default is dataclasses.MISSING else repr(axis.default),
            about["message"] if about["rule"] else "—",
            "—" if about["hardware"] else about["key"] or axis.name,
            ", ".join(kind),
        ]

    assert rows == [documented(axis) for axis in AXES]
