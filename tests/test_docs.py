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


# ---------------------------------------------------------------------------
# Docs name only live code
# ---------------------------------------------------------------------------

SRC = REPO_ROOT / "src" / "repro"

#: README and docs/ only: CHANGES.md and ROADMAP.md are history and may
#: name code that is gone.
CODE_DOCS = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]

_SPAN_RE = re.compile(r"`([^`\n]+)`")
_NAME_RE = re.compile(r"^[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*$")
#: ``serve.py`` and ``out.json`` name files, not attributes.
_FILE_SUFFIXES = {"py", "md", "json", "csv", "txt", "toml", "yml", "artifact"}


def _metric_names():
    """The benchmark's metric names (``cli.import_s``): dotted like a
    module path, but names of measurements."""
    import json

    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for key in ("end_to_end", "per_layer")
            for m in spec[key]}


class _Tree:
    """What ``src/repro`` defines: each module's top-level names, each
    class's members and bases, and every identifier in the source."""

    def __init__(self, root: Path):
        import ast

        self.modules = {}   # dotted module name -> top-level names
        self.defined = {}   # dotted module name -> every name it defines
        self.stems = {}     # file stem -> [dotted module names]
        self.classes = {}   # class name -> (members, base names)
        self.aliases = {}   # ``X = Class`` at module level
        self.words = set()
        for path in sorted(root.rglob("*.py")):
            text = path.read_text()
            self.words.update(re.findall(r"\b_\w+", text))
            parts = path.relative_to(root.parent).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            dotted = ".".join(parts)
            self.stems.setdefault(parts[-1], []).append(dotted)
            tree = ast.parse(text)
            names = set()
            defined = set()
            for node in tree.body:
                names.update(self._bound(node))
                if isinstance(node, ast.ClassDef):
                    self.classes[node.name] = self._members(node)
                    defined.update(self.classes[node.name][0])
                if (isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Name)):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.aliases[target.id] = node.value.id
            if path.name == "__init__.py":  # lazily exported names
                names.update(
                    n.value for n in ast.walk(tree)
                    if isinstance(n, ast.Constant)
                    and isinstance(n.value, str) and n.value.isidentifier()
                )
            self.modules[dotted] = names
            self.defined[dotted] = names | defined

    @staticmethod
    def _bound(node):
        import ast

        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return {node.name}
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return {(a.asname or a.name).split(".")[0] for a in node.names}
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        return {
            n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)
        }

    def _members(self, cls):
        import ast

        members = set()
        for node in cls.body:
            members.update(self._bound(node))
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                members.add(node.attr)
        bases = [
            b.id if isinstance(b, ast.Name) else ast.unparse(b)
            for b in cls.bases
        ]
        return members, bases

    def has_member(self, cls: str, attr: str, seen=()) -> bool:
        cls = self.aliases.get(cls, cls)
        if cls not in self.classes or cls in seen:
            return True  # a base outside the tree: not provably gone
        members, bases = self.classes[cls]
        if attr in members:
            return True
        return any(
            self.has_member(base, attr, (*seen, cls))
            for base in bases if base != "object"
        ) if bases else False

    def is_class(self, name: str) -> bool:
        return self.aliases.get(name, name) in self.classes

    def dead(self, name: str):
        """Why the backticked ``name`` names no live code, or ``None``.

        A ``repro.``-qualified path resolves module by module; a name
        led by a module's file stem (``faults.effective_retry``) must be
        defined in that module, at top level or in one of its classes
        (``noc.timeline``); ``Class.attr`` must be a member of the class
        or a base; a bare ``_private`` name must occur in the source.
        Anything else (a variable, a flag, a key) is not checked.
        """
        parts = name.split(".")
        if parts[-1] in _FILE_SUFFIXES:
            return None
        if parts[0] == "repro":
            for cut in range(len(parts), 0, -1):
                if ".".join(parts[:cut]) in self.modules:
                    return self._in_module([".".join(parts[:cut])],
                                           parts[cut:])
            return "no such module"
        if parts[0] in self.stems and len(parts) > 1:
            return self._in_module(self.stems[parts[0]], parts[1:])
        if self.is_class(parts[0]) and len(parts) > 1:
            return self._in_class(parts[0], parts[1])
        if len(parts) == 1 and name.startswith("_"):
            return None if name in self.words else "not in src/repro"
        return None

    def _in_module(self, modules, rest):
        if not rest:
            return None
        packages = [f"{m}.{rest[0]}" for m in modules]
        inner = [m for m in packages if m in self.modules]
        if inner:
            return self._in_module(inner, rest[1:])
        if not any(rest[0] in self.defined[m] for m in modules):
            return f"no {rest[0]} in {modules[0]}"
        if len(rest) > 1 and self.is_class(rest[0]):
            return self._in_class(rest[0], rest[1])
        return None

    def _in_class(self, cls, attr):
        return None if self.has_member(cls, attr) else f"no {cls}.{attr}"


def backticked_names(path: Path):
    """Inline code spans of ``path`` that read as a Python name (a call's
    arguments dropped), fenced blocks skipped."""
    text = _CODE_FENCE_RE.sub("", path.read_text())
    for match in _SPAN_RE.finditer(text):
        name = re.sub(r"\(.*\)$", "", match.group(1).strip())
        if _NAME_RE.match(name):
            yield name


@pytest.fixture(scope="module")
def src_tree():
    return _Tree(SRC)


@pytest.mark.parametrize(
    "doc", CODE_DOCS, ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_backticked_names_are_live_code(doc, src_tree):
    metrics = _metric_names()
    dead = sorted({
        f"{name}: {why}"
        for name in backticked_names(doc) if name not in metrics
        for why in [src_tree.dead(name)] if why
    })
    assert not dead, f"{doc.name} names dead code:\n  " + "\n  ".join(dead)


def test_dead_names_are_seen(src_tree):
    assert src_tree.dead("MultiChipSimulator._no_such_method")
    assert src_tree.dead("_no_such_helper")
    assert src_tree.dead("faults.no_such_function")
    assert src_tree.dead("repro.sim.multichip.Dispatcher.no_such_attr")
    assert src_tree.dead("repro.no_such_module")
    for live in ("Deployment._serve", "Fleet.submit", "_write_json",
                 "cli._build_server", "repro.sim.multichip.Dispatcher",
                 "repro.Deployment", "FleetReport.replica_reports",
                 "Dispatcher.attempt_counts", "sim.multichip", "serve.py",
                 "noc.timeline", "graph.builder.GraphBuilder"):
        assert src_tree.dead(live) is None, live
