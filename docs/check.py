"""Documentation build/link checker: ``python -m docs.check``.

Validates the docs tree (and README.md) without a network connection:

1. **Relative links resolve** — every ``[text](target)`` whose target is
   not ``http(s)://`` must point at an existing file (anchors stripped).
2. **Anchors exist** — in-page and cross-page ``#fragment`` links must
   match a heading in the target markdown file (GitHub-style slugs).
3. **Code references are live** — every backticked dotted name starting
   with ``repro.`` must import (module) or resolve (attribute chain), so
   the docs cannot drift from the API they describe.
4. **API coverage is strict** — every public name in the ``__all__`` of
   the documented layer modules (``API_MODULES``) must appear in
   ``docs/api.md``, so new public surface cannot ship undocumented.
5. **Cited artifacts exist and passed** — every ``BENCH_*.json`` or
   ``TRACE_*.json`` named in these pages or in EXPERIMENTS.md must exist
   at the repository root, and no boolean in a BENCH file's
   ``acceptance`` block may be false, so a quoted number always has a
   committed run behind it that met its own gates.

Exits non-zero listing every problem; CI runs this next to the test
suite.
"""

from __future__ import annotations

import glob
import importlib
import json
import os
import re
import sys
from typing import Dict, List, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS_DIR = os.path.join(REPO_ROOT, "docs")

#: Markdown files checked, relative to the repository root.
PAGES = (
    "README.md",
    "docs/analysis.md",
    "docs/api.md",
    "docs/architecture.md",
    "docs/benchmarks.md",
    "docs/drift.md",
    "docs/engine.md",
    "docs/faults.md",
    "docs/fleet.md",
    "docs/prediction.md",
    "docs/serving.md",
    "docs/traffic.md",
)

#: Pages whose cited benchmark artifacts must exist.
ARTIFACT_PAGES = PAGES + ("EXPERIMENTS.md",)

#: Modules whose entire ``__all__`` must appear in ``docs/api.md``.
API_MODULES = (
    "repro",
    "repro.core",
    "repro.analyze",
    "repro.obs",
    "repro.serve",
    "repro.drift",
    "repro.predict",
    "repro.traffic",
)

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$", re.MULTILINE)
_CODE_REF_RE = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")
_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
_ARTIFACT_RE = re.compile(r"\b(?:BENCH|TRACE)_\w+\.json\b")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a markdown heading."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # code spans keep content
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(markdown: str) -> Set[str]:
    """All anchor slugs a markdown document exposes."""
    slugs: Dict[str, int] = {}
    out: Set[str] = set()
    for match in _HEADING_RE.finditer(_FENCE_RE.sub("", markdown)):
        slug = github_slug(match.group(2))
        n = slugs.get(slug, 0)
        out.add(slug if n == 0 else f"{slug}-{n}")
        slugs[slug] = n + 1
    return out


def check_links(page: str, text: str) -> List[str]:
    """Problems with one page's markdown links."""
    problems: List[str] = []
    page_dir = os.path.dirname(os.path.join(REPO_ROOT, page))
    for target in _LINK_RE.findall(_FENCE_RE.sub("", text)):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        if path_part:
            resolved = os.path.normpath(os.path.join(page_dir, path_part))
            if not os.path.exists(resolved):
                problems.append(f"{page}: broken link -> {target}")
                continue
        else:
            resolved = os.path.join(REPO_ROOT, page)
        if anchor and resolved.endswith(".md"):
            with open(resolved, encoding="utf-8") as handle:
                if anchor not in heading_slugs(handle.read()):
                    problems.append(f"{page}: missing anchor -> {target}")
    return problems


def check_code_refs(page: str, text: str) -> List[str]:
    """Problems with one page's backticked ``repro.*`` references."""
    problems: List[str] = []
    for ref in sorted(set(_CODE_REF_RE.findall(text))):
        if not _resolves(ref):
            problems.append(f"{page}: dead code reference -> `{ref}`")
    return problems


def _resolves(dotted: str) -> bool:
    """Whether a dotted name imports as a module or attribute chain."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def check_api_coverage() -> List[str]:
    """Public ``__all__`` names missing from ``docs/api.md``."""
    problems: List[str] = []
    path = os.path.join(REPO_ROOT, "docs", "api.md")
    if not os.path.exists(path):
        return ["docs/api.md: page missing (api coverage not checked)"]
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    for module_name in API_MODULES:
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            problems.append(
                f"docs/api.md: cannot import {module_name} ({exc})"
            )
            continue
        for name in getattr(module, "__all__", ()):
            if name.startswith("_"):
                continue  # dunders (e.g. __version__) need no docs row
            pattern = rf"(?<![A-Za-z0-9_]){re.escape(name)}(?![A-Za-z0-9_])"
            if not re.search(pattern, text):
                problems.append(
                    f"docs/api.md: public symbol undocumented -> "
                    f"{module_name}.{name}"
                )
    return problems


def check_artifacts(
    root: str = REPO_ROOT, pages: Tuple[str, ...] = ARTIFACT_PAGES
) -> List[str]:
    """Missing cited artifacts and failed BENCH acceptance checks.

    Artifacts are named bare and live at ``root``; every ``BENCH_*.json``
    there is checked, cited or not.
    """
    problems: List[str] = []
    cited: Dict[str, str] = {}
    for page in pages:
        path = os.path.join(root, page)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                for name in _ARTIFACT_RE.findall(handle.read()):
                    cited.setdefault(name, page)
    for name, page in sorted(cited.items()):
        if not os.path.exists(os.path.join(root, name)):
            problems.append(f"{page}: cited artifact missing -> {name}")
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        name = os.path.basename(path)
        try:
            with open(path, encoding="utf-8") as handle:
                acceptance = json.load(handle).get("acceptance", {})
        except ValueError as exc:
            problems.append(f"{name}: unreadable ({exc})")
            continue
        for check, value in sorted(acceptance.items()):
            if value is False:
                problems.append(f"{name}: acceptance check failed -> {check}")
    return problems


def run() -> Tuple[int, List[str]]:
    """Check every page; returns (pages checked, problems)."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    problems: List[str] = []
    checked = 0
    for page in PAGES:
        path = os.path.join(REPO_ROOT, page)
        if not os.path.exists(path):
            problems.append(f"{page}: page missing")
            continue
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        problems += check_links(page, text)
        problems += check_code_refs(page, text)
        checked += 1
    problems += check_api_coverage()
    problems += check_artifacts()
    return checked, problems


def main() -> int:
    """CLI entry point; returns a process exit code."""
    checked, problems = run()
    for problem in problems:
        print(problem, file=sys.stderr)
    status = "FAILED" if problems else "ok"
    print(f"docs check: {checked} pages, {len(problems)} problems ({status})")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
