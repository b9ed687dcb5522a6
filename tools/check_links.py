#!/usr/bin/env python3
"""Intra-repo link hygiene for the documentation surface.

Scans the given markdown files (default: README.md, ARCHITECTURE.md and
docs/**/*.md) for inline links and fails when a relative link points at a
file that does not exist, or an intra-document anchor has no matching
heading. External (http/https/mailto) links are not fetched — CI must not
depend on the network.

Without arguments it also scans the // comments of the C++ sources
(*.h, *.cc and *.cpp under src/, bench/, tests/ and examples/) for *.md
names, which must resolve from the repository root: a comment that sends
the reader to a document must name one that exists.

Usage: tools/check_links.py [files...]
"""

import glob
import os
import re
import sys

LINK_RE = re.compile(r"(?<!!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
MD_NAME_RE = re.compile(r"[\w./-]*\w\.md\b")
SOURCE_DIRS = ("src", "bench", "tests", "examples")


def heading_anchor(heading: str) -> str:
    """GitHub's anchor algorithm, close enough: lowercase, drop
    punctuation, spaces to hyphens."""
    anchor = heading.strip().lower()
    anchor = re.sub(r"[^\w\- ]", "", anchor)
    return anchor.replace(" ", "-")


def anchors_of(path: str) -> set:
    with open(path, encoding="utf-8") as f:
        text = CODE_FENCE_RE.sub("", f.read())
    return {heading_anchor(m.group(1)) for m in HEADING_RE.finditer(text)}


def check_file(path: str, repo_root: str) -> list:
    errors = []
    with open(path, encoding="utf-8") as f:
        text = CODE_FENCE_RE.sub("", f.read())
    base = os.path.dirname(path)
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target, _, fragment = target.partition("#")
        if target:
            resolved = os.path.normpath(os.path.join(base, target))
            if not os.path.exists(resolved):
                errors.append(f"{path}: broken link -> {target}")
                continue
        else:
            resolved = path  # Pure fragment: #section in the same file.
        if fragment and resolved.endswith(".md"):
            if heading_anchor(fragment) not in anchors_of(resolved):
                errors.append(f"{path}: missing anchor -> {target}#{fragment}")
    return errors


def check_source(path: str, repo_root: str) -> list:
    """*.md names in the // comments of one C++ source file that do not
    resolve from the repository root."""
    errors = []
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            _, slashes, comment = line.partition("//")
            if not slashes:
                continue
            for name in MD_NAME_RE.findall(comment):
                if not os.path.exists(os.path.join(repo_root, name)):
                    rel = os.path.relpath(path, repo_root)
                    errors.append(f"{rel}:{number}: missing document -> {name}")
    return errors


def source_files(repo_root: str) -> list:
    files = []
    for directory in SOURCE_DIRS:
        for pattern in ("*.h", "*.cc", "*.cpp"):
            files += glob.glob(os.path.join(repo_root, directory, "**", pattern),
                               recursive=True)
    return sorted(files)


def main(argv: list) -> int:
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if argv:
        files = argv
    else:
        files = [
            os.path.join(repo_root, "README.md"),
            os.path.join(repo_root, "ARCHITECTURE.md"),
        ] + sorted(glob.glob(os.path.join(repo_root, "docs", "**", "*.md"),
                             recursive=True))
    errors = []
    checked = 0
    for path in files:
        if not os.path.exists(path):
            errors.append(f"{path}: file not found")
            continue
        checked += 1
        errors.extend(check_file(path, repo_root))
    if not argv:
        for path in source_files(repo_root):
            checked += 1
            errors.extend(check_source(path, repo_root))
    for error in errors:
        print(error, file=sys.stderr)
    print(f"check_links: {checked} file(s), {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
