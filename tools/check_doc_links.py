#!/usr/bin/env python3
"""Dead-link checker for the repo docs (the CI `docs` job).

Scans markdown files for inline links/images `[text](target)` and
reference-style file mentions in backticks that look like repo paths, and
fails (exit 1) when a relative target does not exist on disk. External
(http/https/mailto) targets and pure #anchors are skipped; a `path#anchor`
target is checked for the path part only.

When docs/CONFIG.md is among the checked files, its GraphConfig and
ShardConfig tables are also checked against `struct GraphConfig` in
src/core/types.hpp and `struct ShardConfig` in src/shard/sharded_graph.hpp:
every field needs a row, and every row must name a field that exists.

Usage:
    python3 tools/check_doc_links.py README.md docs [more files or dirs...]
"""

import os
import re
import sys

_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
# `path/with/slash.ext` in backticks: docs name source files this way; a
# dead one usually means a file was renamed without updating the docs.
# Only plain repo-relative paths are checked (no wildcards, no flags, no
# templates/assignments, no paths into the untracked build tree).
_BACKTICK_PATH = re.compile(r"`([A-Za-z0-9_./-]+/[A-Za-z0-9_.-]+\.[a-z]{1,4})`")
_SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")


def check_file(md_path, repo_root):
    errors = []
    with open(md_path, encoding="utf-8") as f:
        text = f.read()
    base = os.path.dirname(md_path)
    targets = []
    for match in _LINK.finditer(text):
        targets.append((match.group(1), "link"))
    for match in _BACKTICK_PATH.finditer(text):
        path = match.group(1)
        if path.startswith("build"):
            continue  # build outputs are not tracked files
        targets.append((path, "path mention"))
    for target, kind in targets:
        if target.startswith(_SKIP_PREFIXES):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        # Links resolve relative to the markdown file; bare path mentions
        # (`src/core/...`) resolve from the repo root. Accept either.
        candidates = [os.path.normpath(os.path.join(base, path)),
                      os.path.normpath(os.path.join(repo_root, path))]
        if not any(os.path.exists(c) for c in candidates):
            errors.append(f"{md_path}: dead {kind} -> {target}")
    return errors


_CONFIG_DOC = os.path.join("docs", "CONFIG.md")
# (struct, header declaring it): each struct has a table in _CONFIG_DOC.
_CONFIG_STRUCTS = (
    ("GraphConfig", os.path.join("src", "core", "types.hpp")),
    ("ShardConfig", os.path.join("src", "shard", "sharded_graph.hpp")),
)
# One member declaration per line: `type name = default;` or `type name;`.
_FIELD = re.compile(r"^\s*[A-Za-z_][\w:<>(),&* ]*\s([a-z_][a-z0-9_]*)\s*(=[^;]*)?;\s*$")
_ROW = re.compile(r"^\|\s*`([a-z_][a-z0-9_]*)`\s*\|")


def struct_fields(header_text, struct_name):
    """Member names of `struct <struct_name> { ... };`, in order."""
    start = header_text.index(f"struct {struct_name} {{")
    end = header_text.index("\n};", start)
    fields = []
    for line in header_text[start:end].splitlines()[1:]:
        match = _FIELD.match(line.split("//", 1)[0])
        if match:
            fields.append(match.group(1))
    return fields


def table_rows(markdown_text, heading):
    """First-column `names` of the table under the `## ` heading whose
    first word is `heading`."""
    rows = []
    in_section = False
    for line in markdown_text.splitlines():
        if line.startswith("## "):
            in_section = line[3:].split()[:1] == [heading]
            continue
        match = _ROW.match(line) if in_section else None
        if match:
            rows.append(match.group(1))
    return rows


def check_config_tables(repo_root):
    with open(os.path.join(repo_root, _CONFIG_DOC), encoding="utf-8") as f:
        doc = f.read()
    errors = []
    for struct, header in _CONFIG_STRUCTS:
        with open(os.path.join(repo_root, header), encoding="utf-8") as f:
            fields = struct_fields(f.read(), struct)
        rows = table_rows(doc, struct)
        errors += [f"{_CONFIG_DOC}: no {struct} row for field `{name}`"
                   for name in fields if name not in rows]
        errors += [f"{_CONFIG_DOC}: {struct} row `{name}` names no field "
                   f"of {header}" for name in rows if name not in fields]
    return errors


def main(argv):
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = []
    for arg in argv or ["README.md", "docs"]:
        if os.path.isdir(arg):
            for name in sorted(os.listdir(arg)):
                if name.endswith(".md"):
                    files.append(os.path.join(arg, name))
        else:
            files.append(arg)
    errors = []
    for md in files:
        errors.extend(check_file(md, repo_root))
        if os.path.abspath(md) == os.path.join(repo_root, _CONFIG_DOC):
            errors.extend(check_config_tables(repo_root))
    for err in errors:
        print(err, file=sys.stderr)
    print(f"checked {len(files)} file(s): "
          f"{'FAILED' if errors else 'no dead links'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
