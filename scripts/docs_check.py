"""CI docs check: links in the docs tree resolve, CLI references are real.

Two classes of rot this catches:

* **Dead intra-repo links** — every markdown link in ``docs/`` and
  ``README.md`` that points inside the repo must resolve to an existing
  file, and a ``#fragment`` on a markdown target must match a heading in
  that file (GitHub-style slugs).  External ``http(s)``/``mailto`` links
  are not fetched.
* **Phantom CLI commands** — every ``repro <subcommand>`` (and nested
  ``repro <group> <subcommand>``) named in the docs must exist in the real
  parser built by ``repro.cli.build_parser()``.  Docs that mention a
  renamed or removed command fail the job.
* **Phantom CLI flags** — every ``--flag`` written after such a command on
  the same line (up to the end of its inline code span or a ``#`` comment)
  must be an option of that subparser.  For ``|``-joined alternatives it
  must belong to at least one of them.

Run from the repo root::

    PYTHONPATH=src python scripts/docs_check.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# ``repro <word>`` / ``python -m repro <word> [<word>]`` — words may be
# ``|``-joined alternation lists as in usage lines (``daemon run|start``).
# Spaces only (no newlines), and not ``from repro import ...``.
CLI_RE = re.compile(r"(?<!from )\brepro +([a-z][a-z|-]*)(?: +([a-z][a-z|-]*))?")
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def doc_files():
    return [REPO_ROOT / "README.md"] + sorted(
        (REPO_ROOT / "docs").glob("*.md")
    )


def github_slug(heading):
    """The anchor GitHub generates for a markdown heading."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)  # drop punctuation, keep -, _
    return slug.replace(" ", "-")


def headings_of(path):
    slugs = set()
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            slugs.add(github_slug(line.lstrip("#")))
    return slugs


def check_links(path, errors):
    for target in LINK_RE.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base, _, fragment = target.partition("#")
        dest = (path.parent / base).resolve() if base else path
        if not dest.exists():
            errors.append(f"{path.relative_to(REPO_ROOT)}: dead link -> {target}")
            continue
        if fragment and dest.suffix == ".md":
            if fragment not in headings_of(dest):
                errors.append(
                    f"{path.relative_to(REPO_ROOT)}: link -> {target} "
                    f"(no heading with slug '#{fragment}' in "
                    f"{dest.relative_to(REPO_ROOT)})"
                )


def parser_commands():
    """Top-level and nested subparsers, keyed by name, from the real parser."""
    from repro.cli import build_parser

    def sub_actions(parser):
        for action in parser._subparsers._group_actions if parser._subparsers else []:
            if hasattr(action, "choices"):
                return action.choices
        return {}

    top = sub_actions(build_parser())
    nested = {name: sub_actions(sub) for name, sub in top.items()}
    return top, nested


def flag_segment(line, start):
    """The part of ``line`` after a command that can carry that command's flags."""
    segment = line[start:]
    for stop in ("`", " #"):
        segment = segment.split(stop, 1)[0]
    match = CLI_RE.search(segment)
    return segment[: match.start()] if match else segment


def check_cli_references(path, top, nested, errors):
    for line in path.read_text().splitlines():
        for match in CLI_RE.finditer(line):
            first, second = match.group(1), match.group(2)
            where = f"{path.relative_to(REPO_ROOT)}: docs name"
            for cmd in first.split("|"):
                if cmd not in top:
                    errors.append(f"{where} 'repro {cmd}' but the CLI has no such subcommand")
            if any(cmd not in top for cmd in first.split("|")):
                continue
            parsers = [top[cmd] for cmd in first.split("|")]
            command = first
            # Only check the second word against groups that actually have
            # nested subcommands ("repro batch pairs.txt" has no group).
            if second and "|" not in first and nested[first]:
                missing = [cmd for cmd in second.split("|") if cmd not in nested[first]]
                for cmd in missing:
                    errors.append(
                        f"{where} 'repro {first} {cmd}' but 'repro {first}' has no "
                        f"'{cmd}' subcommand"
                    )
                if missing:
                    continue
                parsers = [nested[first][cmd] for cmd in second.split("|")]
                command = f"{first} {second}"
            known = set()
            for parser in parsers:
                known.update(parser._option_string_actions)
            for flag in FLAG_RE.findall(flag_segment(line, match.end())):
                if flag not in known:
                    errors.append(f"{where} '{flag}' on 'repro {command}' but it has no such flag")


def main():
    errors = []
    top, nested = parser_commands()
    files = doc_files()
    for path in files:
        check_links(path, errors)
        check_cli_references(path, top, nested, errors)
    for error in errors:
        print(f"error: {error}")
    print(
        f"docs-check: {len(files)} files, {len(errors)} errors "
        f"({', '.join(p.name for p in files)})"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
