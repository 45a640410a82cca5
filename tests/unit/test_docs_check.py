"""Tests for the CLI-reference half of ``scripts/docs_check.py``.

Each test writes one markdown line and runs the checker against the real
``repro`` argument parser: named subcommands must exist, and every
``--flag`` after a command (up to the end of its code span or a ``#``
comment) must be an option of that command.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "docs_check.py"
_spec = importlib.util.spec_from_file_location("docs_check", SCRIPT)
docs_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(docs_check)

TOP, NESTED = docs_check.parser_commands()


@pytest.fixture
def cli_errors(tmp_path, monkeypatch):
    monkeypatch.setattr(docs_check, "REPO_ROOT", tmp_path)

    def check(line):
        doc = tmp_path / "doc.md"
        doc.write_text(line + "\n")
        errors = []
        docs_check.check_cli_references(doc, TOP, NESTED, errors)
        return errors

    return check


def test_real_commands_and_flags_pass(cli_errors):
    assert cli_errors("Run `repro batch pairs.txt --jobs 2 --lp-backend scipy`.") == []
    assert cli_errors("`python -m repro daemon start --socket s --log d.log`") == []


def test_phantom_subcommand_is_reported(cli_errors):
    (error,) = cli_errors("`repro frobnicate pairs.txt`")
    assert "'repro frobnicate'" in error


def test_phantom_nested_subcommand_is_reported(cli_errors):
    (error,) = cli_errors("`repro daemon explode --socket s`")
    assert "'repro daemon explode'" in error


def test_removed_flag_is_reported(cli_errors):
    (error,) = cli_errors("`repro batch pairs.txt --jobs 2 --worker-mode process`")
    assert "'--worker-mode' on 'repro batch'" in error


def test_nested_flags_are_checked_against_the_nested_parser(cli_errors):
    assert cli_errors("`repro daemon status --prom`") == []
    (error,) = cli_errors("`repro daemon stop --prom`")
    assert "'--prom' on 'repro daemon stop'" in error


def test_alternation_accepts_a_flag_of_any_alternative(cli_errors):
    # --warmup belongs to ``daemon run`` only, --log to ``daemon start`` only.
    assert cli_errors("`repro daemon run|start --warmup --log d.log`") == []
    (error,) = cli_errors("`repro daemon stop|status --warmup`")
    assert "'--warmup' on 'repro daemon stop|status'" in error


def test_flags_outside_the_command_are_ignored(cli_errors):
    assert cli_errors("`repro batch pairs.txt` also takes --bogus elsewhere") == []
    assert cli_errors("    repro batch pairs.txt  # --bogus is a comment") == []


def test_flags_belong_to_the_nearest_preceding_command(cli_errors):
    (error,) = cli_errors(
        "`repro contain q.txt; repro batch pairs.txt --method auto --top 3`"
    )
    assert "'--top' on 'repro batch'" in error
