"""The CI workflow runs the Tier-1 command that ROADMAP.md states, the
sources parse at the Python floor that pyproject.toml states, and README
states the CSV headers that a sweep writes and the exit codes of the CLI."""

import ast
import re
from pathlib import Path

from fluidmimo import cli
from fluidmimo.reporting import RECORDS_HEADER, SUMMARY_HEADER

ROOT = Path(__file__).resolve().parent.parent


def _workflow_step_command(lines, name):
    """The command lines of the workflow step called `name`: its `run:`
    value, or the lines of its `run: |` block, stripped."""
    at = [i for i, line in enumerate(lines) if line.strip() == f"- name: {name}"]
    assert len(at) == 1, f"one step named {name!r} expected, found {len(at)}"
    run = lines[at[0] + 1]
    assert run.strip().startswith("run:"), f"step {name!r} has no run: line after its name"
    value = run.strip()[len("run:"):].strip()
    if value != "|":
        return [value]
    indent = len(run) - len(run.lstrip())
    block = []
    for line in lines[at[0] + 2:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line.strip())
    return [line for line in block if line]


def test_tier1_step_runs_the_roadmap_verify_command():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    stated = re.findall(r"^\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap, flags=re.M)
    assert len(stated) == 1, "ROADMAP.md states one Tier-1 verify command"
    workflow = (ROOT / ".github/workflows/tier1.yml").read_text().splitlines()
    assert _workflow_step_command(workflow, "Tier-1 tests") == stated


def test_sources_parse_with_the_grammar_of_the_oldest_python():
    """Every .py file under src/, perfbench/ and tests/ parses with the
    grammar of the oldest Python that pyproject.toml's requires-python
    admits. CI runs one newer Python only, so without this check syntax
    the floor lacks (an except* group, a type statement) would pass it.
    It checks grammar only, not the stdlib or numpy APIs a file calls."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = re.findall(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"\s*$', pyproject, flags=re.M)
    assert len(floor) == 1, "pyproject.toml states one requires-python floor"
    version = tuple(int(part) for part in floor[0])
    files = sorted(path for top in ("src", "perfbench", "tests")
                   for path in (ROOT / top).rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


def test_readme_states_the_csv_headers():
    readme = (ROOT / "README.md").read_text().splitlines()
    stated = [line for line in readme if line.startswith("sweep_var,")]
    assert stated == [RECORDS_HEADER, SUMMARY_HEADER]


def test_readme_states_the_exit_codes():
    readme = " ".join((ROOT / "README.md").read_text().split())
    sentence = re.findall(r"Exit codes: (.*?)\.\s[A-Z]", readme)
    assert len(sentence) == 1, "README.md has one 'Exit codes:' sentence"
    stated = [int(code) for code in re.findall(r"`(\d+)`", sentence[0])]
    assert stated == [cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_CAP, cli.EXIT_SOLVER]
    assert set(cli._EXIT_CODES.values()) <= set(stated)
