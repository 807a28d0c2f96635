"""The CI workflow runs the Tier-1 command that ROADMAP.md states."""

import re
from pathlib import Path

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
