"""README's code runs as written, so an API change cannot leave it stale."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} (Library quick start)", "exec"), {})
    rows = [line.split(maxsplit=2) for line in capsys.readouterr().out.splitlines()]
    # it prints time, kinetic energy and momentum at its three checkpoints;
    # SBM conserves the energy to rounding
    assert [float(t) for t, _, _ in rows] == [0.0, 5.0, 10.0]
    energies = [float(e) for _, e, _ in rows]
    assert max(energies) - min(energies) <= 1e-12 * energies[0]
