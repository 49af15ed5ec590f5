import re
from pathlib import Path


def test_library_quick_start_runs(capsys):
    """README's first python block (the library quick start) runs as written."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", text, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.split()[-1] == "True"  # res.converged
