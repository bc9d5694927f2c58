"""The README's library example runs as written, so the documented API follows the code."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], f"{README}:Library example", "exec"), namespace)
    sweep = namespace["sweep"]
    assert sweep.values["weak_cq"].shape == (11, 2, 2)
    assert sweep.errors["weak_cq"][5].min() > 0.0
    assert sweep.reached("mhq_reconstructed").tolist() == [False] + [True] * 9 + [False]
