"""The README's library examples run as written."""

import re
import shutil
from pathlib import Path

from riskboot import Position, to_losses, value_at_risk
from riskboot.synthetic import normal_var_oracle

ROOT = Path(__file__).resolve().parents[1]


def test_python_blocks_run_in_order(tmp_path, monkeypatch, capsys):
    """The README's three python blocks, run one after another in one
    namespace as a reader would type them, with a golden input as the
    contract.csv the first block loads."""
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 3
    shutil.copy(ROOT / "tests" / "data" / "inputs" / "c1.csv", tmp_path / "contract.csv")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert "(d) 80% confidence intervals" in capsys.readouterr().out
    assert namespace["result"].std_error > 0.0
    var = value_at_risk(to_losses(namespace["series"], Position.LONG), 0.99)
    assert abs(var - normal_var_oracle(0.99)) < 0.02
