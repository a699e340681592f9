"""`tools/opcount.py`: the bytecode count of one benchmark operation."""
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "opcount.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("opcount", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_loop_iteration_adds_the_same_count():
    count = load_tool().count_opcodes

    def loop(n):
        for _ in range(n):
            pass

    a, b, c = (count(lambda: loop(n)) for n in (10, 20, 30))
    assert 0 < a < b and b - a == c - b


def test_fanout_n4_prints_its_count_under_a_fixed_hash_seed():
    env = dict(os.environ, PYTHONHASHSEED="1")
    res = subprocess.run([sys.executable, str(TOOL), "--workload",
                          "branch_fanout", "--program", "fanout_n4",
                          "--seed", "11"], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    m = re.fullmatch(r"fanout_n4 (\d+)", res.stdout.strip().splitlines()[-1])
    assert m and int(m[1]) > 100_000
