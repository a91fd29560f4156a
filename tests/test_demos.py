"""Each script in demos/ imports attnpool before numpy, so BLAS runs at the
one thread the package pins, and runs to the end and prints what it
printed before.

A demo is copied into a temporary directory and run there in a fresh
interpreter, so anything it writes next to itself stays out of the
checkout.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import attnpool

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# one line that each demo prints
LINES = {
    "equivalence_and_flops.py": "    49  2048  393  3,707,764,736  2,011,136    1844x",
    "planted_task_comparison.py":
        "final: avg_pool val 0.280 | attention val 0.430 | attention localization 0.895",
    "sketch_baseline.py": "      cbp: val accuracy 0.235, localization n/a (no spatial maps)",
}


@pytest.mark.parametrize("name", sorted(LINES))
def test_demo_runs(tmp_path, name):
    modules = [line.split()[1].split(".")[0] for line in (DEMOS / name).read_text().splitlines()
               if line.startswith(("import ", "from "))]
    assert modules.index("attnpool") < modules.index("numpy")
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(attnpool.__file__))
    run = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert LINES[name] in run.stdout.splitlines()
    if name == "planted_task_comparison.py":
        assert (tmp_path / "out" / "val0_montage.pgm").exists()
