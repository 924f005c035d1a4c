import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "profile_pass.py"


def _run(*args):
    return subprocess.run([sys.executable, str(_TOOL), *args], capture_output=True, text=True,
                          timeout=300)


def test_profile_pass_help():
    proc = _run("--help")
    assert proc.returncode == 0
    assert "--workload" in proc.stdout and "--top" in proc.stdout


def test_profile_pass_names_the_attack_rounds():
    proc = _run("--workload", "hard-label", "--seed", "42", "--top", "20")
    assert proc.returncode == 0, proc.stderr
    own, cumulative = proc.stdout.split("== top 20 by own time ==")[1].split(
        "== top 20 by cumulative time ==")
    assert "(attack_testset)" in cumulative and "(_attack_rounds)" in cumulative
    assert "failed 0" in proc.stdout
