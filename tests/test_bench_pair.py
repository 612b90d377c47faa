"""tools/bench_pair.py stopped by a signal: its run ends and its temporary tree goes."""
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# Runs bench_pair.main with a parent tree whose perfbench/run.py writes its
# pid and sleeps, and with git answered without a repository.
DRIVER = """
import sys
sys.path.insert(0, {tools!r})
import bench_pair

STUB = "import os, pathlib, time\\npathlib.Path({pid_file!r}).write_text(str(os.getpid()))\\ntime.sleep(120)\\n"

def extract(revision, into):
    (into / "perfbench").mkdir()
    (into / "perfbench" / "run.py").write_text(STUB)

bench_pair.extract = extract
bench_pair.git = lambda *args: "0" * 40
sys.exit(bench_pair.main(["--parent", "HEAD", "--workload", "stub", "--seed", "1"]))
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
def test_a_signal_stops_the_run_and_removes_the_parent_tree(tmp_path, signum):
    temp = tmp_path / "temp"
    temp.mkdir()
    pid_file = tmp_path / "child.pid"
    driver = tmp_path / "driver.py"
    driver.write_text(DRIVER.format(tools=str(TOOLS), pid_file=str(pid_file)))
    proc = subprocess.Popen([sys.executable, str(driver)], env={**os.environ, "TMPDIR": str(temp)},
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    child = None
    try:
        deadline = time.monotonic() + 30
        while not pid_file.exists() or not pid_file.read_text():
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < deadline, "the stub run never started"
            time.sleep(0.05)
        child = int(pid_file.read_text())
        assert list(temp.glob("bench-parent-*"))
        proc.send_signal(signum)
        assert proc.wait(timeout=30) == 128 + signum
        assert not _alive(child)
        assert not list(temp.glob("bench-parent-*"))
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
        if child is not None and _alive(child):
            os.kill(child, signal.SIGKILL)
