"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Runs from the root of a checkout. Checks that smoke mode (every workload at
tiny sizes, untraced and traced) passes its output checks and reports exactly
the metrics BENCHMARK.json declares, and that the benchmark fails cleanly,
printing no result, when the library sources are absent.
"""
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class PerfbenchTest(unittest.TestCase):
    def test_smoke(self):
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        self.assertEqual(proc.stdout.strip().splitlines()[-1], '{"smoke": "ok"}')

    def test_fails_without_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "service-mix",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
