"""Golden-file tests: the stdout and exit code of CLI runs, byte for byte.

Each file in tests/golden/ holds `exit: <code>` on its first line and the
run's stdout after it. When a report is meant to change, rewrite the files
with `PYTHONPATH=src python3 tests/test_golden.py` and review the diff.
"""

import contextlib
import io
from pathlib import Path

import pytest

from expert_screening.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = GOLDEN.parent.parent / "demos" / "scenarios"
CLIPPED = str(GOLDEN / "clipped_ball_n3.json")
UNIFORM = str(GOLDEN / "uniform_n6.json")
CONCENTRIC = str(GOLDEN / "concentric_n5.json")
ASYMMETRIC = str(GOLDEN / "asymmetric_n3.json")

RUNS = {}
for _name in ("prop1_paper", "prop1_safe", "prop2_balls"):
    _path = str(DEMOS / f"{_name}.json")
    RUNS[f"analyze-{_name}"] = ["analyze", _path]
    RUNS[f"oracle-{_name}"] = ["oracle", _path]
    RUNS[f"simulate-{_name}"] = ["simulate", _path, "--trials", "2000"]
# a ball clipped by the simplex: the face-enumerating farthest point, and the
# ball grid behind the oracle
RUNS["analyze-clipped_ball_n3"] = ["analyze", CLIPPED]
RUNS["oracle-clipped_ball_n3"] = ["oracle", CLIPPED, "--grid-k", "20"]
# two concentric balls at the n = 5 barycenter on the default k = 50 grid of
# 316 251 points: the oracle's column pruning on a large grid
RUNS["oracle-concentric_n5"] = ["oracle", CONCENTRIC]
# the mixture audit on three asymmetric forecasts, where a two-point mixture
# beats every point mass of the k = 20 grid: the value and the decision stay
# the best point mass's, and only the audit's two keys come with the flag
RUNS["oracle-asymmetric_n3-mixtures"] = ["oracle", ASYMMETRIC, "--grid-k", "20", "--mixtures"]
# 9000 trials span two full blocks and a short third one; the n=6 run draws
# a uniform nature against a fixed announcement from an uncut ball
for _name in ("prop1_safe", "prop2_balls"):
    _path = str(DEMOS / f"{_name}.json")
    RUNS[f"simulate-{_name}-blocks"] = ["simulate", _path, "--trials", "9000"]
RUNS["simulate-uniform_n6"] = ["simulate", UNIFORM, "--trials", "9000"]
# sampled announcements over three blocks: an uncut n=3 ball against a fixed
# nature, and a clipped ball under a uniform nature, whose rejection sampler
# takes several rounds per block
for _name in ("sampled_n3", "clipped_prop2"):
    RUNS[f"simulate-{_name}-blocks"] = ["simulate", str(GOLDEN / f"{_name}.json"),
                                        "--trials", "9000"]
# verify's per-check timings go to stderr; its stdout stays fixed
RUNS["verify-quick"] = ["verify", "--quick"]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"exit: {code}\n{out.getvalue()}".encode()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden(name):
    assert run(RUNS[name]) == (GOLDEN / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    for name, argv in sorted(RUNS.items()):
        (GOLDEN / f"{name}.txt").write_bytes(run(argv))
        print(f"wrote {name}.txt")
