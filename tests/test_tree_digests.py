"""scripts/tree_digests.py is deterministic and its three modes agree."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "tree_digests.py"
NAMES = ["countsketch-tensorsketch-q3-unequal", "osnap-tensorsrht-q5-equal"]


def test_two_sequences_twice_give_the_same_digests():
    def run():
        done = subprocess.run([sys.executable, str(SCRIPT), "--seed", "7", "--only", *NAMES],
                              capture_output=True, text=True, timeout=300, check=True)
        return done.stdout.splitlines()

    first = run()
    assert first == run()
    assert [line.split()[0] for line in first] == [
        f"{name}/{mode}" for name in NAMES for mode in ("helper", "inline", "one-cpu")]
    # the helper, the inline executor and one CPU give one tree, bit for bit,
    # and one label sketch and set of answers
    assert len({line.split()[1] for line in first}) == len(NAMES)
    assert len({line.split()[2] for line in first}) == len(NAMES)
