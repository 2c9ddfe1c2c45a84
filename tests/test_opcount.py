"""``tools/opcount.py``: a count repeats exactly for the same checkout.

Smoke form at a tiny scale: the working tree against itself, each side
in a fresh process, must read the same executed-bytecode count and the
same sink digest — the property that makes the count worth printing
beside the noisy wall-clock pairs.
"""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "opcount", Path(__file__).parents[1] / "tools" / "opcount.py"
)
opcount = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(opcount)


def test_the_same_checkout_counts_the_same(capsys):
    first = opcount.measure(opcount.ROOT, "relay_chain", 0.02, 1)
    second = opcount.measure(opcount.ROOT, "relay_chain", 0.02, 1)
    assert first["opcodes"] > 10_000
    assert first == second
    assert "repro/stafilos/scwf_director.py" in first["by_module"]
    assert opcount.report("HEAD", first, second, top=3) == 0
    assert "sink digests equal" in capsys.readouterr().out
    assert opcount.report("HEAD", first, dict(second, digest="x"), 3) == 1
