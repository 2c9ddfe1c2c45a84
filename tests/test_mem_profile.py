"""``tools/mem_profile.py``: live bytes by layer and site, at a tiny scale."""

import importlib.util
import re
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "mem_profile", Path(__file__).parents[1] / "tools" / "mem_profile.py"
)
mem_profile = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mem_profile)


def test_profiles_a_tiny_run_by_layer_and_site(capsys):
    result = mem_profile.measure("relay_chain", 1, 0.02)
    assert sum(result["by_layer"].values()) == sum(
        size for size, _, _, _ in result["sites"]
    )
    assert len(result["sites"]) > mem_profile.TOP_SITES
    mem_profile.report(result)
    out = capsys.readouterr().out
    assert re.search(r"relay_chain seed 1: \d+ events, peak", out)
    layers = re.findall(
        r"^    (\S.*?)\s+(\d+\.\d+) MiB\s+(\d+\.\d)%$", out, re.M
    )
    assert [name for name, _, _ in layers] == [
        "windows", "events/waves", "source schedule", "reports", "sinks",
        "other",
    ]
    assert abs(sum(float(share) for _, _, share in layers) - 100) < 0.5
    sites = re.findall(r"MiB\s+\d+ blocks  (\S.*?)\s+(\S+\.py):(\d+)", out)
    assert len(sites) == mem_profile.TOP_SITES
    # The innermost engine frame names the site, with its function.
    assert any(module.startswith("core/") for _, module, _ in sites), out
