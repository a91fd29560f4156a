"""Every output of golden/regen.py's tiny CLI runs is byte-identical to
the digests in golden/manifest.tsv (see that script).  A change that
means to change outputs regenerates the manifest."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_cli_outputs_match_the_golden_manifest(tmp_path):
    recorded, expected = regen.read_manifest()
    here = regen.platform()
    other = [f"{key} {recorded[key]!r} here {here.get(key)!r}"
             for key in recorded if here.get(key) != recorded[key]]
    if other:
        pytest.skip("the manifest was recorded with another platform: " + "; ".join(other))
    regen.run_all(tmp_path)
    got = regen.digests(tmp_path)
    differ = sorted(name for name in expected.keys() & got.keys() if expected[name] != got[name])
    missing, extra = sorted(expected.keys() - got.keys()), sorted(got.keys() - expected.keys())
    assert not (differ or missing or extra), (
        f"differ: {differ}\nmissing: {missing}\nextra: {extra}")
