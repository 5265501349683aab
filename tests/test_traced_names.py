"""Every name that `perfbench/traced_cli.py` wraps must exist on the package,
and each loader's counter must read that loader's real result: a rename or
a changed return type breaks `perfbench/run.py --trace 1` while every other
test still passes. The wrappers themselves are not installed here.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import traced_cli  # noqa: E402


@pytest.mark.parametrize("path, attr", [(p[0], p[1]) for p in traced_cli.PATCHES],
                         ids=[f"{p[0]}.{p[1]}" for p in traced_cli.PATCHES])
def test_traced_name_resolves(path, attr):
    assert callable(getattr(traced_cli._resolve(path), attr))


# A small valid file for each loader whose result a traced counter reads.
SMALL_FILES = {
    "load_manifest": "image_id,label,split\na,private,train\nb,,\n",
    "load_privacy_store": "image_id,adult,racy,medical,spoofed,violent,people_prob,people_count,"
                          "outdoor_prob\na,VERY_UNLIKELY,,POSSIBLE,LIKELY,UNLIKELY,0.5,1,0.25\n",
    "load_annotations": "image_id,assessor_id,vote\na,u1,PRIVATE\na,u2,PUBLIC\nb,u1,UNDECIDABLE\n",
    "load_deep_store": "#source_tag=rn101,dim=2\nimage_id,v0,v1\na,0.5,1.0\nb,-2,3e-3\n",
    "load_detections": "image_id,class_name,confidence\na,person,0.9\na,dog,0.4\n",
}
COUNTED_LOADERS = [p for p in traced_cli.PATCHES if p[1].startswith("load_") and p[3]]


def test_every_counted_loader_has_a_file():
    assert {p[1] for p in COUNTED_LOADERS} == set(SMALL_FILES)


@pytest.mark.parametrize("path, attr, count", [(p[0], p[1], p[3]) for p in COUNTED_LOADERS],
                         ids=[f"{p[0]}.{p[1]}" for p in COUNTED_LOADERS])
def test_traced_counter_reads_the_loader_result(tmp_path, path, attr, count):
    """A loader whose result the counter cannot read would crash `--trace 1`."""
    file = tmp_path / "input.csv"
    file.write_text(SMALL_FILES[attr], encoding="utf-8")
    counts = count(getattr(traced_cli._resolve(path), attr)(file))
    assert counts and all(type(n) is int and n >= 0 for n in counts.values())
