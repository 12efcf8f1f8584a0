"""Every ``run`` row, unsafe variant and matrix output against the digests
recorded in ``golden.json`` (see ``golden.py``, which regenerates it)."""

import json

import golden


def test_outputs_match_golden_table(tmp_path):
    with open(golden.TABLE) as fh:
        want = json.load(fh)
    have = golden.versions()
    assert have == want["versions"], (
        f"golden.json was recorded with numpy {want['versions']['numpy']} "
        f"and Python {want['versions']['python']}; this build has numpy "
        f"{have['numpy']} and Python {have['python']}, whose float reprs "
        f"may differ")
    got = golden.collect(str(tmp_path))["rows"]
    assert sorted(got) == sorted(want["rows"])
    differ = {row: sorted(k for k in ("exit", "stderr")
                          if got[row][k] != want["rows"][row][k]) +
              sorted(f for f in set(got[row]["files"]) |
                     set(want["rows"][row]["files"])
                     if got[row]["files"].get(f) !=
                     want["rows"][row]["files"].get(f))
              for row in want["rows"]}
    assert not {row: d for row, d in differ.items() if d}
