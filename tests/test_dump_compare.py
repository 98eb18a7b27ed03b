"""`tools/dump_exact.py --compare` on small hand-made dumps: which changes fail,
and the tool's exact tables, which call the library's private kernel.

No energy is computed; every dump is a few JSON lines written to tmp_path.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("dump_exact", ROOT / "tools" / "dump_exact.py")
dump_exact = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(dump_exact)

CALL = {"call": "zeroT D=3", "value": (-2.0).hex(),
        "per_channel": {"TE": (-1.25).hex(), "TM": (-0.75).hex()},
        "l_used": 40, "p_used": 0, "error_estimate": (1e-6).hex(),
        "warnings": [], "warned": []}
RAISED = {"call": "zeroT l_max_hard=3", "raised": "NonConvergenceError",
          "partial": (-1.5).hex(), "l_used": 3, "p_used": 0}
TABLE = {"degeneracy": "D=3 ch=TE", "coefficients": ["0", "2"]}
CLI = {"cli": "sweep csv", "argv": ["--mode", "sweep"], "exit": 0,
       "stdout": "dim,eps,energy\n3,0.5,-1.0\n"}
OLD = [CALL, RAISED, TABLE, CLI]


def _compare(tmp_path, new_records, old_records=OLD):
    paths = []
    for name, records in (("old.txt", old_records), ("new.txt", new_records)):
        path = tmp_path / name
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        paths.append(path)
    return dump_exact.compare(*paths)


def _with(record, **fields):
    return {**record, **fields}


def test_identical_dumps_pass(tmp_path, capsys):
    assert _compare(tmp_path, OLD) == 0
    assert "worst |delta value| / error_estimate: 0" in capsys.readouterr().out


def test_moves_within_the_estimate_and_new_records_pass(tmp_path, capsys):
    moved = _with(CALL, value=(-2.0 + 9e-7).hex(),
                  per_channel={"TE": (-1.25 + 5e-7).hex(), "TM": (-0.75 + 4e-7).hex()})
    extra = [_with(CALL, call="zeroT D=4"), _with(TABLE, degeneracy="D=4 ch=TE"),
             _with(CLI, cli="convergence")]
    assert _compare(tmp_path, [moved, RAISED, TABLE, CLI] + extra) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "new call zeroT D=4" in out
    assert "new table degeneracy D=4 ch=TE" in out
    assert "new cli run convergence" in out


@pytest.mark.parametrize("new, message", [
    ([_with(CALL, l_used=41), RAISED, TABLE, CLI], "FAIL zeroT D=3: l_used 40 -> 41"),
    ([_with(CALL, value=(-2.0 + 1.5e-6).hex()), RAISED, TABLE, CLI],
     "FAIL zeroT D=3: value moved by 1.5 x error_estimate"),
    ([_with(CALL, per_channel={"TE": (-1.25 - 2e-6).hex(), "TM": (-0.75).hex()}),
      RAISED, TABLE, CLI], "FAIL zeroT D=3: value moved by 2 x error_estimate"),
    ([CALL, TABLE, CLI], "FAIL zeroT l_max_hard=3: missing from NEW"),
    ([CALL, RAISED, _with(TABLE, coefficients=["0", "3"]), CLI],
     "FAIL table degeneracy D=3 ch=TE: differs"),
    ([CALL, RAISED, TABLE, _with(CLI, stdout=CLI["stdout"] + " ")],
     "FAIL cli sweep csv: output differs"),
], ids=["l_used", "value", "per_channel", "missing call", "table", "cli"])
def test_each_broken_rule_fails(tmp_path, capsys, new, message):
    assert _compare(tmp_path, new) == 1
    assert message in capsys.readouterr().out


def test_table_fields_new_in_new_pass(tmp_path, capsys):
    # a table record is compared on OLD's fields only, like a call
    assert _compare(tmp_path, [CALL, RAISED, _with(TABLE, values=["1"]), CLI]) == 0
    assert _compare(tmp_path, [CALL, RAISED, {"degeneracy": "D=3 ch=TE"}, CLI]) == 1
    assert "FAIL table degeneracy D=3 ch=TE: differs" in capsys.readouterr().out


def test_tables_cover_every_kind_and_serialise():
    # the tables reach private routines (the force kernel, the uniform series), so
    # a rename there fails here and not only when the tool is run
    records = list(dump_exact.tables())
    keys = [dump_exact._table_key(rec) for rec in records]
    assert len(records) == 598
    assert len(set(keys)) == len(keys)  # --compare keys the tables by label
    assert {kind for kind, _ in keys} == set(dump_exact.TABLE_KINDS)
    for rec in records:
        assert json.loads(json.dumps(rec, sort_keys=True)) == rec
