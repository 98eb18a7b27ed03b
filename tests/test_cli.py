import dataclasses
import json

import pytest

from casimir_spheres import cli
from casimir_spheres.cli import (RESULT_FIELDS, ConfigError, RunConfig, build_config,
                                 compare_golden, main, parse_output,
                                 render_csv, run)

FAST_ARGS = ["--dim", "3", "--temp", "20.0", "--bc", "pc,pc",
             "--channel", "total", "--rel-tol", "1e-6"]


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_point_mode_rows(capsys):
    code, out, _ = run_cli(capsys, ["--mode", "point", "--eps", "0.1"] + FAST_ARGS)
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == ",".join(RESULT_FIELDS)
    rows = parse_output(out)
    assert [r["method"] for r in rows] == ["exact", "pfa", "expansion"]
    exact, pfa, exp = (r["energy"] for r in rows)
    assert exact < 0 and pfa < 0 and exp < 0
    # at a1 T = 20 the classical series band holds to its eps^3 accuracy
    assert abs(exact / exp - 1) < 2e-2
    # 17 significant digits in scientific notation
    cell = lines[1].split(",")[9]
    mantissa = cell.split("e")[0]
    assert len(mantissa.replace("-", "").replace(".", "")) == 17


def test_point_mode_requires_single_point():
    with pytest.raises(ConfigError):
        build_config(["--mode", "point", "--eps", "0.1,0.2"])


def test_config_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, ["--dim", "2"])
    assert code == 1 and "configuration error" in err
    code, _, err = run_cli(capsys, ["--eps", "-0.5"])
    assert code == 1
    code, _, err = run_cli(capsys, ["--bc", "pc,steel"])
    assert code == 1
    code, _, err = run_cli(capsys, ["--not-a-flag"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["--l-max", "0"], ["--p-max", "0"], ["--l-max", "1e3"],
    ["--eps", "nan"], ["--eps", "inf"], ["--temp", "nan"], ["--temp", "inf"],
    ["--mode", "bogus"], ["--format", "xml"], ["--not-a-flag"],
    ["--config", "missing.cfg"],
    ["--golden", "missing.csv", "--mode", "sweep", "--eps", "0.5"] + FAST_ARGS,
    ["--golden", "not-results.csv", "--mode", "sweep", "--eps", "0.5"] + FAST_ARGS,
    ["--out", "no-such-dir/out.csv", "--mode", "sweep", "--eps", "0.5"] + FAST_ARGS,
], ids=lambda argv: " ".join(argv[:2]))
def test_bad_input_is_one_config_error_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "not-results.csv").write_text("a,b\n1,2\n")

    def no_compute(cfg, point):  # every bad input is found before the grid
        raise AssertionError("a grid point was computed")
    monkeypatch.setattr(cli, "_compute_point", no_compute)
    code, _, err = run_cli(capsys, argv)  # an uncaught exception fails the test
    assert code == 1
    assert err.startswith("configuration error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", [
    "a,b\n1,2\n",
    ",".join(RESULT_FIELDS) + "\n3,1.0\n",
    '{"rows": [{"D": 3}]}',
    '{"metadata": {}}',
    '{"rows": ',
])
def test_non_result_golden_is_config_error(text, tmp_path):
    golden = tmp_path / "g.txt"
    golden.write_text(text)
    with pytest.raises(ConfigError, match="g.txt"):
        compare_golden([], str(golden), 1e-9)


def test_unknown_config_key_names_key_and_line(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("mode = sweep\n# T in units of 1/a1\ntemperature = 1\n")
    code, out, err = run_cli(capsys, ["--config", str(cfgfile)])
    assert (code, out) == (1, "")
    assert err == f"configuration error: {cfgfile}:3: unknown key 'temperature'\n"


@pytest.mark.parametrize("forms", [
    ("l_max = 500", "l_max_hard = 500", "l-max = 500", "--l-max 500"),
    ("temp = 1", "temps = 1", "--temp 1"),
    ("force = 1", "with_force = yes", "force = True", "--force"),
], ids=["l_max", "temp", "force"])
def test_config_key_forms_agree(forms, tmp_path):
    """A key is the flag name or the field name, and means what the flag means."""
    cfgs = []
    for i, form in enumerate(forms):
        if form.startswith("--"):
            cfgs.append(build_config(form.split()))
            continue
        cfgfile = tmp_path / f"{i}.cfg"
        cfgfile.write_text(form + "\n")
        cfgs.append(build_config(["--config", str(cfgfile)]))
    assert cfgs[0] != RunConfig()
    assert all(c == cfgs[0] for c in cfgs)


def test_bad_force_value_rejected(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("force = on\n")
    with pytest.raises(ConfigError, match="--force"):
        build_config(["--config", str(cfgfile)])


def test_settings_table_has_one_row_per_field():
    assert [row[0] for row in cli._SETTINGS] == \
        [f.name for f in dataclasses.fields(RunConfig)]


def test_csv_header_pins_embedded_config(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("temps = 0,20\nchannels = total,TE\nwith_force = yes\n")
    cfg = build_config(["--config", str(cfgfile), "--mode", "sweep", "--dim", "3,4",
                        "--eps", "0.01:0.1:2", "--bc", "pc,pc", "--bc", "ip,pc",
                        "--rel-tol", "1e-6", "--l-max", "500", "--format", "csv",
                        "--threads", "2", "--out", "x.csv"])
    assert render_csv(cfg, []) == """\
# casimir-spheres 0.1.0
# bc_pairs = ['pc,pc', 'ip,pc']
# channels = ['total', 'te']
# dims = [3, 4]
# eps_list = [0.01, 0.1]
# fmt = csv
# l_max_hard = 500
# mode = sweep
# p_max_hard = 1000000
# rel_tol = 1e-06
# temps = [0.0, 20.0]
# with_force = True
D,a1,a2,eps,T,bc_inner,bc_outer,channel,method,energy,force,l_used,p_used,error_estimate,status
"""


def test_eps_log_range():
    cfg = build_config(["--mode", "sweep", "--eps", "0.01:0.1:3"])
    assert cfg.eps_list == pytest.approx([0.01, 0.01 * 10 ** 0.5, 0.1])


def test_config_file_and_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("mode = sweep\ndim = 3,4\neps = 0.2\n"
                       "temp = 1.0\nrel-tol = 1e-5\n# comment\n")
    cfg = build_config(["--config", str(cfgfile), "--dim", "3"])
    assert cfg.mode == "sweep"
    assert cfg.dims == [3]           # flag overrides file
    assert cfg.rel_tol == 1e-5
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ConfigError):
        build_config(["--config", str(bad)])


def test_json_output_validates_against_schema(tmp_path, capsys):
    import importlib.resources as resources

    import jsonschema

    code, out, _ = run_cli(capsys, ["--mode", "sweep", "--eps", "0.2,0.4",
                                    "--format", "json"] + FAST_ARGS)
    assert code == 0
    doc = json.loads(out)
    schema = json.loads(resources.files("casimir_spheres")
                        .joinpath("schema/resultrow.schema.json").read_text())
    jsonschema.validate(doc, schema)
    assert doc["metadata"]["config"]["rel_tol"] == 1e-6


def test_rows_sorted_and_deterministic(capsys):
    argv = ["--mode", "sweep", "--eps", "0.4,0.2", "--dim", "4,3",
            "--temp", "1.0", "--bc", "pc,ip", "--bc", "pc,pc",
            "--channel", "total,te", "--rel-tol", "1e-6"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = parse_output(out1)
    keys = [(int(r["D"]), r["eps"], r["T"], r["bc_inner"], r["bc_outer"],
             r["channel"]) for r in rows]
    assert keys == sorted(keys)


def test_threaded_run_identical(capsys):
    argv = ["--mode", "sweep", "--eps", "0.3,0.5", "--dim", "3",
            "--temp", "2.0", "--bc", "ip,pc", "--channel", "total",
            "--rel-tol", "1e-6"]
    _, out1, _ = run_cli(capsys, argv + ["--threads", "1"])
    _, out2, _ = run_cli(capsys, argv + ["--threads", "2"])
    assert out1 == out2  # byte-identical regardless of worker count


def test_expansion_row_skipped_out_of_regime(capsys):
    code, out, _ = run_cli(capsys, ["--mode", "sweep", "--eps", "0.8"] + FAST_ARGS)
    assert code == 0
    rows = parse_output(out)
    assert {r["method"] for r in rows} == {"exact", "pfa"}


def test_golden_roundtrip_and_mismatch(tmp_path, capsys):
    argv = ["--mode", "sweep", "--eps", "0.3"] + FAST_ARGS
    golden = tmp_path / "golden.csv"
    code, out, _ = run_cli(capsys, argv + ["--out", str(golden)])
    assert code == 0
    code2, _, _ = run_cli(capsys, argv + ["--golden", str(golden)])
    assert code2 == 0
    # corrupt the stored energy by 1 percent -> exit 3
    text = golden.read_text()
    rows = parse_output(text)
    bad = rows[0]["energy"] * 1.01
    corrupted = text.replace(f"{rows[0]['energy']:.16e}", f"{bad:.16e}", 1)
    golden.write_text(corrupted)
    code3, _, err = run_cli(capsys, argv + ["--golden", str(golden)])
    assert code3 == 3 and "golden mismatch" in err


def test_json_golden_roundtrip(tmp_path, capsys):
    argv = ["--mode", "sweep", "--eps", "0.3", "--format", "json"] + FAST_ARGS
    golden = tmp_path / "golden.json"
    assert run_cli(capsys, argv + ["--out", str(golden)])[0] == 0
    assert run_cli(capsys, argv + ["--golden", str(golden)])[0] == 0


def test_nonconvergence_exit_2(capsys):
    code, out, _ = run_cli(capsys, ["--mode", "sweep", "--eps", "0.1",
                                    "--dim", "3", "--temp", "0", "--bc", "pc,pc",
                                    "--channel", "total", "--rel-tol", "1e-6",
                                    "--l-max", "3"])
    assert code == 2
    rows = parse_output(out)
    assert any(r["status"] == "failed" for r in rows)
    assert any(r["status"] == "ok" for r in rows)  # pfa rows still emitted


def test_failed_energy_row_reports_completed_counts(capsys):
    code, out, _ = run_cli(capsys, ["--mode", "point", "--eps", "0.1",
                                    "--dim", "3", "--temp", "0", "--bc", "pc,pc",
                                    "--channel", "total", "--rel-tol", "1e-6",
                                    "--l-max", "3"])
    assert code == 2
    exact = parse_output(out)[0]
    assert (exact["method"], exact["status"]) == ("exact", "failed")
    assert exact["energy"] == pytest.approx(-24.96, abs=1e-2)  # TE and TM, l = 1..3
    assert (exact["l_used"], exact["p_used"]) == ("3", "0")


def test_convergence_mode(capsys):
    code, out, _ = run_cli(capsys, ["--mode", "convergence", "--eps", "0.2",
                                    "--dim", "3", "--temp", "0.5",
                                    "--bc", "pc,pc", "--channel", "total",
                                    "--rel-tol", "1e-8"])
    assert code in (0, 2)  # small caps in the ladder may legitimately fail
    rows = parse_output(out)
    assert len(rows) >= 3
    ok = [r for r in rows if r["status"] == "ok"]
    # monotone stabilization: the last two converged energies nearly agree
    assert abs(ok[-1]["energy"] - ok[-2]["energy"]) <= \
        5 * max(ok[-1]["error_estimate"], 1e-14 * abs(ok[-1]["energy"]))
    caps = [int(r["l_used"]) for r in rows]
    assert caps == sorted(caps)
    # failed rows report the counts they reached and every channel's finished terms
    failed = [r for r in rows if r["status"] == "failed"]
    assert failed
    assert all(int(r["p_used"]) <= min(int(o["p_used"]) for o in ok) for r in failed)
    gaps = [abs(r["energy"] - ok[-1]["energy"]) for r in failed]
    assert gaps == sorted(gaps, reverse=True) and len(set(gaps)) == len(gaps)


def test_compare_mode_first_correction_trend(capsys):
    # high-T sweep at D=3: the (exact/pfa - 1)/eps column tends to 1.
    # T is chosen so d*T >> 1 even at the smallest gap (the classical regime).
    code, out, _ = run_cli(capsys, ["--mode", "compare", "--dim", "3",
                                    "--eps", "0.01:0.3:4", "--temp", "2000",
                                    "--bc", "pc,pc", "--channel", "total",
                                    "--rel-tol", "1e-8"])
    assert code == 0
    rows = parse_output(out)
    by_eps = {}
    for r in rows:
        by_eps.setdefault(r["eps"], {})[r["method"]] = r["energy"]
    slopes = [(eps, (v["exact"] / v["pfa"] - 1.0) / eps)
              for eps, v in sorted(by_eps.items())]
    # the approach to 1 is eps*log(eps)-slow at D=3: 0.930 predicted at 0.01
    assert abs(slopes[0][1] - 1.0) < 0.08
    deviations = [abs(s - 1.0) for _, s in slopes]
    assert deviations == sorted(deviations)     # monotone approach to 1


def test_force_column(capsys):
    code, out, _ = run_cli(capsys, ["--mode", "sweep", "--eps", "0.4",
                                    "--force"] + FAST_ARGS)
    assert code == 0
    rows = parse_output(out)
    exact = [r for r in rows if r["method"] == "exact"][0]
    assert exact["force"] is not None and exact["force"] < 0


def test_failed_force_keeps_converged_energy(capsys):
    # the energy converges at l = 33; the force stencil's eps - h point needs l = 34
    argv = ["--mode", "point", "--dim", "3", "--eps", "0.323", "--temp", "1",
            "--bc", "pc,pc", "--channel", "total", "--rel-tol", "1e-6",
            "--l-max", "33"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    plain = parse_output(out)[0]
    code, out, _ = run_cli(capsys, argv + ["--force"])
    assert code == 2
    row = parse_output(out)[0]
    assert row["method"] == "exact" and row["status"] == "failed"
    assert row["force"] is None
    for key in ("energy", "l_used", "p_used", "error_estimate"):
        assert row[key] == plain[key]


def test_selftest_mode(tmp_path, capsys):
    out_path = tmp_path / "selftest.txt"
    code, _, _ = run_cli(capsys, ["--mode", "selftest", "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert "PASS" in text and "FAIL" not in text.split("log-term fit report")[0]
    assert '"selected": "eps2_ln"' in text


def test_compare_golden_missing_row(tmp_path):
    rows = [{"D": 3, "eps": 0.1, "T": 0.0, "bc_inner": "pc", "bc_outer": "pc",
             "channel": "total", "method": "exact", "energy": -1.0,
             "error_estimate": 1e-9}]
    golden = tmp_path / "g.csv"
    cfg = build_config(["--mode", "sweep"])
    other = dict(rows[0], channel="te")
    golden.write_text(render_csv(cfg, [dict(r, a1=1.0, a2=1.1, force=None,
                                            l_used=1, p_used=0, status="ok")
                                       for r in (rows[0], other)]))
    problems = compare_golden([dict(rows[0], a1=1.0, a2=1.1, force=None,
                                    l_used=1, p_used=0, status="ok")],
                              str(golden), 1e-9)
    assert any("missing row" in p for p in problems)
