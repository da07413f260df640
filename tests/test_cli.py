import errno
import json
import re

import pytest

from flowtile import cli
from flowtile.cli import main
from flowtile.loe import LoeReport, PiecewiseTranslationMap


def run(args):
    return main(args)


class TestCli:
    def test_gen_schema_and_roundtrip(self, tmp_path):
        out = tmp_path / "w.json"
        assert run(["gen", "--kind", "uniform", "--n", "50", "--seed", "1",
                    "--k0", "7", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert list(data) == ["positions"]
        assert len(data["positions"]) == 50
        from flowtile.windows import OrbitWindow
        w = OrbitWindow.from_json(data)
        assert w.to_json() == data

    def test_tile_then_verify(self, tmp_path):
        w = tmp_path / "w.json"
        t = tmp_path / "t.json"
        assert run(["gen", "--kind", "uniform", "--n", "60", "--seed", "2",
                    "--k0", "7", "--out", str(w)]) == 0
        assert run(["tile", "--mode", "full", "--depth", "2",
                    "--in", str(w), "--out", str(t)]) == 0
        assert run(["verify", "--eta", "1/8", str(t)]) == 0

    def test_patched_command_after_first_call(self, tmp_path, monkeypatch,
                                              capsys):
        # the parser is built once, and each call looks its command up by
        # name, so a command patched after the first call is the one run
        assert run(["verify", str(tmp_path / "none.json")]) == 2
        called = []

        def patched(args):
            called.append(args.infile)
            return 0

        def no_rebuild():
            raise AssertionError("parser built again")

        monkeypatch.setattr(cli, "cmd_verify", patched)
        monkeypatch.setattr(cli, "build_parser", no_rebuild)
        assert run(["verify", "--eta", "1/4", "s.json"]) == 0
        assert called == ["s.json"]

    def test_subcommands_one_after_another(self, tmp_path, capsys):
        # each call of main parses its own arguments on the shared parser
        w = tmp_path / "w.json"
        t = tmp_path / "t.json"
        assert run(["gen", "--kind", "uniform", "--n", "30", "--seed", "4",
                    "--k0", "7", "--out", str(w)]) == 0
        assert capsys.readouterr().out.startswith(f"wrote 30 points to {w}")
        assert run(["--rho", "1/2", "tile", "--depth", "2", "--in", str(w),
                    "--out", str(t)]) == 0
        assert capsys.readouterr().out.startswith("tiled ")
        assert run(["--rho", "1/2", "verify", str(t)]) == 2
        assert capsys.readouterr().err == (
            "usage error: verify does not read --rho; only tile does\n")
        assert run(["verify", str(t)]) == 0
        assert capsys.readouterr().out.startswith("OK: N(1/8) = ")

    def test_verify_rejects_corrupt_section(self, tmp_path):
        w = tmp_path / "w.json"
        t = tmp_path / "t.json"
        run(["gen", "--kind", "uniform", "--n", "40", "--seed", "3",
             "--k0", "7", "--out", str(w)])
        run(["tile", "--mode", "full", "--depth", "2", "--in", str(w),
             "--out", str(t)])
        data = json.loads(t.read_text())
        # a blank letter gives its gap no length
        data["letters"] = " " + data["letters"][1:]
        t.write_text(json.dumps(data))
        assert run(["verify", str(t)]) == 1

    def test_plot_svg(self, tmp_path):
        w = tmp_path / "w.json"
        t = tmp_path / "t.json"
        svg = tmp_path / "t.svg"
        run(["gen", "--kind", "uniform", "--n", "30", "--seed", "4",
             "--k0", "7", "--out", str(w)])
        run(["tile", "--mode", "full", "--depth", "2", "--in", str(w),
             "--out", str(t)])
        assert run(["plot", str(t), "--svg", str(svg)]) == 0
        body = svg.read_text()
        assert "#1f77b4" in body and "#d62728" in body

    def test_loe_subcommand(self, tmp_path):
        w = tmp_path / "w.json"
        t1 = tmp_path / "t1.json"
        m = tmp_path / "m.json"
        run(["gen", "--kind", "uniform", "--n", "40", "--seed", "5",
             "--k0", "7", "--out", str(w)])
        run(["tile", "--mode", "full", "--depth", "2", "--in", str(w),
             "--out", str(t1)])
        assert run(["loe", "--a", str(t1), "--b", str(t1), "--out", str(m)]) == 0
        data = json.loads(m.read_text())
        assert data["pieces"]

    def test_loe_failed_map_check_writes_nothing(self, tmp_path, capsys,
                                                 monkeypatch):
        w = tmp_path / "w.json"
        t = tmp_path / "t.json"
        m = tmp_path / "m.json"
        run(["gen", "--n", "40", "--seed", "5", "--out", str(w)])
        assert run(["tile", "--depth", "2", "--in", str(w), "--out", str(t)]) == 0
        report = LoeReport(False, ["source pieces overlap at 3",
                                   "piece 0: kind a but length sqrt(2)"],
                           7, None)
        monkeypatch.setattr(cli, "verify_loe", lambda m, params: report)
        assert_fails(["loe", "--a", str(t), "--b", str(t), "--out", str(m)],
                     r"orbit map check failed: source pieces overlap at 3; "
                     r"piece 0: kind a but length sqrt\(2\)$", capsys)
        assert not m.exists()

    def test_loe_map_off_its_sections_writes_nothing(self, tmp_path, capsys,
                                                     monkeypatch):
        # without its first piece, from gap 2, the map still passes
        # verify_loe; but gap 2 is covered neither by a piece nor by the
        # residue, and the first alpha pair is missing
        w = tmp_path / "w.json"
        t = tmp_path / "t.json"
        m = tmp_path / "m.json"
        run(["gen", "--n", "40", "--seed", "5", "--out", str(w)])
        assert run(["tile", "--depth", "2", "--in", str(w), "--out", str(t)]) == 0
        build = cli.build_loe

        def first_piece_dropped(t1, t2):
            good = build(t1, t2)
            return PiecewiseTranslationMap(good.pieces[1:], good.residue_src,
                                           good.residue_dst)

        monkeypatch.setattr(cli, "build_loe", first_piece_dropped)
        assert_fails(["loe", "--a", str(t), "--b", str(t), "--out", str(m)],
                     r"orbit map check failed: source gap 2 is covered 0 "
                     r"times by pieces and residue; target gap 2 is covered 0 "
                     r"times by pieces and residue; alpha piece 0 maps source "
                     r"gap 4 to target gap 4, not 2 to 2$", capsys)
        assert not m.exists()

    def test_loe_between_independent_sections(self, tmp_path, capsys):
        # different windows, different alpha counts: the map stands, with
        # the surplus in the residue; a section under other params is refused
        paths = {}
        for name, seed, flags in (("t3", 3, []), ("t4", 4, []),
                                  ("t3-rho", 3, ["--rho", "1/3"])):
            w = tmp_path / f"w{seed}.json"
            paths[name] = str(tmp_path / f"{name}.json")
            run(["gen", "--n", "60", "--seed", str(seed), "--out", str(w)])
            assert run(flags + ["tile", "--depth", "2", "--in", str(w),
                                "--out", paths[name]]) == 0
        m = str(tmp_path / "m.json")
        capsys.readouterr()
        assert run(["loe", "--a", paths["t3"], "--b", paths["t4"],
                    "--out", m]) == 0
        assert capsys.readouterr().out == \
            "405 pieces; residue 13 src / 10 dst; OK\n"
        assert_fails(["loe", "--a", paths["t3"], "--b", paths["t3-rho"],
                      "--out", m],
                     r"sections have different params: .*rho=1/2\) vs "
                     r".*rho=1/3\)", capsys)

    def test_tile_failure_is_one_line_exit_1(self, tmp_path, capsys):
        # a gap of 1/10 would need both ends to move by 1/3 or more
        w = tmp_path / "w.json"
        w.write_text(json.dumps({"boundary": "open", "positions": ["0", "1/10"]}))
        assert run(["tile", "--depth", "2", "--in", str(w),
                    "--out", str(tmp_path / "t.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("verification failure: stage 1: ")
        assert err.count("\n") == 1

    def test_usage_error_exit_code(self, tmp_path):
        assert run(["tile", "--in", str(tmp_path / "missing.json"),
                    "--out", str(tmp_path / "t.json")]) == 2
        assert run(["gen", "--kind", "bogus", "--out", "x.json"]) == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "{dir}"],
        ["tile", "--in", "{dir}", "--out", "t.json"],
        ["loe", "--a", "{dir}", "--b", "{dir}", "--out", "m.json"],
        ["plot", "{dir}", "--svg", "s.svg"],
        ["gen", "--out", "{dir}"],
        ["verify", "{bytes}"],
        ["tile", "--in", "{bytes}", "--out", "t.json"],
        ["verify", "{cut}"],
        ["loe", "--a", "{good}", "--b", "{bytes}", "--out", "m.json"],
        ["loe", "--a", "{good}", "--b", "{cut}", "--out", "m.json"],
    ], ids=["verify-dir", "tile-in-dir", "loe-dir", "plot-dir", "gen-out-dir",
            "verify-not-utf8", "tile-not-utf8", "verify-truncated",
            "loe-b-not-utf8", "loe-b-truncated"])
    def test_unreadable_path_is_usage_error(self, argv, tmp_path, monkeypatch,
                                            capsys):
        # a directory cannot be opened as a file; 0xff starts no UTF-8 text;
        # c.json stops inside its object; g.json is a tiled section
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        (tmp_path / "b.json").write_bytes(b'\xff{"boundary": "open"}')
        (tmp_path / "c.json").write_text('{"positions": ["0",\n')
        if "{good}" in argv:
            assert run(["gen", "--n", "20", "--out", "w.json"]) == 0
            assert run(["tile", "--in", "w.json", "--out", "g.json"]) == 0
            capsys.readouterr()
        bad = {"{dir}": "'d'", "{bytes}": "b.json: ", "{cut}": "c.json: "}
        named = [bad[a] for a in argv if a in bad]
        argv = [a.format(dir="d", bytes="b.json", cut="c.json", good="g.json")
                for a in argv]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "t.json").exists()
        assert not (tmp_path / "m.json").exists()
        # the line names the file that failed, and no other
        assert named and all(name in captured.err for name in named)
        assert "g.json" not in captured.err

    def test_write_error_is_not_a_usage_error(self, tmp_path, monkeypatch):
        # a disk that fills while the output is written is no fault of the
        # command line: the error propagates
        def full(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(cli.json, "dump", full)
        with pytest.raises(OSError, match="No space left"):
            run(["gen", "--out", str(tmp_path / "w.json")])

    def test_subcommands_are_the_artifact_path(self, capsys):
        assert run(["--help"]) == 0
        assert "{gen,tile,verify,loe,plot}" in capsys.readouterr().out
        for name in ("classes", "blocks", "density", "boost"):
            assert run([name]) == 2
            assert f"invalid choice: '{name}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gen", "--k0", "foo", "--out", "out.json"],
        ["--rho", "abc", "tile", "--in", "w.json", "--out", "t.json"],
        ["--alpha", "", "tile", "--in", "w.json", "--out", "t.json"],
        ["--beta", "", "tile", "--in", "w.json", "--out", "t.json"],
    ], ids=["k", "rho", "alpha-empty", "beta-empty"])
    def test_malformed_literal_is_usage_error(self, argv, tmp_path,
                                              monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "w.json").write_text(
            json.dumps({"boundary": "open", "positions": ["0", "3"]}))
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("bad", ["foo", "1/0", [1]],
                             ids=["foo", "1/0", "list"])
    def test_bad_literal_inside_input_file_exits_1(self, bad, tmp_path, capsys):
        w = tmp_path / "w.json"
        w.write_text(json.dumps({"boundary": "open", "positions": ["0", bad]}))
        assert run(["tile", "--depth", "1", "--in", str(w),
                    "--out", str(tmp_path / "t.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("verification failure: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("tamper,message", [
        (lambda d: d["origin_positions"].__setitem__(3, "1000"),
         "original point 3 displaced "),
        (lambda d: d["origin_positions"].pop(3),
         "section field 'origin_positions' has 39 entries for 40 original "
         "points"),
    ], ids=["moved", "missing"])
    def test_verify_rejects_displaced_point(self, tamper, message, tmp_path,
                                            capsys):
        w = tmp_path / "w.json"
        t = tmp_path / "t.json"
        run(["gen", "--kind", "uniform", "--n", "40", "--seed", "3",
             "--k0", "7", "--out", str(w)])
        run(["tile", "--mode", "full", "--depth", "4", "--in", str(w),
             "--out", str(t)])
        data = json.loads(t.read_text())
        tamper(data)
        t.write_text(json.dumps(data))
        capsys.readouterr()
        assert run(["verify", "--eta", "1/8", str(t)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"verification failure: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("tamper,message", [
        (lambda d: d.update(origin_index=[], origin_positions=[]),
         "section has no original point"),
        (lambda d: (d.pop("origin_index"), d.pop("origin_positions")),
         "section has no 'origin_index' field"),
        (lambda d: d["origin_positions"].append("0"),
         "section field 'origin_positions' has 61 entries for 60 original "
         "points"),
    ], ids=["ids_erased", "ids_and_origins_erased", "stray_origin"])
    def test_verify_rejects_erased_provenance(self, tamper, message, tmp_path,
                                              capsys):
        # with no original point the displacement claim covers nothing
        w = tmp_path / "w.json"
        t = tmp_path / "t.json"
        run(["gen", "--n", "60", "--seed", "3", "--out", str(w)])
        assert run(["tile", "--in", str(w), "--out", str(t)]) == 0
        data = json.loads(t.read_text())
        tamper(data)
        t.write_text(json.dumps(data))
        capsys.readouterr()
        assert run(["verify", str(t)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"verification failure: {message}\n"

    @pytest.mark.parametrize("mode", ["full", "sparse"])
    def test_tile_and_verify_one_point_window(self, mode, tmp_path, capsys):
        w = tmp_path / "w.json"
        t = tmp_path / "t.json"
        w.write_text(json.dumps({"positions": ["0"]}))
        assert run(["tile", "--mode", mode, "--depth", "2", "--in", str(w),
                    "--out", str(t)]) == 0
        assert "tiled 1 points; counts 0 alpha / 0 beta\n" in \
            capsys.readouterr().out
        assert run(["verify", str(t)]) == 0

    @pytest.mark.parametrize("file,tamper,field", [
        ("schedule", lambda d: d.pop("K"), "'K'"),
        ("schedule", lambda d: d.update(depth="2"), "'depth'"),
        ("schedule", lambda d: d.update(depth=True), "'depth'"),
        ("schedule", lambda d: d.update(depth=0, K=["7"]),
         "depth must be at least 1, got 0"),
        ("schedule", lambda d: d.update(rho="1"),
         "rho must lie strictly inside (0, 1)"),
        ("schedule", lambda d: d.update(K=["7", "10", "25"]),
         "chain thresholds must step by at least 4: 7 then 10"),
        ("window", lambda d: d.pop("positions"), "'positions'"),
    ], ids=["schedule_no_K", "schedule_depth_str", "schedule_depth_true",
            "schedule_depth_0", "schedule_rho_1", "schedule_K_step_3",
            "window_no_positions"])
    def test_malformed_schedule_or_window_exits_1(self, file, tamper,
                                                   field, schedule2,
                                                   tmp_path, capsys):
        w = tmp_path / "w.json"
        sched = tmp_path / "s.json"
        window = {"boundary": "open", "positions": ["0", "9"]}
        schedule = schedule2.to_json()
        tamper(schedule if file == "schedule" else window)
        w.write_text(json.dumps(window))
        sched.write_text(json.dumps(schedule))
        assert run(["tile", "--schedule", str(sched), "--in", str(w),
                    "--out", str(tmp_path / "t.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("verification failure: ")
        assert err.count("\n") == 1
        assert field in err

    @pytest.mark.parametrize("mode", ["full", "sparse"],
                             ids=["tile", "tile_sparse"])
    def test_window_boundary(self, mode, tmp_path, capsys):
        # a window is an open orbit segment: the legacy "open" reads, a
        # periodic window is refused rather than cut open
        w = tmp_path / "w.json"
        argv = ["tile", "--mode", mode, "--depth", "1", "--in", str(w),
                "--out", str(tmp_path / "t.json")]
        w.write_text(json.dumps({"boundary": "open", "positions": ["0", "9"]}))
        assert run(argv) == 0
        w.write_text(json.dumps({"boundary": "periodic", "circumference": "20",
                                 "positions": ["0", "9"]}))
        assert_fails(argv, r"window boundary 'periodic' is not supported",
                     capsys)

    def test_tile_rejects_under_dense_supplied_k0(self, schedule2, tmp_path,
                                                  capsys):
        # the K-search skips K_0 = 6 (its stage-1 corridor is not dense)
        sched, w = tmp_path / "s.json", tmp_path / "w.json"
        sched.write_text(json.dumps({**schedule2.to_json(),
                                     "K": ["6", "11", "25"]}))
        w.write_text(json.dumps({"positions": ["0", "9"]}))
        assert_fails(["tile", "--schedule", str(sched), "--in", str(w),
                      "--out", str(tmp_path / "t.json")],
                     r"supplied K_0 fails the stage-1 corridor density check",
                     capsys)

    def test_tile_loads_schedule_with_retired_fields(self, tmp_path):
        # the schedule format before "near" and "pair_spacing" were dropped;
        # only the parameters, depth and K are read back
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps({
            "alpha": "1", "beta": "sqrt(2)", "rho": "1/2", "depth": 2,
            "eps": ["1/6", "1/12", "1/24"],
            "eta": ["1", "1/2", "1/4", "1/8"],
            "K": ["7", "11", "25"],
            "near": [1, 12, 26],
            "L": ["sqrt(2)", "...", "..."],
            "pair_spacing": [3, 3, 3, 3],
        }))
        w = tmp_path / "w.json"
        t = tmp_path / "t.json"
        run(["gen", "--kind", "uniform", "--n", "40", "--seed", "3",
             "--k0", "7", "--out", str(w)])
        assert run(["tile", "--schedule", str(sched), "--in", str(w),
                    "--out", str(t)]) == 0
        assert run(["verify", "--eta", "1/8", str(t)]) == 0

    @pytest.mark.parametrize("tamper,message", [
        (list, "section field 'letters' is not a str: got a list\n"),
        (lambda letters: letters.replace("b", "c", 1), "unknown gap letter 'c'"),
    ], ids=["list", "c"])
    def test_verify_rejects_unknown_letter(self, tamper, message, tmp_path,
                                           capsys):
        w = tmp_path / "w.json"
        t = tmp_path / "t.json"
        run(["gen", "--kind", "uniform", "--n", "40", "--seed", "3",
             "--k0", "7", "--out", str(w)])
        run(["tile", "--mode", "full", "--depth", "2", "--in", str(w),
             "--out", str(t)])
        data = json.loads(t.read_text())
        data["letters"] = tamper(data["letters"])
        t.write_text(json.dumps(data))
        capsys.readouterr()
        assert run(["verify", "--eta", "1/8", str(t)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"verification failure: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("tamper,field", [
        (lambda d: d.update(rho=[1]), "'rho'"),
        (lambda d: d.pop("start"), "'start'"),
        (lambda d: d["witnesses"][0].pop("max_value"), "'max_value'"),
        (lambda d: d["witnesses"][0].update(cuts=5), "'cuts'"),
        (lambda d: d["origin_positions"].pop(), "'origin_positions'"),
    ], ids=["rho_list", "no_start", "witness_no_max_value", "witness_cuts_int",
            "last_position_deleted"])
    def test_verify_rejects_malformed_section(self, tamper, field, tmp_path,
                                              capsys):
        w = tmp_path / "w.json"
        t = tmp_path / "t.json"
        run(["gen", "--kind", "uniform", "--n", "20", "--seed", "3",
             "--k0", "7", "--out", str(w)])
        run(["tile", "--mode", "full", "--depth", "2", "--in", str(w),
             "--out", str(t)])
        data = json.loads(t.read_text())
        tamper(data)
        t.write_text(json.dumps(data))
        capsys.readouterr()
        assert run(["verify", "--eta", "1/8", str(t)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("verification failure: ")
        assert err.count("\n") == 1
        assert field in err

    def test_tile_reads_a_written_schedule(self, schedule2, tmp_path):
        # the schedule file format, as Schedule.to_json writes it
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps(schedule2.to_json()))
        w = tmp_path / "w.json"
        from_file = tmp_path / "a.json"
        built = tmp_path / "b.json"
        run(["gen", "--kind", "uniform", "--n", "40", "--seed", "3",
             "--k0", "7", "--out", str(w)])
        assert run(["tile", "--schedule", str(sched), "--in", str(w),
                    "--out", str(from_file)]) == 0
        assert run(["tile", "--depth", "2", "--in", str(w),
                    "--out", str(built)]) == 0
        assert json.loads(from_file.read_text()) == json.loads(built.read_text())
        # with neither --depth nor --schedule the depth is 2
        assert run(["tile", "--in", str(w), "--out", str(built)]) == 0
        assert json.loads(from_file.read_text()) == json.loads(built.read_text())

    @pytest.mark.parametrize("depth", ["3", "2"], ids=["other", "same"])
    def test_schedule_file_refuses_depth_flag(self, depth, schedule2,
                                              tmp_path, capsys):
        # the file's depth would be tiled at, and the flag ignored, even
        # where the two agree
        sched, w = tmp_path / "s.json", tmp_path / "w.json"
        sched.write_text(json.dumps(schedule2.to_json()))
        w.write_text(json.dumps({"positions": ["0", "9"]}))
        assert_usage_error(["tile", "--schedule", str(sched), "--depth", depth,
                            "--in", str(w), "--out", str(tmp_path / "t.json")],
                           "--depth does not apply with --schedule, whose "
                           "file sets it", capsys)
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("seed", ["3", "0"], ids=["other", "default"])
    def test_sparse_mode_refuses_seed_flag(self, seed, tmp_path, capsys):
        # sparse mode draws no growth pairs: the seed would be ignored, even
        # where it equals full mode's default
        w = tmp_path / "w.json"
        w.write_text(json.dumps({"positions": ["0", "9"]}))
        assert_usage_error(["tile", "--mode", "sparse", "--seed", seed,
                            "--in", str(w), "--out", str(tmp_path / "t.json")],
                           "--seed does not apply with --mode sparse, which "
                           "draws no growth pairs", capsys)
        assert not (tmp_path / "t.json").exists()

    def test_full_mode_seed_defaults_to_zero(self, tmp_path):
        w = tmp_path / "w.json"
        run(["gen", "--n", "40", "--seed", "3", "--out", str(w)])
        outs = [tmp_path / f"t{i}.json" for i in range(3)]
        assert run(["tile", "--in", str(w), "--out", str(outs[0])]) == 0
        assert run(["tile", "--seed", "0", "--in", str(w),
                    "--out", str(outs[1])]) == 0
        assert run(["tile", "--mode", "sparse", "--in", str(w),
                    "--out", str(outs[2])]) == 0
        assert outs[0].read_text() == outs[1].read_text()

    @pytest.mark.parametrize("flag", [["--alpha", "1"], ["--beta", "sqrt(2)"],
                                      ["--rho", "1/3"], ["--rho", "1/2"]],
                             ids=["alpha", "beta", "rho_1_3", "rho_1_2"])
    def test_schedule_file_refuses_parameter_flags(self, flag, schedule2,
                                                   tmp_path, capsys):
        # the file's parameters would be tiled at, and the flag ignored
        sched, w = tmp_path / "s.json", tmp_path / "w.json"
        sched.write_text(json.dumps(schedule2.to_json()))
        w.write_text(json.dumps({"positions": ["0", "9"]}))
        assert_usage_error(flag + ["tile", "--schedule", str(sched), "--in",
                                   str(w), "--out", str(tmp_path / "t.json")],
                           "--alpha, --beta and --rho do not apply with "
                           "--schedule, whose file sets them", capsys)
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("command,key", [
        ("tile", "positions"), ("tile --schedule", "depth"),
    ])
    def test_input_file_rejects_repeated_key(self, command, key, schedule2,
                                             tmp_path, capsys):
        # the first of two equal keys, which json.load alone would drop
        w, sched = tmp_path / "w.json", tmp_path / "s.json"
        w.write_text(json.dumps({"positions": ["0", "9"]}))
        sched.write_text(json.dumps(schedule2.to_json()))
        out = str(tmp_path / "out.json")
        argv, path = {
            "tile": (["tile", "--depth", "1", "--in", str(w), "--out", out], w),
            "tile --schedule": (["tile", "--schedule", str(sched), "--in",
                                 str(w), "--out", out], sched),
        }[command]
        data = json.loads(path.read_text())
        path.write_text(f'{{"{key}": {json.dumps(data[key])}, '
                        + path.read_text()[1:])
        assert_fails(argv, rf"key '{key}' appears twice in one JSON object$",
                     capsys)

    @pytest.mark.parametrize("argv,message", [
        (["tile", "--depth", "0"], "--depth must be at least 1, got 0"),
        (["tile", "--depth", "-1"], "--depth must be at least 1, got -1"),
    ], ids=["depth_0", "depth_minus_1"])
    def test_out_of_range_flag_is_usage_error(self, argv, message, tmp_path,
                                              capsys):
        # an input file that would fail: the flag is refused before it is
        # read
        w = tmp_path / "w.json"
        w.write_text('{"positions": ["0"], "positions": ["0"]}')
        assert_usage_error(argv + ["--in", str(w), "--out",
                                   str(tmp_path / "t.json")], message, capsys)

    @pytest.mark.parametrize("argv,message", [
        (["gen", "--n", "0"], "count must be positive"),
        (["gen", "--kind", "rotation_suspension", "--angle", "1/2", "--n", "5"],
         "rotation angle must be irrational (s != 0)"),
        (["--rho", "0", "tile"], "rho must lie strictly inside (0, 1)"),
        (["--rho", "1", "tile"], "rho must lie strictly inside (0, 1)"),
        (["--alpha", "2", "--beta", "1", "tile"], "require alpha < beta"),
        (["gen", "--kind", "uniform", "--angle", "sqrt(2)"],
         "--kind uniform does not read --angle"),
        (["gen", "--kind", "sparse_geometric", "--angle", "sqrt(2)"],
         "--kind sparse_geometric does not read --angle"),
        (["gen", "--kind", "uniform", "--ratio", "2"],
         "--kind uniform does not read --ratio"),
        (["gen", "--kind", "rotation_suspension", "--angle", "-1 + sqrt(2)",
          "--seed", "0"], "--kind rotation_suspension does not read --seed"),
        (["gen", "--kind", "rotation_suspension", "--angle", "-1 + sqrt(2)",
          "--k0", "9", "--seed", "3", "--ratio", "7"],
         "--kind rotation_suspension does not read --seed, --k0, --ratio"),
        (["gen", "--kind", "rotation_suspension"],
         "--angle is missing: --kind rotation_suspension needs the rotation "
         "angle"),
        (["gen", "--k0", "-5"],
         "k0 must exceed -1 for uniform gaps to be positive, got -5"),
        (["gen", "--kind", "sparse_geometric", "--k0", "0"],
         "k0 must exceed 0 for sparse_geometric gaps to be positive, got 0"),
    ], ids=["gen_n_0", "gen_rational_angle", "tile_rho_0", "tile_rho_1",
            "tile_alpha_above_beta", "gen_angle_uniform", "gen_angle_sparse", "gen_ratio_uniform",
            "gen_seed_rotation", "gen_k0_seed_ratio_rotation",
            "gen_angle_missing", "gen_k0_uniform", "gen_k0_sparse"])
    def test_out_of_range_value_is_usage_error(self, argv, message, tmp_path,
                                               capsys):
        out = str(tmp_path / "out.json")
        if "tile" in argv:
            w = tmp_path / "w.json"
            w.write_text(json.dumps({"positions": ["0", "9"]}))
            argv = argv + ["--in", str(w), "--out", out]
        elif "gen" in argv:
            argv = argv + ["--out", out]
        assert_usage_error(argv, message, capsys)
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("flags,named", [
        (["--rho", "abc"], "--rho"),
        (["--alpha", ""], "--alpha"),
        (["--beta", "sqrt(3)"], "--beta"),
        (["--rho", "1/3", "--alpha", "1"], "--alpha, --rho"),
    ], ids=["rho_malformed", "alpha_empty", "beta_wellformed", "two_flags"])
    @pytest.mark.parametrize("command", ["gen", "verify", "loe", "plot"])
    def test_global_params_only_with_tile(self, flags, named, command,
                                          tmp_path, capsys):
        # only tile reads --alpha, --beta and --rho; every other command
        # names the unread flags before it opens or writes a file
        out = str(tmp_path / "out")
        args = {"gen": ["--n", "5", "--out", out],
                "verify": [str(tmp_path / "t.json")],
                "loe": ["--a", "a.json", "--b", "b.json", "--out", out],
                "plot": [str(tmp_path / "t.json"), "--svg", out]}[command]
        assert_usage_error(flags + [command] + args,
                           f"{command} does not read {named}; only tile does",
                           capsys)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tamper", [
        lambda d: d.update(beta="sqrt(4)"),
        lambda d: d["origin_positions"].__setitem__(3, "1/0"),
    ], ids=["beta_sqrt4", "position_1_0"])
    def test_verify_rejects_degenerate_literal(self, tamper, tmp_path, capsys):
        # sqrt(4) is the rational 2, and 1/0 is no number: both are
        # malformed literals, not tile lengths or positions
        w = tmp_path / "w.json"
        t = tmp_path / "t.json"
        run(["gen", "--kind", "uniform", "--n", "20", "--seed", "3",
             "--k0", "7", "--out", str(w)])
        run(["tile", "--mode", "full", "--depth", "2", "--in", str(w),
             "--out", str(t)])
        data = json.loads(t.read_text())
        tamper(data)
        t.write_text(json.dumps(data))
        capsys.readouterr()
        assert run(["verify", "--eta", "1/8", str(t)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("verification failure: ")
        assert captured.err.count("\n") == 1


def swap_letter(d):
    # beta - alpha is more than the budget: every later point moves by it
    d["letters"] = d["letters"].replace("a", "b", 1)


def b_letter_to_a(d):
    d["letters"] = d["letters"].replace("b", "a", 1)


def cut_short(d):
    # one letter, one original point and the last cuts fewer; the origins
    # still count the whole window
    d["letters"] = d["letters"][:-1]
    d["origin_index"].pop()
    for w in d["witnesses"]:
        w["cuts"][-1] = len(d["letters"])


def repeat_index(d):
    # point 1 takes point 0's place, so no point is 0
    d["origin_index"][1] = d["origin_index"][0]


def swap_indices(d):
    ix = d["origin_index"]
    ix[1], ix[2] = ix[2], ix[1]


def witness_out_of_band(d):
    # a one-letter first piece has frequency 0 or 1, 1/2 from rho
    w = d["witnesses"][-1]
    assert w["eta"] == "1/4"
    w["cuts"][1] = 1


def level_true(d):
    # JSON true is not the integer 1
    assert d["witnesses"][0]["level"] == 1
    d["witnesses"][0]["level"] = True


def witness_eta_loosened(d):
    # eta 1 admits any piece, and no piece outgrows the max value
    for w in d["witnesses"]:
        w.update(eta="1", max_value="100000000")


def witness_level_dropped(d):
    # what is left replays: only the count says a level is missing
    assert [w["level"] for w in d["witnesses"]] == [1, 2]
    del d["witnesses"][0]


def index_past_end(d):
    d["origin_index"][-1] = len(d["letters"]) + 1


def assert_usage_error(argv, message, capsys):
    """main(argv) exits 2 with nothing on stdout and one usage error line."""
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"


def assert_fails(argv, message, capsys):
    """main(argv) exits 1 with nothing on stdout and one failure line."""
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"verification failure: {message}.*\n", captured.err)


class TestVerifyTamperCorpus:
    """Each edit of a stored section must fail ``flowtile verify``, and the
    commands that read sections the same way, with one line on stderr and
    nothing on stdout."""

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        # a 60-point uniform window, tiled at depth 2 with both witnesses
        tmp = tmp_path_factory.mktemp("stored")
        w, t = tmp / "w.json", tmp / "t.json"
        assert main(["gen", "--n", "60", "--seed", "3", "--out", str(w)]) == 0
        assert main(["tile", "--depth", "2", "--in", str(w),
                     "--out", str(t)]) == 0
        data = json.loads(t.read_text())
        assert len(data["origin_index"]) == 60 and len(data["witnesses"]) == 2
        return data

    def test_untampered_section_passes(self, stored, tmp_path, capsys):
        t = tmp_path / "t.json"
        t.write_text(json.dumps(stored))
        capsys.readouterr()
        assert main(["verify", str(t)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "OK: N(1/8) = 58; 2 witnesses replay\n"
        assert captured.err == ""

    @pytest.mark.parametrize("tamper,message", [
        (swap_letter, r"original point \d+ displaced "),
        (cut_short, r"section field 'origin_positions' has 60 entries for 59 "
                    r"original points$"),
        (lambda d: d.pop("origin_index"), r"section has no 'origin_index' "
                                          r"field$"),
        (repeat_index, r"original point ids run from 1 to 59, not from 0 to "
                       r"59$"),
        (witness_out_of_band, r"level 2 witness failed replay"),
        (witness_eta_loosened, r"witness 1 claims level 1 with eta 1; "
                               r"level 1 certifies eta 1/2$"),
        (witness_level_dropped, r"witness 1 claims level 2 with eta 1/4; "
                                r"level 1 certifies eta 1/2$"),
        (level_true, r"section witness field 'level' is not an int: got a "
                     r"bool$"),
        (lambda d: d["origin_index"].__setitem__(1, True),
         r"section field 'origin_index' holds a non-integer: got a bool$"),
        (lambda d: d.pop("format"), r"section format 1 is not read, only "
                                    r"format 2: tile the window again$"),
        (lambda d: d["origin_index"].__setitem__(0, -1),
         r"section field 'origin_index' holds -1, not a position index in "
         r"0\.\.\d+$"),
        (index_past_end, r"section field 'origin_index' holds \d+, not a "
                         r"position index in 0\.\.\d+$"),
        (swap_indices, r"original point ids do not increase: 2 then 1$"),
        (lambda d: d["origin_positions"].pop(),
         r"section field 'origin_positions' has 59 entries for 60 original "
         r"points$"),
        (lambda d: d.update(letters=d["letters"].replace("b", "c", 1)),
         r"unknown gap letter 'c'$"),
        (lambda d: d["origin_positions"].__setitem__(0, list(d["letters"])),
         r"QuadReal literal must be a string: got a list$"),
    ], ids=["letter_swapped", "cut_short", "origin_index_deleted", "id_repeated",
            "witness_out_of_band", "witness_eta_loosened",
            "witness_level_dropped", "level_true", "origin_index_true",
            "format_1", "origin_index_minus_1", "origin_index_past_end",
            "origin_index_decreasing", "origin_positions_short", "letter_c",
            "origin_position_list"])
    def test_tampered_section_fails(self, stored, tamper, message, tmp_path,
                                    capsys):
        data = json.loads(json.dumps(stored))
        tamper(data)
        t = tmp_path / "t.json"
        t.write_text(json.dumps(data))
        assert_fails(["verify", str(t)], message, capsys)

    def test_points_true_on_one_point_section_fails(self, tmp_path, capsys):
        # JSON false is not the integer 0, the one point's index
        w, t = tmp_path / "w.json", tmp_path / "t.json"
        w.write_text(json.dumps({"positions": ["0"]}))
        assert main(["tile", "--depth", "2", "--in", str(w),
                     "--out", str(t)]) == 0
        data = json.loads(t.read_text())
        assert (data["letters"], data["origin_index"]) == ("", [0])
        data["origin_index"] = [False]
        t.write_text(json.dumps(data))
        assert_fails(["verify", str(t)],
                     r"section field 'origin_index' holds a non-integer: "
                     r"got a bool$", capsys)

    @pytest.mark.parametrize("command", ["verify", "loe", "plot"])
    def test_section_readers_reject_repeated_key(self, stored, command,
                                                 tmp_path, capsys):
        # a loose eta ahead of the true one: json.load alone would keep the
        # true eta and the section would verify
        text = json.dumps(stored)
        assert text.count('{"level": 1, ') == 1
        t = tmp_path / "t.json"
        t.write_text(text.replace('{"level": 1, ',
                                  '{"level": 1, "eta": "1", '))
        out = str(tmp_path / "out")
        argv = {"verify": ["verify", str(t)],
                "loe": ["loe", "--a", str(t), "--b", str(t), "--out", out],
                "plot": ["plot", str(t), "--svg", out]}[command]
        assert_fails(argv, r"key 'eta' appears twice in one JSON object$",
                     capsys)

    @pytest.mark.parametrize("eta", ["0", "-1/8"])
    def test_verify_eta_not_positive_is_usage_error(self, stored, eta,
                                                    tmp_path, capsys):
        t = tmp_path / "t.json"
        t.write_text(json.dumps(stored))
        # "--eta=-1/8": a bare "-1/8" would read as an option
        assert_usage_error(["verify", f"--eta={eta}", str(t)],
                           f"--eta must be positive, got {eta}", capsys)

    @pytest.mark.parametrize("command", ["loe", "plot"])
    @pytest.mark.parametrize("tamper,message", [
        (b_letter_to_a, r"original point \d+ displaced "),
    ], ids=["b_letter_set_to_a"])
    def test_section_readers_reject_tampered_section(
            self, stored, tamper, message, command, tmp_path, capsys):
        data = json.loads(json.dumps(stored))
        tamper(data)
        t = tmp_path / "t.json"
        t.write_text(json.dumps(data))
        out = str(tmp_path / "out")
        argv = (["loe", "--a", str(t), "--b", str(t), "--out", out]
                if command == "loe" else ["plot", str(t), "--svg", out])
        assert_fails(argv, message, capsys)
