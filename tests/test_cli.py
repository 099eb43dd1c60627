import subprocess
import sys

import pytest

from framedprod.cli import run
from framedprod.embedding import serialize_embedding
from framedprod.errors import ContractViolation
from test_nonorientable import signed_sphere


def add_to_field(line, field, values):
    """The part line ``line`` with ``values`` after those of its field
    ``field``: 0 the legs, 1 the absorbed set, 2 the extras."""
    fields = (line.split(";") + ["", ""])[:3]
    fields[field] = " ".join(fields[field].split() + list(map(str, values)))
    return ";".join(fields).rstrip(";")


class TestCli:
    def test_gen_decompose_verify_pipeline(self, tmp_path):
        frame = tmp_path / "g.emg"
        cert = tmp_path / "g.cert"
        assert run(["gen", "--family", "toroidal", "--params", "4,4",
                    "--out", str(frame)]) == 0
        assert run(["decompose", "--in", str(frame), "--d", "4",
                    "--out", str(cert)]) == 0
        assert run(["verify", "--in", str(frame), "--cert", str(cert)]) == 0

    def test_tri_family_with_seed(self, tmp_path):
        f1 = tmp_path / "a.emg"
        f2 = tmp_path / "b.emg"
        assert run(["gen", "--family", "tri", "--params", "30",
                    "--seed", "7", "--out", str(f1)]) == 0
        assert run(["gen", "--family", "tri", "--params", "30",
                    "--seed", "7", "--out", str(f2)]) == 0
        assert f1.read_text() == f2.read_text()

    def test_verify_detects_corruption(self, tmp_path, capsys):
        frame = tmp_path / "g.emg"
        cert = tmp_path / "g.cert"
        run(["gen", "--family", "tri", "--params", "20", "--out", str(frame)])
        run(["decompose", "--in", str(frame), "--d", "3", "--out", str(cert)])
        text = cert.read_text()
        lines = text.splitlines()
        # the stated width one below the largest (part, block) cell
        ell = int(lines[-1].split()[1])
        lines[-1] = f"ELL {ell - 1}"
        cert.write_text("\n".join(lines) + "\n")
        assert run(["verify", "--in", str(frame), "--cert", str(cert)]) == 2
        # a part that lists no vertex has no line: its fields left empty
        # are a parse error
        lines[-1] = f"ELL {ell}"
        lines[3] = ";"
        cert.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["verify", "--in", str(frame), "--cert", str(cert)]) == 1
        assert capsys.readouterr().err == "error: bad part line: ;\n"

    def test_old_certificate_format_is_an_error_line(self, tmp_path, capsys):
        # the tagged part lines of the format before: the first one is
        # the line at fault
        frame = tmp_path / "g.emg"
        cert = tmp_path / "g.cert"
        run(["gen", "--family", "tri", "--params", "20", "--out", str(frame)])
        run(["decompose", "--in", str(frame), "--d", "3", "--out", str(cert)])
        lines = cert.read_text().splitlines()
        for i, ln in enumerate(lines[2:-1], 2):
            legs, absorbed, extras = (ln.split(";") + ["", ""])[:3]
            lines[i] = " ".join(["p", *extras.split(), "x:",
                                 *absorbed.split(), "y:", *legs.split()])
        cert.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["verify", "--in", str(frame), "--cert", str(cert)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: bad part line: {lines[2]}\n"

    def test_decompose_writes_no_tags(self, tmp_path):
        frame = tmp_path / "g.emg"
        cert = tmp_path / "g.cert"
        run(["gen", "--family", "toroidal", "--params", "4,4",
             "--out", str(frame)])
        run(["decompose", "--in", str(frame), "--d", "4", "--out", str(cert)])
        tokens = set(cert.read_text().replace(";", " ").split())
        assert not tokens & {"p", "x:", "y:", "|"}

    def test_signed_plane_frame(self, tmp_path):
        # a plane frame with -1 signatures, written with its twist line
        frame = tmp_path / "s.emg"
        cert = tmp_path / "s.cert"
        frame.write_text(serialize_embedding(
            signed_sphere("tri", 60, 3, 3, 0.3)))
        assert "\ntwist " in frame.read_text()
        assert run(["decompose", "--in", str(frame), "--d", "3",
                    "--out", str(cert)]) == 0
        assert run(["verify", "--in", str(frame), "--cert", str(cert)]) == 0

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.emg"
        bad.write_text("not an embedding\n")
        assert run(["stats", "--in", str(bad)]) == 1

    @pytest.mark.parametrize("old,quoted", [
        ("emg 3 3\ne 0 0 1 1\ne 1 1 2 1\ne 2 2 0 1\n"
         "v 0: 0.0 2.1\nv 1: 0.1 1.0\nv 2: 1.1 2.0\n", "e 0 0 1 1"),
        ("emg 3 3\nv 0: 0.0 2.1\nv 1: 0.1 1.0\nv 2: 1.1 2.0\n",
         "v 0: 0.0 2.1"),
    ], ids=["edge-lines", "edge-side-darts"])
    def test_old_frame_format_is_an_error_line(self, tmp_path, capsys,
                                               old, quoted):
        frame = tmp_path / "g.emg"
        cert = tmp_path / "g.cert"
        frame.write_text("emg 3 3\nv 0: 0 5\nv 1: 1 2\nv 2: 3 4\n")
        assert run(["decompose", "--in", str(frame), "--d", "3",
                    "--out", str(cert)]) == 0
        frame.write_text(old)
        for argv in (["verify", "--in", str(frame), "--cert", str(cert)],
                     ["decompose", "--in", str(frame), "--d", "3"]):
            capsys.readouterr()
            assert run(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and quoted in err

    def test_map_chain(self, tmp_path):
        mp = tmp_path / "m.map"
        cert = tmp_path / "m.cert"
        assert run(["gen", "--family", "map", "--params", "30,5",
                    "--seed", "3", "--out", str(mp)]) == 0
        assert run(["map", "--in", str(mp), "--d", "5", "--decompose",
                    "--out", str(cert)]) == 0
        assert cert.read_text().startswith("cert ")

    def test_map_d_below_3_exit_code(self, tmp_path):
        mp = tmp_path / "m.map"
        assert run(["gen", "--family", "map", "--params", "30,0",
                    "--out", str(mp)]) == 1
        assert not mp.exists()

    def test_oneplanar_chain(self, tmp_path):
        xf = tmp_path / "o.xemg"
        frame = tmp_path / "o.emg"
        assert run(["gen", "--family", "oneplanar", "--params", "25",
                    "--seed", "4", "--out", str(xf)]) == 0
        assert run(["oneplanar", "--in", str(xf), "--out", str(frame)]) == 0
        assert frame.read_text().startswith("emg ")
        assert run(["oneplanar", "--in", str(xf), "--decompose",
                    "--out", str(tmp_path / "o.cert")]) == 0

    def test_stats_output(self, tmp_path, capsys):
        frame = tmp_path / "g.emg"
        run(["gen", "--family", "toroidal", "--params", "3,3",
             "--out", str(frame)])
        out = tmp_path / "stats.txt"
        assert run(["stats", "--in", str(frame), "--d", "4",
                    "--out", str(out)]) == 0
        text = out.read_text()
        assert "n 9" in text and "m 18" in text and "f 9" in text
        assert "genus 2" in text
        assert "faces 4:9" in text
        assert "ell " in text and "bound 8" in text

    def test_stats_single_vertex_sphere(self, tmp_path, capsys):
        # a lone vertex bounds one face of length 0: the sphere
        frame = tmp_path / "v.emg"
        frame.write_text("emg 1 0\nv 0:\n")
        assert run(["stats", "--in", str(frame)]) == 0
        assert capsys.readouterr().out == ("n 1\nm 0\nf 1\ngenus 0\n"
                                           "faces 0:1\n")

    @pytest.mark.parametrize("which", ["stats-in", "decompose-in",
                                       "decompose-out", "verify-cert"])
    def test_directory_path_is_an_error_line(self, tmp_path, capsys, which):
        frame = tmp_path / "g.emg"
        cert = tmp_path / "g.cert"
        run(["gen", "--family", "tri", "--params", "10", "--out", str(frame)])
        run(["decompose", "--in", str(frame), "--d", "3", "--out", str(cert)])
        folder = str(tmp_path)
        argv = {
            "stats-in": ["stats", "--in", folder],
            "decompose-in": ["decompose", "--in", folder, "--d", "3"],
            "decompose-out": ["decompose", "--in", str(frame), "--d", "3",
                              "--out", folder],
            "verify-cert": ["verify", "--in", str(frame), "--cert", folder],
        }[which]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "directory" in err
        assert "Traceback" not in err

    def test_stats_d_needs_a_connected_graph(self, tmp_path, capsys):
        frame = tmp_path / "g.emg"
        frame.write_text("emg 4 2\nv 0: 0\nv 1: 1\nv 2: 2\nv 3: 3\n")
        assert run(["stats", "--in", str(frame)]) == 0
        assert "genus - (disconnected)" in capsys.readouterr().out
        assert run(["stats", "--in", str(frame), "--d", "3"]) == 1
        captured = capsys.readouterr()
        assert "connected" in captured.err and "ell" not in captured.out

    def test_stdin_stdout_piping(self, tmp_path, child_env):
        # gen | decompose via real subprocesses
        gen = subprocess.run(
            [sys.executable, "-m", "framedprod.cli", "gen", "--family",
             "tri", "--params", "15"],
            capture_output=True, text=True, env=child_env)
        assert gen.returncode == 0
        dec = subprocess.run(
            [sys.executable, "-m", "framedprod.cli", "decompose", "--in",
             "-", "--d", "3"],
            input=gen.stdout, capture_output=True, text=True, env=child_env)
        assert dec.returncode == 0
        assert dec.stdout.startswith("cert ")

    def test_python_m_framedprod_verifies(self, tmp_path, child_env):
        frame = tmp_path / "g.emg"
        cert = tmp_path / "g.cert"
        run(["gen", "--family", "tri", "--params", "20", "--out", str(frame)])
        run(["decompose", "--in", str(frame), "--d", "3", "--out", str(cert)])
        done = subprocess.run(
            [sys.executable, "-m", "framedprod", "verify", "--in", str(frame),
             "--cert", str(cert)],
            capture_output=True, text=True, env=child_env)
        assert done.returncode == 0, done.stderr

    def test_multi_input_jobs(self, tmp_path):
        # one job per input, run one after the other
        files = []
        for i in range(3):
            f = tmp_path / f"t{i}.emg"
            run(["gen", "--family", "tri", "--params", "20",
                 "--seed", str(i), "--out", str(f)])
            files.append(f)
        args = ["decompose", "--d", "3"]
        for f in files:
            args += ["--in", str(f)]
        assert run(args) == 0
        for f in files:
            assert (tmp_path / (f.name + ".cert")).exists()

    @pytest.mark.parametrize("bad_at", [1, 2])
    def test_batch_goes_on_past_a_bad_input(self, tmp_path, capsys, bad_at):
        # an unparseable and a missing input at position bad_at of the batch,
        # with good inputs on both sides
        good = [tmp_path / f"{name}.emg" for name in "ace"]
        for seed, f in enumerate(good):
            run(["gen", "--family", "tri", "--params", "12",
                 "--seed", str(seed), "--out", str(f)])
        bad = tmp_path / "bad.emg"
        bad.write_text("not an embedding\n")
        missing = tmp_path / "missing.emg"
        batch = good[:bad_at] + [bad, missing] + good[bad_at:]
        args = ["decompose", "--d", "3"]
        for f in batch:
            args += ["--in", str(f)]
        capsys.readouterr()
        assert run(args) == 1
        lines = capsys.readouterr().err.splitlines()
        want = [["ok", str(f)] for f in good]
        want[bad_at:bad_at] = [["error", f"{bad}:"], ["error", f"{missing}:"]]
        assert [ln.split(" ", 2)[:2] for ln in lines] == want
        for f in good:
            assert (tmp_path / (f.name + ".cert")).exists()
        assert not (tmp_path / "bad.emg.cert").exists()

    def test_batch_exit_code_is_the_worst(self, tmp_path, capsys,
                                          monkeypatch):
        from framedprod import cli
        files = []
        for i in range(2):
            f = tmp_path / f"t{i}.emg"
            run(["gen", "--family", "tri", "--params", "12",
                 "--seed", str(i), "--out", str(f)])
            files.append(f)
        (tmp_path / "x.emg").write_text("")
        decompose = cli.decompose

        def failing(E, d):
            if E.n == 12 and not failing.calls:
                failing.calls.append(E)
                raise ContractViolation("injected")
            return decompose(E, d)
        failing.calls = []
        monkeypatch.setattr(cli, "decompose", failing)
        capsys.readouterr()
        assert run(["decompose", "--d", "3", "--in", str(files[0]),
                    "--in", str(tmp_path / "x.emg"),
                    "--in", str(files[1])]) == 2
        err = capsys.readouterr().err
        assert f"error {files[0]}: contract violation: injected" in err
        assert f"ok {files[1]} " in err

    def test_several_inputs_reject_one_out_file(self, tmp_path, capsys):
        files = []
        for i in range(2):
            f = tmp_path / f"t{i}.emg"
            run(["gen", "--family", "tri", "--params", "12",
                 "--seed", str(i), "--out", str(f)])
            files.append(f)
        out = tmp_path / "X.cert"
        assert run(["decompose", "--d", "3", "--in", str(files[0]),
                    "--in", str(files[1]), "--out", str(out)]) == 1
        assert "<input>.cert" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_reports_out_of_range_part_vertices(self, tmp_path,
                                                       capsys):
        frame = tmp_path / "g.emg"
        cert = tmp_path / "g.cert"
        run(["gen", "--family", "tri", "--params", "20", "--out", str(frame)])
        run(["decompose", "--in", str(frame), "--d", "3", "--out", str(cert)])
        lines = cert.read_text().splitlines()
        # part 0's line absorbs two vertices past the ends
        lines[2] = add_to_field(lines[2], 1, [20, -1])
        cert.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["verify", "--in", str(frame), "--cert", str(cert)]) == 2
        out = capsys.readouterr().out
        assert "FAIL parts vertex 20 out of range" in out
        assert "FAIL parts vertex -1 out of range" in out

    def test_verify_reports_out_of_range_parts(self, tmp_path, capsys):
        frame = tmp_path / "g.emg"
        cert = tmp_path / "g.cert"
        run(["gen", "--family", "tri", "--params", "30", "--out", str(frame)])
        run(["decompose", "--in", str(frame), "--d", "3", "--out", str(cert)])
        lines = cert.read_text().splitlines()
        k = int(lines[1].split()[1])
        # extras past the last part and below 0; line 2 + i is part i
        for pid, extra in ((0, k + 5), (1, -1)):
            lines[2 + pid] = add_to_field(lines[2 + pid], 2, [extra])
        cert.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["verify", "--in", str(frame), "--cert", str(cert)]) == 2
        out = capsys.readouterr().out
        # one line per bad extra
        assert [ln for ln in out.splitlines() if "out of range" in ln] == [
            f"FAIL td bag 0 node {k + 5} out of range",
            "FAIL td bag 1 node -1 out of range"]

    def test_verify_recomputes_the_genus(self, tmp_path, capsys):
        frame = tmp_path / "g.emg"
        cert = tmp_path / "g.cert"
        run(["gen", "--family", "tri", "--params", "20", "--seed", "1",
             "--out", str(frame)])
        run(["decompose", "--in", str(frame), "--d", "3", "--out", str(cert)])
        text = cert.read_text()
        assert text.startswith("cert 20 3 0\n")
        cert.write_text(text.replace("cert 20 3 0\n", "cert 20 3 6\n", 1))
        capsys.readouterr()
        assert run(["verify", "--in", str(frame), "--cert", str(cert)]) == 2
        assert capsys.readouterr().out == "FAIL genus stated 6 actual 0\n"

    def test_verify_fault_is_a_fail_line(self, tmp_path, capsys,
                                         monkeypatch):
        from framedprod import verify

        def broken(parts):
            raise KeyError("boom")
        frame = tmp_path / "g.emg"
        cert = tmp_path / "g.cert"
        run(["gen", "--family", "tri", "--params", "20", "--out", str(frame)])
        run(["decompose", "--in", str(frame), "--d", "3", "--out", str(cert)])
        monkeypatch.setattr(verify, "check_planarity", broken)
        capsys.readouterr()
        assert run(["verify", "--in", str(frame), "--cert", str(cert)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "FAIL internal KeyError\n"
        assert "Traceback" not in captured.err
