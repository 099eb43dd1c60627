import subprocess
import sys

from framedprod.cli import run


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

    def test_verify_detects_corruption(self, tmp_path):
        frame = tmp_path / "g.emg"
        cert = tmp_path / "g.cert"
        run(["gen", "--family", "tri", "--params", "20", "--out", str(frame)])
        run(["decompose", "--in", str(frame), "--d", "3", "--out", str(cert)])
        text = cert.read_text()
        lines = text.splitlines()
        for i, ln in enumerate(lines):
            if ln.startswith("m 0 "):
                parts = ln.split()
                parts[3] = str(int(parts[3]) + 2)   # move vertex 0 two layers
                lines[i] = " ".join(parts)
                break
        cert.write_text("\n".join(lines) + "\n")
        assert run(["verify", "--in", str(frame), "--cert", str(cert)]) == 2

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.emg"
        bad.write_text("not an embedding\n")
        assert run(["stats", "--in", str(bad)]) == 1

    def test_map_chain(self, tmp_path):
        mp = tmp_path / "m.map"
        cert = tmp_path / "m.cert"
        assert run(["gen", "--family", "map", "--params", "30,5",
                    "--seed", "3", "--out", str(mp)]) == 0
        assert run(["map", "--in", str(mp), "--d", "5", "--decompose",
                    "--out", str(cert)]) == 0
        assert cert.read_text().startswith("cert ")

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

    def test_svg_emitted(self, tmp_path):
        frame = tmp_path / "g.emg"
        svg = tmp_path / "h.svg"
        run(["gen", "--family", "tri", "--params", "25", "--out", str(frame)])
        assert run(["decompose", "--in", str(frame), "--d", "3",
                    "--out", str(tmp_path / "c"), "--svg", str(svg)]) == 0
        assert svg.read_text().startswith("<svg")

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

    def test_multi_input_jobs(self, tmp_path):
        files = []
        for i in range(3):
            f = tmp_path / f"t{i}.emg"
            run(["gen", "--family", "tri", "--params", "20",
                 "--seed", str(i), "--out", str(f)])
            files.append(f)
        args = ["decompose", "--d", "3", "--jobs", "2"]
        for f in files:
            args += ["--in", str(f)]
        assert run(args) == 0
        for f in files:
            assert (tmp_path / (f.name + ".cert")).exists()

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
        i = next(i for i, ln in enumerate(lines) if ln.startswith("p "))
        lines[i] = lines[i].replace(" x:", " x: 20 -1", 1)
        cert.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["verify", "--in", str(frame), "--cert", str(cert)]) == 2
        out = capsys.readouterr().out
        assert "FAIL parts vertex 20 out of range" in out
        assert "FAIL parts vertex -1 out of range" in out
