"""End-to-end tests of the command-line interface: report content,
determinism, and the exit-code contract."""

import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import eulerdisc
from eulerdisc.cli import _Chunked, _emit, main

FIXTURES = Path(__file__).parent / "fixtures"
# Child processes import the same eulerdisc as this one, also when it comes
# from pytest's `pythonpath` setting rather than PYTHONPATH or an install.
SRC = str(Path(eulerdisc.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))


def run_cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "eulerdisc.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=ENV,
    )


def structured_block(stdout):
    marker = "--- structured ---\n"
    assert marker in stdout
    return json.loads(stdout.split(marker, 1)[1])


class TestReports:
    def test_pad_artificial(self):
        r = run_cli("pad", str(FIXTURES / "artificial.yaml"), "--check-degree")
        assert r.returncode == 0
        data = structured_block(r.stdout)
        assert data["degree"] == 30
        assert len(data["factors"]) == 11
        assert data["degree_identity"] is True
        exps = sorted((f["exponent"] for f in data["factors"]), reverse=True)
        assert exps == [3, 3, 3, 3, 2, 2, 2, 2, 2, 1, 1]

    def test_polytope_places_once(self, monkeypatch, capsys):
        # the 3-site chain's volume and f-vector come from one placing, in
        # dimension 8, and the report is the recorded one
        import eulerdisc.lattice as lattice

        calls = []
        placing = lattice._placing

        def counting(pts, d):
            calls.append(d)
            return placing(pts, d)

        monkeypatch.setattr(lattice, "_placing", counting)
        main(["polytope", str(FIXTURES / "three_site_graph.yaml")])
        assert calls == [8]
        record = FIXTURES / "reports" / "polytope_three_site_graph.txt"
        assert capsys.readouterr().out == record.read_text()

    def test_polytope_two_site(self):
        r = run_cli("polytope", str(FIXTURES / "two_site_pattern.yaml"))
        assert r.returncode == 0
        data = structured_block(r.stdout)
        assert data["dimension"] == 4
        assert data["volume"] == 4
        assert data["f_vector"] == [7, 17, 18, 8]

    def test_beta_central_single_hyperplane(self):
        r = run_cli("beta", str(FIXTURES / "central_matrix.yaml"))
        assert r.returncode == 0
        assert structured_block(r.stdout)["beta"] == 0

    def test_euler_disc_z1(self):
        r = run_cli("euler-disc", str(FIXTURES / "z1_family.yaml"))
        assert r.returncode == 0
        data = structured_block(r.stdout)
        assert data["chi_star"] == 5
        assert data["has_unknown"] is True
        by_poly = {f["poly"]: f for f in data["factors"]}
        assert by_poly["w1 + w2"]["exponent"] == 3
        assert by_poly["w1 - w3"]["exponent"] == 3

    def test_euler_disc_z2_substitution(self):
        r = run_cli("euler-disc", str(FIXTURES / "z2_family.yaml"))
        assert r.returncode == 0
        data = structured_block(r.stdout)
        assert data["chi_star"] == 3
        exps = sorted(
            (f["exponent"] for f in data["factors"]),
            key=lambda e: (isinstance(e, str), e),
        )
        assert exps == [2, 2, 2, "unknown"]

    def test_no_witness_flag(self):
        r = run_cli("euler-disc", str(FIXTURES / "z1_family.yaml"), "--no-witness")
        assert r.returncode == 0
        data = structured_block(r.stdout)
        for f in data["factors"]:
            assert f["exponent"] == "unknown"
            assert "witness-search-disabled" in f["flags"]

    def test_cosmo_psi_three_site(self):
        r = run_cli("cosmo-psi", str(FIXTURES / "three_site_graph.yaml"))
        assert r.returncode == 0
        data = structured_block(r.stdout)
        assert data["numerator"] == "X1 + 2*X2 + X3 + Y12 + Y23"
        assert len(data["denominator_factors"]) == 6

    def test_cosmo_facets_bubble(self):
        r = run_cli("cosmo-facets", str(FIXTURES / "bubble_graph.yaml"))
        assert r.returncode == 0
        data = structured_block(r.stdout)
        assert len(data["facets"]) == 5
        assert data["facets"][0]["constant"] == "X1 + X2"

    def test_cosmo_disc_no_witness(self):
        path = str(FIXTURES / "two_site_graph.yaml")
        plain = structured_block(run_cli("cosmo-disc", path).stdout)
        r = run_cli("cosmo-disc", path, "--no-witness")
        assert r.returncode == 0
        data = structured_block(r.stdout)
        assert [f["poly"] for f in data["factors"]] == [f["poly"] for f in plain["factors"]]
        for f in data["factors"]:
            assert f["exponent"] == "unknown"
            assert "witness-search-disabled" in f["flags"]

    def test_cosmo_disc_two_site(self):
        r = run_cli("cosmo-disc", str(FIXTURES / "two_site_graph.yaml"))
        assert r.returncode == 0
        data = structured_block(r.stdout)
        assert data["chi_star"] == 4
        assert data["degree"] == 8
        assert len(data["factors"]) == 6

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.txt"
        r = run_cli("beta", str(FIXTURES / "central_matrix.yaml"), "-o", str(out))
        assert r.returncode == 0
        assert r.stdout == ""
        assert "--- structured ---" in out.read_text()


class TestDeterminism:
    def test_byte_identical_reports(self):
        jobs = [
            ("pad", str(FIXTURES / "two_site_pattern.yaml")),
            ("euler-disc", str(FIXTURES / "z2_family.yaml"), "--seed", "7"),
            ("cosmo-psi", str(FIXTURES / "three_site_graph.yaml")),
        ]
        for job in jobs:
            a = run_cli(*job)
            b = run_cli(*job)
            assert a.returncode == b.returncode == 0
            assert a.stdout == b.stdout


class TestRecordedReports:
    # Recorded while every witness search drew from [-12, 12].  These
    # inputs avoid sets of total degree at most 12, so the box is still
    # [-12, 12]; on the two-site graph the image of each searched witness
    # under the vertex swap is the witness the image factor's own search
    # found, so orbits leave the report as it was.
    # The pad and polytope records pin the lattice reduction's bases through
    # the exponents, volumes and f-vectors they print, and the cosmo-facets
    # records the subgraph enumeration and its order.
    @pytest.mark.parametrize("args, record", [
        (("euler-disc", "z1_family.yaml"), "euler-disc_z1_family.txt"),
        (("euler-disc", "z2_family.yaml"), "euler-disc_z2_family.txt"),
        (("cosmo-disc", "two_site_graph.yaml"), "cosmo-disc_two_site_graph.txt"),
        *(
            (("pad", f"{name}.yaml", "--check-degree"), f"pad_{name}.txt")
            for name in ("artificial", "two_site_pattern", "bubble_graph", "three_site_graph")
        ),
        *(
            (("polytope", f"{name}.yaml"), f"polytope_{name}.txt")
            for name in ("artificial", "two_site_pattern", "three_site_graph", "bubble_graph")
        ),
        *(
            (("cosmo-facets", f"{name}.yaml"), f"cosmo-facets_{name}.txt")
            for name in ("bubble_graph", "three_site_graph")
        ),
    ])
    def test_byte_identical_to_record(self, args, record):
        cmd, name, *extra = args
        r = run_cli(cmd, str(FIXTURES / name), *extra)
        assert r.returncode == 0
        assert r.stdout == (FIXTURES / "reports" / record).read_text()


PATH5 = "vertices: 5\nedges:\n" + "".join(f"  - [{v}, {v + 1}]\n" for v in range(1, 5))
PATH6 = "vertices: 6\nedges:\n" + "".join(f"  - [{v}, {v + 1}]\n" for v in range(1, 6))
STAR5 = "vertices: 5\nedges:\n" + "".join(f"  - [1, {v}]\n" for v in range(2, 6))


class TestReportPlumbing:
    # the report is written in pieces, to stdout or to the -o file
    @pytest.mark.parametrize("args", [
        ("cosmo-psi", "path5.yaml"),
        ("pad", str(FIXTURES / "artificial.yaml"), "--check-degree"),
        ("cosmo-disc", str(FIXTURES / "two_site_graph.yaml")),
    ])
    def test_stdout_and_output_file_identical(self, args, tmp_path):
        (tmp_path / "path5.yaml").write_text(PATH5)
        out = tmp_path / "report.txt"
        cmd = [sys.executable, "-m", "eulerdisc.cli", *args]
        plain = subprocess.run(cmd, capture_output=True, timeout=300, env=ENV, cwd=tmp_path)
        to_file = subprocess.run(cmd + ["-o", str(out)], capture_output=True, timeout=300,
                                 env=ENV, cwd=tmp_path)
        assert plain.returncode == to_file.returncode == 0
        assert to_file.stdout == b""
        assert plain.stdout.count(b"--- structured ---\n") == 1
        assert out.read_bytes() == plain.stdout

    def test_chunked_values_written_as_json_dump_writes_them(self, tmp_path):
        # a value given as chunks, anywhere in the block, comes out as its
        # joined text would, escapes included
        texts = {"quote": ['a"b', "\\", "", "\u00e9\n"], "empty": [], "plain": ["X1", " + ", "Y12"]}
        structured = {
            "z": _Chunked(texts["quote"]),
            "a": [1, _Chunked(texts["plain"]), {"k": _Chunked(texts["empty"])}],
            "m": _Chunked(texts["plain"]),
        }
        joined = {
            "z": "".join(texts["quote"]),
            "a": [1, "".join(texts["plain"]), {"k": ""}],
            "m": "".join(texts["plain"]),
        }
        out = tmp_path / "report.txt"
        _emit(["first", _Chunked(["numerator = ", *texts["plain"]])], structured, str(out))
        assert out.read_text() == (
            "first\nnumerator = X1 + Y12\n--- structured ---\n"
            + json.dumps(joined, indent=2, sort_keys=True) + "\n"
        )
        with pytest.raises(TypeError):
            _emit([], {"x": object()}, str(out))

    @pytest.mark.parametrize("name, doc, sha256", [
        ("path6", PATH6, "0c563443db273003725be9148cf9c3f1f1d5bb1f1985de67ea1d1ce65aed2c99"),
        ("star5", STAR5, "311aed3922f003e090e8f5478d0ead0537d77bfb5b7692939b34120ed1a87116"),
    ], ids=["path6", "star5"])
    def test_psi_recorded_report(self, name, doc, sha256, tmp_path):
        # the numerator goes into the report as chunks, in its human line
        # and as a JSON string: recorded when it was one string
        (tmp_path / f"{name}.yaml").write_text(doc)
        out = tmp_path / "report.txt"
        plain = run_cli("cosmo-psi", str(tmp_path / f"{name}.yaml"))
        to_file = run_cli("cosmo-psi", str(tmp_path / f"{name}.yaml"), "-o", str(out))
        assert plain.returncode == to_file.returncode == 0
        assert hashlib.sha256(plain.stdout.encode()).hexdigest() == sha256
        assert out.read_text() == plain.stdout

    def test_psi_path6_traced_peak(self, tmp_path):
        # a guard on the memory of the whole command that does not depend
        # on the allocator or on machine load: the recursion's memo is gone
        # when `wavefunction` returns, and the numerator's text exists once,
        # in chunks.  The peak was about 33 MB with a memo that outlived
        # `wavefunction` and the text joined and copied into the report.
        (tmp_path / "path6.yaml").write_text(PATH6)
        tracemalloc.start()
        try:
            main(["cosmo-psi", str(tmp_path / "path6.yaml"), "-o", str(tmp_path / "report.txt")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 2**20 <= 26

    def test_psi_path6_peak_rss(self, tmp_path):
        # the numerator stays packed until it is printed, the recursion's
        # memo is freed on return, and the text is written in chunks:
        # path6's run peaks at about 45 MB.  It peaked at about 93 MB when
        # its 159,328 terms were unpacked and the report joined into one
        # string, and at about 57 MB with the memo kept until the cyclic
        # collector ran and the text joined into one string.
        (tmp_path / "path6.yaml").write_text(PATH6)
        # a child's peak RSS counts the memory of the process it was forked
        # from, so the CLI is started from a small Python process rather
        # than from the test runner, and reports wait4's rusage of the CLI
        measure = (
            "import os, subprocess, sys; "
            "p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
            "_, status, usage = os.wait4(p.pid, 0); "
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
        )
        r = subprocess.run(
            [sys.executable, "-c", measure, sys.executable, "-m", "eulerdisc.cli", "cosmo-psi",
             str(tmp_path / "path6.yaml"), "-o", str(tmp_path / "report.txt")],
            capture_output=True, text=True, timeout=300, env=ENV,
        )
        code, peak_kb = map(int, r.stdout.split())
        assert code == 0
        assert peak_kb / 1024 <= 52


class TestExitCodes:
    def test_parse_error_is_1(self):
        r = run_cli("pad", str(FIXTURES / "malformed.yaml"))
        assert r.returncode == 1
        assert "error" in r.stderr

    def test_missing_file_is_1(self):
        r = run_cli("pad", str(FIXTURES / "does_not_exist.yaml"))
        assert r.returncode == 1

    @staticmethod
    def one_error_line(r):
        # exit 1 and a single line on stderr, so no traceback
        assert r.returncode == 1
        assert r.stdout == ""
        (line,) = r.stderr.splitlines()
        return line

    def test_directory_input_is_1(self):
        r = run_cli("beta", str(FIXTURES))
        assert self.one_error_line(r) == f"error: cannot read {FIXTURES}: Is a directory"

    def test_non_utf8_input_is_1(self, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes("rows:\n  - [1]  # caf\xe9\n".encode("latin-1"))
        r = run_cli("beta", str(path))
        assert self.one_error_line(r).startswith(f"error: cannot read {path}: ")

    def test_huge_exponent_cell_is_1(self, tmp_path):
        # exponent notation is refused before Fraction expands it: the cell
        # below ran past 30 s when it was expanded
        path = tmp_path / "exp.yaml"
        path.write_text('rows: [["1e999999999"]]\n')
        r = run_cli("beta", str(path), timeout=10)
        assert self.one_error_line(r) == "error: rows row 0, column 0: bad rational '1e999999999'"

    def test_unwritable_output_is_1(self, tmp_path):
        out = tmp_path / "no_such_dir" / "report.txt"
        r = run_cli("beta", str(FIXTURES / "central_matrix.yaml"), "-o", str(out))
        assert self.one_error_line(r) == f"error: cannot write {out}: No such file or directory"

    def test_huge_declared_pattern_is_1_under_memory_limit(self, tmp_path):
        # one edge cannot cover 100,000,001 declared vertices: under a 600 MB
        # address-space limit the pattern is refused before anything of
        # that size is allocated, never with MemoryError
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

        huge = tmp_path / "huge.yaml"
        huge.write_text("left: 100000000\nright: 1\nedges: [[0, 100000000]]\n")
        r = subprocess.run(
            [sys.executable, "-m", "eulerdisc.cli", "pad", str(huge)],
            capture_output=True,
            text=True,
            timeout=60,
            env=ENV,
            preexec_fn=limit,
        )
        assert self.one_error_line(r) == (
            "error: isolated vertices not allowed: 100000001 vertices, but 1 edges cover at most 2"
        )

    def test_wrong_kind_is_1(self):
        r = run_cli("pad", str(FIXTURES / "bad_kind.yaml"))
        assert r.returncode == 1

    def test_27_parallel_edges_is_1(self, tmp_path):
        bubble = tmp_path / "bubble27.yaml"
        bubble.write_text("vertices: 2\nedges:\n" + "  - [1, 2]\n" * 27)
        r = run_cli("cosmo-facets", str(bubble))
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == "error: 27 parallel edges: letter ids a-z allow at most 26\n"

    def test_edge_with_id_is_1(self, tmp_path):
        # parallel edges get letter ids automatically; an edge cannot name one
        graph = tmp_path / "edge_id.yaml"
        graph.write_text("vertices: 2\nedges:\n  - [1, 2, x]\n")
        r = run_cli("cosmo-facets", str(graph))
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == "error: edges: bad edge [1, 2, 'x'], expected [i, j]\n"

    def test_hypothesis_violation_is_2(self):
        r = run_cli("pad", str(FIXTURES / "disconnected_pattern.yaml"))
        assert r.returncode == 2
        assert "connected" in r.stderr

    def test_size_limit_is_3(self):
        r = run_cli("cosmo-psi", str(FIXTURES / "big_tree.yaml"))
        assert r.returncode == 3

    @pytest.mark.parametrize("entry, message", [
        ("w + 10^5000", "power may have coefficients of more than 4300 digits"),
        ("w + 1" + "0" * 5000, "integer literal of 5001 digits (limit 4300)"),
        ("w + 10^3000 * 10^3000", "coefficient of more than 4300 digits"),
    ], ids=["power", "literal", "product"])
    def test_int_past_digit_limit_is_3(self, entry, message, tmp_path):
        # Python reads and prints an int of at most 4300 digits by default;
        # an entry past that exits 3 as it is parsed, not with a traceback
        # from `int()` or from printing
        family = tmp_path / "family.yaml"
        family.write_text(f'k: 0\nparams: [w]\nentries: [["{entry}"]]\n')
        r = subprocess.run(
            [sys.executable, "-m", "eulerdisc.cli", "euler-disc", str(family)],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(ENV, PYTHONINTMAXSTRDIGITS="4300"),
        )
        assert r.returncode == 3, r.stderr
        assert r.stdout == ""
        assert r.stderr == f"size limit: entries row 0, column 0: {message}\n"

    def test_star6_is_3_under_memory_limit(self, tmp_path):
        # star6's numerator would need gigabytes: under a 3 GB address-space
        # limit it exits 3 before it allocates, never with MemoryError
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        star6 = tmp_path / "star6.yaml"
        star6.write_text("vertices: 6\nedges:\n" + "".join(f"  - [1, {v}]\n" for v in range(2, 7)))
        r = subprocess.run(
            [sys.executable, "-m", "eulerdisc.cli", "cosmo-psi", str(star6)],
            capture_output=True,
            text=True,
            timeout=300,
            env=ENV,
            preexec_fn=limit,
        )
        assert r.returncode == 3, r.stderr
        assert r.stderr == "size limit: wavefunction numerator may have 254186856 terms (limit 1200000)\n"

    def test_path6_disc_is_3_under_memory_limit(self, tmp_path):
        # the 6-path's family has 1,184,039 minor pairs and ran out of
        # memory at 2.9 GB: under a 1 GB address-space limit it exits 3
        # before any minor is built
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        (tmp_path / "path6.yaml").write_text(PATH6)
        r = subprocess.run(
            [sys.executable, "-m", "eulerdisc.cli", "cosmo-disc", str(tmp_path / "path6.yaml")],
            capture_output=True,
            text=True,
            timeout=60,
            env=ENV,
            preexec_fn=limit,
        )
        assert r.returncode == 3, r.stderr
        assert r.stdout == ""
        assert r.stderr == "size limit: coefficient family has 1184039 minor pairs (limit 250000)\n"

    def test_cycle4_polytope_is_3_under_cpu_limit(self, tmp_path):
        # the 4-cycle's edge polytope has d = 20, past the face gate of 8:
        # it exits 3 before any volume or hull is computed, well inside 1 s
        # of CPU (computing the volume first took about 3 s)
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_CPU, (1, 1))

        cycle4 = tmp_path / "cycle4.yaml"
        cycle4.write_text("vertices: 4\nedges:\n  - [1, 2]\n  - [2, 3]\n  - [3, 4]\n  - [1, 4]\n")
        r = subprocess.run(
            [sys.executable, "-m", "eulerdisc.cli", "polytope", str(cycle4)],
            capture_output=True,
            text=True,
            timeout=60,
            env=ENV,
            preexec_fn=limit,
        )
        assert r.returncode == 3, r.stderr
        assert r.stdout == ""
        assert r.stderr == (
            "size limit: face enumeration limited to dimension 8 and 20 points (got d=20, 61)\n"
        )


class TestCommandLineContract:
    COMMANDS = ("pad", "euler-disc", "beta", "polytope", "cosmo-psi", "cosmo-facets", "cosmo-disc")

    def test_version(self):
        r = run_cli("--version")
        assert r.returncode == 0
        assert r.stdout == "eulerdisc, version 0.1.0\n"
        assert r.stderr == ""

    def test_help_lists_the_commands(self):
        r = run_cli("--help")
        assert r.returncode == 0
        listed = {line.split()[0] for line in r.stdout.splitlines() if line.startswith("    ")}
        assert set(self.COMMANDS) <= listed

    def test_unknown_option_is_2(self):
        for args in (("--bogus",), ("pad", str(FIXTURES / "artificial.yaml"), "--bogus"),
                     ("pad",), ("no-such-command",), ("cosmo-disc", "x.yaml", "--seed", "one"),
                     # the face and subgraph gates hold fixed bounds
                     ("polytope", str(FIXTURES / "artificial.yaml"), "--max-points", "32"),
                     ("cosmo-facets", str(FIXTURES / "two_site_graph.yaml"), "--max-vertices", "9")):
            r = run_cli(*args)
            assert r.returncode == 2, args
            assert r.stdout == ""
            assert r.stderr

    def test_default_seed_is_0(self, capsys):
        main(["cosmo-disc", str(FIXTURES / "two_site_graph.yaml")])
        by_default = capsys.readouterr().out
        main(["cosmo-disc", str(FIXTURES / "two_site_graph.yaml"), "--seed", "0"])
        assert capsys.readouterr().out == by_default
        assert structured_block(by_default)["seed"] == 0

    def test_default_max_vertices_is_8(self, tmp_path, capsys):
        for n in (8, 9):
            path = "".join(f"  - [{v}, {v + 1}]\n" for v in range(1, n))
            (tmp_path / f"path{n}.yaml").write_text(f"vertices: {n}\nedges:\n{path}")
        main(["cosmo-facets", str(tmp_path / "path8.yaml")])
        assert structured_block(capsys.readouterr().out)["command"] == "cosmo-facets"
        with pytest.raises(SystemExit) as exc:
            main(["cosmo-facets", str(tmp_path / "path9.yaml")])
        assert exc.value.code == 3
        assert capsys.readouterr().err == "size limit: graph exceeds bounds (8 vertices / 12 edges)\n"

    @pytest.mark.parametrize("args, code", [
        (("pad", "malformed.yaml"), 1),
        (("pad", "disconnected_pattern.yaml"), 2),
        (("cosmo-psi", "big_tree.yaml"), 3),
    ])
    def test_in_process_exit_codes(self, args, code, capsys):
        # perfbench/tracer.py calls main this way and reads SystemExit
        cmd, name = args
        with pytest.raises(SystemExit) as exc:
            main(args=[cmd, str(FIXTURES / name)], prog_name="eulerdisc")
        assert exc.value.code == code
        assert capsys.readouterr().out == ""

    def test_in_process_success_returns(self, capsys):
        assert main(args=["pad", str(FIXTURES / "artificial.yaml")], prog_name="eulerdisc") is None
        assert structured_block(capsys.readouterr().out)["degree"] == 30


class TestImportFootprint:
    # a CLI call imports only the modules its command runs: no click, no
    # dataclasses (and with it inspect), and no pipeline for --version
    SCRIPT = (
        "import json, runpy, sys\n"
        "try:\n"
        "    runpy.run_module('eulerdisc.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )

    def modules(self, *args):
        r = subprocess.run([sys.executable, "-c", self.SCRIPT, *args],
                           capture_output=True, text=True, timeout=300, env=ENV)
        assert r.returncode == 0, r.stderr
        return set(json.loads(r.stdout.splitlines()[-1]))

    @pytest.mark.parametrize("args", [
        ("--version",),
        ("pad", str(FIXTURES / "artificial.yaml")),
        ("cosmo-psi", str(FIXTURES / "three_site_graph.yaml")),
    ], ids=["version", "pad", "cosmo-psi"])
    def test_no_click_or_dataclasses(self, args):
        assert not self.modules(*args) & {"click", "dataclasses", "inspect"}

    def test_version_loads_no_pipeline(self):
        loaded = {m for m in self.modules("--version") if m.startswith("eulerdisc.")}
        assert loaded <= {"eulerdisc.cli", "eulerdisc.errors"}

    def test_pad_on_a_pattern_does_not_load_cosmo(self):
        loaded = self.modules("pad", str(FIXTURES / "artificial.yaml"))
        assert "eulerdisc.discriminant" in loaded
        assert "eulerdisc.cosmo" not in loaded

    def test_beta_does_not_load_discriminant(self):
        loaded = self.modules("beta", str(FIXTURES / "central_matrix.yaml"))
        assert "eulerdisc.discriminant" not in loaded

    def test_beta_does_not_load_symcore(self):
        loaded = self.modules("beta", str(FIXTURES / "central_matrix.yaml"))
        assert "eulerdisc.matroid" in loaded
        assert "eulerdisc.symcore" not in loaded

    # (command and input, a module it runs, the pipeline modules it must
    # not load)
    @pytest.mark.parametrize("args, runs, absent", [
        (("pad", "artificial.yaml"), "eulerdisc.lattice", {"eulerdisc.matroid"}),
        (("polytope", "two_site_pattern.yaml"), "eulerdisc.lattice",
         {"eulerdisc.discriminant", "eulerdisc.matroid", "eulerdisc.symcore"}),
        (("euler-disc", "z1_family.yaml"), "eulerdisc.matroid",
         {"eulerdisc.lattice", "eulerdisc.kernels"}),
        (("cosmo-disc", "two_site_graph.yaml"), "eulerdisc.matroid",
         {"eulerdisc.lattice", "eulerdisc.kernels"}),
        (("cosmo-psi", "three_site_graph.yaml"), "eulerdisc.cosmo",
         {"eulerdisc.discriminant", "eulerdisc.lattice", "eulerdisc.kernels", "eulerdisc.matroid"}),
        (("cosmo-facets", "bubble_graph.yaml"), "eulerdisc.cosmo",
         {"eulerdisc.discriminant", "eulerdisc.lattice", "eulerdisc.kernels", "eulerdisc.matroid"}),
        (("polytope", "three_site_graph.yaml"), "eulerdisc.lattice",
         {"eulerdisc.discriminant", "eulerdisc.matroid"}),
    ], ids=["pad", "polytope", "euler-disc", "cosmo-disc", "cosmo-psi", "cosmo-facets",
            "polytope-energy-graph"])
    def test_command_loads_only_its_pipeline(self, args, runs, absent):
        command, name = args
        loaded = self.modules(command, str(FIXTURES / name))
        assert runs in loaded
        assert not loaded & absent


class TestTracedModules:
    # the benchmark's traced run imports every module in perfbench/tracer.py's
    # TRACED list unguarded; the list is read with ast, so numpy, which the
    # tracer imports, is not needed here
    def test_every_traced_module_imports(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        tree = ast.parse(path.read_text())
        (traced,) = (
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
        )
        modules = sorted({entry[0] for entry in traced})
        assert "eulerdisc.kernels" in modules
        for name in modules:
            importlib.import_module(name)


class TestBrokenPipe:
    def test_reader_closing_early_exits_1_quietly(self, tmp_path):
        # the 5-path's report is about 116 kB, more than a pipe holds, so
        # the CLI is still writing when the reader goes
        path5 = tmp_path / "path5.yaml"
        path5.write_text("vertices: 5\nedges: [[1, 2], [2, 3], [3, 4], [4, 5]]\n")
        proc = subprocess.Popen(
            [sys.executable, "-m", "eulerdisc.cli", "cosmo-psi", str(path5)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV,
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=300) == 1
        assert head.startswith(b"wavefunction coefficient\n")
        assert err == b""


class TestWithoutNumpy:
    # numpy is blocked before eulerdisc.cli is imported, so any import of it
    # by the library raises ImportError
    BLOCKED = (
        "import runpy, sys; sys.modules['numpy'] = None; "
        "runpy.run_module('eulerdisc.cli', run_name='__main__')"
    )

    def test_reports_unchanged_with_numpy_blocked(self):
        for args in (
            ("cosmo-psi", str(FIXTURES / "three_site_graph.yaml")),
            ("euler-disc", str(FIXTURES / "z1_family.yaml")),
        ):
            plain = run_cli(*args)
            blocked = subprocess.run(
                [sys.executable, "-c", self.BLOCKED, *args],
                capture_output=True,
                text=True,
                timeout=300,
                env=ENV,
            )
            assert plain.returncode == 0
            assert blocked.returncode == 0, blocked.stderr
            assert blocked.stdout == plain.stdout
