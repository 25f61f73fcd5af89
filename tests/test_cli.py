import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tblim
from tblim.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBuild:
    def test_round_trip_identical(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["build", "--n", "6", "--K", "2", "--L", "3", "--parity", "minus",
                     "--out", str(out1)]) == 0
        assert main(["build", "--n", "6", "--K", "2", "--L", "3", "--parity", "minus",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_dimensions_and_reload(self, tmp_path):
        out = tmp_path / "ops.json"
        main(["build", "--n", "6", "--K", "2", "--L", "3", "--parity", "minus", "--out", str(out)])
        doc = json.loads(out.read_text())
        ops = doc["operators"]
        assert set(ops) == {"A", "A_star", "pi1", "pi2", "Q", "T_position", "T_momentum"}
        for name, payload in ops.items():
            assert payload["dim"] == 5
        from tblim.serialize import unpack_operator
        from tblim.operators import tb_operator
        from tblim.core_model import ModelParams, Parity

        q = unpack_operator(ops["Q"])
        want = tb_operator(ModelParams(6, 2, 3, Parity.MINUS))
        assert np.max(np.abs(q.entries - want.entries)) == 0.0


    # the earlier digests (cb648212..., a41030c9...) are of pi2 and Q built
    # from cosines of pi*k*j/n at arguments up to n*pi, before they were read
    # from one period table; the ones before them (38cdad00..., 96b55bc1...)
    # also had ',"seed":0' in "params", which build no longer echoes
    @pytest.mark.parametrize("parity,digest", [
        ("plus", "81e87f830e146a84ef90ca8883489a6a66eac5b17d74554ca0e6dcb8baa32874"),
        ("minus", "94ba0f1acf26e7c34c6180a4ddad4ab4858afe2fb188ce15c745d5b6955bf90f"),
    ])
    def test_bytes_frozen_at_n48(self, tmp_path, parity, digest):
        import hashlib

        out = tmp_path / "ops.json"
        assert main(["build", "--n", "48", "--K", "16", "--L", "20", "--parity", parity,
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


    def test_bytes_frozen_at_n96(self, tmp_path):
        # the earlier digest (76b71577...) is of pi2 and Q before the
        # Fourier block was read from one period table of cosines
        import hashlib

        out = tmp_path / "ops.json"
        assert main(["build", "--n", "96", "--K", "48", "--L", "12", "--parity", "plus",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "e763cc39c9f569112386a9c2dcb07108b3ace10626fe11fb0fd69700ce1322ae"


class TestSpectrum:
    # the earlier digests (a11adf43..., 43fc1fa3..., 621b1f7e..., 34e414a9...)
    # are of q and residual, and the order of modes whose q tie, before the
    # Fourier block was read from one period table of cosines
    @pytest.mark.parametrize("argv,digest", [
        (["--parity", "plus"], "4e0f4977de95d45f946391f935d088cb85c60e7e1a067d71d7d3cfc8b31b22ff"),
        (["--parity", "minus"], "ab6f6822373804c4e306cf4e8ea9ba8426f360e88bd67e002c88d648cbae4646"),
        (["--parity", "plus", "--sweep", "K=0..n"],
         "02799ac46761817cb6060f3e276a2cabfc9563419b30125ea6de7f6bfd5ae0c2"),
        (["--parity", "minus", "--sweep", "K=0..n"],
         "e44488e07c66d3ea429aa6dcb854af2a5cc067c503cdb39ed767429e8c132aa2"),
    ])
    def test_bytes_frozen_at_n48(self, tmp_path, argv, digest):
        import hashlib

        out = tmp_path / "spectrum.json"
        assert main(["spectrum", "--n", "48", "--K", "12", "--L", "24", *argv,
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_benchmark_invocations_bytes_frozen(self, tmp_path):
        # the eleven spectrum invocations of the spectrum-large workload (at
        # their nominal K) and one L sweep: exit codes and --out bytes,
        # recorded before the window eigensolves were stacked
        import hashlib

        shapes = [(384, 24, 12), (640, 40, 16), (320, 80, 160), (320, 160, 160),
                  (256, 192, 248)]
        runs = [["--n", str(n), "--K", str(k), "--L", str(ll), "--parity", parity]
                for n, k, ll in shapes for parity in ("plus", "minus")]
        runs += [["--n", "48", "--K", "0", "--L", "24", "--parity", "plus", "--sweep", "K=0..n"],
                 ["--n", "24", "--K", "6", "--L", "0", "--parity", "plus", "--sweep", "L=0..n"]]
        h = hashlib.sha256()
        for i, argv in enumerate(runs):
            out = tmp_path / f"{i}.json"
            code = main(["spectrum", *argv, "--out", str(out)])
            h.update(b"%d\0" % code + (out.read_bytes() if out.exists() else b""))
        assert h.hexdigest() == "32b06ccdf9e0d9a472ab41e99e94adf24087a96b73cf2d6443623183efb49418"

    @pytest.mark.parametrize("sweep", ["K=0..n", "L=0..n"])
    @pytest.mark.parametrize("parity", ["plus", "minus"])
    def test_one_matrix_per_stack_changes_no_byte(self, tmp_path, monkeypatch, sweep, parity):
        import tblim.cli

        argv = ["spectrum", "--n", "12", "--K", "5", "--L", "6", "--parity", parity,
                "--sweep", sweep, "--out"]
        codes = [main(argv + [str(tmp_path / "stacked.json")])]
        monkeypatch.setattr(tblim.cli, "_STACK_BYTES", 1)
        codes.append(main(argv + [str(tmp_path / "single.json")]))
        assert codes[0] == codes[1]
        assert (tmp_path / "stacked.json").read_bytes() == (tmp_path / "single.json").read_bytes()

    @pytest.mark.parametrize("parity", ["plus", "minus"])
    def test_full_window_sweep_keeps_each_error(self, tmp_path, parity):
        # L = n: each failing K keeps its own entry, with the message that
        # joint_spectrum raises for it alone
        from tblim.core_model import ModelParams, Parity
        from tblim.errors import DegeneracyError
        from tblim.spectral import joint_spectrum

        out = tmp_path / "sweep.json"
        code = main(["spectrum", "--n", "8", "--K", "0", "--L", "8", "--parity", parity,
                     "--sweep", "K=0..n", "--out", str(out)])
        entries = json.loads(out.read_text())["results"]
        assert [e["value"] for e in entries] == list(range(9))
        for e in entries:
            try:
                modes = joint_spectrum(ModelParams(8, e["value"], 8, Parity(parity)))
                assert [m["t"] for m in e["modes"]] == [m.t for m in modes]
            except DegeneracyError as exc:
                assert e["error"] == str(exc)
        failed = sum("error" in e for e in entries)
        assert code == (2 if failed else 0)
        assert parity == "minus" or failed

    def test_csv_shape_and_order(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "6", "--K", "2", "--L", "3",
                           "--parity", "plus", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "ell,t,q,residual"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 4  # window rank L+1
        qs = [float(r[2]) for r in rows]
        assert qs == sorted(qs, reverse=True)

    def test_minus_row_count(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "6", "--K", "2", "--L", "3",
                           "--parity", "minus", "--format", "csv")
        assert len(out.strip().splitlines()) == 1 + 3  # header + L rows

    def test_trace_identity(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "8", "--K", "3", "--L", "4",
                           "--parity", "plus")
        doc = json.loads(out)
        total = sum(m["q"] for m in doc["modes"])
        from tblim.core_model import ModelParams, Parity
        from tblim.operators import tb_operator

        want = float(np.trace(tb_operator(ModelParams(8, 3, 4, Parity.PLUS)).entries).real)
        assert abs(total - want) < 1e-9

    def test_sweep_ordered(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "6", "--K", "2", "--L", "3",
                           "--parity", "minus", "--sweep", "K=0..4")
        assert code == 0
        doc = json.loads(out)
        assert [r["value"] for r in doc["results"]] == [0, 1, 2, 3, 4]

    def test_sweep_matches_single_runs(self, capsys):
        argv = ["spectrum", "--n", "7", "--K", "2", "--L", "4", "--parity", "plus"]
        code, out, _ = run(capsys, *argv, "--sweep", "K=0..n")
        assert code == 0
        results = json.loads(out)["results"]
        assert [r["value"] for r in results] == list(range(8))
        for r in results:
            single = argv[:4] + [str(r["value"])] + argv[5:]
            _, one, _ = run(capsys, *single)
            assert r["modes"] == json.loads(one)["modes"]

    def test_invalid_params_exit_two(self, capsys):
        code, _, err = run(capsys, "spectrum", "--n", "4", "--K", "9", "--L", "2",
                           "--parity", "plus")
        assert code == 2

    def test_sweep_keeps_values_that_succeed(self, capsys, caplog, tmp_path):
        # L = 8 is a full symmetric window, where joint_spectrum raises
        argv = ["spectrum", "--n", "8", "--K", "3", "--L", "0", "--parity", "plus"]
        out = tmp_path / "sweep.json"
        code, _, _ = run(capsys, *argv, "--sweep", "L=0..n", "--out", str(out))
        assert code == 2
        results = json.loads(out.read_text())["results"]
        assert [r["value"] for r in results] == list(range(9))
        assert set(results[8]) == {"value", "error"}
        assert "joint eigenvector residual" in results[8]["error"]
        assert [r.getMessage()[:37] for r in caplog.records if r.levelname == "ERROR"] == \
            ["sweep L=8: joint eigenvector residual"]
        code, good, _ = run(capsys, *argv, "--sweep", "L=0..7")
        assert code == 0
        assert results[:8] == json.loads(good)["results"]

    def test_csv_sweep_keeps_values_that_succeed(self, capsys, caplog):
        argv = ["spectrum", "--n", "8", "--K", "3", "--L", "0", "--parity", "plus",
                "--format", "csv"]
        code, out, _ = run(capsys, *argv, "--sweep", "L=0..n")
        assert code == 2
        assert [r.getMessage()[:11] for r in caplog.records if r.levelname == "ERROR"] == \
            ["sweep L=8: "]
        code, good, _ = run(capsys, *argv, "--sweep", "L=0..7")
        assert code == 0
        assert out == good


class TestVerify:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "6", "--K", "2", "--L", "3",
                           "--parity", "minus")
        assert code == 0
        assert "FAIL" not in out
        assert "PASS" in out

    def test_plus_instance(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "8", "--K", "3", "--L", "4",
                           "--parity", "plus")
        assert code == 0

    @pytest.mark.parametrize("n,K,L", [(64, 16, 48), (128, 32, 96)])
    def test_near_full_window_link_passes(self, capsys, tmp_path, n, K, L):
        out_file = tmp_path / "v.json"
        code, out, _ = run(capsys, "verify", "--n", str(n), "--K", str(K), "--L", str(L),
                           "--parity", "plus", "--out", str(out_file))
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out_file.read_text())["checks"]}
        for name in ("polymap_operator_identity", "polymap_interpolation"):
            assert checks[name]["passed"] and not checks[name]["skipped"]
            assert checks[name]["note"].startswith("re-verified at ")
            assert checks[name]["note"].endswith(" digits")

    def test_corrupted_operator_file(self, capsys, tmp_path):
        ops = tmp_path / "ops.json"
        main(["build", "--n", "6", "--K", "2", "--L", "3", "--parity", "minus",
              "--out", str(ops)])
        text = ops.read_text().replace("[[0,0]", "[[0.5,0]", 1)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, _ = run(capsys, "verify", "--n", "6", "--K", "2", "--L", "3",
                           "--parity", "minus", "--operators", str(bad))
        assert code == 1
        assert "FAIL" in out

    def test_unloadable_stored_matrix_gives_valid_json(self, capsys, tmp_path):
        ops = tmp_path / "ops.json"
        main(["build", "--n", "8", "--K", "2", "--L", "3", "--parity", "plus", "--out", str(ops)])
        doc = json.loads(ops.read_text())
        doc["operators"]["Q"]["rows"][0][1][0] += 1e-7  # breaks hermiticity
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        report = tmp_path / "v.json"
        code, _, _ = run(capsys, "verify", "--n", "8", "--K", "2", "--L", "3", "--parity", "plus",
                         "--operators", str(bad), "--out", str(report))
        assert code == 1
        checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
        assert checks["stored_Q"]["residual"] is None
        assert not checks["stored_Q"]["passed"]

    @pytest.mark.parametrize("corrupt", [
        lambda rows: rows[2].pop(),                       # ragged rows
        lambda rows: rows[1][1].pop(),                    # an entry that is not a pair
        lambda rows: rows.pop(),                          # fewer rows than dim
        lambda rows: rows[0].__setitem__(0, ["x", 0.0]),  # not a number
    ])
    def test_malformed_payload_fails_with_note(self, capsys, tmp_path, corrupt):
        ops = tmp_path / "ops.json"
        main(["build", "--n", "6", "--K", "2", "--L", "3", "--parity", "minus", "--out", str(ops)])
        doc = json.loads(ops.read_text())
        corrupt(doc["operators"]["pi2"]["rows"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        report = tmp_path / "v.json"
        code, out, _ = run(capsys, "verify", "--n", "6", "--K", "2", "--L", "3",
                           "--parity", "minus", "--operators", str(bad), "--out", str(report))
        assert code == 1
        checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
        assert not checks["stored_pi2"]["passed"] and checks["stored_pi2"]["note"]
        assert "FAIL stored_pi2" in out
        assert all(c["passed"] for name, c in checks.items() if name != "stored_pi2")

    def test_unreadable_operator_file(self, capsys, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("{not json")
        code, _, _ = run(capsys, "verify", "--n", "6", "--K", "2", "--L", "3",
                         "--parity", "minus", "--operators", str(bad))
        assert code == 2


class TestBethe:
    def test_first_ansatz_rows(self, capsys):
        code, out, _ = run(capsys, "bethe", "--n", "6", "--K", "2", "--L", "3",
                           "--ansatz", "first")
        assert code == 0
        doc = json.loads(out)
        assert doc["missing_levels"] == []
        assert len(doc["levels"]) == 3
        for level in doc["levels"]:
            assert level["abs_dt"] < 1e-6
            assert level["residual"] < 1e-9

    def test_second_matches_first(self, capsys):
        _, out1, _ = run(capsys, "bethe", "--n", "6", "--K", "2", "--L", "3",
                         "--ansatz", "first")
        _, out2, _ = run(capsys, "bethe", "--n", "6", "--K", "2", "--L", "3",
                         "--ansatz", "second")
        t1 = sorted(l["t_spectral"] for l in json.loads(out1)["levels"])
        t2 = sorted(l["t_spectral"] for l in json.loads(out2)["levels"])
        assert np.allclose(t1, t2, atol=1e-6)

    def test_plus_ansatz_rows(self, capsys):
        code, out, _ = run(capsys, "bethe", "--n", "6", "--K", "2", "--L", "2",
                           "--ansatz", "plus")
        assert code == 0
        assert len(json.loads(out)["levels"]) == 3

    def test_missing_ansatz_flag(self, capsys):
        code, _, err = run(capsys, "bethe", "--n", "6", "--K", "2", "--L", "3")
        assert code == 2

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "bethe", "--n", "6", "--K", "2", "--L", "3",
                         "--ansatz", "second")
        _, out2, _ = run(capsys, "bethe", "--n", "6", "--K", "2", "--L", "3",
                         "--ansatz", "second")
        assert out1 == out2

    def test_full_antisymmetric_window_is_input_error(self, capsys):
        code, _, err = run(capsys, "bethe", "--n", "3", "--K", "1", "--L", "3",
                           "--ansatz", "first")
        assert code == 2
        assert "window rank" in err

    # the 17 instances of the bethe-ranks benchmark workload, then three at
    # window ranks 10, 11 and 12
    FROZEN = [(n, K, L, ansatz)
              for n, K, L in [(16, 5, 2), (24, 8, 4), (12, 4, 5), (16, 5, 7), (20, 6, 8)]
              for ansatz in ("first", "second")] \
        + [(16, 5, 9, "second"), (24, 8, 9, "second")] \
        + [(n, K, L, "plus") for n, K, L in [(24, 8, 2), (20, 6, 5), (12, 4, 6), (24, 8, 7),
                                             (16, 5, 8)]] \
        + [(16, 5, 9, "plus"), (20, 6, 11, "first"), (24, 8, 11, "plus")]

    def test_bytes_frozen(self, tmp_path):
        # one sha256 over the exit code and the --out bytes of each instance,
        # in JSON and in CSV; the earlier digest (67aa355d...) is of the
        # seeds from the state basis, before they came from Baxter's Q, which
        # moved the polished roots by up to 1.8e-8 and t_bethe by 3.1e-13
        import hashlib

        digest = hashlib.sha256()
        out = tmp_path / "bethe.out"
        for n, K, L, ansatz in self.FROZEN:
            for fmt in ("json", "csv"):
                code = main(["bethe", "--n", str(n), "--K", str(K), "--L", str(L),
                             "--ansatz", ansatz, "--format", fmt, "--out", str(out)])
                digest.update(f"{code}\n".encode() + out.read_bytes())
        assert len(self.FROZEN) == 20
        assert digest.hexdigest() == \
            "fb10ad1452ddf1e562a676fc4e90d386c5286d6384e5bb0a25389b8473591b1b"


class TestReconstruct:
    @staticmethod
    def write_signal(path, n, L, seed=0):
        rng = np.random.default_rng(seed)
        f = np.zeros(2 * n, dtype=complex)
        for x in list(range(0, L + 1)) + list(range(2 * n - L, 2 * n)):
            f[x] = rng.normal() + 1j * rng.normal()
        lines = ["index,re,im"] + [
            f"{i},{float(f[i].real)!r},{float(f[i].imag)!r}" for i in range(2 * n)
        ]
        path.write_text("\n".join(lines) + "\n")
        return f

    def test_full_band_round_trip(self, capsys, tmp_path):
        sig = tmp_path / "sig.csv"
        self.write_signal(sig, 8, 4)
        code, out, _ = run(capsys, "reconstruct", "--n", "8", "--K", "8", "--L", "4",
                           "--signal", str(sig))
        assert code == 0
        doc = json.loads(out)
        assert doc["plus"]["verdict"] == "exact"
        assert doc["relative_error"] < 1e-10

    def test_unrecoverable_verdict(self, capsys, tmp_path):
        sig = tmp_path / "sig.csv"
        self.write_signal(sig, 8, 6)
        code, out, _ = run(capsys, "reconstruct", "--n", "8", "--K", "1", "--L", "6",
                           "--signal", str(sig))
        assert code == 0
        doc = json.loads(out)
        assert doc["plus"]["verdict"] == "unrecoverable"

    def test_bytes_frozen_at_n48(self, tmp_path):
        # the earlier digest (77b84cb3...) is of E built from cosines at
        # arguments up to n*pi, before they were read from one period table;
        # the one before it (832c6eba...) is of the truncated-SVD route, before
        # the least-squares solve moved f_hat by up to 1.5e-7 relative
        import hashlib

        sig = tmp_path / "sig.csv"
        self.write_signal(sig, 48, 20)
        out = tmp_path / "recon.json"
        assert main(["reconstruct", "--n", "48", "--K", "16", "--L", "20", "--signal", str(sig),
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "2ffb30011359ac41550721f204f1500a01de17bbeb37781b27e60d036a7af310"

    def test_malformed_csv_exit_two(self, capsys, tmp_path):
        sig = tmp_path / "bad.csv"
        sig.write_text("garbage,npe\n")
        code, _, _ = run(capsys, "reconstruct", "--n", "8", "--K", "6", "--L", "4",
                         "--signal", str(sig))
        assert code == 2

    @pytest.mark.parametrize("rows,message", [
        (["0,1,2", "1,3", "2,x,6"], "malformed signal row '1,3'; expected index,re,im"),
        (["0,1,2", "1,3,4,5"], "malformed signal row '1,3,4,5'; expected index,re,im"),
        (["0,1,2", "1,x,4", "2,3"], "malformed signal row '1,x,4': could not convert string "
                                    "to float: 'x'"),
        (["0,1,2", "1.5,3,4"], "malformed signal row '1.5,3,4': invalid literal for int() "
                               "with base 10: '1.5'"),
        (["0,1,2", "9,3,4", "2,x,6"], "signal index 9 outside 0..3"),
        (["0,1,2", "-1,3,4"], "signal index -1 outside 0..3"),
        (["0,1,2", "1,3,4", "3,7,8"], "signal file misses 1 of 4 samples"),
    ])
    def test_bad_signal_rows_exit_two(self, capsys, tmp_path, rows, message):
        # the first bad row is named, whatever the rows after it hold
        sig = tmp_path / "bad.csv"
        sig.write_text("index,re,im\n" + "\n".join(rows) + "\n")
        code, out, err = run(capsys, "reconstruct", "--n", "2", "--K", "2", "--L", "1",
                             "--signal", str(sig))
        assert code == 2 and out == ""
        assert f"error: {message}\n" in err

    def test_signal_rows_last_index_wins(self):
        from tblim.cli import _read_signal_csv
        import tempfile

        with tempfile.TemporaryDirectory() as work:
            sig = os.path.join(work, "sig.csv")
            with open(sig, "w") as fh:
                fh.write(" Index , re , im\n\n3,7,8\n1,9,9\n0, 1_0 ,-0.0\r\n2,nan,inf\n"
                         "1,3,4\n  \n")
            values = _read_signal_csv(sig, 2)
        assert values[0] == 10 and np.signbit(values[0].imag)
        assert values[1] == 3 + 4j and values[3] == 7 + 8j
        assert np.isnan(values[2].real) and values[2].imag == np.inf

    def test_support_violation_exit_two(self, capsys, tmp_path):
        sig = tmp_path / "sig.csv"
        self.write_signal(sig, 8, 7)  # support exceeds L = 2
        code, _, _ = run(capsys, "reconstruct", "--n", "8", "--K", "6", "--L", "2",
                         "--signal", str(sig))
        assert code == 2


class TestOptions:
    @pytest.mark.parametrize("command,option,value", [
        ("build", "--ansatz", "first"), ("spectrum", "--ansatz", "plus"),
        ("verify", "--ansatz", "first"), ("reconstruct", "--ansatz", "first"),
        ("build", "--format", "csv"), ("verify", "--format", "csv"),
        ("reconstruct", "--format", "csv"),
        ("build", "--tol", "1e-30"), ("spectrum", "--tol", "1e-30"),
        ("verify", "--tol", "1e-30"),
        ("reconstruct", "--parity", "plus"),
        ("build", "--seed", "0"), ("spectrum", "--seed", "0"),
        ("bethe", "--seed", "0"), ("reconstruct", "--seed", "0"),
    ])
    def test_undeclared_option_exits_two(self, capsys, command, option, value):
        argv = [command, "--n", "6", "--K", "2", "--L", "3", option, value]
        if command in ("build", "spectrum", "verify"):
            argv += ["--parity", "minus"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bethe", "reconstruct"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_tolerance_exits_two(self, capsys, tmp_path, command, value):
        # a NaN tolerance would make every comparison against it false
        argv = [command, "--n", "8", "--K", "3", "--L", "3", "--tol", value]
        if command == "bethe":
            argv += ["--ansatz", "plus"]
        else:
            TestReconstruct.write_signal(tmp_path / "sig.csv", 8, 3)
            argv += ["--signal", str(tmp_path / "sig.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --tol: expected a finite tolerance >= 0, got '{value}'" in captured.err

    def test_zero_tolerance_keeps_its_meaning(self, capsys, tmp_path):
        # reconstruct keeps every sigma > 0; bethe accepts no residual
        TestReconstruct.write_signal(tmp_path / "sig.csv", 8, 3)
        code, out, _ = run(capsys, "reconstruct", "--n", "8", "--K", "3", "--L", "3",
                           "--signal", str(tmp_path / "sig.csv"), "--tol", "0")
        assert code == 0
        doc = json.loads(out)
        for parity in ("plus", "minus"):
            assert doc[parity]["kept_modes"] == sum(s > 0 for s in doc[parity]["singular_values"])
        code, out, _ = run(capsys, "bethe", "--n", "8", "--K", "3", "--L", "3",
                           "--ansatz", "plus", "--tol", "0")
        assert code == 1
        assert json.loads(out)["levels"] == []

    def test_two_commands_in_one_process(self, capsys):
        # the parser is built once per process; a rejected option in between
        # must not leak into the next command
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tblim.__file__)))
        env.pop("TBLIM_LOG", None)
        spectrum = ["spectrum", "--n", "8", "--K", "3", "--L", "4", "--parity", "plus",
                    "--format", "csv"]
        bethe = ["bethe", "--n", "6", "--K", "2", "--L", "3", "--ansatz", "first"]
        fresh = [subprocess.run([sys.executable, "-m", "tblim.cli"] + argv, env=env,
                                capture_output=True, text=True, check=True).stdout
                 for argv in (spectrum, bethe)]
        assert build_parser() is build_parser()
        code, out_spectrum, _ = run(capsys, *spectrum)
        assert code == 0
        with pytest.raises(SystemExit):
            main(["verify", "--n", "6", "--K", "2", "--L", "3", "--parity", "minus",
                  "--tol", "1e-3"])
        capsys.readouterr()
        code, out_bethe, _ = run(capsys, *bethe)
        assert code == 0
        assert [out_spectrum, out_bethe] == fresh
        assert json.loads(out_bethe)["missing_levels"] == []

    def test_reconstruct_echoes_both_parities(self, capsys, tmp_path):
        sig = tmp_path / "sig.csv"
        TestReconstruct.write_signal(sig, 8, 4)
        code, out, _ = run(capsys, "reconstruct", "--n", "8", "--K", "8", "--L", "4",
                           "--signal", str(sig))
        assert code == 0
        assert json.loads(out)["params"]["parity"] == "both"


class TestLogging:
    def _spectrum(self, level):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tblim.__file__)))
        env.pop("TBLIM_LOG", None)
        if level:
            env["TBLIM_LOG"] = level
        return subprocess.run(
            [sys.executable, "-m", "tblim.cli", "spectrum", "--n", "8", "--K", "3", "--L", "4",
             "--parity", "plus"], env=env, capture_output=True, text=True, check=True)

    def test_debug_logs_to_stderr_only(self):
        quiet = self._spectrum(None)
        loud = self._spectrum("debug")
        assert quiet.stderr == ""
        assert loud.stdout == quiet.stdout
        assert "tblim DEBUG: joint_spectrum n=8 K=3 L=4 plus: window rank 5, " \
            "min eigenvalue gap 6.348e-01, max joint residual" in loud.stderr

    def test_debug_logs_each_reconstruct_parity(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tblim.__file__)))
        env.pop("TBLIM_LOG", None)
        TestReconstruct.write_signal(tmp_path / "sig.csv", 24, 10)
        args = [sys.executable, "-m", "tblim.cli", "reconstruct", "--n", "24", "--K", "6",
                "--L", "10", "--signal", str(tmp_path / "sig.csv")]
        runs = {}
        for level in (None, "debug"):
            run_env = dict(env, TBLIM_LOG=level) if level else env
            out = tmp_path / f"{level}.json"
            printed = subprocess.run(args, env=run_env, capture_output=True, text=True, check=True)
            written = subprocess.run(args + ["--out", str(out)], env=run_env,
                                     capture_output=True, text=True, check=True)
            runs[level] = (printed, written, out.read_bytes())
        (quiet, quiet_file, quiet_bytes), (loud, loud_file, loud_bytes) = runs[None], runs["debug"]
        assert quiet.stderr == quiet_file.stderr == ""
        assert loud.stdout == quiet.stdout and loud_file.stdout == quiet_file.stdout == ""
        assert loud_bytes == quiet_bytes == quiet.stdout.encode()
        lines = [ln for ln in loud.stderr.splitlines() if "tblim DEBUG: reconstruct " in ln]
        assert len(lines) == 2
        # band ranks 7 and 6 against window ranks 11 and 10
        for line, parity, rank, kept in zip(lines, ("plus", "minus"), (11, 10), (7, 6)):
            assert line.startswith(f"tblim DEBUG: reconstruct n=24 K=6 L=10 {parity}: "
                                   f"window rank {rank}, kept {kept}, sigma_1 ")
            assert ", smallest kept sigma " in line
            assert ", rcond 1.000e-10, 1 least-squares solve(s)" in line

    def test_debug_logs_each_bethe_level(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tblim.__file__)))
        env.pop("TBLIM_LOG", None)
        args = [sys.executable, "-m", "tblim.cli", "bethe", "--n", "8", "--K", "3", "--L", "5",
                "--ansatz", "second"]
        quiet = subprocess.run(args, env=env, capture_output=True, text=True, check=True)
        loud = subprocess.run(args, env=dict(env, TBLIM_LOG="debug"), capture_output=True,
                              text=True, check=True)
        assert quiet.stderr == ""
        assert loud.stdout == quiet.stdout
        lines = [ln for ln in loud.stderr.splitlines() if "tblim DEBUG: bethe " in ln]
        levels = json.loads(quiet.stdout)["levels"]
        assert len(lines) == len(levels) == 5
        for k, line in enumerate(lines):
            assert line.startswith(f"tblim DEBUG: bethe n=8 K=3 L=5 second level {k}: accepted as "
                                   "level ")
            assert " Newton steps, residual " in line and ", u-spread " in line

    def test_debug_logs_one_line_per_bethe_solve(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tblim.__file__)))
        env.pop("TBLIM_LOG", None)
        runs = {}
        for level in (None, "debug"):
            out = tmp_path / f"bethe-{level}.json"
            args = [sys.executable, "-m", "tblim.cli", "bethe", "--n", "16", "--K", "5", "--L",
                    "9", "--ansatz", "plus"]
            runs[level] = (
                subprocess.run(args, env=env if level is None else dict(env, TBLIM_LOG=level),
                               capture_output=True, text=True, check=True),
                subprocess.run(args + ["--out", str(out)],
                               env=env if level is None else dict(env, TBLIM_LOG=level),
                               capture_output=True, text=True, check=True),
                out.read_bytes())
        (quiet, _, quiet_bytes), (loud, loud_file, loud_bytes) = runs[None], runs["debug"]
        assert quiet.stderr == ""
        assert loud.stdout == quiet.stdout and loud_bytes == quiet_bytes
        assert loud_file.stdout == ""
        lines = [ln for ln in loud.stderr.splitlines() if "tblim DEBUG: solve_bethe " in ln]
        assert len(lines) == 1
        assert lines[0].startswith("tblim DEBUG: solve_bethe n=16 K=5 L=9 plus: 10 levels, "
                                   "10 seeds, ")
        assert ", 0 seed checks after Newton, 10 accepted, 0 missing; seeding " in lines[0]
        assert " s, Newton " in lines[0] and " s, checks " in lines[0]
        levels = [ln for ln in loud.stderr.splitlines() if "tblim DEBUG: bethe " in ln]
        assert len(levels) == 10

    def test_debug_logs_each_link_precision(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tblim.__file__)))
        env.pop("TBLIM_LOG", None)
        args = [sys.executable, "-m", "tblim.cli", "verify", "--n", "24", "--K", "6",
                "--L", "18", "--parity", "plus"]
        quiet = subprocess.run(args, env=env, capture_output=True, text=True, check=True)
        loud = subprocess.run(args, env=dict(env, TBLIM_LOG="debug"), capture_output=True,
                              text=True, check=True)
        assert quiet.stderr == ""
        assert loud.stdout == quiet.stdout
        subprocess.run(args + ["--out", str(tmp_path / "v.json")], env=env, check=True,
                       capture_output=True)
        doc = json.loads((tmp_path / "v.json").read_text())
        note = {c["name"]: c["note"] for c in doc["checks"]}["polymap_operator_identity"]
        digits = note[len("re-verified at "):-len(" digits")].split(" and ")
        lines = [ln for ln in loud.stderr.splitlines() if "tblim DEBUG: polymap link " in ln]
        assert len(lines) == len(digits) >= 2
        for d, line in zip(digits, lines):
            assert line.startswith(f"tblim DEBUG: polymap link n=24 K=6 L=18 plus: {d} digits, ")
            assert " working bits, " in line and " Newton passes, " in line
            assert line.endswith(", 19 of 19 roots bracketed")

    def test_info_logs_each_link_escalation(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tblim.__file__)))
        args = [sys.executable, "-m", "tblim.cli", "verify", "--n", "24", "--K", "6",
                "--L", "18", "--parity", "plus"]
        env.pop("TBLIM_LOG", None)
        quiet = subprocess.run(args, env=env, capture_output=True, text=True, check=True)
        loud = subprocess.run(args + ["--out", str(tmp_path / "v.json")],
                              env=dict(env, TBLIM_LOG="info"), capture_output=True, text=True,
                              check=True)
        assert quiet.stderr == ""
        lines = [ln for ln in loud.stderr.splitlines() if "polymap escalation" in ln]
        assert len(lines) == 1
        line = lines[0]
        assert line.startswith("tblim INFO: polymap escalation n=24 K=6 L=18 plus: "
                               "double operator ")
        assert line.endswith(" s")
        doc = json.loads((tmp_path / "v.json").read_text())
        note = {c["name"]: c["note"] for c in doc["checks"]}["polymap_operator_identity"]
        digits = note[len("re-verified at "):-len(" digits")].split(" and ")
        assert len(digits) >= 2
        for d in digits:
            assert f"{d} digits operator " in line

    @pytest.mark.parametrize("argv,line", [
        (["spectrum", "--n", "8", "--K", "3", "--L", "4", "--parity", "plus"],
         "tblim INFO: spectrum n=8 K=3 L=4 plus: exit 0, "),
        (["build", "--n", "6", "--K", "2", "--L", "3", "--parity", "minus"],
         "tblim INFO: build n=6 K=2 L=3 minus: exit 0, "),
        (["spectrum", "--n", "4", "--K", "9", "--L", "2", "--parity", "plus"],
         "tblim INFO: spectrum n=4 K=9 L=2 plus: exit 2, "),
    ])
    def test_info_logs_each_command(self, tmp_path, argv, line):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tblim.__file__)))
        env.pop("TBLIM_LOG", None)
        cmd = [sys.executable, "-m", "tblim.cli"] + argv
        quiet = subprocess.run(cmd + ["--out", str(tmp_path / "quiet.json")], env=env,
                               capture_output=True, text=True)
        loud = subprocess.run(cmd + ["--out", str(tmp_path / "loud.json")],
                              env=dict(env, TBLIM_LOG="info"), capture_output=True, text=True)
        assert quiet.returncode == loud.returncode
        assert "INFO" not in quiet.stderr
        lines = [ln for ln in loud.stderr.splitlines() if ln.startswith("tblim INFO: ")]
        assert len(lines) == 1
        assert lines[0].startswith(line) and lines[0].endswith(" s")
        if quiet.returncode == 0:
            assert (tmp_path / "quiet.json").read_bytes() == (tmp_path / "loud.json").read_bytes()
