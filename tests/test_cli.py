import zlib

import numpy as np
import pytest

from qvss import baseline
from qvss.cli import main
from qvss.image_io import BinaryImage, from_pixel_list, read_pbm, write_pbm

DEMO_IMAGE = from_pixel_list(4, 1, [0, 1, 1, 0])


@pytest.fixture
def secret(tmp_path):
    path = tmp_path / "secret.pbm"
    path.write_bytes(write_pbm(DEMO_IMAGE))
    return path


def share_args(secret, out_dir, n=3, seed=42, backend="statevector"):
    return [
        "share",
        str(secret),
        "--n",
        str(n),
        "--seed",
        str(seed),
        "--backend",
        backend,
        "--out-dir",
        str(out_dir),
    ]


def test_share_writes_files(secret, tmp_path, capsys):
    out = tmp_path / "shares"
    assert main(share_args(secret, out)) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "session.qvse",
        "share_1.qvs",
        "share_2.qvs",
        "share_3.qvs",
    ]
    stdout = capsys.readouterr().out
    assert "shared 4 pixels" in stdout
    assert "expansion factor: 1" in stdout


def test_share_rerun_is_byte_identical(secret, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(share_args(secret, out1)) == 0
    assert main(share_args(secret, out2)) == 0
    for name in ["session.qvse", "share_1.qvs", "share_2.qvs", "share_3.qvs"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_share_rejects_n1(secret, tmp_path):
    assert main(share_args(secret, tmp_path, n=1)) == 2


def test_share_large_random_image(tmp_path, capsys):
    rng = np.random.default_rng(0)
    image = BinaryImage(64, 64, rng.integers(0, 2, size=4096))
    path = tmp_path / "big.pbm"
    path.write_bytes(write_pbm(image, "p4"))
    assert main(share_args(path, tmp_path / "out", n=6)) == 0
    assert "shared 4096 pixels" in capsys.readouterr().out


def test_recover_full_set(secret, tmp_path, capsys):
    out = tmp_path / "shares"
    main(share_args(secret, out))
    recovered = tmp_path / "rec.pbm"
    rc = main(
        [
            "recover",
            *[str(out / f"share_{j}.qvs") for j in (1, 2, 3)],
            "--session",
            str(out / "session.qvse"),
            "--out",
            str(recovered),
            "--seed",
            "9",
            "--reference",
            str(secret),
        ]
    )
    assert rc == 0
    assert "reference match: yes" in capsys.readouterr().out
    assert read_pbm(recovered.read_bytes()) == DEMO_IMAGE


def test_recover_sampled_backend(secret, tmp_path):
    out = tmp_path / "shares"
    main(share_args(secret, out, backend="sampled"))
    recovered = tmp_path / "rec.pbm"
    rc = main(
        [
            "recover",
            *[str(out / f"share_{j}.qvs") for j in (1, 2, 3)],
            "--session",
            str(out / "session.qvse"),
            "--out",
            str(recovered),
        ]
    )
    assert rc == 0
    assert read_pbm(recovered.read_bytes()) == DEMO_IMAGE


def test_recover_refuses_subset_and_writes_nothing(secret, tmp_path):
    out = tmp_path / "shares"
    main(share_args(secret, out))
    recovered = tmp_path / "rec.pbm"
    rc = main(
        [
            "recover",
            str(out / "share_1.qvs"),
            str(out / "share_2.qvs"),
            "--session",
            str(out / "session.qvse"),
            "--out",
            str(recovered),
            "--seed",
            "9",
        ]
    )
    assert rc == 4
    assert not recovered.exists()


def test_recover_corrupt_share_exits_3(secret, tmp_path):
    out = tmp_path / "shares"
    main(share_args(secret, out))
    payload = bytearray((out / "share_1.qvs").read_bytes())
    payload[15] ^= 0xFF
    (out / "share_1.qvs").write_bytes(bytes(payload))
    rc = main(
        [
            "recover",
            *[str(out / f"share_{j}.qvs") for j in (1, 2, 3)],
            "--session",
            str(out / "session.qvse"),
            "--out",
            str(tmp_path / "rec.pbm"),
            "--seed",
            "9",
        ]
    )
    assert rc == 3


def test_audit_proper_subset(secret, tmp_path, capsys):
    out = tmp_path / "shares"
    main(share_args(secret, out))
    rc = main(["audit", "--session", str(out / "session.qvse"), "--subset", "2"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "verdict: no-information" in stdout
    assert "0.50000000" in stdout


def test_audit_full_subset(secret, tmp_path, capsys):
    out = tmp_path / "shares"
    main(share_args(secret, out))
    rc = main(["audit", "--session", str(out / "session.qvse"), "--subset", "1,2,3"])
    assert rc == 0
    assert "verdict: full-recovery" in capsys.readouterr().out


def test_audit_bad_subset(secret, tmp_path):
    out = tmp_path / "shares"
    main(share_args(secret, out))
    rc = main(["audit", "--session", str(out / "session.qvse"), "--subset", "0,9"])
    assert rc == 2


def test_audit_of_a_session_with_n_over_the_cap_exits_3(secret, tmp_path, capsys):
    out = tmp_path / "shares"
    main(share_args(secret, out))
    session = out / "session.qvse"
    body = bytearray(session.read_bytes()[:-4])
    body[6:8] = (20000).to_bytes(2, "little")  # n
    session.write_bytes(bytes(body) + zlib.crc32(body).to_bytes(4, "little"))
    rc = main(["audit", "--session", str(session), "--subset", "1"])
    assert rc == 3
    assert "n 20000 outside 2..16" in capsys.readouterr().err


def test_emit_prepare_to_stdout(capsys):
    rc = main(["emit-circuit", "--kind", "prepare", "--n", "2", "--b", "0"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "qreg q[2];" in stdout
    assert "h q[0];" in stdout
    assert "cx q[0],q[1];" in stdout


def test_emit_prepare_simulate_with_shots(capsys):
    rc = main(
        [
            "emit-circuit",
            "--kind",
            "prepare",
            "--n",
            "6",
            "--b",
            "0",
            "--simulate",
            "--shots",
            "8192",
            "--seed",
            "8192",
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    rows = [line for line in stdout.splitlines() if line[:1] in "01"]
    assert len(rows) == 32
    for row in rows:
        _, exact, empirical = row.split()
        assert abs(float(exact) - 1 / 32) < 1e-6
        assert abs(float(empirical) - 1 / 32) < 0.006


def test_emit_xor_decode(capsys):
    rc = main(
        ["emit-circuit", "--kind", "xor", "--n", "6", "--input", "101000", "--simulate"]
    )
    assert rc == 0
    assert "result state |0>" in capsys.readouterr().out

    rc = main(
        ["emit-circuit", "--kind", "xor", "--n", "6", "--input", "101010", "--simulate"]
    )
    assert rc == 0
    assert "result state |1>" in capsys.readouterr().out


def test_emit_writes_file(tmp_path):
    target = tmp_path / "circuit.qasm"
    rc = main(
        ["emit-circuit", "--kind", "xor", "--n", "3", "--out", str(target)]
    )
    assert rc == 0
    text = target.read_text()
    assert text.count("cx") == 2


def test_compare_reports_table(secret, capsys):
    rc = main(["compare", str(secret), "--n", "3", "--seed", "5"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "pixel expansion" in stdout
    assert "expansion factor 4" in stdout
    assert "quantum recovered equals original: yes" in stdout


def test_compare_writes_baseline_shares(secret, tmp_path):
    out = tmp_path / "cmp"
    rc = main(
        ["compare", str(secret), "--n", "2", "--seed", "5", "--out-dir", str(out)]
    )
    assert rc == 0
    share = read_pbm((out / "baseline_share_1.pbm").read_bytes())
    assert (share.width, share.height) == (8, 1)  # m=2 expansion of 4x1


def test_compare_out_dir_computes_the_baseline_once(secret, tmp_path, monkeypatch):
    calls = []
    share = baseline.classical_share_image

    def counted(*args, **kwargs):
        calls.append(args)
        return share(*args, **kwargs)

    monkeypatch.setattr(baseline, "classical_share_image", counted)
    out = tmp_path / "cmp"
    rc = main(
        ["compare", str(secret), "--n", "3", "--seed", "5", "--out-dir", str(out)]
    )
    assert rc == 0
    assert len(calls) == 1
    shares = [read_pbm((out / f"baseline_share_{j}.pbm").read_bytes()) for j in (1, 2, 3)]
    assert shares == share(DEMO_IMAGE, 3, 5)


def test_compare_rejects_an_oversized_baseline_before_allocating(secret, capsys):
    # n=40 would expand each pixel into 40 x 2^39 subpixels (8 TiB here).
    rc = main(["compare", str(secret), "--n", "40", "--seed", "5"])
    assert rc == 2
    assert "40 x 2^39 x 4 subpixels" in capsys.readouterr().err


def test_demo_replays_worked_example(capsys):
    rc = main(["demo"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "(|000>+|011>+|101>+|110>)/2" in stdout
    assert "(|001>+|010>+|100>+|111>)/2" in stdout
    assert "recovered image matches original: yes" in stdout
    # colors in Table 1's order
    lines = [line for line in stdout.splitlines() if line[:1].isdigit()]
    assert [line.split()[-1] for line in lines] == ["white", "black", "black", "white"]


def test_demo_is_deterministic(capsys):
    main(["demo"])
    first = capsys.readouterr().out
    main(["demo"])
    assert capsys.readouterr().out == first


def test_unknown_flag_exits_2(secret):
    with pytest.raises(SystemExit) as exc:
        main(["share", str(secret), "--n", "3", "--bogus"])
    assert exc.value.code == 2


def test_missing_seed_is_generated_and_printed(secret, tmp_path, capsys):
    rc = main(
        ["share", str(secret), "--n", "2", "--out-dir", str(tmp_path / "s")]
    )
    assert rc == 0
    assert "seed:" in capsys.readouterr().out


def test_generated_seed_replays(secret, tmp_path, capsys):
    out1 = tmp_path / "x"
    main(["share", str(secret), "--n", "2", "--out-dir", str(out1)])
    stdout = capsys.readouterr().out
    seed = stdout.split("seed: ", 1)[1].split()[0]
    out2 = tmp_path / "y"
    main(share_args(secret, out2, n=2, seed=int(seed)))
    assert (out1 / "share_1.qvs").read_bytes() == (out2 / "share_1.qvs").read_bytes()
