import dataclasses
import os
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from qvss import baseline, protocol
from qvss.cli import main
from qvss.image_io import BinaryImage, from_pixel_list, read_pbm, write_pbm
from qvss.statevector import StateVector

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


def _with_version(path: Path, version: int) -> None:
    """Rewrite a share or session file's version byte and CRC32.  The body
    keeps its current layout: the reader rejects an old version first."""
    body = bytearray(path.read_bytes()[:-4])
    body[4] = version
    path.write_bytes(bytes(body) + zlib.crc32(body).to_bytes(4, "little"))


@pytest.mark.parametrize("old", ["session.qvse", "share_2.qvs"])
def test_recover_of_a_version_2_file_exits_3(secret, tmp_path, capsys, old):
    out = tmp_path / "shares"
    main(share_args(secret, out, backend="sampled"))
    what = "session" if old.endswith(".qvse") else "share"
    for version in (2, 3, 4, 5, 6):
        _with_version(out / old, version)
        rc = main(
            [
                "recover",
                *[str(out / f"share_{j}.qvs") for j in (1, 2, 3)],
                "--session",
                str(out / "session.qvse"),
                "--out",
                str(tmp_path / "rec.pbm"),
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert f"unsupported {what} file format version {version}" in err
        assert not (tmp_path / "rec.pbm").exists()


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


def test_audit_of_a_uniform_superposition_reads_unreliable_recovery(tmp_path, capsys):
    image = from_pixel_list(8, 8, [0, 1] * 32)
    session, _ = protocol.share_image(image, 3, protocol.BACKEND_STATEVECTOR, 5)
    uniform = StateVector(3, np.full(8, 8**-0.5, dtype=np.complex128))
    registers = protocol.RegisterTable(3, [uniform], np.zeros(64, dtype=np.uint8))
    path = tmp_path / "session.qvse"
    path.write_bytes(
        protocol.serialize_session(dataclasses.replace(session, registers=registers))
    )
    assert main(["audit", "--session", str(path), "--subset", "1,2,3"]) == 0
    assert "verdict: unreliable-recovery" in capsys.readouterr().out


@pytest.mark.parametrize("backend", ["statevector", "sampled"])
def test_audit_prints_its_statistics_before_the_pattern_table(secret, tmp_path, capsys, backend):
    out = tmp_path / "shares"
    main(share_args(secret, out, backend=backend))
    capsys.readouterr()
    assert main(["audit", "--session", str(out / "session.qvse"), "--subset", "1,3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    table = lines.index("pattern  probability")
    assert [line.split(":")[0] for line in lines[1:table]] == [
        "max deviation from uniform",
        *(["chi-square p-value"] if backend == "sampled" else []),
        "verdict",
    ]
    assert [line.split()[0] for line in lines[table + 1 :]] == ["00", "01", "10", "11"]


def test_recover_and_audit_of_an_index_value_past_the_table_exit_3(secret, tmp_path, capsys):
    out = tmp_path / "shares"
    main(share_args(secret, out))
    session = protocol.deserialize_session((out / "session.qvse").read_bytes())
    # Three entries, two index planes of one byte; pixel 4 is set to 3.
    biased = np.zeros(8, dtype=np.complex128)
    biased[0b010] = 1.0
    table = session.registers
    registers = protocol.RegisterTable(3, [*table.states, StateVector(3, biased)], table.index)
    body = bytearray(protocol.serialize_session(dataclasses.replace(session, registers=registers)))
    body = body[:-4]
    body[-2] |= 0b0001_0000
    body[-1] |= 0b0001_0000
    path = out / "session.qvse"
    path.write_bytes(bytes(body) + zlib.crc32(body).to_bytes(4, "little"))
    recovered = tmp_path / "rec.pbm"
    shares = [str(out / f"share_{j}.qvs") for j in (1, 2, 3)]
    assert main(["recover", *shares, "--session", str(path), "--out", str(recovered)]) == 3
    assert not recovered.exists()
    assert main(["audit", "--session", str(path), "--subset", "1"]) == 3
    message = "register index value 3 out of range for a table of 3 entries in session file"
    assert capsys.readouterr().err.count(message) == 2


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


def test_recover_and_audit_of_a_session_with_a_participant_slot_exit_3(
    secret, tmp_path, capsys
):
    out = tmp_path / "shares"
    main(share_args(secret, out))
    session = out / "session.qvse"
    body = bytearray(session.read_bytes()[:-4])
    body[8] = 7  # the participant slot, zero in every session file
    session.write_bytes(bytes(body) + zlib.crc32(body).to_bytes(4, "little"))
    recovered = tmp_path / "rec.pbm"
    shares = [str(out / f"share_{j}.qvs") for j in (1, 2, 3)]
    assert main(["recover", *shares, "--session", str(session), "--out", str(recovered)]) == 3
    assert not recovered.exists()
    assert main(["audit", "--session", str(session), "--subset", "1"]) == 3
    err = capsys.readouterr().err
    assert err.count("session file participant slot is 7, expected 0") == 2


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


@pytest.mark.parametrize("shots", ["0", "-1"])
def test_emit_prepare_refuses_a_shot_count_below_one(shots, capsys):
    rc = main(["emit-circuit", "--kind", "prepare", "--n", "3", "--simulate",
               "--shots", shots, "--seed", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: shot count must be an int >= 1, got {shots}\n"
    assert "probability" not in captured.out


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


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "xor", "--n", "1000000000"],
        ["--kind", "prepare", "--n", "1000000000"],
        ["--kind", "xor", "--n", "65"],
        ["--kind", "xor", "--n", "1"],
    ],
)
def test_emit_rejects_n_outside_the_share_cap_before_building(argv, capsys):
    tracemalloc.start()
    try:
        rc = main(["emit-circuit", *argv])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert peak < 1 << 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--n must be in 2..64 (the largest share), got {argv[-1]}" in captured.err


@pytest.mark.parametrize("kind", ["prepare", "xor"])
def test_emit_at_the_share_cap(kind, capsys):
    rc = main(["emit-circuit", "--kind", kind, "--n", "64"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "qreg q[64];" in stdout
    assert stdout.count("cx q[") == 63


def test_emit_xor_simulation_over_the_register_cap_exits_2_before_allocating(capsys):
    tracemalloc.start()
    try:
        rc = main(["emit-circuit", "--kind", "xor", "--n", "40", "--simulate"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert peak < 1 << 20
    assert "register size must be in 1..16, got 40" in capsys.readouterr().err


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
    assert shares == list(share(DEMO_IMAGE, 3, 5))


def test_compare_out_dir_stacks_the_shares_once(secret, tmp_path, monkeypatch):
    calls = []
    recover = baseline.classical_recover_image

    def counted(shares):
        calls.append(shares)
        return recover(shares)

    monkeypatch.setattr(baseline, "classical_recover_image", counted)
    out = tmp_path / "cmp"
    rc = main(
        ["compare", str(secret), "--n", "3", "--seed", "5", "--out-dir", str(out)]
    )
    assert rc == 0
    assert len(calls) == 1
    stacked = read_pbm((out / "baseline_stacked.pbm").read_bytes())
    assert stacked == recover(baseline.classical_share_image(DEMO_IMAGE, 3, 5))[0]


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


# The whole output of ``qvss demo``.  The "collapsed" column is the sampled
# share of the image at seed 7, since measuring the parity states is that draw.
DEMO_STDOUT = """\
(3, 3) demo: 4-pixel image [white, black, black, white], seed 7
pixel  state                         collapsed  result  color
1      (|000>+|011>+|101>+|110>)/2   |110>     |0>     white
2      (|001>+|010>+|100>+|111>)/2   |010>     |1>     black
3      (|001>+|010>+|100>+|111>)/2   |100>     |1>     black
4      (|000>+|011>+|101>+|110>)/2   |011>     |0>     white
recovered image matches original: yes
"""


def test_demo_output_is_pinned(capsys):
    assert main(["demo"]) == 0
    assert capsys.readouterr().out == DEMO_STDOUT


def test_demo_collapsed_column_is_the_sampled_share_of_its_image(capsys):
    main(["demo", "--seed", "12"])
    rows = [line.split() for line in capsys.readouterr().out.splitlines() if line[:1].isdigit()]
    session, _ = protocol.share_image(DEMO_IMAGE, 3, protocol.BACKEND_SAMPLED, 12)
    bits = np.unpackbits(session.registers, axis=1, count=4).T
    assert [row[2] for row in rows] == [f"|{''.join(map(str, b))}>" for b in bits.tolist()]


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


def _python_dash_m_qvss(*argv):
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, "-m", "qvss", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_python_dash_m_qvss_demo_runs_in_a_fresh_interpreter():
    result = _python_dash_m_qvss("demo")
    assert result.returncode == 0, result.stderr
    assert "recovered image matches original: yes" in result.stdout.splitlines()


def test_recover_of_an_altered_sampled_share_exits_3_in_a_fresh_interpreter(tmp_path):
    image = BinaryImage(64, 64, np.random.default_rng(9).integers(0, 2, size=64 * 64))
    secret = tmp_path / "secret.pbm"
    secret.write_bytes(write_pbm(image, "p4"))
    out = tmp_path / "shares"
    assert main(share_args(secret, out, n=5, seed=9, backend="sampled")) == 0
    # Flip 8 bits of participant 3's plane and recompute the CRC32.
    share = out / "share_3.qvs"
    body = bytearray(share.read_bytes()[:-4])
    body[34 + 100] ^= 0xFF
    share.write_bytes(bytes(body) + zlib.crc32(body).to_bytes(4, "little"))
    recovered = tmp_path / "rec.pbm"
    result = _python_dash_m_qvss(
        "recover",
        *[str(out / f"share_{j}.qvs") for j in range(1, 6)],
        "--session",
        str(out / "session.qvse"),
        "--out",
        str(recovered),
    )
    assert result.returncode == 3
    assert result.stderr.splitlines() == [
        "error: share 3 differs from the session's plane 3 at payload byte 100"
    ]
    assert not recovered.exists()


# --- each flag where it is read, and nowhere else ---


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--kind", "xor", "--simulate", "--shots", "0"],
         "--shots applies only with --kind prepare --simulate"),
        (["--kind", "xor", "--simulate", "--shots", "5"],
         "--shots applies only with --kind prepare --simulate"),
        (["--kind", "prepare", "--shots", "0"],
         "--shots applies only with --kind prepare --simulate"),
        (["--kind", "prepare", "--simulate", "--shots", "0"],
         "shot count must be an int >= 1, got 0"),
        (["--kind", "prepare", "--simulate", "--seed", "1"], "--seed applies only with --shots"),
        (["--kind", "xor", "--seed", "1"], "--seed applies only with --shots"),
        (["--kind", "xor", "--input", "101"], "--input applies only with --kind xor --simulate"),
        (["--kind", "prepare", "--simulate", "--input", "101"],
         "--input applies only with --kind xor --simulate"),
        (["--kind", "xor", "--b", "1"], "--b applies only with --kind prepare"),
        (["--kind", "xor", "--simulate", "--b", "0"], "--b applies only with --kind prepare"),
        (["--kind", "xor", "--simulate", "--input", "10"], "input '10' is not 3 bits"),
    ],
)
def test_emit_refuses_a_flag_off_its_path_before_printing(argv, message, tmp_path, capsys):
    target = tmp_path / "circuit.qasm"
    rc = main(["emit-circuit", "--n", "3", *argv, "--out", str(target)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not target.exists()
    rc = main(["emit-circuit", "--n", "3", *argv])
    assert rc == 2
    assert capsys.readouterr().out == ""


def _recover_args(out, recovered, *extra):
    return ["recover", *[str(out / f"share_{j}.qvs") for j in (1, 2, 3)],
            "--session", str(out / "session.qvse"), "--out", str(recovered), *extra]


def test_recover_of_a_sampled_session_draws_and_takes_no_seed(
    secret, tmp_path, capsys, monkeypatch
):
    out = tmp_path / "shares"
    main(share_args(secret, out, backend="sampled"))
    capsys.readouterr()

    def no_entropy():
        raise AssertionError("a seed was drawn")

    monkeypatch.setattr("qvss.protocol.entropy_seed", no_entropy)
    recovered = tmp_path / "rec.pbm"
    assert main(_recover_args(out, recovered)) == 0
    assert "seed" not in capsys.readouterr().out
    assert read_pbm(recovered.read_bytes()) == DEMO_IMAGE

    refused = tmp_path / "refused.pbm"
    assert main(_recover_args(out, refused, "--seed", "1")) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --seed applies only to statevector sessions\n"
    assert captured.out == ""
    assert not refused.exists()


def test_recover_against_a_differing_reference_exits_1(secret, tmp_path, capsys):
    out = tmp_path / "shares"
    main(share_args(secret, out))
    other = tmp_path / "other.pbm"
    other.write_bytes(write_pbm(from_pixel_list(4, 1, [1, 1, 1, 0])))
    recovered = tmp_path / "rec.pbm"
    assert main(_recover_args(out, recovered, "--seed", "9", "--reference", str(other))) == 1
    assert "reference match: no" in capsys.readouterr().out.splitlines()
    assert read_pbm(recovered.read_bytes()) == DEMO_IMAGE


def test_compare_over_the_register_cap_takes_the_sampled_backend(tmp_path, capsys, monkeypatch):
    secret = tmp_path / "secret.pbm"
    secret.write_bytes(write_pbm(from_pixel_list(4, 2, [0, 1, 1, 0, 1, 0, 0, 1])))
    backends = []
    share_image = protocol.share_image

    def recording_share_image(image, n, backend, seed):
        backends.append(backend)
        return share_image(image, n, backend, seed)

    monkeypatch.setattr(protocol, "share_image", recording_share_image)
    assert main(["compare", str(secret), "--n", "17", "--seed", "3"]) == 0
    assert backends == [protocol.BACKEND_SAMPLED]
    assert "  quantum recovered equals original: yes" in capsys.readouterr().out.splitlines()


def test_audit_of_a_sampled_session_prints_its_p_value(secret, tmp_path, capsys):
    out = tmp_path / "shares"
    main(share_args(secret, out, backend="sampled"))
    capsys.readouterr()
    assert main(["audit", "--session", str(out / "session.qvse"), "--subset", "1,2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    p_lines = [line for line in lines if line.startswith("chi-square p-value: ")]
    assert len(p_lines) == 1
    assert 0.0 <= float(p_lines[0].split(": ")[1]) <= 1.0


def test_audit_of_ten_participants_leaves_out_its_pattern_table(secret, tmp_path, capsys):
    # 2^10 rows would follow the verdict; one line says how many were left out.
    out = tmp_path / "shares"
    main(share_args(secret, out, n=12, backend="sampled"))
    capsys.readouterr()
    subset = ",".join(map(str, range(1, 11)))
    assert main(["audit", "--session", str(out / "session.qvse"), "--subset", subset]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[1:4]] == [
        "max deviation from uniform",
        "chi-square p-value",
        "verdict",
    ]
    assert lines[4:] == [
        "pattern table of 1024 rows left out (printed for subsets of at most 8 participants)"
    ]


# --- files streamed through the container writer, and errors that name them ---


def _random_pbm(path: Path, width: int, height: int, seed: int) -> BinaryImage:
    image = BinaryImage(width, height, np.random.default_rng(seed).integers(0, 2, width * height))
    path.write_bytes(write_pbm(image, "p4"))
    return image


@pytest.mark.parametrize(
    "backend,n", [("sampled", 3), ("sampled", 64), ("statevector", 3), ("statevector", 16)]
)
def test_share_streams_the_bytes_that_serialize_returns(tmp_path, capsys, backend, n):
    # 37x23 pixels: each plane ends in pad bits.
    image = _random_pbm(tmp_path / "secret.pbm", 37, 23, seed=n)
    out = tmp_path / "shares"
    assert main(share_args(tmp_path / "secret.pbm", out, n=n, seed=11, backend=backend)) == 0
    session, shares = protocol.share_image(image, n, backend, 11)
    expected = {f"share_{s.participant}.qvs": protocol.serialize_share(s) for s in shares}
    expected["session.qvse"] = protocol.serialize_session(session)
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    for name, data in expected.items():
        assert (out / name).read_bytes() == data
    # Each "wrote" line gives the size of the file it names.
    wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
    assert wrote == [f"wrote {out / name} ({len(expected[name])} bytes)" for name in expected]


def test_sharing_2048_squared_at_n64_never_holds_a_file(tmp_path, capsys):
    # 32 MiB of planes; a session held whole to be written would add 32 MiB.
    secret = tmp_path / "secret.pbm"
    _random_pbm(secret, 2048, 2048, seed=4)
    argv = share_args(secret, tmp_path / "shares", n=64, seed=5, backend="sampled")
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "shares" / "session.qvse").stat().st_size == 34 + 8 + 64 * (1 << 19) + 4
    assert peak < 52 << 20


def test_a_write_that_fails_after_the_header_leaves_no_session(
    secret, tmp_path, capsys, monkeypatch
):
    write_session = protocol.write_session
    pieces = []

    def disk_full_after_the_header(session, sink):
        def write(piece):
            if pieces:
                raise OSError(28, "No space left on device")
            pieces.append(sink(piece))

        return write_session(session, write)

    monkeypatch.setattr(protocol, "write_session", disk_full_after_the_header)
    out = tmp_path / "shares"
    assert main(share_args(secret, out, backend="sampled")) == 3
    assert pieces == [34]  # the header reached the temp file
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert sorted(p.name for p in out.iterdir()) == ["share_1.qvs", "share_2.qvs", "share_3.qvs"]


def test_a_corrupt_share_is_named_on_the_one_error_line(secret, tmp_path, capsys):
    out = tmp_path / "shares"
    main(share_args(secret, out))
    share = out / "share_2.qvs"
    data = bytearray(share.read_bytes())
    data[20] ^= 0xFF
    share.write_bytes(bytes(data))
    capsys.readouterr()
    recovered = tmp_path / "rec.pbm"
    assert main(_recover_args(out, recovered, "--seed", "9")) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: {share}: share file checksum mismatch"
    ]
    assert not recovered.exists()


def test_a_format_error_names_the_session_secret_or_reference(secret, tmp_path, capsys):
    out = tmp_path / "shares"
    main(share_args(secret, out))
    bad = tmp_path / "bad.pbm"
    bad.write_bytes(b"P2 1 1\n0\n")
    session = out / "session.qvse"
    audit = ["audit", "--session", str(session), "--subset", "1"]
    recover = _recover_args(out, tmp_path / "rec.pbm", "--seed", "9", "--reference", str(bad))
    capsys.readouterr()
    assert main(recover) == 3
    assert main(["share", str(bad), "--n", "3", "--out-dir", str(tmp_path / "other")]) == 3
    session.write_bytes(session.read_bytes()[:-1])
    assert main(audit) == 3
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[:2] for line in lines] == [
        ["error", str(bad)], ["error", str(bad)], ["error", str(session)]
    ]
    assert lines[2] == f"error: {session}: session file checksum mismatch"
    assert not (tmp_path / "other").exists()
