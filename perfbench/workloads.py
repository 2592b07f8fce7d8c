"""The benchmark's workloads: inputs made from a seed, and one pass of each.

A pass is what the single client of a closed loop does once; each call
starts when the previous one returns.  The program receives only the
generated PBM bytes and ``--seed`` values.  A pass times the steps a user
waits for and checks every output; an operation that raises, exits
non-zero or fails a check counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qvss import baseline, cli, image_io, protocol

#: Longest a CLI subprocess may take before it is killed and counted failed.
CHILD_TIMEOUT_S = 120


class PassAborted(Exception):
    """An operation raised; the rest of the pass needs its output."""


class Pass:
    """Timings, sizes and check results of one workload pass.

    If ``reference`` is given, it is called before each operation, outside
    every timer.  It returns the host's slowdown, kept in ``slowdowns``;
    the time it took is summed in ``reference_s``.
    """

    def __init__(self, reference=None):
        self.reference = reference
        self.slowdowns: list[float] = []
        self.reference_s = 0.0
        self.times: dict = defaultdict(float)
        self.sizes: dict = {}
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.checks_failed = 0
        self.errors: list[str] = []
        self._last_failed = True

    @contextlib.contextmanager
    def timer(self, metric):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.times[metric] += time.perf_counter() - start

    @contextlib.contextmanager
    def op(self, metric):
        """One operation a user waits for, timed into ``metric``."""
        if self.reference is not None:
            start = time.perf_counter()
            self.slowdowns.append(self.reference())
            self.reference_s += time.perf_counter() - start
        self.attempted += 1
        self._last_failed = False
        try:
            with self.timer(metric):
                yield
        except Exception as exc:
            self._fail(f"{metric} raised {type(exc).__name__}: {exc}")
            raise PassAborted(metric) from exc

    def check(self, ok, what):
        """Check the last operation's output; a failure fails it once."""
        self.checks += 1
        if not ok:
            self.checks_failed += 1
            self._fail(f"check failed: {what}")

    def _fail(self, message):
        self.errors.append(message)
        if not self._last_failed:
            self._last_failed = True
            self.failed += 1


def random_image(rng, width, height):
    """A random 50%-black bit grid, one row per image row."""
    return rng.integers(0, 2, size=(height, width), dtype=np.uint8)


def encode_pbm(grid, variant) -> bytes:
    """Canonical PBM bytes, made without the program under test."""
    height, width = grid.shape
    header = f"{'P1' if variant == 'p1' else 'P4'}\n{width} {height}\n".encode()
    if variant == "p4":
        return header + np.packbits(grid, axis=1).tobytes()
    body = np.full((height, 2 * width), ord(" "), dtype=np.uint8)
    body[:, 0::2] = grid + ord("0")
    body[:, -1] = ord("\n")
    return header + body.tobytes()


def _seed64(rng) -> int:
    return int(rng.integers(0, 1 << 63))


def _subset(rng, n, k) -> tuple[int, ...]:
    return tuple(sorted(int(j) + 1 for j in rng.choice(n, size=k, replace=False)))


@dataclass(frozen=True)
class ProtocolWorkload:
    """Dealer, participants, auditor and classical baseline, in-process.

    Uses the statevector backend, whose subset marginals are exact, so
    every audit of a proper subset must say "no-information".
    """

    n: int
    side: int
    tiny_side: int
    audit_sizes: tuple[int, ...]
    compare_n: int

    backend = protocol.BACKEND_STATEVECTOR
    variant = "p4"
    in_children = False
    #: Which reference task scales this workload's timings (see measure.py).
    reference = "loop"

    def describe(self, tiny):
        side = self.tiny_side if tiny else self.side
        sizes = ",".join(map(str, self.audit_sizes))
        return (
            f"{self.backend} backend, n={self.n}, {side}x{side} {self.variant.upper()} "
            f"secret, audits of k={sizes}, classical baseline at n={self.compare_n}, "
            "in-process"
        )

    def prepare(self, seed, tiny, workdir):
        rng = np.random.default_rng(seed)
        side = self.tiny_side if tiny else self.side
        grid = random_image(rng, side, side)
        return {
            "pixels": grid.reshape(-1),
            "secret": encode_pbm(grid, self.variant),
            "share_seed": _seed64(rng),
            "recover_seed": _seed64(rng),
            "subsets": [_subset(rng, self.n, k) for k in self.audit_sizes],
        }

    def run_pass(self, p, inputs, in_process):
        pixels = inputs["pixels"]
        with p.op("share_s"):
            with p.timer("pbm_read_s"):
                image = image_io.read_pbm(inputs["secret"])
            session, shares = protocol.share_image(
                image, self.n, self.backend, inputs["share_seed"]
            )
            share_blobs = [protocol.serialize_share(share) for share in shares]
            session_blob = protocol.serialize_session(session)
        p.check(np.array_equal(image.pixels, pixels), "read_pbm returns the secret")
        del session, shares

        with p.op("recover_s"):
            session = protocol.deserialize_session(session_blob)
            shares = [protocol.deserialize_share(blob) for blob in share_blobs]
            recovered = protocol.recover_image(shares, session, inputs["recover_seed"])
            with p.timer("pbm_write_s"):
                output = image_io.write_pbm(recovered, self.variant)
        p.check(np.array_equal(recovered.pixels, pixels), "recovered image equals the secret")
        p.check(output == inputs["secret"], "write_pbm round-trips the secret's bytes")
        del session, shares, recovered

        with p.op("audit_s"):
            session = protocol.deserialize_session(session_blob)
            reports = [protocol.audit_subset(session, s) for s in inputs["subsets"]]
        del session
        for report in reports:
            p.check(
                report.verdict == "no-information",
                f"statevector audit of {report.subset} says no-information",
            )

        with p.op("compare_s"):
            expanded = baseline.classical_share_image(image, self.compare_n, inputs["share_seed"])
            stacked = baseline.classical_recover_image(expanded)
            decoded = baseline.decode_stacked(stacked, self.compare_n)
        p.check(np.array_equal(decoded.pixels, pixels), "baseline decodes the secret")

        written = sum(map(len, share_blobs)) + len(session_blob) + len(output)
        p.sizes["share_bytes_per_px"] = len(share_blobs[0]) / pixels.size
        p.sizes["session_bytes_per_px"] = len(session_blob) / pixels.size
        p.sizes["bytes_written_per_px"] = written / pixels.size


@dataclass(frozen=True)
class CliWorkload:
    """The CLI's share, recover, audit and compare commands in sequence.

    Untraced, each command is a fresh ``python -m qvss`` subprocess, so
    start-up and imports are paid as a user pays them.  Traced, the same
    argument lists go to ``qvss.cli.main`` in-process so spans can be
    recorded.
    """

    n: int = 3
    side: int = 64
    tiny_side: int = 8
    subset: str = "1,2"

    #: Untraced, the work runs in child processes, so their peak RSS counts.
    in_children = True
    reference = "startup"

    def describe(self, tiny):
        side = self.tiny_side if tiny else self.side
        return (
            f"`python -m qvss` share (statevector, n={self.n}) of a {side}x{side} "
            f"P1 secret, then recover --reference, audit --subset {self.subset}, "
            f"compare --n {self.n}; each a subprocess (in-process when traced)"
        )

    def prepare(self, seed, tiny, workdir):
        rng = np.random.default_rng(seed)
        side = self.tiny_side if tiny else self.side
        grid = random_image(rng, side, side)
        secret = workdir / "secret.pbm"
        secret.write_bytes(encode_pbm(grid, "p1"))
        return {
            "dir": workdir,
            "secret": secret,
            "pixels": side * side,
            "share_seed": str(_seed64(rng)),
            "recover_seed": str(_seed64(rng)),
            "env": child_env(),
        }

    def run_pass(self, p, inputs, in_process):
        d, secret = inputs["dir"], inputs["secret"]
        shares = [str(d / f"share_{j}.qvs") for j in range(1, self.n + 1)]
        session, recovered = d / "session.qvse", d / "recovered.pbm"

        def command(metric, argv):
            with p.op(metric):
                code, out = _run_cli(argv, in_process, inputs["env"])
            p.check(code == 0, f"`qvss {argv[0]}` exits 0 (got {code})")
            if code != 0:
                raise PassAborted(metric)
            return out

        command("share_s", [
            "share", str(secret), "--n", str(self.n),
            "--seed", inputs["share_seed"], "--out-dir", str(d),
        ])
        out = command("recover_s", [
            "recover", *shares, "--session", str(session), "--out", str(recovered),
            "--reference", str(secret), "--seed", inputs["recover_seed"],
        ])
        p.check("reference match: yes" in out, "recover prints `reference match: yes`")
        p.check(recovered.read_bytes() == secret.read_bytes(), "recovered file equals the secret")
        out = command("audit_s", ["audit", "--session", str(session), "--subset", self.subset])
        p.check("verdict: no-information" in out, "statevector audit says no-information")
        out = command("compare_s", [
            "compare", str(secret), "--n", str(self.n), "--seed", inputs["share_seed"],
        ])
        p.check(
            "baseline stacked decode matches original: yes" in out
            and "quantum recovered equals original: yes" in out,
            "compare reports both schemes recover the secret",
        )

        px = inputs["pixels"]
        share_bytes = sum(os.path.getsize(path) for path in shares)
        p.sizes["share_bytes_per_px"] = os.path.getsize(shares[0]) / px
        p.sizes["session_bytes_per_px"] = session.stat().st_size / px
        p.sizes["bytes_written_per_px"] = (
            share_bytes + session.stat().st_size + recovered.stat().st_size
        ) / px


def child_env():
    """Environment for a child interpreter that imports this checkout's qvss."""
    env = dict(os.environ)
    src = str(Path(protocol.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_cli(argv, in_process, env):
    if in_process:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()
    proc = subprocess.run(
        [sys.executable, "-m", "qvss", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


WORKLOADS = {
    "statevector-deep": ProtocolWorkload(
        n=8,
        side=128,
        tiny_side=8,
        audit_sizes=(1, 4, 7),
        compare_n=8,
    ),
    "cli-roundtrip": CliWorkload(),
}
