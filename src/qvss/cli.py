"""Command-line entry point.

Commands: share, recover, audit, emit-circuit, compare, demo.  Common
flags: --n, --backend {statevector,sampled}, --seed, --out-dir, --subset
(comma list), --shots, --format {p1,p4}.

Every command is deterministic under a fixed --seed; omitting --seed draws
one from entropy and prints it for replay.  A flag is refused (exit 2)
where the command would not read it: ``recover --seed`` on a sampled
session, which was measured when it was shared, and each ``emit-circuit``
flag off its own ``--kind`` / ``--simulate`` path.  Output files are written to a
temporary name and renamed, so no partial files survive an error.

Exit codes: 0 success, 1 a failed ``recover --reference`` match or demo,
2 usage or bad arguments (sizes over a cap included), 3 format/integrity/I-O
errors, 4 incomplete share sets.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import baseline, protocol
from .circuit import emit_assembly, simulate_circuit
from .errors import (
    FormatError,
    IncompleteSharesError,
    IntegrityError,
    StateCorruptionError,
    int_in_range,
)
from .image_io import BinaryImage, from_pixel_list, read_pbm, write_pbm
from .parity import ParitySpec, build_parity_circuit, build_xor_circuit
from .statevector import (
    StateVector,
    basis_state,
    bits_to_index,
    index_to_bits,
    measure_shots,
    new_zero_state,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_INCOMPLETE = 4

_DEMO_SEED = 7

#: Largest audit subset whose 2^k-row pattern table is printed (256 rows).
_AUDIT_TABLE_MAX_K = 8


def _write_atomic(path: Path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    seed = protocol.entropy_seed()
    print(f"seed: {seed} (generated; pass --seed {seed} to replay)")
    return seed


def _parse_subset(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"subset must be a comma list of indices, got {text!r}")


def _parse_bits(text: str) -> tuple[int, ...]:
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"expected a string of 0/1 bits, got {text!r}")
    return tuple(int(c) for c in text)


def _format_bits(bits) -> str:
    return "".join(str(b) for b in bits)


def _format_state(state: StateVector) -> str:
    """Render an equal superposition as a ket sum, e.g. (|00>+|11>)/sqrt(2)."""
    nonzero = np.nonzero(np.abs(state.amplitudes) > 1e-12)[0]
    if len(nonzero) > 8:
        return f"{len(nonzero)} equal-amplitude basis states"
    terms = "+".join(
        f"|{_format_bits(index_to_bits(int(i), state.num_qubits))}>" for i in nonzero
    )
    root = math.sqrt(len(nonzero))
    denom = str(int(root)) if root == int(root) else f"sqrt({len(nonzero)})"
    return f"({terms})/{denom}" if len(nonzero) > 1 else terms


def _load_image(path: str) -> BinaryImage:
    return read_pbm(Path(path).read_bytes())


def cmd_share(args) -> int:
    image = _load_image(args.input)
    seed = _resolve_seed(args.seed)
    session, shares = protocol.share_image(image, args.n, args.backend, seed)
    out_dir = Path(args.out_dir)
    print(
        f"shared {image.pixel_count} pixels ({image.width}x{image.height}) "
        f"at n={args.n}, backend={args.backend}"
    )
    for share in shares:
        data = protocol.serialize_share(share)
        path = out_dir / f"share_{share.participant}.qvs"
        _write_atomic(path, data)
        print(f"wrote {path} ({len(data)} bytes)")
    data = protocol.serialize_session(session)
    path = out_dir / "session.qvse"
    _write_atomic(path, data)
    print(f"wrote {path} ({len(data)} bytes)")
    print("expansion factor: 1 (one share unit per pixel)")
    return EXIT_OK


def cmd_recover(args) -> int:
    session = protocol.deserialize_session(Path(args.session).read_bytes())
    shares = [
        protocol.deserialize_share(Path(path).read_bytes()) for path in args.shares
    ]
    # A sampled session was measured when it was shared: it takes no seed.
    seed = args.seed
    if session.backend == protocol.BACKEND_STATEVECTOR:
        seed = _resolve_seed(seed)
    elif seed is not None:
        raise ValueError("--seed applies only to statevector sessions")
    image = protocol.recover_image(shares, session, seed)
    _write_atomic(Path(args.out), write_pbm(image, args.format))
    print(f"recovered {image.pixel_count} pixels to {args.out}")
    if args.reference:
        reference = _load_image(args.reference)
        match = image == reference
        print(f"reference match: {'yes' if match else 'no'}")
        if not match:
            return 1
    return EXIT_OK


def cmd_audit(args) -> int:
    session = protocol.deserialize_session(Path(args.session).read_bytes())
    subset = _parse_subset(args.subset)
    report = protocol.audit_subset(session, subset)
    print(
        f"audit of subset {{{','.join(map(str, subset))}}}: n={session.n}, "
        f"backend={session.backend}, {session.pixel_count} pixels"
    )
    # The statistics come first: the table has 2^k rows.
    print(f"max deviation from uniform: {report.max_deviation:.3e}")
    if report.p_value is not None:
        print(f"chi-square p-value: {report.p_value:.6f}")
    print(f"verdict: {report.verdict}")
    width = len(subset)
    if width > _AUDIT_TABLE_MAX_K:
        print(
            f"pattern table of {len(report.distribution)} rows left out "
            f"(printed for subsets of at most {_AUDIT_TABLE_MAX_K} participants)"
        )
        return EXIT_OK
    print("pattern  probability")
    for index, prob in enumerate(report.distribution):
        print(f"{index:0{width}b}  {prob:.8f}")
    return EXIT_OK


def cmd_emit_circuit(args) -> int:
    cap = protocol.MAX_SAMPLED_QUBITS
    int_in_range(args.n, 2, cap, f"--n must be in 2..{cap} (the largest share), got {{!r}}")
    prepare = args.kind == "prepare"
    # Each optional flag is read on one path and refused on every other.
    for flag, accepted, where in (
        ("b", prepare, "--kind prepare"),
        ("shots", prepare and args.simulate, "--kind prepare --simulate"),
        ("input", args.simulate and not prepare, "--kind xor --simulate"),
        ("seed", args.shots is not None, "--shots"),
    ):
        if getattr(args, flag) is not None and not accepted:
            raise ValueError(f"--{flag} applies only with {where}")
    if args.shots is not None:
        int_in_range(args.shots, 1, math.inf, "shot count must be an int >= 1, got {!r}")
    if prepare:
        circuit = build_parity_circuit(ParitySpec(args.n, args.b or 0))
    else:
        circuit = build_xor_circuit(args.n)

    # The simulation runs before anything is printed, so that a refusal
    # leaves stdout empty; only a generated seed's line comes first.
    report = []
    if args.simulate and prepare:
        state = simulate_circuit(circuit, new_zero_state(args.n))
        probs = np.abs(state.amplitudes) ** 2
        rows = np.nonzero(probs > 1e-12)[0]
        if args.shots is None:
            report.append("state    probability")
            empirical = [""] * len(rows)
        else:
            rng = np.random.default_rng(_resolve_seed(args.seed))
            counts = measure_shots(state, args.shots, rng)
            report.append(f"state    probability  empirical({args.shots})")
            empirical = [f"     {counts[i] / args.shots:.6f}" for i in rows]
        for index, tail in zip(rows, empirical):
            bits = _format_bits(index_to_bits(int(index), args.n))
            report.append(f"{bits}  {probs[index]:.6f}{tail}")
    elif args.simulate:
        bits = _parse_bits(args.input) if args.input else (0,) * args.n
        if len(bits) != args.n:
            raise ValueError(f"input {args.input!r} is not {args.n} bits")
        state = simulate_circuit(circuit, basis_state(args.n, bits_to_index(bits)))
        outcome = index_to_bits(int(np.argmax(np.abs(state.amplitudes))), args.n)
        result = outcome[-1]
        color = "black" if result else "white"
        report.append(f"input |{_format_bits(bits)}>: result state |{result}> ({color})")

    text = emit_assembly(circuit)
    if args.out:
        _write_atomic(Path(args.out), text.encode("utf-8"))
        print(f"wrote {args.out} ({len(circuit.gates)} gates)")
    else:
        sys.stdout.write(text)
    for line in report:
        print(line)
    return EXIT_OK


def cmd_compare(args) -> int:
    image = _load_image(args.input)
    seed = _resolve_seed(args.seed)
    report = baseline.comparison_report(args.n, image, seed)
    print(f"comparison at n={args.n}:")
    print(f"{'property':<34}{'baseline':<12}quantum")
    for name, (base_val, quantum_val) in report.rows.items():
        print(f"{name:<34}{base_val:<12}{quantum_val}")
    print("evidence:")
    w, h = report.baseline_share_dims
    print(
        f"  baseline share dims: {w}x{h} "
        f"(expansion factor {report.baseline_expansion})"
    )
    print(
        "  baseline stacked decode matches original: "
        f"{'yes' if report.baseline_decode_matches else 'no'}"
    )
    print(
        "  baseline white blocks contain black subpixels: "
        f"{'yes (resolution loss)' if report.baseline_white_blocks_dirty else 'no'}"
    )
    print(
        f"  quantum share entries per pixel: "
        f"{report.quantum_share_entries_per_pixel} "
        f"(expansion factor {report.quantum_expansion})"
    )
    print(
        "  quantum recovered equals original: "
        f"{'yes' if report.quantum_recovered_equal else 'no'}"
    )
    if args.out_dir:
        out_dir = Path(args.out_dir)
        shares = report.baseline_shares
        for j, share in enumerate(shares, start=1):
            _write_atomic(out_dir / f"baseline_share_{j}.pbm", write_pbm(share, args.format))
        stacked = report.baseline_stacked
        _write_atomic(out_dir / "baseline_stacked.pbm", write_pbm(stacked[0], args.format))
        print(f"wrote baseline share/stacked images to {out_dir}")
    return EXIT_OK


def cmd_demo(args) -> int:
    image = from_pixel_list(4, 1, [0, 1, 1, 0])
    seed = args.seed if args.seed is not None else _DEMO_SEED
    print(f"(3, 3) demo: 4-pixel image [white, black, black, white], seed {seed}")
    session, shares = protocol.share_image(
        image, 3, protocol.BACKEND_STATEVECTOR, seed
    )
    table = session.registers
    # The outcomes recovery draws with the same seed: row l-1 is pixel l's.
    planes = protocol.measure(session, seed)
    outcomes = np.unpackbits(planes, axis=1, count=image.pixel_count).T
    recovered = protocol.recover_image(shares, session, seed)
    print(f"{'pixel':<7}{'state':<30}{'collapsed':<11}{'result':<8}color")
    for l, (state, outcome) in enumerate(zip(table, outcomes), start=1):
        bit = recovered.pixel(l)
        print(
            f"{l:<7}{_format_state(state):<30}|{_format_bits(outcome)}>     "
            f"|{bit}>     {'black' if bit else 'white'}"
        )
    match = recovered == image
    print(f"recovered image matches original: {'yes' if match else 'no'}")
    return EXIT_OK if match else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvss",
        description="(n, n) quantum visual secret sharing toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("share", help="encode an image into n shares plus a session")
    p.add_argument("input", help="secret image (PBM P1 or P4)")
    p.add_argument("--n", type=int, required=True, help="number of participants")
    p.add_argument(
        "--backend",
        choices=[protocol.BACKEND_STATEVECTOR, protocol.BACKEND_SAMPLED],
        default=protocol.BACKEND_STATEVECTOR,
    )
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_share)

    p = sub.add_parser("recover", help="recover the image from all n shares")
    p.add_argument("shares", nargs="+", help="share files (.qvs)")
    p.add_argument("--session", required=True, help="session file (.qvse)")
    p.add_argument("--out", required=True, help="output PBM path")
    p.add_argument("--reference", help="compare the result against this PBM")
    p.add_argument("--seed", type=int, help="measurement seed (statevector sessions only)")
    p.add_argument("--format", choices=["p1", "p4"], default="p1")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("audit", help="what a participant subset can see")
    p.add_argument("--session", required=True)
    p.add_argument("--subset", required=True, help="comma list, e.g. 1,2")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("emit-circuit", help="emit a circuit as assembly text")
    p.add_argument("--kind", choices=["prepare", "xor"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, choices=[0, 1], help="secret bit (prepare; default 0)")
    p.add_argument("--input", help="basis-state input bits (xor --simulate)")
    p.add_argument("--out", help="write assembly here instead of stdout")
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--shots", type=int, help="sample this many shots (prepare --simulate)")
    p.add_argument("--seed", type=int, help="seed for the shots (with --shots)")
    p.set_defaults(func=cmd_emit_circuit)

    p = sub.add_parser("compare", help="three-row comparison against the classical baseline")
    p.add_argument("input", help="secret image (PBM)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", help="also write baseline share images here")
    p.add_argument("--format", choices=["p1", "p4"], default="p1")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("demo", help="replay the 4-pixel (3, 3) worked example")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IncompleteSharesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except (FormatError, IntegrityError, StateCorruptionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
