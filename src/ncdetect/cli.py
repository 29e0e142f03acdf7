"""Experiment runner.

Subcommands:

* sweep     -- overhead curves over an attack-probability grid, as CSV
* figure3   -- generation-scheme curves for a list of generation sizes
* figure45  -- all three schemes, full range plus a zoomed low-p grid
* fig2      -- the six-node relay scenario with sub-generation checks
* missrate  -- blind-forgery miss rate of the generation hash
* validate  -- run the acceptance criteria, nonzero exit on failure
* accounting-- hash/signature/key size bookkeeping at given parameters

CSV columns are fixed: scheme,p,n,G,h_p,h_g,analytic_ratio,
empirical_ratio,stderr,trials,seed.  Rows are sorted by (scheme, p, G)
and floats use 6 significant digits, so output is byte-stable for a
given configuration and seed.  Exit codes: 0 success, 1 validation
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import acceptance, analytic
from .algebra import binary_field, check_group_bits
from .analytic import SchemeParams
from .detect import HashParams
from .rlnc import fit_layout
from .sim import compare_grid, estimate_hash_miss_rate, simulate_relay

CSV_HEADER = "scheme,p,n,G,h_p,h_g,analytic_ratio,empirical_ratio,stderr,trials,seed"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _parse_p_values(text: str) -> list[float]:
    """Grid syntax: 'lo:hi:step' or a non-empty comma-separated list."""
    if ":" in text:
        parts = [float(v) for v in text.split(":")]
        if len(parts) != 3 or parts[2] <= 0 or parts[1] < parts[0]:
            raise ValueError("grid must be lo:hi:step with step > 0, hi >= lo")
        lo, hi, step = parts
        count = int(round((hi - lo) / step)) + 1
        vals = [lo + i * step for i in range(count)]
        return [round(v, 12) for v in vals if v <= hi + 1e-12]
    return _nonempty([float(v) for v in text.split(",") if v.strip()], "--p")


def _parse_g_list(text: str) -> list[int]:
    return _nonempty([int(v) for v in text.split(",") if v.strip()], "--G-list")


def _nonempty(values: list, option: str) -> list:
    if not values:
        raise ValueError(f"{option} lists no values")
    return values


def _parse_edge_probs(text: str | None) -> dict:
    out = {}
    if not text:
        return out
    for part in text.split(","):
        if not part.strip():
            continue
        name, _, val = part.partition("=")
        out[name.strip()] = float(val)
    return out


def _rows_for(points, seed: int) -> list[str]:
    rows = []
    for gp in points:
        pr = gp.point.params
        if gp.report is None:
            emp = stderr = ""
            trials = "0"
        else:
            emp = _fmt(gp.report.overhead_ratio)
            stderr = _fmt(gp.report.stderr)
            trials = str(gp.report.trials)
        rows.append((
            gp.point.scheme, pr.p, pr.G,
            f"{gp.point.scheme},{_fmt(pr.p)},{_fmt(pr.n)},{pr.G},"
            f"{_fmt(pr.h_p)},{_fmt(pr.h_g)},{_fmt(gp.point.ratio)},"
            f"{emp},{stderr},{trials},{seed}"
        ))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return [r[3] for r in rows]


def _write_csv(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for line in lines:
            fh.write(line + "\n")


def _add_common(sub) -> None:
    sub.add_argument("--n", type=float, default=analytic.DEFAULT_N,
                     help="packet size in bits")
    sub.add_argument("--G", type=int, default=analytic.DEFAULT_G,
                     help="generation size")
    sub.add_argument("--hp-frac", type=float,
                     default=analytic.DEFAULT_HP_FRACTION,
                     help="per-packet hash bits as a fraction of n")
    sub.add_argument("--hg-frac", type=float,
                     default=analytic.DEFAULT_HG_FRACTION,
                     help="per-generation hash bits as a fraction of n*G")
    sub.add_argument("--trials", type=int, default=0,
                     help="simulated packets (or generations) per grid point; "
                          "0 writes analytic-only rows")
    sub.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    sub.add_argument("--out", default="sweep.csv", help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ncdetect",
        description="Overhead analysis of pollution countermeasures for "
                    "random linear network coding",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="overhead curves on a p grid")
    sw.add_argument("--schemes", default="error-correction,packet,generation",
                    help="comma-separated subset of "
                         "error-correction,packet,generation")
    sw.add_argument("--p", default="0:1:0.01",
                    help="attack probabilities: lo:hi:step or comma list")
    _add_common(sw)

    f3 = sub.add_parser("figure3", help="generation-scheme curves per G")
    f3.add_argument("--G-list", dest="g_list", default="1,5,10,20,50")
    f3.add_argument("--p", default="0:1:0.01")
    _add_common(f3)

    f45 = sub.add_parser("figure45",
                         help="all three schemes, full and zoomed-in p grids")
    _add_common(f45)

    fg2 = sub.add_parser("fig2", help="six-node relay with sub-generation checks")
    fg2.add_argument("--G", type=int, default=8)
    fg2.add_argument("--p", type=float, default=0.2,
                     help="corruption probability on the A-B edge")
    fg2.add_argument("--edge-p", default=None,
                     help="per-edge overrides, e.g. 'A-B=0.2,C-D=0.1'")
    fg2.add_argument("--k", type=int, default=16,
                     help="payload symbols covered per hash symbol")
    fg2.add_argument("--logq", type=int, default=8, choices=range(2, 17))
    fg2.add_argument("--trials", type=int, default=200)
    fg2.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)

    mr = sub.add_parser("missrate",
                        help="blind-forgery miss rate of the generation hash")
    mr.add_argument("--G", type=int, default=8)
    mr.add_argument("--k", type=int, default=50,
                    help="payload symbols covered per hash symbol "
                         "(also the payload length used)")
    mr.add_argument("--s", type=int, default=5,
                    help="packets forged blind per generation")
    mr.add_argument("--logq", type=int, default=7, choices=range(2, 17))
    mr.add_argument("--trials", type=int, default=2000)
    mr.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)

    va = sub.add_parser("validate", help="run the acceptance criteria")
    va.add_argument("--criterion", action="append", default=None,
                    choices=sorted(acceptance.CRITERIA),
                    help="run only the named criterion (repeatable)")
    va.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)

    ac = sub.add_parser("accounting", help="hash/signature size bookkeeping")
    ac.add_argument("--n", type=float, default=analytic.DEFAULT_N)
    ac.add_argument("--G", type=int, default=analytic.DEFAULT_G)
    ac.add_argument("--hp-frac", type=float, default=analytic.DEFAULT_HP_FRACTION)
    ac.add_argument("--hg-frac", type=float, default=analytic.DEFAULT_HG_FRACTION)
    ac.add_argument("--k", type=int, default=50,
                    help="payload symbols covered per hash symbol")
    ac.add_argument("--logq", type=int, default=8, choices=range(2, 17),
                    help="coding symbol size in bits")
    ac.add_argument("--bits-p", type=int, default=160,
                    help="signature group order size in bits")
    ac.add_argument("--bits-q", type=int, default=1024,
                    help="signature group modulus size in bits")
    return ap


def _params_for(args, G: int | None = None) -> SchemeParams:
    return SchemeParams.defaults(
        p=0.0, n=args.n, G=args.G if G is None else G,
        hp_fraction=args.hp_frac, hg_fraction=args.hg_frac,
    )


def _cmd_sweep(args) -> int:
    schemes = _nonempty([s.strip() for s in args.schemes.split(",") if s.strip()],
                        "--schemes")
    for s in schemes:
        if s not in analytic.SCHEMES:
            raise ValueError(f"unknown scheme {s!r}")
    p_values = _parse_p_values(args.p)
    points = compare_grid(p_values, schemes, _params_for(args),
                          trials=args.trials, seed=args.seed)
    _write_csv(args.out, _rows_for(points, args.seed))
    print(f"wrote {len(p_values) * len(schemes)} rows to {args.out}")
    return 0


def _cmd_figure3(args) -> int:
    p_values = _parse_p_values(args.p)
    lines = []
    for g in _parse_g_list(args.g_list):
        points = compare_grid(p_values, ["generation"], _params_for(args, G=g),
                              trials=args.trials, seed=args.seed)
        lines.extend(_rows_for(points, args.seed))
    _write_csv(args.out, lines)
    print(f"wrote {len(lines)} rows to {args.out}")
    return 0


def _cmd_figure45(args) -> int:
    full = [round(0.01 * i, 12) for i in range(101)]
    zoom = [round(0.001 * i, 12) for i in range(101)]
    p_values = sorted(set(full) | set(zoom))
    points = compare_grid(p_values, list(analytic.SCHEMES), _params_for(args),
                          trials=args.trials, seed=args.seed)
    _write_csv(args.out, _rows_for(points, args.seed))
    print(f"wrote {len(points)} rows to {args.out}")
    return 0


def _cmd_fig2(args) -> int:
    probs = {"A-B": args.p}
    probs.update(_parse_edge_probs(args.edge_p))
    report = simulate_relay(G=args.G, p_per_edge=probs, seed=args.seed,
                            trials=args.trials, field=binary_field(args.logq),
                            hash_k=args.k)
    summary = report.summary()
    print(f"relay scenario: G={args.G}, trials={args.trials}, edges={probs}")
    for node in ("B", "C", "D", "E", "F"):
        hit = report.trials_with_corruption(f"A-{node}") if node in "BC" else []
        line = f"  node {node}: flag rate {summary[f'flag_rate_{node}']:.3f}"
        if hit:
            line += (f" ({report.flag_rate(node, hit):.3f} over the "
                     f"{len(hit)} trials with A-{node} corruption)")
        print(line)
    print(f"  sink decodable in {summary['f_decodable_rate']:.3f} of trials, "
          f"clean in {summary['f_clean_rate']:.3f}")
    return 0


def _cmd_missrate(args) -> int:
    report = estimate_hash_miss_rate(
        binary_field(args.logq), G=args.G, k_data=args.k, hash_k=args.k,
        s=args.s, trials=args.trials, seed=args.seed,
    )
    print(f"blind forgery, s={args.s}, k={args.k}, log q={args.logq}, "
          f"G={args.G}: {report.misses} misses in {report.trials} polluted "
          f"generations (rate {report.miss_rate:.5f})")
    print(f"miss bound ((k+1)/q)^s = {report.bound:.5f}; "
          f"detection rate {report.detection_rate:.5f}")
    print(f"{report.redraws} singular mixings redrawn")
    return 0


def _cmd_validate(args) -> int:
    results = acceptance.run_all(args.criterion, seed=args.seed)
    for res in results:
        print(res.line())
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 1 if failed else 0


def _cmd_accounting(args) -> int:
    if args.G < 1:
        raise ValueError("G must be >= 1")
    check_group_bits(args.bits_p, args.bits_q)
    params = _params_for(args)
    f = binary_field(args.logq)
    k_data, hash_symbols = fit_layout(int(args.n), args.G, args.logq,
                                      hash_k=args.k)
    hp = HashParams(k=args.k, field=f)
    frac = hp.overhead_fraction(k_data)
    key_bits = (args.G + k_data) * args.bits_q
    file_bits = args.G * k_data * args.bits_p
    print("per-packet detection:")
    print(f"  h_p = {_fmt(params.h_p)} bits per packet "
          f"({100 * params.h_p / params.n:.1f}% of n={_fmt(params.n)})")
    print(f"  goodput fraction 1 - h_p/n = "
          f"{analytic.goodput_fraction_packet(params.n, params.h_p):.4f}")
    print("per-generation detection:")
    print(f"  h_g = {_fmt(params.h_g)} bits per generation "
          f"({100 * params.h_g / (params.n * params.G):.1f}% of n*G)")
    print(f"  goodput fraction 1 - h_g/(nG) = "
          f"{analytic.goodput_fraction_generation(params.n, params.G, params.h_g):.4f}")
    print(f"  polynomial hash: k={args.k}, log q={args.logq} -> "
          f"{hash_symbols} hash symbol(s) per packet, "
          f"{100 * frac:.2f}% symbol overhead "
          f"(ideal 1/(k+1) = {100 / (args.k + 1):.2f}%)")
    print("subspace signature (key cost reported separately, never added "
          "to the per-packet overhead):")
    print(f"  public key: (G + k_data) * log2(Q) = "
          f"({args.G} + {k_data}) * {args.bits_q} = {key_bits} bits")
    print(f"  key size / file size = {key_bits / file_bits:.4f} "
          f"(file = G*k_data symbols of {args.bits_p} bits)")
    return 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "figure3": _cmd_figure3,
    "figure45": _cmd_figure45,
    "fig2": _cmd_fig2,
    "missrate": _cmd_missrate,
    "validate": _cmd_validate,
    "accounting": _cmd_accounting,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
