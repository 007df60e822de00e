"""Command-line frontend: reproducible pipelines over network files.

Every command is a pure function of its inputs, flags, and seed; a JSON
manifest recording the command, parameters, seed, and output digests is
written next to each output file. Each ``cmd_*`` writes its outputs and
returns the inputs, parameters and outputs of its manifest, which ``main``
writes.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import secrets
import sys
from typing import Sequence

from . import __version__
from .exact import joint_pmf
from .network import (
    assign_types_by_degree,
    build_network,
    generate_ba,
    load_json,
    save_json,
    with_type_probabilities,
)
from .pmf import JointPmf, _write_table
from .scoring import parse_rules, score_distribution
from .simulate import STREAM, SampleMatrix, simulate_runs
from .stats import _depth_moments, check_orthant_monotone, marginal_moments, pairwise_correlations

PROG = "hoprisk"

# a command's manifest: its input files, its parameters and its output files
Manifest = tuple[dict[str, str], dict, list[str]]


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def _write_manifest(
    anchor: str,
    command: str,
    inputs: dict[str, str],
    parameters: dict,
    outputs: Sequence[str],
) -> None:
    doc = {
        "command": command,
        "inputs": inputs,
        "parameters": parameters,
        "outputs": {path: _sha256(path) for path in outputs},
        "tool_version": __version__,
    }
    with open(anchor + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    drawn = secrets.randbits(63)
    print(f"seed: {drawn}", file=sys.stderr)
    return drawn


def _parse_prob_list(raw: str, label: str) -> list[float]:
    try:
        vals = [float(v) for v in raw.split(",")]
    except ValueError:
        raise ValueError(f"{label} must be a comma-separated list of probabilities")
    return vals


def cmd_exact(args: argparse.Namespace) -> Manifest:
    net = load_json(args.network)
    pmf = joint_pmf(net, args.depth)
    pmf.to_csv(args.out)
    return {"network": args.network}, {"depth": args.depth, "seed": None}, [args.out]


def cmd_simulate(args: argparse.Namespace) -> Manifest:
    net = load_json(args.network)
    seed = _resolve_seed(args.seed)
    samples = simulate_runs(net, args.depth, args.runs, seed)
    samples.to_csv(args.out)
    parameters = {"depth": args.depth, "runs": args.runs, "seed": seed, "stream": STREAM}
    return {"network": args.network}, parameters, [args.out]


def _fmt(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.17g}"


def cmd_stats(args: argparse.Namespace) -> Manifest:
    with open(args.input, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    moments_path = args.out + ".moments.csv"
    moments = ["depth", "type", "mean", "sd"]
    outputs = [moments_path]
    if header.startswith("run,depth,"):
        samples = SampleMatrix.from_csv(args.input)
        mean, sd = _depth_moments(samples.counts)
        moment_rows = [(l, t, mu, s)
                       for l, (mus, sds) in enumerate(zip(mean.tolist(), sd.tolist()), 1)
                       for t, (mu, s) in enumerate(zip(mus, sds), 1)]
        _write_table(moments_path, moments, ["%d", "%d", "%.17g", "%.17g"], moment_rows)
        m = samples.num_types
        corr_rows = []
        for l in range(1, samples.depth + 1):
            if samples.runs < 2:
                corr_rows += [(l, i + 1, j + 1) + ("undefined",) * 3
                              for i in range(m) for j in range(i + 1, m)]
            else:
                corr_rows += [(l, i + 1, j + 1, _fmt(d.pearson), _fmt(d.kendall), _fmt(d.spearman))
                              for (i, j), d in pairwise_correlations(samples, l).items()]
        corr_path = args.out + ".correlations.csv"
        _write_table(corr_path, ["depth", "pair", "pearson", "kendall", "spearman"],
                     ["%d", "%d-%d", "%s", "%s", "%s"], corr_rows)
        outputs.append(corr_path)
    elif header.startswith("x_1,"):
        pmf = JointPmf.from_csv(args.input)
        per_type = marginal_moments(pmf).per_type
        # PMF moments have no depth: that column is left empty
        _write_table(moments_path, moments, ["", "%d", "%.17g", "%.17g"],
                     [(t, tm.mean, tm.sd) for t, tm in enumerate(per_type, 1)])
        if pmf.num_types == 2:
            contour_path = args.out + ".contour.csv"
            _write_table(contour_path, ["x1", "x2", "prob"], ["%d", "%d", "%.17g"], pmf._table())
            outputs.append(contour_path)
    else:
        raise ValueError(f"{args.input}: neither a sample CSV nor a PMF CSV")
    return {"input": args.input}, {"seed": None}, outputs


def cmd_score(args: argparse.Namespace) -> Manifest:
    pmf = JointPmf.from_csv(args.pmf)
    with open(args.rules, "r", encoding="utf-8") as fh:
        rules = parse_rules(fh.read())
    dist = score_distribution(rules, pmf)
    _write_table(args.out, ["score", "prob"], ["%d", "%.17g"], list(dist.items()))
    return {"pmf": args.pmf, "rules": args.rules}, {"seed": None}, [args.out]


def cmd_generate(args: argparse.Namespace) -> Manifest:
    seed = _resolve_seed(args.seed)
    net = generate_ba(args.nodes, args.attach, args.init, seed, args.seed_topology)
    if args.top_k is not None:
        net = assign_types_by_degree(net, args.top_k)
    if args.p is not None or args.q is not None:
        p_by_type = _parse_prob_list(args.p, "--p") if args.p else [0.0] * net.num_types
        q_by_type = _parse_prob_list(args.q, "--q") if args.q else [0.0] * net.num_types
        net = with_type_probabilities(net, p_by_type, q_by_type)
    save_json(net, args.out)
    parameters = {
        "model": "ba",
        "nodes": args.nodes,
        "attach": args.attach,
        "init": args.init,
        "seed_topology": args.seed_topology,
        "top_k": args.top_k,
        "p": args.p,
        "q": args.q,
        "seed": seed,
    }
    return {}, parameters, [args.out]


def cmd_order_check(args: argparse.Namespace) -> Manifest | None:
    scales = {k: v for k, v in (("p", args.p_scale), ("q", args.q_scale)) if v is not None}
    for name, scale in scales.items():
        if not (math.isfinite(scale) and scale >= 0.0):
            raise ValueError(f"--{name}-scale must be finite and >= 0, got {scale}")
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    if args.depths and scales:
        raise ValueError("use either --depths or --p-scale/--q-scale, not both")
    if args.depths and args.depth is not None:
        raise ValueError("-L/--depth is for --p-scale/--q-scale; --depths gives the depths")
    net = load_json(args.network)
    reports = []
    if args.depths:
        if len(args.depths) < 2:
            raise ValueError("--depths needs at least two values")
        pmfs = {d: joint_pmf(net, d) for d in sorted(set(args.depths))}
        for lo, hi in zip(args.depths, args.depths[1:]):
            claim = f"depth {lo} <= depth {hi}"
            reports.append(check_orthant_monotone(pmfs[lo], pmfs[hi], args.tol, claim))
    elif scales:
        if args.depth is None:
            raise ValueError("--p-scale/--q-scale require --depth")
        claims = [f"{name} scaled by {scale}" for name, scale in scales.items()]
        p_scale, q_scale = scales.get("p", 1.0), scales.get("q", 1.0)
        scaled = build_network(
            [(v, t, min(1.0, pi * p_scale)) for v, t, pi in zip(net.node_ids, net.types, net.p)],
            net.edges,
            q={pair: min(1.0, qij * q_scale) for pair, qij in net.q.items()},
        )
        lo = joint_pmf(net, args.depth)
        hi = joint_pmf(scaled, args.depth)
        claim = f"base <= {', '.join(claims)} at depth {args.depth}"
        reports.append(check_orthant_monotone(lo, hi, args.tol, claim))
    else:
        raise ValueError("provide --depths or --p-scale/--q-scale")
    text = "\n".join(report.summary() for report in reports) + "\n"
    sys.stdout.write(text)
    if not args.out:
        return None
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    parameters = {
        "depths": args.depths,
        "depth": args.depth,
        "p_scale": args.p_scale,
        "q_scale": args.q_scale,
        "tol": args.tol,
        "seed": None,
    }
    return {"network": args.network}, parameters, [args.out]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Joint compromise-count distributions under L-hop propagation",
    )
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="exact joint PMF of a network file")
    p_exact.add_argument("--network", required=True)
    p_exact.add_argument("-L", "--depth", type=int, required=True)
    p_exact.add_argument("--out", required=True)
    p_exact.set_defaults(func=cmd_exact)

    p_sim = sub.add_parser("simulate", help="Monte Carlo runs of the propagation")
    p_sim.add_argument("--network", required=True)
    p_sim.add_argument("-L", "--depth", type=int, required=True)
    p_sim.add_argument("-K", "--runs", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=None,
                       help="master seed; drawn from entropy (and echoed) if omitted")
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_stats = sub.add_parser("stats", help="moments/correlations of samples or a PMF")
    p_stats.add_argument("--in", dest="input", required=True,
                         help="sample CSV (run,depth,...) or PMF CSV (x_1,...)")
    p_stats.add_argument("--out", required=True, help="output path prefix")
    p_stats.set_defaults(func=cmd_stats)

    p_score = sub.add_parser("score", help="push a PMF through scoring rules")
    p_score.add_argument("--pmf", required=True)
    p_score.add_argument("--rules", required=True)
    p_score.add_argument("--out", required=True)
    p_score.set_defaults(func=cmd_score)

    p_gen = sub.add_parser("generate", help="generate a network file")
    gen_sub = p_gen.add_subparsers(dest="model", required=True)
    p_ba = gen_sub.add_parser("ba", help="preferential-attachment graph")
    p_ba.add_argument("--nodes", type=int, required=True)
    p_ba.add_argument("--attach", type=int, required=True)
    p_ba.add_argument("--init", type=int, required=True)
    p_ba.add_argument("--seed-topology", default="complete",
                      choices=["complete", "star", "path"])
    p_ba.add_argument("--top-k", type=int, default=None,
                      help="mark the top-k degree nodes as type I")
    p_ba.add_argument("--p", default=None,
                      help="comma-separated direct probabilities, one per type")
    p_ba.add_argument("--q", default=None,
                      help="comma-separated propagation probabilities, one per type")
    p_ba.add_argument("--seed", type=int, default=None)
    p_ba.add_argument("--out", required=True)
    p_ba.set_defaults(func=cmd_generate)

    p_order = sub.add_parser("order-check", help="orthant-dominance checks on exact PMFs")
    p_order.add_argument("--network", required=True)
    p_order.add_argument("--depths", type=int, nargs="+", default=None,
                         help="compare consecutive depths in the given order")
    p_order.add_argument("-L", "--depth", type=int, default=None,
                         help="depth for --p-scale/--q-scale comparisons")
    p_order.add_argument("--p-scale", type=float, default=None)
    p_order.add_argument("--q-scale", type=float, default=None)
    p_order.add_argument("--tol", type=float, default=1e-12)
    p_order.add_argument("--out", default=None)
    p_order.set_defaults(func=cmd_order_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        manifest = args.func(args)
        if manifest is not None:
            _write_manifest(args.out, args.command, *manifest)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
