"""Command-line frontend: reproducible pipelines over network files.

Every command is a pure function of its inputs, flags, and seed; a JSON
manifest recording the command, parameters, seed, and output digests is
written next to each output file. Each ``cmd_*`` writes its outputs, hashing
the bytes as it writes them, and returns the digest of each; ``main`` then
writes the manifest, which is the parsed command line: the arguments that
name input files are its inputs and every other argument is a parameter.
``order-check`` writes a manifest only with ``--out``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import secrets
import sys
from dataclasses import replace
from typing import Sequence

import numpy as np

from . import __version__
from .exact import joint_pmf, joint_pmfs
from .network import (
    assign_types_by_degree,
    generate_ba,
    load_json,
    save_json,
    with_type_probabilities,
)
from .pmf import JointPmf, _decoding, _write_bytes, _write_table
from .scoring import parse_rules, score_distribution
from .simulate import STREAM, SampleMatrix, simulate_runs
from .stats import _depth_correlations, _depth_moments, check_orthant_monotone, marginal_moments

PROG = "hoprisk"

# the arguments that name input files; every argument but these and the
# ones below is a parameter of the manifest
_INPUTS = ("network", "input", "pmf", "rules")
_NOT_PARAMETERS = ("command", "func", "out")


def _write_manifest(args: argparse.Namespace, outputs: dict[str, str]) -> None:
    given = vars(args)
    doc = {
        "command": args.command,
        "inputs": {name: value for name, value in given.items() if name in _INPUTS},
        "parameters": {"seed": None} | {name: value for name, value in given.items()
                                        if name not in _INPUTS + _NOT_PARAMETERS},
        "outputs": outputs,
        "tool_version": __version__,
    }
    _write_bytes(args.out + ".manifest.json",
                 [(json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()])


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = secrets.randbits(63)
        print(f"seed: {seed}", file=sys.stderr)
    elif seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    return seed


def _parse_prob_list(raw: str, label: str) -> list[float]:
    try:
        vals = [float(v) for v in raw.split(",")]
    except ValueError:
        raise ValueError(f"{label} must be a comma-separated list of probabilities")
    return vals


def cmd_exact(args: argparse.Namespace) -> dict[str, str]:
    pmf = joint_pmf(load_json(args.network), args.depth)
    return {args.out: pmf.to_csv(args.out)}


def cmd_simulate(args: argparse.Namespace) -> dict[str, str]:
    net = load_json(args.network)
    args.seed = _resolve_seed(args.seed)
    samples = simulate_runs(net, args.depth, args.runs, args.seed)
    return {args.out: samples.to_csv(args.out)}


def _fmt(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.17g}"


def cmd_stats(args: argparse.Namespace) -> dict[str, str]:
    # the header tells the two kinds apart; the input is opened once
    with open(args.input, "r", encoding="utf-8") as fh, _decoding(args.input):
        header = fh.readline()
        fh.seek(0)
        if header.startswith("run,depth,"):
            source = SampleMatrix.from_csv(fh)
        elif header.startswith("x_1,"):
            source = JointPmf.from_csv(fh)
        else:
            raise ValueError(f"{args.input}: neither a sample CSV nor a PMF CSV")
    moments_path = args.out + ".moments.csv"
    moments = ["depth", "type", "mean", "sd"]
    outputs = {}
    if isinstance(source, SampleMatrix):
        mean, sd = _depth_moments(source.counts)
        moment_rows = [(l, t, mu, s)
                       for l, (mus, sds) in enumerate(zip(mean.tolist(), sd.tolist()), 1)
                       for t, (mu, s) in enumerate(zip(mus, sds), 1)]
        outputs[moments_path] = _write_table(moments_path, moments,
                                             ["%d", "%d", "%.17g", "%.17g"], moment_rows)
        by_pair = _depth_correlations(source.counts)
        corr_rows = [(l, i + 1, j + 1, _fmt(d.pearson), _fmt(d.kendall), _fmt(d.spearman))
                     for l, at_depth in enumerate(zip(*by_pair.values()), 1)
                     for (i, j), d in zip(by_pair, at_depth)]
        corr_path = args.out + ".correlations.csv"
        outputs[corr_path] = _write_table(
            corr_path, ["depth", "pair", "pearson", "kendall", "spearman"],
            ["%d", "%d-%d", "%s", "%s", "%s"], corr_rows)
    else:
        per_type = marginal_moments(source).per_type
        # PMF moments have no depth: that column is left empty
        outputs[moments_path] = _write_table(
            moments_path, moments, ["", "%d", "%.17g", "%.17g"],
            [(t, tm.mean, tm.sd) for t, tm in enumerate(per_type, 1)])
        if source.num_types == 2:
            contour_path = args.out + ".contour.csv"
            outputs[contour_path] = _write_table(contour_path, ["x1", "x2", "prob"],
                                                 ["%d", "%d", "%.17g"], source._table())
    return outputs


def cmd_score(args: argparse.Namespace) -> dict[str, str]:
    pmf = JointPmf.from_csv(args.pmf)
    try:  # a file that is not UTF-8 fails to decode with a ValueError too
        with open(args.rules, "r", encoding="utf-8") as fh:
            rules = parse_rules(fh.read())
    except ValueError as exc:
        raise ValueError(f"{args.rules}: {exc}") from exc
    dist = score_distribution(rules, pmf)
    return {args.out: _write_table(args.out, ["score", "prob"], ["%d", "%.17g"],
                                   list(dist.items()))}


def cmd_generate(args: argparse.Namespace) -> dict[str, str]:
    args.seed = _resolve_seed(args.seed)
    net = generate_ba(args.nodes, args.attach, args.init, args.seed, args.seed_topology)
    if args.top_k is not None:
        net = assign_types_by_degree(net, args.top_k)
    if args.p is not None or args.q is not None:
        p_by_type = _parse_prob_list(args.p, "--p") if args.p else [0.0] * net.num_types
        q_by_type = _parse_prob_list(args.q, "--q") if args.q else [0.0] * net.num_types
        net = with_type_probabilities(net, p_by_type, q_by_type)
    return {args.out: save_json(net, args.out)}


def cmd_order_check(args: argparse.Namespace) -> dict[str, str] | None:
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
    if args.depths and len(args.depths) < 2:
        raise ValueError("--depths needs at least two values")
    if scales and args.depth is None:
        raise ValueError("--p-scale/--q-scale require --depth")
    if not (args.depths or scales):
        raise ValueError("provide --depths or --p-scale/--q-scale")
    if min(args.depths or [args.depth]) < 0:
        raise ValueError("depth must be >= 0")
    net = load_json(args.network)
    if args.depths:
        pmfs = joint_pmfs(net, args.depths)
        reports = [check_orthant_monotone(pmfs[a], pmfs[b], args.tol, f"depth {a} <= depth {b}")
                   for a, b in zip(args.depths, args.depths[1:])]
    else:
        claims = [f"{name} scaled by {scale}" for name, scale in scales.items()]
        p_scale, q_scale = scales.get("p", 1.0), scales.get("q", 1.0)
        scaled = replace(net, p=np.minimum(1.0, net.p * p_scale),
                         arc_q=np.minimum(1.0, net.arc_q * q_scale))
        lo = joint_pmf(net, args.depth)
        hi = joint_pmf(scaled, args.depth)
        claim = f"base <= {', '.join(claims)} at depth {args.depth}"
        reports = [check_orthant_monotone(lo, hi, args.tol, claim)]
    text = "\n".join(report.summary() for report in reports) + "\n"
    sys.stdout.write(text)
    return {args.out: _write_bytes(args.out, [text.encode()])} if args.out else None


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
    p_sim.set_defaults(func=cmd_simulate, stream=STREAM)

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
        outputs = args.func(args)
        if outputs is not None:
            _write_manifest(args, outputs)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
