"""Command-line front end.

Subcommands: ``info`` (entropies and information rates), ``kid``
(Koashi-Imoto block report), ``curve`` (trade-off frontier as JSON or CSV),
``capacity`` (generalized-capacity report), and ``verify`` (property
suites).  All randomness flows from ``--seed``; repeated runs with one
config produce byte-identical output.  Exit codes: 0 success, 1 failed
verification, 2 invalid input (including one too large for memory), 3
numerical failure.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io as qio
from .capacity import generalized_capacity
from .channels import apply_channel
from .converse import FEASIBILITY_SLACK, ConverseOptions, extend_source, gadget_grid
from .errors import NumericalFailureError, ValidationError, _positive_int
from .information import (CQEnsemble, coherent_information, data_processing_gap,
                          generalized_information, holevo_information)
from .ki import ki_decompose
from .linalg import binary_entropy
from .sampling import _ginibre, random_channel, random_pure, random_state, seed_rng
from .spaces import TensorSpace
from .states import (DensityMatrix, PureState, entropy, fidelity,
                     partial_trace, tensor, trace_distance)
from .tradeoff import OptimizerOptions, compute_curve, default_t_grid
from .typicality import (TypicalSpec, sample_typical_fraction, typical_count,
                         typical_dimension_bound, typical_mass)


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        qio.save_text(args.output, text)
    else:
        sys.stdout.write(text)


def _parse_labels(text: str | None):
    if text is None:
        return None
    labels = tuple(part.strip() for part in text.split(",") if part.strip())
    if not labels:
        raise ValidationError(f"no labels in {text!r}")
    return labels


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad number list {text!r}: {exc}") from exc


def _optimizer_options(args) -> OptimizerOptions:
    return OptimizerOptions(restarts=args.restarts, max_iters=args.iters,
                            seed=args.seed)


def cmd_info(args) -> int:
    if (args.state is None) == (args.ensemble is None):
        raise ValidationError("info needs exactly one of --state or --ensemble")
    if args.target is not None and (args.ensemble is not None or args.channel is None):
        raise ValidationError("--target requires --state and --channel")
    if args.ensemble is not None:
        if args.channel is None:
            raise ValidationError("--ensemble requires --channel")
        ensemble = qio.ensemble_from_json(qio.load_json(args.ensemble))
        channel = qio.resolve_channel(args.channel)
        rates = generalized_information(ensemble, channel)
        payload = {"i_g": rates.i_g, "r_c": rates.r_c, "r_q": rates.r_q,
                   "holevo": holevo_information(ensemble, channel)}
    else:
        state = qio.state_from_json(qio.load_json(args.state))
        payload = {"entropy": entropy(state),
                   "subsystem_entropies": {
                       label: entropy(partial_trace(state, (label,)))
                       for label in state.space.labels}}
        if args.channel is not None:
            channel = qio.resolve_channel(args.channel)
            marginal = state if args.target is None else partial_trace(state, args.target)
            payload["coherent_information"] = coherent_information(marginal, channel)
    _emit(args, qio.dumps_canonical(payload))
    return 0


def cmd_kid(args) -> int:
    state = qio.state_from_json(qio.load_json(args.state))
    kid = ki_decompose(state, system=_parse_labels(args.system), seed=args.seed)
    _emit(args, qio.dumps_canonical(qio.kid_to_json(kid)))
    return 0


def cmd_curve(args) -> int:
    channel = qio.resolve_channel(args.channel)
    curve = compute_curve(channel, l=args.level,
                          t_grid=default_t_grid(args.points),
                          opts=_optimizer_options(args))
    if args.format == "csv":
        _emit(args, qio.curve_to_csv(curve))
    else:
        _emit(args, qio.dumps_canonical(qio.curve_to_json(curve)))
    return 0


def cmd_capacity(args) -> int:
    state = qio.state_from_json(qio.load_json(args.state))
    channel = qio.resolve_channel(args.channel)
    report = generalized_capacity(state, channel, l=args.level,
                                  opts=_optimizer_options(args),
                                  system=_parse_labels(args.system),
                                  seed=args.seed)
    _emit(args, qio.dumps_canonical(qio.report_to_json(report)))
    return 0


def _random_ensemble(seed: int, tag: str, dim_a: int, dim_r: int,
                     entries: int) -> CQEnsemble:
    rng = seed_rng(seed, "verify", tag)
    probs = rng.dirichlet(np.ones(entries))
    raw = _ginibre(rng, entries, dim_a * dim_r)
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return CQEnsemble(dim_a=dim_a, dim_r=dim_r, probs=probs, vectors=raw)


def _check(name: str, worst: float, tol: float, detail: str = "") -> dict:
    entry = {"name": name, "worst": float(worst), "tolerance": tol,
             "passed": bool(worst <= tol)}
    if detail:
        entry["detail"] = detail
    return entry


def _verify_core(seed: int, instances: int) -> list[dict]:
    instances = _positive_int(instances, f"instance count must be positive, got {instances!r}")
    checks = []

    worst = 0.0
    for i in range(instances):
        d = 2 + (i % 3)
        rho = random_state(d, seed_rng(seed, "fvg-a", i))
        sig = random_state(d, seed_rng(seed, "fvg-b", i))
        f = fidelity(rho, sig)
        t = trace_distance(rho, sig)
        worst = max(worst, (1.0 - f) - t, t - float(np.sqrt(max(0.0, 1.0 - f * f))))
    checks.append(_check("fuchs_van_de_graaf", worst, 1e-9))

    worst = 0.0
    for i in range(instances):
        d = 2 + (i % 3)
        rho = random_state(d, seed_rng(seed, "fannes-a", i))
        sig = random_state(d, seed_rng(seed, "fannes-b", i))
        t = trace_distance(rho, sig)
        bound = t * np.log2(d) + binary_entropy(t)
        worst = max(worst, abs(entropy(rho) - entropy(sig)) - bound)
    checks.append(_check("fannes_audenaert", worst, 1e-9))

    worst = 0.0
    for i in range(instances):
        ens = _random_ensemble(seed, f"dp-{i}", 2, 2, 3)
        first = random_channel(2, 2, 2, seed_rng(seed, "dp-first", i))
        post = random_channel(2, 2, 2, seed_rng(seed, "dp-post", i))
        worst = max(worst, -data_processing_gap(ens, first, post))
    checks.append(_check("data_processing", worst, 1e-9))

    worst = 0.0
    space_a = TensorSpace.single("A", 2)
    for i in range(instances):
        chan = random_channel(2, 2, 2, seed_rng(seed, "red-chan", i))
        triv_r = _random_ensemble(seed, f"red-r-{i}", 2, 1, 3)
        gi = generalized_information(triv_r, chan)
        # trivial reference: i_g collapses to the Holevo quantity, computed
        # here through the independent density-matrix code path
        listed = [(float(p), PureState(space_a, v).density())
                  for p, v in zip(triv_r.probs, triv_r.vectors)]
        worst = max(worst, abs(gi.i_g - holevo_information(listed, chan)))
        triv_x = _random_ensemble(seed, f"red-x-{i}", 2, 2, 1)
        gi = generalized_information(triv_x, chan)
        pure = PureState(TensorSpace.of(("A", 2), ("R", 2)), triv_x.vectors[0])
        out = apply_channel(chan, pure.density(), target="A")
        direct = entropy(partial_trace(out, "A")) - entropy(out)
        worst = max(worst, abs(gi.r_q - direct))
    checks.append(_check("reduction_identities", worst, 1e-10))

    worst = 0.0
    for i in range(instances):
        rng = seed_rng(seed, "almost-product", i)
        psi = random_pure([("A", 2)], rng)
        eps_mix = float(rng.uniform(0.0, 0.05))
        noise = random_state([("A", 2), ("B", 3)], rng)
        base = tensor(psi.density(), random_state([("B", 3)], rng))
        xi = DensityMatrix(noise.space,
                           (1 - eps_mix) * base.matrix + eps_mix * noise.matrix)
        eps = 1.0 - fidelity(partial_trace(xi, ("A",)), psi.density())
        prod = tensor(psi.density(), partial_trace(xi, ("B",)))
        worst = max(worst, (1.0 - 4.0 * eps) - fidelity(xi, prod))
    checks.append(_check("almost_product", worst, 1e-9))
    return checks


def _default_converse_source() -> DensityMatrix:
    space = TensorSpace.of(("C", 2), ("Q", 1), ("R", 2))
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 0.65
    m[3, 3] = 0.35
    return DensityMatrix(space, m)


def _verify_converse(args) -> list[dict]:
    source = (qio.state_from_json(qio.load_json(args.source))
              if args.source else _default_converse_source())
    src = extend_source(source)
    grid = _parse_floats(args.eps_grid)
    opts = ConverseOptions(restarts=args.restarts, seed=args.seed)
    checks = []
    for kind in ("Y", "W"):
        ests = gadget_grid(src, grid, kind, opts)
        values = [e.value for e in ests]
        mono = max((values[i] - values[i + 1] for i in range(len(values) - 1)),
                   default=0.0)
        feas = max((1.0 - e.epsilon - FEASIBILITY_SLACK) - e.achieved_fidelity for e in ests)
        checks.append(_check(f"grid_monotone_{kind}", mono, 0.0,
                             detail=",".join("%.6f" % v for v in values)))
        checks.append(_check(f"witness_feasible_{kind}", feas, 0.0))
        if grid and min(grid) == 0.0:
            checks.append(_check(f"zero_eps_anchor_{kind}",
                                 values[0], 1e-3))
    return checks


def _verify_typicality(args) -> list[dict]:
    checks = []
    rng = seed_rng(args.seed, "verify-typicality")
    worst = -np.inf
    for _ in range(30):
        k = int(rng.integers(2, 4))
        p = rng.dirichlet(np.ones(k) * 2)
        n = int(rng.integers(1, 11))
        delta = float(rng.uniform(0.02, 0.5))
        spec = TypicalSpec(p, n, delta)
        count = typical_count(spec)
        lhs = np.log2(count) if count else -np.inf
        worst = max(worst, lhs - typical_dimension_bound(spec))
    checks.append(_check("dimension_bound", worst, 1e-9))

    dist = _parse_floats(args.dist)
    masses = [typical_mass(TypicalSpec(dist, n, 0.3)) for n in (4, 8, 12)]
    trend = max(masses[0] - masses[1], masses[1] - masses[2])
    checks.append(_check("mass_trend", trend, 0.0,
                         detail=",".join("%.6f" % v for v in masses)))

    frac = sample_typical_fraction(dist, args.n, args.delta, args.samples,
                                   seed=args.seed)
    checks.append(_check("empirical_fraction", 0.95 - frac, 0.0,
                         detail=f"fraction={frac:.4f}"))
    return checks


def cmd_verify(args) -> int:
    checks: list[dict] = []
    if args.suite in ("core", "all"):
        checks.extend(_verify_core(args.seed, args.instances))
    if args.suite in ("converse", "all"):
        checks.extend(_verify_converse(args))
    if args.suite in ("typicality", "all"):
        checks.extend(_verify_typicality(args))
    passed = all(c["passed"] for c in checks)
    _emit(args, qio.dumps_canonical({"suite": args.suite, "passed": passed,
                                     "checks": checks}))
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcap",
        description="Desk-scale numerics for quantum channel information quantities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="entropies and information rates")
    p.add_argument("--state", help="state JSON path")
    p.add_argument("--ensemble", help="ensemble JSON path")
    p.add_argument("--channel", help="channel name like 'dephasing(0.1)' or JSON path")
    p.add_argument("--target", help="subsystem label the channel acts on")
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("kid", help="Koashi-Imoto block structure of a state")
    p.add_argument("--state", required=True)
    p.add_argument("--system", help="comma-separated sender labels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=cmd_kid)

    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--channel", required=True)
    search.add_argument("--level", type=int, default=1)
    search.add_argument("--restarts", type=int, default=8)
    search.add_argument("--iters", type=int, default=60)
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--output")

    p = sub.add_parser("curve", parents=[search], help="classical/quantum trade-off frontier")
    p.add_argument("--points", type=int, default=21)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("capacity", parents=[search], help="generalized capacity for a source")
    p.add_argument("--state", required=True)
    p.add_argument("--system", help="comma-separated sender labels")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("suite", choices=("core", "converse", "typicality", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=50,
                   help="instance count for core property checks")
    p.add_argument("--source", help="block-form source JSON for converse checks")
    p.add_argument("--eps-grid", default="0,0.05,0.1,0.2",
                   help="comma-separated epsilon grid")
    p.add_argument("--restarts", type=int, default=2)
    p.add_argument("--dist", default="0.3,0.7",
                   help="comma-separated distribution for typicality checks")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        # an input too large to allocate is invalid input, like a size guardrail
        print(f"error: {args.command} input too large for available memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
