"""Command-line front end.

Subcommands:

* ``generate`` -- build a synthetic instance file from a generator config.
* ``solve``    -- run one solver on an instance file and write the allocation.
* ``compare``  -- run online and offline on the same instance, print both
  summaries, the optimal/online ratio against its worst-case bound, and
  optionally export coverage metrics for both runs.
* ``verify``   -- run the verification suite (feasibility, charge
  certificate, maximality, deviation probing) and report pass/fail.

The instance decides the model: model 2 (overall quotas enforced) when some
category carries an overall quota, model 1 when none does. A category
without an overall quota is uncapped in either model.

Exit codes: 0 success; 2 usage error (argparse); 3 invalid input or
incompatible solver; 4 a verification certificate failed; 5 a search budget
was exceeded. Set ``RATIOND_LOG=debug`` (or info/warning/error) to change
log verbosity.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import random
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from . import analysis, data
from .model import Allocation, Instance, MalformedInstance, TieBreak, TieBreakOrder, check_allocation, overall_quotas, precedence, total_utility
from .offline import OracleBudgetExceeded, solve_exact_oracle, solve_offline_model1, solve_offline_tiebroken
from .online import run_online, run_online_with_trace

EXIT_OK = 0
EXIT_INVALID = 3
EXIT_CERTIFICATE = 4
EXIT_BUDGET = 5

log = logging.getLogger("rationd")


@dataclass(frozen=True)
class RunSummary:
    instance_digest: str
    solver: str
    utility: Fraction
    matched: int
    agents: int
    per_day: tuple[int, ...]
    seconds: float


def _digest(instance: Instance) -> str:
    canonical = json.dumps(data.instance_to_document(instance), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _decimal(value: Fraction) -> str:
    try:
        return f"{float(value):.6f}"
    except OverflowError:
        return "beyond float range"


def _exact(value: Fraction) -> str:
    """``value`` as numerator/denominator; past the interpreter's digit
    limit for turning an int into text, the approximate size of each part."""
    try:
        return str(value)
    except ValueError:
        digits = [int(part.bit_length() * math.log10(2)) + 1 for part in (value.numerator, value.denominator)]
        return "about {}-digit / {}-digit fraction, too long to print".format(*digits)


def _print_summary(summary: RunSummary, exact: bool) -> None:
    print(f"instance  : {summary.instance_digest}")
    print(f"solver    : {summary.solver}")
    print(f"matched   : {summary.matched} / {summary.agents}")
    utility = _decimal(summary.utility)
    if exact:
        utility += f" (exact {_exact(summary.utility)})"
    print(f"utility   : {utility}")
    print(f"per-day   : {' '.join(str(n) for n in summary.per_day)}")
    print(f"wall-clock: {summary.seconds:.3f} s")


def _summarize(instance: Instance, alloc: Allocation, solver: str, seconds: float) -> RunSummary:
    per_day = [0] * instance.num_days
    for _a, _c, day in alloc.matched():
        per_day[day - 1] += 1
    return RunSummary(
        instance_digest=_digest(instance),
        solver=solver,
        utility=total_utility(instance, alloc),
        matched=alloc.matched_count(),
        agents=len(instance.agents),
        per_day=tuple(per_day),
        seconds=seconds,
    )


def _parse_tie_break(text: str | None, instance: Instance) -> TieBreak:
    if text is None or text == "adversarial":
        return text
    tie = TieBreakOrder(tuple(part.strip() for part in text.split(",") if part.strip()))
    precedence(instance, tie)
    return tie


def cmd_generate(args: argparse.Namespace) -> int:
    config = data.read_generator_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    try:
        config.validate()
    except ValueError as exc:
        print(f"invalid generator config: {exc}", file=sys.stderr)
        return EXIT_INVALID
    instance = data.generate(config)
    data.write_instance(instance, args.out, provenance=data.config_to_document(config))
    print(f"wrote {args.out}: {len(instance.agents)} agents, {instance.num_days} days, {len(instance.categories)} categories")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    instance = data.read_instance(args.instance)
    model2 = bool(overall_quotas(instance))
    try:
        tie_break = _parse_tie_break(args.tie_break, instance)
    except ValueError as exc:
        print(f"bad tie-break: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if tie_break is not None and args.algorithm == "oracle":
        print("bad tie-break: oracle breaks no ties by precedence", file=sys.stderr)
        return EXIT_INVALID
    if model2 and args.algorithm == "offline":
        print("cannot solve: offline ignores the overall quotas this instance carries; use --algorithm oracle", file=sys.stderr)
        return EXIT_INVALID
    started = time.perf_counter()
    try:
        if args.algorithm == "online":
            alloc = run_online(instance, tie_break=tie_break)
        elif args.algorithm == "oracle":
            alloc = solve_exact_oracle(instance, budget=args.budget)
        elif tie_break is not None:
            alloc = solve_offline_tiebroken(instance, tie_break)
        else:
            alloc = solve_offline_model1(instance)
    except OracleBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    seconds = time.perf_counter() - started
    feasibility = check_allocation(instance, alloc)
    if not feasibility.ok:
        print("solver produced an infeasible allocation (bug)", file=sys.stderr)
        return EXIT_CERTIFICATE
    if args.out:
        data.write_allocation(alloc, args.out)
    solver = {"online": "online2" if model2 else "online1", "offline": "offline1", "oracle": "oracle2" if model2 else "oracle"}
    _print_summary(_summarize(instance, alloc, solver[args.algorithm], seconds), args.exact)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    instance = data.read_instance(args.instance)
    model2 = bool(overall_quotas(instance))
    try:
        tie_break = _parse_tie_break(args.tie_break, instance)
    except ValueError as exc:
        print(f"bad tie-break: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.metrics_dir:
        try:
            analysis.check_group_labels(a.group for a in instance.agents if a.group is not None)
        except ValueError as exc:
            print(f"cannot compare: --metrics-dir: {exc}", file=sys.stderr)
            return EXIT_INVALID

    started = time.perf_counter()
    online_alloc = run_online(instance, tie_break=tie_break)
    online_seconds = time.perf_counter() - started

    started = time.perf_counter()
    try:
        offline_alloc = analysis.offline_optimum(instance, args.budget)
    except OracleBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    offline_seconds = time.perf_counter() - started

    _print_summary(_summarize(instance, online_alloc, "online2" if model2 else "online1", online_seconds), args.exact)
    print()
    _print_summary(_summarize(instance, offline_alloc, "oracle2" if model2 else "offline1", offline_seconds), args.exact)
    print()

    opt = total_utility(instance, offline_alloc)
    alg = total_utility(instance, online_alloc)
    bound = analysis.model2_bound(instance) if model2 else analysis.model1_bound(instance)
    if alg == 0 and opt > 0:
        print("ratio     : infinite (online earned nothing)", file=sys.stderr)
        return EXIT_CERTIFICATE
    ratio = Fraction(1) if alg == 0 else opt / alg
    efficiency = Fraction(1) if opt == 0 else alg / opt
    tight = " [tight]" if ratio == bound else ""
    ratio_text = _decimal(ratio) + (f" (exact {_exact(ratio)})" if args.exact else "")
    bound_text = _decimal(bound) + (f" (exact {_exact(bound)})" if args.exact else "")
    print(f"optimal/online ratio : {ratio_text}{tight}")
    print(f"worst-case bound     : {bound_text}")
    print(f"empirical efficiency : {_decimal(efficiency)} (online/optimal)")
    if ratio > bound:
        print("ratio exceeds the worst-case bound (bug)", file=sys.stderr)
        return EXIT_CERTIFICATE

    if args.metrics_dir:
        os.makedirs(args.metrics_dir, exist_ok=True)
        online_csv = os.path.join(args.metrics_dir, "metrics_online.csv")
        offline_csv = os.path.join(args.metrics_dir, "metrics_offline.csv")
        data.export_metrics(analysis.compute_metrics(instance, online_alloc), online_csv)
        data.export_metrics(analysis.compute_metrics(instance, offline_alloc), offline_csv)
        print(f"metrics written to {online_csv} and {offline_csv}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    instance = data.read_instance(args.instance)
    failures = 0
    skips = 0

    def outcome(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        mark = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        suffix = f" ({detail})" if detail else ""
        print(f"[{mark}] {name}{suffix}")

    if args.allocation:
        supplied = data.read_allocation(args.allocation)
        report = check_allocation(instance, supplied)
        outcome(
            "supplied allocation feasible",
            report.ok,
            "; ".join(v.message for v in report.violations[:3]),
        )

    online_alloc, trace = run_online_with_trace(instance)
    outcome("online allocation feasible", check_allocation(instance, online_alloc).ok)

    sizes_ok = all(len(day.matched) == analysis.max_matching_size(day.graph) for day in trace)
    outcome("each day matching is maximum-cardinality", sizes_ok)

    wasted = analysis.wasted_slots(instance, online_alloc)
    outcome("online allocation is non-wasteful", not wasted, f"{len(wasted)} addable slots" if wasted else "")

    try:
        offline_alloc = analysis.offline_optimum(instance, args.budget)
    except OracleBudgetExceeded as exc:
        for step in ("charge certificate", "worst-case ratio bound"):
            print(f"[SKIP] {step} (budget exceeded: {exc})")
            skips += 1
    else:
        report = analysis.build_charging_report(instance, online_alloc, offline_alloc)
        outcome(
            "charge certificate",
            report.bound_certified,
            report.failure_reason or "",
        )
        opt = total_utility(instance, offline_alloc)
        alg = total_utility(instance, online_alloc)
        bound = analysis.model2_bound(instance) if overall_quotas(instance) else analysis.model1_bound(instance)
        outcome("worst-case ratio bound", opt <= bound * alg)

    rng = random.Random(args.seed)
    agent_ids = [a.id for a in instance.agents]
    rng.shuffle(agent_ids)
    probe = agent_ids[: args.deviation_agents]
    uncertified = []
    for agent_id in probe:
        report = analysis.availability_deviation_report(instance, agent_id)
        if not report.strategyproof:
            uncertified.append(f"{agent_id}: witness day {report.witness_day}")
    if probe:
        outcome(f"no improving under-reports ({len(probe)} agents probed)", not uncertified, "; ".join(uncertified[:3]))

    if failures:
        print(f"{failures} verification step(s) failed", file=sys.stderr)
        return EXIT_CERTIFICATE
    print("all verification steps passed" + (f" ({skips} skipped)" if skips else ""))
    return EXIT_OK


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rationd", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = sub.add_parser("generate", help="write a synthetic instance file")
    p_generate.add_argument("--config", required=True, help="generator config (JSON)")
    p_generate.add_argument("--out", required=True, help="instance file to write")
    p_generate.add_argument("--seed", type=int, default=None, help="override the config's seed")
    p_generate.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", help="run one solver on an instance")
    p_solve.add_argument("instance", help="instance file")
    p_solve.add_argument("--algorithm", required=True, choices=["online", "offline", "oracle"], help="offline: model 1 only")
    p_solve.add_argument("--out", help="allocation file to write")
    p_solve.add_argument("--tie-break", help="'adversarial' or a comma-separated agent precedence; not for oracle")
    p_solve.add_argument("--budget", type=_count, default=1_000_000, help="oracle search budget (>= 0)")
    p_solve.add_argument("--exact", action="store_true", help="print exact rationals alongside decimals")
    p_solve.set_defaults(func=cmd_solve)

    p_compare = sub.add_parser("compare", help="run online and offline and compare")
    p_compare.add_argument("instance", help="instance file")
    p_compare.add_argument("--tie-break", help="'adversarial' or a comma-separated agent precedence for the online run")
    p_compare.add_argument("--budget", type=_count, default=1_000_000, help="oracle search budget (>= 0)")
    p_compare.add_argument("--metrics-dir", help="directory for coverage metric CSVs")
    p_compare.add_argument("--exact", action="store_true", help="print exact rationals alongside decimals")
    p_compare.set_defaults(func=cmd_compare)

    p_verify = sub.add_parser("verify", help="run the verification suite on an instance")
    p_verify.add_argument("instance", help="instance file")
    p_verify.add_argument("--allocation", help="also feasibility-check this allocation file")
    p_verify.add_argument("--budget", type=_count, default=1_000_000, help="oracle search budget (>= 0)")
    p_verify.add_argument("--seed", type=int, default=0, help="seed that picks the agents to probe for deviations")
    p_verify.add_argument(
        "--deviation-agents", type=_count, default=4, help="how many agents to probe for deviations (>= 0)"
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("RATIOND_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except data.DataFormatError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MalformedInstance as exc:
        for violation in exc.report.violations:
            print(f"invalid instance: {violation.message}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"cannot open {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_INVALID


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
