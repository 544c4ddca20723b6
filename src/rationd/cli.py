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
was exceeded. A command returns or raises, and ``main`` alone turns every
failure into its stderr line and exit code. Set ``RATIOND_LOG=debug`` (or
info/warning/error) to change log verbosity.
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
from dataclasses import replace
from fractions import Fraction

from . import analysis, data
from .model import Allocation, Instance, MalformedInstance, TieBreak, TieBreakOrder, check_allocation, overall_quotas, precedence, total_utility
from .offline import ORACLE_BUDGET, OracleBudgetExceeded, solve_exact_oracle, solve_offline_model1, solve_offline_tiebroken
from .online import run_online, run_online_with_trace

EXIT_OK = 0
EXIT_INVALID = 3
EXIT_CERTIFICATE = 4
EXIT_BUDGET = 5

log = logging.getLogger("rationd")


class CommandFailed(Exception):
    """A command's own refusal (exit 3) or failed check (exit 4): ``main``
    prints ``message`` to stderr and exits with ``code``."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(code, message)
        self.code = code
        self.message = message


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


def _value(value: Fraction, exact: bool) -> str:
    return _decimal(value) + (f" (exact {_exact(value)})" if exact else "")


def _label(algorithm: str, model2: bool) -> str:
    """A summary's solver name: the algorithm and the model it ran in. In
    model 2 the offline side is the oracle."""
    if model2:
        return "online2" if algorithm == "online" else "oracle2"
    return {"online": "online1", "offline": "offline1", "oracle": "oracle"}[algorithm]


def _print_summary(instance: Instance, alloc: Allocation, solver: str, seconds: float, exact: bool) -> None:
    per_day = [0] * instance.num_days
    for _a, _c, day in alloc.matched():
        per_day[day - 1] += 1
    print(f"instance  : {_digest(instance)}")
    print(f"solver    : {solver}")
    print(f"matched   : {alloc.matched_count()} / {len(instance.agents)}")
    print(f"utility   : {_value(total_utility(instance, alloc), exact)}")
    print(f"per-day   : {' '.join(str(n) for n in per_day)}")
    print(f"wall-clock: {seconds:.3f} s")


def _parse_tie_break(text: str | None, instance: Instance) -> TieBreak:
    if text is None or text == "adversarial":
        return text
    tie = TieBreakOrder(tuple(part.strip() for part in text.split(",") if part.strip()))
    try:
        precedence(instance, tie)
    except ValueError as exc:
        raise CommandFailed(EXIT_INVALID, f"bad tie-break: {exc}") from exc
    return tie


def cmd_generate(args: argparse.Namespace) -> None:
    config = data.read_generator_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    try:
        instance = data.generate(config)
    except MalformedInstance:
        raise  # a generator bug, not a config problem: main reports it
    except ValueError as exc:
        raise CommandFailed(EXIT_INVALID, f"invalid generator config: {exc}") from exc
    data.write_instance(instance, args.out, provenance=data.config_to_document(config))
    print(f"wrote {args.out}: {len(instance.agents)} agents, {instance.num_days} days, {len(instance.categories)} categories")


def cmd_solve(args: argparse.Namespace) -> None:
    instance = data.read_instance(args.instance)
    model2 = bool(overall_quotas(instance))
    tie_break = _parse_tie_break(args.tie_break, instance)
    if tie_break is not None and args.algorithm == "oracle":
        raise CommandFailed(EXIT_INVALID, "bad tie-break: oracle breaks no ties by precedence")
    if model2 and args.algorithm == "offline":
        raise CommandFailed(
            EXIT_INVALID, "cannot solve: offline ignores the overall quotas this instance carries; use --algorithm oracle"
        )
    started = time.perf_counter()
    if args.algorithm == "online":
        alloc = run_online(instance, tie_break=tie_break)
    elif args.algorithm == "oracle":
        alloc = solve_exact_oracle(instance, budget=args.budget)
    elif tie_break is not None:
        alloc = solve_offline_tiebroken(instance, tie_break)
    else:
        alloc = solve_offline_model1(instance)
    seconds = time.perf_counter() - started
    if not check_allocation(instance, alloc).ok:
        raise CommandFailed(EXIT_CERTIFICATE, "solver produced an infeasible allocation (bug)")
    if args.out:
        data.write_allocation(alloc, args.out)
    _print_summary(instance, alloc, _label(args.algorithm, model2), seconds, args.exact)


def cmd_compare(args: argparse.Namespace) -> None:
    instance = data.read_instance(args.instance)
    model2 = bool(overall_quotas(instance))
    tie_break = _parse_tie_break(args.tie_break, instance)
    if args.metrics_dir:
        try:
            analysis.check_group_labels(a.group for a in instance.agents if a.group is not None)
        except ValueError as exc:
            raise CommandFailed(EXIT_INVALID, f"cannot compare: --metrics-dir: {exc}") from exc
        os.makedirs(args.metrics_dir, exist_ok=True)

    started = time.perf_counter()
    online_alloc = run_online(instance, tie_break=tie_break)
    online_seconds = time.perf_counter() - started

    started = time.perf_counter()
    offline_alloc = analysis.offline_optimum(instance, args.budget)
    offline_seconds = time.perf_counter() - started

    _print_summary(instance, online_alloc, _label("online", model2), online_seconds, args.exact)
    print()
    _print_summary(instance, offline_alloc, _label("offline", model2), offline_seconds, args.exact)
    print()

    check = analysis.ratio_check(instance, online_alloc, offline_alloc)
    if check.ratio is None:
        raise CommandFailed(EXIT_CERTIFICATE, "ratio     : infinite (online earned nothing)")
    efficiency = Fraction(1) if check.opt == 0 else check.alg / check.opt
    tight = " [tight]" if check.ratio == check.bound else ""
    print(f"optimal/online ratio : {_value(check.ratio, args.exact)}{tight}")
    print(f"worst-case bound     : {_value(check.bound, args.exact)}")
    print(f"empirical efficiency : {_decimal(efficiency)} (online/optimal)")
    if not check.holds:
        raise CommandFailed(EXIT_CERTIFICATE, "ratio exceeds the worst-case bound (bug)")

    if args.metrics_dir:
        online_csv = os.path.join(args.metrics_dir, "metrics_online.csv")
        offline_csv = os.path.join(args.metrics_dir, "metrics_offline.csv")
        data.export_metrics(analysis.compute_metrics(instance, online_alloc), online_csv)
        data.export_metrics(analysis.compute_metrics(instance, offline_alloc), offline_csv)
        print(f"metrics written to {online_csv} and {offline_csv}")


def cmd_verify(args: argparse.Namespace) -> None:
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
        check = analysis.ratio_check(instance, online_alloc, offline_alloc)
        shortfall = f"optimum {_exact(check.opt)} > bound {_exact(check.bound)} x online {_exact(check.alg)}"
        outcome("worst-case ratio bound", check.holds, "" if check.holds else shortfall)

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
        raise CommandFailed(EXIT_CERTIFICATE, f"{failures} verification step(s) failed")
    print("all verification steps passed" + (f" ({skips} skipped)" if skips else ""))


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
    p_solve.add_argument("--budget", type=_count, default=ORACLE_BUDGET, help="oracle search budget (>= 0)")
    p_solve.add_argument("--exact", action="store_true", help="print exact rationals alongside decimals")
    p_solve.set_defaults(func=cmd_solve)

    p_compare = sub.add_parser("compare", help="run online and offline and compare")
    p_compare.add_argument("instance", help="instance file")
    p_compare.add_argument("--tie-break", help="'adversarial' or a comma-separated agent precedence for the online run")
    p_compare.add_argument("--budget", type=_count, default=ORACLE_BUDGET, help="oracle search budget (>= 0)")
    p_compare.add_argument("--metrics-dir", help="directory for coverage metric CSVs")
    p_compare.add_argument("--exact", action="store_true", help="print exact rationals alongside decimals")
    p_compare.set_defaults(func=cmd_compare)

    p_verify = sub.add_parser("verify", help="run the verification suite on an instance")
    p_verify.add_argument("instance", help="instance file")
    p_verify.add_argument("--allocation", help="also feasibility-check this allocation file")
    p_verify.add_argument("--budget", type=_count, default=ORACLE_BUDGET, help="oracle search budget (>= 0)")
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
        args.func(args)
    except CommandFailed as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    except OracleBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
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
    return EXIT_OK


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
