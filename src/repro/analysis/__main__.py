"""CLI of repro-lint: ``python -m repro.analysis``.

Exit codes: 0 clean (or fully baselined), 1 new findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.baseline import apply_baseline, load_baseline, write_baseline
from repro.analysis.driver import all_rules, default_root, discover, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Invariant-enforcing static analysis for the repro tree.",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="source root containing the repro package (default: autodetect)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline file of accepted findings "
        "(default: <repo>/analysis_baseline.json next to the source root)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit 0",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  [{rule.severity}]  {rule.summary}")
            print(f"        {rule.rationale}")
        return 0

    root = default_root() if args.root is None else args.root.resolve()
    project = discover(root)

    baseline_path = (
        args.baseline
        if args.baseline is not None
        else root.parent / "analysis_baseline.json"
    )
    baseline = load_baseline(baseline_path)
    findings = run(project)

    if args.update_baseline:
        write_baseline(findings, baseline_path, previous=baseline)
        print(f"baseline with {len(findings)} finding(s) written to {baseline_path}")
        return 0

    fresh, stale = apply_baseline(findings, baseline)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "findings": [finding.to_json() for finding in fresh],
                    "baselined": len(findings) - len(fresh),
                    "stale_baseline_entries": [
                        {"path": e.path, "rule": e.rule, "message": e.message}
                        for e in stale
                    ],
                },
                indent=2,
            )
        )
    else:
        for finding in fresh:
            print(finding.render())
        if stale:
            print(
                f"note: {len(stale)} stale baseline entr"
                f"{'y' if len(stale) == 1 else 'ies'} (fixed findings still "
                f"listed in {baseline_path.name}; prune with --update-baseline):"
            )
            for entry in stale:
                print(f"  {entry.path}: {entry.rule} {entry.message}")
        summary = (
            f"{len(fresh)} new finding(s), "
            f"{len(findings) - len(fresh)} baselined, "
            f"{len(project.modules)} module(s) scanned"
        )
        print(summary)
    return 1 if fresh else 0


if __name__ == "__main__":
    sys.exit(main())
