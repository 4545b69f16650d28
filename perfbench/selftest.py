#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload, an untraced and a traced run must pass every answer
check and put on the JSON line exactly the metrics BENCHMARK.json names, each
with its unit; the record must carry the reported-only metrics where they
apply. Then a deliberately corrupted report (``summarize``'s total cost
nudged by one part in a million) must raise ``error_rate`` above 0, which
shows the checks bite.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run

TINY = {
    "oracle_small": {"instances": 2},
    "walk_large": {"devices": 40, "slots": 12, "visited": 3, "step": 40.0},
    "multi_stream": {"devices": 24, "per_gateway": 4, "gateways_per_edge": 3, "slots": 4},
}


def corrupt_summarize(program) -> None:
    summarize = program.simulator.summarize

    def nudged(report):
        out = summarize(report)
        return replace(out, total_cost=out.total_cost * (1 + 1e-6))

    program.simulator.summarize = nudged


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    for workload, sizes in TINY.items():
        for trace in (False, True):
            label = f"{workload} trace={int(trace)}"
            record = run.run(workload, seed=1, seconds=0.0, trace=trace, sizes=sizes)
            result = record["result"]
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{label}: answers pass ({result['attempted']} checks) {record['failures'][:3]}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted[trace], f"{label}: JSON line has every metric with its unit")
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{label}: every value is a number")
            if not trace:
                reported = {name: m["unit"] for name, m in record["reported"].items()}
                applies = dict(run.REPORTED)
                if not run.SETTINGS[workload]["exact_every"]:
                    for name in ("exact_solve_ms", "greedy_gap_pct", "anneal_gap_pct"):
                        del applies[name]
                expect(all(reported.get(n) == u for n, u in applies.items()),
                       f"{label}: record has {sorted(applies)} with units")
                expect(all(result["metrics"][n]["value"] > 0 for n in wanted[False]),
                       f"{label}: no end-to-end metric is 0")

    record = run.run("oracle_small", seed=1, seconds=0.0, trace=False,
                     sizes=TINY["oracle_small"], after_setup=corrupt_summarize)
    expect(record["reported"]["error_rate"]["value"] > 0 and not record["result"]["correct"],
           f"corrupted total_cost raises error_rate to {record['reported']['error_rate']['value']:.3g}")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
