/**
 * @file
 * trace-report — fold a flextensor-cli `--trace` timeline into a
 * per-phase time breakdown and the best-GFLOPS-vs-trials curve (the
 * Fig. 7 data series).
 *
 * Usage:
 *   trace-report <trace.jsonl> [--json <out.json>] [--curve-points <n>]
 *
 * The human-readable report goes to stdout; --json additionally writes
 * the machine-readable report (with the full, unsampled curve) so the
 * Fig. 7 plot can be regenerated from it.
 *
 * Wall columns of a wall-profiled trace sum per-phase `ns` over every
 * search in it. graph::tuneDag runs a DAG's anchor searches
 * concurrently, so in a graph trace the `eval.*` and `q_*` wall sums
 * (like the `eval.*.ns` and `q.*.ns` counters) add up across workers
 * and can exceed the call's wall time.
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/trace_report.h"
#include "support/logging.h"

using namespace ft;

int
main(int argc, char **argv)
{
    std::string trace_path, json_path;
    int curve_points = 12;
    for (int i = 1; i < argc; ++i) {
        auto arg = [&](const char *flag) {
            if (std::strcmp(argv[i], flag) != 0)
                return false;
            if (i + 1 >= argc)
                fatal("missing value for ", flag);
            return true;
        };
        if (arg("--json")) {
            json_path = argv[++i];
        } else if (arg("--curve-points")) {
            curve_points = std::atoi(argv[++i]);
        } else if (argv[i][0] == '-') {
            fatal("unknown argument '", argv[i],
                  "' (trace-report <trace.jsonl> [--json out.json])");
        } else if (trace_path.empty()) {
            trace_path = argv[i];
        } else {
            fatal("more than one trace file given");
        }
    }
    if (trace_path.empty())
        fatal("usage: trace-report <trace.jsonl> [--json out.json]");

    auto report = loadTraceReport(trace_path);
    if (!report)
        fatal("could not parse trace file ", trace_path);

    std::printf("%s", renderTraceReport(*report, curve_points).c_str());

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        out << traceReportJson(*report) << "\n";
        if (!out)
            fatal("could not write ", json_path);
        std::printf("report json -> %s\n", json_path.c_str());
    }
    return 0;
}
