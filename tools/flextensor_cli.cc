/**
 * @file
 * flextensor-cli — tune operators from the command line.
 *
 * Usage:
 *   flextensor-cli --op C2D --case C8 --target v100 [options]
 *   flextensor-cli batch [options] SPEC...
 *   flextensor-cli serve [options]        (SPECs read from stdin)
 *   flextensor-cli family [options]       (tune a whole shape family)
 *   flextensor-cli graph [options]        (graph-level network scheduling)
 *   flextensor-cli --list
 *
 * A SPEC is an operator abbreviation with an optional case id, e.g.
 * "C2D" or "C2D:C8". Repeated specs in one batch coalesce into a single
 * tuning run; repeated passes (--repeat) hit the in-memory result cache.
 *
 * Single-op options:
 *   --op <abbr>       operator abbreviation (Table 3) incl. BCM, SHO
 *   --case <id>       test-case id within the suite (default: first)
 *   --baseline        also report the vendor-library baseline
 *   --emit            print generated source for the tuned schedule
 *   --list            print all operators and cases, then exit
 *
 * Shared options:
 *   --target <name>   v100 | p100 | titanx | xeon | vu9p  (default v100)
 *   --method <name>   q | p | random | autotvm            (default q)
 *   --trials <n>      exploration steps                   (default 200)
 *   --seed <n>        RNG seed
 *   --cache <file>    tuning-cache file to load and update
 *   --deadline <sec>  per-run simulated deadline; an expired run returns
 *                     its best-so-far result flagged [degraded]
 *   --inject-faults <spec>  deterministic measurement faults, e.g.
 *                     "transient=0.1,permanent=0.02,timeout=0.05,
 *                      outlier=0.1,seed=7" (also: flaky, hang, scale)
 *   --metrics         print a metrics snapshot (single-op: after the
 *                     run; batch/serve: after every pass)
 *   --cost-model <file>  learned-cost-model journal: completed trials
 *                     train a ranking GBT (persisted to the file and
 *                     reloaded on the next invocation) that warm-starts
 *                     exploration and, with --prune, prunes candidates
 *   --prune <keep>    fraction (0,1] of model-ranked candidates kept
 *                     per step (needs --cost-model). Changes the
 *                     explored trajectory: fixed-seed runs are still
 *                     deterministic, but differ from unpruned runs
 *
 * Single-op only:
 *   --checkpoint <file>  snapshot the run periodically and resume from
 *                        the file when it matches (method/seed/space)
 *   --trace <file>       write the run's JSONL event timeline (see
 *                        `trace-report` for the per-phase breakdown and
 *                        the Fig. 7 curve); byte-identical across runs
 *                        of the same seed
 *
 * batch/serve options:
 *   --threads <n>         measurement workers per run     (default 4)
 *   --request-threads <n> concurrent tuning runs          (default 4)
 *   --repeat <n>          passes over the spec list       (default 1)
 *   --admit               route requests through admission control:
 *                         overload sheds with a structured reason
 *                         instead of queueing unboundedly
 *   --request-deadline <sec>  wall deadline per request (with --admit);
 *                         requests that cannot meet it are shed at
 *                         submit time
 *   --max-queue <n>       admitted-but-incomplete request bound
 *   --brownout <n>        queue depth where brownout (serve from
 *                         caches only) begins
 *   --sim-rate <r>        simulated seconds one wall second of budget
 *                         buys (deadline propagation; default 0 = off)
 *   --dispatch-dir <dir>  persist/reload published dispatch tables
 *   --trace <file>        write the admission event timeline (JSONL)
 *
 * batch/serve handle SIGINT/SIGTERM with a graceful drain: admission
 * stops, in-flight runs finish, and metrics/trace/cache files are
 * flushed before exit.
 *
 * family options (one schedule per shape bucket, joint scoring):
 *   --family gemm|conv2d  op template over a dynamic dim  (default gemm)
 *   --layer <C1..C15>     conv2d: the YOLO layer          (default C8)
 *   --n <n> --k <k>       gemm: the fixed dimensions      (default 512)
 *   --range <lo:hi>       dynamic dimension range         (default 1:64)
 *   --bucket pow2|fixed:<w>  bucketing policy             (default pow2)
 *   --samples <k>         shape instances scored/bucket   (default 2)
 *   --table <file>        write the serialized dispatch table
 *   --lookup <shape>      after tuning, serve one concrete shape
 *                         (repeatable; must be inside --range)
 *
 * graph options (fusion-aware whole-network tuning, see src/graph/):
 *   --network yolo|overfeat  the network to schedule       (default yolo)
 *   --batch <n>           input batch size                 (default 1)
 *   --fuse none|epilogue|graph  partitioning mode          (default graph)
 *   --trace <file>        write the timeline incl. graph.partition /
 *                         graph.subgraph spans (fold with `trace-report`)
 *
 * In batch/serve mode a malformed or unknown SPEC is skipped with a
 * warning; the exit code is nonzero only when every spec was invalid.
 */
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "analysis/verify/diag.h"
#include "codegen/codegen.h"
#include "core/flextensor.h"
#include "dnn/e2e.h"
#include "dnn/models.h"
#include "ir/inline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "support/fault_injector.h"
#include "support/logging.h"

using namespace ft;

namespace {

Target
parseTarget(const std::string &name)
{
    if (name == "v100")
        return Target::forGpu(v100());
    if (name == "p100")
        return Target::forGpu(p100());
    if (name == "titanx")
        return Target::forGpu(titanX());
    if (name == "xeon")
        return Target::forCpu(xeonE5());
    if (name == "vu9p")
        return Target::forFpga(vu9p());
    fatal("unknown target '", name, "' (v100|p100|titanx|xeon|vu9p)");
}

Method
parseMethod(const std::string &name)
{
    if (name == "q")
        return Method::QMethod;
    if (name == "p")
        return Method::PMethod;
    if (name == "random")
        return Method::Random;
    if (name == "autotvm")
        return Method::AutoTvm;
    fatal("unknown method '", name, "' (q|p|random|autotvm)");
}

void
listOperators()
{
    std::printf("%-6s %s\n", "op", "cases");
    auto print_suite = [](const std::string &op) {
        std::printf("%-6s", op.c_str());
        for (const auto &tc : ops::table3Cases(op))
            std::printf(" %s", tc.id.c_str());
        std::printf("\n");
    };
    for (const auto &op : ops::table3Operators())
        print_suite(op);
    print_suite("BCM");
    print_suite("SHO");
}

Library
baselineFor(const std::string &op, const Target &target)
{
    if (target.kind == DeviceKind::Cpu)
        return Library::MklDnn;
    if (target.kind == DeviceKind::Fpga)
        return Library::FpgaOpenCl;
    if (op == "GMV" || op == "GMM" || op == "BIL")
        return Library::CuBlas;
    if (op == "BCM" || op == "SHO")
        return Library::HandTuned;
    return Library::CuDnn;
}

/**
 * Resolve "OP" or "OP:CASE" to a buildable test case, or nullopt when
 * the operator or case is unknown. Never fatals: batch/serve input can
 * come from untrusted spec files and one bad line must not abort a
 * multi-hour run.
 */
std::optional<ops::TestCase>
tryResolveSpec(const std::string &spec)
{
    std::string op = spec, case_id;
    auto colon = spec.find(':');
    if (colon != std::string::npos) {
        op = spec.substr(0, colon);
        case_id = spec.substr(colon + 1);
    }
    auto known = ops::table3Operators();
    if (std::find(known.begin(), known.end(), op) == known.end() &&
        op != "BCM" && op != "SHO")
        return std::nullopt;
    for (const auto &tc : ops::table3Cases(op)) {
        if (case_id.empty() || tc.id == case_id)
            return tc;
    }
    return std::nullopt;
}

/** Parse --inject-faults (fatals on a malformed spec: operator error). */
FaultProfile
parseFaultsArg(const std::string &spec)
{
    auto profile = parseFaultProfile(spec);
    if (!profile)
        fatal("bad --inject-faults spec '", spec,
              "' (e.g. transient=0.1,permanent=0.02,seed=7)");
    return *profile;
}

/**
 * SIGINT/SIGTERM request a graceful drain: stop admitting new work,
 * finish what is in flight, flush durable state, then exit. The flag is
 * the only thing the handler touches (async-signal-safe); the drain
 * itself happens on the main thread between submissions.
 */
volatile std::sig_atomic_t g_drain_requested = 0;

void
requestDrain(int)
{
    g_drain_requested = 1;
}

/** `batch`/`serve` subcommands: tune many specs through TuningService. */
int
runService(bool from_stdin, int argc, char **argv)
{
    std::string target_name = "v100", method_name = "q", cache_path;
    std::string dispatch_dir, trace_path;
    int trials = 200, threads = 4, request_threads = 4, repeat = 1;
    uint64_t seed = 0xc11;
    double deadline = 0.0;
    double request_deadline = std::numeric_limits<double>::infinity();
    double sim_rate = 0.0, prune_keep = 0.0;
    int max_queue = 0, brownout_depth = 0;
    bool print_metrics = false, admit = false;
    FaultProfile faults;
    std::string cost_model_path;
    std::vector<std::string> specs;

    for (int i = 2; i < argc; ++i) {
        auto arg = [&](const char *flag) {
            if (std::strcmp(argv[i], flag) != 0)
                return false;
            if (i + 1 >= argc)
                fatal("missing value for ", flag);
            return true;
        };
        if (arg("--target")) {
            target_name = argv[++i];
        } else if (arg("--method")) {
            method_name = argv[++i];
        } else if (arg("--trials")) {
            trials = std::atoi(argv[++i]);
        } else if (arg("--seed")) {
            seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg("--cache")) {
            cache_path = argv[++i];
        } else if (arg("--deadline")) {
            deadline = std::atof(argv[++i]);
        } else if (arg("--inject-faults")) {
            faults = parseFaultsArg(argv[++i]);
        } else if (arg("--threads")) {
            threads = std::atoi(argv[++i]);
        } else if (arg("--request-threads")) {
            request_threads = std::atoi(argv[++i]);
        } else if (arg("--repeat")) {
            repeat = std::atoi(argv[++i]);
        } else if (arg("--request-deadline")) {
            request_deadline = std::atof(argv[++i]);
            admit = true;
        } else if (arg("--max-queue")) {
            max_queue = std::atoi(argv[++i]);
            admit = true;
        } else if (arg("--brownout")) {
            brownout_depth = std::atoi(argv[++i]);
            admit = true;
        } else if (arg("--sim-rate")) {
            sim_rate = std::atof(argv[++i]);
        } else if (arg("--dispatch-dir")) {
            dispatch_dir = argv[++i];
        } else if (arg("--cost-model")) {
            cost_model_path = argv[++i];
        } else if (arg("--prune")) {
            prune_keep = std::atof(argv[++i]);
        } else if (arg("--trace")) {
            trace_path = argv[++i];
        } else if (std::strcmp(argv[i], "--admit") == 0) {
            admit = true;
        } else if (std::strcmp(argv[i], "--metrics") == 0) {
            print_metrics = true;
        } else if (argv[i][0] == '-') {
            fatal("unknown argument '", argv[i], "' (see header comment)");
        } else {
            specs.push_back(argv[i]);
        }
    }
    if (from_stdin) {
        std::string line;
        while (std::getline(std::cin, line)) {
            if (!line.empty() && line[0] != '#')
                specs.push_back(line);
        }
    }
    if (specs.empty())
        fatal("no operator specs given (e.g. C2D:C8 GMM GMV T2D)");

    Target target = parseTarget(target_name);
    TuningCache cache;
    if (!cache_path.empty())
        cache.load(cache_path); // a missing file is fine on first run

    ServiceOptions service_options;
    service_options.evalThreads = threads;
    service_options.requestThreads = request_threads;
    if (!cache_path.empty())
        service_options.persistentCache = &cache;
    if (max_queue > 0)
        service_options.admission.maxQueueDepth =
            static_cast<size_t>(max_queue);
    if (brownout_depth > 0)
        service_options.admission.brownoutDepth =
            static_cast<size_t>(brownout_depth);
    service_options.simBudgetPerSecond = sim_rate;
    service_options.dispatchDir = dispatch_dir;
    if (prune_keep > 0.0 && cost_model_path.empty())
        fatal("--prune needs --cost-model");
    if (!cost_model_path.empty()) {
        // Service-owned model: one ranking GBT shared by every request,
        // trained on a background thread and journaled to the file.
        service_options.enableCostModel = true;
        service_options.costModel.persistPath = cost_model_path;
    }
    TraceRecorder admission_trace;
    if (!trace_path.empty())
        service_options.admission.trace = &admission_trace;
    TuningService service(service_options);

    // Graceful drain on SIGINT/SIGTERM: the handler only sets a flag;
    // the loop below stops admitting, finishes in-flight work, and
    // falls through to the flush-and-save epilogue.
    g_drain_requested = 0;
    std::signal(SIGINT, requestDrain);
    std::signal(SIGTERM, requestDrain);

    TuneOptions tune_options;
    tune_options.method = parseMethod(method_name);
    tune_options.explore.trials = trials;
    tune_options.explore.seed = seed;
    tune_options.explore.deadlineSimSeconds = deadline;
    tune_options.explore.prunerKeep = prune_keep;
    FaultInjector injector(faults); // outlives every run below
    if (faults.enabled())
        tune_options.explore.resilience.injector = &injector;

    // Build the graphs up front; the service tunes them concurrently.
    // A spec that fails to resolve is skipped, not fatal: one bad line
    // must not take down the remaining work.
    std::vector<std::pair<std::string, Tensor>> work;
    for (const auto &spec : specs) {
        auto tc = tryResolveSpec(spec);
        if (!tc) {
            warn("skipping unknown operator spec '", spec, "'");
            continue;
        }
        work.emplace_back(tc->op + ":" + tc->id, tc->build());
    }
    if (work.empty()) {
        warn("no valid operator specs out of ", specs.size());
        return 1;
    }

    std::printf("%s: %zu specs x %d pass(es) on %s, %d measurement "
                "threads, %d request threads\n",
                from_stdin ? "serve" : "batch", work.size(), repeat,
                target.deviceName().c_str(), threads, request_threads);
    bool drained = false;
    for (int pass = 0; pass < repeat && !drained; ++pass) {
        RequestOptions request;
        request.priority = RequestPriority::Batch;
        request.deadlineSeconds = request_deadline;
        std::vector<std::future<AdmittedReport>> admitted_futures;
        std::vector<std::future<TuneReport>> futures;
        std::vector<size_t> submitted;
        for (size_t w = 0; w < work.size(); ++w) {
            if (g_drain_requested) {
                // Admission stops here; everything already submitted
                // still runs to completion below.
                drained = true;
                break;
            }
            submitted.push_back(w);
            if (admit) {
                admitted_futures.push_back(service.submitAdmitted(
                    work[w].second, target, tune_options, request));
            } else {
                futures.push_back(
                    service.submit(work[w].second, target, tune_options));
            }
        }
        for (size_t i = 0; i < submitted.size(); ++i) {
            const char *name = work[submitted[i]].first.c_str();
            if (admit) {
                AdmittedReport answer = admitted_futures[i].get();
                if (!answer.served()) {
                    std::printf("pass %d  %-10s REJECTED [%s]  %s\n",
                                pass + 1, name,
                                admissionOutcomeName(answer.outcome),
                                answer.reason.c_str());
                    continue;
                }
                const TuneReport &report = *answer.report;
                std::printf("pass %d  %-10s %8.1f GFLOPS  kernel %8.3f "
                            "ms  %4d trials%s%s%s\n",
                            pass + 1, name, report.gflops,
                            report.kernelSeconds * 1e3, report.trials,
                            report.fromCache ? "  [cached]" : "",
                            report.degraded ? "  [degraded]" : "",
                            answer.degradedAnswer ? "  [brownout]" : "");
            } else {
                TuneReport report = futures[i].get();
                std::printf("pass %d  %-10s %8.1f GFLOPS  kernel %8.3f "
                            "ms  %4d trials%s%s\n",
                            pass + 1, name, report.gflops,
                            report.kernelSeconds * 1e3, report.trials,
                            report.fromCache ? "  [cached]" : "",
                            report.degraded ? "  [degraded]" : "");
            }
        }
        if (g_drain_requested)
            drained = true;
        if (print_metrics) {
            // A periodic snapshot: one consistent registry read per pass.
            std::printf("\nmetrics after pass %d:\n%s", pass + 1,
                        service.stats().metrics.toString().c_str());
        }
    }
    if (drained)
        std::printf("\ndrain: admission stopped on signal; in-flight "
                    "work finished, flushing state\n");

    ServiceStats stats = service.stats();
    if (admit) {
        std::printf("\nadmission stats:\n"
                    "  admitted          %llu\n"
                    "  shed (queue full) %llu\n"
                    "  shed (deadline)   %llu\n"
                    "  brownouts         %llu\n"
                    "  brownout served   %llu\n"
                    "  breaker rejects   %llu\n"
                    "  breakers opened   %llu\n",
                    (unsigned long long)stats.admission.admitted,
                    (unsigned long long)stats.admission.shedQueueFull,
                    (unsigned long long)stats.admission.shedDeadline,
                    (unsigned long long)stats.admission.brownouts,
                    (unsigned long long)stats.brownoutServed,
                    (unsigned long long)stats.admission.breakerRejects,
                    (unsigned long long)stats.admission.breakersOpened);
    }
    std::printf("\nservice stats:\n"
                "  requests          %llu\n"
                "  tuning runs       %llu\n"
                "  coalesced joins   %llu\n"
                "  result-cache hits %llu\n"
                "  persistent hits   %llu\n"
                "  evaluations       %llu\n"
                "  failures          %llu\n"
                "  retries           %llu\n"
                "  timeouts          %llu\n"
                "  quarantined       %llu\n"
                "  degraded reports  %llu\n"
                "  eval queue depth  %zu\n",
                (unsigned long long)stats.requests,
                (unsigned long long)stats.tuningRuns,
                (unsigned long long)stats.coalescedJoins,
                (unsigned long long)stats.resultCacheHits,
                (unsigned long long)stats.persistentCacheHits,
                (unsigned long long)stats.evaluations,
                (unsigned long long)stats.failures,
                (unsigned long long)stats.retries,
                (unsigned long long)stats.timeouts,
                (unsigned long long)stats.quarantined,
                (unsigned long long)stats.degradedReports,
                stats.evalQueueDepth);
    if (!cost_model_path.empty()) {
        std::printf("  cost model        %zu trials, %llu refits%s\n",
                    stats.costModelTrials,
                    (unsigned long long)stats.costModelRefits,
                    stats.costModelReady ? "  [ready]" : "");
    }

    // Flush durable state last — also the tail of a graceful drain.
    if (!trace_path.empty()) {
        if (admission_trace.writeFile(trace_path)) {
            std::printf("admission trace: %llu events -> %s\n",
                        (unsigned long long)admission_trace.eventCount(),
                        trace_path.c_str());
        } else {
            warn("could not write admission trace to ", trace_path);
        }
    }
    if (!cache_path.empty() && !cache.save(cache_path))
        warn("could not write tuning cache to ", cache_path);
    return 0;
}

/** `family` subcommand: tune a shape family into a dispatch table. */
int
runFamily(int argc, char **argv)
{
    std::string family_kind = "gemm", layer_name = "C8";
    std::string target_name = "v100", method_name = "q";
    std::string bucket_spec = "pow2", table_path, trace_path;
    std::string cost_model_path;
    int64_t gemm_n = 512, gemm_k = 512, range_lo = 1, range_hi = 64;
    int trials = 200, samples = 2;
    uint64_t seed = 0xc11;
    double prune_keep = 0.0;
    bool print_metrics = false;
    std::vector<int64_t> lookups;

    for (int i = 2; i < argc; ++i) {
        auto arg = [&](const char *flag) {
            if (std::strcmp(argv[i], flag) != 0)
                return false;
            if (i + 1 >= argc)
                fatal("missing value for ", flag);
            return true;
        };
        if (arg("--family")) {
            family_kind = argv[++i];
        } else if (arg("--layer")) {
            layer_name = argv[++i];
        } else if (arg("--n")) {
            gemm_n = std::atoll(argv[++i]);
        } else if (arg("--k")) {
            gemm_k = std::atoll(argv[++i]);
        } else if (arg("--range")) {
            std::string range = argv[++i];
            auto colon = range.find(':');
            if (colon == std::string::npos)
                fatal("bad --range '", range, "' (want lo:hi)");
            range_lo = std::atoll(range.substr(0, colon).c_str());
            range_hi = std::atoll(range.substr(colon + 1).c_str());
        } else if (arg("--bucket")) {
            bucket_spec = argv[++i];
        } else if (arg("--samples")) {
            samples = std::atoi(argv[++i]);
        } else if (arg("--table")) {
            table_path = argv[++i];
        } else if (arg("--lookup")) {
            lookups.push_back(std::atoll(argv[++i]));
        } else if (arg("--target")) {
            target_name = argv[++i];
        } else if (arg("--method")) {
            method_name = argv[++i];
        } else if (arg("--trials")) {
            trials = std::atoi(argv[++i]);
        } else if (arg("--seed")) {
            seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg("--trace")) {
            trace_path = argv[++i];
        } else if (arg("--cost-model")) {
            cost_model_path = argv[++i];
        } else if (arg("--prune")) {
            prune_keep = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--metrics") == 0) {
            print_metrics = true;
        } else {
            fatal("unknown argument '", argv[i], "' (see header comment)");
        }
    }
    if (range_lo < 1 || range_hi < range_lo)
        fatal("bad --range ", range_lo, ":", range_hi);
    if (prune_keep > 0.0 && cost_model_path.empty())
        fatal("--prune needs --cost-model");

    ShapeVar var;
    var.name = family_kind == "gemm" ? "M" : "batch";
    var.lo = range_lo;
    var.hi = range_hi;
    if (bucket_spec == "pow2") {
        var.bucketing = Bucketing::Pow2;
    } else if (bucket_spec.rfind("fixed:", 0) == 0) {
        var.bucketing = Bucketing::FixedWidth;
        var.bucketWidth = std::atoll(bucket_spec.substr(6).c_str());
        if (var.bucketWidth < 1)
            fatal("bad --bucket width in '", bucket_spec, "'");
    } else {
        fatal("unknown --bucket '", bucket_spec, "' (pow2|fixed:<w>)");
    }

    ShapeFamily family;
    if (family_kind == "gemm") {
        family = gemmOverM(gemm_n, gemm_k, var);
    } else if (family_kind == "conv2d") {
        const ops::Conv2dLayer *layer = nullptr;
        for (const auto &l : ops::yoloLayers()) {
            if (l.name == layer_name)
                layer = &l;
        }
        if (!layer)
            fatal("unknown --layer '", layer_name, "' (C1..C15)");
        family = conv2dOverBatch(*layer, var);
    } else {
        fatal("unknown --family '", family_kind, "' (gemm|conv2d)");
    }

    Target target = parseTarget(target_name);
    FamilyTuneOptions options;
    options.method = parseMethod(method_name);
    options.explore.trials = trials;
    options.explore.seed = seed;
    options.samplesPerBucket = samples;
    CostModelOptions cost_model_options;
    cost_model_options.persistPath = cost_model_path;
    cost_model_options.syncRefit = true; // deterministic family runs
    CostModel cost_model(cost_model_options);
    if (!cost_model_path.empty()) {
        cost_model.load();
        options.explore.costModel = &cost_model;
        options.explore.prunerKeep = prune_keep;
    }
    TraceRecorder recorder;
    MetricsRegistry registry;
    if (!trace_path.empty()) {
        options.explore.obs.trace = &recorder;
        // Record the per-instance scoring spans ("family.instance", one
        // per sampled shape per evaluation) so `trace-report` can fold
        // where joint-scoring time goes.
        options.explore.obs.wallProfile = true;
    }
    if (print_metrics)
        options.explore.obs.metrics = &registry;

    std::printf("tuning family %s over %s in [%lld, %lld] on %s with %s "
                "(%d steps/bucket, %d samples)\n",
                family.name.c_str(), var.name.c_str(),
                (long long)var.lo, (long long)var.hi,
                target.deviceName().c_str(),
                methodName(options.method).c_str(), trials, samples);

    FamilyTuneReport report = tuneFamily(family, target, options);
    for (const FamilyBucketReport &bucket : report.buckets) {
        std::printf("bucket [%3lld, %3lld]  family %8.1f GFLOPS  "
                    "@hi %8.1f GFLOPS  %4d trials%s\n",
                    (long long)bucket.bucket.lo, (long long)bucket.bucket.hi,
                    bucket.familyGflops, bucket.repGflops, bucket.trials,
                    bucket.fallback ? "  (expert fallback)"
                    : bucket.valid  ? ""
                                    : "  (no valid schedule)");
    }
    std::printf("\n%zu buckets, %d total trials, space %.2e, table %s\n",
                report.buckets.size(), report.totalTrials, report.spaceSize,
                report.table.total() ? "total" : "PARTIAL");

    for (int64_t shape : lookups) {
        const DispatchEntry *found = report.table.find(shape);
        if (!found) {
            std::printf("lookup %lld -> no valid entry%s\n",
                        (long long)shape,
                        var.contains(shape) ? "" : " (outside the range)");
            continue;
        }
        const DispatchEntry &entry = *found;
        OpConfig adapted = entry.config;
        adaptSplitToExtent(adapted, family.dynamicAxis, shape);
        std::printf("lookup %lld -> bucket [%lld, %lld]  %.1f GFLOPS  %s\n",
                    (long long)shape, (long long)entry.lo,
                    (long long)entry.hi,
                    instanceGflopsFor(family, entry.config, shape, target),
                    serializeConfig(adapted).c_str());
    }

    if (!table_path.empty()) {
        // Journal format with an atomic rename: the file survives a
        // crash mid-write and TuningService reloads it on startup.
        if (report.table.saveToFile(table_path))
            std::printf("dispatch table -> %s\n", table_path.c_str());
        else
            warn("could not write dispatch table to ", table_path);
    }
    if (!trace_path.empty()) {
        if (recorder.writeFile(trace_path)) {
            std::printf("trace: %llu events -> %s\n",
                        (unsigned long long)recorder.eventCount(),
                        trace_path.c_str());
        } else {
            warn("could not write trace to ", trace_path);
        }
    }
    if (print_metrics)
        std::printf("\nmetrics:\n%s", registry.snapshot().toString().c_str());
    return 0;
}

/** `graph` subcommand: fusion-aware scheduling of a whole network. */
int
runGraph(int argc, char **argv)
{
    std::string network_name = "yolo", target_name = "v100";
    std::string method_name = "q", fuse_name = "graph";
    std::string trace_path, cache_path;
    int trials = 200;
    int64_t batch = 1;
    uint64_t seed = 0xc11;
    bool print_metrics = false;

    for (int i = 2; i < argc; ++i) {
        auto arg = [&](const char *flag) {
            if (std::strcmp(argv[i], flag) != 0)
                return false;
            if (i + 1 >= argc)
                fatal("missing value for ", flag);
            return true;
        };
        if (arg("--network")) {
            network_name = argv[++i];
        } else if (arg("--batch")) {
            batch = std::atoll(argv[++i]);
        } else if (arg("--fuse")) {
            fuse_name = argv[++i];
        } else if (arg("--target")) {
            target_name = argv[++i];
        } else if (arg("--method")) {
            method_name = argv[++i];
        } else if (arg("--trials")) {
            trials = std::atoi(argv[++i]);
        } else if (arg("--seed")) {
            seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg("--cache")) {
            cache_path = argv[++i];
        } else if (arg("--trace")) {
            trace_path = argv[++i];
        } else if (std::strcmp(argv[i], "--metrics") == 0) {
            print_metrics = true;
        } else {
            fatal("unknown argument '", argv[i], "' (see header comment)");
        }
    }

    Network net;
    if (network_name == "yolo") {
        net = yoloV1(batch);
    } else if (network_name == "overfeat") {
        net = overFeat(batch);
    } else {
        fatal("unknown --network '", network_name, "' (yolo|overfeat)");
    }

    E2eOptions options;
    if (fuse_name == "none") {
        options.fuse = FuseMode::None;
    } else if (fuse_name == "epilogue") {
        options.fuse = FuseMode::Epilogue;
    } else if (fuse_name == "graph") {
        options.fuse = FuseMode::Graph;
    } else {
        fatal("unknown --fuse '", fuse_name, "' (none|epilogue|graph)");
    }
    Target target = parseTarget(target_name);
    options.method = parseMethod(method_name);
    options.explore.trials = trials;
    options.explore.seed = seed;
    TuningCache cache;
    if (!cache_path.empty()) {
        cache.load(cache_path);
        options.cache = &cache;
    }
    TraceRecorder recorder;
    MetricsRegistry registry;
    if (!trace_path.empty())
        options.explore.obs.trace = &recorder;
    if (print_metrics)
        options.explore.obs.metrics = &registry;

    std::printf("scheduling %s (batch %lld) on %s with %s "
                "(%d steps, fuse=%s)\n",
                net.name.c_str(), (long long)batch,
                target.deviceName().c_str(),
                methodName(options.method).c_str(), trials,
                fuseModeName(options.fuse));

    NetworkReport report = scheduleNetwork(net, target, options);
    for (const LayerReport &layer : report.layers) {
        std::printf("%-24s %.3e s%s\n", layer.name.c_str(), layer.seconds,
                    layer.tuned ? "" : "  [bandwidth-bound]");
    }
    std::printf("\ntotal %.3e s across %zu groups "
                "(%.0f simulated explore seconds)\n",
                report.totalSeconds, report.layers.size(),
                report.simExploreSeconds);
    std::printf("modeled DRAM traffic %lld bytes (epilogue baseline "
                "%lld): %lld saved, %lld ephemeral bytes on chip\n",
                (long long)report.modeledTrafficBytes,
                (long long)report.baselineTrafficBytes,
                (long long)report.trafficSavedBytes,
                (long long)report.ephemeralBytes);

    if (!trace_path.empty()) {
        if (recorder.writeFile(trace_path)) {
            std::printf("trace: %llu events -> %s\n",
                        (unsigned long long)recorder.eventCount(),
                        trace_path.c_str());
        } else {
            warn("could not write trace to ", trace_path);
        }
    }
    if (print_metrics)
        std::printf("\nmetrics:\n%s", registry.snapshot().toString().c_str());
    if (!cache_path.empty() && !cache.save(cache_path))
        warn("could not write tuning cache to ", cache_path);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "graph") == 0)
        return runGraph(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "batch") == 0)
        return runService(/*from_stdin=*/false, argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "serve") == 0)
        return runService(/*from_stdin=*/true, argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "family") == 0)
        return runFamily(argc, argv);
    std::string op_name = "C2D", case_id, target_name = "v100";
    std::string method_name = "q", cache_path, checkpoint_path;
    std::string trace_path, cost_model_path;
    int trials = 200;
    uint64_t seed = 0xc11;
    double deadline = 0.0, prune_keep = 0.0;
    FaultProfile faults;
    bool with_baseline = false;
    bool emit_code = false;
    bool print_metrics = false;

    for (int i = 1; i < argc; ++i) {
        auto arg = [&](const char *flag) {
            if (std::strcmp(argv[i], flag) != 0)
                return false;
            if (i + 1 >= argc)
                fatal("missing value for ", flag);
            return true;
        };
        if (std::strcmp(argv[i], "--list") == 0) {
            listOperators();
            return 0;
        } else if (std::strcmp(argv[i], "--baseline") == 0) {
            with_baseline = true;
        } else if (std::strcmp(argv[i], "--emit") == 0) {
            emit_code = true;
        } else if (std::strcmp(argv[i], "--metrics") == 0) {
            print_metrics = true;
        } else if (arg("--trace")) {
            trace_path = argv[++i];
        } else if (arg("--op")) {
            op_name = argv[++i];
        } else if (arg("--case")) {
            case_id = argv[++i];
        } else if (arg("--target")) {
            target_name = argv[++i];
        } else if (arg("--method")) {
            method_name = argv[++i];
        } else if (arg("--trials")) {
            trials = std::atoi(argv[++i]);
        } else if (arg("--seed")) {
            seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg("--cache")) {
            cache_path = argv[++i];
        } else if (arg("--deadline")) {
            deadline = std::atof(argv[++i]);
        } else if (arg("--checkpoint")) {
            checkpoint_path = argv[++i];
        } else if (arg("--cost-model")) {
            cost_model_path = argv[++i];
        } else if (arg("--prune")) {
            prune_keep = std::atof(argv[++i]);
        } else if (arg("--inject-faults")) {
            faults = parseFaultsArg(argv[++i]);
        } else {
            fatal("unknown argument '", argv[i], "' (see --list / header)");
        }
    }
    if (prune_keep > 0.0 && cost_model_path.empty())
        fatal("--prune needs --cost-model");

    auto cases = ops::table3Cases(op_name);
    const ops::TestCase *chosen = &cases.front();
    for (const auto &tc : cases) {
        if (tc.id == case_id)
            chosen = &tc;
    }
    if (!case_id.empty() && chosen->id != case_id)
        fatal("unknown case '", case_id, "' for ", op_name);

    Target target = parseTarget(target_name);
    TuningCache cache;
    if (!cache_path.empty())
        cache.load(cache_path); // a missing file is fine on first run

    TuneOptions options;
    options.method = parseMethod(method_name);
    options.explore.trials = trials;
    options.explore.seed = seed;
    options.explore.deadlineSimSeconds = deadline;
    options.explore.checkpointPath = checkpoint_path;
    // Synchronous refits keep the single-op CLI deterministic: the
    // model trains inline at fixed trial counts instead of whenever a
    // background thread gets scheduled.
    CostModelOptions cost_model_options;
    cost_model_options.persistPath = cost_model_path;
    cost_model_options.syncRefit = true;
    CostModel cost_model(cost_model_options);
    if (!cost_model_path.empty()) {
        cost_model.load();
        options.explore.costModel = &cost_model;
        options.explore.prunerKeep = prune_keep;
    }
    FaultInjector injector(faults);
    if (faults.enabled())
        options.explore.resilience.injector = &injector;
    if (!cache_path.empty())
        options.cache = &cache;
    // Observation sinks are pure observers: attaching them never changes
    // the run's results (same RNG stream, same best schedule).
    TraceRecorder recorder;
    MetricsRegistry registry;
    if (!trace_path.empty())
        options.explore.obs.trace = &recorder;
    if (print_metrics)
        options.explore.obs.metrics = &registry;

    std::printf("tuning %s/%s on %s with %s (%d steps)\n", op_name.c_str(),
                chosen->id.c_str(), target.deviceName().c_str(),
                methodName(options.method).c_str(), trials);

    Tensor out = chosen->build();
    MiniGraph graph(out);
    std::printf("%s", toString(graph).c_str());
    TuneReport report = tune(out, target, options);

    std::printf("\nresult: %.1f GFLOPS (kernel %.3f ms)%s%s%s\n",
                report.gflops, report.kernelSeconds * 1e3,
                report.fromCache ? " [from cache]" : "",
                report.degraded ? " [degraded: deadline reached]" : "",
                report.resumed ? " [resumed from checkpoint]" : "");
    if (!report.fromCache) {
        std::printf("explored %d schedules of %.2e in %.0f simulated "
                    "seconds\n",
                    report.trials, report.spaceSize,
                    report.simExploreSeconds);
    }
    if (report.failures || report.timeouts || report.quarantined) {
        std::printf("faults: %llu failures, %llu retries, %llu timeouts, "
                    "%llu quarantined\n",
                    (unsigned long long)report.failures,
                    (unsigned long long)report.retries,
                    (unsigned long long)report.timeouts,
                    (unsigned long long)report.quarantined);
    }
    std::printf("schedule: %s\n", serializeConfig(report.config).c_str());

    if (!trace_path.empty()) {
        if (recorder.writeFile(trace_path)) {
            std::printf("trace: %llu events -> %s\n",
                        (unsigned long long)recorder.eventCount(),
                        trace_path.c_str());
        } else {
            warn("could not write trace to ", trace_path);
        }
    }
    if (print_metrics)
        std::printf("\nmetrics:\n%s", registry.snapshot().toString().c_str());

    if (with_baseline) {
        Library lib = baselineFor(op_name, target);
        LibraryResult base = libraryPerf(graph, lib, target);
        if (base.supported) {
            std::printf("baseline %s: %.1f GFLOPS -> speedup %.2fx\n",
                        libraryName(lib).c_str(), base.gflops,
                        report.gflops / base.gflops);
        } else {
            std::printf("baseline %s: unsupported for this operator\n",
                        libraryName(lib).c_str());
        }
    }

    if (emit_code) {
        // Lower the tuned schedule on the inlined graph and print the
        // generated source for the target kind. Emission is verified:
        // a schedule the static verifier rejects is refused rather than
        // printed as plausible-looking but illegal code.
        Tensor fused = inlineGraph(out);
        MiniGraph fused_graph(fused);
        Operation anchor = anchorOp(fused_graph);
        Scheduled lowered = generate(anchor, report.config, target);
        try {
            std::string code =
                emitVerified(lowered, target, op_name + "_kernel");
            std::printf("\n%s", code.c_str());
        } catch (const verify::VerifyError &err) {
            warn("refusing to emit illegal schedule: ", err.what());
            return 1;
        }
    }

    if (!cache_path.empty() && !cache.save(cache_path))
        warn("could not write tuning cache to ", cache_path);
    return 0;
}
