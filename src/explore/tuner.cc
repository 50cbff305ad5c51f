#include "explore/tuner.h"

#include <limits>
#include <unordered_map>

#include "analysis/static_analyzer.h"
#include "analysis/verify/certificate.h"
#include "analysis/verify/verify.h"
#include "explore/checkpoint.h"
#include "ir/inline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/library_model.h"
#include "support/logging.h"

namespace ft {

namespace {

/**
 * Certify the winning schedule and attach the result (TuneOptions::
 * certify). Observation-only: runs after the search is fully decided.
 */
void
attachCertificate(TuneReport &report, const Scheduled &s,
                  const Target &target, const TuneOptions &options,
                  double sim)
{
    if (!options.certify)
        return;
    auto cert = std::make_shared<verify::ScheduleCertificate>(
        verify::certifySchedule(s, target, &report.config));
    const ObsContext &obs = options.explore.obs;
    if (obs.trace) {
        obs.trace->point(
            "certificate", sim,
            {tstr("op", cert->op),
             tstr("verdict", verify::verdictName(cert->verdict)),
             tint("obligations",
                  static_cast<int64_t>(cert->obligations.size())),
             tint("refuted", cert->count(verify::Verdict::Refuted)),
             tint("unknown", cert->count(verify::Verdict::Unknown))});
    }
    report.certificate = std::move(cert);
}

} // namespace

void
certifyReport(TuneReport &report, const Tensor &output, const Target &target,
              const TuneOptions &options, double sim)
{
    if (!options.certify)
        return;
    MiniGraph graph(output);
    attachCertificate(report,
                      generate(anchorOp(graph), report.config, target),
                      target, options, sim);
}

TuneReport
cachedReport(const OpConfig &config, double gflops, double kernelSeconds,
             double spaceSize, const std::string &device)
{
    TuneReport report;
    report.config = config;
    report.valid = true;
    report.gflops = gflops;
    report.kernelSeconds = kernelSeconds;
    report.spaceSize = spaceSize;
    report.device = device;
    report.fromCache = true;
    return report;
}

std::optional<double>
expertKernelSeconds(const Operation &anchor, const Target &target)
{
    const Scheduled s =
        generate(anchor, expertConfig(anchor, target), target);
    const PerfResult perf = modelPerf(s.features, target);
    if (!perf.valid)
        return std::nullopt;
    return perf.seconds;
}

TuneReport
tuneOp(const Operation &anchor, const Target &target,
       const TuneOptions &options)
{
    const ObsContext &obs = options.explore.obs;
    if (obs.trace) {
        obs.trace->meta(
            "run",
            {tstr("op", anchor->name()),
             tstr("device", target.deviceName()),
             tstr("method", methodName(options.method)),
             tint("seed", static_cast<int64_t>(options.explore.seed)),
             tint("trials", options.explore.trials)});
    }
    SpaceOptions space_options;
    space_options.templateRestricted = options.method == Method::AutoTvm;
    const std::shared_ptr<const ScheduleSpace> stored =
        buildSpaceObserved(anchor, target, space_options, obs);
    const ScheduleSpace &space = *stored;
    if (obs.metrics)
        obs.metrics->counter("tuner.runs").add();

    const uint64_t key = workloadKey(anchor, target.deviceName());
    if (options.cache) {
        if (auto hit = options.cache->lookup(key)) {
            if (auto point = space.pointOf(hit->config)) {
                Scheduled s = generate(anchor, hit->config, target);
                PerfResult perf = modelPerf(s.features, target);
                if (perf.valid) {
                    TuneReport report =
                        cachedReport(hit->config, perf.gflops, perf.seconds,
                                     space.size(), target.deviceName());
                    if (obs.trace) {
                        obs.trace->point("report", 0.0,
                                         {treal("best", report.gflops),
                                          tint("trials", 0),
                                          tbool("cached", true)});
                    }
                    if (obs.metrics)
                        obs.metrics->counter("tuner.cache_hits").add();
                    attachCertificate(report, s, target, options, 0.0);
                    return report;
                }
            }
        }
    }

    Evaluator eval(anchor, space, target);
    ExploreResult result = explore(options.method, eval, options.explore);

    TuneReport report;
    report.config = space.decode(result.bestPoint);
    report.gflops = result.bestGflops;
    Scheduled s = generate(anchor, report.config, target);
    PerfResult perf = modelPerf(s.features, target);
    // The best point is a schedule only if the verifier and the model
    // both accept it; a search where every trial was rejected has none.
    report.valid =
        perf.valid &&
        !verify::verifySchedule(s, target, &report.config).hasError();
    report.kernelSeconds = report.valid ? perf.seconds : 0.0;
    report.simExploreSeconds = result.simSeconds;
    report.trials = result.trialsUsed;
    report.spaceSize = space.size();
    report.device = target.deviceName();
    report.curve = std::move(result.curve);
    report.degraded = result.deadlineExceeded;
    report.resumed = result.resumed;
    report.failures = result.failures;
    report.retries = result.retries;
    report.timeouts = result.timeouts;
    report.quarantined = result.quarantined;

    if (options.cache && report.valid)
        options.cache->put({key, report.config, report.gflops});
    attachCertificate(report, s, target, options, result.simSeconds);

    if (obs.trace) {
        obs.trace->point("report", result.simSeconds,
                         {treal("best", report.gflops),
                          tint("trials", report.trials),
                          tbool("degraded", report.degraded),
                          tbool("resumed", report.resumed),
                          tbool("cached", false)});
    }
    if (obs.metrics && report.degraded)
        obs.metrics->counter("tuner.degraded_reports").add();

    inform("tuned ", anchor->name(), " on ", report.device, " with ",
           methodName(options.method), ": ", report.gflops,
           " GFLOPS after ", report.trials, " trials",
           report.degraded ? " (degraded: deadline reached)" : "");
    return report;
}

TuneReport
tune(const Tensor &output, const Target &target, const TuneOptions &options)
{
    MiniGraph graph(output);
    return tuneOp(anchorOp(graph), target, options);
}

GraphTuneReport
tuneGraph(const Tensor &root, const Target &target,
          const TuneOptions &options)
{
    // Fuse elementwise helpers into their consumers first, then schedule
    // every remaining node bottom-up (Algorithm 1).
    Tensor fused_root = inlineGraph(root);
    GraphTuneReport report;
    TuneOptions node_options = options;
    std::unordered_map<uint64_t, int> searches; // per workloadKey
    for (const auto &op : postOrderTraverse(fused_root)) {
        if (op->isPlaceholder() || op->isConstant())
            continue;
        // Each node snapshots to and resumes from a file of its own.
        if (!options.explore.checkpointPath.empty()) {
            const uint64_t key = workloadKey(op, target.deviceName());
            node_options.explore.checkpointPath = searchCheckpointPath(
                options.explore.checkpointPath, key, searches[key]++);
        }
        TuneReport node_report = tuneOp(op, target, node_options);
        double kernel = node_report.kernelSeconds;
        if (!node_report.valid) {
            ++report.fallbackNodes;
            kernel = expertKernelSeconds(op, target)
                         .value_or(std::numeric_limits<double>::infinity());
        }
        report.totalKernelSeconds += kernel;
        report.simExploreSeconds += node_report.simExploreSeconds;
        report.nodes.emplace_back(op->name(), std::move(node_report));
    }
    return report;
}

} // namespace ft
