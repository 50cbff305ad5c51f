/**
 * @file
 * The two benchmark workloads and their output checks.
 *
 *  - dnn_graph: whole-network graph-level scheduling through
 *               graph::tuneDag() (partition + per-group tuning) of the
 *               §6.6 networks.
 *  - serve_mix: closed-loop clients that each schedule a network layer
 *               by layer through TuningService's admission-controlled
 *               path, as scheduleNetwork() issues its requests.
 *
 * Inputs are the paper's own networks at batch 1 (dnn/models.h:
 * YOLO-v1 at 448x448, OverFeat at 231x231), each on the V100 and the
 * Xeon model, the same for every seed: the seed varies request order and
 * search seeds, not the amount of work, so runs with different seeds
 * compare.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <thread>

#include "analysis/flops.h"
#include "analysis/verify/certificate.h"
#include "bench.h"
#include "dnn/models.h"
#include "dnn/network.h"
#include "exec/interpreter.h"
#include "exec/reference.h"
#include "graph/lower.h"
#include "graph/partition.h"
#include "graph/schedule_dag.h"
#include "schedule/generator.h"
#include "serve/service.h"
#include "support/rng.h"

namespace perfbench {

using namespace ft;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

/** Exploration steps per operator search. */
constexpr int kOpTrials = 20;
/** Exploration steps per fusion-group anchor inside a DAG search. */
constexpr int kGraphTrials = 8;
/**
 * Closed-loop clients driving the service. Two clients plus two
 * measurement workers stay within four cores, so the figures measure
 * the service rather than the OS scheduler.
 */
constexpr int kServeClients = 2;
/**
 * Largest anchor (in FLOPs) whose tuned schedule is also run in the
 * reference interpreter, which manages about 10 MFLOP/s. Only OverFeat's
 * last dense layer (8.2 MFLOP) fits; every other layer (1.2e7-7.4e9
 * FLOPs) rests on the static equivalence certificate alone.
 */
constexpr double kInterpreterFlops = 1e7;

/** Adapter so std::shuffle can draw from the repository RNG. */
struct RngUrbg
{
    Rng &rng;
    using result_type = uint64_t;
    static constexpr uint64_t min() { return 0; }
    static constexpr uint64_t max() { return ~uint64_t(0); }
    uint64_t operator()() { return rng.next(); }
};

/** The §6.6 networks, batch 1, as the paper evaluates them. */
std::vector<Network>
networks()
{
    return {yoloV1(1), overFeat(1)};
}

/** The V100 model for t == 0, the Xeon model otherwise. */
Target
device(size_t t)
{
    return t == 0 ? Target::forGpu(v100()) : Target::forCpu(xeonE5());
}

/** Every schedulable layer of a network, as an operator to tune. */
std::vector<Tensor>
layerOps(const Network &net)
{
    std::vector<Tensor> ops;
    for (const FusedOp &op : partitionAndFuse(net))
        if (op.schedulable)
            ops.push_back(op.output);
    return ops;
}

/** Shapes of every input of a layer's graph, as one string. */
std::string
inputShapes(const Tensor &out)
{
    std::string shapes;
    MiniGraph graph(out);
    for (const auto &op : graph.postOrder()) {
        if (!op->isPlaceholder())
            continue;
        for (int64_t d : op->outputShape())
            shapes += std::to_string(d) + ",";
        shapes += ";";
    }
    return shapes;
}

/** Q-method search options; `obs` carries the profiling sinks. */
TuneOptions
searchOptions(int trials, uint64_t seed, const ObsContext &obs)
{
    TuneOptions options;
    options.method = Method::QMethod;
    options.explore.trials = trials;
    options.explore.seed = seed;
    options.explore.obs = obs;
    return options;
}

/**
 * Inputs whose elements are small integers: every partial sum of the
 * layers checked in the interpreter stays exactly representable in fp32,
 * so a legal schedule reproduces the reference bit-for-bit in any order.
 */
BufferMap
integerInputs(const MiniGraph &graph, uint64_t seed)
{
    BufferMap buffers;
    Rng rng(seed);
    for (const auto &op : graph.postOrder()) {
        if (!op->isPlaceholder())
            continue;
        Buffer buf(op);
        for (int64_t i = 0; i < buf.numel(); ++i)
            buf[i] = static_cast<float>(static_cast<int64_t>(rng.below(7)) - 3);
        buffers.emplace(op.get(), std::move(buf));
    }
    return buffers;
}

/**
 * Check one tuned operator: the schedule re-scores to the reported
 * value, its lowered nest is certified equivalent to the reference
 * program, and for anchors up to kInterpreterFlops running it in the
 * interpreter reproduces the reference output bit-for-bit.
 */
bool
checkOpSchedule(const Tensor &out, const Target &target,
                const TuneReport &report, std::string &why)
{
    MiniGraph graph(out);
    Operation anchor = anchorOp(graph);
    const std::string what = anchor->name() + " on " + target.deviceName();
    Scheduled sched = generate(anchor, report.config, target);
    PerfResult perf = modelPerf(sched.features, target);
    if (!perf.valid || perf.seconds != report.kernelSeconds ||
        !(report.gflops > kInvalidGflops)) {
        why = what + ": reported schedule does not re-score to its report";
        return false;
    }
    const verify::ScheduleCertificate cert =
        verify::certifySchedule(sched, target, &report.config);
    if (!cert.equivalent()) {
        why = what + ": tuned schedule is not certified equivalent (" +
              verify::verdictName(cert.verdict) + ")";
        return false;
    }
    if (anchorFlops(graph) > kInterpreterFlops)
        return true;
    BufferMap reference = integerInputs(graph, 0x5eed);
    runGraphReference(graph, reference);
    BufferMap run = reference;
    run.erase(anchor.get());
    runScheduled(sched.nest, run, 1);
    const Buffer &gold = reference.at(anchor.get());
    const Buffer &got = run.at(anchor.get());
    for (int64_t i = 0; i < gold.numel(); ++i) {
        if (got[i] != gold[i]) {
            why = what + ": tuned schedule differs from the reference at "
                         "element " + std::to_string(i);
            return false;
        }
    }
    return true;
}

bool
sameReport(const TuneReport &a, const TuneReport &b)
{
    return serializeConfig(a.config) == serializeConfig(b.config) &&
           a.gflops == b.gflops;
}

bool
sameDagReport(const graph::DagTuneReport &a, const graph::DagTuneReport &b)
{
    if (a.totalSeconds != b.totalSeconds || a.groups.size() != b.groups.size())
        return false;
    for (size_t g = 0; g < a.groups.size(); ++g)
        if (!sameReport(a.groups[g].report, b.groups[g].report))
            return false;
    return true;
}

/**
 * Check one tuned DAG: the partition satisfies the partitioner's
 * invariants and is certified, the group times add up, and every tuned
 * anchor passes checkOpSchedule.
 */
bool
checkDagSchedule(const DagJob &job, const graph::DagTuneReport &report,
                 std::string &why)
{
    using namespace graph;
    if (!checkPartition(job.dag, report.partition, job.target, &why))
        return false;
    if (!verify::certifyPartition(job.dag, report.partition, job.target)
             .equivalent()) {
        why = job.dag.name + ": partition is not certified";
        return false;
    }
    double sum = 0.0;
    for (const SubgraphReport &sub : report.groups) {
        sum += sub.seconds;
        if (sub.tuned &&
            !checkOpSchedule(lowerAnchor(job.dag, sub.anchor).output,
                             job.target, sub.report, why))
            return false;
    }
    if (std::abs(sum - report.totalSeconds) > 1e-9 * report.totalSeconds) {
        why = job.dag.name + ": group times do not add up to the total";
        return false;
    }
    return true;
}

/** Wall profiling into `registry` when profiling, else no sinks. */
ObsContext
profilingObs(MetricsRegistry *registry, bool profile)
{
    ObsContext obs;
    if (profile) {
        obs.metrics = registry;
        obs.wallProfile = true;
    }
    return obs;
}

/* ------------------------------------------------------------------ */

/**
 * One request schedules the whole §6.6 deployment: both networks on both
 * devices, in seeded order, with one search seed. A request per network
 * would split the latencies evenly between OverFeat (~20 ms) and
 * YOLO-v1 (~200 ms), which puts the median on the gap between them.
 */
class DnnGraph : public Workload
{
  public:
    DnnGraph(uint64_t seed, bool profile)
        : rng_(seed), obs_(profilingObs(&registry_, profile))
    {
    }

    void setup() override
    {
        for (const Network &net : networks())
            for (size_t t = 0; t < 2; ++t)
                jobs_.push_back({graph::dagFromNetwork(net), device(t)});
        std::shuffle(jobs_.begin(), jobs_.end(), RngUrbg{rng_});
        for (const DagJob &job : jobs_)
            graph::tuneDag(job.dag, job.target,
                           searchOptions(kGraphTrials, 0x3a7, obs_));
        last_.assign(jobs_.size(), {});
    }

    void measure(double seconds, MeasureStats &stats) override
    {
        const double start = nowSeconds();
        while (nowSeconds() - start < seconds) {
            const TuneOptions options =
                searchOptions(kGraphTrials, rng_.next(), obs_);
            const double t0 = nowSeconds();
            for (size_t d = 0; d < jobs_.size(); ++d) {
                graph::DagTuneReport report =
                    graph::tuneDag(jobs_[d].dag, jobs_[d].target, options);
                for (const graph::SubgraphReport &sub : report.groups)
                    stats.trials += static_cast<uint64_t>(sub.report.trials);
                last_[d] = {options.explore.seed, std::move(report)};
            }
            stats.latencyMs.push_back((nowSeconds() - t0) * 1e3);
            ++stats.attempted;
        }
        stats.wallSeconds = nowSeconds() - start;
    }

    bool check(std::string &why) override
    {
        for (size_t d = 0; d < jobs_.size(); ++d) {
            if (!last_[d].report)
                continue;
            const DagJob &job = jobs_[d];
            const graph::DagTuneReport &report = *last_[d].report;
            if (!checkDagSchedule(job, report, why))
                return false;
            if (d == 0 &&
                !sameDagReport(graph::tuneDag(job.dag, job.target,
                                              searchOptions(kGraphTrials,
                                                            last_[d].seed,
                                                            {})),
                               report)) {
                why = "dnn_graph: a repeated search with the same seed "
                      "produced a different schedule";
                return false;
            }
        }
        return true;
    }

    void record(ReplayLog &log) const override
    {
        for (size_t d = 0; d < jobs_.size(); ++d) {
            if (!last_[d].report)
                continue;
            const DagJob &job = jobs_[d];
            log.dags.push_back(job);
            for (const graph::SubgraphReport &sub : last_[d].report->groups) {
                if (!sub.tuned)
                    continue;
                MiniGraph mini(graph::lowerAnchor(job.dag, sub.anchor).output);
                log.spaces.emplace_back(anchorOp(mini), job.target);
            }
        }
    }

    MetricsSnapshot counters() const override { return registry_.snapshot(); }

  private:
    struct LastResult
    {
        uint64_t seed = 0;
        std::optional<graph::DagTuneReport> report;
    };

    Rng rng_;
    MetricsRegistry registry_;
    ObsContext obs_;
    std::vector<DagJob> jobs_;
    std::vector<LastResult> last_;
};

/* ------------------------------------------------------------------ */

/**
 * Closed loop of kServeClients clients. Each client schedules one
 * network on one device per pass, in seeded order, the way
 * scheduleNetwork() does: one admitted request per schedulable layer,
 * in layer order, all with the pass's search seed. The report cache
 * answers exactly the layers that repeat an earlier layer's shape in the
 * same pass (8 of the 24 YOLO-v1 layers served, none of OverFeat's 8);
 * every other request is a full search. Repeats must get the first
 * answer, and the last pass of each client must match direct searches.
 */
class ServeMix : public Workload
{
  public:
    ServeMix(uint64_t seed, bool profile)
        : rng_(seed), obs_(profilingObs(nullptr, profile))
    {
    }

    void setup() override
    {
        // TuningService keys its report cache by operator name and output
        // and reduction extents, not input shapes, so YOLO-v1's stride-2
        // conv22 and the stride-1 conv23/conv24 share one entry and the
        // service answers conv23 with conv22's schedule. A layer whose
        // key an earlier, different layer already holds is left out.
        for (const Network &net : networks()) {
            for (size_t t = 0; t < 2; ++t) {
                NetJob job{net.name, {}, device(t), {}};
                std::map<std::string, std::string> shapesOfKey;
                for (const Tensor &op : layerOps(net)) {
                    MiniGraph graph(op);
                    const std::string key = tuningKeyFor(
                        anchorOp(graph), job.target.deviceName());
                    const auto [it, fresh] =
                        shapesOfKey.emplace(key, inputShapes(op));
                    if (!fresh && it->second != inputShapes(op))
                        continue;
                    job.layers.push_back(op);
                    job.keys.push_back(key);
                }
                jobs_.push_back(std::move(job));
            }
        }
        std::shuffle(jobs_.begin(), jobs_.end(), RngUrbg{rng_});

        ServiceOptions options;
        options.evalThreads = 2;
        options.requestThreads = 1;
        // Admission sees every request but never sheds: no deadlines,
        // and the queue bound and brownout depth sit far above the
        // client count.
        options.admission.maxQueueDepth = 1024;
        options.admission.brownoutDepth = 1024;
        service_ = std::make_unique<TuningService>(options);

        // Warm the pools, the admission controller and the report cache
        // with one pass per job at a search seed no client draws.
        ClientLog warm;
        for (const NetJob &job : jobs_)
            runPass(job, 0x3a7, 0.0, 1e300, warm);
        evaluationsAtStart_ = service_->stats().evaluations;
    }

    void measure(double seconds, MeasureStats &stats) override
    {
        logs_.assign(kServeClients, {});
        std::vector<std::thread> clients;
        const double start = nowSeconds();
        for (int c = 0; c < kServeClients; ++c) {
            Rng rng(rng_.next());
            clients.emplace_back([this, rng, c, start, seconds]() mutable {
                for (size_t pass = c; nowSeconds() - start < seconds; ++pass)
                    runPass(jobs_[pass % jobs_.size()], rng.next(), start,
                            seconds, logs_[c]);
            });
        }
        for (std::thread &t : clients)
            t.join();
        stats.wallSeconds = nowSeconds() - start;

        for (const ClientLog &log : logs_) {
            stats.latencyMs.insert(stats.latencyMs.end(),
                                   log.latencyMs.begin(),
                                   log.latencyMs.end());
            stats.attempted += log.attempted;
            stats.failed += log.failed;
        }
        stats.trials = service_->stats().evaluations - evaluationsAtStart_;
    }

    bool check(std::string &why) override
    {
        for (const ClientLog &log : logs_) {
            if (!log.mismatch.empty()) {
                why = "serve_mix: " + log.mismatch;
                return false;
            }
            // A served answer must be what a direct search finds.
            for (const auto &[layer, report] : log.lastPass) {
                const Tensor &op = log.lastJob->layers[layer];
                const Target &target = log.lastJob->target;
                TuneReport direct = tune(
                    op, target, searchOptions(kOpTrials, log.lastSeed, {}));
                if (!sameReport(report, direct)) {
                    why = "serve_mix: a served answer differs from a direct "
                          "search with the same options";
                    return false;
                }
                if (!checkOpSchedule(op, target, direct, why))
                    return false;
            }
        }
        return true;
    }

    void record(ReplayLog &log) const override
    {
        for (const NetJob &job : jobs_) {
            for (const Tensor &op : job.layers) {
                MiniGraph graph(op);
                log.spaces.emplace_back(anchorOp(graph), job.target);
            }
        }
        for (const ClientLog &client : logs_)
            log.admissionKeys.insert(log.admissionKeys.end(),
                                     client.keys.begin(), client.keys.end());
    }

    MetricsSnapshot counters() const override
    {
        return service_->stats().metrics;
    }

  private:
    struct NetJob
    {
        std::string name;
        std::vector<Tensor> layers;
        Target target;
        /** Admission key of each layer. */
        std::vector<std::string> keys;
    };

    /** One client's results. */
    struct ClientLog
    {
        std::vector<double> latencyMs;
        uint64_t attempted = 0;
        uint64_t failed = 0;
        std::vector<std::string> keys;
        std::string mismatch;
        /** The latest pass: its job, seed and served (layer, report)s. */
        const NetJob *lastJob = nullptr;
        uint64_t lastSeed = 0;
        std::vector<std::pair<size_t, TuneReport>> lastPass;
    };

    /** Schedule `job` layer by layer; stops early when time runs out. */
    void runPass(const NetJob &job, uint64_t seed, double start,
                 double seconds, ClientLog &log)
    {
        log.lastJob = &job;
        log.lastSeed = seed;
        log.lastPass.clear();
        std::map<std::string, size_t> firstOfKey;
        for (size_t i = 0; i < job.layers.size(); ++i) {
            if (nowSeconds() - start >= seconds)
                return;
            const double t0 = nowSeconds();
            AdmittedReport answer = service_->tuneAdmitted(
                job.layers[i], job.target,
                searchOptions(kOpTrials, seed, obs_));
            log.latencyMs.push_back((nowSeconds() - t0) * 1e3);
            ++log.attempted;
            log.keys.push_back(job.keys[i]);
            if (!answer.served()) {
                ++log.failed;
                continue;
            }
            const auto [it, first] =
                firstOfKey.emplace(job.keys[i], log.lastPass.size());
            if (!first && !sameReport(log.lastPass[it->second].second,
                                      *answer.report))
                log.mismatch = job.name + ": a repeated layer got another "
                                          "answer";
            log.lastPass.emplace_back(i, std::move(*answer.report));
        }
    }

    Rng rng_;
    ObsContext obs_;
    uint64_t evaluationsAtStart_ = 0;
    std::vector<NetJob> jobs_;
    std::unique_ptr<TuningService> service_;
    std::vector<ClientLog> logs_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed, bool profile)
{
    if (name == "dnn_graph")
        return std::make_unique<DnnGraph>(seed, profile);
    if (name == "serve_mix")
        return std::make_unique<ServeMix>(seed, profile);
    return nullptr;
}

} // namespace perfbench
