/**
 * @file
 * The search set-up stores: lowered anchors (graph::lowerAnchor) and
 * schedule spaces (buildSpaceObserved), each a process-wide SetupStore.
 *
 * What they pin:
 *  - a call answered from the stores reports and traces exactly what
 *    the call that filled them did, `space_build` spans included;
 *  - concurrent direct and TuningService DAG requests share the stores
 *    race-free (this suite runs under the TSan CI job) and each gets
 *    the answer of a call made alone;
 *  - the stores never hold more than kSetupStoreCapacity entries, and
 *    an evicted entry comes back identical;
 *  - two inputs share an entry only when every value the builder reads
 *    agrees;
 *  - concurrent misses on one key run one build, and a build that
 *    throws stores nothing.
 *
 * Each test lowers layers of its own (names and shapes no other test
 * uses), so its first call is cold in any test order.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/static_analyzer.h"
#include "dnn/network.h"
#include "explore/tuner.h"
#include "graph/dag.h"
#include "graph/lower.h"
#include "graph/schedule_dag.h"
#include "ir/printer.h"
#include "obs/trace.h"
#include "ops/ops.h"
#include "schedule/serialize.h"
#include "serve/service.h"
#include "space/builder.h"
#include "support/setup_store.h"

namespace ft {
namespace {

LayerSpec
convLayer(const std::string &name, int64_t channels, int64_t stride = 1)
{
    LayerSpec l;
    l.kind = LayerSpec::Kind::Conv;
    l.name = name;
    l.outChannels = channels;
    l.kernel = 3;
    l.stride = stride;
    l.padding = 1;
    return l;
}

/**
 * A small network whose every node is named after `tag`: two 3x3 convs
 * of one shape (one OpKey, so tuneDag reuses the first one's report), a
 * strided conv and a dense layer.
 */
graph::ComputeDag
probeDag(const std::string &tag, int64_t channels, int64_t image)
{
    Network net;
    net.name = tag;
    net.inputShape = {1, channels, image, image};
    net.layers = {convLayer(tag + ".c1", channels),
                  convLayer(tag + ".c2", channels),
                  convLayer(tag + ".c3", channels + 2, 2)};
    LayerSpec fc;
    fc.kind = LayerSpec::Kind::Dense;
    fc.name = tag + ".fc";
    fc.units = 10;
    net.layers.push_back(fc);
    return graph::dagFromNetwork(net);
}

/** Ids of the DAG's conv/dense nodes. */
std::vector<int>
anchorsOf(const graph::ComputeDag &dag)
{
    std::vector<int> ids;
    for (size_t i = 0; i < dag.nodes.size(); ++i)
        if (dag.nodes[i].isHeavy())
            ids.push_back(static_cast<int>(i));
    return ids;
}

/** Everything a TuneReport carries, floats in hexfloat. */
std::string
reportText(const TuneReport &r)
{
    std::ostringstream os;
    os << std::hexfloat << serializeConfig(r.config) << '|' << r.valid
       << '|' << r.gflops << '|' << r.kernelSeconds << '|'
       << r.simExploreSeconds << '|' << r.trials << '|' << r.spaceSize
       << '|' << r.device << '|' << r.fromCache << '|' << r.degraded
       << '|' << r.resumed;
    for (const auto &[sim, best] : r.curve)
        os << '|' << sim << ',' << best;
    return os.str();
}

std::string
dagReportText(const graph::DagTuneReport &r)
{
    std::ostringstream os;
    os << std::hexfloat << r.totalSeconds << '|' << r.simExploreSeconds
       << '|' << r.trafficBytes << '|' << r.ephemeralBytes;
    for (const graph::SubgraphReport &sub : r.groups)
        os << '\n' << sub.name << '|' << sub.reusedFrom << '|'
           << sub.seconds << '|' << reportText(sub.report);
    return os.str();
}

size_t
count(const std::string &text, const std::string &what)
{
    size_t n = 0;
    for (size_t at = text.find(what); at != std::string::npos;
         at = text.find(what, at + 1))
        ++n;
    return n;
}

TuneOptions
searchOptions(int trials, uint64_t seed)
{
    TuneOptions options;
    options.explore.trials = trials;
    options.explore.seed = seed;
    return options;
}

/** One traced tuneDag call: its report text and its trace text. */
std::pair<std::string, std::string>
tracedDag(const graph::ComputeDag &dag, const Target &target)
{
    TraceRecorder trace;
    TuneOptions options = searchOptions(6, 0x5707e);
    options.explore.obs.trace = &trace;
    const graph::DagTuneReport rep = graph::tuneDag(dag, target, options);
    return {dagReportText(rep), trace.toJsonl()};
}

/**
 * A cold call (every anchor lowered and every space built) and a warm
 * one (every anchor and space from the stores) give %a-equal reports
 * and byte-identical trace text, `space_build` spans included.
 */
TEST(SetupStore, ColdAndWarmCallsGiveIdenticalReportsAndTraces)
{
    for (const Target &target :
         {Target::forGpu(v100()), Target::forCpu(xeonE5())}) {
        SCOPED_TRACE(target.deviceName());
        const graph::ComputeDag dag = probeDag(
            "cold." + target.deviceName(),
            target.kind == DeviceKind::Gpu ? 13 : 11, 23);
        const auto cold = tracedDag(dag, target);
        const auto warm = tracedDag(dag, target);
        EXPECT_EQ(warm.first, cold.first);
        EXPECT_EQ(warm.second, cold.second);
        // One span per search: the repeated conv reuses a report.
        EXPECT_EQ(count(cold.second, "\"space_build\""),
                  2 * (anchorsOf(dag).size() - 1));
    }

    const Tensor gemm = ops::gemm(placeholder("cold.A", {37, 29}),
                                  placeholder("cold.B", {29, 41}));
    const Target target = Target::forGpu(v100());
    std::string traces[2], reports[2];
    for (int call = 0; call < 2; ++call) {
        TraceRecorder trace;
        TuneOptions options = searchOptions(12, 0x6e33);
        options.explore.obs.trace = &trace;
        reports[call] = reportText(tune(gemm, target, options));
        traces[call] = trace.toJsonl();
    }
    EXPECT_EQ(reports[1], reports[0]);
    EXPECT_EQ(traces[1], traces[0]);
    EXPECT_EQ(count(traces[0], "\"space_build\""), 2u);
}

/**
 * Four threads tune the same two DAGs at once, each both directly and
 * through one TuningService, in different orders, on fresh stores: the
 * direct calls race to fill the stores and share the search pool. Every
 * answer is the one a call made alone gives.
 */
TEST(SetupStoreConcurrency, TuneDagAlongsideServiceDagRequests)
{
    struct Job
    {
        graph::ComputeDag dag;
        Target target;
    };
    const std::vector<Job> jobs = {
        {probeDag("race.a", 7, 19), Target::forGpu(v100())},
        {probeDag("race.b", 5, 17), Target::forCpu(xeonE5())}};
    ServiceOptions serviceOptions;
    serviceOptions.evalThreads = 1;
    serviceOptions.requestThreads = 1;
    TuningService service(serviceOptions);

    constexpr int kThreads = 4;
    // [thread][job]: direct report and trace, service report.
    std::vector<std::vector<std::string>> direct(kThreads),
        directTrace(kThreads), served(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (size_t i = 0; i < jobs.size(); ++i) {
                const Job &job = jobs[(i + t) % jobs.size()];
                if (t % 2 == 0) {
                    auto [rep, trace] = tracedDag(job.dag, job.target);
                    direct[t].push_back(rep);
                    directTrace[t].push_back(trace);
                }
                served[t].push_back(dagReportText(service.tuneDag(
                    job.dag, job.target, searchOptions(6, 0x5707e))));
                if (t % 2 == 1) {
                    auto [rep, trace] = tracedDag(job.dag, job.target);
                    direct[t].push_back(rep);
                    directTrace[t].push_back(trace);
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (size_t j = 0; j < jobs.size(); ++j) {
        const auto solo = tracedDag(jobs[j].dag, jobs[j].target);
        for (int t = 0; t < kThreads; ++t) {
            const size_t i = (j + jobs.size() - t % jobs.size()) % jobs.size();
            EXPECT_EQ(direct[t][i], solo.first) << t;
            EXPECT_EQ(directTrace[t][i], solo.second) << t;
            EXPECT_EQ(served[t][i], solo.first) << t;
        }
    }
}

/**
 * Tuning more distinct anchors than the capacity leaves each store at
 * exactly its bound. The least recently used entries go first, so the
 * anchor tuned before all the others is rebuilt on its next use: a new
 * object, printed and searched exactly like the evicted one.
 */
TEST(SetupStore, StaysAtItsBoundAndEvictedEntriesRebuildIdentically)
{
    const Target target = Target::forGpu(v100());
    const graph::ComputeDag first = probeDag("evict", 6, 15);
    const int anchor = anchorsOf(first).front();
    const graph::LoweredAnchor held = graph::lowerAnchor(first, anchor);
    const Operation heldOp = anchorOp(MiniGraph(held.output));
    const auto heldSpace = buildSpaceObserved(heldOp, target, {}, {});
    const TuneOptions options = searchOptions(8, 0xe71c7);
    const TuneReport before = tune(held.output, target, options);

    TuneOptions quick = searchOptions(1, 1);
    quick.method = Method::Random;
    for (size_t i = 0; i < kSetupStoreCapacity + 4; ++i) {
        Network net;
        net.name = "evict.fill" + std::to_string(i);
        net.inputShape = {1, 16, 1, 1};
        LayerSpec fc;
        fc.kind = LayerSpec::Kind::Dense;
        fc.name = net.name;
        fc.units = static_cast<int64_t>(2 + i);
        net.layers = {fc};
        graph::tuneDag(graph::dagFromNetwork(net), target, quick);
    }
    EXPECT_EQ(graph::storedAnchors(), kSetupStoreCapacity);
    EXPECT_EQ(storedSpaces(), kSetupStoreCapacity);

    const graph::LoweredAnchor again = graph::lowerAnchor(first, anchor);
    EXPECT_NE(again.output.op().get(), held.output.op().get());
    EXPECT_EQ(toString(MiniGraph(again.output)),
              toString(MiniGraph(held.output)));
    const Operation againOp = anchorOp(MiniGraph(again.output));
    const auto againSpace = buildSpaceObserved(againOp, target, {}, {});
    EXPECT_NE(againSpace.get(), heldSpace.get());
    ASSERT_EQ(againSpace->numSubSpaces(), heldSpace->numSubSpaces());
    EXPECT_EQ(againSpace->numDirections(), heldSpace->numDirections());
    for (int s = 0; s < heldSpace->numSubSpaces(); ++s)
        EXPECT_EQ(againSpace->sub(s).size(), heldSpace->sub(s).size()) << s;
    EXPECT_EQ(reportText(tune(again.output, target, options)),
              reportText(before));
}

/**
 * Keys are complete. Lowering: DAGs that differ only in a conv's
 * padding or stride, an operand's name or an operand's shape never
 * share an IR, while the same layer in another DAG (other node ids)
 * does. Spaces: options that differ in any one SpaceOptions field, or
 * targets of another device kind, never share a space; equal inputs
 * do.
 */
TEST(SetupStore, KeysSeparateEveryInputTheBuildersRead)
{
    const graph::ComputeDag base = probeDag("keys", 4, 12);
    const int conv = anchorsOf(base).front();
    const Operation baseOp = graph::lowerAnchor(base, conv).output.op();
    auto lowered = [&](const graph::ComputeDag &dag) {
        return graph::lowerAnchor(dag, conv).output.op().get();
    };

    graph::ComputeDag shifted = base; // same layer, other node ids
    graph::DagNode spare;
    spare.kind = graph::NodeKind::Input;
    spare.name = "keys.spare";
    spare.shape = {1};
    shifted.nodes.insert(shifted.nodes.begin(), spare);
    for (graph::DagNode &n : shifted.nodes)
        for (int &in : n.inputs)
            ++in;
    EXPECT_EQ(graph::lowerAnchor(shifted, conv + 1).output.op().get(),
              baseOp.get());
    EXPECT_EQ(lowered(base), baseOp.get());

    const int data = base.nodes[conv].inputs[0];
    const int weight = base.nodes[conv].inputs[1];
    struct Variant
    {
        const char *what;
        void (*edit)(graph::ComputeDag &, int conv, int data, int weight);
    };
    const Variant variants[] = {
        {"padding",
         [](graph::ComputeDag &d, int c, int, int) { d.nodes[c].padding = 0; }},
        {"stride",
         [](graph::ComputeDag &d, int c, int, int) { d.nodes[c].stride = 2; }},
        {"data name",
         [](graph::ComputeDag &d, int, int in, int) {
             d.nodes[in].name += "'";
         }},
        {"weight name",
         [](graph::ComputeDag &d, int, int, int w) {
             d.nodes[w].name += "'";
         }},
        {"data shape",
         [](graph::ComputeDag &d, int, int in, int) {
             d.nodes[in].shape[3] += 1;
         }},
        {"weight shape",
         [](graph::ComputeDag &d, int, int, int w) {
             d.nodes[w].shape[0] += 1;
         }},
    };
    for (const Variant &v : variants) {
        graph::ComputeDag dag = base;
        v.edit(dag, conv, data, weight);
        EXPECT_NE(lowered(dag), baseOp.get()) << v.what;
    }

    const Target gpu = Target::forGpu(v100());
    const auto baseSpace = buildSpaceObserved(baseOp, gpu, {}, {});
    EXPECT_EQ(buildSpaceObserved(baseOp, gpu, {}, {}).get(),
              baseSpace.get());
    for (const Target &other :
         {Target::forCpu(xeonE5()), Target::forFpga(vu9p())})
        EXPECT_NE(buildSpaceObserved(baseOp, other, {}, {}).get(),
                  baseSpace.get())
            << other.deviceName();
    struct OptionVariant
    {
        const char *what;
        void (*edit)(SpaceOptions &);
    };
    const OptionVariant optionVariants[] = {
        {"templateRestricted",
         [](SpaceOptions &o) { o.templateRestricted = true; }},
        {"pow2Splits", [](SpaceOptions &o) { o.pow2Splits = true; }},
        {"exploreCacheAt", [](SpaceOptions &o) { o.exploreCacheAt = true; }},
        {"spatialExtentOverride",
         [](SpaceOptions &o) { o.spatialExtentOverride = {2}; }},
    };
    for (const OptionVariant &v : optionVariants) {
        SpaceOptions options;
        v.edit(options);
        EXPECT_NE(buildSpaceObserved(baseOp, gpu, options, {}).get(),
                  baseSpace.get())
            << v.what;
    }
}

/** A key for the store's own tests. */
struct IntKey
{
    int v = 0;
    bool operator==(const IntKey &) const = default;
    uint64_t hash() const { return static_cast<uint64_t>(v); }
};

/**
 * Threads that miss on one key at once run one build between them. The
 * builder holds on until every thread is inside it, or 300 ms pass: a
 * store whose concurrent misses each build runs four builds here; one
 * whose later misses wait on the in-flight entry runs one, and every
 * caller gets its object.
 */
TEST(SetupStore, ConcurrentMissesOnOneKeyBuildOnce)
{
    constexpr int kThreads = 4;
    SetupStore<IntKey, int> store(8);
    std::mutex mu;
    std::condition_variable cv;
    int inside = 0;
    std::atomic<int> builds{0};
    std::vector<SetupStore<IntKey, int>::Handle> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            got[t] = store.get(IntKey{7}, [&] {
                builds.fetch_add(1);
                std::unique_lock<std::mutex> lock(mu);
                ++inside;
                cv.notify_all();
                cv.wait_for(lock, std::chrono::milliseconds(300),
                            [&] { return inside == kThreads; });
                return 42;
            });
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(builds.load(), 1);
    for (const auto &handle : got) {
        ASSERT_NE(handle, nullptr);
        EXPECT_EQ(handle.get(), got[0].get());
        EXPECT_EQ(*handle, 42);
    }
    EXPECT_EQ(store.size(), 1u);
}

TEST(SetupStore, AThrowingBuildStoresNothing)
{
    SetupStore<IntKey, int> store(8);
    EXPECT_THROW(store.get(IntKey{1},
                           []() -> int { throw std::runtime_error("x"); }),
                 std::runtime_error);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(*store.get(IntKey{1}, [] { return 5; }), 5);
    EXPECT_EQ(store.size(), 1u);
}

TEST(SetupStore, EvictsTheLeastRecentlyUsedEntry)
{
    SetupStore<IntKey, int> store(2);
    int builds = 0;
    auto get = [&](int v) {
        return *store.get(IntKey{v}, [&] {
            ++builds;
            return v;
        });
    };
    get(1);
    get(2);
    get(1); // 2 is now the least recently used
    get(3);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(builds, 3);
    get(1);
    EXPECT_EQ(builds, 3);
    EXPECT_EQ(get(2), 2);
    EXPECT_EQ(builds, 4);
}

} // namespace
} // namespace ft
