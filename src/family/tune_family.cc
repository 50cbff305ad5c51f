#include "family/tune_family.h"

#include "analysis/verify/verify.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/library_model.h"
#include "support/logging.h"

namespace ft {

double
instanceGflopsFor(const ShapeFamily &family, const OpConfig &generic,
                  int64_t shape, const Target &target)
{
    OpConfig adapted = generic;
    adaptSplitToExtent(adapted, family.dynamicAxis, shape);
    Operation anchor = family.instanceAnchor(shape);
    Scheduled s = generate(anchor, adapted, target);
    verify::DiagReport diags;
    verify::verifyScheduleInto(s, target, &adapted, diags);
    if (diags.hasError())
        return 0.0;
    PerfResult perf = modelPerf(s.features, target);
    return perf.valid ? perf.gflops : 0.0;
}

verify::ScheduleCertificate
certifyFamilyInstance(const ShapeFamily &family, const OpConfig &generic,
                      int64_t shape, const Target &target)
{
    OpConfig adapted = generic;
    adaptSplitToExtent(adapted, family.dynamicAxis, shape);
    Operation anchor = family.instanceAnchor(shape);
    Scheduled s = generate(anchor, adapted, target);
    return verify::certifySchedule(s, target, &adapted);
}

namespace {

/** Whether `config` serves every shape of `bucket`. */
bool
servesBucket(const ShapeFamily &family, const OpConfig &config,
             const ShapeBucket &bucket, const Target &target)
{
    for (int64_t v = bucket.lo; v <= bucket.hi; ++v)
        if (instanceGflopsFor(family, config, v, target) <= 0.0)
            return false;
    return true;
}

/** Joint score of `config` over sampled shapes, each weighted by its
 *  value as tuneFamily weights the FamilyEvaluator's instances. */
double
jointGflops(const ShapeFamily &family, const OpConfig &config,
            const std::vector<int64_t> &shapes, const Target &target)
{
    double total_weight = 0.0, total = 0.0;
    for (int64_t v : shapes)
        total_weight += static_cast<double>(v);
    for (int64_t v : shapes)
        total += static_cast<double>(v) / total_weight *
                 instanceGflopsFor(family, config, v, target);
    return total;
}

} // namespace

FamilyTuneReport
tuneFamily(const ShapeFamily &family, const Target &target,
           const FamilyTuneOptions &options)
{
    FT_ASSERT(options.samplesPerBucket >= 1,
              "family tuning needs >= 1 sample per bucket");
    const ObsContext &obs = options.explore.obs;
    const std::vector<ShapeBucket> buckets = bucketsOf(family.var);

    if (obs.trace) {
        obs.trace->meta(
            "family_run",
            {tstr("family", family.name),
             tstr("device", target.deviceName()),
             tstr("method", methodName(options.method)),
             tint("seed", static_cast<int64_t>(options.explore.seed)),
             tint("buckets", static_cast<int64_t>(buckets.size())),
             tint("lo", family.var.lo), tint("hi", family.var.hi)});
    }

    // One shape-generic space built from the padded upper bound serves
    // every bucket: the dynamic axis's split sub-space enumerates
    // factors of nextPow2(hi), and per-instance overshoot lowers to a
    // guarded imperfect tile.
    const Operation generic = family.instanceAnchor(family.var.hi);
    SpaceOptions space_options;
    space_options.templateRestricted = options.method == Method::AutoTvm;
    space_options.spatialExtentOverride.assign(family.dynamicAxis + 1, 0);
    space_options.spatialExtentOverride[family.dynamicAxis] =
        nextPow2(family.var.hi);
    const std::shared_ptr<const ScheduleSpace> stored =
        buildSpaceObserved(generic, target, space_options, obs);
    const ScheduleSpace &space = *stored;

    if (obs.metrics)
        obs.metrics->counter("family.runs").add();
    // Every bucket's ExploreOptions copy carries the same CostModel
    // pointer, so trials from early (small-shape) buckets warm the
    // ranking that prunes and seeds the later ones.
    if (obs.metrics && options.explore.costModel)
        obs.metrics->counter("family.costmodel_shared").add();

    FamilyTuneReport report;
    report.table = DispatchTable(family.name, target.deviceName(), family.var);
    report.spaceSize = space.size();
    report.device = target.deviceName();

    // Bucket winners carry forward as seed points for later buckets:
    // neighboring buckets share most of their schedule structure, so a
    // warm start closes most of the gap to dedicated per-shape tuning
    // without extra trials.
    std::vector<Point> carried;
    for (size_t bi = 0; bi < buckets.size(); ++bi) {
        const ShapeBucket &bucket = buckets[bi];
        // Weight each sampled instance by its shape value: the dynamic
        // dimension scales the instance's FLOPs linearly, so the upper
        // end of a bucket dominates real execution time and the joint
        // score must not trade it away for the cheap small shapes.
        std::vector<std::pair<int64_t, double>> instances;
        for (int64_t value :
             sampleBucket(bucket, options.samplesPerBucket))
            instances.emplace_back(value, static_cast<double>(value));

        FamilyEvaluator eval(family, generic, space, target, instances);
        ExploreOptions bucket_explore = options.explore;
        // Decorrelate bucket searches; one family seed still pins the
        // whole run (fixed-seed family runs are bit-identical).
        bucket_explore.seed =
            options.explore.seed +
            static_cast<uint64_t>(bi) * 0x9e3779b97f4a7c15ULL;
        bucket_explore.seedPoints.insert(bucket_explore.seedPoints.end(),
                                         carried.begin(), carried.end());

        if (obs.trace)
            obs.trace->begin("family.bucket", report.simSeconds);
        ExploreResult result =
            explore(options.method, eval, bucket_explore);

        FamilyBucketReport bucket_report;
        bucket_report.bucket = bucket;
        bucket_report.config = space.decode(result.bestPoint);
        bucket_report.familyGflops = result.bestGflops;
        bucket_report.valid =
            result.bestGflops > kInvalidGflops &&
            servesBucket(family, bucket_report.config, bucket, target);
        bucket_report.trials = result.trialsUsed;
        bucket_report.simSeconds = result.simSeconds;

        report.totalTrials += result.trialsUsed;
        report.simSeconds += result.simSeconds;
        carried.push_back(result.bestPoint);
        if (obs.trace) {
            obs.trace->end("family.bucket", report.simSeconds,
                           {tint("lo", bucket.lo), tint("hi", bucket.hi),
                            treal("best", result.bestGflops),
                            tint("trials", result.trialsUsed)});
        }
        report.buckets.push_back(std::move(bucket_report));
    }

    // A failed bucket falls back to the expert config at its upper
    // shape when that serves every shape of it; only valid buckets enter
    // the dispatch table.
    for (FamilyBucketReport &b : report.buckets) {
        if (!b.valid) {
            OpConfig expert =
                expertConfig(family.instanceAnchor(b.bucket.hi), target);
            b.valid = b.fallback =
                servesBucket(family, expert, b.bucket, target);
            if (b.fallback) {
                b.config = std::move(expert);
                b.familyGflops = jointGflops(
                    family, b.config,
                    sampleBucket(b.bucket, options.samplesPerBucket), target);
            }
        }
        b.repGflops =
            instanceGflopsFor(family, b.config, b.bucket.hi, target);
        if (options.certify) {
            b.certificate = std::make_shared<verify::ScheduleCertificate>(
                certifyFamilyInstance(family, b.config, b.bucket.hi, target));
        }
        if (b.valid) {
            report.table.addEntry({b.bucket.lo, b.bucket.hi, b.config,
                                   b.familyGflops, b.trials});
        }
    }

    if (obs.trace) {
        obs.trace->point(
            "family.report", report.simSeconds,
            {tint("buckets", static_cast<int64_t>(buckets.size())),
             tint("trials", report.totalTrials),
             tbool("total", report.table.total())});
    }
    if (obs.metrics)
        obs.metrics->counter("family.buckets_tuned")
            .add(static_cast<uint64_t>(buckets.size()));

    inform("tuned family ", family.name, " on ", report.device, " with ",
           methodName(options.method), ": ", buckets.size(),
           " buckets over [", family.var.lo, ", ", family.var.hi, "], ",
           report.totalTrials, " total trials");
    return report;
}

} // namespace ft
