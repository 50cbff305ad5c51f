#include "serve/request_key.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "support/fault_injector.h"
#include "support/hash.h"
#include "support/logging.h"

namespace ft {

RequestKey::RequestKey(Subject subject, const std::string &device)
{
    word(static_cast<uint64_t>(subject));
    text(device);
}

RequestKey &
RequestKey::word(uint64_t v)
{
    for (int b = 0; b < 8; ++b)
        bytes_.push_back(static_cast<char>((v >> (b * 8)) & 0xffu));
    return *this;
}

RequestKey &
RequestKey::real(double v)
{
    if (v == 0.0)
        v = 0.0;
    else if (std::isnan(v))
        v = std::numeric_limits<double>::quiet_NaN();
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return word(bits);
}

RequestKey &
RequestKey::text(const std::string &s)
{
    word(s.size());
    bytes_ += s;
    return *this;
}

RequestKey &
RequestKey::fields(const ExploreOptions &e)
{
    // evalPool and obs are left out: a service runs every request on
    // its own pool (whose size is the simulated measurement width), and
    // sinks never change a result.
    word(e.trials).word(e.startingPoints).word(e.warmupPoints);
    real(e.saGamma).word(e.trainEvery).word(e.seed);
    word(e.seedPoints.size());
    for (const Point &p : e.seedPoints) {
        word(p.idx.size());
        for (int64_t v : p.idx)
            word(v);
    }
    real(e.targetGflops);
    // A disabled injector is a transparent layer, like no injector.
    const ResilienceOptions &r = e.resilience;
    const bool faults = r.injector && r.injector->profile().enabled();
    word(faults);
    if (faults) {
        const FaultProfile &f = r.injector->profile();
        real(f.transient).real(f.permanent).real(f.timeout).real(f.outlier);
        word(f.transientFailures).real(f.hangSeconds).real(f.outlierScale);
        word(f.seed);
    }
    word(r.maxRetries).real(r.backoffBaseSeconds);
    real(r.trialDeadlineSeconds).word(r.repeats);
    real(e.deadlineSimSeconds);
    text(e.checkpointPath).word(e.checkpointEveryTrials);
    word(e.costModel != nullptr).real(e.prunerKeep);
    return *this;
}

RequestKey &
RequestKey::fields(const TuneOptions &o)
{
    word(static_cast<uint64_t>(o.method));
    word(o.certify).word(o.cache != nullptr);
    return fields(o.explore);
}

RequestKey &
RequestKey::fields(const FamilyTuneOptions &o)
{
    word(static_cast<uint64_t>(o.method)).word(o.samplesPerBucket);
    word(o.certify);
    return fields(o.explore);
}

void
RequestKey::seal()
{
    hash_ = fnv1a64(bytes_);
}

RequestKey
RequestKey::op(const Operation &anchor, const Target &target,
               const TuneOptions &options)
{
    FT_ASSERT(!anchor->isPlaceholder(), "request key of placeholder");
    RequestKey key(Subject::Op, target.deviceName());
    key.word(anchor->key()).fields(options).seal();
    return key;
}

RequestKey
RequestKey::dag(const graph::ComputeDag &dag, const Target &target,
                const TuneOptions &options)
{
    RequestKey key(Subject::Dag, target.deviceName());
    key.text(dag.spec()).fields(options).seal();
    return key;
}

RequestKey
RequestKey::family(const ShapeFamily &family, const Target &target,
                   const FamilyTuneOptions &options)
{
    const ShapeVar &v = family.var;
    RequestKey key(Subject::Family, target.deviceName());
    key.text(family.name).text(v.name).word(v.lo).word(v.hi);
    key.word(static_cast<uint64_t>(v.bucketing)).word(v.bucketWidth);
    key.word(family.dynamicAxis).fields(options).seal();
    return key;
}

RequestKey
RequestKey::dispatch(const std::string &familyName, const std::string &device)
{
    RequestKey key(Subject::Dispatch, device);
    key.text(familyName).seal();
    return key;
}

} // namespace ft
