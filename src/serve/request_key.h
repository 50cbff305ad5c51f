/**
 * @file
 * RequestKey and RequestTable: what identifies a TuningService request,
 * and the reuse state (finished reports, runs in flight) keyed by it.
 *
 * A key is a value: a subject (the anchor's OpKey, the DAG's spec(), the
 * family's fields, or a family/device dispatch slot), the device, and
 * every option that can change the answer, encoded once into canonical
 * bytes. operator== compares those bytes and the hash is FNV-1a over the
 * same bytes, so equal keys hash alike and a hash collision can only
 * cost a bucket probe, never a wrong answer.
 */
#ifndef FLEXTENSOR_SERVE_REQUEST_KEY_H
#define FLEXTENSOR_SERVE_REQUEST_KEY_H

#include <cstddef>
#include <cstdint>
#include <future>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "explore/tuner.h"
#include "family/tune_family.h"
#include "graph/dag.h"
#include "obs/metrics.h"
#include "support/thread_annotations.h"

namespace ft {

class RequestKey
{
  public:
    /** Tune one compute node. */
    static RequestKey op(const Operation &anchor, const Target &target,
                         const TuneOptions &options);
    /** Partition and tune a whole DAG. */
    static RequestKey dag(const graph::ComputeDag &dag, const Target &target,
                          const TuneOptions &options);
    /** Tune a whole shape family. */
    static RequestKey family(const ShapeFamily &family, const Target &target,
                             const FamilyTuneOptions &options);
    /** The published dispatch table of a family on a device. */
    static RequestKey dispatch(const std::string &familyName,
                               const std::string &device);

    bool operator==(const RequestKey &other) const
    {
        return bytes_ == other.bytes_;
    }
    bool operator!=(const RequestKey &other) const
    {
        return !(*this == other);
    }

    /** Hash consistent with operator==, for unordered containers. */
    struct Hash
    {
        size_t operator()(const RequestKey &key) const
        {
            return static_cast<size_t>(key.hash_);
        }
    };

  private:
    enum class Subject : uint8_t { Op, Dag, Family, Dispatch };

    RequestKey(Subject subject, const std::string &device);

    RequestKey &word(uint64_t v);
    /** A double by value: 0.0 and -0.0 encode alike, as do all NaNs. */
    RequestKey &real(double v);
    RequestKey &text(const std::string &s);

    /** The result-shaping fields of each options type, listed once. */
    RequestKey &fields(const ExploreOptions &explore);
    RequestKey &fields(const TuneOptions &options);
    RequestKey &fields(const FamilyTuneOptions &options);

    /** Fix the hash once every field is in. */
    void seal();

    std::string bytes_;
    uint64_t hash_ = 0;
};

/**
 * The reuse state of one request kind: an LRU of finished reports
 * (capacity 0 keeps none) and the runs in flight, both keyed by
 * RequestKey. joinOrRun() is the service's one join-or-run-then-publish
 * path.
 */
template <class Report>
class RequestTable
{
  public:
    /** `hits` (optional), `joins` and `runs` count each outcome. */
    RequestTable(size_t capacity, Counter *hits, Counter &joins,
                 Counter &runs)
        : capacity_(capacity), hits_(hits), joins_(joins), runs_(runs)
    {
    }

    RequestTable(const RequestTable &) = delete;
    RequestTable &operator=(const RequestTable &) = delete;

    /** The cached report for `key`, promoted to newest; a miss is nullopt. */
    std::optional<Report> cached(const RequestKey &key) FT_EXCLUDES(mu_)
    {
        MutexLock lock(mu_);
        if (const Report *hit = find(key))
            return *hit;
        return std::nullopt;
    }

    /**
     * Answer `key` from the cache, by joining the run in flight for it,
     * or by calling `run()` as the owner and publishing its report to
     * the cache and to every joiner. Sets `*cacheHit` on a cache answer.
     * A throwing run retires its entry and rethrows to every joiner.
     */
    template <class Run>
    Report joinOrRun(const RequestKey &key, Run &&run,
                     bool *cacheHit = nullptr) FT_EXCLUDES(mu_)
    {
        std::promise<Report> promise;
        std::shared_future<Report> joined;
        {
            MutexLock lock(mu_);
            if (const Report *hit = find(key)) {
                if (cacheHit)
                    *cacheHit = true;
                return *hit;
            }
            auto [it, owner] = inflight_.try_emplace(key);
            if (owner) {
                runs_.add();
                it->second = promise.get_future().share();
            } else {
                joins_.add();
                joined = it->second;
            }
        }
        if (joined.valid())
            return joined.get();
        try {
            Report report = run();
            {
                MutexLock lock(mu_);
                put(key, report);
                inflight_.erase(key);
            }
            promise.set_value(report);
            return report;
        } catch (...) {
            {
                MutexLock lock(mu_);
                inflight_.erase(key);
            }
            promise.set_exception(std::current_exception());
            throw;
        }
    }

    size_t inflight() const FT_EXCLUDES(mu_)
    {
        MutexLock lock(mu_);
        return inflight_.size();
    }

    size_t size() const FT_EXCLUDES(mu_)
    {
        MutexLock lock(mu_);
        return lru_.size();
    }

  private:
    using Lru = std::list<std::pair<RequestKey, Report>>;

    const Report *find(const RequestKey &key) FT_REQUIRES(mu_)
    {
        auto it = index_.find(key);
        if (it == index_.end())
            return nullptr;
        if (hits_)
            hits_->add();
        lru_.splice(lru_.begin(), lru_, it->second);
        return &lru_.front().second;
    }

    void put(const RequestKey &key, const Report &report) FT_REQUIRES(mu_)
    {
        if (capacity_ == 0)
            return;
        auto [it, fresh] = index_.try_emplace(key);
        if (!fresh)
            lru_.erase(it->second);
        lru_.emplace_front(key, report);
        it->second = lru_.begin();
        while (lru_.size() > capacity_) {
            index_.erase(lru_.back().first);
            lru_.pop_back();
        }
    }

    const size_t capacity_;
    Counter *const hits_;
    Counter &joins_;
    Counter &runs_;

    mutable Mutex mu_;
    /** front = newest */
    Lru lru_ FT_GUARDED_BY(mu_);
    std::unordered_map<RequestKey, typename Lru::iterator, RequestKey::Hash>
        index_ FT_GUARDED_BY(mu_);
    std::unordered_map<RequestKey, std::shared_future<Report>,
                       RequestKey::Hash>
        inflight_ FT_GUARDED_BY(mu_);
};

} // namespace ft

#endif // FLEXTENSOR_SERVE_REQUEST_KEY_H
