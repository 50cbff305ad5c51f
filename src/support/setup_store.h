/**
 * @file
 * A bounded, thread-safe store of immutable search set-up.
 *
 * Some of what a search needs before its first trial is a pure function
 * of a few inputs and never of the seed: an anchor lowered to IR
 * (graph::lowerAnchor, whose operators carry their lazily built
 * IndexAnalysis) and a schedule space (buildSpaceObserved). A request
 * stream tunes the same layers again and again, so each of those keeps
 * one process-wide SetupStore and hands the stored object out as a
 * shared_ptr<const Value>: a hit costs a lock, a hash and one exact key
 * comparison instead of a rebuild, and every holder sees the same
 * immutable object.
 *
 * Keys are compared exactly (Key::operator==), never by hash alone, so
 * two inputs can share an entry only if the builder would read the same
 * values from both. When full, the least recently used entry is dropped;
 * holders keep what they already have, and the next fetch of a dropped
 * key builds it again. Builds run outside the lock, one per key: a miss
 * on a key whose build is in flight waits for that build instead of
 * running its own, so every caller of one key gets one object.
 */
#ifndef FLEXTENSOR_SUPPORT_SETUP_STORE_H
#define FLEXTENSOR_SUPPORT_SETUP_STORE_H

#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "support/thread_annotations.h"

namespace ft {

/**
 * Entries of the anchor and space stores. The paper's deployment
 * (YOLO-v1 and OverFeat, Section 6.6, on the GPU and CPU models) lowers
 * 34 distinct anchors and builds 48 distinct spaces, so 128 keeps a few
 * such networks resident while capping what the process holds for them.
 */
inline constexpr size_t kSetupStoreCapacity = 128;

/**
 * Least-recently-used map from Key to shared immutable Value. Key needs
 * operator== and `uint64_t hash() const`.
 */
template <class Key, class Value>
class SetupStore
{
  public:
    using Handle = std::shared_ptr<const Value>;

    /** A store holding at most `capacity` (>= 1) entries. */
    explicit SetupStore(size_t capacity) : capacity_(capacity) {}

    /**
     * The stored value of `key`, or, on a miss, `build()` (a Value)
     * stored and returned. A build that throws stores nothing: the
     * callers waiting on it get its exception; the next get() rebuilds.
     */
    template <class Build>
    Handle get(const Key &key, Build &&build)
    {
        std::optional<std::promise<Handle>> promise; // set: this call builds
        std::shared_future<Handle> entry, evicted; // evicted: freed unlocked
        uint64_t id = 0;
        {
            MutexLock lock(mu_);
            auto [it, fresh] = slots_.try_emplace(key);
            Slot &slot = it->second;
            if (fresh) {
                promise.emplace();
                slot.value = promise->get_future().share();
                id = slot.id = ++builds_;
                uses_.push_front(&it->first);
                slot.use = uses_.begin();
            } else {
                uses_.splice(uses_.begin(), uses_, slot.use);
            }
            entry = slot.value;
            if (slots_.size() > capacity_) {
                auto oldest = slots_.find(*uses_.back());
                uses_.pop_back();
                evicted = std::move(oldest->second.value);
                slots_.erase(oldest);
            }
        }
        if (promise) {
            try {
                promise->set_value(std::make_shared<const Value>(build()));
            } catch (...) {
                forget(key, id);
                promise->set_exception(std::current_exception());
                throw;
            }
        }
        return entry.get();
    }

    /** Entries held now, built or in flight (at most the capacity). */
    size_t size() const
    {
        MutexLock lock(mu_);
        return slots_.size();
    }

  private:
    using UseList = std::list<const Key *>;

    struct Slot
    {
        std::shared_future<Handle> value;
        uint64_t id = 0; ///< which build filled the slot
        typename UseList::iterator use; ///< this entry's place in uses_
    };

    struct KeyHash
    {
        size_t operator()(const Key &key) const
        {
            return static_cast<size_t>(key.hash());
        }
    };

    /** Drop `key`'s entry if build `id` still holds it. */
    void forget(const Key &key, uint64_t id)
    {
        MutexLock lock(mu_);
        auto it = slots_.find(key);
        if (it == slots_.end() || it->second.id != id)
            return;
        uses_.erase(it->second.use);
        slots_.erase(it);
    }

    const size_t capacity_;
    mutable Mutex mu_;
    std::unordered_map<Key, Slot, KeyHash> slots_ FT_GUARDED_BY(mu_);
    /** Keys of slots_, most recently used first. */
    UseList uses_ FT_GUARDED_BY(mu_);
    uint64_t builds_ FT_GUARDED_BY(mu_) = 0;
};

} // namespace ft

#endif // FLEXTENSOR_SUPPORT_SETUP_STORE_H
