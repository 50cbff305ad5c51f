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
 * key builds it again. Builds run outside the lock: two threads that
 * miss on one key both build, and the first to insert wins, so every
 * caller of one key gets the object the store holds.
 */
#ifndef FLEXTENSOR_SUPPORT_SETUP_STORE_H
#define FLEXTENSOR_SUPPORT_SETUP_STORE_H

#include <cstddef>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>

#include "support/thread_annotations.h"

namespace ft {

/**
 * Entries per store. The paper's deployment (YOLO-v1 and OverFeat,
 * Section 6.6, on the GPU and CPU models) lowers 34 distinct anchors
 * and builds 48 distinct spaces, so 128 keeps a few such networks
 * resident while capping what the process holds for them.
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

    /**
     * The stored value of `key`, or, on a miss, `build()` (a Value)
     * stored and returned.
     */
    template <class Build>
    Handle get(const Key &key, Build &&build)
    {
        {
            MutexLock lock(mu_);
            auto it = slots_.find(key);
            if (it != slots_.end())
                return touch(it->second);
        }
        Handle built = std::make_shared<const Value>(build());
        Handle evicted; // released after the lock
        MutexLock lock(mu_);
        auto [it, fresh] = slots_.try_emplace(key);
        if (!fresh)
            return touch(it->second);
        it->second.value = std::move(built);
        uses_.push_front(&it->first);
        it->second.use = uses_.begin();
        if (slots_.size() > kSetupStoreCapacity) {
            auto oldest = slots_.find(*uses_.back());
            uses_.pop_back();
            evicted = std::move(oldest->second.value);
            slots_.erase(oldest);
        }
        return it->second.value;
    }

    /** Entries held now (at most kSetupStoreCapacity). */
    size_t size() const
    {
        MutexLock lock(mu_);
        return slots_.size();
    }

  private:
    using UseList = std::list<const Key *>;

    struct Slot
    {
        Handle value;
        typename UseList::iterator use; ///< this entry's place in uses_
    };

    struct KeyHash
    {
        size_t operator()(const Key &key) const
        {
            return static_cast<size_t>(key.hash());
        }
    };

    Handle touch(Slot &slot) FT_REQUIRES(mu_)
    {
        uses_.splice(uses_.begin(), uses_, slot.use);
        return slot.value;
    }

    mutable Mutex mu_;
    std::unordered_map<Key, Slot, KeyHash> slots_ FT_GUARDED_BY(mu_);
    /** Keys of slots_, most recently used first. */
    UseList uses_ FT_GUARDED_BY(mu_);
};

} // namespace ft

#endif // FLEXTENSOR_SUPPORT_SETUP_STORE_H
