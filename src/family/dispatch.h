/**
 * @file
 * Serve-time dispatch tables for shape families.
 *
 * A DispatchTable records, per shape bucket, the best (shape-generic)
 * schedule the family tuner found, and maps any concrete in-range shape
 * value to its bucket entry in O(log #buckets). Lookups outside the
 * declared range fail loudly — a dispatch table is a contract over
 * exactly the range it was tuned for, and holds valid entries only.
 * The text serialization round-trips byte-identically (GFLOPS stored as
 * hexfloats).
 */
#ifndef FLEXTENSOR_FAMILY_DISPATCH_H
#define FLEXTENSOR_FAMILY_DISPATCH_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "family/shape_var.h"
#include "schedule/config.h"

namespace ft {

/** One bucket's tuning outcome. */
struct DispatchEntry
{
    int64_t lo = 0; ///< bucket range (inclusive)
    int64_t hi = 0;
    /** Best generic config; adapt its dynamic split per concrete shape. */
    OpConfig config;
    double gflops = 0.0; ///< joint family score of the winning candidate
    int trials = 0;      ///< exploration trials spent on this bucket

    bool contains(int64_t v) const { return v >= lo && v <= hi; }

    /** A usable schedule: finite GFLOPS above kInvalidGflops. */
    bool valid() const;
};

class DispatchTable
{
  public:
    DispatchTable() = default;
    DispatchTable(std::string familyName, std::string device, ShapeVar var)
        : familyName_(std::move(familyName)), device_(std::move(device)),
          var_(std::move(var))
    {}

    /**
     * Append one bucket entry, or refuse it (false) when it is not
     * valid(). Entries must arrive in ascending shape order, disjoint
     * and inside var(); a refused bucket leaves a gap.
     */
    bool addEntry(DispatchEntry entry);

    /** The entry serving `shape`, or null when no entry covers it. */
    const DispatchEntry *find(int64_t shape) const;

    /**
     * The entry serving `shape`. Throws std::out_of_range when the
     * shape is outside the declared range (or no entry covers it) —
     * serving an untuned shape silently is a bug.
     */
    const DispatchEntry &lookup(int64_t shape) const;

    /** Whether the entries cover the full declared range, gap-free. */
    bool total() const;

    const std::vector<DispatchEntry> &entries() const { return entries_; }
    const ShapeVar &var() const { return var_; }
    const std::string &familyName() const { return familyName_; }
    const std::string &device() const { return device_; }

    /** Line-oriented text form; deserialize() inverts it byte-exactly. */
    std::string serialize() const;

    /** Parse serialize() output, dropping entries that are not
     *  valid(). Returns nullopt on malformed input. */
    static std::optional<DispatchTable> deserialize(const std::string &text);

    /**
     * Persist to a CRC32-framed journal file (kind "dispatch"), one
     * frame holding the serialize() text, committed atomically via temp
     * file + rename. Returns false on I/O error.
     */
    bool saveToFile(const std::string &path) const;

    /**
     * Load a table persisted by saveToFile(). A file that is not a
     * dispatch journal, or a torn or corrupt one, fails with a loud
     * structured diagnostic; returns nullopt on any failure (missing
     * file included).
     */
    static std::optional<DispatchTable> loadFromFile(const std::string &path);

  private:
    std::string familyName_;
    std::string device_;
    ShapeVar var_;
    std::vector<DispatchEntry> entries_; ///< ascending, disjoint, valid
};

} // namespace ft

#endif // FLEXTENSOR_FAMILY_DISPATCH_H
