#include "family/dispatch.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "schedule/serialize.h"
#include "sim/perf_model.h"
#include "support/hexfloat.h"
#include "support/journal.h"
#include "support/logging.h"

namespace ft {

namespace {

/** Journal kind tag for persisted dispatch tables. */
constexpr char kDispatchKind[] = "dispatch";

const char *kBucketingNames[] = {"pow2", "fixed"};

Bucketing
bucketingOf(const std::string &name, bool &ok)
{
    if (name == kBucketingNames[0])
        return Bucketing::Pow2;
    if (name == kBucketingNames[1])
        return Bucketing::FixedWidth;
    ok = false;
    return Bucketing::Pow2;
}

/** Whether `e` may follow `entries` in a table over `var`. */
bool
fitsAfter(const std::vector<DispatchEntry> &entries, const ShapeVar &var,
          const DispatchEntry &e)
{
    const int64_t first = entries.empty() ? var.lo : entries.back().hi + 1;
    return e.lo >= first && e.hi >= e.lo && e.hi <= var.hi;
}

} // namespace

bool
DispatchEntry::valid() const
{
    return std::isfinite(gflops) && gflops > kInvalidGflops;
}

bool
DispatchTable::addEntry(DispatchEntry entry)
{
    FT_ASSERT(fitsAfter(entries_, var_, entry), "dispatch entry [", entry.lo,
              ", ", entry.hi, "] overlaps an earlier bucket or leaves the "
              "declared range of '", var_.name, "'");
    // A failed search's best point is no schedule to serve.
    if (!entry.valid())
        return false;
    entries_.push_back(std::move(entry));
    return true;
}

bool
DispatchTable::total() const
{
    int64_t next = var_.lo;
    for (const DispatchEntry &e : entries_) {
        if (e.lo != next)
            return false;
        next = e.hi + 1;
    }
    return !entries_.empty() && next == var_.hi + 1;
}

const DispatchEntry *
DispatchTable::find(int64_t shape) const
{
    // Binary search over the ascending, disjoint entries.
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), shape,
        [](const DispatchEntry &e, int64_t v) { return e.hi < v; });
    return it != entries_.end() && it->contains(shape) ? &*it : nullptr;
}

const DispatchEntry &
DispatchTable::lookup(int64_t shape) const
{
    if (!var_.contains(shape)) {
        throw std::out_of_range(
            "dispatch lookup for '" + familyName_ + "': shape " +
            std::to_string(shape) + " outside the declared range of '" +
            var_.name + "' [" + std::to_string(var_.lo) + ", " +
            std::to_string(var_.hi) + "]");
    }
    const DispatchEntry *entry = find(shape);
    if (!entry) {
        throw std::out_of_range(
            "dispatch lookup for '" + familyName_ + "': shape " +
            std::to_string(shape) +
            " has no bucket entry (table is not total)");
    }
    return *entry;
}

std::string
DispatchTable::serialize() const
{
    std::ostringstream oss;
    oss << "dispatch v1\n";
    oss << "family " << familyName_ << "\n";
    oss << "device " << device_ << "\n";
    oss << "var " << var_.name << " " << var_.lo << " " << var_.hi << " "
        << kBucketingNames[var_.bucketing == Bucketing::Pow2 ? 0 : 1] << " "
        << var_.bucketWidth << "\n";
    for (const DispatchEntry &e : entries_) {
        oss << "entry " << e.lo << " " << e.hi << " " << hexDouble(e.gflops)
            << " " << e.trials << " " << serializeConfig(e.config) << "\n";
    }
    return oss.str();
}

std::optional<DispatchTable>
DispatchTable::deserialize(const std::string &text)
{
    std::istringstream lines(text);
    std::string line;
    if (!std::getline(lines, line) || line != "dispatch v1")
        return std::nullopt;

    DispatchTable out;
    bool sawVar = false;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        std::istringstream fields(line);
        std::string tag;
        fields >> tag;
        if (tag == "family") {
            fields >> out.familyName_;
        } else if (tag == "device") {
            fields >> out.device_;
        } else if (tag == "var") {
            std::string bucketing;
            fields >> out.var_.name >> out.var_.lo >> out.var_.hi >>
                bucketing >> out.var_.bucketWidth;
            if (fields.fail())
                return std::nullopt;
            bool ok = true;
            out.var_.bucketing = bucketingOf(bucketing, ok);
            if (!ok)
                return std::nullopt;
            sawVar = true;
        } else if (tag == "entry") {
            if (!sawVar)
                return std::nullopt;
            DispatchEntry e;
            std::string gflops, configLine;
            fields >> e.lo >> e.hi >> gflops >> e.trials >> configLine;
            if (fields.fail())
                return std::nullopt;
            if (!parseDouble(gflops, e.gflops))
                return std::nullopt;
            auto config = parseConfig(configLine);
            if (!config)
                return std::nullopt;
            e.config = std::move(*config);
            if (!fitsAfter(out.entries_, out.var_, e))
                return std::nullopt;
            if (!e.valid()) {
                warn("dropping invalid dispatch entry: ", line);
                continue;
            }
            out.entries_.push_back(std::move(e));
        } else {
            return std::nullopt;
        }
    }
    if (!sawVar)
        return std::nullopt;
    return out;
}

bool
DispatchTable::saveToFile(const std::string &path) const
{
    JournalWriter writer(kDispatchKind);
    writer.append(serialize());
    return writer.commit(path);
}

std::optional<DispatchTable>
DispatchTable::loadFromFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();
    in.close();

    JournalContents journal = parseJournal(bytes);
    if (!journal.valid || journal.kind != kDispatchKind) {
        warn("ignoring dispatch table ", path, " (",
             journal.diag.empty() ? "wrong journal kind" : journal.diag,
             ")");
        return std::nullopt;
    }
    if (journal.torn)
        warn("dispatch table ", path, " has a torn tail (", journal.diag,
             "); using last intact frame");
    if (journal.records.empty()) {
        warn("ignoring dispatch table ", path, " with no intact frames");
        return std::nullopt;
    }
    // Newest frame wins (saveToFile writes exactly one, but a partial
    // upgrade or future append-style writer stays readable).
    auto table = deserialize(journal.records.back());
    if (!table)
        warn("ignoring dispatch table ", path,
             " whose frame body fails to parse");
    return table;
}

} // namespace ft
