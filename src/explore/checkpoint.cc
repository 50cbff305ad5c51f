#include "explore/checkpoint.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "support/hexfloat.h"
#include "support/journal.h"
#include "support/logging.h"

namespace ft {

namespace {

/** Whole-string decimal integer (no leading space or "+", no tail). */
template <typename T>
bool
parseInt(const std::string &text, T *out)
{
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    return ec == std::errc() && ptr == end;
}

void
appendIdx(std::ostringstream &oss, const std::vector<int64_t> &idx)
{
    for (size_t i = 0; i < idx.size(); ++i) {
        if (i)
            oss << ",";
        oss << idx[i];
    }
}

bool
parseIdx(const std::string &text, std::vector<int64_t> *out)
{
    out->clear();
    std::istringstream cells(text);
    std::string cell;
    while (std::getline(cells, cell, ',')) {
        if (!parseInt(cell, &out->emplace_back()))
            return false;
    }
    return !out->empty();
}

std::vector<std::string>
splitFields(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream fields(line);
    std::string field;
    while (std::getline(fields, field, '|'))
        out.push_back(std::move(field));
    return out;
}

/** "key=value" field whose key must match; value written to *out. */
bool
keyed(const std::string &field, const char *key, std::string *out)
{
    const size_t n = std::strlen(key);
    if (field.size() < n + 1 || field.compare(0, n, key) != 0 ||
        field[n] != '=') {
        return false;
    }
    *out = field.substr(n + 1);
    return true;
}

} // namespace

std::string
searchCheckpointPath(const std::string &base, uint64_t workloadKey,
                     int repeat)
{
    char suffix[18]; // ".<workloadKey as 16 hex digits>"
    std::snprintf(suffix, sizeof(suffix), ".%016" PRIx64, workloadKey);
    std::string path = base + suffix;
    if (repeat > 0) {
        path += '.';
        path += std::to_string(repeat);
    }
    return path;
}

std::string
spaceSignature(const ScheduleSpace &space)
{
    std::ostringstream oss;
    oss << space.numSubSpaces() << "/" << space.numDirections();
    return oss.str();
}

/** Journal kind tag for checkpoint snapshot frames. */
constexpr char kCheckpointKind[] = "ckpt";

/**
 * Render one snapshot as the versioned line-oriented text body (header
 * line through the `end|n=` count footer), carried as one journal frame.
 */
static std::string
serializeCheckpointBody(const CheckpointState &state)
{
    std::ostringstream body;
    size_t lines = 0;
    auto emit = [&](const std::string &line) {
        body << line << "\n";
        ++lines;
    };

    {
        std::ostringstream oss;
        oss << "ftckpt|v=3|method=" << state.method
            << "|seed=" << state.seed << "|key=" << state.workloadKey
            << "|space=" << state.spaceSig
            << "|trial=" << state.trial;
        emit(oss.str());
    }
    emit("clock|sim=" + hexDouble(state.simSeconds));
    {
        std::ostringstream oss;
        oss << "rng";
        for (uint64_t w : state.rng.s)
            oss << "|" << w;
        oss << "|spare=" << (state.rng.haveSpare ? 1 : 0)
            << "|sparev=" << hexDouble(state.rng.spare);
        emit(oss.str());
    }
    FT_ASSERT(state.history.size() == state.commitSim.size(),
              "checkpoint history/clock mismatch");
    for (size_t i = 0; i < state.history.size(); ++i) {
        std::ostringstream oss;
        oss << "h|";
        appendIdx(oss, state.history[i].point.idx);
        oss << "|" << hexDouble(state.history[i].gflops) << "|"
            << hexDouble(state.commitSim[i]);
        emit(oss.str());
    }
    for (const ReplayTransition &t : state.replay) {
        std::ostringstream oss;
        oss << "r|";
        appendIdx(oss, t.start);
        oss << "|" << t.direction << "|";
        appendIdx(oss, t.next);
        emit(oss.str());
    }
    if (!state.netState.empty()) {
        std::ostringstream oss;
        oss << "net|" << state.netState.size() << "|";
        for (size_t i = 0; i < state.netState.size(); ++i) {
            if (i)
                oss << ",";
            oss << hexDouble(static_cast<double>(state.netState[i]));
        }
        emit(oss.str());
    }
    if (!state.gbtModel.empty()) {
        // One line: the model's newlines become ';' (it has none itself).
        std::string flat = state.gbtModel;
        std::replace(flat.begin(), flat.end(), '\n', ';');
        emit("gbt|" + flat);
    }
    {
        std::ostringstream oss;
        oss << "stats|" << state.stats.measurements << "|"
            << state.stats.failures << "|" << state.stats.retries << "|"
            << state.stats.timeouts << "|" << state.stats.quarantined;
        emit(oss.str());
    }
    for (const Point &p : state.quarantine) {
        std::ostringstream oss;
        oss << "q|";
        appendIdx(oss, p.idx);
        emit(oss.str());
    }
    body << "end|n=" << lines << "\n";
    return body.str();
}

bool
saveCheckpoint(const std::string &path, const CheckpointState &state)
{
    // Each snapshot is one whole frame appended to the journal: a crash
    // mid-append can only tear the in-flight frame, and resume falls
    // back to the previous snapshot — which is still bit-identical to
    // an uninterrupted run from that point. Once enough superseded
    // snapshots accumulate, compact by atomically rewriting the journal
    // with just the newest frame (only the latest snapshot matters).
    constexpr size_t kCompactAfterFrames = 8;
    const std::string body = serializeCheckpointBody(state);
    JournalContents existing = readJournal(path);
    if (existing.valid && existing.kind == kCheckpointKind &&
        existing.records.size() >= kCompactAfterFrames) {
        JournalWriter writer(kCheckpointKind);
        writer.append(body);
        return writer.commit(path);
    }
    return journalAppend(path, kCheckpointKind, body);
}

/** Parse one snapshot body (one journal frame). */
static std::optional<CheckpointState>
parseCheckpointBody(const std::string &text)
{
    CheckpointState state;
    bool saw_header = false, saw_end = false, ok = true;
    size_t lines = 0, declared = 0;
    std::string line;
    std::istringstream in(text);
    while (ok && std::getline(in, line)) {
        if (line.empty())
            continue;
        if (saw_end) {
            ok = false; // trailing junk after the count line
            break;
        }
        auto fields = splitFields(line);
        const std::string &tag = fields[0];
        std::string value;
        if (tag == "ftckpt") {
            ok = fields.size() == 7 && keyed(fields[1], "v", &value) &&
                 value == "3" &&
                 keyed(fields[2], "method", &state.method) &&
                 keyed(fields[3], "seed", &value) &&
                 parseInt(value, &state.seed) &&
                 keyed(fields[4], "key", &value) &&
                 parseInt(value, &state.workloadKey) &&
                 keyed(fields[5], "space", &state.spaceSig) &&
                 keyed(fields[6], "trial", &value) &&
                 parseInt(value, &state.trial);
            saw_header = ok;
        } else if (tag == "clock") {
            ok = fields.size() == 2 && keyed(fields[1], "sim", &value) &&
                 parseDouble(value, state.simSeconds);
        } else if (tag == "rng") {
            ok = fields.size() == 7;
            for (int i = 0; ok && i < 4; ++i)
                ok = parseInt(fields[1 + i], &state.rng.s[i]);
            if (ok) {
                ok = keyed(fields[5], "spare", &value);
                state.rng.haveSpare = ok && value == "1";
                ok = ok && (value == "0" || value == "1") &&
                     keyed(fields[6], "sparev", &value) &&
                     parseDouble(value, state.rng.spare);
            }
        } else if (tag == "h") {
            Evaluated e;
            double commit_sim = 0.0;
            ok = fields.size() == 4 && parseIdx(fields[1], &e.point.idx) &&
                 parseDouble(fields[2], e.gflops) &&
                 parseDouble(fields[3], commit_sim);
            if (ok) {
                state.history.push_back(std::move(e));
                state.commitSim.push_back(commit_sim);
            }
        } else if (tag == "r") {
            ReplayTransition t;
            ok = fields.size() == 4 && parseIdx(fields[1], &t.start) &&
                 parseInt(fields[2], &t.direction) &&
                 parseIdx(fields[3], &t.next);
            if (ok)
                state.replay.push_back(std::move(t));
        } else if (tag == "net") {
            uint64_t count = 0;
            ok = fields.size() == 3 && parseInt(fields[1], &count);
            if (ok) {
                std::istringstream cells(fields[2]);
                std::string cell;
                while (ok && std::getline(cells, cell, ',')) {
                    double v = 0.0;
                    ok = parseDouble(cell, v);
                    state.netState.push_back(static_cast<float>(v));
                }
                ok = ok && state.netState.size() == count;
            }
        } else if (tag == "gbt") {
            ok = fields.size() == 2 && !fields[1].empty();
            state.gbtModel = fields[1];
            std::replace(state.gbtModel.begin(), state.gbtModel.end(), ';',
                         '\n');
        } else if (tag == "stats") {
            ok = fields.size() == 6 &&
                 parseInt(fields[1], &state.stats.measurements) &&
                 parseInt(fields[2], &state.stats.failures) &&
                 parseInt(fields[3], &state.stats.retries) &&
                 parseInt(fields[4], &state.stats.timeouts) &&
                 parseInt(fields[5], &state.stats.quarantined);
        } else if (tag == "q") {
            Point p;
            ok = fields.size() == 2 && parseIdx(fields[1], &p.idx);
            if (ok)
                state.quarantine.push_back(std::move(p));
        } else if (tag == "end") {
            ok = fields.size() == 2 && keyed(fields[1], "n", &value) &&
                 parseInt(value, &declared);
            saw_end = true;
            continue; // the count line does not count itself
        } else {
            ok = false;
        }
        ++lines;
    }
    if (!ok || !saw_header || !saw_end || declared != lines ||
        state.trial < 0) {
        return std::nullopt;
    }
    return state;
}

std::optional<CheckpointState>
loadCheckpoint(const std::string &path)
{
    if (!std::ifstream(path))
        return std::nullopt; // a missing checkpoint is a normal first run
    JournalContents journal = readJournal(path);
    if (!journal.valid || journal.kind != kCheckpointKind) {
        warn("ignoring corrupt checkpoint journal ", path, " (",
             journal.diag.empty() ? "wrong journal kind" : journal.diag,
             ")");
        return std::nullopt;
    }
    if (journal.torn) {
        warn("checkpoint journal ", path, " has a torn tail (",
             journal.diag, "); recovering to last valid frame");
        if (!truncateToValid(path, journal))
            warn("could not repair torn checkpoint journal ", path);
    }
    // Newest snapshot wins; skip backwards over any frame whose body
    // fails to parse (a framed-but-bad snapshot should never happen,
    // but resume from an older good one beats starting over).
    for (auto it = journal.records.rbegin(); it != journal.records.rend();
         ++it) {
        auto state = parseCheckpointBody(*it);
        if (state) {
            if (it != journal.records.rbegin())
                warn("checkpoint journal ", path, " skipped ",
                     it - journal.records.rbegin(),
                     " unparseable snapshot frame(s)");
            return state;
        }
    }
    warn("ignoring checkpoint journal ", path,
         " with no parseable snapshot frames");
    return std::nullopt;
}

bool
checkpointCompatible(const CheckpointState &state, const std::string &method,
                     uint64_t seed, const Evaluator &eval)
{
    const ScheduleSpace &space = eval.space();
    if (state.method != method || state.seed != seed ||
        state.workloadKey != eval.workloadKey() ||
        state.spaceSig != spaceSignature(space)) {
        return false;
    }
    auto inSpace = [&space](const std::vector<int64_t> &idx) {
        bool ok = idx.size() == static_cast<size_t>(space.numSubSpaces());
        for (int i = 0; ok && i < space.numSubSpaces(); ++i)
            ok = idx[i] >= 0 && idx[i] < space.sub(i).size();
        return ok;
    };
    for (const Evaluated &e : state.history) {
        if (!inSpace(e.point.idx))
            return false;
    }
    for (const ReplayTransition &t : state.replay) {
        if (!inSpace(t.start) || !inSpace(t.next) || t.direction < 0 ||
            t.direction >= space.numDirections())
            return false;
    }
    for (const Point &p : state.quarantine) {
        if (!inSpace(p.idx))
            return false;
    }
    return true;
}

CheckpointState
captureCommon(const std::string &method, uint64_t seed, int nextTrial,
              const Evaluator &eval, const Rng &rng,
              const ResilientEvaluator &reval)
{
    CheckpointState state;
    state.method = method;
    state.seed = seed;
    state.workloadKey = eval.workloadKey();
    state.spaceSig = spaceSignature(eval.space());
    state.trial = nextTrial;
    state.simSeconds = eval.simulatedSeconds();
    state.rng = rng.state();
    state.history = eval.history();
    state.commitSim.reserve(eval.curve().size());
    for (const auto &entry : eval.curve())
        state.commitSim.push_back(entry.first);
    state.stats = reval.stats();
    state.quarantine = reval.quarantine();
    return state;
}

void
restoreCommon(const CheckpointState &state, Evaluator &eval, Rng &rng,
              ResilientEvaluator &reval)
{
    eval.restore(state.history, state.commitSim, state.simSeconds);
    rng.setState(state.rng);
    reval.restore(state.stats, state.quarantine);
}

} // namespace ft
