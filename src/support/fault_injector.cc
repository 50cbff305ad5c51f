#include "support/fault_injector.h"

#include <fstream>
#include <sstream>

#include "support/hash.h"
#include "support/logging.h"

namespace ft {

namespace {

/** SplitMix64 finalizer: one hash round over a 64-bit value. */
uint64_t
mix64(uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Uniform double in [0, 1) from a hashed value. */
double
toUnit(uint64_t h)
{
    return (h >> 11) * 0x1.0p-53;
}

} // namespace

std::optional<FaultProfile>
parseFaultProfile(const std::string &spec)
{
    FaultProfile profile;
    std::istringstream fields(spec);
    std::string field;
    while (std::getline(fields, field, ',')) {
        if (field.empty())
            continue;
        auto eq = field.find('=');
        if (eq == std::string::npos)
            return std::nullopt;
        const std::string key = field.substr(0, eq);
        const std::string value = field.substr(eq + 1);
        try {
            if (key == "transient") {
                profile.transient = std::stod(value);
            } else if (key == "permanent") {
                profile.permanent = std::stod(value);
            } else if (key == "timeout") {
                profile.timeout = std::stod(value);
            } else if (key == "outlier") {
                profile.outlier = std::stod(value);
            } else if (key == "flaky") {
                profile.transientFailures = std::stoi(value);
            } else if (key == "hang") {
                profile.hangSeconds = std::stod(value);
            } else if (key == "scale") {
                profile.outlierScale = std::stod(value);
            } else if (key == "seed") {
                profile.seed = std::stoull(value, nullptr, 0);
            } else {
                return std::nullopt;
            }
        } catch (...) {
            return std::nullopt;
        }
    }
    if (profile.transient < 0 || profile.permanent < 0 ||
        profile.timeout < 0 || profile.outlier < 0 ||
        profile.transient + profile.permanent + profile.timeout +
                profile.outlier > 1.0 ||
        profile.transientFailures < 1 || profile.hangSeconds <= 0.0) {
        return std::nullopt;
    }
    return profile;
}

FaultInjector::FaultInjector(const FaultProfile &profile) : profile_(profile)
{
    FT_ASSERT(profile.transient + profile.permanent + profile.timeout +
                      profile.outlier <= 1.0,
              "fault probabilities exceed 1");
}

FaultKind
FaultInjector::pointMode(const std::string &key) const
{
    const double u = toUnit(mix64(fnv1a64(key, kFnvBasis) ^ profile_.seed));
    double edge = profile_.transient;
    if (u < edge)
        return FaultKind::Transient;
    edge += profile_.permanent;
    if (u < edge)
        return FaultKind::Permanent;
    edge += profile_.timeout;
    if (u < edge)
        return FaultKind::Timeout;
    edge += profile_.outlier;
    if (u < edge)
        return FaultKind::Outlier;
    return FaultKind::None;
}

FaultOutcome
FaultInjector::apply(const std::string &key, int attempt,
                     double trueGflops) const
{
    FaultOutcome out;
    out.kind = pointMode(key);
    out.gflops = trueGflops;
    switch (out.kind) {
      case FaultKind::None:
        break;
      case FaultKind::Transient:
        out.failed = attempt < profile_.transientFailures;
        break;
      case FaultKind::Permanent:
        out.failed = true;
        break;
      case FaultKind::Timeout:
        out.failed = true;
        out.hung = true;
        break;
      case FaultKind::Outlier:
        if (attempt == 0)
            out.gflops = trueGflops * profile_.outlierScale;
        break;
    }
    return out;
}

size_t
FaultInjector::crashOffsetFor(const std::string &path, size_t totalBytes,
                              uint64_t schedule) const
{
    FT_ASSERT(totalBytes >= 2, "crash offset needs at least 2 bytes");
    const uint64_t h =
        mix64(fnv1a64(path, kFnvBasis) ^ profile_.seed ^ mix64(schedule + 1));
    // Offsets in [1, totalBytes): a zero-byte "write" is a no-op and a
    // full write is not a crash.
    return 1 + static_cast<size_t>(h % (totalBytes - 1));
}

bool
FaultInjector::writeTorn(const std::string &path, std::string_view bytes,
                         size_t crashAtByte)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    const size_t n = crashAtByte < bytes.size() ? crashAtByte : bytes.size();
    out.write(bytes.data(), static_cast<std::streamsize>(n));
    return static_cast<bool>(out);
}

bool
FaultInjector::flipBit(const std::string &path, uint64_t bitIndex)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    if (bytes.empty())
        return false;
    const uint64_t bit = bitIndex % (bytes.size() * 8);
    bytes[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(bytes[bit / 8]) ^ (1u << (bit % 8)));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(out);
}

} // namespace ft
