/**
 * @file
 * 64-bit FNV-1a, the one hash behind every persisted or pinned key:
 * OpKey, Point::key64, the DAG fingerprint, the cost model's workload
 * group, fault fates and the service's request keys.
 *
 * Two offset bases are in use, and both are load-bearing: checkpoints
 * and caches persist these values and tests pin known digests. The
 * structural keys start from kKeyBasis, which is the standard FNV-1a
 * basis with its last decimal digit dropped; the fault injector's fate
 * hash starts from the standard basis.
 */
#ifndef FLEXTENSOR_SUPPORT_HASH_H
#define FLEXTENSOR_SUPPORT_HASH_H

#include <cstdint>
#include <string_view>

namespace ft {

/** Offset basis of the structural keys (OpKey, PointKey, DAG, ...). */
constexpr uint64_t kKeyBasis = 1469598103934665603ULL;
/** The standard FNV-1a 64-bit offset basis. */
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/** Incremental 64-bit FNV-1a. */
class Fnv1a
{
  public:
    explicit Fnv1a(uint64_t basis = kKeyBasis) : h_(basis) {}

    /** Mix raw bytes, no length prefix. */
    Fnv1a &bytes(std::string_view s)
    {
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= kPrime;
        }
        return *this;
    }

    /** Mix the 8 little-endian bytes of a 64-bit word. */
    Fnv1a &word(uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h_ ^= (v >> (b * 8)) & 0xffu;
            h_ *= kPrime;
        }
        return *this;
    }

    uint64_t value() const { return h_; }

  private:
    static constexpr uint64_t kPrime = 1099511628211ULL;

    uint64_t h_;
};

/** FNV-1a over a byte string. */
inline uint64_t
fnv1a64(std::string_view s, uint64_t basis = kKeyBasis)
{
    return Fnv1a(basis).bytes(s).value();
}

} // namespace ft

#endif // FLEXTENSOR_SUPPORT_HASH_H
