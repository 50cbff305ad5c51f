/**
 * @file
 * Small integer/math helpers shared across FlexTensor.
 *
 * The schedule space relies heavily on divisible splits (Section 4.2 of the
 * paper), so divisor enumeration and N-part factorization live here.
 */
#ifndef FLEXTENSOR_SUPPORT_MATH_UTIL_H
#define FLEXTENSOR_SUPPORT_MATH_UTIL_H

#include <cstdint>
#include <vector>

namespace ft {

/** All positive divisors of n in increasing order. Requires n >= 1. */
std::vector<int64_t> divisorsOf(int64_t n);

/**
 * All ordered factorizations of n into exactly `parts` positive factors.
 *
 * Each result f satisfies f[0] * f[1] * ... * f[parts-1] == n. This is the
 * "divisible split" enumeration the paper uses to prune the split-factor
 * parameter space. The count grows with the number of divisors, so callers
 * should keep `parts` small (the paper uses at most 4).
 *
 * The tuples come back in ascending lexicographic order (divisors are
 * taken in ascending order at every level). SplitSubSpace::indexOf
 * binary-searches its entries and relies on this order.
 */
std::vector<std::vector<int64_t>> factorizations(int64_t n, int parts);

/** Ceiling division for non-negative integers. */
constexpr int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

/** Round n up to the next multiple of align. */
constexpr int64_t
roundUp(int64_t n, int64_t align)
{
    return ceilDiv(n, align) * align;
}

/** Product of all elements (1 for an empty range). */
int64_t product(const std::vector<int64_t> &v);

/** Largest power of two that divides n. Requires n >= 1. */
int64_t largestPowerOfTwoDivisor(int64_t n);

/** True when n is a power of two. */
constexpr bool
isPowerOfTwo(int64_t n)
{
    return n > 0 && (n & (n - 1)) == 0;
}

/** Geometric mean of a non-empty list of positive values. */
double geomean(const std::vector<double> &v);

} // namespace ft

#endif // FLEXTENSOR_SUPPORT_MATH_UTIL_H
