#include "support/math_util.h"

#include <algorithm>
#include <cmath>

#include "support/logging.h"

namespace ft {

std::vector<int64_t>
divisorsOf(int64_t n)
{
    FT_ASSERT(n >= 1, "divisorsOf requires n >= 1, got ", n);
    std::vector<int64_t> small, big;
    for (int64_t d = 1; d * d <= n; ++d) {
        if (n % d == 0) {
            small.push_back(d);
            if (d != n / d)
                big.push_back(n / d);
        }
    }
    small.insert(small.end(), big.rbegin(), big.rend());
    return small;
}

namespace {

/**
 * Emit every factorization of n into `parts` factors drawn from `divs`
 * (the ascending divisors of the top-level extent, a superset of the
 * divisors of every n reached here). Taking the divisors of n in
 * ascending order at every level yields the tuples in ascending
 * lexicographic order.
 */
void
factorizeRec(int64_t n, int parts, const std::vector<int64_t> &divs,
             std::vector<int64_t> &cur,
             std::vector<std::vector<int64_t>> &out)
{
    if (parts == 1) {
        cur.push_back(n);
        out.push_back(cur);
        cur.pop_back();
        return;
    }
    for (int64_t d : divs) {
        if (d > n)
            break;
        if (n % d != 0)
            continue;
        cur.push_back(d);
        factorizeRec(n / d, parts - 1, divs, cur, out);
        cur.pop_back();
    }
}

} // namespace

std::vector<std::vector<int64_t>>
factorizations(int64_t n, int parts)
{
    FT_ASSERT(n >= 1 && parts >= 1,
              "factorizations requires n >= 1 and parts >= 1");
    std::vector<std::vector<int64_t>> out;
    std::vector<int64_t> cur;
    cur.reserve(static_cast<size_t>(parts));
    factorizeRec(n, parts, divisorsOf(n), cur, out);
    return out;
}

int64_t
product(const std::vector<int64_t> &v)
{
    int64_t p = 1;
    for (int64_t x : v)
        p *= x;
    return p;
}

int64_t
largestPowerOfTwoDivisor(int64_t n)
{
    FT_ASSERT(n >= 1, "largestPowerOfTwoDivisor requires n >= 1");
    return n & (-n);
}

double
geomean(const std::vector<double> &v)
{
    FT_ASSERT(!v.empty(), "geomean of empty list");
    double acc = 0.0;
    for (double x : v) {
        FT_ASSERT(x > 0.0, "geomean requires positive values");
        acc += std::log(x);
    }
    return std::exp(acc / static_cast<double>(v.size()));
}

} // namespace ft
