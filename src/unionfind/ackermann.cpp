#include "unionfind/ackermann.h"

#include <cassert>
#include <cmath>

namespace asyncrd::uf {

std::uint64_t ackermann(std::uint64_t m, std::uint64_t n) {
  if (m == 0) return n >= ackermann_cap - 1 ? ackermann_cap : n + 1;
  // Closed forms for the first rows.
  if (m == 1) return n >= ackermann_cap - 2 ? ackermann_cap : n + 2;
  if (m == 2) return n >= (ackermann_cap - 3) / 2 ? ackermann_cap : 2 * n + 3;
  if (m == 3) {
    // A(3, n) = 2^(n+3) - 3.
    if (n + 3 >= 62) return ackermann_cap;
    return (std::uint64_t{1} << (n + 3)) - 3;
  }
  // Row m by iteration over n: A(m, 0) = A(m-1, 1), then
  // A(m, k) = A(m-1, A(m, k-1)).  Recursion goes one row down per level, so
  // its depth is bounded by m; the walk along n stops at the cap, which
  // row 4 already reaches at A(4, 2).
  std::uint64_t a = ackermann(m - 1, 1);
  for (std::uint64_t k = 1; k <= n && a < ackermann_cap; ++k)
    a = ackermann(m - 1, a);
  return a;
}

unsigned inverse_ackermann(std::uint64_t m, std::uint64_t n) {
  assert(n >= 1);
  const double log_n = n <= 1 ? 0.0 : std::log2(static_cast<double>(n));
  const std::uint64_t q = m / n;
  for (unsigned i = 1;; ++i) {
    const std::uint64_t a = ackermann(i, q);
    if (static_cast<double>(a) > log_n) return i;
    // alpha is <= 4 for any log n < A(4, 0) = A(3, 1) = 13; the loop always
    // terminates quickly because A(i, q) reaches the cap within a few rows.
    assert(i < 64);
  }
}

}  // namespace asyncrd::uf
