#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "simd/simd.hpp"

namespace octo {
namespace {

/// Typed test over every ABI the kernels might be compiled with.
template <typename Abi>
struct SimdTest : testing::Test {
  using pack = simd<double, Abi>;
  using mask = simd_mask<double, Abi>;
};

using Abis = testing::Types<simd_abi::scalar, simd_abi::fixed<2>,
                            simd_abi::fixed<4>, simd_abi::fixed<8>>;
TYPED_TEST_SUITE(SimdTest, Abis);

TYPED_TEST(SimdTest, BroadcastAndLanes) {
  using P = typename TestFixture::pack;
  const P v(3.5);
  for (int l = 0; l < P::size(); ++l) EXPECT_DOUBLE_EQ(v[l], 3.5);
}

TYPED_TEST(SimdTest, LoadStoreRoundTrip) {
  using P = typename TestFixture::pack;
  std::vector<double> src(P::size()), dst(P::size());
  for (int l = 0; l < P::size(); ++l) src[static_cast<std::size_t>(l)] = l + 0.25;
  P v;
  v.copy_from(src.data());
  v.copy_to(dst.data());
  EXPECT_EQ(src, dst);
}

TYPED_TEST(SimdTest, Arithmetic) {
  using P = typename TestFixture::pack;
  P a, b;
  for (int l = 0; l < P::size(); ++l) {
    a.set(l, l + 1.0);
    b.set(l, 2.0 * l + 1.0);
  }
  const P sum = a + b, diff = a - b, prod = a * b, quot = a / b;
  for (int l = 0; l < P::size(); ++l) {
    EXPECT_DOUBLE_EQ(sum[l], (l + 1.0) + (2.0 * l + 1.0));
    EXPECT_DOUBLE_EQ(diff[l], (l + 1.0) - (2.0 * l + 1.0));
    EXPECT_DOUBLE_EQ(prod[l], (l + 1.0) * (2.0 * l + 1.0));
    EXPECT_DOUBLE_EQ(quot[l], (l + 1.0) / (2.0 * l + 1.0));
    EXPECT_DOUBLE_EQ((-a)[l], -(l + 1.0));
  }
}

TYPED_TEST(SimdTest, CompoundAssign) {
  using P = typename TestFixture::pack;
  P a(2.0);
  a += P(3.0);
  EXPECT_DOUBLE_EQ(a[0], 5.0);
  a *= P(2.0);
  EXPECT_DOUBLE_EQ(a[0], 10.0);
  a -= P(1.0);
  EXPECT_DOUBLE_EQ(a[0], 9.0);
  a /= P(3.0);
  EXPECT_DOUBLE_EQ(a[0], 3.0);
}

TYPED_TEST(SimdTest, ComparisonsAndMasks) {
  using P = typename TestFixture::pack;
  P a, b;
  for (int l = 0; l < P::size(); ++l) {
    a.set(l, static_cast<double>(l));
    b.set(l, 1.0);
  }
  const auto lt = a < b;
  for (int l = 0; l < P::size(); ++l) EXPECT_EQ(lt[l], l < 1);
  EXPECT_EQ(popcount(lt), std::min(1, P::size()));
  EXPECT_EQ(any_of(lt), true);
  EXPECT_EQ(all_of(a >= P(0.0)), true);
  EXPECT_TRUE(none_of(a < P(0.0)));
}

TYPED_TEST(SimdTest, MaskLogic) {
  using P = typename TestFixture::pack;
  P a;
  for (int l = 0; l < P::size(); ++l) a.set(l, static_cast<double>(l));
  const auto m1 = a > P(-1.0);   // all true
  const auto m2 = a < P(-1.0);   // all false
  EXPECT_TRUE(all_of(m1 || m2));
  EXPECT_TRUE(none_of(m1 && m2));
  EXPECT_TRUE(all_of(!m2));
}

TYPED_TEST(SimdTest, Select) {
  using P = typename TestFixture::pack;
  P a, b;
  for (int l = 0; l < P::size(); ++l) {
    a.set(l, static_cast<double>(l));
    b.set(l, 100.0 + l);
  }
  const P r = select(a < P(2.0), a, b);
  for (int l = 0; l < P::size(); ++l)
    EXPECT_DOUBLE_EQ(r[l], l < 2 ? l : 100.0 + l);
}

TYPED_TEST(SimdTest, WhereAssignment) {
  using P = typename TestFixture::pack;
  P a;
  for (int l = 0; l < P::size(); ++l) a.set(l, static_cast<double>(l));
  where(a > P(0.5), a) = P(-1.0);
  for (int l = 0; l < P::size(); ++l)
    EXPECT_DOUBLE_EQ(a[l], l > 0.5 ? -1.0 : l);
  P b(2.0);
  where(b > P(1.0), b) += P(3.0);
  EXPECT_DOUBLE_EQ(b[0], 5.0);
}

TYPED_TEST(SimdTest, Reductions) {
  using P = typename TestFixture::pack;
  P a;
  double expect_sum = 0;
  for (int l = 0; l < P::size(); ++l) {
    a.set(l, l + 1.0);
    expect_sum += l + 1.0;
  }
  EXPECT_DOUBLE_EQ(reduce(a), expect_sum);
  EXPECT_DOUBLE_EQ(hmin(a), 1.0);
  EXPECT_DOUBLE_EQ(hmax(a), static_cast<double>(P::size()));
}

TYPED_TEST(SimdTest, MathFunctions) {
  using P = typename TestFixture::pack;
  P a;
  for (int l = 0; l < P::size(); ++l) a.set(l, (l + 1.0) * (l + 1.0));
  const P r = sqrt(a);
  for (int l = 0; l < P::size(); ++l) EXPECT_DOUBLE_EQ(r[l], l + 1.0);

  P s;
  for (int l = 0; l < P::size(); ++l) s.set(l, l % 2 == 0 ? -2.0 : 3.0);
  const P ab = abs(s);
  for (int l = 0; l < P::size(); ++l)
    EXPECT_DOUBLE_EQ(ab[l], l % 2 == 0 ? 2.0 : 3.0);

  EXPECT_DOUBLE_EQ(min(P(2.0), P(5.0))[0], 2.0);
  EXPECT_DOUBLE_EQ(max(P(2.0), P(5.0))[0], 5.0);
  EXPECT_DOUBLE_EQ(fma(P(2.0), P(3.0), P(4.0))[0], 10.0);
  EXPECT_DOUBLE_EQ(copysign(P(2.0), P(-7.0))[0], -2.0);
}

TYPED_TEST(SimdTest, SqrtBitwiseMatchesStdSqrt) {
  // The native widths take a packed sqrt instruction, the others the
  // std::sqrt lane loop; both must agree with std::sqrt bit for bit on the
  // IEEE edge cases.  Each value visits every lane.
  using P = typename TestFixture::pack;
  const std::vector<double> cases = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      std::bit_cast<double>(std::uint64_t{0x0008000000000000}),  // mid denormal
      DBL_MAX,
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
  };
  const int n = static_cast<int>(cases.size());
  for (int shift = 0; shift < n; ++shift) {
    P a;
    for (int l = 0; l < P::size(); ++l)
      a.set(l, cases[static_cast<std::size_t>((shift + l) % n)]);
    const P r = sqrt(a);
    for (int l = 0; l < P::size(); ++l) {
      // volatile keeps the reference a run-time std::sqrt, not a folded one.
      volatile double x = a[l];
      const double expect = std::sqrt(x);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r[l]),
                std::bit_cast<std::uint64_t>(expect))
          << "lane " << l << " sqrt(" << a[l] << ")";
    }
  }

  const P neg = sqrt(P(-4.0));
  for (int l = 0; l < P::size(); ++l) EXPECT_TRUE(std::isnan(neg[l]));
}

TYPED_TEST(SimdTest, MinMaxLanewise) {
  using P = typename TestFixture::pack;
  P a, b;
  for (int l = 0; l < P::size(); ++l) {
    a.set(l, static_cast<double>(l));
    b.set(l, static_cast<double>(P::size() - l));
  }
  const P mn = min(a, b), mx = max(a, b);
  for (int l = 0; l < P::size(); ++l) {
    EXPECT_DOUBLE_EQ(mn[l], std::min<double>(l, P::size() - l));
    EXPECT_DOUBLE_EQ(mx[l], std::max<double>(l, P::size() - l));
  }
}

TEST(SimdDefaults, NativeWidthIsCapped) {
  // 64-byte vectors are disabled (GCC 12 AVX-512 miscompilation; see
  // simd.hpp).  The default must be at most 4 doubles wide here.
  EXPECT_LE(simd<double>::size(), 4);
  EXPECT_GE(simd<double>::size(), 1);
}

TEST(SimdHelpers, PackCounts) {
  using P4 = simd<double, simd_abi::fixed<4>>;
  EXPECT_EQ(simd_full_packs<P4>(8), 2);
  EXPECT_EQ(simd_remainder<P4>(8), 0);
  EXPECT_EQ(simd_full_packs<P4>(10), 2);
  EXPECT_EQ(simd_remainder<P4>(10), 2);
}

}  // namespace
}  // namespace octo
