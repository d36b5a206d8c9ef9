#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/math.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "common/vec3.hpp"

namespace octo {
namespace {

TEST(Vec3, ArithmeticOps) {
  const rvec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, (rvec3{5, 7, 9}));
  EXPECT_EQ(b - a, (rvec3{3, 3, 3}));
  EXPECT_EQ(2.0 * a, (rvec3{2, 4, 6}));
  EXPECT_EQ(a * 2.0, (rvec3{2, 4, 6}));
  EXPECT_EQ(-a, (rvec3{-1, -2, -3}));
  EXPECT_EQ((a / 2.0), (rvec3{0.5, 1, 1.5}));
}

TEST(Vec3, DotCrossNorm) {
  const rvec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32);
  EXPECT_EQ(cross(a, b), (rvec3{-3, 6, -3}));
  EXPECT_DOUBLE_EQ(norm2(a), 14);
  EXPECT_DOUBLE_EQ(norm(rvec3{3, 4, 0}), 5);
  // cross product is perpendicular to both factors
  const rvec3 c = cross(a, b);
  EXPECT_DOUBLE_EQ(dot(c, a), 0);
  EXPECT_DOUBLE_EQ(dot(c, b), 0);
}

TEST(Vec3, IndexAccess) {
  rvec3 a{7, 8, 9};
  EXPECT_DOUBLE_EQ(a[0], 7);
  EXPECT_DOUBLE_EQ(a[1], 8);
  EXPECT_DOUBLE_EQ(a[2], 9);
  a[1] = 42;
  EXPECT_DOUBLE_EQ(a.y, 42);
}

TEST(Math, IPow) {
  EXPECT_EQ(ipow(2, 10), 1024);
  EXPECT_EQ(ipow(3, 0), 1);
  EXPECT_EQ(ipow(index_t(8), 5), index_t(32768));
}

TEST(Math, DivCeilRoundUp) {
  EXPECT_EQ(div_ceil(10, 3), 4);
  EXPECT_EQ(div_ceil(9, 3), 3);
  EXPECT_EQ(round_up(10, 4), 12);
  EXPECT_EQ(round_up(8, 4), 8);
}

TEST(Math, ApproxEq) {
  EXPECT_TRUE(approx_eq(1.0, 1.0 + 1e-12, 1e-10));
  EXPECT_FALSE(approx_eq(1.0, 1.1, 1e-3));
  EXPECT_TRUE(approx_eq(1e10, 1e10 * (1 + 1e-12), 1e-10));
}

TEST(Random, Deterministic) {
  xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Random, DifferentSeedsDiffer) {
  xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Random, UniformRange) {
  xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  double sum = 0;
  for (int i = 0; i < 10000; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Random, Below) {
  xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Config, FromArgs) {
  const char* argv[] = {"prog", "level=4", "cfl=0.3", "run", "simd=true"};
  const auto c = config::from_args(5, argv);
  EXPECT_EQ(c.get("level", 0), 4);
  EXPECT_DOUBLE_EQ(c.get("cfl", 1.0), 0.3);
  EXPECT_TRUE(c.get("simd", false));
  ASSERT_EQ(c.positional().size(), 1u);
  EXPECT_EQ(c.positional()[0], "run");
}

TEST(Config, Defaults) {
  const config c;
  EXPECT_EQ(c.get("missing", 42), 42);
  EXPECT_EQ(c.get("missing", std::string("x")), "x");
  EXPECT_FALSE(c.has("missing"));
}

TEST(Config, MalformedValueThrows) {
  config c;
  c.set("n", "abc");
  EXPECT_THROW(c.get("n", 0), error);
  c.set("b", "maybe");
  EXPECT_THROW(c.get("b", false), error);
}

TEST(Table, AlignsAndCounts) {
  table t({"a", "longheader"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const auto s = os.str();
  EXPECT_NE(s.find("longheader"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
}

TEST(Table, RowSizeMismatchThrows) {
  table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), error);
}

TEST(Error, CheckMacros) {
  EXPECT_NO_THROW(OCTO_CHECK(1 + 1 == 2));
  EXPECT_THROW(OCTO_CHECK(false), error);
  try {
    OCTO_CHECK_MSG(false, "context " << 42);
    FAIL();
  } catch (const error& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Json, NumberMustBeOneWholeToken) {
  // The scanner takes any run of number characters; stod must consume all
  // of it, or the parse fails naming a bad number.
  for (const char* bad : {"[1.2.3]", "[1-2]", "[1e5e3]"}) {
    try {
      json::parse(bad);
      FAIL() << bad << " parsed";
    } catch (const error& e) {
      EXPECT_NE(std::string(e.what()).find("bad number"), std::string::npos)
          << bad << ": " << e.what();
    }
  }
  const json::value v = json::parse("[-0.5, 1e-3, 2E+10]");
  ASSERT_EQ(v.as_array().size(), 3u);
  EXPECT_EQ(v.as_array()[0].as_number(), -0.5);
  EXPECT_EQ(v.as_array()[1].as_number(), 1e-3);
  EXPECT_EQ(v.as_array()[2].as_number(), 2e10);
}

TEST(Units, TimeScaleSolar) {
  // For M = M_sun, L = R_sun: t* = sqrt(R^3/(G M)) ~ 1594 s.
  units::unit_system u;
  EXPECT_NEAR(u.time_cgs(), 1594.0, 10.0);
  EXPECT_GT(u.density_cgs(), 0);
  EXPECT_GT(u.velocity_cgs(), 0);
}

TEST(Types, Constants) {
  EXPECT_EQ(SUBGRID_N, 8);
  EXPECT_EQ(NCHILD, 8);
  EXPECT_EQ(NNEIGHBOR, 26);
  EXPECT_GE(GHOST_WIDTH, 2);  // PLM stencil requirement
}

}  // namespace
}  // namespace octo
