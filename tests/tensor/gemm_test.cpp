#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"

namespace flashgen::tensor {
namespace {

// Naive reference for row-major op(A) (MxK) * op(B) (KxN).
std::vector<float> reference(bool ta, bool tb, int m, int n, int k, float alpha,
                             const std::vector<float>& a, int lda, const std::vector<float>& b,
                             int ldb, float beta, std::vector<float> c, int ldc) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) {
        const float av = ta ? a[p * lda + i] : a[i * lda + p];
        const float bv = tb ? b[j * ldb + p] : b[p * ldb + j];
        acc += static_cast<double>(av) * bv;
      }
      c[i * ldc + j] = static_cast<float>(alpha * acc + beta * c[i * ldc + j]);
    }
  return c;
}

// gtest_discover_tests names each ctest case after the printed parameter,
// which for this struct is its raw bytes. The two bytes after the flags are
// therefore an explicit zeroed member: as implicit padding they would hold
// stack garbage and the test names would change from run to run.
struct GemmCase {
  bool ta, tb;
  std::uint16_t zero_pad;
  int m, n, k;
  float alpha, beta;
};

GemmCase gemm_case(bool ta, bool tb, int m, int n, int k, float alpha, float beta) {
  return GemmCase{ta, tb, 0, m, n, k, alpha, beta};
}

class GemmParamTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParamTest, MatchesNaiveReference) {
  const GemmCase gc = GetParam();
  flashgen::Rng rng(99);
  const int lda = gc.ta ? gc.m : gc.k;
  const int ldb = gc.tb ? gc.k : gc.n;
  std::vector<float> a(static_cast<std::size_t>(gc.ta ? gc.k * gc.m : gc.m * gc.k));
  std::vector<float> b(static_cast<std::size_t>(gc.tb ? gc.n * gc.k : gc.k * gc.n));
  std::vector<float> c(static_cast<std::size_t>(gc.m * gc.n));
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  for (auto& v : c) v = static_cast<float>(rng.normal());

  const auto expected =
      reference(gc.ta, gc.tb, gc.m, gc.n, gc.k, gc.alpha, a, lda, b, ldb, gc.beta, c, gc.n);
  sgemm(gc.ta, gc.tb, gc.m, gc.n, gc.k, gc.alpha, a.data(), lda, b.data(), ldb, gc.beta,
        c.data(), gc.n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expected[i], 1e-3f * (1.0f + std::fabs(expected[i]))) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, GemmParamTest,
    ::testing::Values(gemm_case(false, false, 7, 9, 11, 1.0f, 0.0f),
                      gemm_case(false, false, 16, 16, 16, 2.0f, 1.0f),
                      gemm_case(true, false, 5, 8, 13, 1.0f, 0.5f),
                      gemm_case(false, true, 6, 10, 4, -1.0f, 0.0f),
                      gemm_case(true, true, 9, 3, 17, 0.5f, 2.0f),
                      gemm_case(false, false, 1, 1, 1, 1.0f, 0.0f),
                      gemm_case(false, false, 64, 300, 257, 1.0f, 0.0f)));

TEST(Gemm, PropagatesNanFromBWhenAHasExactZeros) {
  // Regression: the kernel used to skip the update when an A entry was
  // exactly 0, silently dropping NaN/Inf from B. Reference semantics demand
  // 0 * NaN = NaN in the accumulation.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> a = {0.0f, 0.0f, 1.0f, 0.0f};  // 2x2
  std::vector<float> b = {nan, 1.0f, 2.0f, inf};    // 2x2
  std::vector<float> c(4, 0.0f);
  sgemm(false, false, 2, 2, 2, 1.0f, a.data(), 2, b.data(), 2, 0.0f, c.data(), 2);
  // Row 0: 0*nan + 0*2 = nan ; 0*1 + 0*inf = nan.
  EXPECT_TRUE(std::isnan(c[0]));
  EXPECT_TRUE(std::isnan(c[1]));
  // Row 1: 1*nan + 0*2 = nan ; 1*1 + 0*inf = nan.
  EXPECT_TRUE(std::isnan(c[2]));
  EXPECT_TRUE(std::isnan(c[3]));
}

TEST(Gemm, AlphaZeroStillSkipsAAndB) {
  // BLAS semantics: alpha == 0 means A and B are not referenced at all, so a
  // NaN there must NOT leak into C = beta * C.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> a(4, nan), b(4, nan), c = {1.0f, 2.0f, 3.0f, 4.0f};
  sgemm(false, false, 2, 2, 2, 0.0f, a.data(), 2, b.data(), 2, 0.5f, c.data(), 2);
  EXPECT_FLOAT_EQ(c[0], 0.5f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
}

// Oracle property test: naive triple loop vs sgemm over all four transpose
// combinations, non-tight leading strides, alpha/beta in {0, 1, 0.5}, and the
// parallel path at 1, 2, and 7 threads. The 1-thread run doubles as the
// reference for thread-count invariance: all pool sizes must agree bitwise.
TEST(Gemm, OracleAcrossLayoutsStridesAndThreadCounts) {
  flashgen::Rng rng(2024);
  const int m = 23, n = 31, k = 17;
  const int pad = 5;  // extra columns beyond the tight stride
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      const int lda = (ta ? m : k) + pad;
      const int ldb = (tb ? k : n) + pad;
      const int ldc = n + pad;
      std::vector<float> a(static_cast<std::size_t>((ta ? k : m) * lda));
      std::vector<float> b(static_cast<std::size_t>((tb ? n : k) * ldb));
      std::vector<float> c0(static_cast<std::size_t>(m * ldc));
      for (auto& v : a) v = static_cast<float>(rng.normal());
      for (auto& v : b) v = static_cast<float>(rng.normal());
      for (auto& v : c0) v = static_cast<float>(rng.normal());
      for (float alpha : {0.0f, 1.0f, 0.5f}) {
        for (float beta : {0.0f, 1.0f, 0.5f}) {
          // Naive oracle in double.
          std::vector<float> expected = c0;
          for (int i = 0; i < m; ++i)
            for (int j = 0; j < n; ++j) {
              double acc = 0.0;
              for (int p = 0; p < k; ++p) {
                const float av = ta ? a[static_cast<std::size_t>(p * lda + i)]
                                    : a[static_cast<std::size_t>(i * lda + p)];
                const float bv = tb ? b[static_cast<std::size_t>(j * ldb + p)]
                                    : b[static_cast<std::size_t>(p * ldb + j)];
                acc += static_cast<double>(av) * bv;
              }
              expected[static_cast<std::size_t>(i * ldc + j)] = static_cast<float>(
                  alpha * acc + beta * c0[static_cast<std::size_t>(i * ldc + j)]);
            }

          std::vector<float> c1;  // 1-thread result, the invariance reference
          for (int threads : {1, 2, 7}) {
            flashgen::common::set_num_threads(threads);
            std::vector<float> c = c0;
            sgemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta, c.data(), ldc);
            for (int i = 0; i < m; ++i)
              for (int j = 0; j < n; ++j) {
                const std::size_t idx = static_cast<std::size_t>(i * ldc + j);
                EXPECT_NEAR(c[idx], expected[idx], 1e-3f * (1.0f + std::fabs(expected[idx])))
                    << "ta=" << ta << " tb=" << tb << " alpha=" << alpha << " beta=" << beta
                    << " threads=" << threads << " at (" << i << "," << j << ")";
                // Padding beyond n must never be touched.
                if (j == 0) {
                  for (int jj = n; jj < ldc; ++jj)
                    EXPECT_EQ(c[static_cast<std::size_t>(i * ldc + jj)],
                              c0[static_cast<std::size_t>(i * ldc + jj)]);
                }
              }
            if (threads == 1) {
              c1 = c;
            } else {
              EXPECT_EQ(c, c1) << "thread-count variance at ta=" << ta << " tb=" << tb
                               << " alpha=" << alpha << " beta=" << beta
                               << " threads=" << threads;
            }
          }
          flashgen::common::set_num_threads(0);
        }
      }
    }
  }
}

TEST(Gemm, ZeroSizedDimensionsAreNoOps) {
  std::vector<float> a(4, 1.0f), b(4, 1.0f), c(4, 7.0f);
  sgemm(false, false, 0, 2, 2, 1.0f, a.data(), 2, b.data(), 2, 1.0f, c.data(), 2);
  EXPECT_EQ(c[0], 7.0f);
  // k == 0 means C = beta*C.
  sgemm(false, false, 2, 2, 0, 1.0f, a.data(), 0, b.data(), 2, 0.5f, c.data(), 2);
  EXPECT_EQ(c[0], 3.5f);
}

}  // namespace
}  // namespace flashgen::tensor
