// Cross-backend GEMM conformance and bit-identity suite.
//
// Every registered backend runs the same parameterized fixture: a randomized
// property sweep against a naive triple-loop oracle over all transpose
// combinations, degenerate and tiny dimensions, non-contiguous leading
// strides, and the alpha/beta edge semantics (including beta == 0 over
// NaN-poisoned C). On top of conformance, each backend must be bit-identical
// across thread counts, across batched-vs-looped calls, and from run to run —
// the contract in gemm_backend.h. Both backends run every C element as one
// FMA chain from beta * C, so GemmPackedKernels also holds each packed
// kernel bitwise to the reference loop nest.
#include "tensor/gemm_backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "tensor/gemm.h"
#include "tensor/gemm_packed.h"
#include "tensor/gemm_util.h"
#include "tensor/weight_panels.h"

namespace flashgen::tensor {
namespace {

// Naive oracle for one item of a strided-batched descriptor, accumulated in
// double: the conformance target every backend is held to within tolerance.
void oracle_item(const GemmDesc& d, const float* a, const float* b, const float* c_in,
                 float* c_out) {
  for (std::int64_t i = 0; i < d.m; ++i)
    for (std::int64_t j = 0; j < d.n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < d.k; ++p) {
        const float av = d.trans_a ? a[p * d.lda + i] : a[i * d.lda + p];
        const float bv = d.trans_b ? b[j * d.ldb + p] : b[p * d.ldb + j];
        acc += static_cast<double>(av) * bv;
      }
      const double prior = d.beta == 0.0f ? 0.0 : static_cast<double>(d.beta) * c_in[i * d.ldc + j];
      c_out[i * d.ldc + j] = static_cast<float>(d.alpha * acc + prior);
    }
}

std::vector<float> oracle(const GemmDesc& d, const std::vector<float>& a,
                          const std::vector<float>& b, const std::vector<float>& c) {
  std::vector<float> out = c;
  if (d.m == 0 || d.n == 0) return out;
  for (std::int64_t s = 0; s < d.batch_count; ++s) {
    if (d.k == 0 || d.alpha == 0.0f) {
      for (std::int64_t i = 0; i < d.m; ++i)
        for (std::int64_t j = 0; j < d.n; ++j) {
          const std::int64_t idx = s * d.stride_c + i * d.ldc + j;
          out[idx] = d.beta == 0.0f ? 0.0f : d.beta * c[idx];
        }
      continue;
    }
    oracle_item(d, a.data() + s * d.stride_a, b.data() + s * d.stride_b,
                c.data() + s * d.stride_c, out.data() + s * d.stride_c);
  }
  return out;
}

// Buffer sizes implied by a descriptor (tight beyond the leading strides).
std::size_t a_size(const GemmDesc& d) {
  const std::int64_t rows = d.trans_a ? d.k : d.m;
  const std::int64_t views = d.stride_a == 0 ? 1 : d.batch_count;
  return static_cast<std::size_t>(std::max<std::int64_t>(1, (views - 1) * d.stride_a + rows * d.lda));
}
std::size_t b_size(const GemmDesc& d) {
  const std::int64_t rows = d.trans_b ? d.n : d.k;
  const std::int64_t views = d.stride_b == 0 ? 1 : d.batch_count;
  return static_cast<std::size_t>(std::max<std::int64_t>(1, (views - 1) * d.stride_b + rows * d.ldb));
}
std::size_t c_size(const GemmDesc& d) {
  return static_cast<std::size_t>(
      std::max<std::int64_t>(1, (d.batch_count - 1) * d.stride_c + d.m * d.ldc));
}

void fill_normal(std::vector<float>& v, flashgen::Rng& rng) {
  for (auto& x : v) x = static_cast<float>(rng.normal());
}

class GemmBackendConformance : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    previous_ = gemm_backend_name();
    set_gemm_backend(GetParam());
  }
  void TearDown() override {
    set_gemm_backend(previous_);
    common::set_num_threads(0);
  }
  std::string previous_;
};

TEST_P(GemmBackendConformance, ReportsItsOwnName) {
  EXPECT_EQ(gemm_backend_name(), GetParam());
}

// Randomized property sweep: every transpose combination x a shape grid that
// includes 0, 1, odd primes, and beyond-one-tile sizes x padded leading
// strides x the alpha/beta edge grid, all checked against the double oracle.
// The padding cells carry sentinels that must come back untouched.
TEST_P(GemmBackendConformance, MatchesOracleAcrossShapesStridesAndScalars) {
  flashgen::Rng rng(417);
  const struct {
    int m, n, k;
  } shapes[] = {{1, 1, 1}, {3, 1, 5}, {1, 9, 4},  {5, 7, 3},   {23, 31, 17},
                {8, 64, 2}, {64, 40, 33}, {16, 129, 65}, {33, 257, 48}, {0, 5, 3},
                {5, 0, 3},  {5, 7, 0}};
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (const auto& sh : shapes) {
        for (int pad : {0, 5}) {
          GemmDesc d;
          d.trans_a = ta;
          d.trans_b = tb;
          d.m = sh.m;
          d.n = sh.n;
          d.k = sh.k;
          d.lda = (ta ? std::max(sh.m, 1) : std::max(sh.k, 1)) + pad;
          d.ldb = (tb ? std::max(sh.k, 1) : std::max(sh.n, 1)) + pad;
          d.ldc = std::max(sh.n, 1) + pad;
          std::vector<float> a(a_size(d)), b(b_size(d)), c0(c_size(d));
          fill_normal(a, rng);
          fill_normal(b, rng);
          fill_normal(c0, rng);
          for (float alpha : {1.0f, 0.5f, 0.0f}) {
            for (float beta : {0.0f, 1.0f, -2.0f}) {
              d.alpha = alpha;
              d.beta = beta;
              const std::vector<float> expected = oracle(d, a, b, c0);
              std::vector<float> c = c0;
              sgemm_strided_batched(d, a.data(), b.data(), c.data());
              for (std::int64_t i = 0; i < d.m; ++i) {
                for (std::int64_t j = 0; j < d.ldc; ++j) {
                  const std::size_t idx = static_cast<std::size_t>(i * d.ldc + j);
                  if (j < d.n) {
                    EXPECT_NEAR(c[idx], expected[idx],
                                1e-3f * (1.0f + std::fabs(expected[idx])))
                        << "ta=" << ta << " tb=" << tb << " m=" << sh.m << " n=" << sh.n
                        << " k=" << sh.k << " pad=" << pad << " alpha=" << alpha
                        << " beta=" << beta << " at (" << i << "," << j << ")";
                  } else {
                    EXPECT_EQ(c[idx], c0[idx]) << "padding clobbered at (" << i << "," << j
                                               << ") pad=" << pad << " n=" << sh.n;
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

// beta == 0 must overwrite C without reading it: a C poisoned with NaN (and
// signaling garbage) must come back finite whenever the product is finite.
TEST_P(GemmBackendConformance, BetaZeroNeverReadsPoisonedC) {
  flashgen::Rng rng(91);
  for (const auto& [m, n, k] : {std::tuple<int, int, int>{7, 9, 11},
                                std::tuple<int, int, int>{31, 64, 33},
                                std::tuple<int, int, int>{1, 17, 5}}) {
    GemmDesc d;
    d.m = m;
    d.n = n;
    d.k = k;
    d.lda = k;
    d.ldb = n;
    d.ldc = n;
    d.beta = 0.0f;
    std::vector<float> a(a_size(d)), b(b_size(d));
    std::vector<float> c(c_size(d), std::numeric_limits<float>::quiet_NaN());
    fill_normal(a, rng);
    fill_normal(b, rng);
    sgemm_strided_batched(d, a.data(), b.data(), c.data());
    for (std::size_t i = 0; i < c.size(); ++i)
      EXPECT_TRUE(std::isfinite(c[i])) << "NaN leaked from poisoned C at " << i
                                       << " (m=" << m << " n=" << n << " k=" << k << ")";
  }
}

// 0 * NaN in A/B must still propagate (reference semantics): backends may not
// skip multiplies on exact zeros.
TEST_P(GemmBackendConformance, ZeroTimesNanInOperandsPropagates) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Large enough that the packed backend takes its packed path (not the
  // small-problem fallback): m*n*k >= 2^14 with n, k over the minimums.
  const int m = 8, n = 64, k = 64;
  std::vector<float> a(static_cast<std::size_t>(m) * k, 0.0f);
  std::vector<float> b(static_cast<std::size_t>(k) * n, 1.0f);
  b[5] = nan;
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(), n);
  EXPECT_TRUE(std::isnan(c[5])) << "0 * NaN was skipped in column 5";
  EXPECT_EQ(c[4], 0.0f);
}

// Thread-count invariance: the exact same bits at every pool size, on shapes
// straddling the packed backend's fallback threshold.
TEST_P(GemmBackendConformance, BitIdenticalAcrossThreadCounts) {
  flashgen::Rng rng(5150);
  for (const auto& [m, n, k] : {std::tuple<int, int, int>{5, 9, 7},      // tiny: fallback
                                std::tuple<int, int, int>{48, 96, 80},   // packed path
                                std::tuple<int, int, int>{130, 70, 19}}) {
    GemmDesc d;
    d.m = m;
    d.n = n;
    d.k = k;
    d.alpha = 1.0f;
    d.beta = 0.5f;
    d.lda = k;
    d.ldb = n;
    d.ldc = n;
    std::vector<float> a(a_size(d)), b(b_size(d)), c0(c_size(d));
    fill_normal(a, rng);
    fill_normal(b, rng);
    fill_normal(c0, rng);
    std::vector<float> c1;
    for (int threads : {1, 4}) {
      common::set_num_threads(threads);
      std::vector<float> c = c0;
      sgemm_strided_batched(d, a.data(), b.data(), c.data());
      if (threads == 1) {
        c1 = c;
      } else {
        EXPECT_EQ(c, c1) << "threads=" << threads << " changed bits at m=" << m << " n=" << n
                         << " k=" << k;
      }
    }
    common::set_num_threads(0);
  }
}

// Bitwise equality that also holds for NaN cells left untouched in padding.
bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

// Batched-vs-looped bit identity: one strided-batched call (shared, stride-0
// or per-item A, either transpose, non-tight leading and batch strides) must
// equal running each item alone — the property the serve-path batch
// coalescing leans on. Items of 1, 4 and 7 columns cover the shared-A batches
// the packed backend folds into one tile's columns; at beta == 0, C starts
// NaN-poisoned and must come back finite.
TEST_P(GemmBackendConformance, BatchedCallMatchesLoopedCallsBitwise) {
  flashgen::Rng rng(77);
  for (const bool shared_a : {true, false}) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        for (const int n : {1, 4, 7, 56}) {
          for (const int batch : {1, 3, 8}) {
            for (const float beta : {0.0f, 1.0f, 0.5f}) {
              GemmDesc d;
              d.trans_a = ta;
              d.trans_b = tb;
              d.m = 37;
              d.n = n;
              d.k = 450;  // m * k clears the packed threshold even at n = 1
              d.alpha = 1.0f;
              d.beta = beta;
              d.lda = (ta ? d.m : d.k) + 1;
              d.ldb = (tb ? d.k : d.n) + 3;
              d.ldc = d.n + 2;
              d.batch_count = batch;
              d.stride_a = shared_a ? 0 : (ta ? d.k : d.m) * d.lda + 1;
              d.stride_b = (tb ? d.n : d.k) * d.ldb + 2;
              d.stride_c = d.m * d.ldc + 5;
              std::vector<float> a(a_size(d)), b(b_size(d)), c0(c_size(d));
              fill_normal(a, rng);
              fill_normal(b, rng);
              if (beta == 0.0f) {
                std::fill(c0.begin(), c0.end(), std::numeric_limits<float>::quiet_NaN());
              } else {
                fill_normal(c0, rng);
              }

              std::vector<float> batched = c0;
              sgemm_strided_batched(d, a.data(), b.data(), batched.data());

              std::vector<float> looped = c0;
              GemmDesc single = d;
              single.batch_count = 1;
              single.stride_a = single.stride_b = single.stride_c = 0;
              for (std::int64_t s = 0; s < d.batch_count; ++s)
                sgemm_strided_batched(single, a.data() + s * d.stride_a,
                                      b.data() + s * d.stride_b, looped.data() + s * d.stride_c);
              const std::string where = "shared_a=" + std::to_string(shared_a) +
                                        " ta=" + std::to_string(ta) + " tb=" + std::to_string(tb) +
                                        " n=" + std::to_string(n) + " batch=" +
                                        std::to_string(batch) + " beta=" + std::to_string(beta);
              EXPECT_TRUE(same_bits(batched, looped)) << where;
              if (beta != 0.0f) continue;
              for (std::int64_t s = 0; s < d.batch_count; ++s)
                for (std::int64_t i = 0; i < d.m; ++i)
                  for (std::int64_t j = 0; j < d.n; ++j)
                    ASSERT_TRUE(std::isfinite(batched[s * d.stride_c + i * d.ldc + j]))
                        << where << " NaN leaked at item " << s << " (" << i << "," << j << ")";
            }
          }
        }
      }
    }
  }
}

// Run-to-run determinism: two identical calls, identical bits.
TEST_P(GemmBackendConformance, RunToRunDeterministic) {
  flashgen::Rng rng(13);
  GemmDesc d;
  d.m = 40;
  d.n = 72;
  d.k = 96;
  d.alpha = 0.75f;
  d.beta = 1.0f;
  d.lda = d.k;
  d.ldb = d.n;
  d.ldc = d.n;
  std::vector<float> a(a_size(d)), b(b_size(d)), c0(c_size(d));
  fill_normal(a, rng);
  fill_normal(b, rng);
  fill_normal(c0, rng);
  std::vector<float> r1 = c0, r2 = c0;
  sgemm_strided_batched(d, a.data(), b.data(), r1.data());
  sgemm_strided_batched(d, a.data(), b.data(), r2.data());
  EXPECT_EQ(r1, r2);
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredBackends, GemmBackendConformance,
                         ::testing::ValuesIn(gemm_backend_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(GemmBackendRegistry, ReferenceIsAlwaysRegistered) {
  const auto names = gemm_backend_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "reference"), names.end());
}

TEST(GemmBackendRegistry, UnknownNameThrowsAndKeepsSelection) {
  const std::string before = gemm_backend_name();
  EXPECT_THROW(set_gemm_backend("no-such-backend"), flashgen::Error);
  EXPECT_EQ(gemm_backend_name(), before);
}

// Every packed kernel the host can run must produce the same bits: each C
// element is one full-k FMA chain regardless of tile shape, vector width or
// the tile column a folded batch puts it in, which is what lets the backend
// pick the widest ISA without changing results.
TEST(GemmPackedKernels, AllMenuKernelsBitIdentical) {
  const auto kernels = detail::packed_kernels();
  if (kernels.empty()) GTEST_SKIP() << "host lacks AVX2+FMA; packed backend not registered";

  GemmDesc plain;
  plain.m = 37;
  plain.n = 83;
  plain.k = 51;
  plain.alpha = 1.25f;
  plain.beta = 0.5f;
  plain.lda = plain.k;
  plain.ldb = plain.n;
  plain.ldc = plain.n;
  // The shared-weight form conv uses: one (m x k) weight against a batch of
  // im2col matrices, here the first U-Net down-conv at side 16.
  GemmDesc shared_a;
  shared_a.m = 16;
  shared_a.n = 64;
  shared_a.k = 144;
  shared_a.lda = shared_a.k;
  shared_a.ldb = shared_a.n;
  shared_a.ldc = shared_a.n;
  shared_a.batch_count = 3;
  shared_a.stride_b = shared_a.k * shared_a.ldb;
  shared_a.stride_c = shared_a.m * shared_a.ldc;
  // The innermost down-conv at side 16: eight 1-column items folded into
  // the columns of one tile.
  GemmDesc folded = shared_a;
  folded.m = 128;
  folded.n = 1;
  folded.k = 1152;
  folded.lda = folded.k;
  folded.ldb = folded.ldc = 1;
  folded.batch_count = 8;
  folded.stride_b = folded.k;
  folded.stride_c = folded.m;
  // The conv-transpose dX of the first up-conv: eight 1-column items that
  // accumulate (beta = 1) into the live gradient, folded the same way.
  GemmDesc folded_dx = folded;
  folded_dx.k = 1024;
  folded_dx.beta = 1.0f;
  folded_dx.lda = folded_dx.k;
  folded_dx.stride_b = folded_dx.k;

  flashgen::Rng rng(2718);
  for (const GemmDesc& d : {plain, shared_a, folded, folded_dx}) {
    ASSERT_FALSE(detail::packed_gemm_uses_fallback(d));
    std::vector<float> a(a_size(d)), b(b_size(d)), c0(c_size(d));
    fill_normal(a, rng);
    fill_normal(b, rng);
    fill_normal(c0, rng);

    std::vector<float> first = c0;
    detail::packed_gemm_with_kernel(kernels[0], d, a.data(), b.data(), first.data());
    for (std::size_t index = 1; index < kernels.size(); ++index) {
      std::vector<float> c = c0;
      detail::packed_gemm_with_kernel(kernels[index], d, a.data(), b.data(), c.data());
      EXPECT_EQ(c, first) << kernels[index].mr << "x" << kernels[index].nr << " diverged from "
                          << kernels[0].mr << "x" << kernels[0].nr
                          << " at batch_count=" << d.batch_count;
    }
  }
}

// The packed backend's fallback rule at the U-Net's innermost layers (side
// 16, 16 base channels, z_dim 8): only k and the flop count decide, so the
// forward GEMMs of down2, down3, up0 and up1 and the conv-transpose dX GEMMs
// of up0 and up1 (beta = 1, 1- and 4-column items) all run packed.
TEST(GemmPackedKernels, DeepUnetLayersTakeThePackedPath) {
  const struct {
    const char* layer;
    bool trans_a;
    int m, n, k;
    float beta;
  } deep[] = {{"down2", false, 64, 4, 640, 0.0f},   {"down3", false, 128, 1, 1152, 0.0f},
              {"up0", true, 1024, 1, 128, 0.0f},    {"up1", true, 512, 4, 128, 0.0f},
              {"up0_dx", false, 128, 1, 1024, 1.0f}, {"up1_dx", false, 128, 4, 512, 1.0f}};
  for (const auto& layer : deep) {
    GemmDesc d;
    d.trans_a = layer.trans_a;
    d.m = layer.m;
    d.n = layer.n;
    d.k = layer.k;
    d.beta = layer.beta;
    EXPECT_FALSE(detail::packed_gemm_uses_fallback(d)) << layer.layer;
  }
}

// Every packed kernel equals the reference loop nest bit for bit, for any
// beta and any C: both start each element's chain at beta * C and add one
// FMA per k in increasing order. Covers the shapes the fallback rule once
// kept off the packed path (beta != 0 with 1-7 column items), shared and
// per-item A, both transposes, and non-tight ldc and stride_c, which the
// macro phase reads. Shared-A batches fold to widths on both sides of each
// kernel's sideways switch (batch * n < nr): one and two tile-row strips
// (8 and 15 at mr = 14) and nr - 1, nr, nr + 1, as batches of 1-column
// items and of wider items. Each case runs without a panel cache and twice
// with one installed and A marked constant_a, a miss and then a hit. Like
// the golden digests, this needs a build that contracts the reference
// loop's multiply-add into an FMA.
TEST(GemmPackedKernels, EveryKernelMatchesReferenceBitwise) {
#ifndef __FMA__
  GTEST_SKIP() << "build does not contract multiply-adds into FMAs";
#endif
  const auto kernels = detail::packed_kernels();
  if (kernels.empty()) GTEST_SKIP() << "host lacks AVX2+FMA; packed backend not registered";
  flashgen::Rng rng(1729);
  for (const detail::MicroKernel& kernel : kernels) {
    // (batch_count, n) pairs.
    std::vector<std::pair<int, int>> shapes = {{3, 1}, {3, 4}, {3, 7}, {3, 56}};
    for (const int width : {8, 15, kernel.nr - 1, kernel.nr, kernel.nr + 1}) {
      shapes.emplace_back(width, 1);
      for (int n = 2; n < width; ++n) {
        if (width % n == 0) {
          shapes.emplace_back(width / n, n);
          break;
        }
      }
    }
    for (const float beta : {0.0f, 1.0f, 0.5f, -2.0f}) {
      for (const float alpha : {1.0f, -0.75f}) {
        for (const auto& [batch, n] : shapes) {
          for (const bool shared_a : {true, false}) {
            for (const bool ta : {false, true}) {
              for (const bool tb : {false, true}) {
                GemmDesc d;
                d.trans_a = ta;
                d.trans_b = tb;
                d.m = 37;
                d.n = n;
                d.k = 51;
                d.alpha = alpha;
                d.beta = beta;
                d.lda = (ta ? d.m : d.k) + 1;
                d.ldb = (tb ? d.k : d.n) + 3;
                d.ldc = d.n + 2;
                d.batch_count = batch;
                d.stride_a = shared_a ? 0 : (ta ? d.k : d.m) * d.lda + 1;
                d.stride_b = (tb ? d.n : d.k) * d.ldb + 2;
                d.stride_c = d.m * d.ldc + 5;
                std::vector<float> a(a_size(d)), b(b_size(d)), c0(c_size(d));
                fill_normal(a, rng);
                fill_normal(b, rng);
                fill_normal(c0, rng);
                std::vector<float> expected = c0;
                detail::reference_gemm(d, a.data(), b.data(), expected.data());
                const auto where = [&] {
                  std::ostringstream os;
                  os << kernel.mr << "x" << kernel.nr << " beta=" << beta << " alpha=" << alpha
                     << " batch=" << batch << " n=" << n << " shared_a=" << shared_a
                     << " ta=" << ta << " tb=" << tb;
                  return os.str();
                };
                std::vector<float> c = c0;
                detail::packed_gemm_with_kernel(kernel, d, a.data(), b.data(), c.data());
                EXPECT_TRUE(same_bits(c, expected)) << where() << " uncached";

                // A fresh cache per case: a later case's A may reuse this
                // one's address with other contents.
                WeightPanelCache cache;
                const WeightPanelCache::Scope scope(cache, /*weights_version=*/0);
                d.constant_a = true;
                for (const char* pass : {"miss", "hit"}) {
                  c = c0;
                  detail::packed_gemm_with_kernel(kernel, d, a.data(), b.data(), c.data());
                  EXPECT_TRUE(same_bits(c, expected)) << where() << " cache " << pass;
                  EXPECT_EQ(cache.size(), shared_a ? 1u : 0u) << where() << " cache " << pass;
                }
              }
            }
          }
        }
      }
    }
  }
}

// An unmarked GEMM never reads the installed cache: issued twice through the
// same A pointer with new contents in between, it returns fresh results, and
// the cache stays empty.
TEST(GemmPackedKernels, UnmarkedOperandIsNeverCached) {
  const auto kernels = detail::packed_kernels();
  if (kernels.empty()) GTEST_SKIP() << "host lacks AVX2+FMA; packed backend not registered";
  GemmDesc d;
  d.m = 40;
  d.n = 1;
  d.k = 64;
  d.lda = d.k;
  d.ldb = d.ldc = 1;
  d.batch_count = 4;
  d.stride_b = d.k;
  d.stride_c = d.m;
  flashgen::Rng rng(31);
  std::vector<float> a(a_size(d)), b(b_size(d));
  fill_normal(b, rng);
  WeightPanelCache cache;
  const WeightPanelCache::Scope scope(cache, /*weights_version=*/0);
  for (const detail::MicroKernel& kernel : kernels) {
    for (int round = 0; round < 2; ++round) {
      fill_normal(a, rng);
      std::vector<float> expected(c_size(d)), c(c_size(d));
      detail::reference_gemm(d, a.data(), b.data(), expected.data());
      detail::packed_gemm_with_kernel(kernel, d, a.data(), b.data(), c.data());
      EXPECT_TRUE(same_bits(c, expected)) << kernel.mr << "x" << kernel.nr << " round " << round;
    }
  }
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace flashgen::tensor
