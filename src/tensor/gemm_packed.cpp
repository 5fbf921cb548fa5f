// The packed ("avx2") GEMM backend: pack op(A)/op(B) into microkernel-shaped
// panels, then sweep register tiles over them with the widest FMA microkernel
// the host supports. Three deterministic-parallel phases per call:
//
//   1. pack A  — (view, row-strip) chunks write disjoint [k][mr] panels with
//                alpha folded in and tail rows zero-padded;
//   2. pack B  — (view, col-strip) chunks write disjoint [k][nr] panels with
//                tail columns zero-padded;
//   3. macro   — (item, row-strip) chunks run the microkernel over every
//                column strip and write back C with beta applied once.
//
// Every phase partitions by shape (and tile config) only, and each C element
// is produced by exactly one chunk as a single full-k FMA chain, so results
// are bit-identical across thread counts, batched-vs-looped calls, leading
// strides, and — because the chain never changes — both ISAs' kernels.
// Problems too small to amortize packing fall back to the reference loop
// nest; the decision depends only on the per-item (m, n, k).
#include <memory>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "tensor/gemm_backend.h"
#include "tensor/gemm_packed.h"
#include "tensor/gemm_util.h"
#include "tensor/workspace.h"

namespace flashgen::tensor {
namespace detail {

namespace {

// Room for the largest register tile (the AVX-512 14x32 tile is 448 floats).
constexpr int kMaxTileElems = 512;

// Packed-path threshold: below this the packing traffic (m*k + k*n extra
// reads/writes) rivals the multiply count and the plain loop nest wins.
// Depends only on the per-item shape so batched and looped calls agree.
constexpr std::int64_t kMinPackedFlops = std::int64_t{1} << 14;

bool cpu_has_avx2_fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_has_avx512f() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

// dst[p][r] = alpha * op(A)[i0 + r][p] for r < rows, 0 beyond (never reads
// outside the valid rows, so tight allocations stay ASan-clean).
void pack_a_strip(const GemmDesc& d, const float* a, std::int64_t i0, std::int64_t rows,
                  std::int64_t mr, float* dst) {
  const std::int64_t k = d.k;
  if (d.trans_a) {
    // Stored A is k x m with row stride lda: op(A)[i][p] = a[p*lda + i].
    for (std::int64_t p = 0; p < k; ++p) {
      const float* src = a + p * d.lda + i0;
      float* out = dst + p * mr;
      for (std::int64_t r = 0; r < rows; ++r) out[r] = d.alpha * src[r];
      for (std::int64_t r = rows; r < mr; ++r) out[r] = 0.0f;
    }
  } else {
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* src = a + (i0 + r) * d.lda;
      for (std::int64_t p = 0; p < k; ++p) dst[p * mr + r] = d.alpha * src[p];
    }
    if (rows < mr) {
      for (std::int64_t p = 0; p < k; ++p)
        for (std::int64_t r = rows; r < mr; ++r) dst[p * mr + r] = 0.0f;
    }
  }
}

// dst[p][j] = op(B)[p][j0 + j] for j < cols, 0 beyond.
void pack_b_strip(const GemmDesc& d, const float* b, std::int64_t j0, std::int64_t cols,
                  std::int64_t nr, float* dst) {
  const std::int64_t k = d.k;
  if (d.trans_b) {
    // Stored B is n x k with row stride ldb: op(B)[p][j] = b[j*ldb + p].
    for (std::int64_t j = 0; j < cols; ++j) {
      const float* src = b + (j0 + j) * d.ldb;
      for (std::int64_t p = 0; p < k; ++p) dst[p * nr + j] = src[p];
    }
    for (std::int64_t j = cols; j < nr; ++j)
      for (std::int64_t p = 0; p < k; ++p) dst[p * nr + j] = 0.0f;
  } else {
    for (std::int64_t p = 0; p < k; ++p) {
      const float* src = b + p * d.ldb + j0;
      float* out = dst + p * nr;
      for (std::int64_t j = 0; j < cols; ++j) out[j] = src[j];
      for (std::int64_t j = cols; j < nr; ++j) out[j] = 0.0f;
    }
  }
}

// C tile <- acc with beta applied. beta == 0 never reads C (poisoned C stays
// inert); padded accumulator rows/columns are simply not written.
void write_tile(const float* acc, std::int64_t nr, std::int64_t rows, std::int64_t cols,
                float beta, float* c, std::int64_t ldc) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* arow = acc + r * nr;
    float* crow = c + r * ldc;
    if (beta == 0.0f) {
      for (std::int64_t j = 0; j < cols; ++j) crow[j] = arow[j];
    } else if (beta == 1.0f) {
      for (std::int64_t j = 0; j < cols; ++j) crow[j] += arow[j];
    } else {
      for (std::int64_t j = 0; j < cols; ++j) crow[j] = arow[j] + beta * crow[j];
    }
  }
}

// Grain helpers: all a function of shape + tile config only, never of the
// thread count, preserving the pool-size-invariant partition contract.
std::int64_t pack_grain(std::int64_t elems_per_strip) {
  return std::max<std::int64_t>(1, (std::int64_t{1} << 14) / std::max<std::int64_t>(1, elems_per_strip));
}
std::int64_t macro_grain(std::int64_t mr, std::int64_t n, std::int64_t k) {
  const std::int64_t flops = std::max<std::int64_t>(1, mr * n * k);
  return std::max<std::int64_t>(1, (std::int64_t{1} << 15) / flops);
}

}  // namespace

bool packed_gemm_uses_fallback(const GemmDesc& desc) {
  return desc.n < 8 || desc.k < 2 || desc.m * desc.n * desc.k < kMinPackedFlops;
}

void packed_gemm_with_kernel(const MicroKernel& kernel, const GemmDesc& d, const float* a,
                             const float* b, float* c) {
  const std::int64_t mr = kernel.mr, nr = kernel.nr;
  FG_CHECK(mr * nr <= kMaxTileElems, "gemm microkernel tile too large: " << mr << "x" << nr);
  const std::int64_t m = d.m, n = d.n, k = d.k, batch = d.batch_count;
  const std::int64_t m_strips = (m + mr - 1) / mr;
  const std::int64_t n_strips = (n + nr - 1) / nr;
  // A stride of 0 shares the operand across items: pack it once.
  const std::int64_t a_views = d.stride_a == 0 ? 1 : batch;
  const std::int64_t b_views = d.stride_b == 0 ? 1 : batch;
  const std::int64_t pa_strip = mr * k, pb_strip = nr * k;

  ScratchBuffer pa(static_cast<std::size_t>(a_views) * m_strips * pa_strip);
  ScratchBuffer pb(static_cast<std::size_t>(b_views) * n_strips * pb_strip);

  common::parallel_for(0, a_views * m_strips, pack_grain(pa_strip),
                       [&](std::int64_t t0, std::int64_t t1) {
                         for (std::int64_t t = t0; t < t1; ++t) {
                           const std::int64_t s = t / m_strips, is = t % m_strips;
                           const std::int64_t i0 = is * mr;
                           pack_a_strip(d, a + s * d.stride_a, i0, std::min(mr, m - i0), mr,
                                        pa.data() + t * pa_strip);
                         }
                       });
  common::parallel_for(0, b_views * n_strips, pack_grain(pb_strip),
                       [&](std::int64_t t0, std::int64_t t1) {
                         for (std::int64_t t = t0; t < t1; ++t) {
                           const std::int64_t s = t / n_strips, js = t % n_strips;
                           const std::int64_t j0 = js * nr;
                           pack_b_strip(d, b + s * d.stride_b, j0, std::min(nr, n - j0), nr,
                                        pb.data() + t * pb_strip);
                         }
                       });

  common::parallel_for(0, batch * m_strips, macro_grain(mr, n, k),
                       [&](std::int64_t t0, std::int64_t t1) {
                         alignas(64) float acc[kMaxTileElems];
                         for (std::int64_t t = t0; t < t1; ++t) {
                           const std::int64_t s = t / m_strips, is = t % m_strips;
                           const std::int64_t i0 = is * mr;
                           const std::int64_t rows = std::min(mr, m - i0);
                           const float* pa_s =
                               pa.data() +
                               ((a_views == 1 ? 0 : s) * m_strips + is) * pa_strip;
                           const float* pb_base =
                               pb.data() + (b_views == 1 ? 0 : s) * n_strips * pb_strip;
                           float* c_item = c + s * d.stride_c + i0 * d.ldc;
                           for (std::int64_t js = 0; js < n_strips; ++js) {
                             kernel.run(k, pa_s, pb_base + js * pb_strip, acc);
                             const std::int64_t j0 = js * nr;
                             write_tile(acc, nr, rows, std::min(nr, n - j0), d.beta,
                                        c_item + j0, d.ldc);
                           }
                         }
                       });
}

std::span<const MicroKernel> packed_kernels() {
  static const std::vector<MicroKernel> kernels = [] {
    std::vector<MicroKernel> out;
    if (cpu_has_avx2_fma()) {
      if (cpu_has_avx512f()) out.push_back(*avx512_kernel());
      out.push_back(*avx2_kernel());
    }
    return out;
  }();
  return kernels;
}

namespace {

class PackedGemmBackend final : public GemmBackend {
 public:
  explicit PackedGemmBackend(const MicroKernel& kernel) : kernel_(kernel) {}
  const char* name() const override { return "avx2"; }
  void run(const GemmDesc& desc, const float* a, const float* b, float* c) const override {
    if (packed_gemm_uses_fallback(desc)) {
      reference_gemm(desc, a, b, c);
      return;
    }
    packed_gemm_with_kernel(kernel_, desc, a, b, c);
  }

 private:
  const MicroKernel kernel_;
};

}  // namespace
}  // namespace detail

std::unique_ptr<GemmBackend> make_packed_gemm_backend() {
  const auto kernels = detail::packed_kernels();
  if (kernels.empty()) return nullptr;  // host can't run either kernel
  return std::make_unique<detail::PackedGemmBackend>(kernels.front());
}

}  // namespace flashgen::tensor
