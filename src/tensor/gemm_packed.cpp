// The packed ("avx2") GEMM backend: pack op(A)/op(B) into microkernel-shaped
// panels, then sweep register tiles over them with the widest FMA microkernel
// the host supports. Three deterministic-parallel phases per call:
//
//   1. pack A  — (view, row-strip) chunks write disjoint [k][mr] panels with
//                alpha folded in and tail rows zero-padded;
//   2. pack B  — (view, col-strip) chunks write disjoint [k][nr] panels with
//                tail columns zero-padded;
//   3. macro   — (view, col-strip, row-strip) tiles start the accumulator at
//                beta * C, run the microkernel and copy it back to C.
//
// A shared A (stride_a == 0, the conv weight) is packed once and the batch
// folds into columns: column J of one virtual (k, batch*n) op(B) is column
// J % n of item J / n, so a batch of 1-column items fills whole tiles. Every
// phase partitions by shape (and tile config) only, and each C element is
// produced by exactly one tile as a single full-k FMA chain, so results are
// bit-identical across thread counts, batched-vs-looped calls, leading
// strides, and — because the chain never changes — both ISAs' kernels.
// That chain is the reference loop nest's (scale C by beta, then one FMA per
// k in increasing order), so problems too small to amortize packing can fall
// back to it without changing bits; the decision depends only on the
// per-item (m, n, k).
#include <algorithm>
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

// Splits the virtual columns [j0, j0 + width) of view v into per-item runs:
// virtual column J is column J % n of item v + J / n.
template <class Fn>
void for_each_item_run(std::int64_t n, std::int64_t v, std::int64_t j0, std::int64_t width,
                       Fn&& fn) {
  for (std::int64_t j = 0; j < width;) {
    const std::int64_t item = v + (j0 + j) / n, col = (j0 + j) % n;
    const std::int64_t run = std::min(width - j, n - col);
    fn(item, col, j, run);
    j += run;
  }
}

// dst[p][j] = virtual op(B)[p][j0 + j] of view v for j < width, 0 beyond.
void pack_b_strip(const GemmDesc& d, const float* b, std::int64_t v, std::int64_t j0,
                  std::int64_t width, std::int64_t nr, float* dst) {
  const std::int64_t k = d.k;
  for_each_item_run(d.n, v, j0, width, [&](std::int64_t item, std::int64_t col, std::int64_t j,
                                           std::int64_t run) {
    const float* src = b + item * d.stride_b;
    if (d.trans_b) {
      // Stored B is n x k with row stride ldb: op(B)[p][j] = b[j*ldb + p].
      for (std::int64_t q = 0; q < run; ++q)
        for (std::int64_t p = 0; p < k; ++p) dst[p * nr + j + q] = src[(col + q) * d.ldb + p];
    } else {
      for (std::int64_t p = 0; p < k; ++p)
        std::copy_n(src + p * d.ldb + col, run, dst + p * nr + j);
    }
  });
  for (std::int64_t p = 0; p < k; ++p) std::fill(dst + p * nr + width, dst + (p + 1) * nr, 0.0f);
}

// acc tile <- beta * C (C itself at beta == 1): the chain's start, exactly
// the reference loop's scale_rows. Never called at beta == 0, which leaves
// the zeroed tile and never reads C (poisoned C stays inert).
void read_tile(const float* c, std::int64_t ldc, std::int64_t rows, std::int64_t cols,
               float beta, float* acc, std::int64_t nr) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* crow = c + r * ldc;
    float* arow = acc + r * nr;
    if (beta == 1.0f) {
      std::copy_n(crow, cols, arow);
    } else {
      for (std::int64_t j = 0; j < cols; ++j) arow[j] = beta * crow[j];
    }
  }
}

// C tile <- acc; padded accumulator rows/columns are simply not written.
void write_tile(const float* acc, std::int64_t nr, std::int64_t rows, std::int64_t cols,
                float* c, std::int64_t ldc) {
  for (std::int64_t r = 0; r < rows; ++r) std::copy_n(acc + r * nr, cols, c + r * ldc);
}

// Grain helpers: all a function of shape + tile config only, never of the
// thread count, preserving the pool-size-invariant partition contract.
std::int64_t pack_grain(std::int64_t elems_per_strip) {
  return std::max<std::int64_t>(1, (std::int64_t{1} << 14) / std::max<std::int64_t>(1, elems_per_strip));
}
std::int64_t macro_grain(std::int64_t tile_flops) {
  return std::max<std::int64_t>(1, (std::int64_t{1} << 15) / std::max<std::int64_t>(1, tile_flops));
}

}  // namespace

bool packed_gemm_uses_fallback(const GemmDesc& desc) {
  return desc.k < 2 || desc.m * desc.n * desc.k < kMinPackedFlops;
}

void packed_gemm_with_kernel(const MicroKernel& kernel, const GemmDesc& d, const float* a,
                             const float* b, float* c) {
  const std::int64_t mr = kernel.mr, nr = kernel.nr;
  FG_CHECK(mr * nr <= kMaxTileElems, "gemm microkernel tile too large: " << mr << "x" << nr);
  const std::int64_t m = d.m, n = d.n, k = d.k, batch = d.batch_count;
  // Views are the distinct A operands; a shared A folds the batch into
  // columns of one virtual B, so there is one view of width batch * n.
  const bool fold = d.stride_a == 0;
  const std::int64_t views = fold ? 1 : batch;
  const std::int64_t width = fold ? batch * n : n;
  const std::int64_t b_views = fold || d.stride_b == 0 ? 1 : batch;
  const std::int64_t m_strips = (m + mr - 1) / mr;
  const std::int64_t n_strips = (width + nr - 1) / nr;
  const std::int64_t pa_strip = mr * k, pb_strip = nr * k;

  ScratchBuffer pa(static_cast<std::size_t>(views) * m_strips * pa_strip);
  ScratchBuffer pb(static_cast<std::size_t>(b_views) * n_strips * pb_strip);

  common::parallel_for(0, views * m_strips, pack_grain(pa_strip),
                       [&](std::int64_t t0, std::int64_t t1) {
                         for (std::int64_t t = t0; t < t1; ++t) {
                           const std::int64_t v = t / m_strips, i0 = (t % m_strips) * mr;
                           pack_a_strip(d, a + v * d.stride_a, i0, std::min(mr, m - i0), mr,
                                        pa.data() + t * pa_strip);
                         }
                       });
  common::parallel_for(0, b_views * n_strips, pack_grain(pb_strip),
                       [&](std::int64_t t0, std::int64_t t1) {
                         for (std::int64_t t = t0; t < t1; ++t) {
                           const std::int64_t v = t / n_strips, j0 = (t % n_strips) * nr;
                           pack_b_strip(d, b, v, j0, std::min(nr, width - j0), nr,
                                        pb.data() + t * pb_strip);
                         }
                       });

  // Tiles run row strips fastest, so one B panel is reused across all of A.
  // A tile's accumulator starts at beta * C over its item runs (0 in the
  // padding) and is copied back over them after the kernel.
  const std::int64_t tiles = n_strips * m_strips;
  common::parallel_for(0, views * tiles, macro_grain(mr * nr * k), [&](std::int64_t t0,
                                                                      std::int64_t t1) {
    alignas(64) float acc[kMaxTileElems];
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t v = t / tiles, js = (t % tiles) / m_strips, is = t % m_strips;
      const std::int64_t i0 = is * mr, j0 = js * nr, rows = std::min(mr, m - i0);
      const std::int64_t vb = b_views == 1 ? 0 : v;
      // fn(C block, accumulator block, columns) for each item run of the tile.
      const auto each_run = [&](auto&& fn) {
        for_each_item_run(n, v, j0, std::min(nr, width - j0),
                          [&](std::int64_t item, std::int64_t col, std::int64_t j,
                              std::int64_t run) {
                            fn(c + item * d.stride_c + i0 * d.ldc + col, acc + j, run);
                          });
      };
      std::fill_n(acc, mr * nr, 0.0f);
      if (d.beta != 0.0f) {
        each_run([&](const float* cb, float* ab, std::int64_t run) {
          read_tile(cb, d.ldc, rows, run, d.beta, ab, nr);
        });
      }
      kernel.run(k, pa.data() + (v * m_strips + is) * pa_strip,
                 pb.data() + (vb * n_strips + js) * pb_strip, acc);
      each_run([&](float* cb, const float* ab, std::int64_t run) {
        write_tile(ab, nr, rows, run, cb, d.ldc);
      });
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
