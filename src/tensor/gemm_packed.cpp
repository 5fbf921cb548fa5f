// The packed ("avx2") GEMM backend: pack op(A)/op(B) into microkernel-shaped
// panels, then sweep register tiles over them with the widest FMA microkernel
// the host supports. Three deterministic-parallel phases per call:
//
//   1. pack A  — (view, A-strip) chunks write disjoint panels of A's rows
//                with alpha folded in and tail rows zero-padded;
//   2. pack B  — (view, B-strip) chunks write disjoint panels of op(B)'s
//                columns with tail columns zero-padded;
//   3. macro   — (view, B-strip, A-strip) tiles start the accumulator at
//                beta * C, run the microkernel and copy it back to C.
//
// A shared A (stride_a == 0, the conv weight) is packed once and the batch
// folds into columns: column J of one virtual (k, batch*n) op(B) is column
// J % n of item J / n, so a batch of 1-column items fills whole tiles.
//
// Orientation: normally A's rows are the tile rows (A panels [k][mr]) and
// B's columns the tile columns (B panels [k][nr]). When a shared A's folded
// width batch*n is below nr (the innermost U-Net layers: one column per
// item), the tile runs sideways: the folded columns become the tile rows (B
// panels [k][mr]), A's rows the tile columns (A panels [k][nr]), and the
// accumulator is filled from and written to C transposed. The kernel's
// product is exact and commutative, so each element's FMA chain is the same.
//
// A GEMM marked constant_a with a shared A reuses its packed A panels from
// the WeightPanelCache installed on the calling thread, if any (see
// weight_panels.h); a miss packs into cache-owned storage.
//
// Every phase partitions by shape (and tile config) only, and each C element
// is produced by exactly one tile as a single full-k FMA chain, so results
// are bit-identical across thread counts, batched-vs-looped calls, leading
// strides, orientations, cached or fresh panels, and — because the chain
// never changes — both ISAs' kernels. That chain is the reference loop
// nest's (scale C by beta, then one FMA per k in increasing order), so
// problems too small to amortize packing can fall back to it without
// changing bits; the decision depends only on the per-item (m, n, k).
#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "tensor/gemm_backend.h"
#include "tensor/gemm_packed.h"
#include "tensor/gemm_util.h"
#include "tensor/weight_panels.h"
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
// the reference loop's scale_rows. acc[r][j] starts the chain of the C
// element at c[r * rs + j * cs], so one routine serves both orientations.
// Never called at beta == 0, which leaves the zeroed tile and never reads C
// (poisoned C stays inert).
void read_tile(const float* c, std::int64_t rs, std::int64_t cs, std::int64_t rows,
               std::int64_t cols, float beta, float* acc, std::int64_t nr) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* crow = c + r * rs;
    float* arow = acc + r * nr;
    for (std::int64_t j = 0; j < cols; ++j)
      arow[j] = beta == 1.0f ? crow[j * cs] : beta * crow[j * cs];
  }
}

// C tile <- acc over the same mapping; padded accumulator rows/columns are
// simply not written.
void write_tile(const float* acc, std::int64_t nr, std::int64_t rows, std::int64_t cols,
                float* c, std::int64_t rs, std::int64_t cs) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* arow = acc + r * nr;
    float* crow = c + r * rs;
    if (cs == 1) {
      std::copy_n(arow, cols, crow);
    } else {
      for (std::int64_t j = 0; j < cols; ++j) crow[j * cs] = arow[j];
    }
  }
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
  // A folded width below nr would leave most tile columns empty, so the tile
  // turns sideways: its rows take the folded columns (B panels mr wide) and
  // its columns take A's rows (A panels nr wide). The kernel's exact product
  // commutes, so every C element is still the same chain.
  const bool sideways = fold && width < nr;
  const std::int64_t a_wide = sideways ? nr : mr, b_wide = sideways ? mr : nr;
  const std::int64_t a_strips = (m + a_wide - 1) / a_wide;
  const std::int64_t b_strips = (width + b_wide - 1) / b_wide;
  const std::int64_t pa_strip = a_wide * k, pb_strip = b_wide * k;

  const auto pack_a = [&](float* dst) {
    common::parallel_for(0, views * a_strips, pack_grain(pa_strip),
                         [&](std::int64_t t0, std::int64_t t1) {
                           for (std::int64_t t = t0; t < t1; ++t) {
                             const std::int64_t v = t / a_strips, i0 = (t % a_strips) * a_wide;
                             pack_a_strip(d, a + v * d.stride_a, i0, std::min(a_wide, m - i0),
                                          a_wide, dst + t * pa_strip);
                           }
                         });
  };
  // A marked constant weight keeps its panels in the thread's cache, if one
  // is installed; anything else is packed into scratch on every call.
  WeightPanelCache* const cache =
      d.constant_a && fold ? WeightPanelCache::installed() : nullptr;
  std::optional<ScratchBuffer> pa_scratch;
  const float* pa = nullptr;
  if (cache != nullptr) {
    const WeightPanelCache::Key key{a,
                                    d.trans_a,
                                    m,
                                    k,
                                    d.lda,
                                    std::bit_cast<std::uint32_t>(d.alpha),
                                    kernel.mr,
                                    kernel.nr,
                                    sideways};
    pa = cache->find(key);
    if (pa == nullptr) {
      float* fresh = cache->insert(key, static_cast<std::size_t>(a_strips * pa_strip));
      pack_a(fresh);
      pa = fresh;
    }
  } else {
    pa_scratch.emplace(static_cast<std::size_t>(views) * a_strips * pa_strip);
    pack_a(pa_scratch->data());
    pa = pa_scratch->data();
  }

  ScratchBuffer pb(static_cast<std::size_t>(b_views) * b_strips * pb_strip);
  common::parallel_for(0, b_views * b_strips, pack_grain(pb_strip),
                       [&](std::int64_t t0, std::int64_t t1) {
                         for (std::int64_t t = t0; t < t1; ++t) {
                           const std::int64_t v = t / b_strips, j0 = (t % b_strips) * b_wide;
                           pack_b_strip(d, b, v, j0, std::min(b_wide, width - j0), b_wide,
                                        pb.data() + t * pb_strip);
                         }
                       });

  // Tiles run A strips fastest, so one B panel is reused across all of A.
  // A tile's accumulator starts at beta * C over its item runs (0 in the
  // padding) and is copied back over them after the kernel; sideways, a run
  // is a band of accumulator rows and C is read and written transposed.
  const std::int64_t tiles = b_strips * a_strips;
  common::parallel_for(0, views * tiles, macro_grain(mr * nr * k), [&](std::int64_t t0,
                                                                      std::int64_t t1) {
    alignas(64) float acc[kMaxTileElems];
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t v = t / tiles, bs = (t % tiles) / a_strips, as = t % a_strips;
      const std::int64_t i0 = as * a_wide, j0 = bs * b_wide, rows = std::min(a_wide, m - i0);
      const std::int64_t vb = b_views == 1 ? 0 : v;
      const float* a_panel = pa + (v * a_strips + as) * pa_strip;
      const float* b_panel = pb.data() + (vb * b_strips + bs) * pb_strip;
      // fn(C block, accumulator block, acc rows, acc columns, C stride per
      // acc row, C stride per acc column) for each item run of the tile.
      const auto each_run = [&](auto&& fn) {
        for_each_item_run(n, v, j0, std::min(b_wide, width - j0),
                          [&](std::int64_t item, std::int64_t col, std::int64_t j,
                              std::int64_t run) {
                            float* cb = c + item * d.stride_c + i0 * d.ldc + col;
                            if (sideways) {
                              fn(cb, acc + j * nr, run, rows, std::int64_t{1}, d.ldc);
                            } else {
                              fn(cb, acc + j, rows, run, d.ldc, std::int64_t{1});
                            }
                          });
      };
      std::fill_n(acc, mr * nr, 0.0f);
      if (d.beta != 0.0f) {
        each_run([&](const float* cb, float* ab, std::int64_t r, std::int64_t cols,
                     std::int64_t rs, std::int64_t cs) {
          read_tile(cb, rs, cs, r, cols, d.beta, ab, nr);
        });
      }
      if (sideways) {
        kernel.run(k, b_panel, a_panel, acc);
      } else {
        kernel.run(k, a_panel, b_panel, acc);
      }
      each_run([&](float* cb, const float* ab, std::int64_t r, std::int64_t cols,
                   std::int64_t rs, std::int64_t cs) { write_tile(ab, nr, r, cols, cb, rs, cs); });
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
