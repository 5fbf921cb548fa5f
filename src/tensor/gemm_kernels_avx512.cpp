// The 512-bit FMA microkernel for the packed GEMM backend. Same contract as
// the AVX2 kernel (one FMA chain per C element from the loaded accumulator,
// strict k order), so it produces bit-identical results to the 256-bit one —
// AVX-512 is purely a throughput upgrade, selected at runtime when the host
// supports it.
#include "tensor/gemm_packed.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

namespace flashgen::tensor::detail {
namespace {

// A 14x32 register tile: 28 accumulators + NV B vectors + 1 broadcast fit
// the 32 zmm registers.
constexpr int MR = 14, NV = 2, NR = NV * 16;

void kernel(std::int64_t k, const float* pa, const float* pb, float* acc) {
  __m512 c[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) c[r][v] = _mm512_loadu_ps(acc + r * NR + v * 16);
  for (std::int64_t p = 0; p < k; ++p) {
    __m512 b[NV];
    for (int v = 0; v < NV; ++v) b[v] = _mm512_loadu_ps(pb + p * NR + v * 16);
    for (int r = 0; r < MR; ++r) {
      const __m512 a = _mm512_set1_ps(pa[p * MR + r]);
      for (int v = 0; v < NV; ++v) c[r][v] = _mm512_fmadd_ps(a, b[v], c[r][v]);
    }
  }
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) _mm512_storeu_ps(acc + r * NR + v * 16, c[r][v]);
}

constexpr MicroKernel kKernel{MR, NR, &kernel};

}  // namespace

const MicroKernel* avx512_kernel() { return &kKernel; }

}  // namespace flashgen::tensor::detail

#else

namespace flashgen::tensor::detail {
const MicroKernel* avx512_kernel() { return nullptr; }
}  // namespace flashgen::tensor::detail

#endif
