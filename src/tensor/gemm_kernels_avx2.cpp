// The 256-bit FMA microkernel for the packed GEMM backend. This translation
// unit is compiled for baseline x86-64 + AVX2/FMA regardless of the global
// -march flags (see src/tensor/CMakeLists.txt), so the binary stays runnable
// on any AVX2 host; gemm_packed.cpp gates the kernel behind a CPUID check.
#include "tensor/gemm_packed.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

namespace flashgen::tensor::detail {
namespace {

// The classic 6x16 register tile: MR rows x (NV * 8) columns. One accumulator
// register per (row, vector) pair, loaded from `acc` (the chain's start,
// beta * C) and updated by exactly one FMA per k step: each C element is a
// single rounding chain in strictly increasing-k order, so the bits are
// independent of the tile shape. 16 ymm registers hold the
// 12 accumulators, the NV B vectors and one broadcast without spilling.
constexpr int MR = 6, NV = 2, NR = NV * 8;

void kernel(std::int64_t k, const float* pa, const float* pb, float* acc) {
  __m256 c[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) c[r][v] = _mm256_loadu_ps(acc + r * NR + v * 8);
  for (std::int64_t p = 0; p < k; ++p) {
    __m256 b[NV];
    for (int v = 0; v < NV; ++v) b[v] = _mm256_loadu_ps(pb + p * NR + v * 8);
    for (int r = 0; r < MR; ++r) {
      const __m256 a = _mm256_broadcast_ss(pa + p * MR + r);
      for (int v = 0; v < NV; ++v) c[r][v] = _mm256_fmadd_ps(a, b[v], c[r][v]);
    }
  }
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) _mm256_storeu_ps(acc + r * NR + v * 8, c[r][v]);
}

constexpr MicroKernel kKernel{MR, NR, &kernel};

}  // namespace

const MicroKernel* avx2_kernel() { return &kKernel; }

}  // namespace flashgen::tensor::detail

#else  // non-x86: no kernel; the packed backend is not registered.

namespace flashgen::tensor::detail {
const MicroKernel* avx2_kernel() { return nullptr; }
}  // namespace flashgen::tensor::detail

#endif
