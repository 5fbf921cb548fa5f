// Internals of the packed ("avx2") GEMM backend: one microkernel per ISA and
// the backend factories. Tests include this; everything else goes through
// gemm.h.
//
// A microkernel computes a full-K register tile: given packed panels
//   pa[k][mr] = alpha * op(A)[i0+r][p]   (rows beyond m zero-padded)
//   pb[k][nr] = op(B)[p][j0+j]           (cols beyond n zero-padded)
// and an accumulator tile acc[mr][nr] that arrives initialised with the
// chain's start (beta * C[i0+r][j0+j], 0 at beta == 0 and in the padding),
// it updates acc[r][j] += pa[p][r] * pb[p][j] with one FMA per p, strictly in
// increasing-p order. Because every element is a single rounding chain from
// beta * C over the full k range, the result bits are identical for every
// kernel (any mr/nr, 256-bit or 512-bit lanes), so the host's ISA decides
// speed, never bits; and the chain is the reference loop nest's, so the
// backends agree too. The same holds when the backend swaps the roles of A
// and B in a tile (the sideways orientation, gemm_packed.cpp): the kernel
// then computes acc[r][j] += pb'[p][r] * pa'[p][j], the same exact product.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "tensor/gemm_backend.h"

namespace flashgen::tensor {

std::unique_ptr<GemmBackend> make_reference_gemm_backend();
/// nullptr when the host CPU lacks AVX2+FMA (the backend is then simply not
/// registered and "reference" remains the only choice).
std::unique_ptr<GemmBackend> make_packed_gemm_backend();

namespace detail {

struct MicroKernel {
  int mr;  // register-tile rows
  int nr;  // register-tile columns (multiple of the vector width)
  void (*run)(std::int64_t k, const float* pa, const float* pb, float* acc);
};

/// The kernels this host can run, widest ISA first: the AVX-512 14x32 tile
/// when the CPU has AVX-512F, then the AVX2 6x16 tile. The backend runs the
/// first. Empty when AVX2+FMA is missing; stable for the process lifetime.
std::span<const MicroKernel> packed_kernels();

/// Runs `desc` through the packed path with an explicit kernel: sideways
/// when a shared A's folded width batch*n is below kernel.nr, and with A's
/// panels from the calling thread's WeightPanelCache when desc.constant_a.
void packed_gemm_with_kernel(const MicroKernel& kernel, const GemmDesc& desc, const float* a,
                             const float* b, float* c);

/// True when `desc` is small enough (k < 2, or under 2^14 multiply-adds per
/// item) that the packed backend routes it to the reference loop nest instead
/// of paying the packing overhead. Depends only on the per-item shape.
/// Exposed so tests can pick shapes on both sides.
bool packed_gemm_uses_fallback(const GemmDesc& desc);

// Per-ISA kernels, defined in gemm_kernels_avx2.cpp / gemm_kernels_avx512.cpp
// (compiled with the matching -m flags); nullptr on non-x86 builds. A kernel
// may be present in the binary yet unusable on the host; packed_kernels()
// applies the runtime CPUID gate.
const MicroKernel* avx2_kernel();
const MicroKernel* avx512_kernel();

}  // namespace detail
}  // namespace flashgen::tensor
