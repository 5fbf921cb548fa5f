// Pluggable GEMM backends behind a narrow strided-batched descriptor API.
//
// Styled after MIOpenTensile's miopen_tensile_gemm: callers describe one
// (possibly batched) row-major SGEMM with a plain descriptor and the selected
// backend supplies the kernel. Two backends are always considered:
//
//   "reference"  the original row-blocked loop nest. Portable, and the bit
//                pattern every historical result was produced with.
//   "avx2"       packed A/B panels + a register-tiled FMA microkernel (see
//                gemm_packed.h). Registered only when the host CPU supports
//                AVX2+FMA; it runs the 512-bit kernel instead of the 256-bit
//                one when the host also has AVX-512F.
//
// Selection: set_gemm_backend() beats the FLASHGEN_GEMM_BACKEND environment
// variable (read once, at first dispatch) beats the built-in default, which
// is the fastest registered backend ("avx2" when available).
//
// Backend contract (enforced by tests/tensor/gemm_backend_test.cpp):
//   * run() is only called with m, n, k >= 1, alpha != 0, batch_count >= 1;
//     the k == 0 / alpha == 0 "C = beta*C, never touch A or B" edge is
//     handled centrally in the dispatcher.
//   * Results are bit-identical for any FLASHGEN_THREADS value and for a
//     batched call vs. the equivalent loop of single calls: every C element
//     must be accumulated in a fixed order that depends only on the
//     per-item descriptor (m, n, k, beta) — never on thread count, batch
//     size or position, leading strides, or (for the packed backend) the
//     host's tile shape, the tile column a shared-A batch folds it into, or
//     the tile's orientation: the packed backend may run a narrow folded
//     batch sideways (tile rows over the folded columns, see gemm_packed.cpp)
//     and may reuse cached A panels (constant_a), but the chain is the same.
//   * beta == 0 overwrites C without reading it (NaN-poisoned C stays inert),
//     beta == 1 adds, anything else scales-and-adds.
//   * Every C element is one FMA chain that starts at beta * C (+0 at
//     beta == 0, C itself at beta == 1) and adds (alpha * op(A)[i][p]) *
//     op(B)[p][j] for p in increasing order. Both built-in backends compute
//     exactly this chain, so in FMA-contracting builds (Release,
//     -ffp-contract=fast) they agree bit-for-bit for any beta and any C; the
//     golden digests rely on it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace flashgen::tensor {

/// One strided-batched row-major SGEMM:
///   C[s] = alpha * op(A[s]) * op(B[s]) + beta * C[s],  s in [0, batch_count)
/// where X[s] = x + s * stride_x, op(A) is m x k, op(B) is k x n, C is m x n,
/// and lda/ldb/ldc are the row strides of the *stored* (untransposed)
/// matrices. A stride of 0 shares one operand across the whole batch.
struct GemmDesc {
  bool trans_a = false;
  bool trans_b = false;
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t k = 0;
  float alpha = 1.0f;
  float beta = 0.0f;
  std::int64_t lda = 0;
  std::int64_t ldb = 0;
  std::int64_t ldc = 0;
  std::int64_t batch_count = 1;
  std::int64_t stride_a = 0;
  std::int64_t stride_b = 0;
  std::int64_t stride_c = 0;
  /// A is a weight that stays unchanged while a WeightPanelCache is
  /// installed on the calling thread (weight_panels.h); the conv forwards set
  /// it. The packed backend may then reuse A's packed panels from the cache
  /// when A is shared (stride_a == 0). Other backends ignore it; bits never
  /// depend on it.
  bool constant_a = false;
};

/// A GEMM implementation. Implementations must be stateless or internally
/// synchronized: one instance serves every thread in the process.
class GemmBackend {
 public:
  virtual ~GemmBackend() = default;
  virtual const char* name() const = 0;
  /// Computes the descriptor (see the file comment for the call contract).
  virtual void run(const GemmDesc& desc, const float* a, const float* b, float* c) const = 0;
};

/// Registers an additional backend (the built-ins register themselves).
/// A later registration under an existing name replaces the old backend.
void register_gemm_backend(std::unique_ptr<GemmBackend> backend);

/// Names of every registered backend, in registration order.
std::vector<std::string> gemm_backend_names();

/// Selects the process-wide backend. Throws flashgen::Error for an unknown
/// name (the current selection is left unchanged).
void set_gemm_backend(const std::string& name);

/// The currently selected backend (resolving FLASHGEN_GEMM_BACKEND and the
/// default on first use).
const GemmBackend& current_gemm_backend();

/// current_gemm_backend().name(), as a string.
std::string gemm_backend_name();

}  // namespace flashgen::tensor
