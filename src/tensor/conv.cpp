#include "tensor/conv.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"

namespace flashgen::tensor {

namespace detail {

namespace {

// Channel-loop grain sized so each chunk touches >= ~16k cells; depends only
// on the geometry, keeping the partition thread-count-invariant.
Index channel_grain(Index work_per_channel) {
  return std::max<Index>(1, (Index{1} << 14) / std::max<Index>(1, work_per_channel));
}

}  // namespace

void im2col(const float* x, Index c, Index h, Index w, Index kh, Index kw, Index stride,
            Index padding, Index oh, Index ow, float* cols) {
  im2col(x, c, h, w, kh, kw, stride, padding, oh, ow, cols, oh * ow);
}

void im2col(const float* x, Index c, Index h, Index w, Index kh, Index kw, Index stride,
            Index padding, Index oh, Index ow, float* cols, Index cols_stride) {
  FG_TRACE_SPAN("im2col", "tensor");
  // Each channel writes a disjoint band of `cols` rows, so the channel loop
  // parallelizes without any coordination.
  common::parallel_for(0, c, channel_grain(kh * kw * oh * ow), [&](Index c0, Index c1) {
    for (Index ch = c0; ch < c1; ++ch) {
      for (Index ky = 0; ky < kh; ++ky) {
        for (Index kx = 0; kx < kw; ++kx) {
          float* row = cols + ((ch * kh + ky) * kw + kx) * cols_stride;
          for (Index oy = 0; oy < oh; ++oy) {
            const Index iy = oy * stride + ky - padding;
            if (iy < 0 || iy >= h) {
              std::memset(row + oy * ow, 0, sizeof(float) * ow);
              continue;
            }
            const float* src = x + (ch * h + iy) * w;
            for (Index ox = 0; ox < ow; ++ox) {
              const Index ix = ox * stride + kx - padding;
              row[oy * ow + ox] = (ix >= 0 && ix < w) ? src[ix] : 0.0f;
            }
          }
        }
      }
    }
  });
}

void col2im(const float* cols, Index c, Index h, Index w, Index kh, Index kw, Index stride,
            Index padding, Index oh, Index ow, float* x) {
  col2im(cols, c, h, w, kh, kw, stride, padding, oh, ow, x, oh * ow);
}

void col2im(const float* cols, Index c, Index h, Index w, Index kh, Index kw, Index stride,
            Index padding, Index oh, Index ow, float* x, Index cols_stride) {
  FG_TRACE_SPAN("col2im", "tensor");
  // Each channel accumulates into a disjoint plane of `x`; parallel over
  // channels, sequential (and therefore order-deterministic) within one.
  common::parallel_for(0, c, channel_grain(kh * kw * oh * ow), [&](Index c0, Index c1) {
    for (Index ch = c0; ch < c1; ++ch) {
      for (Index ky = 0; ky < kh; ++ky) {
        for (Index kx = 0; kx < kw; ++kx) {
          const float* row = cols + ((ch * kh + ky) * kw + kx) * cols_stride;
          for (Index oy = 0; oy < oh; ++oy) {
            const Index iy = oy * stride + ky - padding;
            if (iy < 0 || iy >= h) continue;
            float* dst = x + (ch * h + iy) * w;
            for (Index ox = 0; ox < ow; ++ox) {
              const Index ix = ox * stride + kx - padding;
              if (ix >= 0 && ix < w) dst[ix] += row[oy * ow + ox];
            }
          }
        }
      }
    }
  });
}

}  // namespace detail

namespace {

struct ConvGeom {
  Index n, c, h, w;       // input
  Index oc, kh, kw;       // kernel
  Index stride, padding;
  Index oh, ow;           // output
};

ConvGeom conv_geometry(const Tensor& x, const Tensor& w, Index stride, Index padding) {
  FG_CHECK(x.shape().rank() == 4, "conv: input must be NCHW, got " << x.shape());
  FG_CHECK(w.shape().rank() == 4, "conv: weight must be rank 4, got " << w.shape());
  FG_CHECK(stride >= 1 && padding >= 0, "conv: bad stride/padding " << stride << "/" << padding);
  ConvGeom g;
  g.n = x.shape()[0];
  g.c = x.shape()[1];
  g.h = x.shape()[2];
  g.w = x.shape()[3];
  g.oc = w.shape()[0];
  g.kh = w.shape()[2];
  g.kw = w.shape()[3];
  g.stride = stride;
  g.padding = padding;
  FG_CHECK(w.shape()[1] == g.c,
           "conv: weight " << w.shape() << " incompatible with input " << x.shape());
  g.oh = (g.h + 2 * padding - g.kh) / stride + 1;
  g.ow = (g.w + 2 * padding - g.kw) / stride + 1;
  FG_CHECK(g.oh >= 1 && g.ow >= 1, "conv: kernel larger than padded input");
  return g;
}

// Deterministic shared-gradient accumulation for the batch dimension: one
// strided-batched GEMM writes a per-sample partial of the weight gradient for
// every sample (beta = 0, so each chain starts at +0 exactly as accumulating
// into a zeroed partial would, and the buffer needs no fill), and the
// partials are folded into the real buffer serially in sample order. The
// fold order — and the float rounding — is therefore identical for any
// thread count and to a loop of per-sample GEMMs (the backend contract:
// batched == loop of single calls, per item).
void fold_weight_partials(const GemmDesc& per_sample, const float* a, const float* b,
                          Index n, std::size_t dw_size, float* dw_out) {
  const auto partials =
      std::make_unique_for_overwrite<float[]>(static_cast<std::size_t>(n) * dw_size);
  GemmDesc d = per_sample;
  d.beta = 0.0f;
  d.batch_count = n;
  d.stride_c = static_cast<std::int64_t>(dw_size);
  sgemm_strided_batched(d, a, b, partials.get());
  for (Index s = 0; s < n; ++s) {
    const float* p = partials.get() + static_cast<std::size_t>(s) * dw_size;
    for (std::size_t i = 0; i < dw_size; ++i) dw_out[i] += p[i];
  }
}

}  // namespace

Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b, Index stride,
              Index padding) {
  FG_TRACE_SPAN("conv2d", "tensor");
  const ConvGeom g = conv_geometry(x, w, stride, padding);
  const Index ckk = g.c * g.kh * g.kw;
  const Index osp = g.oh * g.ow;
  auto xi = x.impl();
  auto wi = w.impl();
  const ConvGeom geom = g;
  Tensor y = make_op_result(
      "conv2d", Shape{g.n, g.oc, g.oh, g.ow}, {x, w}, [xi, wi, geom](const TensorImpl& o) {
        FG_TRACE_SPAN("conv2d.backward", "tensor");
        const Index ckk2 = geom.c * geom.kh * geom.kw;
        const Index osp2 = geom.oh * geom.ow;
        // Force lazy grad allocation before the parallel region.
        float* dx_base = xi->requires_grad ? xi->grad_buffer().data() : nullptr;
        if (dx_base != nullptr) {
          // dcols[s] (CKK, osp) = W^T (CKK, OC) * dY[s] (OC, osp) — one
          // strided-batched GEMM for the whole batch — then a parallel
          // col2im scatters each sample's dcols into its (disjoint) dX
          // plane. Per-item GEMM shape matches the old per-sample call, so
          // dX bits are unchanged.
          ScratchBuffer dcols(static_cast<std::size_t>(geom.n) * ckk2 * osp2);
          GemmDesc d;
          d.trans_a = true;
          d.m = ckk2;
          d.n = osp2;
          d.k = geom.oc;
          d.lda = ckk2;
          d.ldb = osp2;
          d.ldc = osp2;
          d.batch_count = geom.n;
          d.stride_b = geom.oc * osp2;
          d.stride_c = ckk2 * osp2;
          sgemm_strided_batched(d, wi->data.data(), o.grad.data(), dcols.data());
          common::parallel_for(0, geom.n, 1, [&](Index s0, Index s1) {
            for (Index s = s0; s < s1; ++s)
              detail::col2im(dcols.data() + s * ckk2 * osp2, geom.c, geom.h, geom.w, geom.kh,
                             geom.kw, geom.stride, geom.padding, geom.oh, geom.ow,
                             dx_base + s * geom.c * geom.h * geom.w);
          });
        }
        if (wi->requires_grad) {
          // dW[s] (OC, CKK) = dY[s] (OC, osp) * cols[s]^T (osp, CKK). The
          // im2col for every sample is materialized once (disjoint bands),
          // then fold_weight_partials issues the whole batch as one GEMM.
          ScratchBuffer cols(static_cast<std::size_t>(geom.n) * ckk2 * osp2);
          common::parallel_for(0, geom.n, 1, [&](Index s0, Index s1) {
            for (Index s = s0; s < s1; ++s)
              detail::im2col(xi->data.data() + s * geom.c * geom.h * geom.w, geom.c, geom.h,
                             geom.w, geom.kh, geom.kw, geom.stride, geom.padding, geom.oh,
                             geom.ow, cols.data() + s * ckk2 * osp2);
          });
          GemmDesc d;
          d.trans_b = true;
          d.m = geom.oc;
          d.n = ckk2;
          d.k = osp2;
          d.lda = osp2;
          d.ldb = osp2;
          d.ldc = ckk2;
          d.stride_a = geom.oc * osp2;
          d.stride_b = ckk2 * osp2;
          fold_weight_partials(d, o.grad.data(), cols.data(), geom.n,
                               static_cast<std::size_t>(geom.oc) * ckk2,
                               wi->grad_buffer().data());
        }
      },
      /*fully_overwritten=*/true);
  // Forward, training and serving alike: strided im2col lays sample s into
  // columns [s*osp, (s+1)*osp) of one (CKK, N*osp) matrix, and a single
  // strided-batched GEMM (shared weight, stride_a = 0) writes every sample's
  // output plane directly into y, so the weight is packed once per batch
  // (once per engine under an installed WeightPanelCache: it is marked
  // constant_a).
  // The per-item shape (OC, osp, CKK) does not depend on N, so a sample's
  // bits are the same alone or in any batch: a coalesced request matches the
  // same request served alone.
  const Index bsp = g.n * osp;
  ScratchBuffer cols(static_cast<std::size_t>(ckk) * bsp);
  common::parallel_for(0, g.n, 1, [&](Index s0, Index s1) {
    for (Index s = s0; s < s1; ++s)
      detail::im2col(x.data().data() + s * g.c * g.h * g.w, g.c, g.h, g.w, g.kh, g.kw, stride,
                     padding, g.oh, g.ow, cols.data() + s * osp, bsp);
  });
  GemmDesc d;
  d.m = g.oc;
  d.n = osp;
  d.k = ckk;
  d.lda = ckk;
  d.ldb = bsp;
  d.ldc = osp;
  d.batch_count = g.n;
  d.stride_b = osp;
  d.stride_c = g.oc * osp;
  d.constant_a = true;
  sgemm_strided_batched(d, w.data().data(), cols.data(), y.data().data());
  if (b.defined()) y = add_bias(std::move(y), b);
  return y;
}

Tensor conv_transpose2d(const Tensor& x, const Tensor& w, const Tensor& b, Index stride,
                        Index padding) {
  FG_TRACE_SPAN("conv_transpose2d", "tensor");
  FG_CHECK(x.shape().rank() == 4, "conv_transpose2d: input must be NCHW, got " << x.shape());
  FG_CHECK(w.shape().rank() == 4,
           "conv_transpose2d: weight must be (C, OC, KH, KW), got " << w.shape());
  FG_CHECK(stride >= 1 && padding >= 0, "conv_transpose2d: bad stride/padding");
  const Index n = x.shape()[0], c = x.shape()[1], h = x.shape()[2], wdt = x.shape()[3];
  FG_CHECK(w.shape()[0] == c,
           "conv_transpose2d: weight " << w.shape() << " incompatible with input " << x.shape());
  const Index oc = w.shape()[1], kh = w.shape()[2], kw = w.shape()[3];
  const Index oh = (h - 1) * stride - 2 * padding + kh;
  const Index ow = (wdt - 1) * stride - 2 * padding + kw;
  FG_CHECK(oh >= 1 && ow >= 1, "conv_transpose2d: degenerate output size");
  const Index ockk = oc * kh * kw;
  const Index isp = h * wdt;
  auto xi = x.impl();
  auto wi = w.impl();
  Tensor y = make_op_result(
      "conv_transpose2d", Shape{n, oc, oh, ow}, {x, w},
      [xi, wi, n, c, h, wdt, oc, kh, kw, stride, padding, oh, ow](const TensorImpl& o) {
        FG_TRACE_SPAN("conv_transpose2d.backward", "tensor");
        const Index ockk2 = oc * kh * kw;
        const Index isp2 = h * wdt;
        // Force lazy grad allocation before the parallel region.
        float* dx_base = xi->requires_grad ? xi->grad_buffer().data() : nullptr;
        const bool want_dw = wi->requires_grad;
        if (dx_base == nullptr && !want_dw) return;
        // The adjoint geometry treats the *output* grad as the conv input:
        // dy_cols[s] (OCKK, isp) = im2col(dY[s] over (OC, OH, OW)). Both
        // gradient products consume it, so it is materialized once for the
        // whole batch (disjoint per-sample writes).
        ScratchBuffer dy_cols(static_cast<std::size_t>(n) * ockk2 * isp2);
        common::parallel_for(0, n, 1, [&](Index s0, Index s1) {
          for (Index s = s0; s < s1; ++s)
            detail::im2col(o.grad.data() + s * oc * oh * ow, oc, oh, ow, kh, kw, stride,
                           padding, h, wdt, dy_cols.data() + s * ockk2 * isp2);
        });
        if (dx_base != nullptr) {
          // dX[s] (C, isp) += W_mat (C, OCKK) * dy_cols[s], one batched call
          // (shared weight, folded into tile columns; beta = 1 starts each
          // chain at the live gradient, the same chain in both backends).
          GemmDesc d;
          d.m = c;
          d.n = isp2;
          d.k = ockk2;
          d.beta = 1.0f;
          d.lda = ockk2;
          d.ldb = isp2;
          d.ldc = isp2;
          d.batch_count = n;
          d.stride_b = ockk2 * isp2;
          d.stride_c = c * isp2;
          sgemm_strided_batched(d, wi->data.data(), dy_cols.data(), dx_base);
        }
        if (want_dw) {
          // dW[s] (C, OCKK) = X[s] (C, isp) * dy_cols[s]^T, one batched call
          // over the already-materialized dy_cols.
          GemmDesc d;
          d.trans_b = true;
          d.m = c;
          d.n = ockk2;
          d.k = isp2;
          d.lda = isp2;
          d.ldb = isp2;
          d.ldc = ockk2;
          d.stride_a = c * isp2;
          d.stride_b = ockk2 * isp2;
          fold_weight_partials(d, xi->data.data(), dy_cols.data(), n,
                               static_cast<std::size_t>(c) * ockk2, wi->grad_buffer().data());
        }
      });
  // Forward, training and serving alike: cols[s] (OCKK, isp) =
  // W_mat^T (OCKK, C) * X[s] (C, isp) as one strided-batched GEMM that reads
  // every sample's input in place (shared transposed weight, stride_a = 0,
  // packed once per batch, or once per engine under an installed
  // WeightPanelCache), then Y[s] = col2im(cols[s]). The per-item shape
  // does not depend on N, so the bits are identical whether a sample runs
  // alone or in a batch. y is NOT marked fully_overwritten: col2im
  // accumulates into the zeroed output.
  ScratchBuffer cols(static_cast<std::size_t>(n) * ockk * isp);
  GemmDesc d;
  d.trans_a = true;
  d.m = ockk;
  d.n = isp;
  d.k = c;
  d.lda = ockk;
  d.ldb = isp;
  d.ldc = isp;
  d.batch_count = n;
  d.stride_b = c * isp;
  d.stride_c = ockk * isp;
  d.constant_a = true;
  sgemm_strided_batched(d, w.data().data(), x.data().data(), cols.data());
  common::parallel_for(0, n, 1, [&](Index s0, Index s1) {
    for (Index s = s0; s < s1; ++s)
      detail::col2im(cols.data() + s * ockk * isp, oc, oh, ow, kh, kw, stride, padding, h, wdt,
                     y.data().data() + s * oc * oh * ow);
  });
  if (b.defined()) y = add_bias(std::move(y), b);
  return y;
}

namespace {
std::vector<BnStatUpdate>*& bn_sink_slot() {
  thread_local std::vector<BnStatUpdate>* sink = nullptr;
  return sink;
}
}  // namespace

void set_bn_stat_sink(std::vector<BnStatUpdate>* sink) { bn_sink_slot() = sink; }

void apply_bn_stat_update(Tensor& running_mean, Tensor& running_var, float momentum,
                          const std::vector<float>& mean,
                          const std::vector<float>& unbiased_var) {
  FG_CHECK(mean.size() == unbiased_var.size() &&
               mean.size() == static_cast<std::size_t>(running_mean.shape().numel()) &&
               mean.size() == static_cast<std::size_t>(running_var.shape().numel()),
           "bn stat update: channel-count mismatch");
  float* rm = running_mean.data().data();
  float* rv = running_var.data().data();
  for (std::size_t ch = 0; ch < mean.size(); ++ch) {
    rm[ch] = (1.0f - momentum) * rm[ch] + momentum * mean[ch];
    rv[ch] = (1.0f - momentum) * rv[ch] + momentum * unbiased_var[ch];
  }
}

Tensor batch_norm2d(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                    Tensor& running_mean, Tensor& running_var, bool training, float momentum,
                    float eps) {
  FG_TRACE_SPAN("batch_norm2d", "tensor");
  FG_CHECK(x.shape().rank() == 4, "batch_norm2d expects NCHW, got " << x.shape());
  const Index n = x.shape()[0], c = x.shape()[1], hw = x.shape()[2] * x.shape()[3];
  FG_CHECK(gamma.shape() == Shape{c} && beta.shape() == Shape{c},
           "batch_norm2d: gamma/beta must be [" << c << "]");
  FG_CHECK(running_mean.shape() == Shape{c} && running_var.shape() == Shape{c},
           "batch_norm2d: running stats must be [" << c << "]");
  const Index m = n * hw;  // statistics population per channel
  const Index ch_grain = std::max<Index>(1, (Index{1} << 14) / std::max<Index>(1, m));

  // Serving mode: per-sample statistics, keyed by (sample, channel). For one
  // row these match the n==1 batch statistics bit-for-bit (identical
  // accumulation order), so a request's values do not depend on which other
  // requests were coalesced into its batch. Running stats are left untouched.
  const bool per_sample = training && inference_mode();
  auto mean_c = std::make_shared<std::vector<float>>(per_sample ? n * c : c);
  auto invstd_c = std::make_shared<std::vector<float>>(per_sample ? n * c : c);
  if (per_sample) {
    FG_CHECK(hw > 1, "batch_norm2d per-sample statistics need more than one value per channel");
    common::parallel_for(
        0, n * c, std::max<Index>(1, (Index{1} << 14) / std::max<Index>(1, hw)),
        [&](Index i0, Index i1) {
          for (Index i = i0; i < i1; ++i) {
            const float* src = x.data().data() + i * hw;
            double sum = 0.0, sumsq = 0.0;
            for (Index j = 0; j < hw; ++j) {
              sum += src[j];
              sumsq += static_cast<double>(src[j]) * src[j];
            }
            const double mu = sum / hw;
            const double var = std::max(0.0, sumsq / hw - mu * mu);
            (*mean_c)[i] = static_cast<float>(mu);
            (*invstd_c)[i] = static_cast<float>(1.0 / std::sqrt(var + eps));
          }
        });
  } else if (training) {
    FG_CHECK(m > 1, "batch_norm2d training mode needs more than one value per channel");
    // Channels are independent: each chunk owns a disjoint slice of the
    // per-channel statistics. Within a channel the accumulation order over
    // (s, j) is the same serial order regardless of thread count, so the
    // statistics are bit-identical to the serial path.
    BnStatUpdate update;
    update.mean.resize(c);
    update.unbiased_var.resize(c);
    common::parallel_for(0, c, ch_grain, [&](Index c0, Index c1) {
      for (Index ch = c0; ch < c1; ++ch) {
        double sum = 0.0, sumsq = 0.0;
        for (Index s = 0; s < n; ++s) {
          const float* src = x.data().data() + (s * c + ch) * hw;
          for (Index j = 0; j < hw; ++j) {
            sum += src[j];
            sumsq += static_cast<double>(src[j]) * src[j];
          }
        }
        const double mu = sum / m;
        const double var = std::max(0.0, sumsq / m - mu * mu);
        (*mean_c)[ch] = static_cast<float>(mu);
        (*invstd_c)[ch] = static_cast<float>(1.0 / std::sqrt(var + eps));
        // Running stats use the unbiased variance, as in PyTorch.
        update.mean[ch] = static_cast<float>(mu);
        update.unbiased_var[ch] = static_cast<float>(var * m / (m - 1));
      }
    });
    // The buffer update happens outside the parallel region through the one
    // shared apply function, either immediately or via the deferred sink.
    update.momentum = momentum;
    if (bn_sink_slot() != nullptr) {
      update.running_mean = running_mean;
      update.running_var = running_var;
      bn_sink_slot()->push_back(std::move(update));
    } else {
      apply_bn_stat_update(running_mean, running_var, momentum, update.mean,
                           update.unbiased_var);
    }
  } else {
    for (Index ch = 0; ch < c; ++ch) {
      (*mean_c)[ch] = running_mean.data()[ch];
      (*invstd_c)[ch] = 1.0f / std::sqrt(running_var.data()[ch] + eps);
    }
  }

  auto xi = x.impl();
  auto gi = gamma.impl();
  auto bi = beta.impl();
  Tensor y = make_op_result(
      "batch_norm2d", x.shape(), {x, gamma, beta},
      [xi, gi, bi, mean_c, invstd_c, n, c, hw, m, ch_grain, training](const TensorImpl& o) {
        FG_TRACE_SPAN("batch_norm2d.backward", "tensor");
        // Force lazy grad allocations before the parallel region.
        float* dg = gi->requires_grad ? gi->grad_buffer().data() : nullptr;
        float* db = bi->requires_grad ? bi->grad_buffer().data() : nullptr;
        float* dx_base = xi->requires_grad ? xi->grad_buffer().data() : nullptr;
        common::parallel_for(0, c, ch_grain, [&](Index c0, Index c1) {
          for (Index ch = c0; ch < c1; ++ch) {
            const float mu = (*mean_c)[ch];
            const float invstd = (*invstd_c)[ch];
            const float g = gi->data[ch];
            // Per-channel reductions over dy and dy*xhat.
            double sum_dy = 0.0, sum_dy_xhat = 0.0;
            for (Index s = 0; s < n; ++s) {
              const float* dy = o.grad.data() + (s * c + ch) * hw;
              const float* xv = xi->data.data() + (s * c + ch) * hw;
              for (Index j = 0; j < hw; ++j) {
                sum_dy += dy[j];
                sum_dy_xhat += static_cast<double>(dy[j]) * (xv[j] - mu) * invstd;
              }
            }
            if (dg != nullptr) dg[ch] += static_cast<float>(sum_dy_xhat);
            if (db != nullptr) db[ch] += static_cast<float>(sum_dy);
            if (dx_base == nullptr) continue;
            if (training) {
              // Full backward through the batch statistics.
              const float k1 = static_cast<float>(sum_dy / m);
              const float k2 = static_cast<float>(sum_dy_xhat / m);
              for (Index s = 0; s < n; ++s) {
                const float* dy = o.grad.data() + (s * c + ch) * hw;
                const float* xv = xi->data.data() + (s * c + ch) * hw;
                float* dx = dx_base + (s * c + ch) * hw;
                for (Index j = 0; j < hw; ++j) {
                  const float xhat = (xv[j] - mu) * invstd;
                  dx[j] += g * invstd * (dy[j] - k1 - xhat * k2);
                }
              }
            } else {
              const float scale = g * invstd;
              for (Index s = 0; s < n; ++s) {
                const float* dy = o.grad.data() + (s * c + ch) * hw;
                float* dx = dx_base + (s * c + ch) * hw;
                for (Index j = 0; j < hw; ++j) dx[j] += scale * dy[j];
              }
            }
          }
        });
      },
      /*fully_overwritten=*/true);
  // Normalization: every (sample, channel) slab is independent.
  common::parallel_for(0, n * c, std::max<Index>(1, (Index{1} << 14) / std::max<Index>(1, hw)),
                       [&](Index i0, Index i1) {
                         for (Index i = i0; i < i1; ++i) {
                           const Index ch = i % c;
                           const Index si = per_sample ? i : ch;
                           const float mu = (*mean_c)[si];
                           const float invstd = (*invstd_c)[si];
                           const float g = gamma.data()[ch];
                           const float bshift = beta.data()[ch];
                           const float* src = x.data().data() + i * hw;
                           float* dst = y.data().data() + i * hw;
                           for (Index j = 0; j < hw; ++j)
                             dst[j] = g * (src[j] - mu) * invstd + bshift;
                         }
                       });
  return y;
}

}  // namespace flashgen::tensor
