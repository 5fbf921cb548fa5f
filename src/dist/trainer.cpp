#include "dist/trainer.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/error.h"
#include "common/stats.h"
#include "common/trace.h"
#include "tensor/conv.h"
#include "tensor/ops.h"

namespace flashgen::dist {

using models::Tensor;
using tensor::Index;

namespace {

/// Copies rows [row0, row0 + rows) of a batch tensor into a fresh tensor.
Tensor slice_rows(const Tensor& t, Index row0, Index rows) {
  std::vector<Index> dims = t.shape().dims();
  const Index row = t.numel() / dims[0];
  dims[0] = rows;
  auto src = t.data().subspan(static_cast<std::size_t>(row0 * row),
                              static_cast<std::size_t>(rows * row));
  return Tensor::from_data(tensor::Shape(dims), std::vector<float>(src.begin(), src.end()));
}

/// Flattens the accumulated gradients of `params` (empty grad = zeros) into
/// one buffer, with the shard's loss scalar appended so losses ride the same
/// reduction as the gradients and every rank sees identical reduced values.
std::vector<float> harvest_grads(const std::vector<Tensor>& params, float loss) {
  std::size_t total = 1;
  for (const Tensor& p : params) total += static_cast<std::size_t>(p.numel());
  std::vector<float> out;
  out.reserve(total);
  for (const Tensor& p : params) {
    const auto g = p.grad();
    if (g.empty()) {
      out.resize(out.size() + static_cast<std::size_t>(p.numel()), 0.0f);
    } else {
      out.insert(out.end(), g.begin(), g.end());
    }
  }
  out.push_back(loss);
  return out;
}

/// Balanced pairwise binary-tree sum over a power-of-two number of equal-size
/// buffers. Combining adjacent pairs level by level builds the same tree as
/// the recursive halves split, so a contiguous block of leaves is always a
/// subtree — the property the butterfly all-reduce composes across ranks.
std::vector<float> tree_sum(std::vector<std::vector<float>> bufs) {
  std::size_t n = bufs.size();
  FG_CHECK(n > 0 && (n & (n - 1)) == 0, "dist: tree_sum needs a power-of-two count, got " << n);
  while (n > 1) {
    for (std::size_t i = 0; i < n / 2; ++i) {
      auto& a = bufs[2 * i];
      const auto& b = bufs[2 * i + 1];
      FG_CHECK(a.size() == b.size(), "dist: tree_sum buffer size mismatch");
      for (std::size_t j = 0; j < a.size(); ++j) a[j] += b[j];
      if (i != 2 * i) bufs[i] = std::move(bufs[2 * i]);
    }
    n /= 2;
  }
  return std::move(bufs[0]);
}

// ---- batch-norm record wire format --------------------------------------
// u32 record_count | per record: u32 channels, f32 momentum,
//                                channels f32 means, channels f32 vars
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f32(std::vector<std::uint8_t>& out, const float* data, std::size_t count) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(data);
  out.insert(out.end(), p, p + count * sizeof(float));
}

std::uint32_t get_u32(const std::vector<std::uint8_t>& in, std::size_t& pos) {
  FG_CHECK(pos + 4 <= in.size(), "dist: truncated bn-stat frame");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[pos + i]) << (8 * i);
  pos += 4;
  return v;
}

void get_f32(const std::vector<std::uint8_t>& in, std::size_t& pos, float* out,
             std::size_t count) {
  FG_CHECK(pos + count * sizeof(float) <= in.size(), "dist: truncated bn-stat frame");
  std::memcpy(out, in.data() + pos, count * sizeof(float));
  pos += count * sizeof(float);
}

std::vector<std::uint8_t> encode_bn_records(const std::vector<tensor::BnStatUpdate>& records) {
  std::vector<std::uint8_t> out;
  put_u32(out, static_cast<std::uint32_t>(records.size()));
  for (const auto& r : records) {
    put_u32(out, static_cast<std::uint32_t>(r.mean.size()));
    put_f32(out, &r.momentum, 1);
    put_f32(out, r.mean.data(), r.mean.size());
    put_f32(out, r.unbiased_var.data(), r.unbiased_var.size());
  }
  return out;
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FG_CHECK(in.good(), "dist: cannot read " << path);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  FG_CHECK(out.good(), "dist: cannot write " << path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  FG_CHECK(out.good(), "dist: short write to " << path);
}

}  // namespace

models::TrainStats DistTrainer::fit(models::GenerativeModel& model,
                                    const data::PairedDataset& dataset,
                                    const models::TrainConfig& train, flashgen::Rng& rng) {
  const int world = comm_.world();
  FG_CHECK(world >= 1 && train.batch_size % world == 0,
           "dist: global batch " << train.batch_size << " not divisible by world " << world);
  const Index local_rows = train.batch_size / world;
  pipeline::EagerSource source(dataset, train.batch_size, comm_.rank() * local_rows,
                               local_rows);
  return fit(model, source, train, rng);
}

models::TrainStats DistTrainer::fit(models::GenerativeModel& model,
                                    pipeline::SampleSource& source,
                                    const models::TrainConfig& train, flashgen::Rng& rng) {
  namespace detail = models::detail;
  const int world = comm_.world();
  const int rank = comm_.rank();
  const int shards = config_.num_shards;
  FG_CHECK(shards >= 1 && (shards & (shards - 1)) == 0,
           "dist: num_shards must be a power of two, got " << shards);
  FG_CHECK((world & (world - 1)) == 0,
           "dist: world size must be a power of two, got " << world);
  FG_CHECK(shards % world == 0,
           "dist: num_shards (" << shards << ") must be a multiple of world (" << world << ")");
  FG_CHECK(train.batch_size % shards == 0,
           "dist: global batch " << train.batch_size << " not divisible by " << shards
                                 << " shards");
  FG_CHECK(source.global_batch() == train.batch_size,
           "dist: source serves global batches of " << source.global_batch()
                                                    << " but the global batch is "
                                                    << train.batch_size);
  FG_CHECK(source.batch_rows() == train.batch_size / world,
           "dist: source serves " << source.batch_rows() << " rows per batch, expected "
                                  << train.batch_size / world << " (batch "
                                  << train.batch_size << " over world " << world << ")");
  FG_CHECK(world == 1 || train.sentinel.policy != models::SentinelPolicy::kRollback,
           "dist: the kRollback sentinel policy is unsupported for world > 1 "
           "(a rollback on one rank would desynchronize the others); use kHalt");

  auto stepper = model.make_sharded_stepper(train);
  FG_CHECK(stepper != nullptr,
           "dist: model '" << model.name() << "' does not support data-parallel training");
  const int phases = stepper->num_phases();

  detail::LoopContext ctx;
  ctx.root = &model.root_module();
  for (int ph = 0; ph < phases; ++ph) {
    nn::Adam* opt = &stepper->phase_optimizer(ph);
    if (std::find(ctx.optimizers.begin(), ctx.optimizers.end(), opt) == ctx.optimizers.end()) {
      ctx.optimizers.push_back(opt);
    }
  }

  // Rank 0 owns the snapshot artifact; on resume it ships the bytes to the
  // other ranks, which restore from a rank-local temporary copy so every
  // rank rebuilds identical module/optimizer/RNG state.
  models::TrainConfig local = train;
  std::string tmp_snapshot;
  if (rank != 0) {
    local.snapshot.every_steps = 0;
    local.log_every = 0;
  }
  if (world > 1 && local.snapshot.resume && !train.snapshot.path.empty()) {
    std::vector<std::uint8_t> bytes;
    if (rank == 0 && std::filesystem::exists(train.snapshot.path)) {
      bytes = read_file_bytes(train.snapshot.path);
    }
    comm_.broadcast(bytes, /*root=*/0);
    if (rank != 0) {
      if (bytes.empty()) {
        local.snapshot.path.clear();  // nothing to resume anywhere
      } else {
        tmp_snapshot = train.snapshot.path + ".rank" + std::to_string(rank);
        write_file_bytes(tmp_snapshot, bytes);
        local.snapshot.path = tmp_snapshot;
      }
    }
  }

  const int local_shards = shards / world;
  const Index shard_batch = train.batch_size / shards;
  const int total_steps_planned = detail::total_steps(source, train);
  static stats::Counter& dist_steps = stats::counter("dist.steps");

  detail::LossLog log(model.name() + "[dist " + std::to_string(world) + "w]", phases,
                      train.log_every, /*verbose=*/rank == 0);

  auto step_fn = [&](const Tensor& pl, const Tensor& vl, const Tensor& cond, int step) {
    FG_TRACE_SPAN("dist.step", "dist");
    const float lr = detail::scheduled_lr(train.lr, step, total_steps_planned) *
                     static_cast<float>(ctx.lr_scale);
    stepper->set_lr(lr);

    const int shard0 = rank * local_shards;
    stepper->begin_step(local_shards);
    std::vector<flashgen::Rng> shard_rngs;
    std::vector<Tensor> shard_pl, shard_vl, shard_cond;
    shard_rngs.reserve(static_cast<std::size_t>(local_shards));
    for (int s = 0; s < local_shards; ++s) {
      // Shard RNG streams are indexed by the *global* shard id q, while the
      // batch tensors are this rank's slice and are indexed locally.
      const auto q = static_cast<std::uint64_t>(shard0 + s);
      shard_rngs.push_back(flashgen::Rng::from_stream(
          config_.seed, static_cast<std::uint64_t>(step) * static_cast<std::uint64_t>(shards) + q));
      shard_pl.push_back(slice_rows(pl, s * shard_batch, shard_batch));
      shard_vl.push_back(slice_rows(vl, s * shard_batch, shard_batch));
      shard_cond.push_back(cond.defined() ? slice_rows(cond, s * shard_batch, shard_batch)
                                          : Tensor());
    }

    std::vector<double> phase_loss(static_cast<std::size_t>(phases));
    for (int ph = 0; ph < phases; ++ph) {
      const std::vector<Tensor>& params = stepper->phase_params(ph);
      std::vector<std::vector<float>> bufs(static_cast<std::size_t>(local_shards));
      std::vector<std::vector<tensor::BnStatUpdate>> bn_records(
          static_cast<std::size_t>(local_shards));
      for (int s = 0; s < local_shards; ++s) {
        // Every shard starts from clean gradients; cross-phase pollution
        // (e.g. the generator loss backpropagating into discriminator
        // parameters) is wiped here before it can be harvested.
        ctx.root->zero_grad();
        tensor::set_bn_stat_sink(&bn_records[static_cast<std::size_t>(s)]);
        double loss = 0.0;
        try {
          loss = stepper->run_phase(ph, s, shard_pl[static_cast<std::size_t>(s)],
                                    shard_vl[static_cast<std::size_t>(s)],
                                    shard_cond[static_cast<std::size_t>(s)],
                                    shard_rngs[static_cast<std::size_t>(s)]);
        } catch (...) {
          tensor::set_bn_stat_sink(nullptr);
          throw;
        }
        tensor::set_bn_stat_sink(nullptr);
        bufs[static_cast<std::size_t>(s)] = harvest_grads(params, static_cast<float>(loss));
      }

      // Local balanced tree over this rank's contiguous shard block, then the
      // butterfly composes the per-rank subtrees into the full balanced tree.
      std::vector<float> reduced = tree_sum(std::move(bufs));
      comm_.all_reduce_tree_sum(reduced);

      const double loss_mean =
          static_cast<double>(reduced.back()) / static_cast<double>(shards);
      phase_loss[static_cast<std::size_t>(ph)] = loss_mean;

      // Write the (1/S)-scaled reduced gradients back onto the parameters.
      ctx.root->zero_grad();
      const float inv_shards = 1.0f / static_cast<float>(shards);
      std::size_t off = 0;
      for (const Tensor& p : params) {
        const auto count = static_cast<std::size_t>(p.numel());
        for (std::size_t j = 0; j < count; ++j) reduced[off + j] *= inv_shards;
        tensor::accumulate_grad(*p.impl(),
                                std::span<const float>(reduced.data() + off, count));
        off += count;
      }

      // Divergence guards run on the reduced values, which are identical on
      // every rank — so either all ranks halt or none does, and no rank is
      // left blocked in a collective.
      detail::guard_phase(*stepper, ph, loss_mean, train.sentinel);

      // Batch-norm running stats: all-gather every rank's deferred updates
      // and replay them in canonical order (rank-ascending, shard-ascending,
      // forward-call order) onto the local buffers through the same update
      // arithmetic as the live path. The record layout per shard is identical
      // on every rank (same layers, same forward order), so record k of a
      // remote blob targets the same layer as record k of the local one.
      std::vector<tensor::BnStatUpdate*> layer_of;
      for (auto& shard_records : bn_records) {
        for (auto& r : shard_records) layer_of.push_back(&r);
      }
      const auto blobs = comm_.all_gather(encode_bn_records([&] {
        std::vector<tensor::BnStatUpdate> flat;
        flat.reserve(layer_of.size());
        for (const auto* r : layer_of) flat.push_back(*r);
        return flat;
      }()));
      for (const auto& blob : blobs) {
        std::size_t pos = 0;
        const std::uint32_t n_records = get_u32(blob, pos);
        FG_CHECK(n_records == layer_of.size(),
                 "dist: peer sent " << n_records << " bn records, expected "
                                    << layer_of.size());
        for (std::uint32_t k = 0; k < n_records; ++k) {
          tensor::BnStatUpdate& tmpl = *layer_of[k];
          const std::uint32_t channels = get_u32(blob, pos);
          FG_CHECK(channels == tmpl.mean.size(),
                   "dist: bn record " << k << " has " << channels << " channels, expected "
                                      << tmpl.mean.size());
          float momentum = 0.0f;
          get_f32(blob, pos, &momentum, 1);
          std::vector<float> mean(channels), var(channels);
          get_f32(blob, pos, mean.data(), channels);
          get_f32(blob, pos, var.data(), channels);
          tensor::apply_bn_stat_update(tmpl.running_mean, tmpl.running_var, momentum, mean,
                                       var);
        }
      }

      stepper->phase_optimizer(ph).step();
    }
    stepper->end_step();
    dist_steps.add();

    log.add(step, phase_loss);
  };

  models::TrainStats stats =
      log.finish(detail::run_training_loop(source, local, rng, step_fn, &ctx));
  if (!tmp_snapshot.empty()) {
    std::error_code ec;
    std::filesystem::remove(tmp_snapshot, ec);
  }
  // Leave no rank ahead of the others: the caller (launcher, tests) may
  // immediately tear the mesh down or write artifacts on rank 0.
  comm_.barrier();
  return stats;
}

}  // namespace flashgen::dist
