// Kill-and-resume bit-identity and divergence-sentinel behavior.
//
// The contract under test: a run snapshotted at step k, killed, and resumed
// produces exactly the same weights and samples as the uninterrupted run —
// at every thread count — because the snapshot carries the full Adam moment
// state, the loop counters, and both RNG stream positions (epoch-shuffle
// start and snapshot instant).
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/faultinject.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "core/experiment.h"
#include "data/dataset.h"
#include "models/cvae_gan.h"

namespace flashgen {
namespace {

data::DatasetConfig tiny_dataset_config() {
  data::DatasetConfig config;
  config.array_size = 8;
  config.num_arrays = 16;
  config.channel.rows = 32;
  config.channel.cols = 32;
  return config;
}

models::NetworkConfig tiny_network_config() {
  models::NetworkConfig config;
  config.array_size = 8;
  config.base_channels = 4;
  config.z_dim = 4;
  return config;
}

struct RunResult {
  std::vector<float> weights;  // full module state, flattened
  std::vector<float> sample;   // fixed-seed generation from those weights

  bool operator==(const RunResult&) const = default;
};

class ResumeTest : public ::testing::Test {
 protected:
  ResumeTest() {
    flashgen::Rng rng(1);
    dataset_ = std::make_unique<data::PairedDataset>(
        data::PairedDataset::generate(tiny_dataset_config(), rng));
    const std::string test_name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    snap_ = (std::filesystem::temp_directory_path() /
             ("flashgen_resume_" + test_name + ".trainstate"))
                .string();
  }

  ~ResumeTest() override {
    faultinject::clear();
    common::set_num_threads(0);
    std::error_code ec;
    std::filesystem::remove(snap_, ec);
    std::filesystem::remove(snap_ + ".tmp", ec);
  }

  // 16 arrays / batch 4 = 4 steps per epoch; 2 epochs = 8 steps total, with
  // snapshots every 3 steps so they land mid-epoch (steps 3 and 6).
  models::TrainConfig train_config(bool resume) const {
    models::TrainConfig train;
    train.epochs = 2;
    train.batch_size = 4;
    train.log_every = 0;
    train.snapshot.path = snap_;
    train.snapshot.every_steps = 3;
    train.snapshot.resume = resume;
    return train;
  }

  RunResult state_of(models::CvaeGanModel& model) {
    RunResult result;
    for (const nn::NamedTensor& nt : model.root_module().named_state())
      result.weights.insert(result.weights.end(), nt.tensor.data().begin(),
                            nt.tensor.data().end());
    std::vector<std::size_t> indices = {0, 1};
    auto [pl, vl] = dataset_->batch(indices);
    flashgen::Rng gen_rng(3);
    tensor::Tensor out = model.generate(pl, gen_rng);
    result.sample.assign(out.data().begin(), out.data().end());
    return result;
  }

  models::NetworkConfig net_ = tiny_network_config();
  std::unique_ptr<data::PairedDataset> dataset_;
  std::string snap_;
};

TEST_F(ResumeTest, KillAndResumeIsBitIdenticalAcrossThreadCounts) {
  for (int threads : {1, 4}) {
    common::set_num_threads(threads);
    std::filesystem::remove(snap_);

    // Uninterrupted reference run. It writes the same snapshots the dying run
    // will, which also re-proves that snapshotting perturbs nothing.
    models::CvaeGanModel ref(net_, /*seed=*/7);
    flashgen::Rng ref_rng(2);
    const models::TrainStats ref_stats = ref.fit(*dataset_, train_config(false), ref_rng);
    ASSERT_EQ(ref_stats.steps, 8);
    const RunResult want = state_of(ref);

    // kill_at=4 dies right after epoch 0 (resume replays from the step-3
    // mid-epoch snapshot); kill_at=7 dies deep in epoch 1 (step-6 snapshot).
    for (int kill_at : {4, 7}) {
      std::filesystem::remove(snap_);
      faultinject::configure("train_kill:@" + std::to_string(kill_at));
      models::CvaeGanModel dying(net_, /*seed=*/7);
      flashgen::Rng dying_rng(2);
      EXPECT_THROW((void)dying.fit(*dataset_, train_config(false), dying_rng), Error);
      EXPECT_EQ(faultinject::fired("train_kill"), 1u);
      faultinject::clear();
      ASSERT_TRUE(std::filesystem::exists(snap_));

      // Resume into a model with different init and a different data RNG:
      // everything that matters must come from the snapshot.
      models::CvaeGanModel resumed(net_, /*seed=*/1234);
      flashgen::Rng resumed_rng(99);
      const models::TrainStats stats =
          resumed.fit(*dataset_, train_config(true), resumed_rng);
      EXPECT_EQ(stats.steps, 8);
      EXPECT_TRUE(state_of(resumed) == want)
          << "resume diverged with threads=" << threads << " kill_at=" << kill_at;
    }
  }
}

// A snapshot can land exactly on an epoch boundary (step_in_epoch == batches
// per epoch); resuming then must start the next epoch, not replay or skip.
TEST_F(ResumeTest, ResumesFromAnEpochBoundarySnapshot) {
  auto config = train_config(false);
  config.snapshot.every_steps = 4;  // the only snapshots land at steps 4 and 8

  models::CvaeGanModel ref(net_, /*seed=*/7);
  flashgen::Rng ref_rng(2);
  ref.fit(*dataset_, config, ref_rng);
  const RunResult want = state_of(ref);

  std::filesystem::remove(snap_);
  faultinject::configure("train_kill:@6");
  models::CvaeGanModel dying(net_, /*seed=*/7);
  flashgen::Rng dying_rng(2);
  EXPECT_THROW((void)dying.fit(*dataset_, config, dying_rng), Error);
  faultinject::clear();

  auto resume_config = config;
  resume_config.snapshot.resume = true;
  models::CvaeGanModel resumed(net_, /*seed=*/1234);
  flashgen::Rng resumed_rng(99);
  resumed.fit(*dataset_, resume_config, resumed_rng);
  EXPECT_TRUE(state_of(resumed) == want);
}

// Writing snapshots must be observation-only: same losses, same weights as a
// run with snapshots disabled.
TEST_F(ResumeTest, SnapshottingIsAPureObserver) {
  auto plain_config = train_config(false);
  plain_config.snapshot = {};
  plain_config.log_every = 1;
  auto snap_config = train_config(false);
  snap_config.log_every = 1;

  models::CvaeGanModel plain(net_, /*seed=*/7);
  flashgen::Rng plain_rng(2);
  const models::TrainStats plain_stats = plain.fit(*dataset_, plain_config, plain_rng);

  static stats::Counter& snapshots = stats::counter("train.snapshots");
  const std::uint64_t before = snapshots.value();
  models::CvaeGanModel snapped(net_, /*seed=*/7);
  flashgen::Rng snapped_rng(2);
  const models::TrainStats snap_stats = snapped.fit(*dataset_, snap_config, snapped_rng);

  EXPECT_EQ(snapshots.value(), before + 2);  // steps 3 and 6
  EXPECT_TRUE(std::filesystem::exists(snap_));
  EXPECT_EQ(plain_stats.g_loss_history, snap_stats.g_loss_history);
  EXPECT_EQ(plain_stats.d_loss_history, snap_stats.d_loss_history);
  EXPECT_TRUE(state_of(plain) == state_of(snapped));
}

// The sentinels live in the shared fit_stream, so every network model
// trips them the same way.
constexpr core::ModelKind kNetworkKinds[] = {core::ModelKind::CvaeGan, core::ModelKind::Temporal,
                                             core::ModelKind::Cgan, core::ModelKind::Cvae,
                                             core::ModelKind::BicycleGan};

TEST_F(ResumeTest, SentinelHaltsOnNonFiniteLoss) {
  static stats::Counter& divergences = stats::counter("train.divergence_events");
  for (core::ModelKind kind : kNetworkKinds) {
    SCOPED_TRACE(core::to_string(kind));
    const std::uint64_t before = divergences.value();
    // Poisons the second guarded loss: the G loss of step 0 for the GANs,
    // the loss of step 1 for the one-phase cVAE.
    faultinject::configure("nan_poison:@1");
    auto config = train_config(false);
    config.snapshot = {};
    config.sentinel.policy = models::SentinelPolicy::kHalt;
    auto model = core::make_model(kind, net_, /*seed=*/7);
    flashgen::Rng rng(2);
    EXPECT_THROW((void)model->fit(*dataset_, config, rng), Error);
    EXPECT_EQ(divergences.value(), before + 1);
  }
}

// The gradient-norm sentinel needs no injection: an absurdly small limit
// trips on the real gradients of the very first step.
TEST_F(ResumeTest, GradNormLimitTripsTheSentinel) {
  static stats::Counter& divergences = stats::counter("train.divergence_events");
  for (core::ModelKind kind : kNetworkKinds) {
    SCOPED_TRACE(core::to_string(kind));
    const std::uint64_t before = divergences.value();
    auto config = train_config(false);
    config.snapshot = {};
    config.sentinel.policy = models::SentinelPolicy::kHalt;
    config.sentinel.grad_norm_limit = 1e-12;
    auto model = core::make_model(kind, net_, /*seed=*/7);
    flashgen::Rng rng(2);
    EXPECT_THROW((void)model->fit(*dataset_, config, rng), Error);
    EXPECT_EQ(divergences.value(), before + 1);
  }
}

TEST_F(ResumeTest, RollbackRestoresLastSnapshotAndFinishesTraining) {
  static stats::Counter& rollbacks = stats::counter("train.rollbacks");
  static stats::Counter& divergences = stats::counter("train.divergence_events");
  const std::uint64_t rollbacks_before = rollbacks.value();
  const std::uint64_t divergences_before = divergences.value();

  // Two guard_loss evaluations per step (D then G): call 4 is the D loss of
  // step 2, immediately after the every_steps=2 snapshot at step 2. The @k
  // trigger fires once, so the replay of step 2 after the rollback is clean.
  faultinject::configure("nan_poison:@4");
  auto config = train_config(false);
  config.epochs = 1;
  config.snapshot.every_steps = 2;
  config.sentinel.policy = models::SentinelPolicy::kRollback;
  models::CvaeGanModel model(net_, /*seed=*/7);
  flashgen::Rng rng(2);
  const models::TrainStats stats = model.fit(*dataset_, config, rng);

  EXPECT_EQ(stats.steps, 4);  // training completed despite the divergence
  EXPECT_EQ(rollbacks.value(), rollbacks_before + 1);
  EXPECT_EQ(divergences.value(), divergences_before + 1);
}

// kRollback without a usable snapshot degrades to a halt with a diagnostic
// rather than continuing on poisoned weights.
TEST_F(ResumeTest, RollbackWithoutASnapshotHalts) {
  faultinject::configure("nan_poison:@0");
  auto config = train_config(false);
  config.snapshot = {};
  config.sentinel.policy = models::SentinelPolicy::kRollback;
  models::CvaeGanModel model(net_, /*seed=*/7);
  flashgen::Rng rng(2);
  EXPECT_THROW((void)model.fit(*dataset_, config, rng), Error);
}

}  // namespace
}  // namespace flashgen
