// Umbrella header: the flashgen public API.
//
//   #include "core/flashgen.h"
//
//   using namespace flashgen;
//   core::ExperimentConfig cfg = core::small_experiment_config();
//   core::Experiment exp(cfg);
//   auto model = exp.train_or_load(core::ModelKind::CvaeGan);
//   core::ModelEvaluation eval = exp.evaluate(*model);
//
// Layers (bottom-up): common -> tensor -> nn -> flash -> data -> models ->
// eval -> core. Each layer is usable on its own; see README.md.
#pragma once

#include "common/csv.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/experiment.h"
#include "core/reporting.h"
#include "data/dataset.h"
#include "eval/divergences.h"
#include "eval/histogram.h"
#include "eval/ici_analysis.h"
#include "eval/llr.h"
#include "eval/thresholds.h"
#include "flash/channel.h"
#include "flash/read.h"
#include "models/bicycle_gan.h"
#include "models/cgan.h"
#include "models/cvae.h"
#include "models/cvae_gan.h"
#include "models/gaussian_model.h"
