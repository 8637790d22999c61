// Tables 3, 4, 12, 13: the TACRED-sim downstream relation-extraction
// evaluation. Three models are trained on the same data: a text-only
// SpanBERT stand-in, a KnowBERT stand-in (text + static entity embeddings of
// the prior candidate), and the Bootleg downstream model (text + frozen
// contextual Bootleg embeddings).
//
// Paper reference (TACRED-revisited test F1): SpanBERT 78.0, KnowBERT 79.3,
// Bootleg 80.3 — the target shape is Bootleg > KnowBERT > SpanBERT.
#include <cstdio>

#include "downstream/relation_extraction.h"
#include "harness/experiment.h"
#include "util/string_util.h"

using namespace bootleg;  // NOLINT

namespace {

/// Error rate of a prediction list against the gold labels.
double ErrorRate(const std::vector<downstream::ReExample>& test,
                 const std::vector<int64_t>& preds,
                 const std::function<bool(const downstream::ReExample&)>& keep) {
  int64_t n = 0, errors = 0;
  for (size_t i = 0; i < test.size(); ++i) {
    if (!keep(test[i])) continue;
    ++n;
    if (preds[i] != test[i].label) ++errors;
  }
  return n == 0 ? 0.0 : static_cast<double>(errors) / static_cast<double>(n);
}

}  // namespace

int main() {
  harness::Environment env = harness::BuildEnvironment(harness::MainScale());
  auto bootleg = harness::TrainBootleg(
      &env, {"bootleg_full", harness::DefaultBootlegConfig(),
             harness::DefaultTrainOptions(), 7});

  downstream::ReDataset ds =
      downstream::GenerateReDataset(env.world, /*num_train=*/2000,
                                    /*num_test=*/600, /*seed=*/31);
  downstream::PrepareBootlegFeatures(bootleg.get(), env.world, &ds.train);
  downstream::PrepareBootlegFeatures(bootleg.get(), env.world, &ds.test);
  const tensor::Tensor& entity_table =
      bootleg->store().GetEmbedding("entity_emb")->table();
  downstream::PrepareStaticFeatures(entity_table, &ds.train);
  downstream::PrepareStaticFeatures(entity_table, &ds.test);

  const int64_t no_rel = ds.num_labels - 1;
  downstream::ReTrainOptions train_options;
  std::printf("TACRED-sim: %zu train / %zu test examples, %lld labels\n",
              ds.train.size(), ds.test.size(),
              static_cast<long long>(ds.num_labels));

  struct Arm {
    downstream::ReMode mode;
    int64_t dim;
  };
  const Arm arms[] = {
      {downstream::ReMode::kText, 0},
      {downstream::ReMode::kStatic, entity_table.size(1)},
      {downstream::ReMode::kBootleg, entity_table.size(1)},
  };

  std::printf("\n=== Table 3: TACRED-sim test micro-F1 ===\n");
  std::printf("%-34s %10s %10s %10s\n", "Model", "P", "R", "F1");
  std::vector<downstream::ReMetrics> all_metrics;
  for (const Arm& arm : arms) {
    downstream::ReModel model(env.world.vocab.size(), ds.num_labels, arm.mode,
                              arm.dim, /*seed=*/17);
    downstream::TrainRe(&model, ds.train, train_options);
    downstream::ReMetrics metrics =
        downstream::EvaluateRe(&model, ds.test, no_rel);
    std::printf("%-34s %10.1f %10.1f %10.1f\n",
                downstream::ReModeName(arm.mode), metrics.precision(),
                metrics.recall(), metrics.f1());
    all_metrics.push_back(std::move(metrics));
  }
  const std::vector<int64_t>& pred_text = all_metrics[0].predictions;
  const std::vector<int64_t>& pred_bootleg = all_metrics[2].predictions;

  // --- Table 4: examples the Bootleg model corrects. -------------------------
  std::printf("\n=== Table 4: corrections by the Bootleg downstream model ===\n");
  int shown = 0;
  for (size_t i = 0; i < ds.test.size() && shown < 3; ++i) {
    const downstream::ReExample& ex = ds.test[i];
    if (pred_bootleg[i] == ex.label && pred_text[i] != ex.label &&
        ex.label != no_rel) {
      std::vector<std::string> words;
      for (int64_t id : ex.token_ids) words.push_back(env.world.vocab.Token(id));
      std::printf("  \"%s\"\n    gold=%s text-only=%s signals: rel=%d type=%d\n",
                  util::Join(words, " ").c_str(),
                  env.world.kb.relation(ex.label).name.c_str(),
                  pred_text[i] == no_rel
                      ? "no_relation"
                      : env.world.kb.relation(pred_text[i]).name.c_str(),
                  ex.subj_obj_have_relation_signal ? 1 : 0,
                  ex.subj_obj_have_type_signal ? 1 : 0);
      ++shown;
    }
  }
  if (shown == 0) std::printf("  (no corrections found in this run)\n");

  // --- Table 12: error-rate gap with vs without the Bootleg signal. ----------
  // The paper splits at the median per-word signal proportion; with exactly
  // two mentions per synthetic example that proportion only tracks sentence
  // length, so we contrast examples *with* the signal against those
  // *without* it (the same question, sharper at this scale).
  std::printf("\n=== Table 12: error-rate gap (text − Bootleg) with vs "
              "without each signal ===\n");
  std::printf("%-12s %12s %10s %10s %14s\n", "Signal", "# with", "gap with",
              "gap w/o", "ratio");
  struct Signal {
    const char* name;
    std::function<bool(const downstream::ReExample&)> has;
  };
  const Signal signals[] = {
      {"Entity",
       [](const auto& e) {
         return !e.ned.mentions[0].candidates.empty() &&
                !e.ned.mentions[1].candidates.empty();
       }},
      {"Relation", [](const auto& e) { return e.subj_obj_have_relation_signal; }},
      {"Type", [](const auto& e) { return e.subj_obj_have_type_signal; }},
  };
  for (const Signal& signal : signals) {
    int64_t with_signal = 0;
    for (const downstream::ReExample& ex : ds.test) {
      if (signal.has(ex)) ++with_signal;
    }
    auto gap = [&](bool want) {
      auto keep = [&](const downstream::ReExample& ex) {
        return signal.has(ex) == want;
      };
      return ErrorRate(ds.test, pred_text, keep) -
             ErrorRate(ds.test, pred_bootleg, keep);
    };
    const double with = gap(true);
    const double without = gap(false);
    const double ratio = without <= 0.0 ? 0.0 : with / without;
    std::printf("%-12s %12lld %10.3f %10.3f %14.2f\n", signal.name,
                static_cast<long long>(with_signal), with, without, ratio);
  }

  // --- Table 13: error-rate ratio on signal slices. --------------------------
  std::printf("\n=== Table 13: SpanBERT/Bootleg error-rate ratio per "
              "subject-object signal slice ===\n");
  std::printf("%-12s %12s %24s\n", "Signal", "# examples", "Base/Bootleg err");
  struct Slice {
    const char* name;
    std::function<bool(const downstream::ReExample&)> keep;
  };
  const Slice slices[] = {
      {"Entity", [](const auto& e) { return e.entity_signal_fraction > 0.0; }},
      {"Relation", [](const auto& e) { return e.subj_obj_have_relation_signal; }},
      {"Obj Type", [](const auto& e) { return e.subj_obj_have_type_signal; }},
  };
  for (const Slice& slice : slices) {
    int64_t n = 0;
    for (const downstream::ReExample& ex : ds.test) {
      if (slice.keep(ex)) ++n;
    }
    const double base_err = ErrorRate(ds.test, pred_text, slice.keep);
    const double bl_err = ErrorRate(ds.test, pred_bootleg, slice.keep);
    std::printf("%-12s %12lld %24.2f\n", slice.name, static_cast<long long>(n),
                bl_err == 0.0 ? 0.0 : base_err / bl_err);
  }
  std::printf(
      "\nShape check (paper): Bootleg > KnowBERT > SpanBERT on F1; the "
      "ratios in Tables\n12/13 exceed 1.0 (more Bootleg signal → bigger "
      "improvement over the baseline).\n");
  return 0;
}
