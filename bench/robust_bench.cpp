// Robustness benchmark: quantifies the accuracy cliff as input noise grows,
// the overshadowed-entity slice (skewed-prior aliases whose gold is not the
// head candidate), and what the char-fallback encoder hardening buys back
// under typo noise.
//
//   robust_bench [--out PATH] [--model_seed N]
//
// Reported:
//   - overall / tail / overshadowed F1 on the clean dev split, plus the
//     prior-follow diagnostic (how often the model just picks the prior
//     argmax — overall vs. on the overshadowed slice)
//   - one row per noise rate in {0.05, 0.1, 0.2, 0.3}: overall and
//     overshadowed F1 with the stock encoder and with --char_fallback
//     (typo-index recovery of single-edit OOV tokens)
//
// Noise is deterministic (fixed seed, per-sentence RNG), so these numbers
// are reproducible bit-for-bit run to run. --model_seed (default 7) picks the
// model's initialization: a last-bit numerics change moves one seed's F1 by
// several points on the small tail and overshadowed slices, so compare
// numerics changes on the mean over a few seeds.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_host.h"
#include "harness/experiment.h"
#include "robust/robust_eval.h"
#include "util/logging.h"

using namespace bootleg;  // NOLINT

namespace {

struct NoiseRow {
  double rate = 0.0;
  eval::Prf all, overshadowed;
};

std::vector<NoiseRow> Rows(const robust::RobustReport& report) {
  std::vector<NoiseRow> rows;
  rows.push_back({0.0, report.clean.Overall(),
                  robust::OvershadowedPrf(report.clean)});
  for (const robust::NoisySlice& slice : report.noisy) {
    rows.push_back({slice.rate, slice.results.Overall(),
                    robust::OvershadowedPrf(slice.results)});
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_robust.json";
  uint64_t model_seed = 7;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--out") out_path = argv[i + 1];
    if (std::string(argv[i]) == "--model_seed") {
      model_seed = std::stoull(argv[i + 1]);
    }
  }

  harness::Environment env = harness::BuildEnvironment(harness::MainScale());
  auto model = harness::TrainBootleg(
      &env, {"bootleg_full", harness::DefaultBootlegConfig(),
             harness::DefaultTrainOptions(), model_seed});

  const robust::OvershadowedIndex overshadowed =
      robust::OvershadowedIndex::Build(env.world.candidates);
  const std::vector<double> rates = {0.05, 0.1, 0.2, 0.3};
  const uint64_t seed = 1234;

  data::ExampleOptions options;
  const robust::RobustReport stock = robust::RunRobustEvaluation(
      model.get(), env.corpus.dev, *env.builder, options, env.counts,
      overshadowed, rates, seed);

  // Same noise, hardened encoder: the typo index recovers single-edit OOV
  // tokens instead of mapping them to <unk>.
  env.world.vocab.BuildTypoIndex();
  options.char_fallback = true;
  const robust::RobustReport hardened = robust::RunRobustEvaluation(
      model.get(), env.corpus.dev, *env.builder, options, env.counts,
      overshadowed, rates, seed);

  const std::vector<NoiseRow> stock_rows = Rows(stock);
  const std::vector<NoiseRow> hard_rows = Rows(hardened);
  BOOTLEG_CHECK(stock_rows.size() == hard_rows.size());

  const eval::Prf clean_tail =
      stock.clean.ByBucket(data::PopularityBucket::kTail);
  const double follow_all = robust::PriorFollowRate(stock.clean);
  const double follow_over = robust::PriorFollowRate(
      stock.clean,
      [](const eval::PredictionRecord& r) { return r.overshadowed; });

  std::printf("\n=== Robustness: noise cliff & overshadowed slice ===\n");
  std::printf("skewed aliases: %lld   overshadowed eligible: %lld\n",
              static_cast<long long>(overshadowed.num_skewed_aliases()),
              static_cast<long long>(stock_rows[0].overshadowed.total));
  std::printf("clean: all %.1f  tail %.1f  overshadowed %.1f\n",
              stock_rows[0].all.f1(), clean_tail.f1(),
              stock_rows[0].overshadowed.f1());
  std::printf("prior-follow: all %.1f%%  overshadowed %.1f%%\n\n", follow_all,
              follow_over);
  std::printf("%-10s %10s %10s | %12s %12s\n", "rate", "all", "overshad",
              "all(+fb)", "overshad(+fb)");
  for (size_t i = 0; i < stock_rows.size(); ++i) {
    std::printf("%-10.2f %10.1f %10.1f | %12.1f %12.1f\n", stock_rows[i].rate,
                stock_rows[i].all.f1(), stock_rows[i].overshadowed.f1(),
                hard_rows[i].all.f1(), hard_rows[i].overshadowed.f1());
  }

  std::string json = "{\n  \"benchmark\": \"bootleg robustness\",\n";
  json += "  \"host\": " + bench::HostJson() + ",\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"model_seed\": %llu,\n"
                "  \"noise_seed\": %llu,\n"
                "  \"skewed_aliases\": %lld,\n"
                "  \"overshadowed_eligible\": %lld,\n"
                "  \"clean\": {\"f1_all\": %.2f, \"f1_tail\": %.2f, "
                "\"f1_overshadowed\": %.2f},\n"
                "  \"prior_follow_pct\": {\"all\": %.2f, "
                "\"overshadowed\": %.2f},\n",
                static_cast<unsigned long long>(model_seed),
                static_cast<unsigned long long>(seed),
                static_cast<long long>(overshadowed.num_skewed_aliases()),
                static_cast<long long>(stock_rows[0].overshadowed.total),
                stock_rows[0].all.f1(), clean_tail.f1(),
                stock_rows[0].overshadowed.f1(), follow_all, follow_over);
  json += buf;
  json += "  \"noise_cliff\": [\n";
  for (size_t i = 0; i < stock_rows.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"rate\": %.2f, \"f1_all\": %.2f, "
                  "\"f1_overshadowed\": %.2f, \"f1_all_char_fallback\": %.2f, "
                  "\"f1_overshadowed_char_fallback\": %.2f}%s\n",
                  stock_rows[i].rate, stock_rows[i].all.f1(),
                  stock_rows[i].overshadowed.f1(), hard_rows[i].all.f1(),
                  hard_rows[i].overshadowed.f1(),
                  i + 1 == stock_rows.size() ? "" : ",");
    json += buf;
  }
  json += "  ]\n}\n";

  std::ofstream f(out_path);
  f << json;
  f.close();
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
