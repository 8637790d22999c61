// Observability overhead benchmark: quantifies what the trace spans cost when
// disabled (the price every hot path pays unconditionally) and when enabled,
// then runs a small in-process training + serving workload with tracing on
// and exports the per-stage wall-time breakdown.
//
//   obs_bench [--out PATH]
//
// Reported:
//   - disabled/enabled span cost in ns per span (tight-loop microbenchmark)
//   - disabled-span overhead on a 128x128 MatMul loop, in percent — the
//     acceptance bar is <2%, i.e. spans are cheap enough to leave compiled
//     into every kernel-adjacent path
//   - per-stage span summaries (train.*, infer.*, serve.*, nn.*, eval.*) and
//     the metrics registry after the workload
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_host.h"
#include "core/model.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/weak_label.h"
#include "data/world.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/inference_engine.h"
#include "tensor/tensor.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace bootleg;  // NOLINT

namespace {

volatile int64_t g_sink = 0;  // defeats loop elision without DoNotOptimize

/// ns per iteration of a loop whose body is one span scope (plus the sink
/// write both variants share).
double TimeSpanLoopNs(int64_t iters) {
  const auto begin = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < iters; ++i) {
    OBS_SPAN("bench.span_loop");
    g_sink = i;
  }
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - begin)
                        .count();
  return ns / static_cast<double>(iters);
}

double TimeBareLoopNs(int64_t iters) {
  const auto begin = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < iters; ++i) {
    g_sink = i;
  }
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - begin)
                        .count();
  return ns / static_cast<double>(iters);
}

/// Seconds for `reps` 128x128 MatMuls, body optionally under a span scope.
double TimeMatMulLoop(const tensor::Tensor& a, const tensor::Tensor& b,
                      int reps, bool with_span) {
  const auto begin = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    if (with_span) {
      OBS_SPAN("bench.matmul");
      g_sink = static_cast<int64_t>(tensor::MatMul(a, b).at(0));
    } else {
      g_sink = static_cast<int64_t>(tensor::MatMul(a, b).at(0));
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
      .count();
}

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_obs.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string(argv[i]) == "--out") out_path = argv[i + 1];
  }
  util::ThreadPool::ResetGlobal(util::ThreadPool::EnvThreads());

  // --- Span cost microbenchmark -------------------------------------------
  obs::Trace::Enable(false);
  TimeSpanLoopNs(1000000);  // warm up the stage slot and the loop
  std::vector<double> disabled, bare, enabled;
  for (int r = 0; r < 5; ++r) {
    disabled.push_back(TimeSpanLoopNs(10000000));
    bare.push_back(TimeBareLoopNs(10000000));
  }
  obs::Trace::Enable(true);
  for (int r = 0; r < 5; ++r) enabled.push_back(TimeSpanLoopNs(1000000));
  obs::Trace::Enable(false);
  const double disabled_ns = MedianOf(disabled) - MedianOf(bare);
  const double enabled_ns = MedianOf(enabled) - MedianOf(bare);

  // --- Disabled-span overhead on a 128x128 MatMul -------------------------
  util::Rng rng(1);
  tensor::Tensor a = tensor::Tensor::Randn({128, 128}, &rng);
  tensor::Tensor b = tensor::Tensor::Randn({128, 128}, &rng);
  TimeMatMulLoop(a, b, 10, false);  // warmup
  // Minimum over interleaved repetitions: the span cost (~ns) is four orders
  // of magnitude under one matmul (~hundreds of µs), so scheduler noise, not
  // the span, dominates any single rep; the minimum rejects that noise.
  double plain = 1e300, spanned = 1e300;
  for (int r = 0; r < 9; ++r) {
    plain = std::min(plain, TimeMatMulLoop(a, b, 50, false));
    spanned = std::min(spanned, TimeMatMulLoop(a, b, 50, true));
  }
  const double matmul_overhead_pct = (spanned / plain - 1.0) * 100.0;

  std::printf("span cost: disabled %.2f ns, enabled %.1f ns; "
              "disabled-span overhead on MatMul/128: %.3f%%\n",
              disabled_ns, enabled_ns, matmul_overhead_pct);

  // --- Traced workload: one small training run + serving requests ---------
  obs::Trace::Reset();
  obs::Trace::Enable(true);

  data::SynthConfig config = data::SynthConfig::MicroScale();
  config.num_entities = 300;
  config.num_pages = 60;
  const data::SynthWorld world = data::BuildWorld(config);
  data::CorpusGenerator generator(&world);
  data::Corpus corpus = generator.Generate();
  data::ApplyWeakLabeling(world.kb, &corpus.train);
  const data::EntityCounts counts =
      data::EntityCounts::FromTraining(corpus.train);
  data::ExampleBuilder builder(&world.candidates, &world.vocab);
  std::vector<data::SentenceExample> examples =
      builder.BuildAll(corpus.train, data::ExampleOptions());
  examples.resize(std::min<size_t>(examples.size(), 200));

  core::BootlegConfig model_config;
  model_config.encoder.max_len = 32;
  core::BootlegModel model(&world.kb, world.vocab.size(), model_config, 7);
  model.SetEntityCounts(&counts);
  core::Trainable<core::BootlegModel> trainable(&model);
  core::TrainOptions options;
  options.epochs = 1;
  core::Train(&trainable, examples, options);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "bootleg_obs_bench").string();
  std::filesystem::create_directories(dir);
  BOOTLEG_CHECK(world.kb.Save(dir + "/kb.bin").ok());
  BOOTLEG_CHECK(world.candidates.Save(dir + "/candidates.bin").ok());
  BOOTLEG_CHECK(world.vocab.Save(dir + "/vocab.bin").ok());
  BOOTLEG_CHECK(model.store().Save(dir + "/model.bin").ok());

  serve::EngineOptions engine_options;
  engine_options.data_dir = dir;
  engine_options.model_path = dir + "/model.bin";
  auto engine_or = serve::InferenceEngine::Create(engine_options);
  BOOTLEG_CHECK_MSG(engine_or.ok(), engine_or.status().ToString());
  serve::InferenceEngine& engine = *engine_or.value();

  std::vector<std::string> texts;
  for (const data::Sentence& s : corpus.dev) {
    if (s.mentions.empty()) continue;
    std::string text;
    for (const std::string& t : s.tokens) {
      if (!text.empty()) text += ' ';
      text += t;
    }
    texts.push_back(std::move(text));
    if (texts.size() == 32) break;
  }
  BOOTLEG_CHECK(!texts.empty());
  core::BootlegModel::InferenceScratch scratch;
  for (int round = 0; round < 4; ++round) {
    engine.Disambiguate(texts, &scratch);
  }
  obs::Trace::Enable(false);

  // --- Export --------------------------------------------------------------
  std::string json = "{\n  \"benchmark\": \"bootleg observability\",\n";
  json += "  \"host\": " + bench::HostJson() + ",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"span_disabled_ns\": %.3f,\n  \"span_enabled_ns\": %.2f,\n"
                "  \"matmul128_disabled_span_overhead_pct\": %.3f,\n",
                disabled_ns, enabled_ns, matmul_overhead_pct);
  json += buf;
  json += "  \"stages\": [\n";
  const std::vector<obs::SpanSummary> summaries = obs::Trace::Summaries();
  for (size_t i = 0; i < summaries.size(); ++i) {
    json += "    " + summaries[i].ToJson();
    json += i + 1 == summaries.size() ? "\n" : ",\n";
  }
  json += "  ],\n";
  json += "  \"registry\": " + obs::MetricsRegistry::Global().DumpJson() + "\n";
  json += "}\n";

  std::ofstream f(out_path);
  f << json;
  f.close();
  std::printf("wrote %s (%zu traced stages)\n", out_path.c_str(),
              summaries.size());
  return 0;
}
