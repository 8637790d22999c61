// The traced run's in-process probes: timed calls into each layer's public
// functions, recorded as spans (name, start, end, parent, request id) that
// are written as JSONL at the end. run.py derives the per-layer metrics from
// the spans' self times; counts that are not times go to --out as JSON.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/model.h"
#include "core/trainer.h"
#include "data/corpus_io.h"
#include "data/example.h"
#include "data/mention_extractor.h"
#include "eval/evaluator.h"
#include "nn/optimizer.h"
#include "probe.h"
#include "serve/batcher.h"
#include "serve/json.h"
#include "tensor/autograd.h"
#include "tensor/tensor.h"
#include "text/vocabulary.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace bootleg::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Live adds the index probe makes: enough for a stable median add time and
/// a per-add disk figure, few enough to keep the probe short.
constexpr int kTraceAdds = 12;

/// In-memory span recorder; thread-safe, written out once at the end.
class SpanLog {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int64_t parent = -1;
    int64_t req = -1;
    int64_t work = 1;  // units of work the span covers (rows, sentences...)
  };

  int64_t Open(const std::string& name, int64_t parent = -1, int64_t req = -1) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, Clock::now(), {}, parent, req, 1});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t id, int64_t work = 1) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end = now;
    spans_[static_cast<size_t>(id)].work = work;
  }
  int64_t Add(const std::string& name, Clock::time_point start, Clock::time_point end,
              int64_t parent = -1, int64_t req = -1, int64_t work = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, end, parent, req, work});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  bool Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    ",\"start\":%.3f,\"end\":%.3f,\"parent\":%lld,\"req\":%lld,"
                    "\"work\":%lld,\"id\":%zu}\n",
                    Us(s.start), Us(s.end), static_cast<long long>(s.parent),
                    static_cast<long long>(s.req), static_cast<long long>(s.work), i);
      out << "{\"name\":" << Quote(s.name) << buf;
    }
    return out.good();
  }

 private:
  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times fn() as one span.
template <typename Fn>
void Timed(SpanLog* log, const std::string& name, int64_t parent, Fn&& fn,
           int64_t work = 1) {
  const int64_t id = log->Open(name, parent);
  fn();
  log->Close(id, work);
}

struct Request {
  std::string text;
  bool raw = false;
};

std::vector<Request> LoadRequests(const std::string& path) {
  std::vector<Request> out;
  for (const std::string& line : ReadLines(path)) {
    auto parsed = serve::Json::Parse(line);
    if (!parsed.ok()) continue;
    const std::string op = parsed.value().GetString("op");
    if (op != "disambiguate" && op != "disambiguate_text") continue;
    out.push_back({parsed.value().GetString("text"), op == "disambiguate_text"});
  }
  return out;
}

/// Sentence token ranges of a request, split the way the engine splits raw
/// documents (after `.`, `?` and `!`). The engine's split is private to
/// InferenceEngine, so this is a copy of it: data.extract times the copy.
std::vector<std::vector<std::string>> Sentences(const Request& r) {
  const std::vector<std::string> tokens = text::Tokenize(r.text);
  std::vector<std::vector<std::string>> out;
  if (!r.raw) {
    if (!tokens.empty()) out.push_back(tokens);
    return out;
  }
  std::vector<std::string> cur;
  for (const std::string& t : tokens) {
    cur.push_back(t);
    if (t == "." || t == "?" || t == "!") out.push_back(std::move(cur)), cur.clear();
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

int64_t DirBytes(const std::string& dir) {
  int64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += static_cast<int64_t>(e.file_size());
  }
  return total;
}

int64_t Generations(const std::string& dir) {
  int64_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    n += e.is_directory() && e.path().filename().string().rfind("gen_", 0) == 0;
  }
  return n;
}

std::unique_ptr<serve::InferenceEngine> MakeEngine(const serve::EngineOptions& o) {
  auto engine_or = serve::InferenceEngine::Create(o);
  if (!engine_or.ok()) {
    std::fprintf(stderr, "error: %s\n", engine_or.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(engine_or.value());
}

}  // namespace

int CmdTrace(const Args& args) {
  SpanLog log;
  std::map<std::string, double> counts;
  const std::vector<Request> requests = LoadRequests(args.Get("requests"));
  const bool deploy_store = args.Int("deploy_store", 0) != 0;
  const double rate = args.Num("rate", 100.0);
  const double seconds = args.Num("seconds", 2.0);

  serve::EngineOptions heap_options = DeploymentOptions(args);
  heap_options.store_dir.clear();
  heap_options.resident_budget_bytes = 0;
  auto heap = MakeEngine(heap_options);
  auto store = MakeEngine(DeploymentOptions(args));
  serve::InferenceEngine& deployed = deploy_store ? *store : *heap;
  core::BootlegModel::InferenceScratch scratch;

  // serve.json: parse every workload request line; dump every reply the
  // server sent in the untraced serving pass (parsed first, untimed).
  {
    const int64_t phase = log.Open("probe.json");
    for (const std::string& line : ReadLines(args.Get("requests"))) {
      Timed(&log, "serve.json.parse", phase, [&] {
        if (!serve::Json::Parse(line).ok()) std::exit(1);
      });
    }
    for (const std::string& line : ReadLines(args.Get("replies"))) {
      auto reply = serve::Json::Parse(line);
      if (!reply.ok()) {
        std::fprintf(stderr, "error: bad reply line %s\n", line.c_str());
        return 1;
      }
      std::string dumped;
      Timed(&log, "serve.json.dump", phase, [&] { dumped = reply.value().Dump(); });
    }
    log.Close(phase);
  }

  // serve.engine: DisambiguateBatch on batches of 8 workload requests,
  // cycling through them: 1000 batches (enough for a p99), or as many as
  // fit in three seconds.
  {
    const int64_t phase = log.Open("probe.engine");
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(3);
    for (size_t b = 0; b < 1000 && Clock::now() < give_up; ++b) {
      std::vector<serve::BatchItem> items;
      int64_t sentences = 0;
      for (size_t k = b * 8; k < b * 8 + 8; ++k) {
        const Request& r = requests[k % requests.size()];
        items.push_back({r.text, r.raw});
        sentences += static_cast<int64_t>(Sentences(r).size());
      }
      Timed(&log, "serve.engine.batch", phase,
            [&] { deployed.DisambiguateBatch(items, &scratch); }, sentences);
    }
    log.Close(phase);
  }

  // data: tokenize, sentence split and mention extraction per request.
  {
    const int64_t phase = log.Open("probe.extract");
    const data::MentionExtractor extractor(&deployed.candidates());
    for (size_t i = 0; i < requests.size() && i < 800; ++i) {
      Timed(&log, "data.extract", phase, [&] {
        for (const auto& sent : Sentences(requests[i])) {
          if (extractor.Extract(sent).size() > sent.size()) std::exit(1);
        }
      });
    }
    log.Close(phase);
  }

  // serve.batcher: an in-process MicroBatcher with default options under
  // seeded Poisson arrivals at the reference rate.
  {
    const serve::BatcherOptions options{};
    counts["serve.batcher.max_batch"] = options.max_batch;
    serve::ServerCounters counters;
    std::mutex mu;
    std::vector<Clock::time_point> submitted;
    std::vector<core::BootlegModel::InferenceScratch> scratches(
        static_cast<size_t>(std::max(options.workers, 1)));
    size_t dispatched = 0;
    const int64_t phase = log.Open("probe.batcher");
    serve::MicroBatcher batcher(
        options,
        [&](const std::vector<serve::BatchItem>& items, int worker) {
          const Clock::time_point start = Clock::now();
          size_t first;
          {
            std::lock_guard<std::mutex> lock(mu);
            first = dispatched;
            dispatched += items.size();
          }
          auto out = deployed.DisambiguateBatch(
              items, &scratches[static_cast<size_t>(worker)]);
          const Clock::time_point end = Clock::now();
          log.Add("serve.batcher.batch", start, end, phase, -1,
                  static_cast<int64_t>(items.size()));
          std::lock_guard<std::mutex> lock(mu);
          for (size_t k = 0; k < items.size(); ++k) {
            log.Add("serve.batcher.queue_wait", submitted[first + k], start, -1,
                    static_cast<int64_t>(first + k));
          }
          return out;
        },
        [] { return util::Status::OK(); }, &counters);
    std::mt19937_64 rng(static_cast<uint64_t>(args.Int("seed", 1)));
    std::exponential_distribution<double> gap(rate);
    std::atomic<int64_t> done{0};
    std::atomic<int64_t> rejected{0};
    const Clock::time_point t0 = Clock::now();
    int64_t sent = 0;
    for (double t = gap(rng); t < seconds; t += gap(rng), ++sent) {
      std::this_thread::sleep_until(t0 + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(t)));
      const Request& r = requests[static_cast<size_t>(sent) % requests.size()];
      {
        std::lock_guard<std::mutex> lock(mu);
        submitted.push_back(Clock::now());
      }
      batcher.SubmitAsync(r.text, r.raw, serve::MicroBatcher::kNoDeadline,
                          [&](util::StatusOr<serve::SentenceResult> result) {
                            if (!result.ok()) rejected.fetch_add(1);
                            done.fetch_add(1);
                          });
    }
    while (done.load() < sent) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    batcher.Shutdown();
    log.Close(phase, sent);
    counts["serve.batcher.rejected"] = static_cast<double>(rejected.load());
    counts["serve.batcher.shed"] = static_cast<double>(counters.shed.load());
  }

  // core: batched frozen prediction at b1/b8/b64, the autograd-tape Predict,
  // Loss + backward, Adam and a few real training steps.
  {
    const int64_t phase = log.Open("probe.core");
    std::vector<data::SentenceExample> examples;
    const data::MentionExtractor extractor(&deployed.candidates());
    for (const Request& r : requests) {
      for (const auto& sent : Sentences(r)) {
        std::string text;
        for (const std::string& t : sent) {
          if (!text.empty()) text += ' ';
          text += t;
        }
        examples.push_back(extractor.BuildExample(deployed.vocab(), text));
        if (examples.size() >= 512) break;
      }
      if (examples.size() >= 512) break;
    }
    for (const int64_t b : {1, 8, 64}) {
      const std::string name = "core.predict_batch.b" + std::to_string(b);
      for (size_t i = 0; i + static_cast<size_t>(b) <= examples.size();
           i += static_cast<size_t>(b)) {
        std::vector<const data::SentenceExample*> batch;
        for (size_t k = i; k < i + static_cast<size_t>(b); ++k) batch.push_back(&examples[k]);
        Timed(&log, name, phase, [&] { deployed.PredictExamples(batch, &scratch); }, b);
      }
    }
    for (size_t i = 0; i < examples.size() && i < 256; ++i) {
      Timed(&log, "core.predict_tape", phase, [&] { heap->model().Predict(examples[i]); });
    }

    data::Corpus corpus;
    if (!data::LoadCorpus(args.Get("data") + "/corpus.bin", &corpus).ok()) return 1;
    const data::EntityCounts entity_counts = data::EntityCounts::FromTraining(corpus.train);
    data::ExampleBuilder builder(&heap->candidates(), &heap->vocab());
    const auto train = builder.BuildAll(corpus.train, {});
    core::BootlegConfig config;
    config.encoder.max_len = 32;
    core::BootlegModel model(&heap->kb(), heap->vocab().size(), config, 7);
    model.SetEntityCounts(&entity_counts);
    util::Rng rng(11);
    nn::Adam adam(&model.store(), nn::Adam::Options{});
    for (size_t i = 0; i < train.size() && i < 128; ++i) {
      Timed(&log, "core.loss_backward", phase, [&] {
        const tensor::Var loss = model.Loss(train[i], true, &rng);
        if (loss.defined()) tensor::Backward(loss);
      });
      if (i % 8 == 7) Timed(&log, "nn.adam_step", phase, [&] { adam.Step(); });
    }
    core::TrainOptions train_options;
    train_options.epochs = 1;
    train_options.max_steps = 24;
    core::Trainable<core::BootlegModel> trainable(&model);
    const int64_t span = log.Open("core.train", phase);
    const core::TrainStats train_stats = core::Train(&trainable, train, train_options);
    log.Close(span, train_stats.steps);

    // eval: the evaluator over the dev split with the served weights.
    const data::ExampleOptions eval_options{.include_weak_labels = false};
    const int64_t eval_span = log.Open("eval.run", phase);
    eval::RunEvaluation(&heap->model(), corpus.dev, builder, eval_options, entity_counts);
    log.Close(eval_span, static_cast<int64_t>(corpus.dev.size()));
    log.Close(phase);
  }

  // tensor: MatMul at the encoder's serve shape (a batch of 8 ten-token
  // sentences through the feed-forward layer) and a train shape (one
  // sentence). FLOPs are computed from the shapes: 2*M*K*N per call.
  {
    const int64_t phase = log.Open("probe.tensor");
    util::Rng rng(3);
    const int64_t k = 64, n = 128;
    for (const auto& [label, m] : {std::pair<std::string, int64_t>{"serve", 80},
                                   std::pair<std::string, int64_t>{"train", 10}}) {
      const tensor::Tensor a = tensor::Tensor::Randn({m, k}, &rng);
      const tensor::Tensor b = tensor::Tensor::Randn({k, n}, &rng);
      counts["tensor.matmul_flops." + label] = 2.0 * m * k * n;
      float sink = 0.0f;
      for (int i = 0; i < 2000; ++i) {
        Timed(&log, "tensor.matmul." + label, phase,
              [&] { sink += tensor::MatMul(a, b).data()[0]; });
      }
      if (sink == 12345.678f) std::printf("#\n");
    }
    // util: an empty ParallelFor across the global pool.
    util::ThreadPool* pool = util::ThreadPool::Global();
    for (int i = 0; i < 2000; ++i) {
      Timed(&log, "util.pool.parallel_for", phase, [&] {
        pool->ParallelFor(0, pool->num_threads(), 1, [](int64_t, int64_t) {});
      });
    }
    log.Close(phase);
  }

  // store: GatherRows over the requests' candidate entity ids, one call per
  // request, on the mapped store (with the deployment's residency budget).
  {
    const int64_t phase = log.Open("probe.store");
    auto view_or = store->entity_store()->View("static");
    if (!view_or.ok()) {
      std::fprintf(stderr, "error: %s\n", view_or.status().ToString().c_str());
      return 1;
    }
    const store::StoreView& view = *view_or.value();
    const data::MentionExtractor extractor(&store->candidates());
    std::vector<float> dst;
    for (const Request& r : requests) {
      std::vector<int64_t> ids;
      for (const auto& sent : Sentences(r)) {
        for (const data::Mention& m : extractor.Extract(sent)) {
          if (const auto* cands = store->candidates().Lookup(m.alias)) {
            for (const auto& c : *cands) ids.push_back(c.entity);
          }
        }
      }
      if (ids.empty()) continue;
      dst.resize(ids.size() * static_cast<size_t>(view.cols()));
      Timed(&log, "store.gather", phase,
            [&] { view.GatherRows(ids.data(), static_cast<int64_t>(ids.size()), dst.data()); },
            static_cast<int64_t>(ids.size()));
    }
    if (const auto es = store->entity_store(); es->residency() != nullptr) {
      const store::ResidencyStats rs = es->residency_stats();
      counts["store.resident_mb"] = static_cast<double>(rs.resident_bytes) / (1024.0 * 1024.0);
      counts["store.cold_faults"] = static_cast<double>(rs.cold_faults);
      counts["store.evictions"] = static_cast<double>(rs.evictions);
    } else {
      counts["store.resident_mb"] = static_cast<double>(es->mapped_bytes()) / (1024.0 * 1024.0);
      counts["store.cold_faults"] = 0;
      counts["store.evictions"] = 0;
    }
    log.Close(phase);
  }

  // index: live adds through the batcher's exclusive lane, on the store
  // engine (a fresh export, so the deployment's own store is untouched).
  {
    const int64_t phase = log.Open("probe.index");
    const std::string dir = args.Get("store_dir");
    const int64_t bytes_before = DirBytes(dir);
    serve::ServerCounters counters;
    serve::MicroBatcher batcher(
        serve::BatcherOptions{},
        [&](const std::vector<serve::BatchItem>& items, int) {
          return store->DisambiguateBatch(items, &scratch);
        },
        [] { return util::Status::OK(); }, &counters);
    const kb::KnowledgeBase& kb = store->kb();
    for (int k = 0; k < kTraceAdds; ++k) {
      index::DeltaEntity spec;
      spec.title = "pbtrace" + std::to_string(k);
      const kb::Entity& like = kb.entity(static_cast<kb::EntityId>(k * 97 % kb.num_entities()));
      spec.coarse = like.coarse_type;
      spec.types = like.types;
      spec.aliases.push_back({spec.title, 0.9f});
      std::promise<util::Status> promise;
      const int64_t exclusive = log.Open("serve.batcher.exclusive", phase, k);
      batcher.SubmitExclusive(
          [&, spec]() mutable {
            const int64_t add = log.Open("index.add_entity", exclusive, k);
            util::Status st = store->AddEntityLive(std::move(spec));
            log.Close(add);
            return st;
          },
          [&](util::Status st) { promise.set_value(st); });
      const util::Status st = promise.get_future().get();
      log.Close(exclusive);
      if (!st.ok()) {
        std::fprintf(stderr, "error: add_entity: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    batcher.Shutdown();
    counts["index.adds"] = kTraceAdds;
    counts["index.generations"] = static_cast<double>(Generations(dir));
    counts["index.bytes_per_add"] =
        static_cast<double>(DirBytes(dir) - bytes_before) / kTraceAdds;
    log.Close(phase);
  }

  if (!log.Write(args.Get("spans"))) return 1;
  std::ofstream out(args.Get("out"));
  out << "{";
  bool first = true;
  for (const auto& [name, value] : counts) {
    out << (first ? "" : ", ") << Quote(name) << ": " << value;
    first = false;
  }
  out << "}\n";
  return out.good() ? 0 : 1;
}

}  // namespace bootleg::perfbench
