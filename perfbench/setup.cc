// Set-up subcommands of perfbench_probe: build fingerprint, seeded world and
// request generation, and the batch-size-1 reply oracle.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "data/corpus_io.h"
#include "data/example.h"
#include "data/generator.h"
#include "data/world.h"
#include "probe.h"
#include "serve/inference_engine.h"
#include "serve/json.h"

namespace bootleg::perfbench {

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

int CmdInfo() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::printf(
      "{\"build_type\": %s, \"sanitize\": %s, \"sanitized\": %s, "
      "\"optimized\": %s, \"ndebug\": %s, \"compiler\": %s}\n",
      Quote(PERFBENCH_BUILD_TYPE).c_str(), Quote(PERFBENCH_SANITIZE).c_str(),
      sanitized ? "true" : "false", optimized ? "true" : "false",
      ndebug ? "true" : "false", Quote(__VERSION__).c_str());
  return 0;
}

namespace {

std::string Join(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& t : tokens) {
    if (!out.empty()) out += ' ';
    out += t;
  }
  return out;
}

std::string ReadLine(const std::string& op, const std::string& text) {
  return "{\"op\":\"" + op + "\",\"text\":" + Quote(text) + "}";
}

/// Single held-out sentences (~8 tokens, 1-2 mentions) drawn with a Zipf
/// mix over their first alias, sent as `disambiguate`.
std::vector<std::string> SentenceRequests(const data::Corpus& corpus,
                                          int64_t n, std::mt19937_64* rng) {
  std::map<std::string, std::vector<const data::Sentence*>> by_alias;
  for (const data::Sentence& s : corpus.test) {
    if (s.mentions.empty() || s.mentions.size() > 2 || s.tokens.size() > 12) {
      continue;
    }
    by_alias[s.mentions[0].alias].push_back(&s);
  }
  std::vector<const std::vector<const data::Sentence*>*> groups;
  for (const auto& [alias, sentences] : by_alias) groups.push_back(&sentences);
  std::shuffle(groups.begin(), groups.end(), *rng);
  std::vector<double> weights;
  for (size_t r = 0; r < groups.size(); ++r) weights.push_back(1.0 / (r + 1.0));
  std::discrete_distribution<size_t> pick_group(weights.begin(), weights.end());
  std::vector<std::string> out;
  for (int64_t i = 0; i < n; ++i) {
    const auto& g = *groups[pick_group(*rng)];
    const data::Sentence* s = g[(*rng)() % g.size()];
    out.push_back(ReadLine("disambiguate", Join(s->tokens)));
  }
  return out;
}

/// Raw documents of 8-32 held-out sentences; sentences with tail or unseen
/// gold entities are five times as likely to be drawn. Lengths cycle through
/// 8..32, so every seed's requests hold the same number of sentences.
std::vector<std::string> DocumentRequests(const data::Corpus& corpus,
                                          const data::EntityCounts& counts,
                                          int64_t n, std::mt19937_64* rng) {
  std::vector<const data::Sentence*> pool;
  std::vector<double> weights;
  for (const auto* split : {&corpus.dev, &corpus.test}) {
    for (const data::Sentence& s : *split) {
      int64_t tail = 0;
      for (const data::Mention& m : s.mentions) {
        const data::PopularityBucket b = counts.BucketOf(m.gold);
        tail += b == data::PopularityBucket::kTail ||
                b == data::PopularityBucket::kUnseen;
      }
      pool.push_back(&s);
      weights.push_back(1.0 + 4.0 * static_cast<double>(tail > 0));
    }
  }
  std::discrete_distribution<size_t> pick(weights.begin(), weights.end());
  std::vector<std::string> out;
  for (int64_t i = 0; i < n; ++i) {
    std::string doc;
    for (int64_t k = 8 + i % 25; k > 0; --k) {
      if (!doc.empty()) doc += ' ';
      doc += Join(pool[pick(*rng)]->tokens);
    }
    out.push_back(ReadLine("disambiguate_text", doc));
  }
  return out;
}

/// add_entity templates copying an existing entity's coarse type, fine types
/// and one KG edge; the load generator substitutes a fresh title for "@".
std::vector<std::string> AddTemplates(const kb::KnowledgeBase& kb, int64_t n,
                                      std::mt19937_64* rng) {
  std::map<kb::EntityId, const kb::Triple*> edge;
  for (const kb::Triple& t : kb.triples()) edge.emplace(t.subject, &t);
  std::vector<std::string> out;
  while (static_cast<int64_t>(out.size()) < n) {
    const kb::EntityId e = static_cast<kb::EntityId>((*rng)() % kb.num_entities());
    const auto it = edge.find(e);
    if (it == edge.end()) continue;
    const kb::Entity& ent = kb.entity(e);
    std::string types;
    for (const kb::TypeId t : ent.types) {
      if (!types.empty()) types += ',';
      types += Quote(kb.type(t).name);
    }
    out.push_back(
        "{\"op\":\"add_entity\",\"title\":\"@\",\"coarse\":" +
        Quote(kb::CoarseTypeName(ent.coarse_type)) + ",\"types\":[" + types +
        "],\"relations\":[{\"relation\":" +
        Quote(kb.relation(it->second->relation).name) + ",\"object\":" +
        Quote(kb.entity(it->second->object).title) +
        "}],\"aliases\":[{\"alias\":\"@\",\"prior\":0.9}]}");
  }
  return out;
}

}  // namespace

int CmdGen(const Args& args) {
  const std::string out = args.Get("out");
  const std::string workload = args.Get("workload");
  data::SynthConfig config;
  config.seed = static_cast<uint64_t>(args.Int("seed", 1));
  config.num_entities = args.Int("entities", config.num_entities);
  config.num_pages = args.Int("pages", config.num_pages);
  std::filesystem::create_directories(out);
  const data::SynthWorld world = data::BuildWorld(config);
  data::CorpusGenerator generator(&world);
  data::Corpus corpus = generator.Generate();
  // Fixed split sizes, so one training epoch and one dev evaluation do the
  // same amount of work whatever the seed.
  if (const int64_t n = args.Int("train", 0); n > 0) {
    corpus.train.resize(std::min(corpus.train.size(), static_cast<size_t>(n)));
  }
  if (const int64_t n = args.Int("dev", 0); n > 0) {
    corpus.dev.resize(std::min(corpus.dev.size(), static_cast<size_t>(n)));
  }
  util::Status status = world.kb.Save(out + "/kb.bin");
  if (status.ok()) status = world.candidates.Save(out + "/candidates.bin");
  if (status.ok()) status = world.vocab.Save(out + "/vocab.bin");
  if (status.ok()) status = data::SaveCorpus(corpus, out + "/corpus.bin");
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }

  std::mt19937_64 rng(config.seed * 7919 + 17);
  std::vector<std::string> lines;
  if (workload == "documents") {
    const data::EntityCounts counts =
        data::EntityCounts::FromTraining(corpus.train);
    lines = DocumentRequests(corpus, counts, args.Int("requests", 200), &rng);
  } else {
    lines = SentenceRequests(corpus, args.Int("requests", 2000), &rng);
  }
  if (workload == "live_writes") {
    for (std::string& add : AddTemplates(world.kb, 64, &rng)) {
      lines.push_back(std::move(add));
    }
  }
  std::ofstream req(out + "/requests.jsonl");
  for (const std::string& l : lines) req << l << "\n";
  std::printf(
      "{\"entities\": %lld, \"train\": %zu, \"dev\": %zu, \"test\": %zu, "
      "\"requests\": %zu}\n",
      static_cast<long long>(world.kb.num_entities()), corpus.train.size(),
      corpus.dev.size(), corpus.test.size(), lines.size());
  return req.good() ? 0 : 1;
}

serve::EngineOptions DeploymentOptions(const Args& args) {
  serve::EngineOptions options;
  options.data_dir = args.Get("data");
  options.model_path = args.Get("model");
  options.store_dir = args.Get("store_dir");
  options.resident_budget_bytes = static_cast<int64_t>(
      args.Num("resident_budget_mb", 0.0) * 1024.0 * 1024.0);
  return options;
}

namespace {

bool SameMentions(const serve::SentenceResult& a,
                  const serve::SentenceResult& b) {
  if (a.mentions.size() != b.mentions.size()) return false;
  for (size_t i = 0; i < a.mentions.size(); ++i) {
    const serve::ServedMention& x = a.mentions[i];
    const serve::ServedMention& y = b.mentions[i];
    if (x.alias != y.alias || x.span_start != y.span_start ||
        x.span_end != y.span_end || x.entity != y.entity ||
        x.title != y.title || x.prior != y.prior ||
        x.num_candidates != y.num_candidates ||
        x.sentence_index != y.sentence_index) {
      return false;
    }
  }
  return true;
}

}  // namespace

int CmdOracle(const Args& args) {
  auto engine_or = serve::InferenceEngine::Create(DeploymentOptions(args));
  if (!engine_or.ok()) {
    std::fprintf(stderr, "error: %s\n", engine_or.status().ToString().c_str());
    return 1;
  }
  serve::InferenceEngine& engine = *engine_or.value();
  core::BootlegModel::InferenceScratch scratch;
  std::ofstream out(args.Get("out"));
  int64_t requests = 0;
  int64_t mismatches = 0;
  for (const std::string& line : ReadLines(args.Get("requests"))) {
    auto parsed = serve::Json::Parse(line);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: bad request line %s\n", line.c_str());
      return 1;
    }
    const std::string op = parsed.value().GetString("op");
    if (op == "add_entity") {
      out << "add\n";
      continue;
    }
    serve::BatchItem item;
    item.text = parsed.value().GetString("text");
    item.raw_text = op == "disambiguate_text";
    const auto result = engine.DisambiguateBatch({item}, &scratch);
    if (result.size() != 1) {
      std::fprintf(stderr, "error: engine returned %zu results\n", result.size());
      return 1;
    }
    std::string ids;
    for (const serve::ServedMention& m : result[0].mentions) {
      if (!ids.empty()) ids += ',';
      ids += std::to_string(m.entity);
    }
    out << (ids.empty() ? "-" : ids) << "\n";
    ++requests;
    if (!item.raw_text) {
      // The same text as a one-sentence raw document must give the same
      // reply, field for field.
      item.raw_text = true;
      const auto raw = engine.DisambiguateBatch({item}, &scratch);
      if (raw.size() != 1 || !SameMentions(raw[0], result[0])) ++mismatches;
    }
  }
  std::printf("{\"requests\": %lld, \"text_mismatches\": %lld}\n",
              static_cast<long long>(requests),
              static_cast<long long>(mismatches));
  return out.good() && mismatches == 0 ? 0 : 3;
}

}  // namespace bootleg::perfbench
