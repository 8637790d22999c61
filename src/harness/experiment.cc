#include "harness/experiment.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "core/model_loader.h"

#include "util/crc32.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace bootleg::harness {

std::vector<int64_t> Environment::TitleTokenIds() const {
  std::vector<int64_t> ids;
  ids.reserve(static_cast<size_t>(world.kb.num_entities()));
  for (kb::EntityId e = 0; e < world.kb.num_entities(); ++e) {
    ids.push_back(world.vocab.Id(world.kb.entity(e).title));
  }
  return ids;
}

Environment BuildEnvironment(const data::SynthConfig& config,
                             bool apply_weak_labels) {
  Environment env;
  env.synth_config = config;
  env.world = data::BuildWorld(config);
  data::CorpusGenerator generator(&env.world);
  env.corpus = generator.Generate();
  env.counts_anchor_only = data::EntityCounts::FromTraining(
      env.corpus.train, /*include_weak=*/false);
  if (apply_weak_labels) {
    env.wl_stats = data::ApplyWeakLabeling(env.world.kb, &env.corpus.train);
  }
  env.counts = data::EntityCounts::FromTraining(env.corpus.train);
  for (const data::Sentence& s : env.corpus.train) {
    for (size_t i = 0; i < s.mentions.size(); ++i) {
      if (!s.mentions[i].labeled) continue;
      for (size_t j = i + 1; j < s.mentions.size(); ++j) {
        if (!s.mentions[j].labeled) continue;
        env.cooc.AddPair(s.mentions[i].gold, s.mentions[j].gold);
      }
    }
  }
  env.builder = std::make_unique<data::ExampleBuilder>(&env.world.candidates,
                                                       &env.world.vocab);
  data::ExampleOptions options;
  env.train_examples = env.builder->BuildAll(env.corpus.train, options);
  return env;
}

data::SynthConfig MainScale() { return data::SynthConfig(); }

core::BootlegConfig DefaultBootlegConfig() {
  core::BootlegConfig config;
  config.encoder.max_len = 32;
  return config;
}

core::TrainOptions DefaultTrainOptions() {
  core::TrainOptions options;
  // The paper trains 2 epochs over 5.7M Wikipedia sentences; at this corpus
  // scale more passes are needed to reach the same convergence regime.
  options.epochs = 5;
  return options;
}

std::string CacheDir() {
  const char* toggle = std::getenv("BOOTLEG_CACHE");
  if (toggle != nullptr && std::string(toggle) == "0") return "";
  const char* dir = std::getenv("BOOTLEG_CACHE_DIR");
  return dir != nullptr ? dir : "bootleg_cache";
}

namespace {

std::string EncoderKey(const text::WordEncoderConfig& e) {
  return util::StrFormat("enc%lld,%lld,%lld,%lld,%lld",
                         static_cast<long long>(e.hidden),
                         static_cast<long long>(e.num_layers),
                         static_cast<long long>(e.num_heads),
                         static_cast<long long>(e.ff_inner),
                         static_cast<long long>(e.max_len));
}

/// Every field of the model config, as text: two configs share a key only if
/// they build and regularize the same model.
std::string ConfigKey(const core::BootlegConfig& c) {
  return util::StrFormat(
             "dims%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld",
             static_cast<long long>(c.hidden),
             static_cast<long long>(c.entity_dim),
             static_cast<long long>(c.type_dim),
             static_cast<long long>(c.coarse_dim),
             static_cast<long long>(c.rel_dim),
             static_cast<long long>(c.attn_pool_dim),
             static_cast<long long>(c.max_types_per_entity),
             static_cast<long long>(c.max_relations_per_entity),
             static_cast<long long>(c.num_heads),
             static_cast<long long>(c.ff_inner),
             static_cast<long long>(c.num_layers)) +
         EncoderKey(c.encoder) +
         util::StrFormat("use%d%d%d%d%d%d%d%d%d%d", c.use_entity, c.use_type,
                         c.use_kg, c.use_type_prediction,
                         c.use_position_encoding, c.use_cooccurrence_kg,
                         c.use_title_feature, c.ensemble_scoring,
                         c.use_two_hop_kg, c.freeze_encoder) +
         util::StrFormat("reg%d,%g,%d", static_cast<int>(c.regularization.scheme),
                         static_cast<double>(c.regularization.fixed_p),
                         c.regularization.two_dimensional);
}

std::string ConfigKey(const baseline::NedBaseConfig& c) {
  return EncoderKey(c.encoder) +
         util::StrFormat("ent%lld", static_cast<long long>(c.entity_dim));
}

/// Cache file name: spec name + environment fingerprint + training recipe +
/// model seed + a digest of the model config, so a changed schedule, scale,
/// seed or architecture never silently reuses a stale checkpoint.
std::string CachePath(const Environment& env, const std::string& name,
                      const core::TrainOptions& train, uint64_t model_seed,
                      const std::string& config_key) {
  const std::string dir = CacheDir();
  if (dir.empty()) return "";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "";
  return util::StrFormat(
      "%s/%s_s%llu_p%lld_e%lld_wl%lld_ep%lld_lr%g_m%llu_c%08x.ckpt",
      dir.c_str(), name.c_str(),
      static_cast<unsigned long long>(env.synth_config.seed),
      static_cast<long long>(env.synth_config.num_pages),
      static_cast<long long>(env.synth_config.num_entities),
      static_cast<long long>(env.wl_stats.total_labels_after),
      static_cast<long long>(train.epochs), static_cast<double>(train.lr),
      static_cast<unsigned long long>(model_seed),
      util::Crc32(config_key.data(), config_key.size()));
}

}  // namespace

std::unique_ptr<core::BootlegModel> TrainBootleg(Environment* env,
                                                 const BootlegSpec& spec) {
  auto model = std::make_unique<core::BootlegModel>(
      &env->world.kb, env->world.vocab.size(), spec.config, spec.model_seed);
  model->SetEntityCounts(&env->counts);
  if (spec.config.use_cooccurrence_kg) model->SetCooccurrence(&env->cooc);
  if (spec.config.use_title_feature) {
    model->SetTitleTokenIds(env->TitleTokenIds());
  }
  const std::string cache = CachePath(*env, spec.name, spec.train,
                                      spec.model_seed, ConfigKey(spec.config));
  if (!cache.empty() && std::filesystem::exists(cache) &&
      core::LoadSnapshotOrInvalidate(cache, &model->store()).ok()) {
    BOOTLEG_LOG(Info) << "loaded cached model " << cache;
    return model;
  }
  core::Trainable<core::BootlegModel> trainable(model.get());
  const core::TrainStats stats =
      core::Train(&trainable, env->train_examples, spec.train);
  BOOTLEG_LOG(Info) << "trained " << spec.name << ": "
                    << stats.sentences_seen << " sentences in "
                    << stats.seconds << "s";
  if (!cache.empty()) {
    const util::Status st = model->store().Save(cache);
    if (!st.ok()) BOOTLEG_LOG(Warning) << "cache save failed: " << st.ToString();
  }
  return model;
}

std::unique_ptr<baseline::NedBaseModel> TrainNedBase(
    Environment* env, const std::string& name,
    const core::TrainOptions& train_options, uint64_t model_seed) {
  baseline::NedBaseConfig config;
  config.encoder.max_len = 32;
  auto model = std::make_unique<baseline::NedBaseModel>(
      env->world.kb.num_entities(), env->world.vocab.size(), config, model_seed);
  const std::string cache =
      CachePath(*env, name, train_options, model_seed, ConfigKey(config));
  if (!cache.empty() && std::filesystem::exists(cache) &&
      core::LoadSnapshotOrInvalidate(cache, &model->store()).ok()) {
    BOOTLEG_LOG(Info) << "loaded cached model " << cache;
    return model;
  }
  core::Trainable<baseline::NedBaseModel> trainable(model.get());
  const core::TrainStats stats =
      core::Train(&trainable, env->train_examples, train_options);
  BOOTLEG_LOG(Info) << "trained " << name << ": " << stats.sentences_seen
                    << " sentences in " << stats.seconds << "s";
  if (!cache.empty()) {
    const util::Status st = model->store().Save(cache);
    if (!st.ok()) BOOTLEG_LOG(Warning) << "cache save failed: " << st.ToString();
  }
  return model;
}

BucketResult EvaluateBuckets(eval::NedScorer* model, const Environment& env,
                             const std::vector<data::Sentence>& sentences,
                             bool prepend_title,
                             const data::EntityCounts* bucket_counts) {
  data::ExampleOptions options;
  options.prepend_title = prepend_title;
  const data::EntityCounts& counts =
      bucket_counts != nullptr ? *bucket_counts : env.counts;
  BucketResult out{
      {}, {}, {}, {},
      eval::RunEvaluation(model, sentences, *env.builder, options, counts)};
  out.all = out.results.Overall();
  out.torso = out.results.ByBucket(data::PopularityBucket::kTorso);
  out.tail = out.results.ByBucket(data::PopularityBucket::kTail);
  out.unseen = out.results.ByBucket(data::PopularityBucket::kUnseen);
  return out;
}

std::vector<data::Sentence> DevPlusTest(const Environment& env) {
  std::vector<data::Sentence> out = env.corpus.dev;
  out.insert(out.end(), env.corpus.test.begin(), env.corpus.test.end());
  return out;
}

void PrintTableHeader(const std::string& title,
                      const std::vector<std::string>& columns) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-28s", "Model");
  for (const std::string& c : columns) std::printf(" %14s", c.c_str());
  std::printf("\n");
  for (size_t i = 0; i < 28 + columns.size() * 15; ++i) std::printf("-");
  std::printf("\n");
}

void PrintTableRow(const std::string& name, const std::vector<double>& values) {
  std::printf("%-28s", name.c_str());
  for (double v : values) std::printf(" %14.1f", v);
  std::printf("\n");
}

void PrintTableRowText(const std::string& name,
                       const std::vector<std::string>& values) {
  std::printf("%-28s", name.c_str());
  for (const std::string& v : values) std::printf(" %14s", v.c_str());
  std::printf("\n");
}

}  // namespace bootleg::harness
