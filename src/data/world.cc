#include "data/world.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace bootleg::data {

namespace {

using kb::CoarseType;
using kb::EntityId;
using kb::RelationId;
using kb::TypeId;

/// Function words every sentence template may use.
const char* kFunctionWords[] = {
    "the", "a",    "is",   "was",  "in",   "of",    "and",  "or",
    "he",  "she",  "it",   "near", "with", "today", "for",  "also",
    ",",   ".",    "are",  "many", "like", "old",   "new",  "famous",
};

/// Years used for numerically-titled event entities.
const int kEventYears[] = {1960, 1964, 1968, 1972, 1976, 1980, 1984, 1988};

/// Keyword token "<prefix><id>kw<k>", e.g. "t3kw1". Built by appends: GCC 12
/// reports a false -Wrestrict on the chained operator+ spelling.
std::string KeywordToken(char prefix, int64_t id, int64_t k) {
  std::string kw(1, prefix);
  kw += std::to_string(id);
  kw += "kw";
  kw += std::to_string(k);
  return kw;
}

}  // namespace

EntityId SynthWorld::SampleEntity(util::Rng* rng, bool allow_holdout) const {
  const int64_t n = kb.num_entities();
  for (int attempt = 0; attempt < 64; ++attempt) {
    const EntityId e = rng->Zipf(n, config.entity_zipf_s);
    if (allow_holdout || !is_unseen_holdout[static_cast<size_t>(e)]) return e;
  }
  // Extremely unlikely fallback: linear scan for any non-holdout entity.
  for (EntityId e = 0; e < n; ++e) {
    if (!is_unseen_holdout[static_cast<size_t>(e)]) return e;
  }
  return 0;
}

const std::string& SynthWorld::SampleAlias(EntityId e, util::Rng* rng) const {
  const kb::Entity& ent = kb.entity(e);
  BOOTLEG_CHECK(!ent.aliases.empty());
  // Prefer shared (ambiguous) aliases: the title is always the last alias
  // entry; draw it only 25% of the time when alternatives exist.
  if (ent.aliases.size() > 1 && rng->Uniform() < 0.75) {
    const size_t idx = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(ent.aliases.size()) - 2));
    return ent.aliases[idx];
  }
  return ent.aliases.back();
}

SynthWorld BuildWorld(const SynthConfig& config) {
  SynthWorld world;
  world.config = config;
  util::Rng rng(config.seed);

  // --- Types (fine, with a coarse type each; type popularity is Zipfian so
  // there is a distinct type-tail, per paper Appendix D.1). ------------------
  for (int64_t t = 0; t < config.num_types; ++t) {
    const auto coarse = static_cast<CoarseType>(t % kb::kNumCoarseTypes);
    world.kb.AddType("type_" + std::to_string(t), coarse);
  }
  for (int64_t r = 0; r < config.num_relations; ++r) {
    world.kb.AddRelation("relation_" + std::to_string(r));
  }

  // Person-compatible fine types (coarse == person).
  std::vector<TypeId> person_types;
  std::vector<TypeId> event_types;
  for (int64_t t = 0; t < config.num_types; ++t) {
    if (world.kb.type(t).coarse == CoarseType::kPerson) person_types.push_back(t);
    if (world.kb.type(t).coarse == CoarseType::kEvent) event_types.push_back(t);
  }

  // --- Entities --------------------------------------------------------------
  // Entity id order is popularity order (id 0 most popular). Popularity is
  // the Zipf sampling weight used everywhere downstream.
  world.popularity.resize(static_cast<size_t>(config.num_entities));
  for (int64_t i = 0; i < config.num_entities; ++i) {
    world.popularity[static_cast<size_t>(i)] =
        1.0 / std::pow(static_cast<double>(i) + 1.0, config.entity_zipf_s);
  }

  world.entities_by_type.assign(static_cast<size_t>(config.num_types), {});

  auto sample_type = [&](bool person) -> TypeId {
    if (person && !person_types.empty()) {
      const auto idx = static_cast<size_t>(rng.Zipf(
          static_cast<int64_t>(person_types.size()), config.type_zipf_s));
      return person_types[idx];
    }
    return rng.Zipf(config.num_types, config.type_zipf_s);
  };

  const int64_t num_event_entities =
      std::max<int64_t>(8, config.num_entities / 50);
  std::vector<char> no_signal(static_cast<size_t>(config.num_entities), 0);
  for (int64_t i = 0; i < config.num_entities; ++i) {
    kb::Entity e;
    // No-signal entities have neither types nor relations: only entity
    // memorization can resolve them (the paper's Entity pattern slice).
    no_signal[static_cast<size_t>(i)] =
        rng.Uniform() < config.no_signal_fraction ? 1 : 0;
    const bool is_person =
        !no_signal[static_cast<size_t>(i)] && rng.Uniform() < config.person_fraction;
    const bool no_types = no_signal[static_cast<size_t>(i)] ||
                          rng.Uniform() < config.no_type_fraction;
    const bool is_event = !is_person && !no_types && i % 50 == 7 &&
                          i / 50 < num_event_entities && !event_types.empty();
    if (is_event) {
      // Year-titled event entities feed the numerical error bucket: siblings
      // share an alias and differ only by the year token in the title.
      const int year = kEventYears[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(std::size(kEventYears)) - 1))];
      e.title = "games_" + std::to_string(year) + "_e" + std::to_string(i);
      e.types.push_back(rng.Choice(event_types));
      e.coarse_type = CoarseType::kEvent;
    } else {
      e.title = "ttl_e" + std::to_string(i);
      if (!no_types) {
        const int64_t nt = rng.UniformInt(1, 3);
        for (int64_t k = 0; k < nt; ++k) {
          const TypeId t = sample_type(is_person);
          if (std::find(e.types.begin(), e.types.end(), t) == e.types.end()) {
            e.types.push_back(t);
          }
        }
        e.coarse_type = world.kb.type(e.types.front()).coarse;
      } else {
        e.coarse_type = CoarseType::kMisc;
      }
      if (is_person && !e.types.empty()) {
        e.coarse_type = CoarseType::kPerson;
      }
      // Any person-coarse entity (whether forced or via its first type)
      // carries a gender for the pronoun weak-labeling heuristic.
      if (e.coarse_type == CoarseType::kPerson) {
        e.gender = rng.Bernoulli(0.5) ? 'f' : 'm';
      }
    }
    const EntityId id = world.kb.AddEntity(std::move(e));
    for (TypeId t : world.kb.entity(id).types) {
      world.entities_by_type[static_cast<size_t>(t)].push_back(id);
    }
  }

  // --- Shared aliases (the ambiguity structure of Γ) --------------------------
  // Shuffle entities and partition into alias groups. Shuffling mixes popular
  // and unpopular entities in one group, so most aliases have a popular prior
  // candidate and several tail candidates — the paper's hard case.
  {
    std::vector<EntityId> order(static_cast<size_t>(config.num_entities));
    for (int64_t i = 0; i < config.num_entities; ++i) order[static_cast<size_t>(i)] = i;
    rng.Shuffle(&order);
    size_t pos = 0;
    int64_t group_id = 0;
    while (pos < order.size()) {
      const int64_t g = rng.UniformInt(config.min_alias_ambiguity,
                                       config.max_alias_ambiguity);
      const std::string alias = "ak_" + std::to_string(group_id++);
      for (int64_t k = 0; k < g && pos < order.size(); ++k, ++pos) {
        kb::Entity& ent = world.kb.mutable_entity(order[pos]);
        ent.aliases.insert(ent.aliases.begin(), alias);
      }
    }
  }

  // Persons additionally share first/last-name aliases ("for each person, we
  // further add their first and last name as aliases").
  {
    const int64_t name_pool = std::max<int64_t>(4, config.num_entities / 40);
    for (EntityId id = 0; id < config.num_entities; ++id) {
      kb::Entity& ent = world.kb.mutable_entity(id);
      if (!ent.IsPerson()) continue;
      const std::string first = "fn_" + std::to_string(rng.UniformInt(0, name_pool - 1));
      const std::string last = "ln_" + std::to_string(rng.UniformInt(0, name_pool - 1));
      ent.aliases.insert(ent.aliases.begin(), first);
      ent.aliases.insert(ent.aliases.begin(), last);
    }
  }

  // Granularity pairs: a child entity is a finer-grained variant of a more
  // popular parent of the same coarse type; they share an alias.
  for (EntityId id = 10; id < config.num_entities; ++id) {
    if (id % 40 != 3) continue;
    const EntityId parent = rng.UniformInt(0, std::max<int64_t>(1, id / 4));
    if (parent == id) continue;
    world.kb.AddSubclass(id, parent);
    kb::Entity& child = world.kb.mutable_entity(id);
    const std::string shared = "gen_" + std::to_string(parent);
    child.aliases.insert(child.aliases.begin(), shared);
    kb::Entity& par = world.kb.mutable_entity(parent);
    if (std::find(par.aliases.begin(), par.aliases.end(), shared) ==
        par.aliases.end()) {
      par.aliases.insert(par.aliases.begin(), shared);
    }
  }

  // --- Triples ---------------------------------------------------------------
  std::vector<char> no_relation(static_cast<size_t>(config.num_entities), 0);
  for (EntityId id = 0; id < config.num_entities; ++id) {
    if (no_signal[static_cast<size_t>(id)] ||
        rng.Uniform() < config.no_relation_fraction) {
      no_relation[static_cast<size_t>(id)] = 1;
    }
  }
  for (EntityId id = 0; id < config.num_entities; ++id) {
    if (no_relation[static_cast<size_t>(id)]) continue;
    const int64_t deg = rng.UniformInt(1, 2 * config.triples_per_entity - 1);
    for (int64_t k = 0; k < deg; ++k) {
      const RelationId r = rng.Zipf(config.num_relations, config.relation_zipf_s);
      // Objects are popularity-sampled so popular entities are KG hubs.
      EntityId obj = rng.Zipf(config.num_entities, config.entity_zipf_s);
      if (obj == id || no_relation[static_cast<size_t>(obj)]) continue;
      world.kb.AddTriple(id, r, obj);
    }
  }

  // --- Lexicons ----------------------------------------------------------------
  for (const char* w : kFunctionWords) world.vocab.AddToken(w);
  world.filler_words.reserve(static_cast<size_t>(config.num_filler_words));
  for (int64_t i = 0; i < config.num_filler_words; ++i) {
    world.filler_words.push_back("f" + std::to_string(i));
    world.vocab.AddToken(world.filler_words.back());
  }
  world.type_keywords.resize(static_cast<size_t>(config.num_types));
  for (int64_t t = 0; t < config.num_types; ++t) {
    for (int64_t k = 0; k < config.keywords_per_type; ++k) {
      std::string kw = KeywordToken('t', t, k);
      world.vocab.AddToken(kw);
      world.type_keywords[static_cast<size_t>(t)].push_back(std::move(kw));
    }
  }
  world.relation_keywords.resize(static_cast<size_t>(config.num_relations));
  for (int64_t r = 0; r < config.num_relations; ++r) {
    for (int64_t k = 0; k < config.keywords_per_relation; ++k) {
      std::string kw = KeywordToken('r', r, k);
      world.vocab.AddToken(kw);
      world.relation_keywords[static_cast<size_t>(r)].push_back(std::move(kw));
    }
  }
  world.entity_cues.resize(static_cast<size_t>(config.num_entities));
  for (EntityId id = 0; id < config.num_entities; ++id) {
    auto& cues = world.entity_cues[static_cast<size_t>(id)];
    const std::string& title = world.kb.entity(id).title;
    if (util::StartsWith(title, "games_")) {
      // Year token: "games_1976_e357" → "y1976".
      const std::string year = title.substr(6, 4);
      cues.push_back("y" + year);
      world.vocab.AddToken(cues.back());
    }
    for (int64_t k = static_cast<int64_t>(cues.size());
         k < config.cue_words_per_entity; ++k) {
      cues.push_back("cue" + std::to_string(id) + (k == 0 ? "a" : "b"));
      world.vocab.AddToken(cues.back());
    }
  }
  // Aliases and titles are vocabulary tokens too.
  for (EntityId id = 0; id < config.num_entities; ++id) {
    for (const std::string& a : world.kb.entity(id).aliases) world.vocab.AddToken(a);
  }

  // --- Candidate map Γ ---------------------------------------------------------
  // Alias weights mirror anchor-link counts: proportional to entity
  // popularity, so the prior-ranked candidate list behaves like the paper's.
  for (EntityId id = 0; id < config.num_entities; ++id) {
    for (const std::string& a : world.kb.entity(id).aliases) {
      world.candidates.AddAlias(
          a, id, static_cast<float>(world.popularity[static_cast<size_t>(id)]));
    }
  }
  world.candidates.Finalize(static_cast<int>(config.max_candidates));

  // --- Unseen holdout ----------------------------------------------------------
  world.is_unseen_holdout.assign(static_cast<size_t>(config.num_entities), 0);
  for (EntityId id = config.num_entities / 2; id < config.num_entities; ++id) {
    if (rng.Uniform() < 2.0 * config.unseen_holdout_fraction) {
      world.is_unseen_holdout[static_cast<size_t>(id)] = 1;
    }
  }

  return world;
}

}  // namespace bootleg::data
