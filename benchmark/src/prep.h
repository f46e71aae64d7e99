// Inputs of the benchmark: seeded random-weight engines (QAT-calibrated
// and converted, no training), request pools drawn from --seed, and the
// expected logits of every pooled request on every tier, computed with
// the scalar oracle of tests/fq_oracle.h.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fq_bert.h"
#include "tensor/rng.h"

namespace fqbench {

/// An engine the benchmark builds. Weight seeds are fixed: the engines
/// are part of the benchmark's definition, the request stream is what
/// --seed varies.
struct ModelDef {
  std::string name;  // model name on the wire
  fqbert::nn::BertConfig config;
  int weight_bits = 4;       // native tier of the saved file
  std::vector<int> derived;  // tiers minted from the native one
  uint64_t weight_seed = 1;
};

/// BERT-mini shape (L=4, H=256, A=4, FFN=1024, vocab 1024) at w4/a8.
ModelDef bert_mini_def();
/// The serving engine of the fleet workloads (L=2, H=64, A=4, FFN=256,
/// vocab 512): native int8 plus a derived int4 tier.
ModelDef mini_def();
/// Second fleet model (MiniBERT shape, int8), moved in fleet_churn.
ModelDef aux_def();
/// A few-µs engine (L=2, H=16, A=2, FFN=32, vocab 128) for hop_overhead.
ModelDef tiny_def();

/// A saved FQBERT02 engine file plus one in-process engine per tier.
struct PreparedModel {
  std::string name;
  std::string path;  // absolute path of the FQBERT02 file
  fqbert::nn::BertConfig config;
  std::vector<int> tiers;  // weight bits; native first
  std::vector<std::shared_ptr<const fqbert::core::FqBertModel>> engines;

  /// `serve --model` spec: NAME=FILE, plus @intN,... when tiered.
  std::string serve_spec() const;
};

/// Build, calibrate, convert and save the engine under `dir`, reload it
/// with load_any (the serving load path) and derive its extra tiers.
PreparedModel prepare_model(const ModelDef& def, const std::string& dir);

/// Requests for one model with the oracle's logits for every tier.
struct Pool {
  const PreparedModel* model = nullptr;
  std::vector<fqbert::nn::Example> examples;
  /// expected[tier index][example index] = logits.
  std::vector<std::vector<std::vector<float>>> expected;

  /// Byte-identical to the oracle's logits?
  bool matches(size_t tier_index, size_t example, const float* logits,
               size_t n) const;
};

/// Pool of examples with the given lengths (token ids drawn from
/// `seed`), and their expected logits on every tier of `model`.
Pool make_pool(const PreparedModel& model,
               const std::vector<int64_t>& lengths, uint64_t seed);

/// A request of `len` tokens (CLS anchor, random ids, two segments).
fqbert::nn::Example make_example(fqbert::Rng& rng, int64_t len,
                                 const fqbert::nn::BertConfig& config);

/// `n` lengths spread evenly over [lo, hi] (the same multiset for every
/// seed, so a latency median never sits on a cluster boundary that
/// moves with the draw).
std::vector<int64_t> spread_lengths(int64_t lo, int64_t hi, size_t n);
/// `n` lengths cycling through `set`.
std::vector<int64_t> cycle_lengths(const std::vector<int64_t>& set, size_t n);

/// One request of a traffic mix.
struct Req {
  uint32_t pool = 0;   // index into the workload's pools
  uint32_t tier = 0;   // tier index within the pool's model
  uint32_t example = 0;
};

}  // namespace fqbench
