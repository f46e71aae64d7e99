#include "prep.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "core/qat.h"
#include "fq_oracle.h"
#include "nn/bert.h"
#include "tensor/rng.h"

namespace fqbench {

using namespace fqbert;

namespace {

nn::BertConfig shape(int64_t vocab, int64_t hidden, int64_t layers,
                     int64_t heads, int64_t ffn, int64_t max_seq) {
  nn::BertConfig c;
  c.vocab_size = vocab;
  c.hidden = hidden;
  c.num_layers = layers;
  c.num_heads = heads;
  c.ffn_dim = ffn;
  c.max_seq_len = max_seq;
  c.num_classes = 2;
  return c;
}

}  // namespace

nn::Example make_example(Rng& rng, int64_t len, const nn::BertConfig& c) {
  nn::Example ex;
  ex.tokens.resize(static_cast<size_t>(len));
  ex.segments.resize(static_cast<size_t>(len));
  ex.tokens[0] = 0;  // CLS anchor
  for (int64_t i = 1; i < len; ++i)
    ex.tokens[static_cast<size_t>(i)] =
        static_cast<int32_t>(rng.randint(1, c.vocab_size - 1));
  // Two "sentences", so the segment table is exercised too.
  for (int64_t i = 0; i < len; ++i)
    ex.segments[static_cast<size_t>(i)] = i < len / 2 ? 0 : 1;
  return ex;
}

ModelDef bert_mini_def() {
  return {"bert", shape(1024, 256, 4, 4, 1024, 64), 4, {}, 1001};
}
ModelDef mini_def() {
  return {"mini", shape(512, 64, 2, 4, 256, 32), 8, {4}, 1003};
}
ModelDef aux_def() { return {"aux", shape(512, 64, 2, 4, 256, 32), 8, {}, 1004}; }
ModelDef tiny_def() { return {"tiny", shape(128, 16, 2, 2, 32, 32), 4, {}, 1002}; }

std::string PreparedModel::serve_spec() const {
  std::string spec = name + "=" + path;
  if (tiers.size() > 1) {
    for (size_t i = 0; i < tiers.size(); ++i)
      spec += (i == 0 ? "@int" : ",int") + std::to_string(tiers[i]);
  }
  return spec;
}

PreparedModel prepare_model(const ModelDef& def, const std::string& dir) {
  Rng rng(def.weight_seed);
  nn::BertModel model(def.config, rng);
  core::FqQuantConfig qcfg = core::FqQuantConfig::full();
  qcfg.weight_bits = def.weight_bits;
  core::QatBert qat(model, qcfg);
  // Calibration only (no training), over lengths spanning the shape.
  std::vector<nn::Example> calib;
  Rng data_rng(def.weight_seed * 131 + 3);
  for (const int64_t len : spread_lengths(2, def.config.max_seq_len, 12))
    calib.push_back(make_example(data_rng, len, def.config));
  qat.calibrate(calib);
  const core::FqBertModel converted = core::FqBertModel::convert(qat);

  PreparedModel out;
  out.name = def.name;
  out.config = def.config;
  out.path = std::filesystem::absolute(dir + "/" + def.name + ".fqb").string();
  if (!converted.save_mapped(out.path))
    throw std::runtime_error("cannot write " + out.path);
  auto loaded = std::make_shared<const core::FqBertModel>(
      core::FqBertModel::load_any(out.path));
  out.tiers.push_back(def.weight_bits);
  out.engines.push_back(loaded);
  for (const int bits : def.derived) {
    out.tiers.push_back(bits);
    out.engines.push_back(
        std::make_shared<const core::FqBertModel>(loaded->derive_tier(bits)));
  }
  return out;
}

bool Pool::matches(size_t tier_index, size_t example, const float* logits,
                   size_t n) const {
  const std::vector<float>& want = expected[tier_index][example];
  return n == want.size() &&
         std::memcmp(want.data(), logits, n * sizeof(float)) == 0;
}

Pool make_pool(const PreparedModel& model, const std::vector<int64_t>& lengths,
               uint64_t seed) {
  Pool pool;
  pool.model = &model;
  Rng rng(seed);
  for (const int64_t len : lengths)
    pool.examples.push_back(make_example(rng, len, model.config));

  // The scalar oracle is slow; spread it over the host's cores.
  pool.expected.resize(model.engines.size());
  for (size_t t = 0; t < model.engines.size(); ++t) {
    const core::oracle::OracleModel oracle(*model.engines[t]);
    std::vector<std::vector<float>>& out = pool.expected[t];
    out.resize(pool.examples.size());
    std::atomic<size_t> next{0};
    const unsigned n_threads =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < n_threads; ++i)
      threads.emplace_back([&] {
        for (size_t k = next++; k < pool.examples.size(); k = next++) {
          const Tensor logits =
              core::oracle::oracle_forward(oracle, pool.examples[k]);
          out[k].assign(logits.data(), logits.data() + logits.numel());
        }
      });
    for (std::thread& th : threads) th.join();
  }
  return pool;
}

std::vector<int64_t> spread_lengths(int64_t lo, int64_t hi, size_t n) {
  std::vector<int64_t> out(n);
  const int64_t span = hi - lo + 1;
  for (size_t i = 0; i < n; ++i)
    out[i] = lo + static_cast<int64_t>(i) * span / static_cast<int64_t>(n);
  return out;
}

std::vector<int64_t> cycle_lengths(const std::vector<int64_t>& set, size_t n) {
  std::vector<int64_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = set[i % set.size()];
  return out;
}

}  // namespace fqbench
