#include "replay.h"

#include <algorithm>
#include <string>
#include <utility>

#include "accel/device.h"
#include "accel/perf_model.h"
#include "core/int_kernels.h"
#include "quant/fixed_point.h"

namespace fqbench {

using namespace fqbert;

namespace {

constexpr const char* kStageNames[kNumStages] = {
    "embed",  "x_wq",    "x_wk",  "x_wv",      "q_kt", "softmax", "attn_v",
    "oa_ws",  "add_ln1", "ffn1_gelu", "ffn2", "add_ln2", "head"};

// accel::PerfModel's StageStats row names, per stage ("" = CPU side).
constexpr const char* kPerfModelRows[kNumStages] = {
    "",       "X*Wq",    "X*Wk", "X*Wv",      "Q*K^T", "Softmax", "Attn*V",
    "O_A*Ws", "Add&LN1", "FFN1+GELU", "FFN2", "Add&LN2", ""};

/// The buffers forward_batch keeps in FqBatchScratch, for one sequence.
struct Scratch {
  std::vector<int8_t> x, y, q, k, v, ctx, attn_out, ffn_x, pre, mid, fo;
  std::vector<int8_t> qh, kh, vh;
  std::vector<int16_t> panel, kh16;
  std::vector<int32_t> acc, res, scores, probs, ctx_acc;
};

/// Contiguous stage clock: each mark() closes the interval opened by the
/// previous one, so no time between stages goes unaccounted.
class Marker {
 public:
  Marker(StageArray& ns, SpanLog* spans, uint32_t tid, double origin_s)
      : ns_(ns), spans_(spans), tid_(tid), origin_s_(origin_s),
        prev_(Clock::now()) {}

  void mark(int stage, uint64_t parent) {
    const Clock::time_point t = Clock::now();
    ns_[static_cast<size_t>(stage)] += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - prev_)
            .count());
    if (spans_ != nullptr)
      spans_->add(kStageNames[stage], us(prev_), us(t) - us(prev_), tid_,
                  parent);
    prev_ = t;
  }
  double prev_us() const { return us(prev_); }

 private:
  double us(Clock::time_point t) const {
    return (std::chrono::duration<double>(t.time_since_epoch()).count() -
            origin_s_) *
           1e6;
  }

  StageArray& ns_;
  SpanLog* spans_;
  uint32_t tid_;
  double origin_s_;
  Clock::time_point prev_;
};

}  // namespace

const char* stage_name(int stage) { return kStageNames[stage]; }

bool stage_is_matmul(int stage) {
  switch (stage) {
    case kXWq: case kXWk: case kXWv: case kQKt: case kAttnV: case kOaWs:
    case kFfn1Gelu: case kFfn2:
      return true;
    default:
      return false;
  }
}

std::vector<float> replay_forward(const core::FqBertModel& model,
                                  const nn::Example& ex, StageArray& ns,
                                  SpanLog* spans, uint32_t tid,
                                  uint64_t parent, double origin_s) {
  static thread_local Scratch s;
  const int64_t len = static_cast<int64_t>(ex.tokens.size());
  const int64_t hdim = model.config().hidden;
  Marker m(ns, spans, tid, origin_s);

  s.x.resize(static_cast<size_t>(len * hdim));
  model.embed_into(ex, s.x.data());
  m.mark(kEmbed, parent);

  int layer_index = 0;
  for (const core::FqEncoderLayer& layer : model.encoder_layers()) {
    const uint64_t ls =
        spans != nullptr
            ? spans->add("layer" + std::to_string(layer_index), m.prev_us(),
                         0.0, tid, parent)
            : 0;
    const int64_t hidden = layer.hidden;
    const int64_t head_dim = layer.head_dim;

    layer.wq.forward_i8(s.x, s.q, len, s.acc, s.panel);
    m.mark(kXWq, ls);
    layer.wk.forward_i8(s.x, s.k, len, s.acc, s.panel);
    m.mark(kXWk, ls);
    layer.wv.forward_i8(s.x, s.v, len, s.acc, s.panel);
    m.mark(kXWv, ls);

    s.ctx.resize(static_cast<size_t>(len * hidden));
    s.qh.resize(static_cast<size_t>(len * head_dim));
    s.kh.resize(static_cast<size_t>(len * head_dim));
    s.vh.resize(static_cast<size_t>(len * head_dim));
    for (int64_t h = 0; h < layer.num_heads; ++h) {
      for (int64_t r = 0; r < len; ++r) {
        const int64_t off = r * hidden + h * head_dim;
        std::copy(s.q.data() + off, s.q.data() + off + head_dim,
                  s.qh.data() + r * head_dim);
        std::copy(s.k.data() + off, s.k.data() + off + head_dim,
                  s.kh.data() + r * head_dim);
        std::copy(s.v.data() + off, s.v.data() + off + head_dim,
                  s.vh.data() + r * head_dim);
      }
      s.kh16.assign(s.kh.begin(), s.kh.end());
      core::int_matmul_wt_panel(s.qh, s.kh16, s.scores, len, head_dim, len,
                                s.panel);
      m.mark(kQKt, ls);
      layer.apply_softmax(s.scores, s.probs, len);
      m.mark(kSoftmax, ls);
      core::int_matmul_pv(s.probs, s.vh, s.ctx_acc, len, len, head_dim);
      for (int64_t r = 0; r < len; ++r) {
        int8_t* crow = s.ctx.data() + r * hidden + h * head_dim;
        const int32_t* arow = s.ctx_acc.data() + r * head_dim;
        for (int64_t c = 0; c < head_dim; ++c)
          crow[c] = static_cast<int8_t>(
              quant::saturate_signed(layer.ctx_rq.apply(arow[c]), 8));
      }
      m.mark(kAttnV, ls);
    }

    layer.wo.forward_i8(s.ctx, s.attn_out, len, s.acc, s.panel);
    m.mark(kOaWs, ls);

    const size_t n = static_cast<size_t>(len * hidden);
    s.res.resize(n);
    for (size_t i = 0; i < n; ++i)
      s.res[i] = static_cast<int32_t>(s.attn_out[i]) +
                 layer.res1_rq.apply(s.x[i]);
    layer.apply_layernorm(s.res, s.ffn_x, len, /*first=*/true);
    m.mark(kAddLn1, ls);

    layer.ffn1.forward_i8(s.ffn_x, s.pre, len, s.acc, s.panel);
    s.mid.resize(s.pre.size());
    for (size_t i = 0; i < s.pre.size(); ++i)
      s.mid[i] = layer.gelu->apply(s.pre[i]);
    m.mark(kFfn1Gelu, ls);
    layer.ffn2.forward_i8(s.mid, s.fo, len, s.acc, s.panel);
    m.mark(kFfn2, ls);

    for (size_t i = 0; i < n; ++i)
      s.res[i] = static_cast<int32_t>(s.fo[i]) +
                 layer.res2_rq.apply(s.ffn_x[i]);
    layer.apply_layernorm(s.res, s.y, len, /*first=*/false);
    m.mark(kAddLn2, ls);
    if (spans != nullptr) spans->finish(ls, m.prev_us());
    std::swap(s.x, s.y);
    ++layer_index;
  }

  const Tensor logits = model.head_row(s.x.data());
  std::vector<float> out(logits.data(), logits.data() + logits.numel());
  m.mark(kHead, parent);
  return out;
}

StageArray stage_macs(const core::FqBertModel& model, int64_t seq_len) {
  StageArray macs{};
  const double s = static_cast<double>(seq_len);
  for (const core::FqEncoderLayer& l : model.encoder_layers()) {
    const double h = static_cast<double>(l.hidden);
    const double f = static_cast<double>(l.ffn_dim);
    const double attn = static_cast<double>(l.num_heads) * s * s *
                        static_cast<double>(l.head_dim);
    macs[kXWq] += s * h * h;
    macs[kXWk] += s * h * h;
    macs[kXWv] += s * h * h;
    macs[kQKt] += attn;
    macs[kAttnV] += attn;
    macs[kOaWs] += s * h * h;
    macs[kFfn1Gelu] += s * h * f;
    macs[kFfn2] += s * f * h;
  }
  return macs;
}

StageArray stage_bytes(const core::FqBertModel& model, int64_t seq_len) {
  StageArray bytes{};
  const double s = static_cast<double>(seq_len);
  // Weight stages: resident weights + int8 input + int32 accumulators
  // (written by the kernel, read by the requantizer) + int32 bias + int8
  // output.
  const auto linear = [s](const core::QuantLinear& q) {
    const double in = static_cast<double>(q.in);
    const double out = static_cast<double>(q.out);
    return static_cast<double>(q.weight_bytes()) + s * in + 8.0 * s * out +
           4.0 * out + s * out;
  };
  for (const core::FqEncoderLayer& l : model.encoder_layers()) {
    const double heads = static_cast<double>(l.num_heads);
    const double dh = static_cast<double>(l.head_dim);
    bytes[kXWq] += linear(l.wq);
    bytes[kXWk] += linear(l.wk);
    bytes[kXWv] += linear(l.wv);
    // Q int8, K widened to int16, int32 scores.
    bytes[kQKt] += heads * (s * dh + 2.0 * s * dh + 4.0 * s * s);
    // int32 probabilities, int8 V, int32 accumulators, int8 context.
    bytes[kAttnV] += heads * (4.0 * s * s + s * dh + 8.0 * s * dh + s * dh);
    bytes[kOaWs] += linear(l.wo);
    bytes[kFfn1Gelu] += linear(l.ffn1);
    bytes[kFfn2] += linear(l.ffn2);
  }
  return bytes;
}

StageArray zcu102_cycles(const nn::BertConfig& config, int64_t seq_len) {
  const accel::PerfModel pm(accel::AcceleratorConfig::zcu102_8_16(),
                            accel::FpgaDevice::zcu102());
  const accel::LatencyReport rep = pm.estimate(config, seq_len);
  StageArray cycles{};
  for (const accel::StageStats& st : rep.stages)
    for (int i = 0; i < kNumStages; ++i)
      if (st.name == kPerfModelRows[i])
        cycles[static_cast<size_t>(i)] +=
            static_cast<double>(st.total_cycles * rep.num_layers);
  return cycles;
}

}  // namespace fqbench
