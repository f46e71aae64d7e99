// Stage-resolved replay of FqBertModel::forward(). Every call whose
// signature depends on a kernel lives in replay.cpp, so a kernel change
// edits one file of the benchmark.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "bench.h"
#include "core/fq_bert.h"

namespace fqbench {

/// Stages of one forward pass, named after accel::PerfModel's
/// StageStats rows (the paper's Fig. 5 dataflow) plus the CPU-side
/// embedding and head.
enum Stage : int {
  kEmbed,
  kXWq,
  kXWk,
  kXWv,
  kQKt,
  kSoftmax,
  kAttnV,
  kOaWs,
  kAddLn1,
  kFfn1Gelu,
  kFfn2,
  kAddLn2,
  kHead,
  kNumStages
};

const char* stage_name(int stage);
bool stage_is_matmul(int stage);

using StageArray = std::array<double, kNumStages>;

/// Replay forward(ex) by calling the engine's public per-stage functions
/// in forward_batch's order, adding each stage's nanoseconds (summed over
/// layers and heads) into `ns`. With `spans`, every stage call becomes a
/// span under one layer span per encoder layer, all children of `parent`.
/// Returns the logits, which must equal forward(ex) bit for bit.
std::vector<float> replay_forward(const fqbert::core::FqBertModel& model,
                                  const fqbert::nn::Example& ex,
                                  StageArray& ns, SpanLog* spans = nullptr,
                                  uint32_t tid = 0, uint64_t parent = 0,
                                  double origin_s = 0.0);

/// Multiply-accumulates per stage for one example of `seq_len` tokens
/// (all layers; 0 for stages that are not matrix products).
StageArray stage_macs(const fqbert::core::FqBertModel& model, int64_t seq_len);

/// Bytes a stage moves, computed from tensor sizes (resident weight
/// width, int8 activations, int32 score/probability tensors), all layers.
StageArray stage_bytes(const fqbert::core::FqBertModel& model,
                       int64_t seq_len);

/// Cycles accel::PerfModel models for the ZCU102 (8 PEs x 16
/// multipliers) for the same shape, all layers (0 for CPU-side stages).
StageArray zcu102_cycles(const fqbert::nn::BertConfig& config,
                         int64_t seq_len);

}  // namespace fqbench
