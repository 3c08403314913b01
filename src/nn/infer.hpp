// Frozen inference plan: the serving forward of a DualHeadModel.
//
// The provisioner asks "submit now or wait?" once per job pair while the
// predecessor runs, so serving is a stream of small forwards over k-frame
// histories. The training forward answers that with one Tensor per op,
// NT dot-product GEMMs over strided weight rows and activation caches for
// a backward that never comes. An InferencePlan is built once from a
// model and copies what the forward needs:
//   - every Linear weight, transposed to [in, out], so each kernel runs
//     over contiguous output features and the compiler vectorises it;
//   - the positional table, the LayerNorm gains and the gate.
// It then runs into a caller-owned Workspace. Each row's k-frame sequence
// goes through the whole encoder on its own:
//   embed + bias + position; per layer LN, Q/K/V (K stored transposed per
//   head so the scores vectorise over t), softmax and A·V, Wo fused with
//   the residual, LN, FFN1 fused with bias + GELU, FFN2 fused with bias +
//   residual; then final LN, mean-pool and the head.
// MoE rows are routed by the gate (first-max tie-break for Top-1) and the
// plan walks experts in ascending order over the rows that use them, so an
// expert's weights stay in cache across its rows and a Top-1 row runs only
// its routed expert.
//
// Bitwise contract: every output equals forward_q(x) / forward_policy(x,
// false) of the model the plan was built from, bit for bit. Each kernel
// keeps each output element's products in the training forward's
// ascending order, with the same zero-skips and the same libm calls
// (gelu, softmax_row), and infer.cpp is compiled without FP contraction,
// so no fused multiply-add changes a rounding. Rows are independent, so
// the result is the same at every batch size and thread count.
//
// Allocation: once a Workspace has grown to the largest batch it has seen
// (and to the thread count), a forward allocates nothing and caches
// nothing. With nn::num_threads() > 1 the rows are split statically into
// contiguous ranges over nn::detail::gemm_pool(); that dispatch goes
// through util::ThreadPool::run_static, which allocates its task handles,
// so the allocation-free contract is for one thread.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/dual_head.hpp"

namespace mirage::nn {

class InferencePlan;

/// Caller-owned scratch for InferencePlan: the input rows, the outputs and
/// one sequence scratch per worker. Buffers only grow. Not thread-safe: one
/// forward at a time per workspace.
class Workspace {
 private:
  friend class InferencePlan;
  struct Slot {
    std::vector<float> h, a, q, kt, v, ctx;  ///< [k, d] (kt: [d, k])
    std::vector<float> f;                    ///< [k, ffn_hidden]
    std::vector<float> scores;               ///< [k]
    std::vector<float> mean;                 ///< [state_dim] gate input
    std::vector<float> pooled;               ///< [d] one expert's output
  };
  std::size_t rows_ = 0;
  std::vector<float> input_;   ///< [rows, input_dim]
  std::vector<float> gate_;    ///< [rows, experts] combine weights
  std::vector<float> pooled_;  ///< [rows, d] foundation output
  std::vector<float> output_;  ///< [rows, output_dim]
  std::vector<Slot> slots_;
};

class InferencePlan {
 public:
  enum class Head { kQ, kPolicy };

  /// Snapshot `model`'s weights for `head`. Later changes to the model do
  /// not reach the plan.
  InferencePlan(const DualHeadModel& model, Head head);

  std::size_t input_dim() const { return k_ * m_; }
  /// 1 (Q-value) or 2 (softmax over {no-submit, submit}).
  std::size_t output_dim() const { return head_.out; }

  /// Size `ws` for `rows` rows and return the [rows, input_dim()] block
  /// the caller fills with model inputs before run().
  float* input(Workspace& ws, std::size_t rows) const;

  /// Forward over the rows last sized by input(); returns [rows,
  /// output_dim()], valid until the workspace is next used.
  const float* run(Workspace& ws) const;

 private:
  /// A Linear with its weight transposed to [in, out].
  struct Dense {
    std::size_t in = 0, out = 0;
    std::vector<float> wt;  ///< [in, out]
    std::vector<float> b;   ///< [out]
  };
  struct Norm {
    std::vector<float> g, b;
    float eps = 0.0f;
  };
  struct Layer {
    Norm ln1, ln2;
    Dense wq, wk, wv, wo, ffn1, ffn2;
  };
  struct Encoder {
    Dense embed;
    std::vector<float> pos;  ///< [k, d]
    std::vector<Layer> layers;
    Norm final_ln;
  };

  static Dense freeze(const Linear& linear);
  static Norm freeze(const LayerNorm& norm);
  static Encoder freeze(const TransformerFoundation& foundation);

  /// One row's sequence through `enc`; mean-pooled [d] into `pooled`.
  void encode(const Encoder& enc, const float* x, Workspace::Slot& s, float* pooled) const;
  /// Rows [r0, r1): gate, experts, combine and head.
  void run_rows(Workspace& ws, std::size_t r0, std::size_t r1, Workspace::Slot& s) const;
  void attention(const Layer& layer, Workspace::Slot& s) const;

  std::size_t k_, m_, d_, heads_, ffn_;
  bool moe_ = false;
  bool top1_ = false;
  Dense gate_;  ///< [state_dim, experts]; MoE only
  std::vector<Encoder> experts_;  ///< one for a plain transformer
  Dense head_;
  bool softmax_head_;
};

}  // namespace mirage::nn
