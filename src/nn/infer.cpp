#include "nn/infer.hpp"

#include <algorithm>
#include <cmath>

#include "nn/parallel.hpp"
#include "obs/span.hpp"
#include "util/thread_pool.hpp"

namespace mirage::nn {

namespace {

/// What a dense kernel does with y = x·W + b once the sums are done.
enum class Epilogue {
  kBias,      ///< out = y
  kBiasGelu,  ///< out = gelu(y)
  kBiasAdd,   ///< dst = y + add (add and dst may be the same rows)
};

template <typename T>
void grow(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

/// `rows` rows of x [rows, in] times wt [in, out] plus bias, then the
/// epilogue. Rows go four at a time so one sweep of a weight row feeds
/// four accumulators. Each element starts at +0 and adds its products in
/// ascending input order, exactly as Linear's matmul_nt dot does (which
/// then stores 0 + sum: the sum itself, since a sum started at +0 is
/// never -0); the bias is added after the sum, as add_bias_rows does.
/// `acc` receives the sums (for kBias/kBiasGelu it is the output) and
/// must not alias x, add or dst.
template <Epilogue E>
void dense_rows(const float* x, std::size_t rows, std::size_t in, std::size_t out,
                const float* __restrict wt, const float* __restrict b, float* acc,
                const float* add = nullptr, float* dst = nullptr) {
  const auto finish = [&](std::size_t i) {
    float* a = acc + i * out;
    if constexpr (E == Epilogue::kBiasGelu) {
      // gelu() in three passes: the arithmetic around the tanh vectorises
      // and only the libm calls stay scalar.
      constexpr std::size_t kChunk = 64;
      float t[kChunk];
      for (std::size_t j0 = 0; j0 < out; j0 += kChunk) {
        const std::size_t n = std::min(kChunk, out - j0);
        float* y = a + j0;
        for (std::size_t j = 0; j < n; ++j) {
          y[j] = y[j] + b[j0 + j];
          t[j] = gelu_tanh_arg(y[j]);
        }
        for (std::size_t j = 0; j < n; ++j) t[j] = std::tanh(t[j]);
        for (std::size_t j = 0; j < n; ++j) y[j] = gelu_from_tanh(y[j], t[j]);
      }
    } else {
      for (std::size_t j = 0; j < out; ++j) {
        const float y = a[j] + b[j];
        if constexpr (E == Epilogue::kBias) {
          a[j] = y;
        } else {
          dst[i * out + j] = y + add[i * out + j];
        }
      }
    }
  };
  std::size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    const float* x0 = x + (i + 0) * in;
    const float* x1 = x + (i + 1) * in;
    const float* x2 = x + (i + 2) * in;
    const float* x3 = x + (i + 3) * in;
    float* __restrict o0 = acc + (i + 0) * out;
    float* __restrict o1 = acc + (i + 1) * out;
    float* __restrict o2 = acc + (i + 2) * out;
    float* __restrict o3 = acc + (i + 3) * out;
    for (std::size_t j = 0; j < out; ++j) o0[j] = o1[j] = o2[j] = o3[j] = 0.0f;
    for (std::size_t p = 0; p < in; ++p) {
      const float v0 = x0[p], v1 = x1[p], v2 = x2[p], v3 = x3[p];
      const float* __restrict w = wt + p * out;
      for (std::size_t j = 0; j < out; ++j) {
        o0[j] += v0 * w[j];
        o1[j] += v1 * w[j];
        o2[j] += v2 * w[j];
        o3[j] += v3 * w[j];
      }
    }
    for (std::size_t r = 0; r < 4; ++r) finish(i + r);
  }
  for (; i < rows; ++i) {
    const float* xr = x + i * in;
    float* __restrict o = acc + i * out;
    for (std::size_t j = 0; j < out; ++j) o[j] = 0.0f;
    for (std::size_t p = 0; p < in; ++p) {
      const float v = xr[p];
      const float* __restrict w = wt + p * out;
      for (std::size_t j = 0; j < out; ++j) o[j] += v * w[j];
    }
    finish(i);
  }
}

/// LayerNorm::forward on one row, operation for operation.
void layer_norm_row(const float* x, const std::vector<float>& g, const std::vector<float>& b,
                    float eps, std::size_t dim, float* y) {
  float mean = 0.0f;
  for (std::size_t c = 0; c < dim; ++c) mean += x[c];
  mean /= static_cast<float>(dim);
  float var = 0.0f;
  for (std::size_t c = 0; c < dim; ++c) {
    const float dv = x[c] - mean;
    var += dv * dv;
  }
  var /= static_cast<float>(dim);
  const float inv_std = 1.0f / std::sqrt(var + eps);
  for (std::size_t c = 0; c < dim; ++c) {
    const float n = (x[c] - mean) * inv_std;
    y[c] = n * g[c] + b[c];
  }
}

}  // namespace

// ------------------------------------------------------------------ build

InferencePlan::Dense InferencePlan::freeze(const Linear& linear) {
  Dense d;
  d.in = linear.in_features();
  d.out = linear.out_features();
  const Tensor& w = linear.weight().value;  // [out, in]
  d.wt.resize(d.in * d.out);
  for (std::size_t o = 0; o < d.out; ++o) {
    for (std::size_t i = 0; i < d.in; ++i) d.wt[i * d.out + o] = w.at(o, i);
  }
  const auto bias = linear.bias().value.flat();
  d.b.assign(bias.begin(), bias.end());
  return d;
}

InferencePlan::Norm InferencePlan::freeze(const LayerNorm& norm) {
  Norm n;
  const auto g = norm.gamma_.value.flat();
  const auto b = norm.beta_.value.flat();
  n.g.assign(g.begin(), g.end());
  n.b.assign(b.begin(), b.end());
  n.eps = norm.eps_;
  return n;
}

InferencePlan::Encoder InferencePlan::freeze(const TransformerFoundation& foundation) {
  Encoder enc;
  enc.embed = freeze(foundation.embed_);
  const auto pos = foundation.positional_.flat();
  enc.pos.assign(pos.begin(), pos.end());
  for (const auto& layer : foundation.layers_) {
    Layer l;
    l.ln1 = freeze(layer->ln1_);
    l.ln2 = freeze(layer->ln2_);
    l.wq = freeze(layer->attn_.wq_);
    l.wk = freeze(layer->attn_.wk_);
    l.wv = freeze(layer->attn_.wv_);
    l.wo = freeze(layer->attn_.wo_);
    l.ffn1 = freeze(layer->ffn1_);
    l.ffn2 = freeze(layer->ffn2_);
    enc.layers.push_back(std::move(l));
  }
  enc.final_ln = freeze(foundation.final_ln_);
  return enc;
}

InferencePlan::InferencePlan(const DualHeadModel& model, Head head)
    : k_(model.config().history_len),
      m_(model.config().state_dim),
      d_(model.config().d_model),
      heads_(model.config().num_heads),
      ffn_(model.config().ffn_hidden),
      head_(freeze(head == Head::kQ ? model.v_head_ : model.p_head_)),
      softmax_head_(head == Head::kPolicy) {
  const Foundation& f = *model.foundation_;
  if (model.type() == FoundationType::kMoE) {
    const auto& moe = dynamic_cast<const MoEFoundation&>(f);
    moe_ = true;
    top1_ = moe.config_.moe_top1;
    gate_ = freeze(moe.gate_);
    for (const auto& e : moe.experts_) experts_.push_back(freeze(*e));
  } else {
    experts_.push_back(freeze(dynamic_cast<const TransformerFoundation&>(f)));
  }
}

// ---------------------------------------------------------------- forward

float* InferencePlan::input(Workspace& ws, std::size_t rows) const {
  ws.rows_ = rows;
  grow(ws.input_, rows * input_dim());
  return ws.input_.data();
}

void InferencePlan::attention(const Layer& layer, Workspace::Slot& s) const {
  // Q, K and V from LN1's output; K is computed into ctx and stored
  // transposed, so kt[c][t] runs over t for every feature c of a head.
  dense_rows<Epilogue::kBias>(s.a.data(), k_, d_, d_, layer.wq.wt.data(), layer.wq.b.data(),
                              s.q.data());
  dense_rows<Epilogue::kBias>(s.a.data(), k_, d_, d_, layer.wk.wt.data(), layer.wk.b.data(),
                              s.ctx.data());
  dense_rows<Epilogue::kBias>(s.a.data(), k_, d_, d_, layer.wv.wt.data(), layer.wv.b.data(),
                              s.v.data());
  for (std::size_t t = 0; t < k_; ++t) {
    for (std::size_t c = 0; c < d_; ++c) s.kt[c * k_ + t] = s.ctx[t * d_ + c];
  }

  // Per head and query: scores in MultiHeadSelfAttention's order (each
  // score sums over the head's features in ascending order, then scales),
  // the shared softmax, then A·V skipping exact-zero weights as it does.
  const std::size_t dh = d_ / heads_;
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));
  float* __restrict sc = s.scores.data();
  for (std::size_t h = 0; h < heads_; ++h) {
    const std::size_t off = h * dh;
    for (std::size_t q = 0; q < k_; ++q) {
      const float* qr = s.q.data() + q * d_ + off;
      for (std::size_t t = 0; t < k_; ++t) sc[t] = 0.0f;
      for (std::size_t c = 0; c < dh; ++c) {
        const float qv = qr[c];
        const float* __restrict kr = s.kt.data() + (off + c) * k_;
        for (std::size_t t = 0; t < k_; ++t) sc[t] += qv * kr[t];
      }
      for (std::size_t t = 0; t < k_; ++t) sc[t] = sc[t] * inv_sqrt;
      softmax_row(sc, k_);
      float* __restrict out = s.ctx.data() + q * d_ + off;
      for (std::size_t c = 0; c < dh; ++c) out[c] = 0.0f;
      for (std::size_t t = 0; t < k_; ++t) {
        const float w = sc[t];
        if (w == 0.0f) continue;
        const float* __restrict vr = s.v.data() + t * d_ + off;
        for (std::size_t c = 0; c < dh; ++c) out[c] += w * vr[c];
      }
    }
  }
}

void InferencePlan::encode(const Encoder& enc, const float* x, Workspace::Slot& s,
                           float* pooled) const {
  const auto norm_rows = [&](const Norm& n) {
    for (std::size_t t = 0; t < k_; ++t) {
      layer_norm_row(s.h.data() + t * d_, n.g, n.b, n.eps, d_, s.a.data() + t * d_);
    }
  };
  // h = (frames·We + be) + pos: the input row is already [k, state_dim].
  dense_rows<Epilogue::kBiasAdd>(x, k_, m_, d_, enc.embed.wt.data(), enc.embed.b.data(),
                                 s.h.data(), enc.pos.data(), s.h.data());
  for (const Layer& layer : enc.layers) {
    norm_rows(layer.ln1);
    attention(layer, s);
    // h += ctx·Wo + bo (a is free once Q/K/V are made).
    dense_rows<Epilogue::kBiasAdd>(s.ctx.data(), k_, d_, d_, layer.wo.wt.data(),
                                   layer.wo.b.data(), s.a.data(), s.h.data(), s.h.data());
    norm_rows(layer.ln2);
    dense_rows<Epilogue::kBiasGelu>(s.a.data(), k_, d_, ffn_, layer.ffn1.wt.data(),
                                    layer.ffn1.b.data(), s.f.data());
    // h += f·W2 + b2 (a is free once FFN1 has read it).
    dense_rows<Epilogue::kBiasAdd>(s.f.data(), k_, ffn_, d_, layer.ffn2.wt.data(),
                                   layer.ffn2.b.data(), s.a.data(), s.h.data(), s.h.data());
  }
  // Final LN, then the mean over frames in ascending frame order.
  const float inv_k = 1.0f / static_cast<float>(k_);
  for (std::size_t c = 0; c < d_; ++c) pooled[c] = 0.0f;
  for (std::size_t t = 0; t < k_; ++t) {
    layer_norm_row(s.h.data() + t * d_, enc.final_ln.g, enc.final_ln.b, enc.final_ln.eps, d_,
                   s.a.data());
    for (std::size_t c = 0; c < d_; ++c) pooled[c] += s.a[c] * inv_k;
  }
}

void InferencePlan::run_rows(Workspace& ws, std::size_t r0, std::size_t r1,
                             Workspace::Slot& s) const {
  const std::size_t dim = input_dim();
  const float* x = ws.input_.data();
  float* pooled = ws.pooled_.data();
  if (!moe_) {
    for (std::size_t r = r0; r < r1; ++r) encode(experts_[0], x + r * dim, s, pooled + r * d_);
  } else {
    // Gate on the mean frame, as MoEFoundation::forward does: softmax
    // weights, or one-hot on the first maximum for Top-1.
    const std::size_t ne = experts_.size();
    const float inv_k = 1.0f / static_cast<float>(k_);
    for (std::size_t r = r0; r < r1; ++r) {
      const float* xr = x + r * dim;
      for (std::size_t c = 0; c < m_; ++c) s.mean[c] = 0.0f;
      for (std::size_t t = 0; t < k_; ++t) {
        for (std::size_t c = 0; c < m_; ++c) s.mean[c] += xr[t * m_ + c] * inv_k;
      }
      float* g = ws.gate_.data() + r * ne;
      dense_rows<Epilogue::kBias>(s.mean.data(), 1, m_, ne, gate_.wt.data(), gate_.b.data(), g);
      softmax_row(g, ne);
      if (top1_) {
        std::size_t best = 0;
        for (std::size_t e = 1; e < ne; ++e) {
          if (g[e] > g[best]) best = e;
        }
        for (std::size_t e = 0; e < ne; ++e) g[e] = (e == best) ? 1.0f : 0.0f;
      }
      for (std::size_t c = 0; c < d_; ++c) pooled[r * d_ + c] = 0.0f;
    }
    // Experts in ascending order, each over the rows that weight it, so
    // every row sums its experts in the training forward's order.
    for (std::size_t e = 0; e < ne; ++e) {
      for (std::size_t r = r0; r < r1; ++r) {
        const float w = ws.gate_[r * ne + e];
        if (w == 0.0f) continue;
        encode(experts_[e], x + r * dim, s, s.pooled.data());
        float* out = pooled + r * d_;
        for (std::size_t c = 0; c < d_; ++c) out[c] += w * s.pooled[c];
      }
    }
  }
  const std::size_t no = head_.out;
  float* y = ws.output_.data() + r0 * no;
  dense_rows<Epilogue::kBias>(pooled + r0 * d_, r1 - r0, d_, no, head_.wt.data(),
                              head_.b.data(), y);
  if (softmax_head_) {
    for (std::size_t r = r0; r < r1; ++r) softmax_row(ws.output_.data() + r * no, no);
  }
}

const float* InferencePlan::run(Workspace& ws) const {
  OBS_SPAN_SAMPLED("nn_infer", 2);
  const std::size_t rows = ws.rows_;
  grow(ws.gate_, rows * experts_.size());
  grow(ws.pooled_, rows * d_);
  grow(ws.output_, rows * head_.out);
  if (rows == 0) return ws.output_.data();
  const std::size_t threads = std::min(num_threads(), rows);
  grow(ws.slots_, threads);
  for (std::size_t w = 0; w < threads; ++w) {
    Workspace::Slot& s = ws.slots_[w];
    for (auto* buf : {&s.h, &s.a, &s.q, &s.kt, &s.v, &s.ctx}) grow(*buf, k_ * d_);
    grow(s.f, k_ * ffn_);
    grow(s.scores, k_);
    grow(s.mean, m_);
    grow(s.pooled, d_);
  }
  if (threads <= 1) {
    run_rows(ws, 0, rows, ws.slots_[0]);
  } else {
    // Static contiguous row ranges; each worker owns its rows' outputs
    // and its own scratch slot.
    detail::gemm_pool().run_static(threads, [&](std::size_t w) {
      run_rows(ws, w * rows / threads, (w + 1) * rows / threads, ws.slots_[w]);
    });
  }
  return ws.output_.data();
}

}  // namespace mirage::nn
