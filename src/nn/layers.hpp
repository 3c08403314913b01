// Core layers: Linear, activations, LayerNorm, Dropout, Sequential.
#pragma once

#include <cmath>
#include <memory>

#include "nn/module.hpp"

namespace mirage::nn {

/// y = x W^T + b, x: [batch, in], W: [out, in], b: [1, out].
class Linear : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng,
         const std::string& name = "linear");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Parameter*>& out) override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }
  const Parameter& weight() const { return w_; }
  const Parameter& bias() const { return b_; }

 private:
  std::size_t in_, out_;
  Parameter w_, b_;
  Tensor cached_input_;
};

class ReLU : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  Tensor cached_input_;
};

/// GELU with the tanh approximation (as in BERT/GPT), split around the
/// tanh so a caller can batch the libm calls:
///   gelu(x) == gelu_from_tanh(x, std::tanh(gelu_tanh_arg(x))), bit for bit.
/// GELU::forward and InferencePlan both build on these, so they round alike.
inline float gelu_tanh_arg(float x) {
  constexpr float kC = 0.7978845608f;  // sqrt(2/pi)
  return kC * (x + 0.044715f * x * x * x);
}
inline float gelu_from_tanh(float x, float t) { return 0.5f * x * (1.0f + t); }
inline float gelu(float x) { return gelu_from_tanh(x, std::tanh(gelu_tanh_arg(x))); }

/// GELU module over gelu() above.
class GELU : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  Tensor cached_input_;
};

class Tanh : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  Tensor cached_output_;
};

/// Per-row layer normalization with learned gain/bias.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(std::size_t dim, const std::string& name = "ln", float eps = 1e-5f);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Parameter*>& out) override;

 private:
  friend class InferencePlan;
  std::size_t dim_;
  float eps_;
  Parameter gamma_, beta_;
  Tensor cached_norm_;     ///< normalized input (pre gain/bias)
  Tensor cached_inv_std_;  ///< 1/sigma per row
};

/// Inverted dropout; identity in eval mode. Deterministic given its RNG.
class Dropout : public Module {
 public:
  Dropout(float p, util::Rng rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  float p_;
  util::Rng rng_;
  Tensor mask_;
  bool active_ = false;
};

/// Runs children in order; owns them.
class Sequential : public Module {
 public:
  Sequential() = default;

  void add(std::unique_ptr<Module> m) { children_.push_back(std::move(m)); }
  std::size_t size() const { return children_.size(); }

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Parameter*>& out) override;

 private:
  std::vector<std::unique_ptr<Module>> children_;
};

}  // namespace mirage::nn
