#include "nn/layers.hpp"

#include <cmath>

namespace mirage::nn {

// ---------------------------------------------------------------- Linear

Linear::Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng,
               const std::string& name)
    : in_(in_features),
      out_(out_features),
      w_(name + ".w", out_features, in_features),
      b_(name + ".b", 1, out_features) {
  init_xavier_uniform(w_.value, in_, out_, rng);
}

Tensor Linear::forward(const Tensor& x, bool /*train*/) {
  cached_input_ = x;
  Tensor y;
  matmul_nt(x, w_.value, y);  // [B,in] * [out,in]^T
  add_bias_rows(y, b_.value);
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  // dW += grad^T * x ; db += column sums of grad ; dx = grad * W.
  matmul_tn(grad_out, cached_input_, w_.grad, /*accumulate=*/true);
  for (std::size_t r = 0; r < grad_out.rows(); ++r) {
    const float* g = grad_out.row(r);
    float* db = b_.grad.data();
    for (std::size_t c = 0; c < out_; ++c) db[c] += g[c];
  }
  Tensor dx;
  matmul(grad_out, w_.value, dx);  // [B,out] * [out,in]
  return dx;
}

void Linear::collect_params(std::vector<Parameter*>& out) {
  out.push_back(&w_);
  out.push_back(&b_);
}

// ------------------------------------------------------------------ ReLU

Tensor ReLU::forward(const Tensor& x, bool /*train*/) {
  cached_input_ = x;
  Tensor y = x;
  for (float& v : y.flat()) v = v > 0.0f ? v : 0.0f;
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  Tensor dx = grad_out;
  const auto in = cached_input_.flat();
  auto d = dx.flat();
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (in[i] <= 0.0f) d[i] = 0.0f;
  }
  return dx;
}

// ------------------------------------------------------------------ GELU

namespace {
constexpr float kGeluC = 0.7978845608f;  // sqrt(2/pi)

inline float gelu_grad(float x) {
  const float x3 = x * x * x;
  const float inner = kGeluC * (x + 0.044715f * x3);
  const float t = std::tanh(inner);
  const float sech2 = 1.0f - t * t;
  return 0.5f * (1.0f + t) + 0.5f * x * sech2 * kGeluC * (1.0f + 3.0f * 0.044715f * x * x);
}
}  // namespace

Tensor GELU::forward(const Tensor& x, bool /*train*/) {
  cached_input_ = x;
  Tensor y = x;
  for (float& v : y.flat()) v = gelu(v);
  return y;
}

Tensor GELU::backward(const Tensor& grad_out) {
  Tensor dx = grad_out;
  const auto in = cached_input_.flat();
  auto d = dx.flat();
  for (std::size_t i = 0; i < d.size(); ++i) d[i] *= gelu_grad(in[i]);
  return dx;
}

// ------------------------------------------------------------------ Tanh

Tensor Tanh::forward(const Tensor& x, bool /*train*/) {
  Tensor y = x;
  for (float& v : y.flat()) v = std::tanh(v);
  cached_output_ = y;
  return y;
}

Tensor Tanh::backward(const Tensor& grad_out) {
  Tensor dx = grad_out;
  const auto y = cached_output_.flat();
  auto d = dx.flat();
  for (std::size_t i = 0; i < d.size(); ++i) d[i] *= (1.0f - y[i] * y[i]);
  return dx;
}

// -------------------------------------------------------------- LayerNorm

LayerNorm::LayerNorm(std::size_t dim, const std::string& name, float eps)
    : dim_(dim), eps_(eps), gamma_(name + ".g", 1, dim), beta_(name + ".b", 1, dim) {
  gamma_.value.fill(1.0f);
}

Tensor LayerNorm::forward(const Tensor& x, bool /*train*/) {
  Tensor y(x.rows(), x.cols());
  cached_norm_ = Tensor(x.rows(), x.cols());
  cached_inv_std_ = Tensor(x.rows(), 1);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const float* xr = x.row(r);
    float mean = 0.0f;
    for (std::size_t c = 0; c < dim_; ++c) mean += xr[c];
    mean /= static_cast<float>(dim_);
    float var = 0.0f;
    for (std::size_t c = 0; c < dim_; ++c) {
      const float d = xr[c] - mean;
      var += d * d;
    }
    var /= static_cast<float>(dim_);
    const float inv_std = 1.0f / std::sqrt(var + eps_);
    cached_inv_std_.at(r, 0) = inv_std;
    float* nr = cached_norm_.row(r);
    float* yr = y.row(r);
    const float* g = gamma_.value.data();
    const float* b = beta_.value.data();
    for (std::size_t c = 0; c < dim_; ++c) {
      nr[c] = (xr[c] - mean) * inv_std;
      yr[c] = nr[c] * g[c] + b[c];
    }
  }
  return y;
}

Tensor LayerNorm::backward(const Tensor& grad_out) {
  Tensor dx(grad_out.rows(), grad_out.cols());
  const float* g = gamma_.value.data();
  const float n = static_cast<float>(dim_);
  for (std::size_t r = 0; r < grad_out.rows(); ++r) {
    const float* go = grad_out.row(r);
    const float* nr = cached_norm_.row(r);
    const float inv_std = cached_inv_std_.at(r, 0);
    // Accumulate parameter grads.
    float* dg = gamma_.grad.data();
    float* db = beta_.grad.data();
    float sum_gh = 0.0f;   // sum of gamma*grad
    float sum_ghn = 0.0f;  // sum of gamma*grad*norm
    for (std::size_t c = 0; c < dim_; ++c) {
      dg[c] += go[c] * nr[c];
      db[c] += go[c];
      const float gh = go[c] * g[c];
      sum_gh += gh;
      sum_ghn += gh * nr[c];
    }
    float* dxr = dx.row(r);
    for (std::size_t c = 0; c < dim_; ++c) {
      const float gh = go[c] * g[c];
      dxr[c] = inv_std * (gh - sum_gh / n - nr[c] * sum_ghn / n);
    }
  }
  return dx;
}

void LayerNorm::collect_params(std::vector<Parameter*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

// ---------------------------------------------------------------- Dropout

Dropout::Dropout(float p, util::Rng rng) : p_(p), rng_(rng) {}

Tensor Dropout::forward(const Tensor& x, bool train) {
  active_ = train && p_ > 0.0f;
  if (!active_) return x;
  mask_ = Tensor(x.rows(), x.cols());
  Tensor y = x;
  const float keep = 1.0f - p_;
  const float scale = 1.0f / keep;
  auto m = mask_.flat();
  auto yv = y.flat();
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = rng_.bernoulli(keep) ? scale : 0.0f;
    yv[i] *= m[i];
  }
  return y;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (!active_) return grad_out;
  Tensor dx = grad_out;
  dx.mul(mask_);
  return dx;
}

// ------------------------------------------------------------- Sequential

Tensor Sequential::forward(const Tensor& x, bool train) {
  Tensor cur = x;
  for (auto& m : children_) cur = m->forward(cur, train);
  return cur;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor cur = grad_out;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
    cur = (*it)->backward(cur);
  }
  return cur;
}

void Sequential::collect_params(std::vector<Parameter*>& out) {
  for (auto& m : children_) m->collect_params(out);
}

}  // namespace mirage::nn
