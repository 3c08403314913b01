// Tests for the NN substrate: tensor ops, layers (with numerical gradient
// checks), attention, foundations, dual-head model, optimizers, losses and
// serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nn/attention.hpp"
#include "nn/parallel.hpp"
#include "nn/dual_head.hpp"
#include "nn/foundation.hpp"
#include "nn/infer.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"

namespace mirage::nn {
namespace {

using util::Rng;

// ---------------------------------------------------------------- Tensor

TEST(TensorTest, ConstructionAndAccess) {
  Tensor t(2, 3, 1.5f);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_FLOAT_EQ(t.at(1, 2), 1.5f);
  t.at(0, 1) = -2.0f;
  EXPECT_FLOAT_EQ(t.row(0)[1], -2.0f);
}

TEST(TensorTest, ElementwiseOps) {
  Tensor a(1, 3);
  Tensor b(1, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    a.at(0, i) = static_cast<float>(i + 1);
    b.at(0, i) = 2.0f;
  }
  a.add(b);
  EXPECT_FLOAT_EQ(a.at(0, 0), 3.0f);
  a.add_scaled(b, 0.5f);
  EXPECT_FLOAT_EQ(a.at(0, 0), 4.0f);
  a.mul(b);
  EXPECT_FLOAT_EQ(a.at(0, 0), 8.0f);
  a.scale(0.25f);
  EXPECT_FLOAT_EQ(a.at(0, 0), 2.0f);
}

TEST(TensorTest, SquaredNorm) {
  Tensor t(1, 2);
  t.at(0, 0) = 3.0f;
  t.at(0, 1) = 4.0f;
  EXPECT_FLOAT_EQ(t.squared_norm(), 25.0f);
}

TEST(TensorTest, MatmulKnownValues) {
  Tensor a(2, 3), b(3, 2);
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]
  float av[] = {1, 2, 3, 4, 5, 6}, bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  Tensor c;
  matmul(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(TensorTest, MatmulVariantsAgree) {
  Rng rng(1);
  Tensor a(4, 5), b(5, 3);
  for (float& v : a.flat()) v = static_cast<float>(rng.normal());
  for (float& v : b.flat()) v = static_cast<float>(rng.normal());
  Tensor ref;
  matmul(a, b, ref);

  // matmul_nt: a * (b^T)^T — build bt = b^T and check.
  Tensor bt(3, 5);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 3; ++j) bt.at(j, i) = b.at(i, j);
  Tensor out_nt;
  matmul_nt(a, bt, out_nt);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(out_nt.flat()[i], ref.flat()[i], 1e-5f);
  }

  // matmul_tn: (a^T)^T * b — build at = a^T and check.
  Tensor at(5, 4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 5; ++j) at.at(j, i) = a.at(i, j);
  Tensor out_tn;
  matmul_tn(at, b, out_tn);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(out_tn.flat()[i], ref.flat()[i], 1e-5f);
  }
}

TEST(TensorTest, MatmulAccumulate) {
  Tensor a(1, 1, 2.0f), b(1, 1, 3.0f), out(1, 1, 10.0f);
  matmul(a, b, out, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(out.at(0, 0), 16.0f);
}

TEST(TensorTest, SoftmaxRowsSumToOneAndStable) {
  Tensor t(2, 3);
  t.at(0, 0) = 1000.0f;  // overflow bait
  t.at(0, 1) = 1000.0f;
  t.at(0, 2) = 999.0f;
  t.at(1, 0) = -5.0f;
  softmax_rows(t);
  for (std::size_t r = 0; r < 2; ++r) {
    float sum = 0;
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_TRUE(std::isfinite(t.at(r, c)));
      sum += t.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  EXPECT_GT(t.at(0, 0), t.at(0, 2));
}

TEST(TensorTest, AddBiasRows) {
  Tensor x(2, 2, 1.0f), b(1, 2);
  b.at(0, 0) = 10.0f;
  b.at(0, 1) = 20.0f;
  add_bias_rows(x, b);
  EXPECT_FLOAT_EQ(x.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(x.at(1, 1), 21.0f);
}

// ---------------------------------------------------------- ParallelGemm
//
// The parallel GEMM's contract is bitwise: for every thread count the
// output must be byte-identical to the single-threaded run (fixed output
// tile grid, ascending-k accumulation — see nn/parallel.hpp). These
// suites compare raw bytes with memcmp, not EXPECT_NEAR.

/// ~10% exact zeros so the kernels' a==0 skip paths are exercised.
Tensor random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Tensor t(rows, cols);
  for (float& v : t.flat()) {
    v = rng.uniform() < 0.1 ? 0.0f : static_cast<float>(rng.normal());
  }
  return t;
}

void expect_bitwise_equal(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0) << what;
}

/// Naive jik reference — a different loop order entirely, so agreement is
/// approximate (EXPECT_NEAR), unlike the bitwise T-invariance checks.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  Tensor out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < a.cols(); ++p) acc += double(a.at(i, p)) * double(b.at(p, j));
      out.at(i, j) = static_cast<float>(acc);
    }
  }
  return out;
}

TEST(ParallelGemm, BitwiseIdenticalAcrossThreadCounts) {
  // Ragged shapes chosen above the serial cutoff (m*k*n >= 64^3) so the
  // parallel path actually engages; they split tiles unevenly in both
  // dimensions (m=5 exercises a single ragged row-tile, n=401 a ragged
  // column split).
  const struct { std::size_t m, k, n; } shapes[] = {
      {67, 129, 65}, {128, 128, 128}, {30, 200, 77}, {5, 300, 401}};
  Rng rng(7);
  for (const auto& s : shapes) {
    const Tensor a = random_matrix(s.m, s.k, rng);
    const Tensor b = random_matrix(s.k, s.n, rng);
    const Tensor at = random_matrix(s.k, s.m, rng);  // matmul_tn input
    const Tensor bt = random_matrix(s.n, s.k, rng);  // matmul_nt input

    Tensor ref_nn, ref_tn, ref_nt;
    {
      ScopedNumThreads serial(1);
      matmul(a, b, ref_nn);
      matmul_tn(at, b, ref_tn);
      matmul_nt(a, bt, ref_nt);
    }
    for (const std::size_t threads : {2, 3, 4, 8}) {
      ScopedNumThreads scope(threads);
      Tensor out;
      matmul(a, b, out);
      expect_bitwise_equal(out, ref_nn, "matmul");
      matmul_tn(at, b, out);
      expect_bitwise_equal(out, ref_tn, "matmul_tn");
      matmul_nt(a, bt, out);
      expect_bitwise_equal(out, ref_nt, "matmul_nt");
    }
    // And the parallel result is the RIGHT answer, not just a stable one.
    const Tensor naive = naive_matmul(a, b);
    for (std::size_t i = 0; i < naive.size(); ++i) {
      EXPECT_NEAR(ref_nn.flat()[i], naive.flat()[i], 2e-3f);
    }
  }
}

TEST(ParallelGemm, AccumulateIsBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(11);
  const Tensor a = random_matrix(70, 130, rng);
  const Tensor b = random_matrix(130, 90, rng);
  const Tensor base = random_matrix(70, 90, rng);

  Tensor ref = base;
  {
    ScopedNumThreads serial(1);
    matmul(a, b, ref, /*accumulate=*/true);
  }
  for (const std::size_t threads : {2, 4, 8}) {
    ScopedNumThreads scope(threads);
    Tensor out = base;
    matmul(a, b, out, /*accumulate=*/true);
    expect_bitwise_equal(out, ref, "matmul accumulate");
  }
}

TEST(ParallelGemm, ThreadCountKnobResolution) {
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3u);
  {
    ScopedNumThreads outer(2);
    EXPECT_EQ(num_threads(), 2u);
    {
      ScopedNumThreads inner(5);
      EXPECT_EQ(num_threads(), 5u);
    }
    EXPECT_EQ(num_threads(), 2u);  // nesting restores the outer override
  }
  EXPECT_EQ(num_threads(), 3u);
  {
    ScopedNumThreads inherit(0);  // 0 = defer to the process default
    EXPECT_EQ(num_threads(), 3u);
  }
  set_num_threads(0);  // restore: 0 = hardware_concurrency
  EXPECT_GE(num_threads(), 1u);
}

// -------------------------------------------------------- Gradient checks

/// Numerical-vs-analytic gradient check of a module under an MSE loss.
/// Returns the max relative error over sampled parameters and inputs.
double gradient_check(Module& m, std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(rows, cols);
  for (float& v : x.flat()) v = static_cast<float>(rng.normal());
  Tensor y0 = m.forward(x, true);
  Tensor target(y0.rows(), y0.cols());
  for (float& v : target.flat()) v = static_cast<float>(rng.normal());

  std::vector<Parameter*> params;
  m.collect_params(params);
  zero_grads(params);
  auto [l0, g0] = mse_loss(m.forward(x, true), target);
  (void)l0;
  Tensor dx = m.backward(g0);

  auto eval = [&] { return static_cast<double>(mse_loss(m.forward(x, true), target).first); };
  const float eps = 1e-2f;
  double max_rel = 0.0;
  Rng pick(seed ^ 0x1234);
  for (auto* p : params) {
    for (int rep = 0; rep < 4; ++rep) {
      const auto idx = static_cast<std::size_t>(
          pick.uniform_int(0, static_cast<std::int64_t>(p->value.size()) - 1));
      const float orig = p->value.flat()[idx];
      p->value.flat()[idx] = orig + eps;
      const double lp = eval();
      p->value.flat()[idx] = orig - eps;
      const double lm = eval();
      p->value.flat()[idx] = orig;
      const double num = (lp - lm) / (2.0 * eps);
      const double ana = p->grad.flat()[idx];
      if (std::abs(num) > 1e-4 || std::abs(ana) > 1e-4) {
        max_rel = std::max(max_rel, std::abs(num - ana) / std::max(1e-3, std::abs(num) + std::abs(ana)));
      }
    }
  }
  for (int rep = 0; rep < 8; ++rep) {
    const auto idx =
        static_cast<std::size_t>(pick.uniform_int(0, static_cast<std::int64_t>(x.size()) - 1));
    const float orig = x.flat()[idx];
    x.flat()[idx] = orig + eps;
    const double lp = eval();
    x.flat()[idx] = orig - eps;
    const double lm = eval();
    x.flat()[idx] = orig;
    const double num = (lp - lm) / (2.0 * eps);
    const double ana = dx.flat()[idx];
    if (std::abs(num) > 1e-4 || std::abs(ana) > 1e-4) {
      max_rel = std::max(max_rel, std::abs(num - ana) / std::max(1e-3, std::abs(num) + std::abs(ana)));
    }
  }
  return max_rel;
}

constexpr double kGradTol = 0.03;  // float32 composite-model tolerance

TEST(GradCheck, Linear) {
  Rng rng(1);
  Linear l(7, 5, rng);
  EXPECT_LT(gradient_check(l, 4, 7, 11), kGradTol);
}

TEST(GradCheck, ReLU) {
  ReLU r;
  EXPECT_LT(gradient_check(r, 4, 7, 12), kGradTol);
}

TEST(GradCheck, GELU) {
  GELU g;
  EXPECT_LT(gradient_check(g, 4, 7, 13), kGradTol);
}

TEST(GradCheck, Tanh) {
  Tanh t;
  EXPECT_LT(gradient_check(t, 4, 7, 14), kGradTol);
}

TEST(GradCheck, LayerNorm) {
  LayerNorm ln(7);
  EXPECT_LT(gradient_check(ln, 4, 7, 15), kGradTol);
}

TEST(GradCheck, MultiHeadSelfAttention) {
  Rng rng(2);
  MultiHeadSelfAttention attn(5, 8, 2, rng);
  EXPECT_LT(gradient_check(attn, 10, 8, 16), kGradTol);  // batch of 2 sequences
}

TEST(GradCheck, TransformerEncoderLayer) {
  Rng rng(3);
  TransformerEncoderLayer enc(5, 8, 2, 16, 0.0f, rng, "enc");
  EXPECT_LT(gradient_check(enc, 10, 8, 17), kGradTol);
}

class FoundationGradTest : public ::testing::TestWithParam<FoundationType> {};

TEST_P(FoundationGradTest, EndToEndGradients) {
  FoundationConfig cfg;
  cfg.history_len = 5;
  cfg.state_dim = 9;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_hidden = 16;
  cfg.moe_experts = 3;
  auto f = make_foundation(GetParam(), cfg, 21);
  EXPECT_LT(gradient_check(*f, 2, cfg.input_dim(), 18), kGradTol);
}

INSTANTIATE_TEST_SUITE_P(Types, FoundationGradTest,
                         ::testing::Values(FoundationType::kTransformer, FoundationType::kMoE));

// ----------------------------------------------------------------- Layers

TEST(Layers, LinearShapes) {
  Rng rng(1);
  Linear l(3, 4, rng);
  Tensor x(5, 3, 1.0f);
  const Tensor y = l.forward(x, false);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 4u);
}

TEST(Layers, ReLUZeroesNegatives) {
  ReLU r;
  Tensor x(1, 3);
  x.at(0, 0) = -1.0f;
  x.at(0, 1) = 0.0f;
  x.at(0, 2) = 2.0f;
  const Tensor y = r.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.at(0, 2), 2.0f);
}

TEST(Layers, GeluKnownValues) {
  GELU g;
  Tensor x(1, 2);
  x.at(0, 0) = 0.0f;
  x.at(0, 1) = 100.0f;
  const Tensor y = g.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
  EXPECT_NEAR(y.at(0, 1), 100.0f, 1e-3f);  // ~identity for large x
}

TEST(Layers, LayerNormNormalizesRows) {
  LayerNorm ln(4);
  Tensor x(1, 4);
  for (std::size_t i = 0; i < 4; ++i) x.at(0, i) = static_cast<float>(i * 10);
  const Tensor y = ln.forward(x, false);
  float mean = 0, var = 0;
  for (std::size_t i = 0; i < 4; ++i) mean += y.at(0, i);
  mean /= 4;
  for (std::size_t i = 0; i < 4; ++i) var += (y.at(0, i) - mean) * (y.at(0, i) - mean);
  EXPECT_NEAR(mean, 0.0f, 1e-5f);
  EXPECT_NEAR(var / 4, 1.0f, 1e-3f);
}

TEST(Layers, DropoutEvalIsIdentityTrainScales) {
  Dropout d(0.5f, Rng(7));
  Tensor x(10, 10, 1.0f);
  const Tensor eval_out = d.forward(x, false);
  for (float v : eval_out.flat()) EXPECT_FLOAT_EQ(v, 1.0f);
  const Tensor train_out = d.forward(x, true);
  int zeros = 0;
  for (float v : train_out.flat()) {
    EXPECT_TRUE(v == 0.0f || std::abs(v - 2.0f) < 1e-6f);  // inverted scaling
    zeros += (v == 0.0f);
  }
  EXPECT_GT(zeros, 20);
  EXPECT_LT(zeros, 80);
}

TEST(Layers, SequentialComposes) {
  Rng rng(5);
  Sequential seq;
  seq.add(std::make_unique<Linear>(3, 8, rng));
  seq.add(std::make_unique<ReLU>());
  seq.add(std::make_unique<Linear>(8, 2, rng));
  Tensor x(4, 3, 0.5f);
  const Tensor y = seq.forward(x, false);
  EXPECT_EQ(y.cols(), 2u);
  std::vector<Parameter*> params;
  seq.collect_params(params);
  EXPECT_EQ(params.size(), 4u);  // 2 linears x (w, b)
}

// -------------------------------------------------------------- Attention

TEST(Attention, OutputShapeAndBatchIndependence) {
  Rng rng(9);
  MultiHeadSelfAttention attn(4, 8, 2, rng);
  Tensor x(8, 8);  // batch of 2 sequences
  for (float& v : x.flat()) v = static_cast<float>(rng.normal());
  const Tensor y = attn.forward(x, false);
  EXPECT_EQ(y.rows(), 8u);
  EXPECT_EQ(y.cols(), 8u);

  // Items must not leak across the batch: recompute item 0 alone.
  Tensor x0(4, 8);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 8; ++c) x0.at(r, c) = x.at(r, c);
  Rng rng2(9);
  MultiHeadSelfAttention attn2(4, 8, 2, rng2);
  const Tensor y0 = attn2.forward(x0, false);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      EXPECT_NEAR(y0.at(r, c), y.at(r, c), 1e-5f);
    }
  }
}

// ------------------------------------------------------------- Foundation

TEST(Foundation, PooledOutputShape) {
  FoundationConfig cfg;
  cfg.history_len = 6;
  cfg.state_dim = 11;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  cfg.ffn_hidden = 16;
  TransformerFoundation f(cfg, 1);
  Tensor x(3, cfg.input_dim(), 0.1f);
  const Tensor y = f.forward(x, false);
  EXPECT_EQ(y.rows(), 3u);
  EXPECT_EQ(y.cols(), cfg.d_model);
}

TEST(Foundation, CloneProducesIdenticalOutputs) {
  FoundationConfig cfg;
  cfg.history_len = 4;
  cfg.state_dim = 9;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_hidden = 16;
  TransformerFoundation f(cfg, 33);
  auto clone = f.clone();
  Rng rng(4);
  Tensor x(2, cfg.input_dim());
  for (float& v : x.flat()) v = static_cast<float>(rng.normal());
  const Tensor a = f.forward(x, false);
  const Tensor b = clone->forward(x, false);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a.flat()[i], b.flat()[i]);
}

TEST(Foundation, MoEDenseIsConvexCombinationOfExperts) {
  // With a single expert, the MoE must equal that expert's output exactly
  // (gate softmax over one logit is always 1).
  FoundationConfig cfg;
  cfg.history_len = 4;
  cfg.state_dim = 9;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_hidden = 16;
  cfg.moe_experts = 1;
  MoEFoundation moe(cfg, 77);
  TransformerFoundation expert(cfg, 77 + 0x1000, "moe.expert0");
  Rng rng(5);
  Tensor x(2, cfg.input_dim());
  for (float& v : x.flat()) v = static_cast<float>(rng.normal());
  const Tensor a = moe.forward(x, false);
  const Tensor b = expert.forward(x, false);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a.flat()[i], b.flat()[i], 1e-5f);
}

TEST(Foundation, MoETop1MatchesDenseWithOneExpert) {
  FoundationConfig cfg;
  cfg.history_len = 4;
  cfg.state_dim = 9;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_hidden = 16;
  cfg.moe_experts = 3;
  cfg.moe_top1 = true;
  MoEFoundation moe(cfg, 88);
  Rng rng(6);
  Tensor x(2, cfg.input_dim());
  for (float& v : x.flat()) v = static_cast<float>(rng.normal());
  const Tensor y = moe.forward(x, false);
  EXPECT_EQ(y.rows(), 2u);
  for (float v : y.flat()) EXPECT_TRUE(std::isfinite(v));
}

TEST(Foundation, ParameterCountScalesWithExperts) {
  FoundationConfig cfg;
  cfg.history_len = 4;
  cfg.state_dim = 9;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_hidden = 16;
  cfg.moe_experts = 2;
  MoEFoundation two(cfg, 1);
  cfg.moe_experts = 4;
  MoEFoundation four(cfg, 1);
  std::vector<Parameter*> p2, p4;
  two.collect_params(p2);
  four.collect_params(p4);
  EXPECT_GT(param_count(p4), 1.8 * param_count(p2));
}

// --------------------------------------------------------------- DualHead

TEST(DualHead, QAndPolicyShapes) {
  FoundationConfig cfg;
  cfg.history_len = 4;
  cfg.state_dim = 9;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_hidden = 16;
  DualHeadModel m(FoundationType::kTransformer, cfg, 3);
  Tensor x(3, cfg.input_dim(), 0.1f);
  const Tensor q = m.forward_q(x, false);
  EXPECT_EQ(q.rows(), 3u);
  EXPECT_EQ(q.cols(), 1u);
  const Tensor p = m.forward_policy(x, false);
  EXPECT_EQ(p.cols(), 2u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_NEAR(p.at(r, 0) + p.at(r, 1), 1.0f, 1e-5f);
  }
}

TEST(DualHead, CopyParamsMakesModelsAgree) {
  FoundationConfig cfg;
  cfg.history_len = 4;
  cfg.state_dim = 9;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_hidden = 16;
  DualHeadModel a(FoundationType::kTransformer, cfg, 3);
  DualHeadModel b(FoundationType::kTransformer, cfg, 999);
  Tensor x(2, cfg.input_dim(), 0.3f);
  b.copy_params_from(a);
  const Tensor qa = a.forward_q(x, false);
  const Tensor qb = b.forward_q(x, false);
  for (std::size_t i = 0; i < qa.size(); ++i) EXPECT_FLOAT_EQ(qa.flat()[i], qb.flat()[i]);
}

// ---------------------------------------------------------- InferencePlan

/// Plan outputs for x's rows, copied out of the workspace.
Tensor run_plan(const InferencePlan& plan, Workspace& ws, const Tensor& x) {
  std::copy(x.data(), x.data() + x.size(), plan.input(ws, x.rows()));
  const float* y = plan.run(ws);
  Tensor out(x.rows(), plan.output_dim());
  std::copy(y, y + out.size(), out.data());
  return out;
}

/// Seven rows, so the four-row kernel blocks leave a remainder: five
/// random histories, a fresh session's zero-padded one (only the newest
/// frame set) and an all-zero one.
Tensor plan_inputs(std::size_t k, std::size_t m, Rng& rng) {
  Tensor x(7, k * m);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < k * m; ++c) x.at(r, c) = static_cast<float>(rng.normal());
  }
  for (std::size_t c = (k - 1) * m; c < k * m; ++c) x.at(5, c) = static_cast<float>(rng.normal());
  return x;
}

/// Scale every attention query and key weight by `factor`. At 30 the
/// scores spread by hundreds, so most softmax weights underflow to exact
/// 0 and A·V's zero-weight skip is exercised.
void sharpen_attention(DualHeadModel& model, float factor) {
  for (Parameter* p : model.parameters()) {
    if (p->name.find(".wq.w") != std::string::npos || p->name.find(".wk.w") != std::string::npos) {
      p->value.scale(factor);
    }
  }
}

TEST(InferencePlan, BitwiseEqualToTrainingForward) {
  struct Kind {
    FoundationType type;
    bool top1;
    const char* name;
  };
  const Kind kinds[] = {{FoundationType::kTransformer, false, "transformer"},
                        {FoundationType::kMoE, false, "dense-moe"},
                        {FoundationType::kMoE, true, "top1-moe"}};
  std::uint64_t seed = 0;
  for (const Kind& kind : kinds) {
    for (const std::size_t d : {8, 16, 32}) {
      for (const std::size_t heads : {1, 2, 4}) {
        for (const std::size_t ffn : {16, 64}) {
          for (const std::size_t k : {1, 6, 24}) {
            for (const std::size_t m : {41, 43}) {  // one partition, and three
              ++seed;
              FoundationConfig c;
              c.history_len = k;
              c.state_dim = m;
              c.d_model = d;
              c.num_heads = heads;
              c.ffn_hidden = ffn;
              c.num_layers = 2;
              c.moe_experts = 3;
              c.moe_top1 = kind.top1;
              DualHeadModel model(kind.type, c, seed);
              const float sharpen = seed % 2 ? 30.0f : 1.0f;
              sharpen_attention(model, sharpen);
              Rng rng(seed);
              const Tensor x = plan_inputs(k, m, rng);
              const std::string what = std::string(kind.name) + " d=" + std::to_string(d) +
                                       " heads=" + std::to_string(heads) + " ffn=" +
                                       std::to_string(ffn) + " k=" + std::to_string(k) + " m=" +
                                       std::to_string(m) + " sharpen=" + std::to_string(sharpen);
              Workspace ws;
              const InferencePlan q(model, InferencePlan::Head::kQ);
              const InferencePlan p(model, InferencePlan::Head::kPolicy);
              expect_bitwise_equal(run_plan(q, ws, x), model.forward_q(x, false),
                                   ("Q " + what).c_str());
              expect_bitwise_equal(run_plan(p, ws, x), model.forward_policy(x, false),
                                   ("policy " + what).c_str());
            }
          }
        }
      }
    }
  }
}

TEST(InferencePlan, RowsIndependentOfBatchAndThreads) {
  FoundationConfig c;
  c.history_len = 6;
  c.d_model = 16;
  c.ffn_hidden = 32;
  c.moe_experts = 4;
  c.moe_top1 = true;
  DualHeadModel model(FoundationType::kMoE, c, 5);
  const InferencePlan plan(model, InferencePlan::Head::kQ);
  Rng rng(6);
  const Tensor x = random_matrix(65, c.input_dim(), rng);
  Workspace ws;
  Tensor want;
  {
    ScopedNumThreads serial(1);
    want = run_plan(plan, ws, x);
  }
  expect_bitwise_equal(want, model.forward_q(x, false), "B=65, 1 thread");
  for (const std::size_t threads : {1, 3, 4}) {
    ScopedNumThreads scope(threads);
    expect_bitwise_equal(run_plan(plan, ws, x), want, "B=65");
    // One row at a time through the same, already larger workspace.
    for (std::size_t r = 0; r < x.rows(); ++r) {
      const Tensor one = Tensor::row_vector(std::span<const float>(x.row(r), x.cols()));
      const Tensor got = run_plan(plan, ws, one);
      EXPECT_EQ(std::memcmp(got.data(), want.row(r), sizeof(float)), 0) << "row " << r;
    }
  }
}

// -------------------------------------------------------------- Optimizer

TEST(Optimizer, SgdConvergesOnQuadratic) {
  // Minimize (w - 3)^2 directly through the Parameter interface.
  Parameter w("w", 1, 1);
  w.value.at(0, 0) = 0.0f;
  SGD opt({&w}, 0.1f);
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    w.grad.at(0, 0) = 2.0f * (w.value.at(0, 0) - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(w.value.at(0, 0), 3.0f, 1e-3f);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  Parameter w("w", 1, 1);
  w.value.at(0, 0) = -5.0f;
  Adam opt({&w}, 0.1f);
  for (int i = 0; i < 500; ++i) {
    opt.zero_grad();
    w.grad.at(0, 0) = 2.0f * (w.value.at(0, 0) - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(w.value.at(0, 0), 3.0f, 1e-2f);
}

TEST(Optimizer, AdamFitsLinearRegression) {
  Rng rng(17);
  Linear model(2, 1, rng);
  std::vector<Parameter*> params;
  model.collect_params(params);
  Adam opt(params, 0.05f);
  // y = 2*x0 - x1 + 0.5
  for (int step = 0; step < 400; ++step) {
    Tensor x(16, 2), t(16, 1);
    for (std::size_t r = 0; r < 16; ++r) {
      x.at(r, 0) = static_cast<float>(rng.normal());
      x.at(r, 1) = static_cast<float>(rng.normal());
      t.at(r, 0) = 2.0f * x.at(r, 0) - x.at(r, 1) + 0.5f;
    }
    opt.zero_grad();
    auto [loss, grad] = mse_loss(model.forward(x, true), t);
    (void)loss;
    model.backward(grad);
    opt.step();
  }
  EXPECT_NEAR(model.weight().value.at(0, 0), 2.0f, 0.05f);
  EXPECT_NEAR(model.weight().value.at(0, 1), -1.0f, 0.05f);
  EXPECT_NEAR(model.bias().value.at(0, 0), 0.5f, 0.05f);
}

TEST(Optimizer, GradClipScalesDown) {
  Parameter w("w", 1, 2);
  w.grad.at(0, 0) = 3.0f;
  w.grad.at(0, 1) = 4.0f;  // norm 5
  const float norm = clip_grad_norm({&w}, 1.0f);
  EXPECT_FLOAT_EQ(norm, 5.0f);
  EXPECT_NEAR(std::sqrt(w.grad.squared_norm()), 1.0f, 1e-5f);
  // Below the threshold: untouched.
  w.grad.at(0, 0) = 0.1f;
  w.grad.at(0, 1) = 0.0f;
  clip_grad_norm({&w}, 1.0f);
  EXPECT_FLOAT_EQ(w.grad.at(0, 0), 0.1f);
}

// ------------------------------------------------------------------ Loss

TEST(Loss, MseKnownValue) {
  Tensor pred(1, 2), target(1, 2);
  pred.at(0, 0) = 1.0f;
  pred.at(0, 1) = 3.0f;
  target.at(0, 0) = 0.0f;
  target.at(0, 1) = 0.0f;
  auto [loss, grad] = mse_loss(pred, target);
  EXPECT_FLOAT_EQ(loss, 5.0f);  // (1 + 9) / 2
  EXPECT_FLOAT_EQ(grad.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(grad.at(0, 1), 3.0f);
}

TEST(Loss, HuberQuadraticInsideLinearOutside) {
  Tensor pred(1, 2), target(1, 2, 0.0f);
  pred.at(0, 0) = 0.5f;  // inside delta=1
  pred.at(0, 1) = 3.0f;  // outside
  auto [loss, grad] = huber_loss(pred, target, 1.0f);
  EXPECT_NEAR(loss, (0.5 * 0.25 + (3.0 - 0.5)) / 2.0, 1e-6);
  EXPECT_FLOAT_EQ(grad.at(0, 0), 0.25f);  // d/2 elements
  EXPECT_FLOAT_EQ(grad.at(0, 1), 0.5f);   // clipped at delta/2
}

TEST(Loss, CrossEntropyGradientIsProbMinusOnehot) {
  Tensor probs(1, 2);
  probs.at(0, 0) = 0.3f;
  probs.at(0, 1) = 0.7f;
  auto [loss, grad] = cross_entropy_from_probs(probs, {1});
  EXPECT_NEAR(loss, -std::log(0.7f), 1e-5f);
  EXPECT_NEAR(grad.at(0, 0), 0.3f, 1e-6f);
  EXPECT_NEAR(grad.at(0, 1), -0.3f, 1e-6f);
}

TEST(Loss, PolicyGradientWeightsByAdvantage) {
  Tensor probs(2, 2);
  probs.at(0, 0) = 0.5f;
  probs.at(0, 1) = 0.5f;
  probs.at(1, 0) = 0.5f;
  probs.at(1, 1) = 0.5f;
  auto [loss, grad] = policy_gradient_loss(probs, {0, 0}, {1.0f, -1.0f});
  (void)loss;
  // Opposite advantages on identical rows -> opposite gradients.
  EXPECT_NEAR(grad.at(0, 0), -grad.at(1, 0), 1e-6f);
}

// ---------------------------------------------------------- Serialization

TEST(Serialize, RoundTripRestoresValues) {
  FoundationConfig cfg;
  cfg.history_len = 4;
  cfg.state_dim = 9;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_hidden = 16;
  DualHeadModel a(FoundationType::kTransformer, cfg, 3);
  DualHeadModel b(FoundationType::kTransformer, cfg, 42);
  const auto bytes = serialize_params(a.parameters());
  ASSERT_TRUE(deserialize_params(bytes, b.parameters()));
  Tensor x(1, cfg.input_dim(), 0.2f);
  EXPECT_FLOAT_EQ(a.forward_q(x, false).at(0, 0), b.forward_q(x, false).at(0, 0));
}

TEST(Serialize, RejectsArchitectureMismatch) {
  FoundationConfig cfg;
  cfg.history_len = 4;
  cfg.state_dim = 9;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_hidden = 16;
  DualHeadModel a(FoundationType::kTransformer, cfg, 3);
  cfg.d_model = 16;
  DualHeadModel b(FoundationType::kTransformer, cfg, 3);
  const auto bytes = serialize_params(a.parameters());
  EXPECT_FALSE(deserialize_params(bytes, b.parameters()));
}

TEST(Serialize, RejectsCorruptHeader) {
  std::vector<char> junk = {'X', 'X', 'X', 'X', 0, 0};
  Parameter p("p", 1, 1);
  EXPECT_FALSE(deserialize_params(junk, {&p}));
}

}  // namespace
}  // namespace mirage::nn
