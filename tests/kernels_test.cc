// Matmul kernel layer: whichever kernels the probe picks, tensor::MatMul*
// and nn::Linear must equal the *Reference oracles bitwise (A·Bᵀ: the
// blocked scalar kernel, since its sixteen-lane sum differs from the serial
// reference by design) at every probed shape and at 1 and 4 pool threads;
// the SIMD tiles must equal the scalar kernels wherever the probe trusts
// them; and a server over an engine built with default options must report
// the SIMD kernels active on a host where the probe passes.

#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/model.h"
#include "data/generator.h"
#include "data/world.h"
#include "nn/layers.h"
#include "nn/param_store.h"
#include "serve/batcher.h"
#include "serve/inference_engine.h"
#include "serve/json.h"
#include "serve/metrics.h"
#include "serve/server.h"
#include "tensor/tensor.h"
#include "util/cpu.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace bootleg {
namespace {

namespace fs = std::filesystem;
using tensor::MatMulImpl;
using tensor::MatMulShape;
using tensor::Tensor;

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

/// The probe's shapes plus one large enough to split across pool threads.
std::vector<MatMulShape> TestShapes() {
  std::vector<MatMulShape> shapes(std::begin(tensor::kMatMulProbeShapes),
                                  std::end(tensor::kMatMulProbeShapes));
  shapes.push_back({130, 96, 140});
  return shapes;
}

std::string Describe(const MatMulShape& s, int threads) {
  return std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
         std::to_string(s.n) + " threads=" + std::to_string(threads);
}

TEST(KernelsTest, DispatchedKernelsMatchReferenceBitwise) {
  util::Rng rng(321);
  for (const int threads : {1, 4}) {
    util::ThreadPool::ResetGlobal(threads);
    for (const MatMulShape& s : TestShapes()) {
      const Tensor a = Tensor::Randn({s.m, s.k}, &rng, 1.0f);
      const Tensor b = Tensor::Randn({s.k, s.n}, &rng, 1.0f);
      const Tensor bias = Tensor::Randn({s.n}, &rng, 1.0f);
      const Tensor at = Tensor::Randn({s.k, s.m}, &rng, 1.0f);
      const Tensor bt = Tensor::Randn({s.n, s.k}, &rng, 1.0f);
      const Tensor ref = tensor::MatMulReference(a, b);
      EXPECT_TRUE(BitEqual(tensor::MatMul(a, b), ref))
          << "MatMul " << Describe(s, threads);
      EXPECT_TRUE(BitEqual(tensor::MatMulAddBias(a, b, bias),
                           tensor::AddRowBroadcast(ref, bias)))
          << "MatMulAddBias " << Describe(s, threads);
      EXPECT_TRUE(BitEqual(tensor::MatMulTransposedA(at, b),
                           tensor::MatMulTransposedAReference(at, b)))
          << "MatMulTransposedA " << Describe(s, threads);
      for (const float alpha : {1.0f, 0.25f}) {
        const Tensor got = tensor::MatMulTransposedB(a, bt, alpha);
        EXPECT_TRUE(BitEqual(
            got, tensor::MatMulTransposedBWith(MatMulImpl::kScalar, a, bt,
                                               alpha)))
            << "MatMulTransposedB alpha=" << alpha << " "
            << Describe(s, threads);
        const Tensor want = tensor::Scale(
            tensor::MatMulTransposedBReference(a, bt), alpha);
        for (int64_t i = 0; i < got.numel(); ++i) {
          ASSERT_NEAR(got.at(i), want.at(i),
                      1e-4f * std::max(1.0f, std::abs(want.at(i))))
              << "MatMulTransposedB alpha=" << alpha << " "
              << Describe(s, threads) << " elem " << i;
        }
      }
    }
  }
  util::ThreadPool::ResetGlobal(1);
}

TEST(KernelsTest, LinearForwardValueMatchesReferenceBitwise) {
  util::Rng rng(322);
  nn::ParameterStore store;
  nn::Linear linear(&store, "lin", 64, 48, &rng);
  // A non-zero bias so the fused epilogue is exercised.
  Tensor& bias = store.GetParam("lin.bias").mutable_value();
  bias = Tensor::Randn({48}, &rng, 1.0f);
  const Tensor& w = store.GetParam("lin.weight").value();
  for (const int threads : {1, 4}) {
    util::ThreadPool::ResetGlobal(threads);
    for (const int64_t rows : {1, 7, 8, 13, 600}) {
      const Tensor x = Tensor::Randn({rows, 64}, &rng, 1.0f);
      const Tensor want =
          tensor::AddRowBroadcast(tensor::MatMulReference(x, w), bias);
      EXPECT_TRUE(BitEqual(linear.ForwardValue(x), want))
          << "rows=" << rows << " threads=" << threads;
      EXPECT_TRUE(BitEqual(
          linear.Forward(tensor::Var::Constant(x)).value(), want))
          << "rows=" << rows << " threads=" << threads;
    }
  }
  util::ThreadPool::ResetGlobal(1);
}

TEST(KernelsTest, ProbeVerdictHoldsOnEveryShape) {
  const tensor::MatMulKernels& active = tensor::ActiveMatMulKernels();
  const std::string isa = active.isa;
  if (!util::CpuHasAvx2Fma()) {
    EXPECT_FALSE(active.simd_active);
    EXPECT_EQ(isa, "scalar");
    return;
  }
  if (!active.simd_active) {
    EXPECT_EQ(isa, "avx2+fma(fallback)");
    return;
  }
  EXPECT_EQ(isa.rfind("avx2+fma", 0), 0u) << isa;
  EXPECT_EQ(isa.find("fallback"), std::string::npos) << isa;
  util::Rng rng(323);
  for (const MatMulShape& s : TestShapes()) {
    const Tensor a = Tensor::Randn({s.m, s.k}, &rng, 1.0f);
    const Tensor b = Tensor::Randn({s.k, s.n}, &rng, 1.0f);
    const Tensor bias = Tensor::Randn({s.n}, &rng, 1.0f);
    const Tensor at = Tensor::Randn({s.k, s.m}, &rng, 1.0f);
    const Tensor bt = Tensor::Randn({s.n, s.k}, &rng, 1.0f);
    EXPECT_TRUE(BitEqual(MatMulWith(MatMulImpl::kSimd, a, b, &bias),
                         MatMulWith(MatMulImpl::kScalar, a, b, &bias)))
        << Describe(s, 1);
    EXPECT_TRUE(BitEqual(MatMulTransposedAWith(MatMulImpl::kSimd, at, b),
                         MatMulTransposedAWith(MatMulImpl::kScalar, at, b)))
        << Describe(s, 1);
    EXPECT_TRUE(
        BitEqual(MatMulTransposedBWith(MatMulImpl::kSimd, a, bt, 0.57735f),
                 MatMulTransposedBWith(MatMulImpl::kScalar, a, bt, 0.57735f)))
        << Describe(s, 1);
  }
}

// --- Default deployment ------------------------------------------------------

std::string WriteServableWorld() {
  const std::string dir =
      (fs::temp_directory_path() / "bootleg_kernels_test_world").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  data::SynthConfig config = data::SynthConfig::MicroScale();
  config.num_pages = 20;
  const data::SynthWorld world = data::BuildWorld(config);
  BOOTLEG_CHECK(world.kb.Save(dir + "/kb.bin").ok());
  BOOTLEG_CHECK(world.candidates.Save(dir + "/candidates.bin").ok());
  BOOTLEG_CHECK(world.vocab.Save(dir + "/vocab.bin").ok());
  core::BootlegConfig model_config;
  model_config.encoder.max_len = 32;
  core::BootlegModel model(&world.kb, world.vocab.size(), model_config,
                           /*seed=*/123);
  BOOTLEG_CHECK(model.store().Save(dir + "/model.bin").ok());
  return dir;
}

// An optimized, unsanitized build with FMA must pass the probe: the scalar
// kernels' FMA chains are explicit there, so a fallback is a bug, not a
// property of the host. Sanitizer builds (-O1, no contraction) and portable
// builds (no FMA) may legitimately serve with the scalar kernels.
#if defined(__FMA__) && defined(__OPTIMIZE__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
constexpr bool kTilesRequired = true;
#else
constexpr bool kTilesRequired = false;
#endif

TEST(KernelsEngineTest, DefaultEngineServesWithSimdKernels) {
  if (!tensor::ActiveMatMulKernels().simd_active) {
    ASSERT_FALSE(kTilesRequired)
        << "matmul probe failed in an optimized FMA build ("
        << tensor::ActiveMatMulKernels().isa << ")";
    GTEST_SKIP() << "matmul probe fails on this host ("
                 << tensor::ActiveMatMulKernels().isa << ")";
  }
  const std::string dir = WriteServableWorld();
  serve::EngineOptions options;  // deployment paths only; every knob default
  options.data_dir = dir;
  options.model_path = dir + "/model.bin";
  auto engine = serve::InferenceEngine::Create(options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  serve::ServerCounters counters;
  serve::LatencyHistogram latency;
  core::BootlegModel::InferenceScratch scratch;
  serve::MicroBatcher batcher(
      serve::BatcherOptions{},
      [&](const std::vector<serve::BatchItem>& items, int) {
        return engine.value()->DisambiguateBatch(items, &scratch);
      },
      [&] { return engine.value()->Reload(); }, &counters);
  serve::Server server(engine.value().get(), &batcher, &counters, &latency);
  auto stats = serve::Json::Parse(server.HandleLine("{\"op\":\"stats\"}"));
  server.Stop();
  batcher.Shutdown();
  ASSERT_TRUE(stats.ok());
  const serve::Json* kernels = stats.value().Find("kernels");
  ASSERT_NE(kernels, nullptr) << stats.value().Dump();
  const serve::Json* simd_active = kernels->Find("simd_active");
  ASSERT_NE(simd_active, nullptr) << kernels->Dump();
  EXPECT_TRUE(simd_active->bool_value());
  const serve::Json* isa = kernels->Find("isa");
  ASSERT_NE(isa, nullptr) << kernels->Dump();
  EXPECT_EQ(isa->string_value(), tensor::ActiveMatMulKernels().isa);
  EXPECT_EQ(stats.value().Find("backend"), nullptr);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace bootleg
