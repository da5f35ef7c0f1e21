// Tests for the MBPTA workflow (mbpta/analysis.h), including end-to-end runs
// against the simulated platforms: random caches must pass the i.i.d. gate
// across seeds; a deterministic cache's layout-dependence must be visible.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/policy.h"
#include "isa/interpreter.h"
#include "isa/kernels.h"
#include "mbpta/analysis.h"
#include "rng/rng.h"

namespace tsc::mbpta {
namespace {

std::vector<double> gumbel_like_sample(int n, std::uint64_t seed) {
  rng::Pcg32 g(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (int i = 0; i < n; ++i) {
    xs.push_back(1000.0 - 20.0 * std::log(-std::log(g.next_double() + 1e-15)));
  }
  return xs;
}

TEST(Analysis, IidSamplePassesAndYieldsModel) {
  const auto xs = gumbel_like_sample(2000, 3);
  const AnalysisReport report = analyze(xs);
  EXPECT_TRUE(report.iid.passed());
  ASSERT_TRUE(report.mbpta_applicable());
  EXPECT_GT(report.pwcet(1e-10), report.sample.max);
  EXPECT_GT(report.pwcet(1e-12), report.pwcet(1e-6));
}

TEST(Analysis, AutocorrelatedSampleIsRejected) {
  rng::Pcg32 g(4);
  std::vector<double> xs{0.0};
  for (int i = 1; i < 2000; ++i) {
    xs.push_back(0.7 * xs.back() + g.next_double());
  }
  const AnalysisReport report = analyze(xs);
  EXPECT_FALSE(report.mbpta_applicable());
  EXPECT_THROW((void)report.pwcet(1e-10), std::logic_error);
  EXPECT_THROW((void)report.curve(), std::logic_error);
}

TEST(Analysis, TooFewRunsRejected) {
  const auto xs = gumbel_like_sample(100, 5);
  EXPECT_THROW((void)analyze(xs), std::invalid_argument);
}

TEST(Analysis, MisconfiguredMinRunsFailsLoudly) {
  // min_runs below the PwcetModel floor must be rejected up front - in
  // Release builds too - rather than riding an assert into UB mid-campaign.
  const auto xs = gumbel_like_sample(2000, 5);
  AnalysisConfig cfg;
  cfg.min_runs = 50;
  EXPECT_THROW((void)analyze(xs, cfg), std::invalid_argument);
  cfg.min_runs = 300;
  cfg.alpha = 1.5;
  EXPECT_THROW((void)analyze(xs, cfg), std::invalid_argument);
  cfg.alpha = 0.05;
  cfg.block = 0;
  EXPECT_THROW((void)analyze(xs, cfg), std::invalid_argument);
  cfg.block = 20;
  cfg.lags = 0;
  EXPECT_THROW((void)analyze(xs, cfg), std::invalid_argument);
}

TEST(Analysis, ApplicableReportCarriesFitDiagnostics) {
  const auto xs = gumbel_like_sample(2000, 9);
  const AnalysisReport report = analyze(xs);
  ASSERT_TRUE(report.mbpta_applicable());
  ASSERT_TRUE(report.gof.has_value());
  EXPECT_TRUE(report.gof->defined);
  EXPECT_GT(report.gof->qq_r2, 0.95);
}

TEST(Convergence, IidSampleConverges) {
  const auto xs = gumbel_like_sample(1500, 10);
  AnalysisConfig cfg;
  const ConvergenceCurve curve = pwcet_convergence(xs, cfg, 1e-10, 6, 0.10);
  ASSERT_GE(curve.points.size(), 3u);
  EXPECT_EQ(curve.points.back().runs, 1500u);
  EXPECT_TRUE(curve.converged)
      << "final bounds: " << curve.points[curve.points.size() - 2].bound
      << " -> " << curve.final_bound();
}

TEST(Convergence, TrendingSampleDoesNotConverge) {
  // A steady upward trend: every prefix re-estimate chases a tail that is
  // still growing, so the bound keeps climbing across the grid and must not
  // be declared stable.
  rng::Pcg32 g(11);
  std::vector<double> xs;
  for (int i = 0; i < 600; ++i) {
    xs.push_back(1000.0 + 5.0 * i + 20.0 * g.next_double());
  }
  AnalysisConfig cfg;
  const ConvergenceCurve curve = pwcet_convergence(xs, cfg, 1e-10, 6, 0.10);
  ASSERT_GE(curve.points.size(), 3u);
  EXPECT_FALSE(curve.converged)
      << "bounds: " << curve.points.front().bound << " -> "
      << curve.final_bound();
}

TEST(Convergence, ValidatesInputs) {
  const auto xs = gumbel_like_sample(99, 12);
  AnalysisConfig cfg;
  EXPECT_THROW((void)pwcet_convergence(xs, cfg), std::invalid_argument);
  const auto ok = gumbel_like_sample(400, 13);
  EXPECT_THROW((void)pwcet_convergence(ok, cfg, 1e-10, 1),
               std::invalid_argument);
}

TEST(Analysis, ConstantSampleIsNotModeled) {
  const std::vector<double> xs(1000, 42.0);
  const AnalysisReport report = analyze(xs);
  EXPECT_FALSE(report.mbpta_applicable())
      << "a zero-variance sample has no tail to project";
}

TEST(Analysis, CurveMatchesFigure1Shape) {
  const auto xs = gumbel_like_sample(5000, 6);
  const AnalysisReport report = analyze(xs);
  ASSERT_TRUE(report.mbpta_applicable());
  const auto curve = report.curve(1e-10);
  ASSERT_EQ(curve.size(), 10u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].bound, curve[i].bound);
    EXPECT_GT(curve[i - 1].exceedance_prob, curve[i].exceedance_prob);
  }
}

TEST(Analysis, RenderReportMentionsVerdicts) {
  const auto xs = gumbel_like_sample(1000, 7);
  const std::string text = render_report(analyze(xs));
  EXPECT_NE(text.find("Ljung-Box"), std::string::npos);
  EXPECT_NE(text.find("KS 2-sample"), std::string::npos);
  EXPECT_NE(text.find("pWCET"), std::string::npos);
}

TEST(Analysis, BothTailModelsProduceConservativeBounds) {
  const auto xs = gumbel_like_sample(3000, 8);
  for (const auto tail :
       {stats::TailModel::kGumbelBlockMaxima, stats::TailModel::kGpdPot}) {
    AnalysisConfig cfg;
    cfg.tail = tail;
    const AnalysisReport report = analyze(xs, cfg);
    ASSERT_TRUE(report.mbpta_applicable());
    EXPECT_GE(report.pwcet(1e-10), report.sample.max);
  }
}

// --- end-to-end on the simulated platform -------------------------------------

// Execution times of one kernel run per random seed, on a given setup.
//
// The kernel walks a 20KB array - 640 lines against the 512-line L1 - and
// is measured on its *second* pass, when the time depends on which lines
// survived in L1.  Under modulo placement that survival pattern is fixed by
// the layout; under random placement it is a fresh random draw per seed.
// (A footprint that fits L1 would cost only compulsory misses and time
// would not depend on placement at all.)
std::vector<double> platform_sample(core::SetupKind kind, int runs,
                                    std::uint64_t master) {
  constexpr unsigned kWords = 5120;  // 20KB
  std::vector<double> times;
  times.reserve(runs);
  for (int r = 0; r < runs; ++r) {
    // Fresh machine per run: MBPTA's "new random cache layout on every
    // program run" protocol (paper section 2.1).
    const auto machine = core::build_machine(
        {core::paper_platform(kind), rng::derive_seed(master, r)}, {ProcId{1}});
    machine->set_process(ProcId{1});
    isa::Interpreter interp(*machine);
    interp.load_program(
        isa::assemble(isa::vector_sum_source(0x40000, kWords), 0x1000));
    (void)interp.run(0x1000);  // warm pass: compulsory misses
    const isa::RunResult result = interp.run(0x1000);
    times.push_back(static_cast<double>(result.cycles));
  }
  return times;
}

TEST(PlatformMbpta, RandomizedCachesPassIidAcrossSeeds) {
  // TSCache/MBPTACache: layouts are randomly drawn per run, so per-run
  // execution times are i.i.d. and MBPTA applies (paper section 6.2.2).
  const auto times = platform_sample(core::SetupKind::kTsCache, 400, 11);
  const AnalysisReport report = analyze(times);
  EXPECT_TRUE(report.iid.independence.passed(0.05))
      << "p=" << report.iid.independence.p_value;
  EXPECT_TRUE(report.iid.identical.passed(0.05))
      << "p=" << report.iid.identical.p_value;
  ASSERT_TRUE(report.mbpta_applicable());
  EXPECT_GE(report.pwcet(1e-10), report.sample.max);
}

TEST(PlatformMbpta, DeterministicCacheTimingIsLayoutLocked) {
  // On the deterministic cache every run of the same binary takes exactly
  // the same time - there is no distribution to analyze, and WCET estimates
  // are hostage to the memory layout (the mbpta-p1 composability argument).
  const auto times = platform_sample(core::SetupKind::kDeterministic, 50, 12);
  for (const double t : times) {
    EXPECT_DOUBLE_EQ(t, times.front());
  }
}

TEST(PlatformMbpta, RandomizedTimesActuallyVary) {
  const auto times = platform_sample(core::SetupKind::kTsCache, 50, 13);
  bool varies = false;
  for (const double t : times) varies = varies || t != times.front();
  EXPECT_TRUE(varies) << "random placement must produce timing variation";
}

}  // namespace
}  // namespace tsc::mbpta
