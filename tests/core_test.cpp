// core_test.cpp — The predictability template and Definitions 3-5: values,
// witnesses, and the algebraic properties the paper's formulation implies.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/definitions.h"
#include "core/domino.h"
#include "core/measures.h"
#include "core/report.h"
#include "core/template.h"
#include "core/wire.h"

namespace pred::core {
namespace {

TimingMatrix makeMatrix(std::initializer_list<std::initializer_list<Cycles>> rows) {
  const std::size_t nQ = rows.size();
  const std::size_t nI = rows.begin()->size();
  TimingMatrix m(nQ, nI);
  std::size_t q = 0;
  for (const auto& row : rows) {
    std::size_t i = 0;
    for (const auto t : row) m.at(q, i++) = t;
    ++q;
  }
  return m;
}

TEST(Definitions, PerfectlyPredictableSystemHasPrOne) {
  const auto m = makeMatrix({{10, 10}, {10, 10}});
  EXPECT_DOUBLE_EQ(timingPredictability(m).value, 1.0);
  EXPECT_DOUBLE_EQ(stateInducedPredictability(m).value, 1.0);
  EXPECT_DOUBLE_EQ(inputInducedPredictability(m).value, 1.0);
}

TEST(Definitions, PrIsMinOverMax) {
  const auto m = makeMatrix({{10, 20}, {40, 15}});
  const auto pr = timingPredictability(m);
  EXPECT_DOUBLE_EQ(pr.value, 10.0 / 40.0);
  EXPECT_EQ(pr.minTime, 10u);
  EXPECT_EQ(pr.maxTime, 40u);
  EXPECT_EQ(pr.q1, 0u);
  EXPECT_EQ(pr.i1, 0u);
  EXPECT_EQ(pr.q2, 1u);
  EXPECT_EQ(pr.i2, 0u);
}

TEST(Definitions, SIPrFixesInput) {
  // Input 0: states give 10 vs 20 (ratio 1/2).
  // Input 1: states give 30 vs 33 (ratio 10/11).
  const auto m = makeMatrix({{10, 33}, {20, 30}});
  const auto si = stateInducedPredictability(m);
  EXPECT_DOUBLE_EQ(si.value, 0.5);
  EXPECT_EQ(si.i1, si.i2);  // witnesses share the input by construction
}

TEST(Definitions, IIPrFixesState) {
  // State 0: inputs 10 vs 40 (1/4).  State 1: 20 vs 25.
  const auto m = makeMatrix({{10, 40}, {25, 20}});
  const auto ii = inputInducedPredictability(m);
  EXPECT_DOUBLE_EQ(ii.value, 0.25);
  EXPECT_EQ(ii.q1, ii.q2);
}

TEST(Definitions, PrNeverExceedsFactorwisePredictabilities) {
  // Property from the definitions: Pr quantifies over both sources, so it
  // is <= SIPr and <= IIPr for any matrix.
  const auto matrices = {
      makeMatrix({{10, 20}, {40, 15}}),
      makeMatrix({{5, 6, 7}, {8, 9, 10}, {11, 12, 13}}),
      makeMatrix({{100, 100}, {100, 100}}),
      makeMatrix({{1, 50}, {50, 1}}),
  };
  for (const auto& m : matrices) {
    const double pr = timingPredictability(m).value;
    EXPECT_LE(pr, stateInducedPredictability(m).value + 1e-12);
    EXPECT_LE(pr, inputInducedPredictability(m).value + 1e-12);
  }
}

TEST(Definitions, SubsettingImprovesPredictability) {
  // "Extent of uncertainty" refinement (Section 2): shrinking Q or I can
  // only raise Pr (min over fewer pairs).
  const auto m = makeMatrix({{10, 20, 30}, {40, 15, 22}, {9, 33, 18}});
  const auto full = timingPredictability(m);
  const auto sub =
      timingPredictability(m, {0, 1}, {0, 1});
  EXPECT_GE(sub.value, full.value);
  const auto single = timingPredictability(m, {1}, {1});
  EXPECT_DOUBLE_EQ(single.value, 1.0);
}

TEST(Definitions, EmptySubsetThrows) {
  const auto m = makeMatrix({{10}});
  EXPECT_THROW(timingPredictability(m, {}, {0}), std::runtime_error);
}

TEST(Definitions, ZeroTimeRejected) {
  EXPECT_THROW(TimingMatrix::compute([](std::size_t, std::size_t) {
                 return Cycles{0};
               }, 1, 1),
               std::runtime_error);
}

TEST(Definitions, SampledOverestimatesExhaustive) {
  // Deterministic synthetic T: a single extreme pair that sampling misses
  // with high probability when given few samples.
  auto fn = [](std::size_t q, std::size_t i) -> Cycles {
    if (q == 999 && i == 999) return 1000;
    return 100 + (q + i) % 10;
  };
  const auto sampled = sampledTimingPredictability(fn, 1000, 1000, 50, 7);
  EXPECT_EQ(sampled.provenance, Inherence::Sampled);
  // Exhaustive Pr = 100/1000 = 0.1; sampled (over a subset) must be >= it.
  EXPECT_GE(sampled.value, 0.1);
}

TEST(Definitions, BcetWcetEndpoints) {
  const auto m = makeMatrix({{10, 20}, {40, 15}});
  EXPECT_EQ(m.bcet(), 10u);
  EXPECT_EQ(m.wcet(), 40u);
}

TEST(Measures, StatsBasics) {
  const auto s = computeStats(std::vector<double>{1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(s.minimum, 1);
  EXPECT_DOUBLE_EQ(s.maximum, 4);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.variance, 1.25);
  EXPECT_DOUBLE_EQ(s.range(), 3);
  EXPECT_DOUBLE_EQ(s.ratio(), 0.25);
}

TEST(Measures, StatsOfConstantSeriesHasZeroVariance) {
  const auto s = computeStats(std::vector<Cycles>{7, 7, 7, 7});
  EXPECT_DOUBLE_EQ(s.variance, 0.0);
  EXPECT_DOUBLE_EQ(s.ratio(), 1.0);
}

TEST(Measures, BoundsDecompositionInvariants) {
  BoundsDecomposition d;
  d.lowerBound = 80;
  d.bcet = 100;
  d.wcet = 150;
  d.upperBound = 180;
  EXPECT_TRUE(d.wellFormed());
  EXPECT_EQ(d.inherentVariance(), 50u);
  EXPECT_EQ(d.abstractionVariance(), 50u);
  EXPECT_DOUBLE_EQ(d.overestimationFactor(), 1.2);
  d.upperBound = 140;  // UB < WCET: unsound
  EXPECT_FALSE(d.wellFormed());
}

TEST(Measures, HistogramBucketsAndRender) {
  Histogram h(0, 100, 10);
  for (Cycles v = 0; v < 100; ++v) h.add(v);
  EXPECT_EQ(h.total(), 100u);
  for (std::size_t b = 0; b < h.buckets(); ++b) EXPECT_EQ(h.count(b), 10u);
  const auto text = h.render(20);
  EXPECT_NE(text.find('#'), std::string::npos);
}

TEST(Measures, HistogramDegenerateRange) {
  Histogram h(5, 5, 4);  // empty range collapses to one bucket
  h.add(5);
  EXPECT_EQ(h.buckets(), 1u);
  EXPECT_EQ(h.total(), 1u);
}

TEST(Domino, LinearDivergenceDetected) {
  DominoSeries s;
  for (std::uint64_t n = 1; n <= 16; ++n) {
    s.n.push_back(n);
    s.timeFromQ1.push_back(9 * n + 1);
    s.timeFromQ2.push_back(12 * n);
  }
  const auto v = detectDomino(s);
  EXPECT_TRUE(v.dominoEffect);
  EXPECT_NEAR(v.diffSlope, 3.0, 0.05);
  EXPECT_NEAR(v.limitRatio, 9.0 / 12.0, 0.01);
}

TEST(Domino, BoundedDifferenceIsNotDomino) {
  DominoSeries s;
  for (std::uint64_t n = 1; n <= 16; ++n) {
    s.n.push_back(n);
    s.timeFromQ1.push_back(10 * n);
    s.timeFromQ2.push_back(10 * n + 3);  // constant offset, bounded
  }
  const auto v = detectDomino(s);
  EXPECT_FALSE(v.dominoEffect);
}

TEST(Domino, MalformedSeriesThrows) {
  DominoSeries s;
  s.n = {1};
  s.timeFromQ1 = {10};
  s.timeFromQ2 = {12};
  EXPECT_THROW(detectDomino(s), std::runtime_error);
}

TEST(Domino, FitSlope) {
  EXPECT_NEAR(fitSlope({1, 2, 3}, {2, 4, 6}), 2.0, 1e-9);
  EXPECT_THROW(fitSlope({1}, {2}), std::runtime_error);
  EXPECT_THROW(fitSlope({1, 1}, {2, 3}), std::runtime_error);
}

TEST(Template, TableRowRendersAllAspects) {
  PredictabilityInstance inst;
  inst.approach = "Method Cache";
  inst.hardwareUnit = "Memory hierarchy";
  inst.citation = "[23,15]";
  inst.spec.property = Property::MemoryAccessLatency;
  inst.spec.uncertainties = {Uncertainty::InitialCacheState};
  inst.spec.measure = MeasureKind::AnalysisSimplicity;
  const auto row = tableRow(inst);
  EXPECT_NE(row.find("Method Cache"), std::string::npos);
  EXPECT_NE(row.find("memory access latency"), std::string::npos);
  EXPECT_NE(row.find("initial cache state"), std::string::npos);
  EXPECT_NE(row.find("analysis simplicity"), std::string::npos);
}

TEST(Template, TableRowRendersExecutableBinding) {
  PredictabilityInstance inst;
  inst.approach = "Approach";
  inst.hardwareUnit = "Unit";
  inst.citation = "[1]";
  inst.spec.workload = "bubblesort-8";
  inst.spec.platforms = {"ooo-fifo", "inorder-lru"};
  const auto row = tableRow(inst);
  EXPECT_NE(row.find("bubblesort-8 on ooo-fifo/inorder-lru"),
            std::string::npos);
  EXPECT_NE(row.find("(exhaustive)"), std::string::npos);
}

TEST(Template, EnumPrintersTotal) {
  for (int p = 0; p <= static_cast<int>(Property::CacheHits); ++p) {
    EXPECT_NE(toString(static_cast<Property>(p)), "?");
  }
  for (int u = 0; u <= static_cast<int>(Uncertainty::AnalysisImprecision);
       ++u) {
    EXPECT_NE(toString(static_cast<Uncertainty>(u)), "?");
  }
  for (int m = 0; m <= static_cast<int>(MeasureKind::AnalysisSimplicity);
       ++m) {
    EXPECT_NE(toString(static_cast<MeasureKind>(m)), "?");
  }
}

TEST(Report, TextTableAligns) {
  TextTable t({"a", "bb"});
  t.addRow({"xxx", "y"});
  t.addRule();
  t.addRow({"1", "22222"});
  const auto out = t.render();
  EXPECT_NE(out.find("| xxx"), std::string::npos);
  EXPECT_NE(out.find("+--"), std::string::npos);
}

TEST(Report, FmtPrecision) {
  EXPECT_EQ(fmt(0.75, 2), "0.75");
  EXPECT_EQ(fmt(1.0, 1), "1.0");
  EXPECT_NE(fmtVsBaseline(2.0, 4.0).find("0.50x"), std::string::npos);
}

// ------------------------------------------------------------------ wire

/// The oracle: the stream-based parse (one istringstream per token) that
/// wire::nextNumber's from_chars version must match token for token.
template <typename T>
T streamNextNumber(std::istream& in, const std::string& context,
                   const std::string& field) {
  const std::string tok = wire::nextToken(in, context, field);
  T value{};
  std::istringstream num(tok);
  if (!(num >> value) || !(num >> std::ws).eof()) {
    wire::fail(context, "malformed " + field + ": '" + tok + "'");
  }
  if constexpr (!std::is_signed_v<T>) {
    if (tok.front() == '-') {
      wire::fail(context, "malformed " + field + ": '" + tok + "'");
    }
  }
  return value;
}

/// "value N" or "error <what()>" — the whole observable outcome of a parse.
template <typename T, typename Parse>
std::string outcomeOf(const std::string& text, Parse parse) {
  std::istringstream in(text);
  try {
    const T v = parse(in);
    return "value " + std::to_string(v);
  } catch (const std::invalid_argument& e) {
    return std::string("error ") + e.what();
  }
}

/// A decimal numeral one further from zero: "127" -> "128", "-128" ->
/// "-129".
std::string pastLimit(std::string numeral) {
  std::size_t k = numeral.size();
  while (k > 0 && numeral[k - 1] == '9') numeral[--k] = '0';
  if (k == 0 || numeral[k - 1] == '-') {
    numeral.insert(k, "1");
  } else {
    ++numeral[k - 1];
  }
  return numeral;
}

template <typename T>
void expectSameAsStreamExtraction() {
  std::vector<std::string> tokens = {
      "0", "007", "+5", "+", "++5", "+-5", "-5", "-0", "-", "5x",
      "0x1F", "1e3", "1.5", "inf", "nan", "", "  42  ", "1 2", "+007"};
  const std::string max = std::to_string(std::numeric_limits<T>::max());
  const std::string min = std::to_string(std::numeric_limits<T>::min());
  tokens.push_back(max);
  tokens.push_back(pastLimit(max));
  tokens.push_back(min);
  tokens.push_back(std::is_signed_v<T> ? pastLimit(min) : "-1");
  tokens.push_back("+" + max);
  for (const std::string& tok : tokens) {
    const std::string got = outcomeOf<T>(tok, [](std::istream& in) {
      return wire::nextNumber<T>(in, "ctx", "the field");
    });
    const std::string want = outcomeOf<T>(tok, [](std::istream& in) {
      return streamNextNumber<T>(in, "ctx", "the field");
    });
    EXPECT_EQ(got, want) << "token '" << tok << "'";
  }
}

TEST(Wire, NextNumberMatchesStreamExtraction) {
  ASSERT_EQ(pastLimit("127"), "128");
  ASSERT_EQ(pastLimit("-128"), "-129");
  ASSERT_EQ(pastLimit("99"), "100");
  ASSERT_EQ(pastLimit("-99"), "-100");
  expectSameAsStreamExtraction<int>();
  expectSameAsStreamExtraction<std::int64_t>();
  expectSameAsStreamExtraction<std::uint64_t>();
  expectSameAsStreamExtraction<std::size_t>();
}

}  // namespace
}  // namespace pred::core
