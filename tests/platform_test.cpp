#include <gtest/gtest.h>

#include "interp/interpreter.hpp"
#include "platform/cost_model.hpp"
#include "platform/microbench.hpp"
#include "platform/optime.hpp"

namespace luis::platform {
namespace {

TEST(OpTimeTable, TableTwoValuesVerbatim) {
  // Spot checks against the paper's Table II.
  EXPECT_DOUBLE_EQ(stm32_table().op_time("add", "fix"), 1.24);
  EXPECT_DOUBLE_EQ(stm32_table().op_time("rem", "double"), 152.35);
  EXPECT_DOUBLE_EQ(stm32_table().op_time("div", "double"), 18.33);
  EXPECT_DOUBLE_EQ(raspberry_table().op_time("mul", "float"), 3.35);
  EXPECT_DOUBLE_EQ(raspberry_table().cast_time("float", "double"), 1.00);
  EXPECT_DOUBLE_EQ(intel_table().op_time("rem", "double"), 387.09);
  EXPECT_DOUBLE_EQ(intel_table().op_time("add", "float"), 1.03);
  EXPECT_DOUBLE_EQ(amd_table().op_time("div", "fix"), 15.14);
  EXPECT_DOUBLE_EQ(amd_table().cast_time("fix", "double"), 8.37);
}

TEST(OpTimeTable, SubAlwaysEqualsAdd) {
  for (const OpTimeTable* t : standard_platforms())
    for (const char* type : {"fix", "float", "double"})
      EXPECT_DOUBLE_EQ(t->op_time("sub", type), t->op_time("add", type))
          << t->machine() << " " << type;
}

TEST(OpTimeTable, IntrinsicFallbacks) {
  const OpTimeTable& t = intel_table();
  EXPECT_DOUBLE_EQ(t.op_time("neg", "double"), t.op_time("add", "double"));
  EXPECT_DOUBLE_EQ(t.op_time("min", "fix"), t.op_time("add", "fix"));
  EXPECT_DOUBLE_EQ(t.op_time("sqrt", "float"), 2.0 * t.op_time("div", "float"));
  EXPECT_DOUBLE_EQ(t.op_time("exp", "double"), t.op_time("rem", "double"));
  EXPECT_DOUBLE_EQ(t.op_time("pow", "float"), t.op_time("rem", "float"));
}

TEST(OpTimeTable, ExtensionTypeFallbacks) {
  const OpTimeTable& t = amd_table();
  EXPECT_DOUBLE_EQ(t.op_time("add", "half"), t.op_time("add", "float"));
  EXPECT_DOUBLE_EQ(t.op_time("mul", "bfloat16"), t.op_time("mul", "float"));
  EXPECT_DOUBLE_EQ(t.op_time("add", "posit"),
                   t.op_time("add", "float") * kPositSoftwareFactor);
  // Cast fallbacks for extension classes.
  EXPECT_DOUBLE_EQ(t.cast_time("half", "double"), t.cast_time("float", "double"));
}

TEST(OpTimeTable, SoftwareEmulatedRowsAreMeasuredNotScaled) {
  // fp8 and fposit arithmetic carries explicit rows: committed emulated-op
  // / native-float-op time ratios, the quotient of the fp8 (or fposit) and
  // float rows `luis characterize` measures on a host. They replace the
  // old scaled-class guesses (fp8 = float, fposit = float x 8).
  for (const OpTimeTable* t : standard_platforms()) {
    EXPECT_TRUE(t->has("add", "fp8")) << t->machine();
    EXPECT_TRUE(t->has("mul", "fposit")) << t->machine();
    // Measured ratios applied to the platform's own float row.
    EXPECT_DOUBLE_EQ(t->op_time("add", "fp8"),
                     32.5 * t->op_time("add", "float"));
    EXPECT_DOUBLE_EQ(t->op_time("div", "fposit"),
                     60.2 * t->op_time("div", "float"));
    EXPECT_DOUBLE_EQ(t->op_time("sub", "fp8"), t->op_time("add", "fp8"));
    // Emulation is far more expensive than the hardware-float guess and
    // fposit decode/encode costs more than the fp8 one.
    EXPECT_GT(t->op_time("mul", "fp8"), t->op_time("mul", "float"));
    EXPECT_GT(t->op_time("mul", "fposit"), t->op_time("mul", "fp8"));
  }
}

TEST(OpTimeTable, IntrinsicsKeepMeasuredTypeClass) {
  // neg/sqrt on a software-emulated class reduce onto that class's own
  // measured rows, not onto the hardware float fallback.
  const OpTimeTable& t = intel_table();
  EXPECT_DOUBLE_EQ(t.op_time("neg", "fp8"), t.op_time("add", "fp8"));
  EXPECT_DOUBLE_EQ(t.op_time("sqrt", "fposit"),
                   2.0 * t.op_time("div", "fposit"));
  // Posit has no measured rows; its fallback is unchanged.
  EXPECT_DOUBLE_EQ(t.op_time("neg", "posit"),
                   t.op_time("add", "float") * kPositSoftwareFactor);
}

TEST(OpTimeTable, NormalizeDividesByMinimum) {
  OpTimeTable t("test");
  t.set("add", "fix", 10.0);
  t.set("mul", "fix", 25.0);
  t.normalize();
  EXPECT_DOUBLE_EQ(t.op_time("add", "fix"), 1.0);
  EXPECT_DOUBLE_EQ(t.op_time("mul", "fix"), 2.5);
}

TEST(OpTimeTable, PlatformLookupIsCaseInsensitive) {
  EXPECT_EQ(platform_by_name("stm32"), &stm32_table());
  EXPECT_EQ(platform_by_name("STM32"), &stm32_table());
  EXPECT_EQ(platform_by_name("Raspberry"), &raspberry_table());
  EXPECT_EQ(platform_by_name("amd"), &amd_table());
  EXPECT_EQ(platform_by_name("riscv"), nullptr);
  EXPECT_EQ(standard_platforms().size(), 4u);
}

TEST(CostModel, SimulatedTimeSumsCounterEntries) {
  interp::CostCounters counters;
  counters.count_op("add", "fix");
  counters.count_op("add", "fix");
  counters.count_op("mul", "double");
  counters.non_real_ops = 8;
  CostModelOptions opt;
  opt.non_real_op_cost = 0.5;
  const double t = simulated_time(counters, stm32_table(), opt);
  EXPECT_DOUBLE_EQ(t, 2 * 1.24 + 4.02 + 8 * 0.5);
}

TEST(CostModel, SpeedupMatchesPaperFormula) {
  EXPECT_DOUBLE_EQ(speedup_percent(200.0, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(speedup_percent(100.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(speedup_percent(100.0, 200.0), -50.0);
}

TEST(Microbench, ProducesCompleteNormalizedTable) {
  MicrobenchOptions opt;
  opt.blocks = 5; // smoke-test speed
  const OpTimeTable host = run_microbenchmark(opt);
  double min_entry = 1e300;
  for (const char* op : {"add", "sub", "mul", "div", "rem"})
    for (const char* type : {"fix", "float", "double"}) {
      EXPECT_TRUE(host.has(op, type)) << op << " " << type;
      EXPECT_GT(host.op_time(op, type), 0.0);
      min_entry = std::min(min_entry, host.op_time(op, type));
    }
  for (const char* from : {"fix", "float", "double"})
    for (const char* to : {"fix", "float", "double"}) {
      if (std::string(from) == to && std::string(from) != "fix") continue;
      EXPECT_GT(host.cast_time(from, to), 0.0) << from << "->" << to;
      min_entry = std::min(min_entry, host.cast_time(from, to));
    }
  // Normalization anchors the fastest entry at 1.0.
  EXPECT_DOUBLE_EQ(min_entry, 1.0);
  // The software-emulated classes are measured too (double op + quantize),
  // and emulation costs more than the hardware float op it displaces.
  for (const char* op : {"add", "sub", "mul", "div", "rem"})
    for (const char* type : {"fp8", "fposit"}) {
      EXPECT_TRUE(host.has(op, type)) << op << " " << type;
      EXPECT_GT(host.op_time(op, type), host.op_time(op, "float"))
          << op << " " << type;
    }
}

TEST(OpTimeTableIo, TextRoundTrip) {
  const OpTimeTable& original = raspberry_table();
  const std::string text = original.to_text();
  const auto parsed = parse_optime_table(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->machine(), "Raspberry");
  EXPECT_EQ(parsed->entries(), original.entries());
  // And the round trip is a fixed point of serialization.
  EXPECT_EQ(parsed->to_text(), text);
}

TEST(OpTimeTableIo, RejectsMalformedText) {
  EXPECT_FALSE(parse_optime_table("").has_value());
  EXPECT_FALSE(parse_optime_table("machine m\nadd fix\n").has_value());
  EXPECT_FALSE(parse_optime_table("add fix 1.0\n").has_value()); // no header
}

} // namespace
} // namespace luis::platform
