#include "bench/bench_common.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace edgemm::bench {
namespace {

/// Everything a registry printed to its stream, read back from the start.
std::string printed(std::FILE* f) {
  std::rewind(f);
  std::string text;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    text.push_back(static_cast<char>(c));
  }
  return text;
}

std::string self_checks_json(const CheckRegistry& checks) {
  JsonWriter json;
  json.begin_object();
  checks.write_json(json);
  json.end_object();
  return json.str();
}

class CheckRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    out_ = std::tmpfile();
    ASSERT_NE(out_, nullptr);
  }
  void TearDown() override { std::fclose(out_); }

  std::FILE* out_ = nullptr;
};

TEST_F(CheckRegistryTest, OneFailingCheckFailsTheRun) {
  CheckRegistry checks(out_);
  EXPECT_TRUE(checks.all_passed());
  EXPECT_EQ(checks.exit_code(), 0);

  EXPECT_TRUE(checks.add("first", true, "first: "));
  EXPECT_TRUE(checks.all_passed());
  EXPECT_EQ(checks.exit_code(), 0);

  EXPECT_FALSE(checks.add("second", false, "second: "));
  checks.add("third", true, "third: ");
  EXPECT_FALSE(checks.all_passed());
  EXPECT_EQ(checks.exit_code(), 1);
}

TEST_F(CheckRegistryTest, SelfChecksKeepRegistrationOrderWithAllPassedLast) {
  CheckRegistry checks(out_);
  checks.add("zeta", true, "z: ");
  checks.add("alpha", false, "a: ");
  checks.skip("mid", "skipped");
  EXPECT_EQ(self_checks_json(checks),
            "{\"self_checks\":{\"zeta\":true,\"alpha\":false,\"mid\":true,"
            "\"all_passed\":false}}");

  CheckRegistry passing(out_);
  passing.add("only", true, "only: ");
  EXPECT_EQ(self_checks_json(passing),
            "{\"self_checks\":{\"only\":true,\"all_passed\":true}}");
}

TEST_F(CheckRegistryTest, PrintsTheFormattedTextThenTheVerdict) {
  CheckRegistry checks(out_);
  checks.add("speedup", true, "\nspeedup >= %dx: %.1fx  ", 4, 5.0);
  checks.add("ledger", false, "  ledger (%s): ", "sent == landed");
  checks.skip("throughput", "throughput: %.1fx (gate skipped: %zu threads)",
              1.5, std::size_t{2});
  EXPECT_EQ(printed(out_),
            "\nspeedup >= 4x: 5.0x  yes\n"
            "  ledger (sent == landed): NO\n"
            "throughput: 1.5x (gate skipped: 2 threads)\n");
}

TEST_F(CheckRegistryTest, RegisteringAKeyTwiceThrows) {
  CheckRegistry checks(out_);
  checks.add("gate", true, "gate: ");
  EXPECT_THROW(checks.add("gate", true, "again: "), std::logic_error);
  EXPECT_THROW(checks.skip("gate", "again"), std::logic_error);
  // all_passed is the fold the registry writes itself.
  EXPECT_THROW(checks.add("all_passed", true, "fold: "), std::logic_error);
  // A rejected registration neither prints nor records anything.
  EXPECT_EQ(printed(out_), "gate: yes\n");
  EXPECT_EQ(self_checks_json(checks),
            "{\"self_checks\":{\"gate\":true,\"all_passed\":true}}");
}

}  // namespace
}  // namespace edgemm::bench
