#include "core/host_core.hpp"

#include <stdexcept>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "isa/assembler.hpp"

namespace edgemm::core {
namespace {

ChipConfig square_cfg() {
  ChipConfig cfg = tiny_chip_config();
  cfg.systolic = {4, 4};
  cfg.cim = {8, 4, 8, 8, 8};
  return cfg;
}

Tensor random_tile(std::size_t r, std::size_t c, Rng& rng) {
  Tensor t(r, c);
  for (float& v : t.flat()) v = static_cast<float>(rng.gaussian(0.0, 0.5));
  return t;
}

TEST(HostCore, WrongCoreKindRaisesIllegalInstruction) {
  const ChipConfig cfg = square_cfg();
  HostCore mc(cfg, CoreKind::kMemoryCentric, 0, 0, 0, 0);
  EXPECT_THROW(mc.execute(isa::assemble_line("mm.zero m0")), IllegalInstruction);
  HostCore cc(cfg, CoreKind::kComputeCentric, 1, 0, 0, 1);
  EXPECT_THROW(cc.execute(isa::assemble_line("mv.prune v0, v1")), IllegalInstruction);
}

TEST(HostCore, NonExtensionWordRejected) {
  HostCore core(square_cfg(), CoreKind::kComputeCentric, 0, 0, 0, 0);
  EXPECT_THROW(core.execute(0x00000013u), IllegalInstruction);
}

TEST(HostCore, X0IsHardwiredZero) {
  HostCore core(square_cfg(), CoreKind::kComputeCentric, 0, 0, 0, 0);
  core.set_xreg(0, 1234);
  EXPECT_EQ(core.xreg(0), 0u);
}

TEST(HostCore, CsrInstructionsMoveData) {
  HostCore core(square_cfg(), CoreKind::kComputeCentric, 7, 3, 1, 2);
  // cfg.csrr coreid, x1 : x1 <- 7.
  core.execute(isa::assemble_line("cfg.csrr coreid, x1"));
  EXPECT_EQ(core.xreg(1), 7u);
  // cfg.csrw shapek, x2 with x2 = 2048.
  core.set_xreg(2, 2048);
  core.execute(isa::assemble_line("cfg.csrw shapek, x2"));
  EXPECT_EQ(core.csrs().read(isa::Csr::kShapeK), 2048u);
}

TEST(HostCore, SyncBumpsEpoch) {
  HostCore core(square_cfg(), CoreKind::kComputeCentric, 0, 0, 0, 0);
  core.execute(isa::assemble_line("cfg.sync"));
  core.execute(isa::assemble_line("cfg.sync"));
  EXPECT_EQ(core.csrs().read(isa::Csr::kSyncEpoch), 2u);
}

TEST(HostCore, MatrixLoadComputeStoreProgram) {
  // Full CC kernel through the ISA: load tiles, multiply-accumulate,
  // store, and check against the reference product.
  const ChipConfig cfg = square_cfg();
  HostCore core(cfg, CoreKind::kComputeCentric, 0, 0, 0, 0);
  Rng rng(5);
  Tensor acts = random_tile(4, 4, rng);
  Tensor weights = random_tile(4, 4, rng);
  Tensor out(4, 4);
  core.bind_lsu_slot(0, &acts);
  core.bind_lsu_slot(1, &weights);
  core.bind_lsu_slot(2, &out);

  const auto program = isa::assemble(R"(
    mm.ld m1, a0     # activations
    mm.ld m2, a1     # weights
    mm.zero m0
    mm.mul m0, m1, m2
    mm.st m0, a2
  )");
  const Cycle cycles = core.run(program);
  EXPECT_GT(cycles, 0u);

  const Tensor ref = matmul_reference(acts, weights);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_NEAR(out.at(r, c), ref.at(r, c), 0.05F) << r << "," << c;
    }
  }
}

TEST(HostCore, UnboundLsuSlotThrows) {
  HostCore core(square_cfg(), CoreKind::kComputeCentric, 0, 0, 0, 0);
  EXPECT_THROW(core.execute(isa::assemble_line("mm.ld m0, a5")),
               std::invalid_argument);
}

TEST(HostCore, CimGemvProgramMatchesReference) {
  const ChipConfig cfg = square_cfg();
  HostCore core(cfg, CoreKind::kMemoryCentric, 0, 0, 0, 0);
  Rng rng(9);
  const Tensor weights = random_tile(8, 8, rng);  // K=8 rows, N=8 cols
  core.bind_matrix(0x4000, &weights);
  core.set_xreg(3, 0x4000);

  std::vector<float> act(8);
  for (float& v : act) v = static_cast<float>(rng.gaussian(0.0, 0.5));
  core.set_vreg(2, act);

  core.execute(isa::assemble_line("mv.ldw (x3)"));
  core.execute(isa::assemble_line("mv.mul v1, v2, (x3)"));

  const auto ref = gemv_reference(act, weights);
  const auto& got = core.vreg(1);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    // int8 × int8 quantization error bound.
    EXPECT_NEAR(got[i], ref[i], 0.15F) << i;
  }
}

TEST(HostCore, MvMulBeforeLdwThrows) {
  const ChipConfig cfg = square_cfg();
  HostCore core(cfg, CoreKind::kMemoryCentric, 0, 0, 0, 0);
  Tensor w(4, 4);
  core.bind_matrix(0x100, &w);
  core.set_xreg(1, 0x100);
  core.set_vreg(2, std::vector<float>(4, 1.0F));
  EXPECT_THROW(core.execute(isa::assemble_line("mv.mul v1, v2, (x1)")),
               std::invalid_argument);
}

TEST(HostCore, RejectedLoadKeepsLoadedMatrices) {
  ChipConfig cfg = square_cfg();
  cfg.cim = {16, 4, 16, 8, 8};  // 16 entries of 4 rows: 64 rows per load
  HostCore core(cfg, CoreKind::kMemoryCentric, 0, 0, 0, 0);
  Rng rng(11);
  const Tensor a = random_tile(8, 8, rng);
  const Tensor too_tall = random_tile(68, 8, rng);  // 17 entries
  core.bind_matrix(0x100, &a);
  core.bind_matrix(0x200, &too_tall);
  core.set_xreg(1, 0x100);
  core.set_xreg(2, 0x200);
  core.set_vreg(4, std::vector<float>(8, 0.5F));

  core.execute(isa::assemble_line("mv.ldw (x1)"));
  core.execute(isa::assemble_line("mv.mul v5, v4, (x1)"));
  const std::vector<float> before = core.vreg(5);

  EXPECT_THROW(core.execute(isa::assemble_line("mv.ldw (x2)")),
               std::invalid_argument);
  core.execute(isa::assemble_line("mv.mul v6, v4, (x1)"));
  EXPECT_EQ(core.vreg(6), before);
}

TEST(HostCore, PruneInstructionCompactsAndReportsN) {
  const ChipConfig cfg = square_cfg();
  HostCore core(cfg, CoreKind::kMemoryCentric, 0, 0, 0, 0);
  // k = 2 via CSR; t stays at the default 16.
  core.set_xreg(1, 2);
  core.execute(isa::assemble_line("cfg.csrw prunek, x1"));

  core.set_vreg(4, {0.01F, 8.0F, 0.02F, -6.0F, 0.005F});
  core.execute(isa::assemble_line("mv.prune v5, v4"));

  EXPECT_EQ(core.vreg(5), (std::vector<float>{8.0F, -6.0F}));
  ASSERT_TRUE(core.last_prune().has_value());
  EXPECT_EQ(core.last_prune()->kept, (std::vector<std::size_t>{1, 3}));
  // n recorded in the read-only CSR.
  EXPECT_EQ(core.csrs().read(isa::Csr::kPruneCount),
            count_above_max_over_t(core.vreg(4), 16.0));
}

TEST(HostCore, VectorInstructionsCompute) {
  HostCore core(square_cfg(), CoreKind::kComputeCentric, 0, 0, 0, 0);
  core.set_vreg(1, {1.0F, -2.0F});
  core.set_vreg(2, {3.0F, 5.0F});
  core.execute(isa::assemble_line("vv.add v3, v1, v2"));
  EXPECT_EQ(core.vreg(3), (std::vector<float>{4.0F, 3.0F}));
  core.execute(isa::assemble_line("vv.mul v4, v1, v2"));
  EXPECT_EQ(core.vreg(4), (std::vector<float>{3.0F, -10.0F}));
  core.execute(isa::assemble_line("vv.act v5, v1, relu"));
  EXPECT_EQ(core.vreg(5), (std::vector<float>{1.0F, 0.0F}));
}

TEST(HostCore, VectorLengthCapEnforced) {
  HostCore core(square_cfg(), CoreKind::kComputeCentric, 0, 0, 0, 0);
  EXPECT_THROW(core.set_vreg(0, std::vector<float>(HostCore::kMaxVlen + 1, 0.0F)),
               std::invalid_argument);
}

}  // namespace
}  // namespace edgemm::core
