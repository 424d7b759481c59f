// Ablation — systolic array geometry and CIM macro shape.
//
// DESIGN.md picks 16x16 SA and 64x16 CIM to land the published aggregate
// numbers; this ablation sweeps the shapes at iso-PE-count and shows the
// GEMM/GEMV cycle impact predicted by Eq. 2 / Eq. 3.
#include "bench_common.hpp"
#include "common/table.hpp"
#include "coproc/cim_macro.hpp"
#include "coproc/systolic_array.hpp"

int main() {
  using namespace edgemm;
  edgemm::bench::print_header(
      "Ablation (coprocessor geometry)",
      "Eq. 2: L_SA = 2R + C + M - 3; Eq. 3: L_CIM = M*W + 1 — shape choices "
      "trade GEMM streaming efficiency against GEMV latency");

  {
    Table t("Systolic array shapes at 256 PEs (Eq. 2, per weight-tile pass)");
    t.set_header({"R x C", "GEMV (M=1)", "GEMM (M=300)", "MACs/cycle @ M=300",
                  "tiles for 2048x2048"});
    for (const auto& [r, c] : {std::pair<std::size_t, std::size_t>{4, 64},
                              {8, 32},
                              {16, 16},
                              {32, 8},
                              {64, 4}}) {
      const coproc::SystolicConfig cfg{r, c};
      const Cycle gemv = coproc::systolic_tile_cycles(cfg, 1);
      const Cycle gemm = coproc::systolic_tile_cycles(cfg, 300);
      const double macs_rate = 300.0 * static_cast<double>(r) * static_cast<double>(c) /
                               static_cast<double>(gemm);
      const std::size_t tiles = (2048 / r) * (2048 / c);
      t.add_row({std::to_string(r) + " x " + std::to_string(c), std::to_string(gemv),
                 std::to_string(gemm), fmt_double(macs_rate, 1), std::to_string(tiles)});
    }
    t.print();
  }

  {
    Table t("CIM macro shapes at 1024 cells/entry-row (Eq. 3 + write cost)");
    t.set_header({"C cols x R subarrays", "GEMV cycles (K=2048)",
                  "entry writes (K=2048)", "column groups for N=2048"});
    for (const auto& [cols, rows] : {std::pair<std::size_t, std::size_t>{128, 8},
                                    {64, 16},
                                    {32, 32},
                                    {16, 64}}) {
      coproc::CimConfig cfg;
      cfg.columns = cols;
      cfg.tree_inputs = rows;
      const std::size_t entries = 2048 / rows;
      const Cycle compute = coproc::cim_gemm_cycles(cfg, entries);
      const Cycle writes = entries * coproc::cim_entry_write_cycles(cfg);
      t.add_row({std::to_string(cols) + " x " + std::to_string(rows),
                 std::to_string(compute), std::to_string(writes),
                 std::to_string(2048 / cols)});
    }
    t.print();
  }

  edgemm::bench::print_paper_vs_measured("chosen SA / CIM shapes", "16x16 / 64x16",
                                         "balanced rows above");
  return 0;
}
