#include "core/host_core.hpp"

#include <stdexcept>
#include <string>

#include "common/assert.hpp"
#include "common/quant.hpp"
#include "isa/encoding.hpp"
#include "isa/instructions.hpp"

namespace edgemm::core {

/// Decoded instruction plus resolved mnemonic, shared by the exec_*
/// handlers.
struct DecodedView {
  isa::Fields fields;
  isa::Mnemonic mnemonic;
};

IllegalInstruction::IllegalInstruction(const std::string& what)
    : std::runtime_error(what) {}

HostCore::HostCore(const ChipConfig& config, CoreKind kind, CoreId core_id,
                   ClusterId cluster_id, std::uint32_t group_id,
                   std::uint32_t core_pos)
    : config_(config), kind_(kind),
      csrs_(core_id, kind, cluster_id, group_id, core_pos),
      vu_(kind == CoreKind::kComputeCentric ? config.systolic.cols
                                            : config.cim.columns) {
  if (kind == CoreKind::kComputeCentric) {
    mregs_.emplace(config.systolic.rows, config.systolic.cols);
    sa_.emplace(config.systolic);
  } else {
    cim_.emplace(config.cim);
  }
}

void HostCore::set_xreg(std::size_t index, std::uint32_t value) {
  if (index >= xregs_.size()) throw std::out_of_range("HostCore: xreg index");
  if (index == 0) return;  // x0 is hard-wired zero
  xregs_[index] = value;
}

std::uint32_t HostCore::xreg(std::size_t index) const {
  if (index >= xregs_.size()) throw std::out_of_range("HostCore: xreg index");
  return xregs_[index];
}

void HostCore::set_vreg(std::size_t index, std::vector<float> value) {
  if (index >= kNumVRegs) throw std::out_of_range("HostCore: vreg index");
  if (value.size() > kMaxVlen) {
    throw std::invalid_argument("HostCore: vector length exceeds kMaxVlen");
  }
  vregs_[index] = std::move(value);
}

const std::vector<float>& HostCore::vreg(std::size_t index) const {
  if (index >= kNumVRegs) throw std::out_of_range("HostCore: vreg index");
  return vregs_[index];
}

void HostCore::bind_lsu_slot(std::size_t slot, Tensor* tile) {
  if (slot >= lsu_slots_.size()) throw std::out_of_range("HostCore: LSU slot");
  lsu_slots_[slot] = tile;
}

void HostCore::bind_matrix(std::uint32_t address, const Tensor* matrix) {
  if (matrix == nullptr) throw std::invalid_argument("HostCore: null matrix binding");
  BoundMatrix bound;
  bound.tensor = matrix;
  bound_matrices_[address] = bound;
}

coproc::MatrixRegFile& HostCore::matrix_regs() {
  if (!mregs_) throw IllegalInstruction("matrix registers absent on MC-core");
  return *mregs_;
}

coproc::SystolicArray& HostCore::systolic() {
  if (!sa_) throw IllegalInstruction("systolic array absent on MC-core");
  return *sa_;
}

coproc::CimMacro& HostCore::cim() {
  if (!cim_) throw IllegalInstruction("CIM macro absent on CC-core");
  return *cim_;
}

Cycle HostCore::execute(std::uint32_t word) {
  isa::Fields fields;
  if (!isa::decode(word, fields)) {
    throw IllegalInstruction("not an EdgeMM extension word");
  }
  const auto mnemonic = isa::mnemonic_from_fields(fields);
  if (!mnemonic) throw IllegalInstruction("unknown extension encoding");
  const DecodedView d{fields, *mnemonic};
  switch (fields.format) {
    case isa::Format::kMatrixMatrix: return exec_matrix(d);
    case isa::Format::kMatrixVector: return exec_matrix_vector(d);
    case isa::Format::kVectorVector: return exec_vector(d);
    case isa::Format::kConfig: return exec_config(d);
  }
  throw IllegalInstruction("unreachable format");
}

Cycle HostCore::run(std::span<const std::uint32_t> words) {
  Cycle total = 0;
  for (const std::uint32_t w : words) total += execute(w);
  return total;
}

Cycle HostCore::exec_matrix(const DecodedView& d) {
  if (kind_ != CoreKind::kComputeCentric) {
    throw IllegalInstruction("M-M instruction on a memory-centric core");
  }
  auto& regs = *mregs_;
  const auto& f = d.fields;
  const std::size_t rows = config_.systolic.rows;
  const std::size_t cols = config_.systolic.cols;

  switch (d.mnemonic) {
    case isa::Mnemonic::kMmMul: {
      // md += ms1 (acts, R×R when R==C) × ms2 (stationary weights R×C).
      if (rows != cols) {
        throw IllegalInstruction("mm.mul requires a square systolic array");
      }
      sa_->load_weights(regs.reg(f.ms2));
      Tensor product = sa_->multiply(regs.reg(f.ms1));
      Tensor& acc = regs.reg(f.md);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          acc.at(r, c) += product.at(r, c);
        }
      }
      return coproc::systolic_tile_cycles(config_.systolic, rows);
    }
    case isa::Mnemonic::kMmLd: {
      Tensor* src = lsu_slots_[f.ms1];
      if (src == nullptr) throw std::invalid_argument("mm.ld: LSU slot unbound");
      regs.write(f.md, *src);
      return static_cast<Cycle>(rows);  // one tile row per LSU beat
    }
    case isa::Mnemonic::kMmSt: {
      Tensor* dst = lsu_slots_[f.ms1];
      if (dst == nullptr) throw std::invalid_argument("mm.st: LSU slot unbound");
      *dst = regs.reg(f.md);
      return static_cast<Cycle>(rows);
    }
    case isa::Mnemonic::kMmZero:
      regs.clear(f.md);
      return 1;
    case isa::Mnemonic::kMmAdd: {
      const Tensor& a = regs.reg(f.ms1);
      const Tensor& b = regs.reg(f.ms2);
      Tensor& out = regs.reg(f.md);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          out.at(r, c) = a.at(r, c) + b.at(r, c);
        }
      }
      return static_cast<Cycle>(rows);  // vector unit sweeps row-by-row
    }
    default:
      throw IllegalInstruction("unhandled M-M mnemonic");
  }
}

Cycle HostCore::exec_matrix_vector(const DecodedView& d) {
  if (kind_ != CoreKind::kMemoryCentric) {
    throw IllegalInstruction("M-V instruction on a compute-centric core");
  }
  const auto& f = d.fields;
  const auto& cim_cfg = config_.cim;

  switch (d.mnemonic) {
    case isa::Mnemonic::kMvLdw: {
      const std::uint32_t address = xreg(f.rs1);
      auto it = bound_matrices_.find(address);
      if (it == bound_matrices_.end()) {
        throw std::invalid_argument("mv.ldw: no matrix bound at address");
      }
      BoundMatrix& bound = it->second;
      const Tensor& w = *bound.tensor;
      if (w.cols() > cim_cfg.columns) {
        throw std::invalid_argument(
            "mv.ldw: matrix wider than the macro; tile by column groups");
      }
      const std::size_t entries =
          (w.rows() + cim_cfg.tree_inputs - 1) / cim_cfg.tree_inputs;
      // Rejected before the wrap below, so a refused load leaves the
      // loaded matrices in place.
      if (entries > cim_cfg.entries) {
        throw std::invalid_argument("mv.ldw: matrix exceeds macro capacity");
      }
      if (next_free_entry_ + entries > cim_cfg.entries) {
        // Macro full: steady-state weight streaming simply wraps.
        next_free_entry_ = 0;
        for (auto& [addr, other] : bound_matrices_) other.loaded = false;
      }
      // Per-tensor symmetric quantization to the macro's weight width.
      const auto q = quantize_symmetric(w.flat(), cim_cfg.weight_bits);
      bound.weight_scale = q.scale;
      bound.first_entry = next_free_entry_;
      bound.entry_count = entries;
      // Pack row-chunks of R rows into entries, zero-padding the edges.
      for (std::size_t e = 0; e < entries; ++e) {
        std::vector<std::int32_t> tile(cim_cfg.tree_inputs * cim_cfg.columns, 0);
        for (std::size_t r = 0; r < cim_cfg.tree_inputs; ++r) {
          const std::size_t row = e * cim_cfg.tree_inputs + r;
          if (row >= w.rows()) break;
          for (std::size_t c = 0; c < w.cols(); ++c) {
            tile[r * cim_cfg.columns + c] = q.codes[row * w.cols() + c];
          }
        }
        cim_->write_entry(next_free_entry_ + e, tile);
      }
      next_free_entry_ += entries;
      bound.loaded = true;
      return static_cast<Cycle>(entries) * coproc::cim_entry_write_cycles(cim_cfg);
    }
    case isa::Mnemonic::kMvMul: {
      const std::uint32_t address = xreg(f.rs1);
      auto it = bound_matrices_.find(address);
      if (it == bound_matrices_.end() || !it->second.loaded) {
        throw std::invalid_argument("mv.mul: matrix not loaded (run mv.ldw first)");
      }
      const BoundMatrix& bound = it->second;
      const Tensor& w = *bound.tensor;
      const std::vector<float>& act = vregs_[f.vs1];
      if (act.size() != w.rows()) {
        throw std::invalid_argument("mv.mul: activation length must equal matrix rows");
      }
      // Quantize the activation vector for the bit-serial broadcast.
      const auto qa = quantize_symmetric(act, cim_cfg.act_bits);
      std::vector<std::int32_t> codes(bound.entry_count * cim_cfg.tree_inputs, 0);
      for (std::size_t i = 0; i < qa.codes.size(); ++i) codes[i] = qa.codes[i];
      const auto acc =
          cim_->gemv_long(bound.first_entry, bound.entry_count, codes);
      std::vector<float> out(w.cols());
      for (std::size_t c = 0; c < w.cols(); ++c) {
        out[c] = static_cast<float>(acc[c]) * qa.scale * bound.weight_scale;
      }
      vregs_[f.vd] = std::move(out);
      return coproc::cim_gemm_cycles(cim_cfg, bound.entry_count);
    }
    case isa::Mnemonic::kMvPrune: {
      const std::vector<float>& v = vregs_[f.vs1];
      const auto t = static_cast<double>(csrs_.read(isa::Csr::kPruneThresh));
      const std::size_t k = csrs_.read(isa::Csr::kPruneK);
      coproc::PruneOutcome outcome = pruner_.prune(v, k, t);
      csrs_.set_prune_count(static_cast<std::uint32_t>(outcome.n_above_threshold));
      vregs_[f.vd] = outcome.compacted;
      const Cycle cycles = coproc::ActAwarePruner::prune_cycles(outcome.kept.size());
      last_prune_ = std::move(outcome);
      return cycles;
    }
    default:
      throw IllegalInstruction("unhandled M-V mnemonic");
  }
}

Cycle HostCore::exec_vector(const DecodedView& d) {
  const auto& f = d.fields;
  const std::vector<float>& a = vregs_[f.vs1];
  const Cycle before = vu_.cycles_elapsed();
  switch (d.mnemonic) {
    case isa::Mnemonic::kVvAdd:
      vregs_[f.vd] = vu_.add(a, vregs_[f.vs2]);
      break;
    case isa::Mnemonic::kVvMul:
      vregs_[f.vd] = vu_.mul(a, vregs_[f.vs2]);
      break;
    case isa::Mnemonic::kVvMax:
      vregs_[f.vd] = vu_.max(a, vregs_[f.vs2]);
      break;
    case isa::Mnemonic::kVvAct:
      vregs_[f.vd] = vu_.activate(a, static_cast<isa::ActUop>(f.uop));
      break;
    case isa::Mnemonic::kVvCvt:
      // uop 0 = bf16 round-trip; other precisions round through int8.
      if (f.uop == 0) {
        vregs_[f.vd] = vu_.to_bf16(a);
      } else {
        const auto q = quantize_symmetric(a, 8);
        vregs_[f.vd] = dequantize(q);
      }
      break;
    default:
      throw IllegalInstruction("unhandled V-V mnemonic");
  }
  const Cycle charged = vu_.cycles_elapsed() - before;
  return charged > 0 ? charged : 1;
}

Cycle HostCore::exec_config(const DecodedView& d) {
  const auto& f = d.fields;
  switch (d.mnemonic) {
    case isa::Mnemonic::kCfgCsrW:
      csrs_.write(static_cast<isa::Csr>(f.csr), xreg(f.rs1));
      return 1;
    case isa::Mnemonic::kCfgCsrR:
      set_xreg(f.rs1, csrs_.read(static_cast<isa::Csr>(f.csr)));
      return 1;
    case isa::Mnemonic::kCfgSync:
      csrs_.bump_sync_epoch();
      return 1;
    default:
      throw IllegalInstruction("unhandled Config mnemonic");
  }
}

}  // namespace edgemm::core
