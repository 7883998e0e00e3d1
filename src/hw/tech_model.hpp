// 40 nm technology constants for the analytic accelerator cost model.
//
// The paper evaluates area and energy "via hardware synthesis targeting a
// 40nm technology" with a CACTI-style memory model [14]. A proprietary
// synthesis flow and its cell library are out of reach, so we substitute an
// analytic model whose constants are calibrated so that the paper's baseline
// design point (53 features, unbudgeted SV set, 64-bit datapath) lands near
// the paper's reported ~2000 nJ / ~0.4 mm^2, and whose *scaling* with memory
// bits, operator widths and operation counts reproduces the paper's relative
// gains. All constants live here, in one place, with their provenance.
//
// Model structure:
//  * SRAM macro: area = bits * area_per_bit + fixed periphery; read energy =
//    (fixed access + per-bit) * (1 + 0.5 * sqrt(capacity / reference)) -- the
//    square-root capacity term is the classic CACTI wordline/bitline scaling.
//  * Multiplier: area and switching energy scale with b1*b2 (array
//    multiplier); adders/registers scale linearly in width.
//  * Every MAC1 cycle pays a width-independent clock/control overhead -- in
//    low-power serial designs this infrastructure cost is a large share of
//    total energy and is what keeps the paper's bit-width gains at ~3x
//    rather than the ~50x a pure b^2 model would predict.
//  * Static (leakage + clock-tree) power is proportional to area and is paid
//    over the classification latency.
#pragma once

namespace svt::hw {

struct TechModel {
  // --- SRAM (CACTI-flavoured) ---------------------------------------------
  double sram_area_um2_per_bit = 0.6;      ///< 40 nm 6T bitcell + local overhead.
  double sram_periphery_um2 = 3000.0;      ///< Decoder/sense-amp floor per macro.
  double sram_access_fixed_pj = 4.0;       ///< Per-access periphery energy.
  double sram_access_pj_per_bit = 0.03;    ///< Per read bit.
  double sram_reference_bits = 16384.0;    ///< Capacity normalisation (16 kbit).
  double sram_capacity_exponent = 0.5;     ///< sqrt scaling of access energy.
  double sram_capacity_slope = 0.5;        ///< Weight of the capacity term.

  // --- Arithmetic operators -------------------------------------------------
  double mult_area_um2_per_bit2 = 2.5;     ///< Array multiplier area / (b1*b2).
  double mult_area_floor_um2 = 50.0;
  double adder_area_um2_per_bit = 15.0;    ///< Adder + pipeline register, per bit.
  double mult_energy_pj_per_bit2 = 0.021;  ///< Switching energy / (b1*b2).
  double mult_energy_pj_per_bit = 0.15;    ///< Linear (wiring/glitch) term on b1+b2.
  double stage_op_overhead_pj = 5.0;       ///< Register/flop energy per stage op.

  // --- Whole-pipeline infrastructure ----------------------------------------
  double cycle_overhead_pj = 35.0;   ///< Clock tree + control per MAC1 cycle.
  double control_area_um2 = 5000.0;  ///< FSM, scale-factor shifters, I/O.
  double static_power_mw_per_mm2 = 2.0;  ///< Leakage + clock distribution.
  double clock_mhz = 10.0;           ///< Low-power operating point.
};

/// The calibrated default model used by every experiment.
inline TechModel default_tech_model() { return TechModel{}; }

}  // namespace svt::hw
