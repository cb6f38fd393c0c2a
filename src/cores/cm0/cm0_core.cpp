#include "cores/cm0/cm0_core.h"

#include "isa/thumb_encoding.h"

namespace pdat::cores {

using synth::Builder;
using synth::Bus;

namespace {

Bus reversed(const Bus& a) { return Bus(a.rbegin(), a.rend()); }

Bus barrel_right_fill(Builder& b, const Bus& a, const Bus& amt5, NetId fill) {
  Bus cur = a;
  for (std::size_t s = 0; s < amt5.size(); ++s) {
    const std::size_t k = std::size_t{1} << s;
    Bus shifted(cur.size());
    for (std::size_t i = 0; i < cur.size(); ++i) {
      shifted[i] = (i + k < cur.size()) ? cur[i + k] : fill;
    }
    cur = b.mux(amt5[s], cur, shifted);
  }
  return cur;
}

Bus rotate_right(Builder& b, const Bus& a, const Bus& amt5) {
  Bus cur = a;
  for (std::size_t s = 0; s < amt5.size(); ++s) {
    const std::size_t k = std::size_t{1} << s;
    Bus rotated(cur.size());
    for (std::size_t i = 0; i < cur.size(); ++i) {
      rotated[i] = cur[(i + k) % cur.size()];
    }
    cur = b.mux(amt5[s], cur, rotated);
  }
  return cur;
}

/// Predicate: (half & mask) == match over a 16-bit bus.
NetId match16(Builder& b, const Bus& half, std::uint32_t match, std::uint32_t mask) {
  std::vector<NetId> terms;
  for (int i = 0; i < 16; ++i) {
    if ((mask >> i) & 1) {
      terms.push_back(((match >> i) & 1) ? half[static_cast<std::size_t>(i)]
                                         : b.not_(half[static_cast<std::size_t>(i)]));
    }
  }
  return b.all(terms);
}

}  // namespace

Cm0Core build_cm0(const Cm0Config& cfg) {
  Cm0Core core;
  Builder b(core.netlist);
  const NetId c0 = b.bit(false);
  const NetId c1 = b.bit(true);

  const Bus imem_rdata = b.input("imem_rdata", 16);
  const Bus dmem_rdata = b.input("dmem_rdata", 32);

  // ------------------------------------------------------------------ state
  auto pc = b.reg_decl(32, 0);                      // address of instr in EX
  auto instr = b.reg_decl(16, cfg.instr_reset_value);
  auto valid = b.reg_decl(1, 0);
  auto halted = b.reg_decl(1, 0);
  auto fn = b.reg_decl(1, 0), fz = b.reg_decl(1, 0), fc = b.reg_decl(1, 0), fv = b.reg_decl(1, 0);
  auto wide_pending = b.reg_decl(1, 0);
  auto wide_first = b.reg_decl(16, 0);
  // Transfer sequencer.
  auto mt_active = b.reg_decl(1, 0);
  auto mt_list = b.reg_decl(9, 0);
  auto mt_addr = b.reg_decl(32, 0);
  auto mt_is_load = b.reg_decl(1, 0);
  auto mt_pop = b.reg_decl(1, 0);  // pop: bit8 loads PC (else stm/ldm/push)
  // Serial multiplier.
  auto mul_busy = b.reg_decl(1, 0);
  auto mul_cnt = b.reg_decl(5, 0);
  auto mul_acc = b.reg_decl(32, 0);
  auto mul_a = b.reg_decl(32, 0);
  auto mul_b = b.reg_decl(32, 0);

  // ---------------------------------------------------------------- regfile
  std::vector<Builder::RegHandle> regs(15);
  std::vector<Bus> reg_q(16);
  for (int i = 0; i < 15; ++i) {
    regs[static_cast<std::size_t>(i)] =
        b.reg_decl(32, i == 13 ? cfg.sp_reset : 0);
    reg_q[static_cast<std::size_t>(i)] = regs[static_cast<std::size_t>(i)].q;
  }
  const Bus pc_read = b.add_const(pc.q, 4);
  reg_q[15] = pc_read;

  const NetId run =
      b.and_(valid.q[0], b.and_(b.not_(halted.q[0]), b.not_(wide_pending.q[0])));
  const NetId wide_exec = b.and_(valid.q[0], b.and_(b.not_(halted.q[0]), wide_pending.q[0]));

  // ------------------------------------------------------------------ decode
  const Bus hw = instr.q;
  auto m = [&](const char* name) {
    const auto& spec = isa::thumb_instr(name);
    return match16(b, hw, spec.match & 0xffff, spec.mask & 0xffff);
  };
  const NetId d_lsls = m("lsls");
  const NetId d_lsrs = m("lsrs");
  const NetId d_asrs = m("asrs");
  const NetId d_adds = m("adds");
  const NetId d_subs = m("subs");
  const NetId d_adds3 = m("adds.i3");
  const NetId d_subs3 = m("subs.i3");
  const NetId d_movs8 = m("movs.i8");
  const NetId d_cmp8 = m("cmp.i8");
  const NetId d_adds8 = m("adds.i8");
  const NetId d_subs8 = m("subs.i8");
  const NetId d_ands = m("ands");
  const NetId d_eors = m("eors");
  const NetId d_lslr = m("lsls.r");
  const NetId d_lsrr = m("lsrs.r");
  const NetId d_asrr = m("asrs.r");
  const NetId d_adcs = m("adcs");
  const NetId d_sbcs = m("sbcs");
  const NetId d_rors = m("rors");
  const NetId d_tst = m("tst");
  const NetId d_rsbs = m("rsbs");
  const NetId d_cmpr = m("cmp.r");
  const NetId d_cmn = m("cmn");
  const NetId d_orrs = m("orrs");
  const NetId d_muls = m("muls");
  const NetId d_bics = m("bics");
  const NetId d_mvns = m("mvns");
  const NetId d_addhi = m("add.hi");
  const NetId d_cmphi = m("cmp.hi");
  const NetId d_movhi = m("mov.hi");
  const NetId d_bx = m("bx");
  const NetId d_blx = m("blx");
  const NetId d_ldrlit = m("ldr.lit");
  const NetId d_strr = m("str.r");
  const NetId d_strhr = m("strh.r");
  const NetId d_strbr = m("strb.r");
  const NetId d_ldrsb = m("ldrsb");
  const NetId d_ldrr = m("ldr.r");
  const NetId d_ldrhr = m("ldrh.r");
  const NetId d_ldrbr = m("ldrb.r");
  const NetId d_ldrsh = m("ldrsh");
  const NetId d_stri = m("str.i");
  const NetId d_ldri = m("ldr.i");
  const NetId d_strbi = m("strb.i");
  const NetId d_ldrbi = m("ldrb.i");
  const NetId d_strhi = m("strh.i");
  const NetId d_ldrhi = m("ldrh.i");
  const NetId d_strsp = m("str.sp");
  const NetId d_ldrsp = m("ldr.sp");
  const NetId d_adr = m("adr");
  const NetId d_addspi = m("add.spi8");
  const NetId d_addsp7 = m("add.sp7");
  const NetId d_subsp7 = m("sub.sp7");
  const NetId d_sxth = m("sxth");
  const NetId d_sxtb = m("sxtb");
  const NetId d_uxth = m("uxth");
  const NetId d_uxtb = m("uxtb");
  const NetId d_push = m("push");
  const NetId d_pop = m("pop");
  const NetId d_cps = m("cps");
  const NetId d_rev = m("rev");
  const NetId d_rev16 = m("rev16");
  const NetId d_revsh = m("revsh");
  const NetId d_bkpt = m("bkpt");
  const NetId d_nop = m("nop");
  const NetId d_yield = m("yield");
  const NetId d_wfe = m("wfe");
  const NetId d_wfi = m("wfi");
  const NetId d_sev = m("sev");
  const NetId d_stm = m("stm");
  const NetId d_ldm = m("ldm");
  NetId d_bcond = m("b.cond");
  const NetId d_udf = m("udf");
  const NetId d_svc = m("svc");
  const NetId d_b = m("b");
  // Exclude the udf/svc condition codes from b.cond.
  d_bcond = b.and_(d_bcond, b.not_(b.and_(hw[11], b.and_(hw[10], hw[9]))));
  // Wide prefix (three top-bit patterns 11101/11110/11111).
  const NetId is_wide_prefix =
      b.and_(b.and_(hw[15], hw[14]), b.and_(hw[13], b.or_(hw[12], hw[11])));

  const NetId known16 = b.any(Bus{
      d_lsls, d_lsrs, d_asrs, d_adds, d_subs, d_adds3, d_subs3, d_movs8, d_cmp8, d_adds8,
      d_subs8, d_ands, d_eors, d_lslr, d_lsrr, d_asrr, d_adcs, d_sbcs, d_rors, d_tst,
      d_rsbs, d_cmpr, d_cmn, d_orrs, d_muls, d_bics, d_mvns, d_addhi, d_cmphi, d_movhi,
      d_bx, d_blx, d_ldrlit, d_strr, d_strhr, d_strbr, d_ldrsb, d_ldrr, d_ldrhr, d_ldrbr,
      d_ldrsh, d_stri, d_ldri, d_strbi, d_ldrbi, d_strhi, d_ldrhi, d_strsp, d_ldrsp, d_adr,
      d_addspi, d_addsp7, d_subsp7, d_sxth, d_sxtb, d_uxth, d_uxtb, d_push, d_pop, d_cps,
      d_rev, d_rev16, d_revsh, d_bkpt, d_nop, d_yield, d_wfe, d_wfi, d_sev, d_stm, d_ldm,
      d_bcond, d_udf, d_svc, d_b, is_wide_prefix});

  // Wide (second-cycle) decode over {wide_first, hw}.
  auto mwide = [&](const char* name) {
    const auto& spec = isa::thumb_instr(name);
    return b.and_(match16(b, wide_first.q, spec.match & 0xffff, spec.mask & 0xffff),
                  match16(b, hw, (spec.match >> 16) & 0xffff, (spec.mask >> 16) & 0xffff));
  };
  const NetId w_bl = mwide("bl");
  const NetId w_msr = mwide("msr");
  const NetId w_mrs = mwide("mrs");
  const NetId w_dmb = mwide("dmb");
  const NetId w_dsb = mwide("dsb");
  const NetId w_isb = mwide("isb");
  const NetId known_wide = b.any(Bus{w_bl, w_msr, w_mrs, w_dmb, w_dsb, w_isb});

  // ------------------------------------------------------------------ fields
  const Bus rd3 = synth::Builder::slice(hw, 0, 3);
  const Bus rm3 = synth::Builder::slice(hw, 3, 3);
  const Bus rn3 = synth::Builder::slice(hw, 6, 3);
  const Bus rd_hi = {hw[0], hw[1], hw[2], hw[7]};
  const Bus rm4 = synth::Builder::slice(hw, 3, 4);
  const Bus rdi8 = synth::Builder::slice(hw, 8, 3);
  const Bus imm5 = synth::Builder::slice(hw, 6, 5);
  const Bus imm3 = synth::Builder::slice(hw, 6, 3);
  const Bus imm8 = synth::Builder::slice(hw, 0, 8);
  const Bus imm7 = synth::Builder::slice(hw, 0, 7);
  const Bus imm11 = synth::Builder::slice(hw, 0, 11);

  const NetId is_i8_fmt = b.any(Bus{d_movs8, d_cmp8, d_adds8, d_subs8});
  const NetId is_hi_fmt = b.any(Bus{d_addhi, d_cmphi, d_movhi});
  const NetId is_ls_rt = b.any(Bus{d_strr, d_strhr, d_strbr, d_ldrsb, d_ldrr, d_ldrhr, d_ldrbr,
                                   d_ldrsh, d_stri, d_ldri, d_strbi, d_ldrbi, d_strhi, d_ldrhi});
  const NetId is_sp_ls = b.or_(d_strsp, d_ldrsp);
  const NetId is_ldrlit_adr_spi = b.any(Bus{d_ldrlit, d_adr, d_addspi});

  // --- transfer sequencer helper values ------------------------------------
  const Bus list9 = {hw[0], hw[1], hw[2], hw[3], hw[4], hw[5], hw[6], hw[7], hw[8]};
  const NetId is_xfer = b.any(Bus{d_push, d_pop, d_stm, d_ldm});
  // count*4 (bytes moved).
  Bus cnt4 = b.constant(0, 32);
  {
    const NetId use_bit8 = b.or_(d_push, d_pop);  // stm/ldm ignore bit 8
    for (int i = 0; i < 9; ++i) {
      const NetId bit = i == 8 ? b.and_(list9[8], use_bit8) : list9[static_cast<std::size_t>(i)];
      Bus add4 = b.constant(0, 32);
      add4[2] = bit;
      cnt4 = b.add(cnt4, add4);
    }
  }
  // Lowest set bit of the live transfer list.
  std::vector<NetId> low_oh(9);
  {
    NetId seen = c0;
    for (int i = 0; i < 9; ++i) {
      low_oh[static_cast<std::size_t>(i)] = b.and_(mt_list.q[static_cast<std::size_t>(i)], b.not_(seen));
      seen = b.or_(seen, mt_list.q[static_cast<std::size_t>(i)]);
    }
  }
  // Remaining list after clearing the lowest bit.
  Bus list_next(9);
  for (int i = 0; i < 9; ++i) {
    list_next[static_cast<std::size_t>(i)] =
        b.and_(mt_list.q[static_cast<std::size_t>(i)], b.not_(low_oh[static_cast<std::size_t>(i)]));
  }
  const NetId mt_last = b.is_zero(list_next);
  // Register index of the current transfer (bit 8 -> r14 for push, PC for pop).
  Bus mt_reg(4);
  {
    Bus idx = b.constant(0, 4);
    for (int i = 1; i < 8; ++i) {
      Bus v = b.constant(static_cast<std::uint64_t>(i), 4);
      idx = b.mux(low_oh[static_cast<std::size_t>(i)], idx, v);
    }
    idx = b.mux(low_oh[8], idx, b.constant(14, 4));
    mt_reg = idx;
  }
  const NetId mt_is_pc = b.and_(low_oh[8], mt_pop.q[0]);

  // ------------------------------------------------------------- read ports
  // Port A: the "destination-as-source" value (dp accumulator, store data,
  // hi-reg Rd); during transfers it reads the register being stored.
  Bus idxA = b.zext(rd3, 4);
  idxA = b.mux(is_i8_fmt, idxA, b.zext(rdi8, 4));
  idxA = b.mux(is_hi_fmt, idxA, rd_hi);
  idxA = b.mux(is_ls_rt, idxA, b.zext(rd3, 4));
  idxA = b.mux(is_sp_ls, idxA, b.zext(rdi8, 4));
  idxA = b.mux(mt_active.q[0], idxA, mt_reg);
  // Port B: Rm (3- or 4-bit field).
  Bus idxB = b.zext(rm3, 4);
  idxB = b.mux(b.any(Bus{is_hi_fmt, d_bx, d_blx}), idxB, rm4);
  // Port C: Rn (adds/subs reg+imm3, loads/stores base, stm/ldm base).
  const Bus idxC = b.zext(rm3, 4);  // note: base register field is bits 5:3
  const Bus idxC2 = b.zext(rn3, 4); // index/offset register field is bits 8:6

  std::vector<Bus> reg_q16 = reg_q;
  const Bus valA = b.mux_tree(idxA, reg_q16);
  const Bus valB = b.mux_tree(idxB, reg_q16);
  const Bus valC = b.mux_tree(idxC, reg_q16);
  const Bus valC2 = b.mux_tree(idxC2, reg_q16);
  const Bus sp_val = reg_q[13];

  // For AddSubReg formats: operands are Rn (bits 5:3) and Rm (bits 8:6).
  const Bus rn_val = valC;   // bits 5:3
  const Bus rm_off = valC2;  // bits 8:6

  // ---------------------------------------------------------------- shifter
  const NetId is_shift_imm = b.any(Bus{d_lsls, d_lsrs, d_asrs});
  const NetId is_shift_reg = b.any(Bus{d_lslr, d_lsrr, d_asrr, d_rors});
  const NetId sh_left = b.or_(d_lsls, d_lslr);
  const NetId sh_arith = b.or_(d_asrs, d_asrr);
  const NetId sh_ror = d_rors;
  const Bus sh_val = b.mux(is_shift_imm, valA, valB);  // imm form shifts Rm
  // Effective 8-bit amount.
  Bus amt8 = b.zext(imm5, 8);
  const NetId imm5_zero = b.is_zero(imm5);
  // lsr/asr imm5==0 means 32.
  const NetId imm_is_32 = b.and_(is_shift_imm, b.and_(imm5_zero, b.not_(d_lsls)));
  amt8 = b.mux(imm_is_32, amt8, b.constant(32, 8));
  amt8 = b.mux(is_shift_reg, amt8, synth::Builder::slice(valB, 0, 8));
  const Bus amt5 = synth::Builder::slice(amt8, 0, 5);
  const NetId amt_zero = b.is_zero(amt8);
  const NetId ge32 = b.any(Bus{amt8[5], amt8[6], amt8[7]});
  const NetId exact32 = b.and_(ge32, b.and_(b.is_zero(amt5), b.not_(b.or_(amt8[6], amt8[7]))));

  const NetId sign_bit = sh_val[31];
  const Bus right_fill = Bus{b.and_(sh_arith, sign_bit)};
  const Bus rsh = barrel_right_fill(b, sh_val, amt5, right_fill[0]);
  const Bus lsh = reversed(barrel_right_fill(b, reversed(sh_val), amt5, c0));
  const Bus ror_res_raw = rotate_right(b, sh_val, amt5);

  // Results with >=32 handling.
  const Bus sign_fill = b.mux(sign_bit, b.constant(0, 32), b.constant(0xffffffff, 32));
  Bus sh_res = b.mux(sh_left, rsh, lsh);
  Bus sh_ge32_res = b.mux(sh_arith, b.constant(0, 32), sign_fill);
  sh_res = b.mux(ge32, sh_res, sh_ge32_res);
  sh_res = b.mux(sh_ror, sh_res, ror_res_raw);
  sh_res = b.mux(amt_zero, sh_res, sh_val);

  // Carry out of the shifter.
  // lsl: amt<=31 -> bit0 of (v >> (32-amt)); amt==32 -> v[0]; else 0.
  Bus neg_amt5(5);
  {
    const Bus na = b.add_const(b.not_(amt5), 1);
    neg_amt5 = synth::Builder::slice(na, 0, 5);
  }
  const NetId c_lsl_31 = barrel_right_fill(b, sh_val, neg_amt5, c0)[0];
  NetId c_lsl = b.mux(ge32, c_lsl_31, b.mux(exact32, c0, sh_val[0]));
  // lsr/asr: amt<=31 -> bit(amt-1); lsr amt==32 -> v[31]; asr >=32 -> v[31];
  // lsr >32 -> 0.
  Bus amt5_m1(5);
  {
    const Bus am = b.add_const(amt5, 31);  // amt-1 mod 32
    amt5_m1 = synth::Builder::slice(am, 0, 5);
  }
  const NetId c_r_31 = barrel_right_fill(b, sh_val, amt5_m1, c0)[0];
  NetId c_lsr = b.mux(ge32, c_r_31, b.mux(exact32, c0, sign_bit));
  NetId c_asr = b.mux(ge32, c_r_31, sign_bit);
  NetId c_ror = sh_res[31];
  NetId sh_carry = b.mux(sh_left, b.mux(sh_arith, c_lsr, c_asr), c_lsl);
  sh_carry = b.mux(sh_ror, sh_carry, c_ror);
  sh_carry = b.mux(amt_zero, sh_carry, fc.q[0]);

  // ------------------------------------------------------------------- adder
  // op1 + op2 + cin with NZCV.
  const NetId is_sub_like = b.any(Bus{d_subs, d_subs3, d_subs8, d_cmp8, d_cmpr, d_cmphi, d_sbcs,
                                      d_rsbs});
  Bus add_op1 = valA;  // default accumulator (adds.i8 etc.)
  add_op1 = b.mux(b.any(Bus{d_adds, d_subs, d_adds3, d_subs3}), add_op1, rn_val);
  add_op1 = b.mux(d_rsbs, add_op1, b.constant(0, 32));
  Bus add_op2 = valB;
  add_op2 = b.mux(b.any(Bus{d_adds, d_subs}), add_op2, rm_off);
  add_op2 = b.mux(b.any(Bus{d_adds3, d_subs3}), add_op2, b.zext(imm3, 32));
  add_op2 = b.mux(b.any(Bus{d_cmp8, d_adds8, d_subs8}), add_op2, b.zext(imm8, 32));
  add_op2 = b.mux(d_rsbs, add_op2, valB);
  const NetId use_carry = b.or_(d_adcs, d_sbcs);
  Bus op2_final = b.mux(is_sub_like, add_op2, b.not_(add_op2));
  NetId cin = b.mux(is_sub_like, c0, c1);
  cin = b.mux(use_carry, cin, fc.q[0]);
  NetId cout = c0;
  const Bus sum = b.add(add_op1, op2_final, cin, &cout);
  // Overflow: operands same sign (post-inversion), result different.
  const NetId ovf = b.and_(b.xnor_(add_op1[31], op2_final[31]), b.xor_(add_op1[31], sum[31]));

  // -------------------------------------------------------------- logic unit
  Bus logic_res = b.and_(valA, valB);                       // ands/tst
  logic_res = b.mux(d_eors, logic_res, b.xor_(valA, valB));
  logic_res = b.mux(d_orrs, logic_res, b.or_(valA, valB));
  logic_res = b.mux(d_bics, logic_res, b.and_(valA, b.not_(valB)));
  logic_res = b.mux(d_mvns, logic_res, b.not_(valB));
  const NetId is_logic = b.any(Bus{d_ands, d_eors, d_orrs, d_bics, d_mvns, d_tst});

  // ---------------------------------------------------------- extend and rev
  Bus ext_res = b.zext(synth::Builder::slice(valB, 0, 8), 32);        // uxtb
  ext_res = b.mux(d_uxth, ext_res, b.zext(synth::Builder::slice(valB, 0, 16), 32));
  ext_res = b.mux(d_sxtb, ext_res, b.sext(synth::Builder::slice(valB, 0, 8), 32));
  ext_res = b.mux(d_sxth, ext_res, b.sext(synth::Builder::slice(valB, 0, 16), 32));
  const Bus byte0 = synth::Builder::slice(valB, 0, 8);
  const Bus byte1 = synth::Builder::slice(valB, 8, 8);
  const Bus byte2 = synth::Builder::slice(valB, 16, 8);
  const Bus byte3 = synth::Builder::slice(valB, 24, 8);
  Bus rev_res = synth::Builder::concat(synth::Builder::concat(byte3, byte2),
                                       synth::Builder::concat(byte1, byte0));
  rev_res = b.mux(d_rev16, rev_res,
                  synth::Builder::concat(synth::Builder::concat(byte1, byte0),
                                         synth::Builder::concat(byte3, byte2)));
  rev_res = b.mux(d_revsh, rev_res, b.sext(synth::Builder::concat(byte1, byte0), 32));
  const NetId is_ext_rev = b.any(Bus{d_sxth, d_sxtb, d_uxth, d_uxtb, d_rev, d_rev16, d_revsh});

  // ------------------------------------------------------------------ muls
  const NetId mul_req = b.and_(run, d_muls);
  const NetId mul_start = b.and_(mul_req, b.not_(mul_busy.q[0]));
  const NetId mul_last = b.and_(mul_busy.q[0], b.eq_const(mul_cnt.q, 31));
  const NetId mul_stall = b.and_(mul_req, b.not_(mul_last));
  const Bus acc_next =
      b.mux(mul_b.q[0], mul_acc.q, b.add(mul_acc.q, mul_a.q));
  Bus mul_a_next = synth::Builder::slice(mul_a.q, 0, 31);
  mul_a_next.insert(mul_a_next.begin(), c0);
  const Bus mul_b_next = b.zext(synth::Builder::slice(mul_b.q, 1, 31), 32);
  b.connect(mul_busy, Bus{b.mux(mul_start, b.and_(mul_busy.q[0], b.not_(mul_last)), c1)});
  b.connect(mul_cnt, b.mux(mul_start, b.mux(mul_busy.q[0], mul_cnt.q, b.add_const(mul_cnt.q, 1)),
                           b.constant(0, 5)));
  b.connect(mul_acc, b.mux(mul_start, b.mux(mul_busy.q[0], mul_acc.q, acc_next),
                           b.constant(0, 32)));
  b.connect(mul_a, b.mux(mul_start, b.mux(mul_busy.q[0], mul_a.q, mul_a_next), valA));
  b.connect(mul_b, b.mux(mul_start, b.mux(mul_busy.q[0], mul_b.q, mul_b_next), valB));
  const Bus mul_result = acc_next;

  // --------------------------------------------------------------- LSU -----
  const NetId is_load16 = b.any(Bus{d_ldrr, d_ldrhr, d_ldrbr, d_ldrsb, d_ldrsh, d_ldri, d_ldrbi,
                                    d_ldrhi, d_ldrsp, d_ldrlit});
  const NetId is_store16 = b.any(Bus{d_strr, d_strhr, d_strbr, d_stri, d_strbi, d_strhi, d_strsp});
  // Base.
  Bus ls_base = valC;  // Rn in bits 5:3
  ls_base = b.mux(b.or_(is_sp_ls, d_addspi), ls_base, sp_val);
  Bus pc_al = pc_read;
  pc_al[0] = c0;
  pc_al[1] = c0;
  ls_base = b.mux(b.or_(d_ldrlit, d_adr), ls_base, pc_al);
  // Offset.
  const NetId is_ls_regoff = b.any(Bus{d_strr, d_strhr, d_strbr, d_ldrsb, d_ldrr, d_ldrhr,
                                       d_ldrbr, d_ldrsh});
  Bus ls_off = b.zext(imm5, 32);  // scaled below
  {
    // scale: word forms <<2, half forms <<1, byte forms <<0
    const NetId word_i = b.or_(d_stri, d_ldri);
    const NetId half_i = b.or_(d_strhi, d_ldrhi);
    Bus off_b = b.zext(imm5, 32);
    Bus off_h = b.zext(synth::Builder::concat(Bus{c0}, imm5), 32);
    Bus off_w = b.zext(synth::Builder::concat(Bus{c0, c0}, imm5), 32);
    ls_off = b.mux(word_i, off_b, off_w);
    ls_off = b.mux(half_i, ls_off, off_h);
  }
  const Bus imm8x4 = b.zext(synth::Builder::concat(Bus{c0, c0}, imm8), 32);
  ls_off = b.mux(b.any(Bus{is_sp_ls, d_ldrlit, d_adr, d_addspi}), ls_off, imm8x4);
  ls_off = b.mux(is_ls_regoff, ls_off, rm_off);
  const Bus ls_addr16 = b.add(ls_base, ls_off);

  // Transfer sequencer address wins while active.
  const NetId mt_xfer = b.and_(b.and_(valid.q[0], b.not_(halted.q[0])), mt_active.q[0]);
  const Bus dmem_addr = b.mux(mt_xfer, ls_addr16, mt_addr.q);

  const NetId dmem_re =
      b.or_(b.and_(run, is_load16), b.and_(mt_xfer, mt_is_load.q[0]));
  const NetId dmem_we =
      b.or_(b.and_(run, is_store16), b.and_(mt_xfer, b.not_(mt_is_load.q[0])));

  // Load extraction (same word-interface scheme as the Ibex-like core).
  const Bus off2 = synth::Builder::slice(dmem_addr, 0, 2);
  const Bus mb0 = synth::Builder::slice(dmem_rdata, 0, 8);
  const Bus mb1 = synth::Builder::slice(dmem_rdata, 8, 8);
  const Bus mb2 = synth::Builder::slice(dmem_rdata, 16, 8);
  const Bus mb3 = synth::Builder::slice(dmem_rdata, 24, 8);
  const Bus sel_byte = b.mux_tree(off2, {mb0, mb1, mb2, mb3});
  const Bus sel_half = b.mux(dmem_addr[1], synth::Builder::slice(dmem_rdata, 0, 16),
                             synth::Builder::slice(dmem_rdata, 16, 16));
  const NetId ld_byte = b.any(Bus{d_ldrbr, d_ldrbi, d_ldrsb});
  const NetId ld_half = b.any(Bus{d_ldrhr, d_ldrhi, d_ldrsh});
  const NetId ld_signed = b.or_(d_ldrsb, d_ldrsh);
  Bus load_data = dmem_rdata;
  {
    const NetId bsign = b.and_(ld_signed, sel_byte[7]);
    Bus lb = sel_byte;
    for (int i = 8; i < 32; ++i) lb.push_back(bsign);
    const NetId hsign = b.and_(ld_signed, sel_half[15]);
    Bus lh = sel_half;
    for (int i = 16; i < 32; ++i) lh.push_back(hsign);
    load_data = b.mux(ld_half, load_data, lh);
    load_data = b.mux(ld_byte, load_data, lb);
  }

  // Store data / byte enables.
  const NetId st_byte = b.any(Bus{d_strbr, d_strbi});
  const NetId st_half = b.any(Bus{d_strhr, d_strhi});
  Bus st_data = valA;  // Rt read through port A
  {
    Bus half2 = synth::Builder::concat(synth::Builder::slice(valA, 0, 16),
                                       synth::Builder::slice(valA, 0, 16));
    Bus byte4 = synth::Builder::slice(valA, 0, 8);
    byte4 = synth::Builder::concat(byte4, byte4);
    byte4 = synth::Builder::concat(byte4, byte4);
    st_data = b.mux(st_half, st_data, half2);
    st_data = b.mux(st_byte, st_data, byte4);
  }
  const std::vector<NetId> off_oh = b.decode(off2);
  Bus be = b.constant(0xf, 4);
  {
    const Bus be_b = {off_oh[0], off_oh[1], off_oh[2], off_oh[3]};
    const Bus be_h = {b.not_(dmem_addr[1]), b.not_(dmem_addr[1]), dmem_addr[1], dmem_addr[1]};
    be = b.mux(st_half, be, be_h);
    be = b.mux(st_byte, be, be_b);
  }

  // ------------------------------------------------------------ write ports
  // Collected as (we, idx, value) resolved by priority mux below.
  const NetId is_dp_wr = b.any(Bus{d_ands, d_eors, d_orrs, d_bics, d_mvns, d_adcs, d_sbcs,
                                   d_rsbs});
  const NetId is_add_fmt_wr =
      b.any(Bus{d_adds, d_subs, d_adds3, d_subs3, d_adds8, d_subs8});

  // Value mux.
  Bus wr_val = sum;
  wr_val = b.mux(b.or_(is_shift_imm, is_shift_reg), wr_val, sh_res);
  wr_val = b.mux(is_logic, wr_val, logic_res);
  const NetId is_rev_any = b.any(Bus{d_rev, d_rev16, d_revsh});
  wr_val = b.mux(is_ext_rev, wr_val, b.mux(is_rev_any, ext_res, rev_res));
  wr_val = b.mux(d_movs8, wr_val, b.zext(imm8, 32));
  wr_val = b.mux(b.or_(d_movhi, d_addhi), wr_val,
                 b.mux(d_addhi, valB, b.add(valA, valB)));
  wr_val = b.mux(is_load16, wr_val, load_data);
  wr_val = b.mux(b.or_(d_adr, d_addspi), wr_val, ls_addr16);
  wr_val = b.mux(b.or_(d_addsp7, d_subsp7), wr_val,
                 b.mux(d_subsp7,
                       b.add(sp_val, b.zext(synth::Builder::concat(Bus{c0, c0}, imm7), 32)),
                       b.sub(sp_val, b.zext(synth::Builder::concat(Bus{c0, c0}, imm7), 32))));
  wr_val = b.mux(b.and_(d_muls, mul_last), wr_val, mul_result);

  // Destination index.
  Bus wr_idx = b.zext(rd3, 4);
  wr_idx = b.mux(is_i8_fmt, wr_idx, b.zext(rdi8, 4));
  wr_idx = b.mux(is_hi_fmt, wr_idx, rd_hi);
  wr_idx = b.mux(b.or_(is_sp_ls, is_ldrlit_adr_spi), wr_idx, b.zext(rdi8, 4));
  wr_idx = b.mux(b.or_(d_addsp7, d_subsp7), wr_idx, b.constant(13, 4));

  const NetId movhi_to_pc = b.and_(b.or_(d_movhi, d_addhi), b.eq_const(rd_hi, 15));
  NetId wr_en16 = b.any(Bus{
      is_dp_wr, is_add_fmt_wr, is_shift_imm, is_shift_reg, b.and_(is_logic, b.not_(d_tst)),
      is_ext_rev, d_movs8, is_load16, d_adr, d_addspi, d_addsp7, d_subsp7,
      b.and_(d_muls, mul_last)});
  wr_en16 = b.or_(wr_en16, b.and_(b.or_(d_movhi, d_addhi), b.not_(movhi_to_pc)));

  // ------------------------------------------------------ transfer sequencer
  const NetId is_stm_ldm = b.or_(d_stm, d_ldm);
  const NetId xfer_setup = b.and_(run, b.and_(is_xfer, b.not_(mt_active.q[0])));
  // Base register value: SP for push/pop, Rn (bits 10:8) for stm/ldm — read
  // through port A, whose index gains an stm/ldm arm below. Since idxA was
  // already used to build valA, add a dedicated port D for the base.
  const Bus valD = b.mux_tree(b.zext(rdi8, 4), reg_q16);
  const Bus xfer_base = b.mux(is_stm_ldm, sp_val, valD);
  const Bus base_plus = b.add(xfer_base, cnt4);
  const Bus base_minus = b.sub(xfer_base, cnt4);
  const Bus xfer_wb_val = b.mux(d_push, base_plus, base_minus);
  const Bus mt_start_addr = b.mux(d_push, xfer_base, base_minus);
  // Effective list (stm/ldm ignore bit 8).
  Bus list_eff = list9;
  list_eff[8] = b.and_(list9[8], b.or_(d_push, d_pop));
  const NetId list_nonzero = b.not_(b.is_zero(list_eff));
  // ldm with Rn in the list: no writeback.
  std::vector<Bus> list_bits;
  for (int i = 0; i < 8; ++i) list_bits.push_back(Bus{list9[static_cast<std::size_t>(i)]});
  const NetId rn_in_list = b.mux_tree(rdi8, list_bits)[0];
  const NetId xfer_wb_we =
      b.and_(xfer_setup, b.not_(b.and_(d_ldm, rn_in_list)));
  const Bus xfer_wb_idx = b.mux(is_stm_ldm, b.constant(13, 4), b.zext(rdi8, 4));

  b.connect(mt_active,
            Bus{b.mux(xfer_setup, b.and_(mt_active.q[0], b.not_(b.and_(mt_xfer, mt_last))),
                      list_nonzero)});
  b.connect(mt_list, b.mux(xfer_setup, b.mux(mt_xfer, mt_list.q, list_next), list_eff));
  b.connect(mt_addr,
            b.mux(xfer_setup, b.mux(mt_xfer, mt_addr.q, b.add_const(mt_addr.q, 4)),
                  mt_start_addr));
  b.connect_en(mt_is_load, xfer_setup, Bus{b.or_(d_pop, d_ldm)});
  b.connect_en(mt_pop, xfer_setup, Bus{d_pop});

  const NetId xfer_load_we = b.and_(mt_xfer, b.and_(mt_is_load.q[0], b.not_(mt_is_pc)));

  // ------------------------------------------------------------------ halt --
  const NetId halting16 = b.and_(run, b.any(Bus{d_bkpt, d_svc, d_udf, b.not_(known16)}));
  const NetId halting_wide = b.and_(wide_exec, b.not_(known_wide));
  const NetId halting = b.or_(halting16, halting_wide);

  // ------------------------------------------------------------------ flags --
  const NetId is_addsub_flags = b.any(Bus{d_adds, d_subs, d_adds3, d_subs3, d_adds8, d_subs8,
                                          d_cmp8, d_cmpr, d_cmphi, d_cmn, d_adcs, d_sbcs, d_rsbs});
  const NetId is_shift_any = b.or_(is_shift_imm, is_shift_reg);
  Bus nz_bus = sum;
  nz_bus = b.mux(is_shift_any, nz_bus, sh_res);
  nz_bus = b.mux(is_logic, nz_bus, logic_res);
  nz_bus = b.mux(d_movs8, nz_bus, b.zext(imm8, 32));
  nz_bus = b.mux(b.and_(d_muls, mul_last), nz_bus, mul_result);
  const NetId nz_we = b.and_(run, b.any(Bus{is_addsub_flags, is_shift_any, is_logic, d_movs8,
                                            b.and_(d_muls, mul_last)}));
  const NetId c_we = b.and_(run, b.or_(is_addsub_flags, is_shift_any));
  const NetId v_we = b.and_(run, is_addsub_flags);
  b.connect_en(fn, nz_we, Bus{nz_bus[31]});
  b.connect_en(fz, nz_we, Bus{b.is_zero(nz_bus)});
  b.connect_en(fc, c_we, Bus{b.mux(is_addsub_flags, sh_carry, cout)});
  b.connect_en(fv, v_we, Bus{ovf});

  // ----------------------------------------------------------- register port
  const NetId normal_we = b.and_(run, b.and_(wr_en16, b.not_(mt_active.q[0])));
  // BL / BLX write LR.
  const NetId bl_we = b.and_(wide_exec, w_bl);
  const NetId blx_we = b.and_(run, d_blx);
  Bus lr_link = b.add_const(pc.q, 2);
  lr_link[0] = c1;

  NetId final_we = b.any(Bus{normal_we, xfer_wb_we, xfer_load_we, bl_we, blx_we});
  Bus final_idx = wr_idx;
  final_idx = b.mux(xfer_wb_we, final_idx, xfer_wb_idx);
  final_idx = b.mux(xfer_load_we, final_idx, mt_reg);
  final_idx = b.mux(b.or_(bl_we, blx_we), final_idx, b.constant(14, 4));
  Bus final_val = wr_val;
  final_val = b.mux(xfer_wb_we, final_val, xfer_wb_val);
  final_val = b.mux(xfer_load_we, final_val, dmem_rdata);
  final_val = b.mux(b.or_(bl_we, blx_we), final_val, lr_link);

  for (int i = 0; i < 15; ++i) {
    const NetId sel = b.and_(final_we, b.eq_const(final_idx, static_cast<std::uint64_t>(i)));
    b.connect_en(regs[static_cast<std::size_t>(i)], sel, final_val);
  }

  // --------------------------------------------------------------- next PC --
  const Bus cond4 = synth::Builder::slice(hw, 8, 4);
  const NetId fN = fn.q[0], fZ = fz.q[0], fC = fc.q[0], fV = fv.q[0];
  const NetId ge = b.xnor_(fN, fV);
  const NetId cond_ok = b.mux_tree(
      cond4,
      {Bus{fZ}, Bus{b.not_(fZ)}, Bus{fC}, Bus{b.not_(fC)}, Bus{fN}, Bus{b.not_(fN)}, Bus{fV},
       Bus{b.not_(fV)}, Bus{b.and_(fC, b.not_(fZ))}, Bus{b.or_(b.not_(fC), fZ)}, Bus{ge},
       Bus{b.not_(ge)}, Bus{b.and_(b.not_(fZ), ge)}, Bus{b.or_(fZ, b.not_(ge))}, Bus{c0},
       Bus{c0}})[0];

  const Bus seq_pc = b.add_const(pc.q, 2);
  const Bus bcond_tgt = b.add(pc_read, b.sext(synth::Builder::concat(Bus{c0}, imm8), 32));
  const Bus b_tgt = b.add(pc_read, b.sext(synth::Builder::concat(Bus{c0}, imm11), 32));
  // BL offset from {wide_first, hw}.
  const NetId bl_s = wide_first.q[10];
  const NetId bl_j1 = hw[13];
  const NetId bl_j2 = hw[11];
  const NetId bl_i1 = b.xnor_(bl_j1, bl_s);
  const NetId bl_i2 = b.xnor_(bl_j2, bl_s);
  Bus bl_off = {c0};
  for (int i = 0; i < 11; ++i) bl_off.push_back(hw[static_cast<std::size_t>(i)]);       // imm11
  for (int i = 0; i < 10; ++i) bl_off.push_back(wide_first.q[static_cast<std::size_t>(i)]);  // imm10
  bl_off.push_back(bl_i2);
  bl_off.push_back(bl_i1);
  bl_off.push_back(bl_s);
  bl_off = b.sext(bl_off, 32);
  const Bus bl_tgt = b.add(b.add_const(pc.q, 2), bl_off);

  Bus reg_tgt = valB;          // bx/blx/mov-pc source
  reg_tgt = b.mux(d_addhi, reg_tgt, b.add(valA, valB));
  reg_tgt[0] = c0;
  Bus pop_tgt = dmem_rdata;
  pop_tgt[0] = c0;

  Bus next_pc = seq_pc;
  next_pc = b.mux(b.and_(run, b.and_(d_bcond, cond_ok)), next_pc, bcond_tgt);
  next_pc = b.mux(b.and_(run, d_b), next_pc, b_tgt);
  next_pc = b.mux(b.and_(run, b.any(Bus{d_bx, d_blx, movhi_to_pc})), next_pc, reg_tgt);
  next_pc = b.mux(b.and_(wide_exec, w_bl), next_pc, bl_tgt);
  next_pc = b.mux(b.and_(mt_xfer, b.and_(mt_last, mt_is_pc)), next_pc, pop_tgt);

  // ------------------------------------------------------------------ fetch --
  const NetId stall = b.any(Bus{mul_stall, b.and_(xfer_setup, list_nonzero),
                                b.and_(mt_xfer, b.not_(mt_last))});
  const NetId advance =
      b.and_(b.not_(stall), b.not_(b.or_(halted.q[0], halting)));
  const Bus fetch_addr = b.mux(valid.q[0], pc.q, next_pc);
  const Bus imem_addr_o = b.mux(advance, pc.q, fetch_addr);
  b.connect(pc, b.mux(advance, pc.q, fetch_addr));
  b.connect(instr, b.mux(advance, instr.q, imem_rdata));
  b.connect(valid, Bus{b.mux(advance, valid.q[0], c1)});
  b.connect(halted, Bus{b.or_(halted.q[0], halting)});
  b.connect(wide_pending,
            Bus{b.mux(advance, wide_pending.q[0], b.and_(run, is_wide_prefix))});
  b.connect_en(wide_first, b.and_(advance, b.and_(run, is_wide_prefix)), hw);

  // ------------------------------------------------------------------ ports --
  b.output("imem_addr", imem_addr_o);
  b.output("dmem_addr", dmem_addr);
  b.output("dmem_wdata", b.mux(mt_xfer, st_data, valA));
  b.output("dmem_be", b.mux(mt_xfer, be, b.constant(0xf, 4)));
  b.output("dmem_re", {dmem_re});
  b.output("dmem_we", {dmem_we});
  b.output("reg_we", {final_we});
  b.output("reg_waddr", final_idx);
  b.output("reg_wdata", final_val);
  b.output("halted", {halted.q[0]});
  b.output("flags", {fN, fZ, fC, fV});
  b.output("retire_pc", pc.q);
  return core;
}

}  // namespace pdat::cores
