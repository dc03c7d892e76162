// Trace specializer: compiles recorded hot-loop traces (trace.hpp) into
// guarded fast paths for the script VM.
//
// Two specialization shapes, matching how the paper's LuaJIT backend earns
// its ~100 cycles/pkt (Sections 3.2, 5.1):
//
//  * FieldKernel — the script→field-modifier escape hatch. A generic-for
//    over a packet array whose body is straight-line header-field writes
//    (constants, counters, math.random draws) compiles onto
//    core::ModifierProgram: hot packets never enter the VM dispatch loop
//    at all. The kernel draws from the interpreter's own math.random
//    engine, so the random stream is byte-identical to generic execution.
//
//  * NumLoop — a superinstruction for numeric for-loops with pure-numeric
//    straight-line bodies: the recorded opcode sequence re-played over
//    unboxed double slots (frame registers and global slots mapped in at
//    entry, written back at exit), replacing per-instruction dispatch and
//    Value boxing with a tight machine loop. Operations replay in recorded
//    order with the VM's exact double semantics, so results are
//    bit-identical.
//
// Both run as prefix accelerators at their loop anchor: entry guards
// verify every recorded assumption (operand types, method-table identity,
// iterator protocol, call-site inline caches, random-native identity); any
// mismatch — a deopt — simply skips the accelerator and the generic VM
// executes the iteration. Statement budgets are enforced exactly: kernels
// process at most the iterations the remaining budget allows and leave
// the exhaustion throw to the generic loop header.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/field_modifier.hpp"
#include "script/trace.hpp"
#include "script/value.hpp"
#include "script/vm.hpp"

namespace moongen::script {

class Interpreter;

/// One term of an entry-invariant expression: a frame register, a global
/// environment slot (stable std::map node) or an upvalue of the executing
/// closure (resolved by index at entry — specializations are shared by all
/// closures of a proto, so cell pointers must not be baked in).
struct EntryTerm {
  enum class Src : std::uint8_t { kReg, kGlobal, kUpval };
  Src src = Src::kReg;
  std::int8_t coef = 1;  ///< ±1
  std::uint16_t index = 0;
  Value* slot = nullptr;  ///< kGlobal only
};

/// An entry-invariant numeric expression: constant + signed sum of terms
/// (k + Σ coef·term). Evaluated once per kernel entry. Restricted to
/// exact-integer arithmetic — the builder only emits one when every
/// constant is integral, and entry guards require integral term values
/// with |v| <= 2^32 — so re-association cannot change rounding versus the
/// generic per-iteration evaluation order.
struct EntryExpr {
  double k = 0.0;
  std::vector<EntryTerm> terms;
};

/// One field write per packet, with its value recipe.
struct ActionRecipe {
  core::FieldAction::Kind kind = core::FieldAction::Kind::kConstant;
  core::FieldRef field;
  /// kConstant: the written value. kRandom: the base added to the draw
  /// (the +1 of math.random's 1..m convention is folded in at entry).
  /// kCounter: the base added to the 1-based loop index.
  EntryExpr base;
  /// kRandom only: the draw modulus m.
  EntryExpr modulus;
};

/// Compiled script→field-modifier escape hatch for a kForInCall anchor.
struct FieldKernelSpec {
  /// The recorded packet-array method table (entry guard: same table).
  const MethodTable* array_mt = nullptr;
  std::vector<ActionRecipe> actions;
  /// All distinct terms feeding EntryExprs: each must resolve to an
  /// integral number with |v| <= 2^32 at entry (exactness precondition
  /// above).
  std::vector<EntryTerm> guard_terms;
  /// kCallGlobalField sites folded into draws: each site's IC must still
  /// hit AND resolve to `random_native` at entry.
  std::vector<std::uint16_t> random_ics;
  const NativeFunction* random_native = nullptr;
  /// Statement-budget ticks per packet: the anchor's own tick plus the
  /// body's kCheckStep count.
  std::uint32_t ticks_per_packet = 1;
};

/// One superinstruction micro-op over unboxed double slots.
struct NumOp {
  enum class Kind : std::uint8_t {
    kLoadConst,  // s[dst] = imm
    kMove,       // s[dst] = s[a]
    kAdd,        // s[dst] = s[a] + s[b]   (exact VM double semantics)
    kSub,
    kMul,
    kDiv,
    kMod,        // a - floor(a/b)*b, like the VM
    kPow,
    kNeg,
    kGlobalGet,  // s[dst] = globals[gslot]
    kGlobalSet,  // globals[gslot] = s[a]
  };
  Kind kind = Kind::kLoadConst;
  std::uint8_t dst = 0, a = 0, b = 0;
  std::uint16_t gslot = 0;
  double imm = 0.0;
};

/// Compiled numeric-for superinstruction for a kForTest anchor.
struct NumLoopSpec {
  std::vector<NumOp> ops;  ///< one loop iteration (test/increment implicit)
  /// slot i <-> frame register reg_slots[i]; the loop's i/stop/step triple
  /// occupies slots idx/stop/step below.
  std::vector<std::uint16_t> reg_slots;
  /// Slots read before written in an iteration (must be numeric at entry;
  /// the others are fully defined by the iteration before use).
  std::vector<bool> reg_live_in;
  /// Global slots referenced by kGlobalGet/kGlobalSet (stable map nodes).
  std::vector<Value*> global_slots;
  std::vector<bool> global_live_in;
  std::vector<bool> global_written;
  std::uint8_t idx_slot = 0, stop_slot = 0, step_slot = 0;
  std::uint32_t ticks_per_iter = 1;
};

struct Specialization {
  enum class Kind : std::uint8_t { kFieldKernel, kNumLoop };
  Kind kind = Kind::kFieldKernel;
  FieldKernelSpec field;
  NumLoopSpec num;
  /// The source trace, kept for introspection (disassemble_trace).
  RecordedTrace trace;
};

/// Compiles a recorded trace into a specialization, or nullptr when the
/// trace is not specializable (the anchor is then marked failed and the
/// generic VM keeps running it).
std::shared_ptr<const Specialization> build_specialization(RecordedTrace trace,
                                                           Interpreter& host);

/// Binds one recipe to the values its entry expressions have at kernel
/// entry: `base` and `modulus` evaluated there, `first` the 1-based index
/// of the first packet the kernel processes and `count` how many it may
/// process. Returns nullopt when the kernel must stay generic: a value
/// outside uint32 (whose cast behaviour the generic path owns) or a kind
/// no recipe expresses (kFlowLabel).
std::optional<core::FieldAction> bind_action(const ActionRecipe& recipe, double base,
                                             double modulus, std::size_t first,
                                             std::size_t count);

/// Executes a field kernel at its kForInCall anchor. Processes whatever
/// prefix of the remaining elements the guards and budget allow (possibly
/// none), updating packet bytes, the control register and the statement
/// budget; the caller always falls through to the generic anchor code.
/// `regs` is the frame's register window, `ics` its inline-cache array,
/// `upvals` the executing closure's upvalue cells (may be empty).
void run_field_kernel(const Specialization& spec, const Instr& anchor, Value* regs,
                      ICEntry* ics, const std::vector<std::shared_ptr<Cell>>& upvals,
                      Interpreter& host);

/// Executes a numeric-loop superinstruction at its kForTest anchor: runs
/// whatever number of iterations guards and budget allow, writes slots and
/// globals back, and returns; the caller falls through to the generic
/// test.
void run_num_loop(const Specialization& spec, const Instr& anchor, Value* regs,
                  Interpreter& host);

}  // namespace moongen::script
