// Self-contained CDCL SAT solver.
//
// Implements the standard modern kernel: two-watched-literal propagation,
// first-UIP conflict analysis with clause learning, VSIDS-style variable
// activity with phase saving, and Luby-sequence restarts. No clause
// deletion — the ATPG workload produces many small solves on modest CNFs,
// where learnt-clause growth is bounded by the conflict limit.
//
// Storage is flat: every clause lives in one literal arena behind a size
// header (MiniSat's clause store), and reset() empties the formula but
// keeps every buffer's capacity, so a solver reused across many small
// formulas stops allocating once it has seen the largest.
//
// External literal convention (DIMACS-like): variables are 0-based indices
// returned by new_var(); a literal is made with lit(var, /*negated=*/bool).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/run_control.hpp"

namespace aidft {

/// Literal: variable index with sign, encoded as 2*var + negated.
struct Lit {
  std::uint32_t code = 0;

  Lit() = default;
  static Lit make(std::uint32_t var, bool negated) {
    Lit l;
    l.code = (var << 1) | static_cast<std::uint32_t>(negated);
    return l;
  }
  std::uint32_t var() const { return code >> 1; }
  bool negated() const { return code & 1u; }
  Lit operator~() const {
    Lit l;
    l.code = code ^ 1u;
    return l;
  }
  friend bool operator==(Lit a, Lit b) { return a.code == b.code; }
};

inline Lit pos_lit(std::uint32_t var) { return Lit::make(var, false); }
inline Lit neg_lit(std::uint32_t var) { return Lit::make(var, true); }

enum class SatResult { kSat, kUnsat, kUnknown };

class SatSolver {
 public:
  SatSolver() = default;

  /// Empties the formula: no variables, no clauses, and the state of a
  /// fresh solver (activities, phases, statistics), so the next formula
  /// solves exactly as it would in a new SatSolver. Capacity is kept.
  void reset();

  /// Allocates a fresh variable; returns its index.
  std::uint32_t new_var();

  std::size_t num_vars() const { return assign_.size(); }

  /// Clauses handed to add_clause() so far (units and clauses it simplified
  /// away included; learnt clauses excluded): the size of the encoding.
  std::size_t num_added_clauses() const { return added_clauses_; }

  /// Adds a clause (disjunction of literals), normalised in a buffer the
  /// solver owns. Empty clause makes the formula trivially UNSAT. Returns
  /// false if the solver is already in an unsatisfiable root state.
  bool add_clause(std::span<const Lit> lits);

  /// Convenience overloads.
  bool add_unit(Lit a) { return add_clause({&a, 1}); }
  bool add_binary(Lit a, Lit b) {
    const Lit c[] = {a, b};
    return add_clause(c);
  }
  bool add_ternary(Lit a, Lit b, Lit c) {
    const Lit d[] = {a, b, c};
    return add_clause(d);
  }

  /// Solves under `assumptions`. `conflict_limit < 0` means no limit;
  /// hitting the limit returns kUnknown (the ATPG abort mechanism). A
  /// non-null `run_control` is polled every 1024 conflicts; expiry or
  /// cancellation also returns kUnknown.
  SatResult solve(const std::vector<Lit>& assumptions = {},
                  std::int64_t conflict_limit = -1,
                  RunControl* run_control = nullptr);

  /// Value of `var` in the satisfying model (valid after kSat).
  bool model_value(std::uint32_t var) const {
    AIDFT_ASSERT(var < model_.size(), "model_value: var out of range");
    return model_[var] == 1;
  }

  /// Statistics of the last solve.
  struct Stats {
    std::uint64_t conflicts = 0;
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t restarts = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  // Assignment lattice: 0 = false, 1 = true, 2 = unassigned.
  static constexpr std::uint8_t kUnassigned = 2;

  // Offset of a clause's header in arena_: the header's code is the
  // clause's size, and its literals follow it.
  using ClauseRef = std::uint32_t;
  static constexpr ClauseRef kNoReason = 0xFFFFFFFFu;

  struct Watcher {
    ClauseRef clause;
    Lit blocker;  // fast check: if blocker is true, clause is satisfied
  };

  std::uint8_t lit_value(Lit l) const {
    const std::uint8_t v = assign_[l.var()];
    if (v == kUnassigned) return kUnassigned;
    return static_cast<std::uint8_t>(v ^ static_cast<std::uint8_t>(l.negated()));
  }

  void enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();  // returns conflicting clause or kNoReason
  void analyze(ClauseRef conflict, std::vector<Lit>& learnt, std::uint32_t& bt_level);
  void backtrack(std::uint32_t level);
  /// Appends `lits` (at least two) to the arena and watches its first two.
  ClauseRef attach_clause(std::span<const Lit> lits);
  std::uint32_t clause_size(ClauseRef cr) const { return arena_[cr].code; }
  Lit* clause_lits(ClauseRef cr) { return &arena_[cr + 1]; }
  Lit pick_branch();
  void bump_var(std::uint32_t var);
  void decay_activity();
  static std::uint64_t luby(std::uint64_t i);

  std::vector<Lit> arena_;  // every clause: size header, then literals
  // Indexed by lit code. Kept across reset(): a list is emptied when its
  // variable is allocated again, so it keeps its capacity.
  std::vector<std::vector<Watcher>> watches_;
  std::vector<std::uint8_t> assign_;           // per var
  std::vector<std::uint8_t> phase_;            // saved phase per var
  std::vector<std::uint32_t> level_;           // per var
  std::vector<ClauseRef> reason_;              // per var
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trail_lim_;  // decision-level boundaries
  std::size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<bool> seen_;  // analyze scratch
  std::vector<Lit> learnt_;  // solve scratch: the clause analyze learns
  std::vector<Lit> scratch_;  // add_clause scratch: the normalised clause

  std::vector<std::uint8_t> model_;
  bool root_unsat_ = false;
  std::size_t added_clauses_ = 0;
  Stats stats_;
};

}  // namespace aidft
