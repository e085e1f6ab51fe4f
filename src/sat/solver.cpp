#include "sat/solver.hpp"

#include <algorithm>
#include <cmath>

namespace aidft {

void SatSolver::reset() {
  arena_.clear();
  assign_.clear();
  phase_.clear();
  level_.clear();
  reason_.clear();
  trail_.clear();
  trail_lim_.clear();
  qhead_ = 0;
  activity_.clear();
  var_inc_ = 1.0;
  seen_.clear();
  model_.clear();
  root_unsat_ = false;
  added_clauses_ = 0;
  stats_ = Stats{};
}

std::uint32_t SatSolver::new_var() {
  const auto v = static_cast<std::uint32_t>(assign_.size());
  assign_.push_back(kUnassigned);
  phase_.push_back(0);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  activity_.push_back(0.0);
  seen_.push_back(false);
  if (watches_.size() < 2 * (std::size_t{v} + 1)) {
    watches_.emplace_back();
    watches_.emplace_back();
  } else {  // a list left by a formula before reset()
    watches_[pos_lit(v).code].clear();
    watches_[neg_lit(v).code].clear();
  }
  return v;
}

bool SatSolver::add_clause(std::span<const Lit> lits) {
  AIDFT_REQUIRE(trail_lim_.empty(), "add_clause only at decision level 0");
  ++added_clauses_;
  if (root_unsat_) return false;
  // Normalise: sort, dedup, drop clauses with complementary pairs, drop
  // root-false literals, detect root-satisfied clauses. The kept literals
  // are compacted in place; a write never passes the literal being read.
  std::vector<Lit>& c = scratch_;
  c.assign(lits.begin(), lits.end());
  std::sort(c.begin(), c.end(), [](Lit a, Lit b) { return a.code < b.code; });
  std::size_t kept = 0;
  Lit prev{};
  for (std::size_t i = 0; i < c.size(); ++i) {
    const Lit l = c[i];
    AIDFT_REQUIRE(l.var() < num_vars(), "clause uses unallocated variable");
    if (i > 0 && l == prev) continue;           // duplicate
    if (i > 0 && l == ~prev) return true;       // tautology
    prev = l;
    const std::uint8_t v = lit_value(l);
    if (v == 1) return true;   // already satisfied at root
    if (v == 0) continue;      // root-false literal: drop
    c[kept++] = l;
  }
  if (kept == 0) {
    root_unsat_ = true;
    return false;
  }
  if (kept == 1) {
    enqueue(c[0], kNoReason);
    if (propagate() != kNoReason) {
      root_unsat_ = true;
      return false;
    }
    return true;
  }
  attach_clause({c.data(), kept});
  return true;
}

SatSolver::ClauseRef SatSolver::attach_clause(std::span<const Lit> lits) {
  AIDFT_ASSERT(lits.size() >= 2, "attach requires >= 2 literals");
  const auto cr = static_cast<ClauseRef>(arena_.size());
  Lit header;
  header.code = static_cast<std::uint32_t>(lits.size());
  arena_.push_back(header);
  arena_.insert(arena_.end(), lits.begin(), lits.end());
  watches_[(~lits[0]).code].push_back({cr, lits[1]});
  watches_[(~lits[1]).code].push_back({cr, lits[0]});
  return cr;
}

void SatSolver::enqueue(Lit l, ClauseRef reason) {
  AIDFT_ASSERT(assign_[l.var()] == kUnassigned, "enqueue on assigned var");
  assign_[l.var()] = l.negated() ? 0 : 1;
  phase_[l.var()] = assign_[l.var()];
  level_[l.var()] = static_cast<std::uint32_t>(trail_lim_.size());
  reason_[l.var()] = reason;
  trail_.push_back(l);
}

SatSolver::ClauseRef SatSolver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    auto& ws = watches_[p.code];  // clauses watching ~p ... we store by (~lit)
    std::size_t keep = 0;
    for (std::size_t i = 0; i < ws.size(); ++i) {
      const Watcher w = ws[i];
      if (lit_value(w.blocker) == 1) {
        ws[keep++] = w;
        continue;
      }
      Lit* c = clause_lits(w.clause);
      const std::uint32_t size = clause_size(w.clause);
      // Ensure the false literal (~p) is at position 1.
      const Lit false_lit = ~p;
      if (c[0] == false_lit) std::swap(c[0], c[1]);
      AIDFT_ASSERT(c[1] == false_lit, "watch invariant broken");
      // If first literal is true, clause satisfied.
      if (lit_value(c[0]) == 1) {
        ws[keep++] = {w.clause, c[0]};
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      for (std::uint32_t k = 2; k < size; ++k) {
        if (lit_value(c[k]) != 0) {
          std::swap(c[1], c[k]);
          watches_[(~c[1]).code].push_back({w.clause, c[0]});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflict.
      if (lit_value(c[0]) == 0) {
        // Conflict: restore remaining watchers and report.
        for (std::size_t k = i; k < ws.size(); ++k) ws[keep++] = ws[k];
        ws.resize(keep);
        qhead_ = trail_.size();
        return w.clause;
      }
      ws[keep++] = w;
      enqueue(c[0], w.clause);
    }
    ws.resize(keep);
  }
  return kNoReason;
}

void SatSolver::bump_var(std::uint32_t var) {
  activity_[var] += var_inc_;
  if (activity_[var] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
}

void SatSolver::decay_activity() { var_inc_ /= 0.95; }

void SatSolver::analyze(ClauseRef conflict, std::vector<Lit>& learnt,
                        std::uint32_t& bt_level) {
  learnt.clear();
  learnt.push_back(Lit{});  // slot for the asserting literal
  const auto cur_level = static_cast<std::uint32_t>(trail_lim_.size());
  std::uint32_t counter = 0;
  std::size_t trail_idx = trail_.size();
  Lit p{};
  bool have_p = false;
  ClauseRef reason = conflict;

  for (;;) {
    AIDFT_ASSERT(reason != kNoReason, "analyze: missing reason");
    const Lit* c = clause_lits(reason);
    const std::uint32_t size = clause_size(reason);
    for (std::uint32_t i = (have_p ? 1 : 0); i < size; ++i) {
      const Lit q = c[i];
      if (seen_[q.var()] || level_[q.var()] == 0) continue;
      seen_[q.var()] = true;
      bump_var(q.var());
      if (level_[q.var()] >= cur_level) {
        ++counter;
      } else {
        learnt.push_back(q);
      }
    }
    // Find next literal on the trail to resolve on.
    do {
      --trail_idx;
    } while (!seen_[trail_[trail_idx].var()]);
    p = trail_[trail_idx];
    have_p = true;
    seen_[p.var()] = false;
    reason = reason_[p.var()];
    if (--counter == 0) break;
    // p is not the UIP yet, so it was propagated and has a reason clause;
    // propagation and learning always place the asserted literal at
    // position 0, which the skip-first-literal convention above relies on.
    AIDFT_ASSERT(reason != kNoReason && clause_lits(reason)[0] == p,
                 "analyze: reason clause does not lead with its literal");
  }
  learnt[0] = ~p;

  // Backtrack level: highest level among the other literals.
  bt_level = 0;
  std::size_t max_pos = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    if (level_[learnt[i].var()] > bt_level) {
      bt_level = level_[learnt[i].var()];
      max_pos = i;
    }
  }
  if (learnt.size() > 1) std::swap(learnt[1], learnt[max_pos]);
  for (std::size_t i = 1; i < learnt.size(); ++i) seen_[learnt[i].var()] = false;
}

void SatSolver::backtrack(std::uint32_t target_level) {
  if (trail_lim_.size() <= target_level) return;
  const std::size_t bound = trail_lim_[target_level];
  for (std::size_t i = trail_.size(); i-- > bound;) {
    const std::uint32_t v = trail_[i].var();
    assign_[v] = kUnassigned;
    reason_[v] = kNoReason;
  }
  trail_.resize(bound);
  trail_lim_.resize(target_level);
  qhead_ = bound;
}

Lit SatSolver::pick_branch() {
  // Highest-activity unassigned variable (linear scan — CNFs here are small
  // enough that a heap is not the bottleneck; propagation is).
  double best = -1.0;
  std::uint32_t best_var = 0;
  bool found = false;
  for (std::uint32_t v = 0; v < num_vars(); ++v) {
    if (assign_[v] == kUnassigned && activity_[v] > best) {
      best = activity_[v];
      best_var = v;
      found = true;
    }
  }
  if (!found) return Lit{};  // all assigned
  return Lit::make(best_var, phase_[best_var] == 0);
}

std::uint64_t SatSolver::luby(std::uint64_t i) {
  // Luby sequence 1,1,2,1,1,2,4,... (Knuth's formulation, 1-based n).
  std::uint64_t n = i + 1;
  for (;;) {
    std::uint64_t k = 1;
    while ((1ull << k) - 1 < n) ++k;  // smallest k with 2^k - 1 >= n
    if ((1ull << k) - 1 == n) return 1ull << (k - 1);
    n -= (1ull << (k - 1)) - 1;
  }
}

SatResult SatSolver::solve(const std::vector<Lit>& assumptions,
                           std::int64_t conflict_limit,
                           RunControl* run_control) {
  stats_ = Stats{};
  if (root_unsat_) return SatResult::kUnsat;
  backtrack(0);
  if (propagate() != kNoReason) {
    root_unsat_ = true;
    return SatResult::kUnsat;
  }

  std::uint64_t restart_count = 0;
  std::uint64_t conflicts_until_restart = 32 * luby(restart_count);
  std::vector<Lit>& learnt = learnt_;

  for (;;) {
    const ClauseRef conflict = propagate();
    if (conflict != kNoReason) {
      ++stats_.conflicts;
      if (trail_lim_.empty()) {
        root_unsat_ = true;
        return SatResult::kUnsat;
      }
      std::uint32_t bt_level = 0;
      analyze(conflict, learnt, bt_level);
      backtrack(bt_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNoReason);
      } else {
        enqueue(learnt[0], attach_clause(learnt));
      }
      decay_activity();
      if (conflict_limit >= 0 &&
          stats_.conflicts >= static_cast<std::uint64_t>(conflict_limit)) {
        backtrack(0);
        return SatResult::kUnknown;
      }
      if (run_control != nullptr && (stats_.conflicts & 1023) == 0 &&
          run_control->poll() != StopReason::kNone) {
        backtrack(0);
        return SatResult::kUnknown;
      }
      if (stats_.conflicts >= conflicts_until_restart) {
        ++stats_.restarts;
        ++restart_count;
        conflicts_until_restart =
            stats_.conflicts + 32 * luby(restart_count);
        backtrack(0);
      }
      continue;
    }

    // No conflict: re-apply assumptions, then decide.
    Lit next{};
    bool have_next = false;
    for (const Lit a : assumptions) {
      const std::uint8_t v = lit_value(a);
      if (v == 0) {
        // Assumption contradicted by current (level-0 + decided) state; the
        // ATPG use case treats this as UNSAT-under-assumptions.
        backtrack(0);
        return SatResult::kUnsat;
      }
      if (v == kUnassigned) {
        next = a;
        have_next = true;
        break;
      }
    }
    if (!have_next) {
      if (trail_.size() == num_vars()) {
        // All variables assigned without conflict: model found.
        model_.assign(assign_.begin(), assign_.end());
        backtrack(0);
        return SatResult::kSat;
      }
      next = pick_branch();
      ++stats_.decisions;
    }
    trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
    enqueue(next, kNoReason);
  }
}

}  // namespace aidft
