// Shared helpers for the experiment benchmarks (bench_e1..e11).
//
// Each bench binary regenerates one table/figure of EXPERIMENTS.md: rows are
// google-benchmark instances, measured values are reported as counters so
// the console output IS the table.
#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <utility>

#include "bench_circuits/generators.hpp"
#include "netlist/netlist.hpp"
#include "obs/metrics.hpp"

namespace aidft::bench {

/// Standard circuits used across experiments, by name.
inline Netlist circuit_by_name(const std::string& name) {
  if (name == "c17") return circuits::make_c17();
  if (name == "rca8") return circuits::make_ripple_adder(8);
  if (name == "cla16") return circuits::make_carry_lookahead_adder(16);
  if (name == "mul8") return circuits::make_array_multiplier(8);
  if (name == "mul12") return circuits::make_array_multiplier(12);
  if (name == "alu8") return circuits::make_alu(8);
  if (name == "mac8") return circuits::make_mac(8, /*registered=*/false);
  if (name == "mac8reg") return circuits::make_mac(8, /*registered=*/true);
  if (name == "cmp8") return circuits::make_comparator(8);
  if (name == "rpr4x12") return circuits::make_rp_resistant(4, 12);
  if (name == "rpr6x14") return circuits::make_rp_resistant(6, 14);
  if (name == "parity32") return circuits::make_parity_tree(32);
  if (name == "redundant") return circuits::make_redundant();
  throw Error("unknown bench circuit: " + name);
}

}  // namespace aidft::bench

namespace aidft::bench {

/// Version of the bench-row counter schema. Bumped whenever the meaning or
/// set of emitted counters changes, so downstream table scrapers can detect
/// rows produced by an incompatible toolkit build. Every rung registered
/// through reg() carries it as a `schema_version` counter.
inline constexpr int kBenchSchemaVersion = 3;

/// RegisterBenchmark shim: the packaged google-benchmark predates the
/// std::string overload. Also stamps `schema_version` on every row.
template <typename F>
benchmark::internal::Benchmark* reg(const std::string& name, F&& fn) {
  return benchmark::RegisterBenchmark(
      name.c_str(), [fn = std::forward<F>(fn)](benchmark::State& st) mutable {
        fn(st);
        st.counters["schema_version"] = kBenchSchemaVersion;
      });
}

/// Copies every counter of a metrics snapshot onto a bench row (prefixed
/// verbatim, e.g. `fsim.events`), so instrumented counters land in the same
/// table as the hand-computed ones.
inline void emit_metrics(benchmark::State& st,
                         const obs::MetricsSnapshot& snapshot) {
  for (const auto& e : snapshot.entries) {
    if (e.kind != obs::MetricsSnapshot::Kind::kCounter) continue;
    st.counters[e.name] = static_cast<double>(e.value);
  }
}

}  // namespace aidft::bench
