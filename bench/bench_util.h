// Shared output helpers for the per-figure/table benchmark binaries.
//
// Every bench prints: a banner naming the paper artifact it regenerates,
// the rows/series the paper reports (paper value next to measured value
// where applicable), and a PASS/CHECK verdict line per headline claim so
// the harness output is self-auditing.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace nezha::benchutil {

/// Prints the bench banner: which figure/table, what the paper showed.
void banner(const std::string& artifact, const std::string& claim);

/// Simple aligned-column table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string fmt(double v, int precision = 2);
std::string fmt_si(double v, int precision = 2);  // 1.3M, 42.0K, ...
std::string fmt_pct(double fraction, int precision = 1);

/// Prints "  [SHAPE OK] <claim>" or "  [CHECK] <claim>" based on ok, and
/// records a failed claim for exit_status().
void verdict(bool ok, const std::string& claim);

/// A paper bench's exit code: 1 once any verdict() printed [CHECK], else 0.
int exit_status();

/// True when `flag` (e.g. "--clos") appears among the program arguments.
/// The per-figure benches use this to switch the testbed from the default
/// single-rack tiered topology onto the 2-tier Clos fabric.
bool has_flag(int argc, char** argv, const std::string& flag);

/// Integer-valued flag: accepts "--threads 4" and "--threads=4"; returns
/// `def` when the flag is absent or its value does not parse.
long int_flag(int argc, char** argv, const std::string& flag, long def);

}  // namespace nezha::benchutil
