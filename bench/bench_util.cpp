#include "bench/bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace nezha::benchutil {

void banner(const std::string& artifact, const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", artifact.c_str());
  std::printf("Paper: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::print() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      if (c < row.size()) widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    std::printf("  ");
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string();
      std::printf("%-*s  ", static_cast<int>(widths[c]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::printf("  ");
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    std::printf("%s  ", std::string(widths[c], '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string fmt_si(double v, int precision) {
  char buf[64];
  const double a = std::fabs(v);
  if (a >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.*fG", precision, v / 1e9);
  } else if (a >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.*fM", precision, v / 1e6);
  } else if (a >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.*fK", precision, v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  }
  return buf;
}

std::string fmt_pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

namespace {
bool g_claim_failed = false;
}  // namespace

void verdict(bool ok, const std::string& claim) {
  std::printf("  [%s] %s\n", ok ? "SHAPE OK" : "CHECK", claim.c_str());
  if (!ok) g_claim_failed = true;
}

int exit_status() { return g_claim_failed ? 1 : 0; }

bool has_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

long int_flag(int argc, char** argv, const std::string& flag, long def) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == flag && i + 1 < argc) {
      char* end = nullptr;
      const long v = std::strtol(argv[i + 1], &end, 10);
      return (end != nullptr && *end == '\0') ? v : def;
    }
    if (arg.size() > flag.size() + 1 && arg.compare(0, flag.size(), flag) == 0 &&
        arg[flag.size()] == '=') {
      char* end = nullptr;
      const long v = std::strtol(arg.c_str() + flag.size() + 1, &end, 10);
      return (end != nullptr && *end == '\0') ? v : def;
    }
  }
  return def;
}

}  // namespace nezha::benchutil
