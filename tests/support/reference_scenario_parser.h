// Test-only oracle: fuzz::Scenario's text codec as it was before the parser
// moved onto a string_view cursor with std::from_chars and the writer onto
// std::to_chars. Kept verbatim (header-only, renamed into namespace
// hpn::reference): the parser copies the text into an istringstream and
// reads every line through its own istringstream, so its numeric syntax is
// exactly `istream >>` in the classic locale; the writer prints doubles with
// `setprecision(17)`. The production codec must accept and reject the same
// inputs with the same error strings, produce bit-equal scenarios, and print
// byte-identical text. Deliberately unoptimized; do not use outside tests.
#pragma once

#include <cstdint>
#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "scenario/scenario.h"

namespace hpn::reference {

using fuzz::Scenario;
using fuzz::ScenarioFault;
using fuzz::ScenarioFlow;
using fuzz::ScenarioJob;

namespace detail {

enum class NumParse : std::uint8_t { kOk, kMalformed, kOverflow };

inline NumParse parse_u64_checked(std::string_view token, std::uint64_t& value) {
  value = 0;
  if (token.empty()) return NumParse::kMalformed;
  for (const char ch : token) {
    if (ch < '0' || ch > '9') return NumParse::kMalformed;
    const auto digit = static_cast<std::uint64_t>(ch - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return NumParse::kOverflow;
    }
    value = value * 10 + digit;
  }
  return NumParse::kOk;
}

}  // namespace detail

inline std::string scenario_to_text(const Scenario& s) {
  std::ostringstream os;
  os << "hpnsim-scenario v1" << '\n';
  os << "seed " << s.seed << '\n';
  os << "topology " << to_string(s.topology) << '\n';
  os << "size " << s.size_knob << '\n';
  os << "wiring " << s.wiring << '\n';
  for (const ScenarioFlow& f : s.flows) {
    os << "flow " << f.src << ' ' << f.dst << ' ' << f.size_bytes << ' '
       << std::setprecision(17) << f.cap_gbps << '\n';
  }
  for (const ScenarioFault& f : s.faults) {
    os << "fault " << to_string(f.kind) << ' ' << f.at_ns << ' ' << f.target << ' '
       << f.down_for_ns << '\n';
  }
  for (const ScenarioJob& j : s.jobs) {
    os << "job " << j.arrival_ns << ' ' << j.hosts << ' ' << j.iters << '\n';
  }
  os << "end\n";
  return os.str();
}

inline std::optional<Scenario> scenario_from_text(std::string_view text, std::string* error) {
  using detail::NumParse;
  using detail::parse_u64_checked;
  using fuzz::topology_kind_from;
  const auto set_error = [&](std::string msg) {
    if (error) *error = std::move(msg);
  };
  std::istringstream is{std::string{text}};
  std::string line;
  int line_no = 0;
  // Next meaningful line: strips the CR of CRLF endings and '#'-to-EOL
  // comments, skips blank lines. Formatting leniency lives entirely here;
  // everything below is strict.
  const auto next_line = [&]() -> bool {
    while (std::getline(is, line)) {
      ++line_no;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
        line.resize(hash);
      }
      if (line.find_first_not_of(" \t") != std::string::npos) return true;
    }
    return false;
  };
  const auto fail_at = [&](int at, std::string msg) -> std::optional<Scenario> {
    set_error("line " + std::to_string(at) + ": " + std::move(msg));
    return std::nullopt;
  };

  if (!next_line()) {
    set_error("truncated scenario: missing header");
    return std::nullopt;
  }
  {
    std::istringstream hs{line};
    std::string magic, version, junk;
    hs >> magic >> version;
    if (magic != "hpnsim-scenario" || version != "v1" || (hs >> junk)) {
      return fail_at(line_no, "bad header (want 'hpnsim-scenario v1')");
    }
  }

  Scenario s;
  bool saw_seed = false;
  bool saw_topology = false;
  bool saw_size = false;
  bool saw_wiring = false;
  bool saw_end = false;
  while (next_line()) {
    std::istringstream ls{line};
    std::string key;
    ls >> key;
    // True when the line has no tokens left (trailing junk is an error on
    // every entry: it usually means a truncated/merged line, and silently
    // ignoring it is how corrupted scenarios replay "clean").
    const auto line_done = [&ls]() -> bool {
      std::string junk;
      return !(ls >> junk);
    };
    // One base-10 token as u32 (recipe indices/knobs are all u32).
    const auto read_u32 = [&ls](std::uint32_t& out, const char* what,
                                std::string& msg) -> bool {
      std::string tok;
      std::uint64_t v = 0;
      if (!(ls >> tok) || parse_u64_checked(tok, v) == NumParse::kMalformed) {
        msg = std::string("malformed '") + what + "' entry";
        return false;
      }
      if (v > std::numeric_limits<std::uint32_t>::max()) {
        msg = std::string("'") + what + "' value out of range";
        return false;
      }
      out = static_cast<std::uint32_t>(v);
      return true;
    };
    std::string msg;

    if (key == "end") {
      if (!line_done()) return fail_at(line_no, "trailing junk after 'end'");
      saw_end = true;
      break;
    }
    if (key == "seed") {
      if (saw_seed) return fail_at(line_no, "duplicate 'seed'");
      saw_seed = true;
      std::string tok;
      if (!(ls >> tok)) return fail_at(line_no, "malformed 'seed' entry");
      switch (parse_u64_checked(tok, s.seed)) {
        case NumParse::kMalformed: return fail_at(line_no, "malformed 'seed' entry");
        case NumParse::kOverflow:
          return fail_at(line_no, "'seed' does not fit in 64 bits");
        case NumParse::kOk: break;
      }
      if (!line_done()) return fail_at(line_no, "trailing junk after 'seed'");
    } else if (key == "topology") {
      if (saw_topology) return fail_at(line_no, "duplicate 'topology'");
      saw_topology = true;
      std::string name;
      if (!(ls >> name)) return fail_at(line_no, "malformed 'topology' entry");
      const auto kind = topology_kind_from(name);
      if (!kind) return fail_at(line_no, "unknown topology '" + name + "'");
      s.topology = *kind;
      if (!line_done()) return fail_at(line_no, "trailing junk after 'topology'");
    } else if (key == "size") {
      if (saw_size) return fail_at(line_no, "duplicate 'size'");
      saw_size = true;
      if (!read_u32(s.size_knob, "size", msg)) return fail_at(line_no, msg);
      if (s.size_knob == 0) return fail_at(line_no, "'size' must be >= 1");
      if (!line_done()) return fail_at(line_no, "trailing junk after 'size'");
    } else if (key == "wiring") {
      if (saw_wiring) return fail_at(line_no, "duplicate 'wiring'");
      saw_wiring = true;
      if (!read_u32(s.wiring, "wiring", msg)) return fail_at(line_no, msg);
      if (!line_done()) return fail_at(line_no, "trailing junk after 'wiring'");
    } else if (key == "flow") {
      ScenarioFlow f;
      if (!read_u32(f.src, "flow", msg) || !read_u32(f.dst, "flow", msg)) {
        return fail_at(line_no, msg);
      }
      if (!(ls >> f.size_bytes >> f.cap_gbps)) {
        return fail_at(line_no, "malformed 'flow' entry");
      }
      if (f.size_bytes < 0) return fail_at(line_no, "'flow' size_bytes must be >= 0");
      if (!(f.cap_gbps > 0.0) || !(f.cap_gbps <= 10'000.0)) {
        return fail_at(line_no, "'flow' cap_gbps out of range (0, 10000]");
      }
      if (!line_done()) return fail_at(line_no, "trailing junk after 'flow'");
      s.flows.push_back(f);
    } else if (key == "fault") {
      ScenarioFault f;
      std::string kind_name;
      if (!(ls >> kind_name)) return fail_at(line_no, "malformed 'fault' entry");
      if (kind_name == "link_fail") {
        f.kind = ScenarioFault::Kind::kLinkFail;
      } else if (kind_name == "link_flap") {
        f.kind = ScenarioFault::Kind::kLinkFlap;
      } else if (kind_name == "tor_crash") {
        f.kind = ScenarioFault::Kind::kTorCrash;
      } else {
        return fail_at(line_no, "unknown fault kind '" + kind_name + "'");
      }
      if (!(ls >> f.at_ns)) return fail_at(line_no, "malformed 'fault' entry");
      if (!read_u32(f.target, "fault", msg)) return fail_at(line_no, msg);
      if (!(ls >> f.down_for_ns)) return fail_at(line_no, "malformed 'fault' entry");
      if (f.at_ns < 0 || f.down_for_ns < 0) {
        return fail_at(line_no, "'fault' times must be >= 0");
      }
      if (!line_done()) return fail_at(line_no, "trailing junk after 'fault'");
      s.faults.push_back(f);
    } else if (key == "job") {
      ScenarioJob j;
      if (!(ls >> j.arrival_ns)) return fail_at(line_no, "malformed 'job' entry");
      if (!read_u32(j.hosts, "job", msg) || !read_u32(j.iters, "job", msg)) {
        return fail_at(line_no, msg);
      }
      if (j.arrival_ns < 0) return fail_at(line_no, "'job' arrival_ns must be >= 0");
      if (j.hosts == 0 || j.iters == 0) {
        return fail_at(line_no, "'job' hosts and iters must be >= 1");
      }
      if (!line_done()) return fail_at(line_no, "trailing junk after 'job'");
      s.jobs.push_back(j);
    } else {
      return fail_at(line_no, "unknown key '" + key + "'");
    }
  }
  if (!saw_end) {
    set_error("truncated scenario: missing 'end'");
    return std::nullopt;
  }
  // Only blank/comment lines may follow 'end' — real content after it means
  // two scenarios were concatenated or the file was corrupted mid-write.
  if (next_line()) return fail_at(line_no, "content after 'end'");
  return s;
}

}  // namespace hpn::reference
