// Stream-free text primitives for the line formats the simulator speaks (the
// `.scenario` format, the serve protocol and the trace exports). Each was
// defined by what iostreams or printf print and accept; these helpers
// reproduce those bytes and that syntax exactly, at O(bytes) cost with no
// stream objects:
//
//  - append_* write into a caller's std::string. append_g is
//    std::to_chars(general, precision), which is specified as printf's
//    `%.*g`. At precision 17 that is the same bytes as
//    `ostream << std::setprecision(17) << v`: 17 significant digits, so two
//    doubles print alike iff they are the same bits (NaN payloads aside).
//    The tracer's exporters print `%.9g` and `%.6g` through it too.
//  - Cursor walks one line the way `istringstream >>` does in the classic
//    locale: tokens split on C whitespace, and numbers are read from the
//    cursor without needing a token boundary ("100.5" reads as the integer
//    100 followed by ".5"), with the stream's accept/reject rules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace hpn::text {

/// Append `v` as printf's `%.<precision>g`, for precision in [1, 17] (inf,
/// -inf, nan and -nan spelled as printf does).
void append_g(std::string& out, double v, int precision);
/// Append `v` in base 10.
void append_uint(std::string& out, std::uint64_t v);
void append_int(std::string& out, std::int64_t v);
/// Append `v` as 16 lowercase hex digits, zero-padded.
void append_hex16(std::string& out, std::uint64_t v);

/// The classic locale's isspace: what `istream >>` skips between fields.
constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

/// A read position in one line of text.
class Cursor {
 public:
  explicit Cursor(std::string_view line) : line_{line} {}

  /// The next whitespace-delimited token; empty when only whitespace is left.
  std::string_view token();
  /// True when only whitespace is left.
  bool done();
  /// What `istream >> std::int64_t` reads: an optional sign ('+' or '-')
  /// and decimal digits. False where the stream fails: no digits, or a
  /// value outside int64.
  bool read(std::int64_t& v);
  /// What `istream >> double` reads: an optional sign, decimal digits with
  /// at most one '.', and an exponent ('e' or 'E', optional sign, digits)
  /// after at least one digit. False where the stream fails: no digits, an
  /// exponent with no digits ("1e", "1e+"), or an overflow to infinity.
  /// An underflow reads as a zero of the same sign. There is no inf, nan
  /// or hex spelling: "inf" fails, "0x1p3" reads 0 and stops at 'x'.
  bool read(double& v);
  /// The unread rest of the line.
  [[nodiscard]] std::string_view rest() const { return line_.substr(pos_); }

 private:
  void skip_space();

  std::string_view line_;
  std::size_t pos_ = 0;
};

}  // namespace hpn::text
