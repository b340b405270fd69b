#include "common/text.h"

#include <charconv>
#include <system_error>

namespace hpn::text {

namespace {

constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// For a decimal number from_chars rejected as out of range: true when its
/// magnitude is below the smallest subnormal (strtod, and so the stream,
/// returns a zero), false when it is above the largest double. `mantissa`
/// starts after the sign. The two cases lie more than 600 decades apart, so
/// the decade of the leading significant digit decides.
bool underflows(const char* mantissa, const char* end) {
  const char* p = mantissa;
  long long integer_digits = 0;  // significant digits before the '.'
  for (; p != end && is_digit(*p); ++p) {
    if (integer_digits > 0 || *p != '0') ++integer_digits;
  }
  long long decade = integer_digits - 1;
  if (p != end && *p == '.') {
    const char* const fraction = ++p;
    while (p != end && is_digit(*p)) ++p;
    if (integer_digits == 0) {
      const char* first = fraction;
      while (first != p && *first == '0') ++first;
      decade = -(first - fraction) - 1;
    }
  }
  long long exponent = 0;
  if (p != end && (*p == 'e' || *p == 'E')) {
    ++p;
    const bool negative = p != end && *p == '-';
    if (p != end && (*p == '+' || *p == '-')) ++p;
    for (; p != end && is_digit(*p); ++p) {
      if (exponent < 1'000'000'000) exponent = exponent * 10 + (*p - '0');
    }
    if (negative) exponent = -exponent;
  }
  return decade + exponent < 0;
}

}  // namespace

void append_g(std::string& out, double v, int precision) {
  char buf[32];  // sign, 17 digits, '.', "e-308": 24 bytes at most
  const auto res =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, precision);
  out.append(buf, res.ptr);
}

void append_uint(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void append_int(std::string& out, std::int64_t v) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void append_hex16(std::string& out, std::uint64_t v) {
  char buf[16];
  for (int i = 15; i >= 0; --i) {
    buf[i] = "0123456789abcdef"[v & 0xF];
    v >>= 4;
  }
  out.append(buf, sizeof buf);
}

void Cursor::skip_space() {
  while (pos_ < line_.size() && is_space(line_[pos_])) ++pos_;
}

std::string_view Cursor::token() {
  skip_space();
  const std::size_t begin = pos_;
  while (pos_ < line_.size() && !is_space(line_[pos_])) ++pos_;
  return line_.substr(begin, pos_ - begin);
}

bool Cursor::done() {
  skip_space();
  return pos_ == line_.size();
}

bool Cursor::read(std::int64_t& v) {
  skip_space();
  const char* p = line_.data() + pos_;
  const char* const end = line_.data() + line_.size();
  // from_chars takes a '-' but not a '+', and after a stripped '+' it must
  // not be handed a second sign.
  if (p != end && *p == '+') {
    ++p;
    if (p == end || !is_digit(*p)) return false;
  }
  const auto res = std::from_chars(p, end, v);
  if (res.ec != std::errc{}) return false;
  pos_ = static_cast<std::size_t>(res.ptr - line_.data());
  return true;
}

bool Cursor::read(double& v) {
  skip_space();
  const char* const begin = line_.data() + pos_;
  const char* const end = line_.data() + line_.size();
  // Take the characters the stream's num_get takes, then convert them as a
  // whole: the stream fails unless strtod consumes all of them. (num_get
  // stops before an 'e' that follows no digit; taking it here changes
  // nothing, since from_chars rejects a mantissa without digits too.)
  const char* p = begin;
  const bool negative = p != end && *p == '-';
  if (p != end && (*p == '+' || *p == '-')) ++p;
  const char* const mantissa = p;
  for (bool dot = false; p != end; ++p) {
    if (*p == '.' && !dot) {
      dot = true;
    } else if (!is_digit(*p)) {
      break;
    }
  }
  if (p != end && (*p == 'e' || *p == 'E')) {
    ++p;
    if (p != end && (*p == '+' || *p == '-')) ++p;
    while (p != end && is_digit(*p)) ++p;
  }
  const auto res = std::from_chars(negative ? begin : mantissa, p, v,
                                   std::chars_format::general);
  if (res.ec == std::errc::result_out_of_range && underflows(mantissa, p)) {
    v = negative ? -0.0 : 0.0;
  } else if (res.ec != std::errc{} || res.ptr != p) {
    return false;
  }
  pos_ = static_cast<std::size_t>(p - line_.data());
  return true;
}

}  // namespace hpn::text
